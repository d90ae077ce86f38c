#!/usr/bin/env bash
# Performance gate: an interleaved A/B run of the repository benchmark
# (BENCHMARK.json, perfbench/) comparing the working tree against a base
# revision on the same host.
#
# Usage: scripts/bench_ab.sh <base-rev> [--pairs N] [--seconds S]
#
# - The base revision is checked out into a temporary git worktree
#   (removed on exit); both sides' perfbench are built --release
#   --offline, each in its own target directory.
# - For every workload of BENCHMARK.json it runs N pairs (default 10).
#   Pair i runs both sides at seed 7300+i for S seconds (default
#   BENCHMARK.json's run_seconds); odd pairs run the base first, even
#   pairs the change first.
# - Each run's result line goes to results/bench_ab/<time>-<rev>/runs.tsv
#   and scripts/bench_judge.awk judges them against BENCHMARK.json's
#   bounds; the table is printed and saved beside it as verdict.txt.
#
# Exit status: 0 no regression, 1 a regression or an incorrect run,
# 2 bad arguments, a base revision without perfbench/, or a failed build.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench_ab.sh <base-rev> [--pairs N] [--seconds S]" >&2
    exit 2
}
[ $# -ge 1 ] && [ "${1#-}" = "$1" ] || usage
base=$1
shift
pairs=10
seconds=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done

spec=$(awk -v spec=1 -f scripts/bench_judge.awk BENCHMARK.json) || exit 2
field() { awk -F'\t' -v k="$1" '$1 == k { print $2 }' <<<"$spec"; }
seconds=${seconds:-$(field run_seconds)}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seconds =~ ^[0-9]+([.][0-9]+)?$ ]] || usage

rev=$(git rev-parse --verify --quiet "$base^{commit}") || {
    echo "bench_ab: unknown revision $base" >&2
    exit 2
}
git cat-file -e "$rev:perfbench/Cargo.toml" 2>/dev/null || {
    echo "bench_ab: $base has no perfbench/" >&2
    exit 2
}

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$tmp/base" "$rev"

build() { # side, checkout, target dir
    echo "==> build perfbench ($1)" >&2
    cargo build --quiet --release --offline --manifest-path "$2/perfbench/Cargo.toml" \
        --target-dir "$3" || exit 2
}
build parent "$tmp/base" "$tmp/target"
build change . target/bench_ab
declare -A dir=([parent]="$tmp/base" [change]="$PWD")
declare -A bin=([parent]="$tmp/target/release/swishmem-perfbench"
    [change]="$PWD/target/bench_ab/release/swishmem-perfbench")

out=$PWD/results/bench_ab/$(date -u +%Y%m%dT%H%M%SZ)-${rev:0:12}
mkdir -p "$out"
# One run: its detail line and stderr go to <side>.log, its result line
# (or, if it printed none, a failed one) to runs.tsv.
run() { # side, workload, seed
    local result
    result=$(cd "${dir[$1]}" &&
        "${bin[$1]}" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
            2>>"$out/$1.log" | tee -a "$out/$1.log" | tail -n 1) || true
    case $result in
        '{"correct"'*) ;;
        *) result='{"correct": false, "attempted": 0, "failed": 1, "metrics": {}}' ;;
    esac
    printf '%s\t%s\t%s\t%s\n' "$2" "$1" "$3" "$result" >>"$out/runs.tsv"
}

for w in $(field workload); do
    for ((i = 1; i <= pairs; i++)); do
        echo "==> $w pair $i/$pairs (seed $((7300 + i)))" >&2
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$w" $((7300 + i)); done
    done
done

status=0
awk -f scripts/bench_judge.awk BENCHMARK.json "$out/runs.tsv" >"$out/verdict.txt" || status=$?
cat "$out/verdict.txt"
echo "bench_ab: $base ($rev) vs working tree, $pairs pairs x ${seconds}s; runs in $out" >&2
exit "$status"
