# Judge an interleaved A/B run of the repository benchmark.
#
#   awk -f scripts/bench_judge.awk BENCHMARK.json RUNS
#   awk -v spec=1 -f scripts/bench_judge.awk BENCHMARK.json
#
# RUNS holds one perfbench run per line, tab-separated: workload, side
# (`parent` or `change`), seed, and the run's result line
# {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
#
# For every workload in RUNS and every end-to-end metric of
# BENCHMARK.json it prints both sides' median and interquartile range,
# the change in the median, the pairs (same seed) the change won, ties
# counting for neither, and a verdict:
#   FAIL        the change's median is worse than the parent's by more
#               than the metric's bound AND lies outside the parent's
#               interquartile range (or the metric is missing);
#   better      over at least ten pairs, the change won 9 in 10 and its
#               median is better by more than the parent's
#               interquartile range: the only verdict that supports a
#               claimed gain;
#   unresolved  neither, and the parent's interquartile range is wider
#               than the bound (unless every change run beats every
#               parent run), so these runs cannot tell;
#   ok          otherwise.
# A run with `correct: false` on either side, or a change-side `failed`
# total above the parent's, fails the workload too.
#
# Exit status: 0 pass, 1 fail, 2 usage. With `-v spec=1` it only prints
# BENCHMARK.json's run_seconds, workloads and end-to-end metrics, one
# `key<TAB>value` line each, for scripts/bench_ab.sh to read.

# Flatten JSON `text` into flat[path] = scalar, where a path joins object
# keys and array indices with "." (e.g. `end_to_end.2.bound`). Strings
# lose their quotes; escapes other than \" and \\ are kept as written.
function flatten(text, flat,    n, i, c, d, kind, key, want_key, s, j, path) {
    split("", flat)
    n = length(text)
    d = 0
    for (i = 1; i <= n; i++) {
        c = substr(text, i, 1)
        if (c ~ /[ \t\r\n:]/) continue
        if (c == "{" || c == "[") {
            d++; kind[d] = c; key[d] = (c == "[") ? 0 : ""; want_key[d] = (c == "{")
            continue
        }
        if (c == "}" || c == "]") { d--; continue }
        if (c == ",") {
            if (kind[d] == "[") key[d]++; else want_key[d] = 1
            continue
        }
        if (c == "\"") {
            s = ""
            for (i++; i <= n && (c = substr(text, i, 1)) != "\""; i++) {
                if (c == "\\") { i++; c = substr(text, i, 1) }
                s = s c
            }
        } else {
            for (s = ""; i <= n && (c = substr(text, i, 1)) !~ /[] \t\r\n,}]/; i++) s = s c
            i--
        }
        if (kind[d] == "{" && want_key[d]) { key[d] = s; want_key[d] = 0; continue }
        path = key[1]
        for (j = 2; j <= d; j++) path = path "." key[j]
        flat[path] = s
    }
}

# Sort a[1..n] ascending (n is small: one value per pair).
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}

# The q-quantile of sorted a[1..n], interpolated between order statistics.
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q
    lo = int(h)
    return (lo + 1 < n) ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
}

# `x` relative to `base`: x / |base|, or 0 / a huge number when base is 0.
function rel(x, base) {
    if (base != 0) return x / (base < 0 ? -base : base)
    return (x == 0) ? 0 : (x > 0 ? 1e9 : -1e9)
}

function num(v) { return (v < 0 ? -v : v) >= 1e5 ? sprintf("%.0f", v) : sprintf("%.4g", v) }

# Sort side `side` of workload `w`'s values of metric `name` into v[1..n],
# set med, q1 and q3 from them, and return n.
function stats(w, side, name, v,    n, k) {
    n = 0
    for (k = 1; k <= runs[w, side]; k++)
        if ((w, side, k, name) in val) v[++n] = val[w, side, k, name]
    sort(v, n)
    if (n > 0) { med = quantile(v, n, 0.5); q1 = quantile(v, n, 0.25); q3 = quantile(v, n, 0.75) }
    return n
}

# Count the pairs (runs of both sides at one seed) in which the change
# reads strictly better on metric m; set `paired` to the number compared.
function wins(w, m,    k, j, d, n) {
    n = 0; paired = 0
    for (k = 1; k <= runs[w, "change"]; k++) {
        if (!((w, "parent", seed[w, "change", k]) in run_of)) continue
        j = run_of[w, "parent", seed[w, "change", k]]
        if (!((w, "change", k, metric[m]) in val) || !((w, "parent", j, metric[m]) in val)) continue
        paired++
        d = val[w, "change", k, metric[m]] - val[w, "parent", j, metric[m]]
        if (better[m] == "higher" ? d > 0 : d < 0) n++
    }
    return n
}

function row(w, name, p, c, delta, won, verdict) {
    printf "%-17s %-19s %-34s %-34s %8s %6s  %s\n", w, name, p, c, delta, won, verdict
}

BEGIN { FS = "\t" }

FNR == NR { spec_text = spec_text $0 "\n"; next }

# The spec is parsed on the first line of RUNS, or at END when there is none.
FNR == 1 { read_spec() }

NF >= 4 {
    w = $1; side = $2
    if (side != "parent" && side != "change") next
    if (!((w, "seen") in runs)) { runs[w, "seen"] = 1; order[++nw] = w }
    k = ++runs[w, side]
    seed[w, side, k] = $3
    run_of[w, side, $3] = k
    flatten($4, r)
    if (r["correct"] != "true") incorrect[w, side]++
    failed[w, side] += r["failed"]
    for (m = 1; m <= nm; m++)
        if (("metrics." metric[m] ".value") in r) val[w, side, k, metric[m]] = r["metrics." metric[m] ".value"] + 0
}

function read_spec(    i) {
    if (spec_done++) return
    flatten(spec_text, b)
    for (i = 0; ("end_to_end." i ".name") in b; i++) {
        metric[++nm] = b["end_to_end." i ".name"]
        better[nm] = b["end_to_end." i ".better"]
        bound[nm] = b["end_to_end." i ".bound"] + 0
    }
    for (i = 0; ("workloads." i ".name") in b; i++) workload[++nwl] = b["workloads." i ".name"]
    run_seconds = b["run_seconds"]
}

END {
    read_spec()
    if (spec) {
        print "run_seconds\t" run_seconds
        for (i = 1; i <= nwl; i++) print "workload\t" workload[i]
        for (i = 1; i <= nm; i++) print "metric\t" metric[i]
        exit ((nm > 0 && nwl > 0) ? 0 : 2)
    }
    if (nm == 0 || nw == 0) {
        print "usage: awk -f scripts/bench_judge.awk BENCHMARK.json RUNS (no metrics or no runs)" > "/dev/stderr"
        exit 2
    }
    row("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict")
    fails = 0; unresolved = 0
    for (i = 1; i <= nw; i++) {
        w = order[i]
        for (m = 1; m <= nm; m++) {
            name = metric[m]
            np = stats(w, "parent", name, pv); pm = med; pq1 = q1; pq3 = q3
            nc = stats(w, "change", name, cv); cm = med; cq1 = q1; cq3 = q3
            if (np < runs[w, "parent"] || nc < runs[w, "change"] || np == 0 || nc == 0) {
                row(w, name, np " of " runs[w, "parent"] + 0 " runs", nc " of " runs[w, "change"] + 0 " runs", "", "", "FAIL (missing)")
                fails++
                continue
            }
            delta = rel(cm - pm, pm)
            up = (better[m] == "higher")
            worse = up ? -delta : delta
            outside = up ? cm < pq1 : cm > pq3
            gap = up ? cm - pm : pm - cm
            separated = up ? cv[1] > pv[np] : cv[nc] < pv[1]
            won = wins(w, m)
            verdict = "ok"
            if (worse > bound[m] && outside) { verdict = "FAIL"; fails++ }
            else if (gap > pq3 - pq1 && paired >= 10 && won >= 0.9 * paired)
                verdict = "better"
            else if (rel(pq3 - pq1, pm) > bound[m] && !separated) { verdict = "unresolved"; unresolved++ }
            row(w, name, num(pm) " [" num(pq1) ", " num(pq3) "]", num(cm) " [" num(cq1) ", " num(cq3) "]",
                sprintf("%+.1f%%", 100 * delta), won "/" paired, verdict)
        }
        verdict = "ok"
        if (incorrect[w, "parent"] + incorrect[w, "change"] > 0) verdict = "FAIL (incorrect run)"
        row(w, "correct", runs[w, "parent"] - incorrect[w, "parent"] " of " runs[w, "parent"] + 0,
            runs[w, "change"] - incorrect[w, "change"] " of " runs[w, "change"] + 0, "", "", verdict)
        if (verdict != "ok") fails++
        verdict = "ok"
        if (failed[w, "change"] > failed[w, "parent"]) { verdict = "FAIL"; fails++ }
        row(w, "failed", failed[w, "parent"] + 0, failed[w, "change"] + 0, "", "", verdict)
    }
    if (fails) { printf "bench_judge: FAIL (%d rows)\n", fails; exit 1 }
    printf "bench_judge: PASS (%d unresolved)\n", unresolved
    exit 0
}
