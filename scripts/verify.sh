#!/usr/bin/env bash
# Tier-1 verification gate: everything a change must pass before review.
# Usage: scripts/verify.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test -q --workspace

# The seeded fault-sweep suite is part of the workspace run above, but it
# is the robustness gate, so run it by name too: a failure here prints the
# deployment seed and the full fault schedule needed to replay it.
echo "==> cargo test --test fault_sweep (seeded fault schedules vs oracles)"
cargo test -q --test fault_sweep

# Reconfiguration gates (DESIGN.md §10), by name: migrations interleaved
# into random fault schedules must stay oracle-clean, and the directory's
# structural invariants (coverage, no overlap) must hold under any
# operation sequence.
echo "==> cargo test --test reconfig_sweep (migration-under-fault sweep)"
cargo test -q --test reconfig_sweep
echo "==> cargo test --test directory_invariants (range-table property tests)"
cargo test -q -p swishmem --test directory_invariants

# Replicated-control-plane gate (DESIGN.md §12), by name: the 3-replica
# smoke plus the crash-during-migration sweep — the leader dies
# mid-Transferring and at the dual-owner boundary across >=12 seeds, and
# every run must keep all foreground writes, finish the migration under
# the surviving quorum, and stay silent under the cross-replica
# epoch-uniqueness / no-split-brain oracles.
echo "==> cargo test --test controller_failover three_replica_smoke (3-replica smoke)"
cargo test -q --test controller_failover three_replica_smoke
echo "==> cargo test --test controller_failover (leader-failover sweep)"
cargo test -q --test controller_failover

# Consensus-hardening gates (DESIGN.md §13), by name: the long-horizon
# compaction sweep must recycle log slots without ever tripping the
# SLOT_CAP overflow error, the 12-seed reconfiguration-under-fault sweep
# must converge every membership decree to exactly one group, and the
# adaptive failure detector must beat the static timeout on real crashes
# while staying silent (no elections, no suspicion) under gray links.
echo "==> cargo test --test consensus_hardening compaction_sweep_long_horizon (compaction sweep)"
cargo test -q --test consensus_hardening compaction_sweep_long_horizon
echo "==> cargo test --test consensus_hardening reconfiguration_under_fault_sweep (membership under fault)"
cargo test -q --test consensus_hardening reconfiguration_under_fault_sweep
echo "==> cargo test --test consensus_hardening detector (detector vs gray links)"
cargo test -q --test consensus_hardening detector_cuts_failover_gap
cargo test -q --test consensus_hardening gray_links_cause_no_spurious_elections

# Observability gates (DESIGN.md §9), also by name: span tracing must be
# a passive observer (golden fingerprint bit-identical with a collector
# attached), and compiled-in-but-disabled tracing must stay cheap.
echo "==> cargo test --test determinism (span attach invisible to fingerprint)"
cargo test -q -p swishmem-simnet --test determinism
# The explain tool end to end: on seeds with and without switch crashes,
# every write_latency sample reconciles with a span breakdown and the
# journal's failover gap matches the election log within 1 µs.
echo "==> cargo test --release --test explain (span reconciliation + journal fidelity)"
cargo test -q --release -p swishmem-bench --test explain

# Flight-recorder gates (DESIGN.md §14), by name: attaching the journal
# must be bit-invisible to both golden fingerprints (sequential and
# sharded), a fault-swept replay must reproduce the record stream byte
# for byte, and the record stream must be shard-count invariant.
echo "==> cargo test --test determinism journal (journal passivity + byte-identical replay)"
cargo test -q -p swishmem-simnet --test determinism journal
echo "==> cargo test --test shard_determinism journal (journal under the sharded engine)"
cargo test -q -p swishmem-simnet --test shard_determinism journal

# Parallel-engine gates (DESIGN.md §11), by name: a single-shard
# ShardedEngine must reproduce the sequential golden fingerprint
# bit-for-bit, shard/worker count must be pure performance knobs, and a
# fast 2-shard fault sweep must run oracle-clean.
echo "==> cargo test --test shard_determinism (sharded PDES determinism)"
cargo test -q -p swishmem-simnet --test shard_determinism
echo "==> cargo test shardnet:: (2-shard fault-sweep smoke)"
cargo test -q -p swishmem-bench --lib shardnet::
echo "==> cargo test --release --test trace_overhead (detached tracing + journaling overhead)"
cargo test -q --release -p swishmem-bench --test trace_overhead
echo "==> cargo test --release --test trace_overhead detached_journal_overhead_is_small (E23 smoke)"
cargo test -q --release -p swishmem-bench --test trace_overhead detached_journal_overhead_is_small

# Replay-lab gates (DESIGN.md §15), by name: the `.swtrace` format must
# round-trip at a million records and reject truncation/corruption with
# typed errors, the five oracle-armed scenario packs must pass clean with
# the sabotaged feed failing (proving the gate is live), and the E24
# smoke must hold digest shard-invariance plus ring-ingest parity.
echo "==> cargo test --test roundtrip (.swtrace round-trip + corruption rejection)"
cargo test -q -p swishmem-replay --test roundtrip
echo "==> cargo test --test scenario_packs (five packs clean, sabotage fails)"
cargo test -q -p swishmem-replay --test scenario_packs
echo "==> cargo test --release --test replay_lab (E24 smoke: digest invariance + ring parity)"
cargo test -q --release -p swishmem-bench --test replay_lab

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "verify: all gates passed"
