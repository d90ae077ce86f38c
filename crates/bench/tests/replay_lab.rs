//! Smoke tests for the E24 replay-lab gates: the determinism and
//! ring-parity checks at CI scale. The full-size gates (1M flows, five
//! scenario packs, the 0.90x parity floor) live in the experiment
//! itself; these keep the invariants on every `scripts/verify.sh` run
//! with gates generous enough for noisy shared runners (the
//! `trace_overhead.rs` convention).

use std::sync::{Mutex, MutexGuard, PoisonError};
use swishmem_bench::experiments::e24_replay_lab;
use swishmem_bench::shardnet::{
    run_leaf_spine_injected, trace_to_leaf_spine, LeafSpineSpec, ShardRunConfig,
};
use swishmem_replay::{from_swtrace_bytes, synth_trace_bytes, SynthConfig};

/// The ring-parity test times itself, so no other test in this binary
/// may share the CPU with it: each holds this guard while it runs.
static TIMED: Mutex<()> = Mutex::new(());

fn timed_guard() -> MutexGuard<'static, ()> {
    // The mutex guards no data, so a panic in another test leaves
    // nothing to repair.
    TIMED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The core replay-lab contract at smoke scale: the same trace through
/// the leaf-spine fabric yields one digest sequentially (twice) and at
/// 2 shards. No timing involved, so this gate is exact.
#[test]
fn replay_digest_is_shard_invariant() {
    let _timed = timed_guard();
    let spec = LeafSpineSpec {
        leaves: 8,
        spines: 2,
    };
    let cfg = SynthConfig {
        flows: 3_000,
        ingress: u32::from(spec.leaves),
        ..SynthConfig::default()
    };
    let bytes = synth_trace_bytes(&cfg, 5);
    let (_, records) = from_swtrace_bytes(&bytes).expect("synthesized trace must parse");
    let injections = trace_to_leaf_spine(&spec, &records);
    assert!(injections.len() >= 3_000);
    let digests: Vec<u64> = [1usize, 1, 2]
        .iter()
        .map(|&shards| {
            run_leaf_spine_injected(&ShardRunConfig::scaling(spec, shards, 0), &injections).digest
        })
        .collect();
    assert_eq!(digests[0], digests[1], "sequential replay must repeat");
    assert_eq!(
        digests[0], digests[2],
        "2-shard replay must match sequential"
    );
}

/// Ring-buffer ingest must keep pace with generator-driven injection.
/// The experiment gates at 0.90x; the CI smoke allows 0.75x to tolerate
/// scheduler noise on shared runners.
#[test]
fn ring_ingest_keeps_pace_with_generator_driven() {
    let _timed = timed_guard();
    let (direct, ring) = e24_replay_lab::measure_ring_parity(6_000, 3);
    let ratio = ring / direct.max(1.0);
    assert!(
        ratio >= 0.75,
        "ring ingest fell to {ratio:.2}x of generator-driven \
         (direct {:.2}M ev/s, ring {:.2}M ev/s)",
        direct / 1e6,
        ring / 1e6,
    );
}
