//! Self-tests of the benchmark: every workload passes its checks at a
//! tiny size, the checks fire on a wrong expectation, simulated results
//! repeat for a seed and change with it, and the traced run accounts
//! for its wall time. Run with `cargo test --release` in `perfbench/`.

use swishmem_perfbench::{run, Outcome, RunConfig, Workload, E2E};

fn tiny(workload: Workload, seed: u64) -> RunConfig {
    let slices = match workload {
        Workload::ReplayLeafspine => 2,
        _ => 40,
    };
    RunConfig {
        workload,
        seed,
        slices,
        setup_reps: 1,
        trace: false,
        sabotage: false,
        max_wall: std::time::Duration::from_secs(600),
    }
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// Metric names listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn smoke_every_workload_passes_its_checks() {
    for w in Workload::ALL {
        let o = run(&tiny(w, 11));
        assert!(o.correct, "{}: {:?}", w.name(), o.errors);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 100, "{}: attempted {}", w.name(), o.attempted);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, E2E, "{}", w.name());
        for m in &o.metrics {
            // schedstat CPU time advances in scheduler ticks, so a run this
            // short may see none of it.
            let floor_ok = m.value > 0.0 || (m.name == "cpu_ns_per_pkt" && m.value == 0.0);
            assert!(m.value.is_finite() && floor_ok, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn end_to_end_names_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), E2E);
}

#[test]
fn same_seed_repeats_the_simulation() {
    for w in Workload::ALL {
        let a = run(&tiny(w, 5));
        let b = run(&tiny(w, 5));
        assert_eq!(a.sim, b.sim, "{}", w.name());
    }
}

#[test]
fn held_out_seed_changes_inputs_and_passes() {
    for w in Workload::ALL {
        let a = run(&tiny(w, 5));
        let b = run(&tiny(w, 9_000_017));
        assert!(b.correct, "{}: {:?}", w.name(), b.errors);
        assert_ne!(
            a.sim,
            b.sim,
            "{}: a new seed must change the inputs",
            w.name()
        );
    }
}

#[test]
fn sabotaged_expectation_fails_the_checks() {
    for w in Workload::ALL {
        let cfg = RunConfig {
            sabotage: true,
            ..tiny(w, 5)
        };
        let o = run(&cfg);
        assert!(
            !o.correct,
            "{}: a wrong expected value went unnoticed",
            w.name()
        );
        assert!(o.failed > 0 && !o.errors.is_empty());
    }
}

#[test]
fn traced_run_reconciles_with_wall_time() {
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let cfg = RunConfig {
            trace: true,
            slices: tiny(w, 3).slices * 2,
            ..tiny(w, 3)
        };
        let o = run(&cfg);
        assert!(o.correct, "{}: {:?}", w.name(), o.errors);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, per_layer, "{}", w.name());
        let coverage = value(&o, "trace.coverage_pct");
        assert!(
            (95.0..=100.5).contains(&coverage),
            "{}: spans cover {coverage}% of the timed phase",
            w.name()
        );
        assert!(o
            .spans_tsv
            .as_deref()
            .is_some_and(|t| t.contains("data/switch")));
    }
}
