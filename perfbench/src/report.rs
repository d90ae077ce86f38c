//! JSON output. The result line carries exactly `correct`, `attempted`,
//! `failed` and `metrics`; the detail line before it carries the seed,
//! noise diagnostics, sample counts and the first check failures.

use crate::run::{Metric, Outcome};

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(ms: &[Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_object(&o.metrics)
    )
}

/// The detail line: workload, seed, git revision, diagnostics, errors.
pub fn detail_line(workload: &str, seed: u64, git_rev: &str, o: &Outcome) -> String {
    let errors: Vec<String> = o.errors.iter().map(|e| string(e)).collect();
    format!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, \"git_rev\": {}, \"diagnostics\": {}, \"errors\": [{}]}}}}",
        string(workload),
        seed,
        string(git_rev),
        metrics_object(&o.diag),
        errors.join(", ")
    )
}
