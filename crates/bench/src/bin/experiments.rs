//! CLI driver: runs the paper-reproduction experiments and prints the
//! regenerated tables (optionally exporting JSON).
//!
//! Usage: `experiments [--quick] [--json PATH] [--list] [--only ID]...
//! [ID]...` — `--list` prints the known ids and exits; `--only e19`
//! (repeatable) and bare positional ids both select a subset. An unknown
//! flag, or `--json`/`--only` without a value, prints the usage and exits
//! with status 2.

use swishmem_bench::experiments;

const USAGE: &str = "usage: experiments [--quick] [--json PATH] [--list] [--only ID]... [ID]...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "--list" => {}
            a @ ("--json" | "--only") if i + 1 == args.len() => {
                usage_error(&format!("{a} needs a value"))
            }
            "--json" => i += 1,
            "--only" => {
                selected.push(args[i + 1].to_lowercase());
                i += 1;
            }
            a if !a.starts_with("--") => selected.push(a.to_lowercase()),
            a => usage_error(&format!("unknown argument {a:?}")),
        }
        i += 1;
    }

    let all = experiments::all();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in &all {
            println!("{id}");
        }
        eprintln!(
            "companion bins (cargo run -p swishmem-bench --release --bin <name>): \
             explain, perf_baseline, capture, replay"
        );
        return;
    }
    let known: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
    let to_run: Vec<_> = if selected.is_empty() {
        all
    } else {
        all.into_iter()
            .filter(|(id, _)| selected.iter().any(|s| s == id))
            .collect()
    };
    if to_run.is_empty() {
        eprintln!("no matching experiments; known ids: {}", known.join(" "));
        std::process::exit(2);
    }

    println!(
        "SwiShmem reproduction experiments ({} mode)",
        if quick { "quick" } else { "full" }
    );
    let mut results = Vec::new();
    for (id, run) in to_run {
        eprintln!("running {id} ...");
        let started = std::time::Instant::now();
        let res = run(quick);
        eprintln!("  {id} done in {:.1}s", started.elapsed().as_secs_f64());
        println!("{}", res.render());
        results.push(res);
    }
    if let Some(path) = json_path {
        let json = swishmem_bench::table::results_to_json(&results);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}
