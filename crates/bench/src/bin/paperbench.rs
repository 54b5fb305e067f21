//! `paperbench` — regenerate the paper's tables and figures.
//!
//! ```text
//! paperbench all                 # every experiment at default scale
//! paperbench table2 fig6a        # a subset
//! paperbench fig7c --scale 0.5   # larger datasets (toward paper sizes)
//! paperbench all --queries 20 --seed 7
//! ```

use fempath_bench::experiments;
use fempath_bench::BenchConfig;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BenchConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--queries" => {
                i += 1;
                cfg.queries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--queries needs an integer"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--json" => {
                cfg.json = true;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
        return;
    }
    if ids.iter().any(|x| x == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }
    println!(
        "fempath paperbench — scale {} | {} queries/measurement | seed {}{}",
        cfg.scale,
        cfg.queries,
        cfg.seed,
        if cfg.json { " | json" } else { "" }
    );
    for id in &ids {
        let t = Instant::now();
        if let Err(e) = experiments::run(id, &cfg) {
            eprintln!("experiment {id} failed: {e}");
            std::process::exit(1);
        }
        println!("[{id} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
}

fn usage() {
    println!("usage: paperbench <experiment...|all> [--scale X] [--queries N] [--seed N] [--json]");
    println!(
        "  --json   also write each experiment as BENCH_<experiment>.json in the working directory"
    );
    println!("experiments: {}", experiments::ALL.join(", "));
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
