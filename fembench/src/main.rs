//! `fembench` — the repository's one benchmark. See README.md beside this
//! package for the workloads, the metric glossary and how to run it;
//! `BENCHMARK.json` at the repository root is the contract it prints to.

mod inputs;
mod measure;
mod metrics;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workloads;

use metrics::{MetricDef, Values, END_TO_END, EXACT_COUNTS, PER_LAYER};
use oracle::Oracle;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Engine, Workload};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "usage: fembench (--workload <name> | --all | --repeat-check [N]) \
[--seed <n>] [--seconds <s>] [--trace <0|1>]
workloads: uniform-resident, uniform-disk, zipf-mutating, batch-resident";

enum Mode {
    /// Measure one workload in this process.
    One(Workload),
    /// Measure the four in order, each in a process of its own so that
    /// `peak_rss_mb` is that workload's alone.
    All,
    /// Measure each workload this many times and compare the runs.
    RepeatCheck(usize),
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 25.0f64, false);
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => {
                let n = match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 3,
                };
                if n < 2 {
                    return Err("--repeat-check needs at least 2 repeats".into());
                }
                mode = Some(Mode::RepeatCheck(n));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("name a workload, --all or --repeat-check")?,
        seed,
        seconds,
        trace,
    })
}

/// Files the benchmark writes (the disk workload's database, the span
/// lists) go beside its own executable, inside cargo's target directory.
fn scratch_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no grandparent directory")?
        .join("fembench-run");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Everything one run of one workload measured.
struct RunResult {
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
    document: String,
}

fn run_workload(w: Workload, args: &Args) -> Res<RunResult> {
    let scratch = scratch_dir()?;
    // `FileDisk::temp` creates (and at once unlinks) the disk workload's
    // database under the system temp directory; keep it inside the
    // checkout. No other thread exists yet.
    std::env::set_var("TMPDIR", &scratch);

    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..w.setup_repeats() {
        drop(ready.take()); // one database at a time, as a user would hold
        let r = workloads::setup(w)?;
        setups.push(r.parts);
        ready = Some(r);
    }
    let mut ready = ready.ok_or("no set-up ran")?;
    // The nearest-rank median set-up: `setup_s` and `setup.*` are its.
    setups.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    let parts = setups[(setups.len() - 1) / 2];

    let (timed, mut tracer) =
        workloads::run_timed(w, &mut ready, args.seed, args.seconds, args.trace);
    let mut oracle = Oracle::new(ready.graph.clone(), timed.inserted_edges.clone());
    let attempted = timed.ops.len() as u64;
    let failed = measure::count_failed(&timed.ops, &mut oracle);

    let (end_to_end, samples) = measure::end_to_end(&timed, &ready, parts.total_s);
    let mut per_layer =
        measure::layers_from_ops(&timed, matches!(ready.engine, Engine::Service(_)));
    per_layer.extend(measure::setup_values(&parts, ready.graph.num_arcs()));
    if args.trace {
        per_layer.extend(measure::trace_values(&timed, &tracer));
        // Probe values come last: on the batch workload the direct probe is
        // the only source of finder statistics.
        per_layer.extend(probes::run(w, &mut ready, &timed, args.seed, &mut tracer)?);
        let path = scratch.join(format!("trace-{}.json", w.name()));
        std::fs::write(&path, tracer.to_json())?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }

    let document = document(
        w,
        args,
        &end_to_end,
        &per_layer,
        &samples,
        attempted,
        failed,
    );
    Ok(RunResult {
        attempted,
        failed,
        end_to_end,
        per_layer,
        document,
    })
}

fn json_metrics(values: &Values, defs: &[MetricDef]) -> String {
    let items: Vec<String> = values
        .in_order(defs)
        .into_iter()
        .map(|(d, x)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, x, d.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// `git rev-parse HEAD` of the working directory, `unknown` outside a
/// repository or without git.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into())
}

/// The full output document: provenance, every workload constant, the
/// sample counts behind the percentiles, and both metric families.
fn document(
    w: Workload,
    args: &Args,
    end_to_end: &Values,
    per_layer: &Values,
    samples: &measure::LatencySamples,
    attempted: u64,
    failed: u64,
) -> String {
    let constants: Vec<String> = w
        .constants()
        .into_iter()
        .map(|(k, x)| format!("\"{k}\": {x}"))
        .collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"provenance\": {{\"commit\": \"{}\", \"available_parallelism\": {}, \
         \"debug_assertions\": {}, \"pool_pages\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"setup_repeats\": {}}}, \"constants\": {{{}}}, \
         \"latency_samples\": {{\"count\": {}, \"p50_has_ten_beyond\": {}, \"p95_has_ten_beyond\": {}}}, \
         \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
        w.name(),
        git_commit(),
        parallelism,
        cfg!(debug_assertions),
        w.pool_pages(),
        args.seed,
        args.seconds,
        args.trace,
        w.setup_repeats(),
        constants.join(", "),
        samples.count,
        samples.p50_supported,
        samples.p95_supported,
        attempted,
        failed,
        stats::ratio(failed as f64, attempted as f64),
        json_metrics(end_to_end, END_TO_END),
        json_metrics(per_layer, PER_LAYER),
    )
}

/// Prints one run: every metric of the run's family as `name value unit`,
/// the document, and last the one line the driver reads.
fn report(w: Workload, r: &RunResult, trace: bool) {
    let (values, defs) = if trace {
        (&r.per_layer, PER_LAYER)
    } else {
        (&r.end_to_end, END_TO_END)
    };
    println!("# {}", w.name());
    for (d, x) in values.in_order(defs) {
        println!("{} {} {}", d.name, x, d.unit);
    }
    if trace {
        let get = |n: &str| r.per_layer.get(n).unwrap_or(0.0);
        println!(
            "# {}: a computed answer is service.overhead {:.1} us (p50) + finder {:.3} ms (p50) \
             = pe {:.1}% + sc {:.1}% + fpr {:.1}% + glue {:.1}%; {:.1}% of traced wall time is \
             known only as a remainder",
            w.root_span(),
            get("service.overhead_p50_us"),
            get("algo.find_p50_ms"),
            get("algo.pe_frac") * 100.0,
            get("algo.sc_frac") * 100.0,
            get("algo.fpr_frac") * 100.0,
            get("algo.glue_frac") * 100.0,
            get("trace.residual_frac") * 100.0,
        );
    }
    println!("document {}", r.document);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        json_metrics(values, defs)
    );
}

/// Measures `w` in a child process, passes its output through, and
/// returns whether it exited clean and the document it printed.
fn run_child(w: Workload, args: &Args) -> Res<(bool, String)> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let document = stdout
        .lines()
        .find_map(|l| l.strip_prefix("document "))
        .ok_or_else(|| format!("{} printed no document", w.name()))?;
    Ok((out.status.success(), document.to_string()))
}

/// The value of metric `name` in a document this program printed.
fn metric_in(document: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &document[document.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs every workload `n` times and holds the runs against each other:
/// exact counts must repeat, and no gated metric may spread by more than
/// its bound.
fn repeat_check(n: usize, args: &Args) -> Res<bool> {
    let mut ok = true;
    for w in Workload::ALL {
        let mut documents = Vec::with_capacity(n);
        for i in 0..n {
            let (clean, document) = run_child(w, args)?;
            println!("# {} repeat {}/{} done", w.name(), i + 1, n);
            ok &= clean;
            documents.push(document);
        }
        let values = |name: &str| -> Vec<f64> {
            documents
                .iter()
                .map(|d| metric_in(d, name).unwrap_or(0.0))
                .collect()
        };
        for d in END_TO_END {
            let s = stats::sorted(values(d.name));
            let (min, med, max) = (s[0], stats::nearest_rank(&s, 0.5), s[s.len() - 1]);
            let spread = stats::ratio(max - min, med);
            // Set-up time is shown but not held to its bound here: a
            // set-up lasts a fraction of a second, and one slow spell of
            // the machine moves it more than it moves a 25-second run.
            let within = d.name == "setup_s" || d.bound.is_none_or(|b| spread <= b);
            println!(
                "{} {} min {} median {} max {} {} ({} is better) spread {:.4}{}",
                w.name(),
                d.name,
                min,
                med,
                max,
                d.unit,
                d.better.as_str(),
                spread,
                if within { "" } else { "  EXCEEDS ITS BOUND" }
            );
            ok &= within;
        }
        let mut exact = vec!["space_bytes_per_arc"];
        if w != Workload::ZipfMutating {
            // Two clients race, so which queries a worker computes varies.
            exact.extend(EXACT_COUNTS);
        }
        for name in exact {
            let xs = values(name);
            if xs.iter().all(|x| *x == 0.0) {
                // `query_batch` returns no statistics; only a traced run's
                // direct probe has these counts for the batch workload.
                println!("{} {} not measured without --trace 1", w.name(), name);
                continue;
            }
            let same = xs.iter().all(|x| *x == xs[0]);
            println!(
                "{} {} {} across repeats: {:?}",
                w.name(),
                name,
                if same { "identical" } else { "DIFFERS" },
                xs
            );
            ok &= same;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fembench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("fembench: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let outcome = match args.mode {
        Mode::One(w) => run_workload(w, &args).map(|r| {
            report(w, &r, args.trace);
            r.failed == 0
        }),
        Mode::All => Workload::ALL
            .into_iter()
            .try_fold(true, |ok, w| Ok(ok & run_child(w, &args)?.0)),
        Mode::RepeatCheck(n) => repeat_check(n, &args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fembench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_metric_reads_back() {
        let mut v = Values::default();
        v.set("throughput_qps", 131.2934013381914);
        v.set("space_bytes_per_arc", 149.0);
        let document = format!("{{\"end_to_end\": {}}}", json_metrics(&v, END_TO_END));
        assert_eq!(
            metric_in(&document, "throughput_qps"),
            Some(131.2934013381914)
        );
        assert_eq!(metric_in(&document, "space_bytes_per_arc"), Some(149.0));
        assert_eq!(
            metric_in(&document, "latency_p50_ms"),
            Some(0.0),
            "unmeasured reads 0"
        );
        assert_eq!(metric_in(&document, "no_such_metric"), None);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload zipf-mutating --seed 7 --seconds 25 --trace 1",
        ))
        .expect("the driver's own command line");
        assert!(matches!(a.mode, Mode::One(Workload::ZipfMutating)));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
        assert!(matches!(
            parse_args(&argv("--repeat-check")).map(|a| a.mode),
            Ok(Mode::RepeatCheck(3))
        ));
        assert!(matches!(
            parse_args(&argv("--repeat-check 5 --seed 2")).map(|a| a.mode),
            Ok(Mode::RepeatCheck(5))
        ));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err(), "no workload named");
        assert!(parse_args(&argv("--all --trace 2")).is_err());
    }
}
