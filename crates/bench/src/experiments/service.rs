//! **Service throughput** — beyond the paper (DESIGN.md §10, §13):
//! queries per second of the concurrent [`PathService`] as the worker
//! count grows, on a Fig 6(a)-style power-law graph, with the dispatch
//! counters alongside.
//!
//! Every worker owns a private session over one `Arc`-shared read-only
//! graph snapshot and pops jobs from the pool's one FIFO queue, so
//! adding workers adds truly concurrent searches. The workload is driven
//! by as many client threads as there are workers, all pulling query
//! pairs from one shared list. Expected shape: queries/sec grows with
//! the worker count up to the machine's available parallelism (the
//! table records it) and stays flat beyond. The queue-depth high-water
//! mark and queue-wait quantiles say *why* a point is slow: low waits
//! mean the queue is not the bottleneck; waits that grow once workers
//! exceed cores mean saturation.

use crate::harness::{print_table, query_pairs, secs, BenchConfig};
use fempath_core::PathService;
use fempath_graph::generate;
use fempath_sql::Result;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Drives `svc` with one client thread per worker until every pair is
/// answered; returns (elapsed, reachable count, sorted per-query
/// latencies).
fn drive(svc: &PathService, pairs: &[(i64, i64)]) -> Result<(Duration, usize, Vec<Duration>)> {
    let next = AtomicUsize::new(0);
    let reachable = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(pairs.len()));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..svc.worker_count() {
            scope.spawn(|| {
                // Client-local latencies, merged once at the end so the
                // lock never sits on the query path.
                let mut local = Vec::new();
                loop {
                    // ORDERING: Relaxed — the RMW alone hands each index
                    // to exactly one client; no other memory rides on it.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(s, t)) = pairs.get(i) else { break };
                    let q = Instant::now();
                    // ORDERING: Relaxed — tallies read only after the
                    // scope joins every client, which synchronizes them.
                    match svc.query(s, t) {
                        Ok(out) if out.path.is_some() => {
                            reachable.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {}
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    local.push(q.elapsed());
                }
                latencies
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let elapsed = t.elapsed();
    // ORDERING: Relaxed — every client thread has joined, so the tallies
    // are final.
    if failed.load(Ordering::Relaxed) > 0 {
        return Err(fempath_sql::SqlError::Eval(format!(
            "{} service queries failed",
            failed.load(Ordering::Relaxed)
        )));
    }
    let mut lat = latencies
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    lat.sort_unstable();
    // ORDERING: Relaxed — final after the join, as above.
    Ok((elapsed, reachable.load(Ordering::Relaxed), lat))
}

/// Latency at quantile `q` (0.0–1.0) of an ascending-sorted sample
/// (nearest-rank; the sample is complete, not an estimate).
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Milliseconds with two decimals (latency columns).
fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

pub fn throughput(cfg: &BenchConfig) -> Result<()> {
    let n = cfg.nodes(100_000, 0.01);
    let g = generate::power_law(n, 3, 1..=100, cfg.seed);
    // Enough queries that the pool stays busy across every sweep point.
    let pairs = query_pairs(n, cfg.queries.max(4) * 8, cfg.seed);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut rows = Vec::new();
    let mut baseline_qps = 0.0f64;
    let mut baseline_reachable = usize::MAX;
    let mut qps_by_workers: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let svc = PathService::new(&g, workers)?;
        let (elapsed, reachable, lat) = drive(&svc, &pairs)?;
        if workers == 1 {
            baseline_reachable = reachable;
        } else {
            assert_eq!(
                reachable, baseline_reachable,
                "worker count must not change answers"
            );
        }
        let qps = pairs.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        if workers == 1 {
            baseline_qps = qps;
        }
        qps_by_workers.push((workers, qps));
        let stats = svc.stats();
        let plans = svc.snapshot().shared_plan_stats();
        rows.push(vec![
            format!("{workers}"),
            format!("{}", pairs.len()),
            secs(elapsed),
            format!("{qps:.1}"),
            format!("{:.2}x", qps / baseline_qps.max(1e-9)),
            ms(percentile(&lat, 0.50)),
            ms(percentile(&lat, 0.95)),
            ms(percentile(&lat, 0.99)),
            format!("{}", stats.max_queue_depth_hwm()),
            format!("{}", stats.wait_quantile_us(0.50)),
            format!("{}", stats.wait_quantile_us(0.99)),
            format!("{}", plans.publishes),
            format!("{}", stats.lm_fast_path_hits),
            format!("{:.0}%", stats.cache_hit_rate() * 100.0),
            format!("{reachable}"),
        ]);
    }
    let header = [
        "workers",
        "queries",
        "total (s)",
        "queries/s",
        "speedup",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "q-hwm",
        "qwait p50 (us)",
        "qwait p99 (us)",
        "plan pubs",
        "lm hits",
        "cache hit%",
        "reachable",
    ];
    print_table(
        &format!("Service throughput: PathService on Power |V|={n}, {cores} core(s) available"),
        &header,
        &rows,
    );
    println!(
        "expected shape: queries/sec scales with workers up to the \
         machine's available parallelism ({cores} here) — every worker \
         searches a private session over one shared read-only snapshot \
         and pops the oldest job from one shared queue, a lock held for \
         nanoseconds per millisecond-scale search; beyond the core count \
         the curve flattens rather than degrading. The queue-depth and \
         queue-wait columns separate dispatch contention (waits grow \
         while cores are idle) from honest saturation (waits grow once \
         workers exceed cores); `plan pubs` \
         stays at the distinct-statement count because the shared plan \
         cache publishes once per statement."
    );
    // Scaling gate: q/s must be non-decreasing from 1 to 4 workers
    // wherever real parallelism exists. Skipped on 1-core machines, where extra
    // workers can only add scheduling overhead.
    if cores > 1 {
        let qps_at = |w: usize| {
            qps_by_workers
                .iter()
                .find(|&&(workers, _)| workers == w)
                .map(|&(_, q)| q)
                .unwrap_or(0.0)
        };
        let (one, four) = (qps_at(1), qps_at(4));
        assert!(
            four >= one * 0.9,
            "throughput regressed with workers on a {cores}-core machine: \
             {one:.1} q/s at 1 worker vs {four:.1} q/s at 4 (dispatch is \
             serializing again)"
        );
        println!("scaling check: {one:.1} q/s @1 worker -> {four:.1} q/s @4 workers (ok)");
    } else {
        println!("scaling check skipped: only one core available");
    }
    Ok(())
}
