//! **Cached serving under Zipfian skew** — beyond the paper
//! (DESIGN.md §16): the version-keyed result cache measured
//! under the workload it was built for — skewed traffic where a small
//! set of hot `(s, t)` pairs dominates.
//!
//! A fixed pool of query pairs is replayed as a Zipfian trace at several
//! skew parameters θ (0 = uniform … 1.2 = extreme head concentration),
//! once against a cache-enabled [`PathService`] and once against an
//! identically-configured cache-disabled one. The table reports the hit
//! rate and the cached vs uncached latency quantiles side by side.
//! Expected shape: at θ ≈ 1 (the YCSB-style skew) most of the trace
//! lands on a few dozen hot pairs, the hit rate clears 50% and the
//! cached p50 collapses to a hash-map probe, while the uniform row
//! shows the honest worst case — a cache can only help as much as the
//! workload repeats itself.
//!
//! The final row measures **invalidation cost**: after an edge mutation
//! bumps the graph version, every cached verdict is stale by
//! construction, so the same hot trace must re-pay one full computation
//! per distinct pair before the hit rate recovers. That recovery — not
//! the steady state — is the price of serving mutations from a cache
//! keyed by `(s, t, graph_version)`.

use crate::harness::{print_table, query_pairs, zipf_trace, BenchConfig};
use fempath_core::{PathService, PathServiceOptions};
use fempath_graph::generate;
use fempath_sql::Result;
use std::time::{Duration, Instant};

/// Replays `trace` through `svc.query` on one client thread, returning
/// ascending per-query latencies (single-threaded replay keeps the
/// quantiles clean: no queue-wait noise on top of the cache effect).
fn replay(svc: &PathService, trace: &[(i64, i64)]) -> Result<Vec<Duration>> {
    let mut lat = Vec::with_capacity(trace.len());
    for &(s, t) in trace {
        let q = Instant::now();
        svc.query(s, t)?;
        lat.push(q.elapsed());
    }
    lat.sort_unstable();
    Ok(lat)
}

/// Nearest-rank quantile of an ascending-sorted complete sample.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Microseconds with one decimal — cached probes sit well under a
/// millisecond, so the ms scale used elsewhere would print zeros.
fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

pub fn run(cfg: &BenchConfig) -> Result<()> {
    let n = cfg.nodes(100_000, 0.01);
    let g = generate::power_law(n, 3, 1..=100, cfg.seed);
    // The trace must dwarf the distinct-pair pool regardless of
    // --queries, or the compulsory misses (one per distinct pair) swamp
    // the hit rate the CI smoke gate asserts on; the pool in turn scales
    // with the trace so uniform replay keeps paying compulsory misses
    // while Zipfian skew concentrates on the head ranks.
    let trace_len = (cfg.queries * 100).clamp(400, 20_000);
    let pool = query_pairs(n, (trace_len / 2).clamp(64, 4096), cfg.seed);
    let workers = 4;

    let mk_svc = |cache_bytes: usize| {
        PathService::with_options(
            &g,
            &PathServiceOptions {
                workers,
                cache_bytes,
                ..Default::default()
            },
        )
    };

    let mut rows = Vec::new();
    let mut hot_svc = None;
    let mut hot_trace = Vec::new();
    for &theta in &[0.0f64, 0.5, 0.99, 1.2] {
        let trace = zipf_trace(&pool, trace_len, theta, cfg.seed);
        let cached_svc = mk_svc(fempath_core::DEFAULT_CACHE_BYTES)?;
        let uncached_svc = mk_svc(0)?;
        let cached = replay(&cached_svc, &trace)?;
        let uncached = replay(&uncached_svc, &trace)?;
        let stats = cached_svc.stats();
        let hit_rate = stats.cache_hit_rate();
        rows.push(vec![
            format!("{theta:.2}"),
            format!("{trace_len}"),
            format!("{}", pool.len()),
            format!("{:.1}%", hit_rate * 100.0),
            us(percentile(&cached, 0.50)),
            us(percentile(&cached, 0.95)),
            us(percentile(&cached, 0.99)),
            us(percentile(&uncached, 0.50)),
            us(percentile(&uncached, 0.95)),
            us(percentile(&uncached, 0.99)),
            format!(
                "{:.1}x",
                percentile(&uncached, 0.50).as_secs_f64()
                    / percentile(&cached, 0.50).as_secs_f64().max(1e-9)
            ),
        ]);
        if theta == 0.99 {
            hot_svc = Some(cached_svc);
            hot_trace = trace;
        }
    }

    // Invalidation cost: mutate the graph under the θ=0.99 service and
    // replay the hot trace — every resident verdict is now stale, so the
    // first touch per distinct pair re-pays the full search.
    let Some(svc) = hot_svc else {
        return Err(fempath_sql::SqlError::Eval(
            "theta sweep no longer includes 0.99".into(),
        ));
    };
    let before = svc.stats();
    let (u, v) = pool[0];
    svc.insert_edge(u, v, 1)?;
    let post = replay(&svc, &hot_trace)?;
    let after = svc.stats();
    let post_hits = after.cache.hits - before.cache.hits;
    let post_misses = after.cache.misses - before.cache.misses;
    let post_total = (post_hits + post_misses).max(1);
    rows.push(vec![
        "0.99+mut".into(),
        format!("{}", hot_trace.len()),
        format!("{}", pool.len()),
        format!("{:.1}%", post_hits as f64 / post_total as f64 * 100.0),
        us(percentile(&post, 0.50)),
        us(percentile(&post, 0.95)),
        us(percentile(&post, 0.99)),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("stale {}", after.cache.stale - before.cache.stale),
    ]);

    let header = [
        "theta",
        "trace",
        "pool",
        "hit rate",
        "cached p50 (us)",
        "cached p95 (us)",
        "cached p99 (us)",
        "uncached p50 (us)",
        "uncached p95 (us)",
        "uncached p99 (us)",
        "p50 speedup",
    ];
    print_table(
        &format!(
            "Cached serving under Zipfian skew: PathService on Power |V|={n}, \
             {workers} workers, version-keyed result cache (DESIGN.md §16)"
        ),
        &header,
        &rows,
    );
    println!(
        "expected shape: at theta ~= 1 the trace concentrates on a few \
         dozen hot pairs, the hit rate clears 50% and the cached p50 \
         collapses to one hash probe, while uniform replay (theta \
         0) pays one compulsory miss per distinct pair and barely \
         benefits; the 0.99+mut row replays the hot trace after an edge \
         mutation bumped the graph version — every resident verdict is \
         stale by construction (the `stale` count in the last column), \
         so the hit rate dips to the re-fill rate and recovers within \
         one pass over the distinct pairs."
    );
    Ok(())
}
