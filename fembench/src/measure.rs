//! Turns the timed section's operation records into numbers: checks every
//! answer against the oracle, then derives the end-to-end metrics and
//! the per-layer metrics that need nothing but what the calls returned.

use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::stats::{mean, nearest_rank, ratio, sorted, supported};
use crate::trace::{self_times, Tracer};
use crate::workloads::{Answer, Input, Op, Ready, SetupParts, Timed};
use fempath_core::QueryStats;
use fempath_storage::PAGE_SIZE;

/// The returned counters of the first this-many computed answers make
/// the exact-count metrics. A run that lasts longer executes the same
/// prefix of operations, so with one client the counts repeat exactly.
pub const COUNT_PREFIX: usize = 100;

/// How many operations the program got wrong: calls that returned an
/// error, and answers the oracle rejects.
pub fn count_failed(ops: &[Op], oracle: &mut Oracle) -> u64 {
    let mut failed = 0u64;
    for op in ops {
        let (first, last) = op.versions;
        let ok = match (&op.input, &op.answer) {
            (Input::Pair(s, t), Answer::Path(p)) => oracle.accepts_any(first, last, *s, *t, p),
            (Input::Batch(pairs), Answer::Paths(paths)) => {
                pairs.len() == paths.len()
                    && pairs
                        .iter()
                        .zip(paths)
                        .all(|(&(s, t), p)| oracle.accepts_any(first, last, s, t, p))
            }
            (Input::Mutation, Answer::Mutated) => true,
            _ => false,
        };
        if !ok {
            failed += 1;
            if failed <= 5 {
                match &op.answer {
                    Answer::Failed(e) => eprintln!("failed: {:?}: {e}", op.input),
                    other => eprintln!("wrong: {:?} answered {other:?}", op.input),
                }
            }
        }
    }
    failed
}

/// Sample counts behind the two latency percentiles, for the document.
pub struct LatencySamples {
    pub count: usize,
    pub p50_supported: bool,
    pub p95_supported: bool,
}

/// The end-to-end metrics of one run.
pub fn end_to_end(timed: &Timed, ready: &Ready, setup_s: f64) -> (Values, LatencySamples) {
    let mut v = Values::default();
    let pairs: usize = timed.ops.iter().map(Op::pairs_answered).sum();
    v.set("throughput_qps", ratio(pairs as f64, timed.elapsed_s));
    let lat = sorted(
        timed
            .ops
            .iter()
            .filter(|o| !o.is_mutation())
            .map(Op::latency_ms)
            .collect(),
    );
    v.set("latency_p50_ms", nearest_rank(&lat, 0.50));
    v.set("latency_p95_ms", nearest_rank(&lat, 0.95));
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", timed.peak_rss_mb);
    v.set(
        "space_bytes_per_arc",
        ratio(
            (ready.data_pages * PAGE_SIZE as u64) as f64,
            ready.graph.num_arcs() as f64,
        ),
    );
    let samples = LatencySamples {
        count: lat.len(),
        p50_supported: supported(lat.len(), 0.50),
        p95_supported: supported(lat.len(), 0.95),
    };
    (v, samples)
}

/// `setup.*` from the set-up whose total is the reported `setup_s`.
pub fn setup_values(parts: &SetupParts, arcs: usize) -> Values {
    let mut v = Values::default();
    v.set("setup.generate_s", parts.generate_s);
    v.set("setup.load_s", parts.load_s);
    v.set("setup.load_arcs_per_s", ratio(arcs as f64, parts.load_s));
    v.set("setup.segtable_build_s", parts.segtable_build_s);
    v.set("setup.segtable_segments", parts.segtable_segments as f64);
    v.set("setup.freeze_s", parts.freeze_s);
    v.set("setup.session_spawn_us", parts.session_spawn_s * 1e6);
    v.set("setup.warmup_s", parts.warmup_s);
    v
}

/// `algo.*`, `buffer.*` and `disk.*` from finder runs: each sample is the
/// stats one call returned and the number of pairs it answered.
pub fn finder_values(samples: &[(&QueryStats, usize)]) -> Values {
    let mut v = Values::default();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let sum = |f: &dyn Fn(&QueryStats) -> f64, of: &[(&QueryStats, usize)]| -> f64 {
        of.iter().map(|(s, _)| f(s)).sum()
    };
    let pairs_in = |of: &[(&QueryStats, usize)]| of.iter().map(|(_, n)| *n).sum::<usize>() as f64;

    let prefix = &samples[..samples.len().min(COUNT_PREFIX)];
    let n_prefix = pairs_in(prefix);
    type Count = fn(&QueryStats) -> f64;
    let counts: [(&'static str, Count); 8] = [
        ("algo.expansions_per_query", |s| s.expansions as f64),
        ("algo.visited_per_query", |s| s.visited_nodes as f64),
        ("algo.statements_per_query", |s| s.sql_statements as f64),
        ("buffer.accesses_per_query", |s| s.io.accesses() as f64),
        ("buffer.misses_per_query", |s| s.io.buffer_misses as f64),
        ("buffer.evictions_per_query", |s| s.io.evictions as f64),
        ("disk.reads_per_query", |s| s.io.disk_reads as f64),
        ("disk.writes_per_query", |s| s.io.disk_writes as f64),
    ];
    for (name, count) in counts {
        v.set(name, ratio(sum(&count, prefix), n_prefix));
    }
    v.set(
        "buffer.hit_rate",
        ratio(
            sum(&|s| s.io.buffer_hits as f64, prefix),
            sum(&|s| s.io.accesses() as f64, prefix),
        ),
    );

    let n = pairs_in(samples);
    let total = sum(&|s| us(s.total_time), samples);
    let phases = sum(&|s| s.phase_times.iter().map(|&d| us(d)).sum(), samples);
    for (i, name) in ["algo.pe_frac", "algo.sc_frac", "algo.fpr_frac"]
        .into_iter()
        .enumerate()
    {
        v.set(name, ratio(sum(&|s| us(s.phase_times[i]), samples), total));
    }
    v.set("algo.glue_frac", ratio(total - phases, total));
    for (i, name) in [
        "algo.f_us_per_query",
        "algo.e_us_per_query",
        "algo.m_us_per_query",
        "algo.aux_us_per_query",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(name, ratio(sum(&|s| us(s.operator_times[i]), samples), n));
    }
    v.set(
        "algo.stmt_mean_us",
        ratio(phases, sum(&|s| s.sql_statements as f64, samples)),
    );
    v
}

/// The per-layer metrics that the timed section's own records carry:
/// service, cache and dispatch counters, and the finder statistics of
/// every computed answer.
pub fn layers_from_ops(timed: &Timed, via_service: bool) -> Values {
    let computed: Vec<&Op> = timed.ops.iter().filter(|o| o.stats.is_some()).collect();
    let samples: Vec<(&QueryStats, usize)> = computed
        .iter()
        .filter_map(|o| o.stats.as_ref().map(|s| (s, 1)))
        .collect();
    let mut v = finder_values(&samples);
    let lat_us = |o: &Op| (o.end_ns - o.start_ns) as f64 / 1e3;

    if via_service {
        let overhead = sorted(
            computed
                .iter()
                .filter_map(|o| {
                    o.stats
                        .as_ref()
                        .map(|s| lat_us(o) - s.total_time.as_secs_f64() * 1e6)
                })
                .collect(),
        );
        v.set("service.overhead_p50_us", nearest_rank(&overhead, 0.5));
    }
    let mutations: Vec<f64> = timed
        .ops
        .iter()
        .filter(|o| o.is_mutation())
        .map(lat_us)
        .collect();
    v.set("service.mutation_mean_us", mean(&mutations));

    if let Some(s) = &timed.service_stats {
        v.set("cache.hit_rate", s.cache_hit_rate());
        v.set("cache.stale", s.cache.stale as f64);
        v.set("cache.evictions", s.cache.evictions as f64);
        if s.cache.hits > 0 {
            let hits = sorted(
                timed
                    .ops
                    .iter()
                    .filter(|o| matches!(o.answer, Answer::Path(_)) && o.stats.is_none())
                    .map(lat_us)
                    .collect(),
            );
            v.set("cache.hit_p50_us", nearest_rank(&hits, 0.5));
        }
        v.set("dispatch.wait_p50_us", s.wait_quantile_us(0.50) as f64);
        v.set("dispatch.wait_p99_us", s.wait_quantile_us(0.99) as f64);
        v.set("dispatch.steals", s.total_stolen() as f64);
        v.set("dispatch.queue_hwm", s.max_queue_depth_hwm() as f64);
    }
    v
}

/// `trace.*`: what recording spans cost, and how much of an operation's
/// wall time is known only as a remainder.
pub fn trace_values(timed: &Timed, tracer: &Tracer) -> Values {
    let mut v = Values::default();
    // Operations per second of client time, traced against untraced.
    let rate = |traced: bool| {
        let of: Vec<&Op> = timed
            .ops
            .iter()
            .filter(|o| o.traced == traced && !o.is_mutation())
            .collect();
        let busy: u64 = of.iter().map(|o| o.done_ns - o.start_ns).sum();
        ratio(of.len() as f64, busy as f64)
    };
    v.set("trace.overhead_frac", 1.0 - ratio(rate(true), rate(false)));
    // Of the traced operations that ran a finder or a batch, the share of
    // wall time that no returned measurement accounts for: the root's
    // self time plus the service's remainder span.
    let spans = tracer.spans();
    let own = self_times(spans);
    let parents: std::collections::HashSet<u32> = spans.iter().filter_map(|s| s.parent).collect();
    let mut wall = 0u64;
    let mut unexplained = 0u64;
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let has_children = parents.contains(&s.id);
        if s.name == "service.mutation" || s.name.starts_with("probe.") {
            continue;
        }
        if !has_children && s.name != "service.query_batch" {
            continue; // a cache hit: nothing ran
        }
        wall += s.duration_ns();
        unexplained += own[s.id as usize];
    }
    unexplained += spans
        .iter()
        .filter(|s| s.name == "service.overhead")
        .map(|s| s.duration_ns())
        .sum::<u64>();
    v.set(
        "trace.residual_frac",
        ratio(unexplained as f64, wall as f64),
    );
    v
}
