//! The names every later change reports in: the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json`
//! at the repository root lists the same names; a unit test holds the
//! two together.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports all of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_qps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("space_bytes_per_arc", "B/arc", Better::Lower, 0.01),
];

/// Counts that must repeat exactly between two runs of one seed on a
/// single-client workload.
pub const EXACT_COUNTS: &[&str] = &[
    "algo.statements_per_query",
    "algo.expansions_per_query",
    "buffer.accesses_per_query",
];

/// One layer each, taken from outside the program. A layer that a
/// workload leaves idle reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // core::service
    lower("service.overhead_p50_us", "us"),
    lower("service.mutation_mean_us", "us"),
    // core::cache
    higher("cache.hit_rate", "ratio"),
    lower("cache.stale", "count"),
    lower("cache.evictions", "count"),
    lower("cache.hit_p50_us", "us"),
    lower("cache.lookup_ns", "ns"),
    lower("cache.insert_ns", "ns"),
    // core::dispatch
    lower("dispatch.wait_p50_us", "us"),
    lower("dispatch.wait_p99_us", "us"),
    lower("dispatch.steals", "count"),
    lower("dispatch.queue_hwm", "count"),
    lower("dispatch.push_pop_ns", "ns"),
    // core::algo + core::fem
    lower("algo.find_p50_ms", "ms"),
    lower("algo.expansions_per_query", "count"),
    lower("algo.visited_per_query", "count"),
    lower("algo.statements_per_query", "count"),
    lower("algo.pe_frac", "ratio"),
    lower("algo.sc_frac", "ratio"),
    lower("algo.fpr_frac", "ratio"),
    lower("algo.glue_frac", "ratio"),
    lower("algo.f_us_per_query", "us"),
    lower("algo.e_us_per_query", "us"),
    lower("algo.m_us_per_query", "us"),
    lower("algo.aux_us_per_query", "us"),
    lower("algo.stmt_mean_us", "us"),
    higher("algo.batch_direct_pairs_per_s", "1/s"),
    lower("algo.batch_vs_loop_ratio", "ratio"),
    // core::sqlgen + sql::engine + sql::plan
    lower("sql.prepare_cold_us", "us"),
    lower("sql.prepare_cached_us", "us"),
    higher("sql.shared_plan_hit_rate", "ratio"),
    lower("sql.exec_stats_us", "us"),
    lower("sql.exec_frontier_us", "us"),
    lower("sql.exec_expand_merge_us", "us"),
    lower("sql.exec_edge_lookup_us", "us"),
    lower("sql.exec_reset_us", "us"),
    // storage::buffer + storage::disk
    lower("buffer.accesses_per_query", "count"),
    higher("buffer.hit_rate", "ratio"),
    lower("buffer.misses_per_query", "count"),
    lower("buffer.evictions_per_query", "count"),
    lower("disk.reads_per_query", "count"),
    lower("disk.writes_per_query", "count"),
    lower("buffer.read_hit_ns", "ns"),
    lower("buffer.read_miss_us", "us"),
    // storage::btree + storage::heap + storage::segment
    lower("btree.get_us", "us"),
    lower("btree.pages_per_get", "count"),
    lower("btree.prefix_scan_us", "us"),
    higher("btree.insert_batch_rows_per_s", "1/s"),
    higher("btree.bulk_build_arcs_per_s", "1/s"),
    higher("heap.scan_rows_per_s", "1/s"),
    higher("heap.insert_batch_rows_per_s", "1/s"),
    higher("segment.decode_arcs_per_s", "1/s"),
    lower("segment.bytes_per_arc", "B/arc"),
    // graph::loader + core::graphdb + core::segtable + core::landmarks
    lower("setup.generate_s", "s"),
    lower("setup.load_s", "s"),
    higher("setup.load_arcs_per_s", "1/s"),
    lower("setup.segtable_build_s", "s"),
    lower("setup.segtable_segments", "count"),
    lower("setup.freeze_s", "s"),
    lower("setup.session_spawn_us", "us"),
    lower("setup.warmup_s", "s"),
    lower("landmarks.build_s", "s"),
    lower("landmarks.seeded_expansion_ratio", "ratio"),
    // the benchmark itself
    lower("trace.overhead_frac", "ratio"),
    lower("trace.residual_frac", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`. JSON has no NaN or infinity, and a
    /// layer that did nothing has nothing to divide by, so those become 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// The values of `defs`, in their order; a metric nothing measured
    /// reads 0.
    pub fn in_order(&self, defs: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        defs.iter()
            .map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|d| d.name == *name));
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it saying what the
    /// program prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entry = |d: &MetricDef| match d.bound {
            Some(b) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                b
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            ),
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&entry(d)),
                "missing or different: {}",
                entry(d)
            );
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
        assert_eq!(text.matches("\"why\":").count(), Workload::ALL.len());
    }
}
