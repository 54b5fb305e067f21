//! Shared measurement utilities for the paper experiments.

use fempath_core::{GraphDb, PathOutcome, ShortestPathFinder};
use fempath_sql::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Global run configuration shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Multiplier applied to the paper's dataset sizes. The default of
    /// `0.01`–`0.1` per experiment keeps the full suite in CI budgets.
    pub scale: f64,
    /// Shortest-path queries per measurement (the paper averages 100).
    pub queries: usize,
    /// RNG seed for graphs and query endpoints.
    pub seed: u64,
    /// Also write each experiment's table as `BENCH_<experiment>.json` at
    /// the repo root (paperbench `--json`) — the machine-readable perf
    /// trajectory.
    pub json: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: 1.0,
            queries: 10,
            seed: 42,
            json: false,
        }
    }
}

impl BenchConfig {
    /// Applies the experiment's base size and the user's scale.
    pub fn nodes(&self, paper_n: usize, default_fraction: f64) -> usize {
        ((paper_n as f64 * default_fraction * self.scale) as usize).max(64)
    }
}

/// Averages over a batch of path queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregateStats {
    /// Mean wall time per query.
    pub avg_time: Duration,
    /// Mean number of expansions (the paper's `Exps`).
    pub avg_expansions: f64,
    /// Mean visited-node count (the paper's `Vst`).
    pub avg_visited: f64,
    /// Mean SQL statements per query.
    pub avg_statements: f64,
    /// Queries that found a path.
    pub reachable: usize,
    /// Total queries.
    pub total: usize,
}

/// Deterministic random query endpoints over `n` nodes.
pub fn query_pairs(n: usize, count: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    (0..count)
        .map(|_| {
            let s = rng.gen_range(0..n) as i64;
            let mut t = rng.gen_range(0..n) as i64;
            if t == s {
                t = (t + 1) % n as i64;
            }
            (s, t)
        })
        .collect()
}

/// Runs `finder` over all query pairs, averaging the stats.
pub fn measure(
    gdb: &mut GraphDb,
    finder: &dyn ShortestPathFinder,
    pairs: &[(i64, i64)],
) -> Result<AggregateStats> {
    let mut agg = AggregateStats {
        total: pairs.len(),
        ..Default::default()
    };
    let mut time = Duration::ZERO;
    for &(s, t) in pairs {
        let PathOutcome { path, stats, .. } = finder.find_path(gdb, s, t)?;
        if path.is_some() {
            agg.reachable += 1;
        }
        time += stats.total_time;
        agg.avg_expansions += stats.expansions as f64;
        agg.avg_visited += stats.visited_nodes as f64;
        agg.avg_statements += stats.sql_statements as f64;
    }
    let n = pairs.len().max(1) as f64;
    agg.avg_time = time / pairs.len().max(1) as u32;
    agg.avg_expansions /= n;
    agg.avg_visited /= n;
    agg.avg_statements /= n;
    Ok(agg)
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// The most recent table an experiment printed, captured by
/// [`print_table`] so the experiment dispatcher can persist it
/// (`paperbench --json`) without every experiment wiring JSON by hand.
pub struct CapturedTable {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

thread_local! {
    static LAST_TABLE: std::cell::RefCell<Option<CapturedTable>> =
        const { std::cell::RefCell::new(None) };
}

/// Takes (and clears) the table most recently printed on this thread.
pub fn take_last_table() -> Option<CapturedTable> {
    LAST_TABLE.with(|t| t.borrow_mut().take())
}

/// Writes one experiment's captured table as `BENCH_<experiment>.json`
/// in the working directory (dashes become underscores). The file carries the
/// run configuration so before/after numbers are comparable.
pub fn write_bench_json(cfg: &BenchConfig, experiment: &str, table: &CapturedTable) {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", esc(experiment)));
    out.push_str(&format!("  \"title\": \"{}\",\n", esc(&table.title)));
    out.push_str(&format!(
        "  \"config\": {{\"scale\": {}, \"queries\": {}, \"seed\": {}}},\n",
        cfg.scale, cfg.queries, cfg.seed
    ));
    out.push_str(&format!(
        "  \"header\": [{}],\n",
        table
            .header
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in table.rows.iter().enumerate() {
        out.push_str(&format!(
            "    [{}]{}\n",
            row.iter()
                .map(|c| format!("\"{}\"", esc(c)))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < table.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = std::path::PathBuf::from(format!("BENCH_{}.json", experiment.replace('-', "_")));
    match std::fs::write(&path, out) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
    }
}

/// Prints a header + aligned rows (the paper-table look) and captures
/// the table for [`take_last_table`].
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    LAST_TABLE.with(|t| {
        *t.borrow_mut() = Some(CapturedTable {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: rows.to_vec(),
        })
    });
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_core::BsdjFinder;
    use fempath_graph::generate;

    #[test]
    fn query_pairs_are_deterministic_and_distinct_endpoints() {
        let a = query_pairs(100, 20, 7);
        let b = query_pairs(100, 20, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|(s, t)| s != t));
    }

    #[test]
    fn measure_aggregates() {
        let g = generate::grid(6, 6, 1..=10, 3);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let pairs = query_pairs(36, 4, 1);
        let agg = measure(&mut gdb, &BsdjFinder::default(), &pairs).unwrap();
        assert_eq!(agg.total, 4);
        assert_eq!(agg.reachable, 4, "grid is connected");
        assert!(agg.avg_expansions > 0.0);
        assert!(agg.avg_statements > 0.0);
    }

    #[test]
    fn nodes_scaling() {
        let cfg = BenchConfig {
            scale: 2.0,
            ..Default::default()
        };
        assert_eq!(cfg.nodes(20_000, 0.1), 4000);
        let tiny = BenchConfig {
            scale: 1e-9,
            ..Default::default()
        };
        assert_eq!(tiny.nodes(20_000, 0.1), 64, "floor at 64 nodes");
    }
}
