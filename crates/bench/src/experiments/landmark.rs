//! Landmark-index ablation (DESIGN.md §12): what does seeding the
//! Theorem-1 pruning ceiling from the triangle-inequality bound buy, and
//! what does the index cost to build?
//!
//! One combined table, per fig6a-scale Power graph size:
//! index build time and SSSP iterations, BDJ with and without bound
//! seeding (same index resident either way, so the only delta is the
//! seeded ceiling), and the fast path's coverage plus its per-query time
//! on covered pairs.

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{landmarks, BdjFinder, GraphDb};
use fempath_graph::generate;
use fempath_sql::Result;
use std::time::Instant;

/// Landmarks per graph: enough for real coverage on the Power graphs
/// without dominating the build column.
const K: usize = 8;

/// fig6a's size ladder, thinned to three points (the ablation sweep runs
/// every finder twice per size).
const PAPER_SIZES: &[usize] = &[20_000, 60_000, 100_000];
const FRACTION: f64 = 0.05;

/// Seeded-vs-unseeded pruning plus index build cost and fast-path yield.
pub fn ablation(cfg: &BenchConfig) -> Result<()> {
    let mut rows = Vec::new();
    for &paper_n in PAPER_SIZES {
        let n = cfg.nodes(paper_n, FRACTION);
        let g = generate::power_law(n, 3, 1..=100, cfg.seed);
        let mut gdb = GraphDb::in_memory(&g)?;
        let build_start = Instant::now();
        let stats = gdb.build_landmarks(K)?;
        let build_time = build_start.elapsed();

        let pairs = query_pairs(n, cfg.queries, cfg.seed);
        // The index stays resident for the unseeded run too: the ablation
        // isolates the seeded ceiling, not the table's buffer footprint.
        let seeded = measure(&mut gdb, &BdjFinder::default(), &pairs)?;
        let unseeded = measure(&mut gdb, &BdjFinder { seed_bounds: false }, &pairs)?;

        // Fast-path yield over the same endpoints, plus guaranteed-covered
        // pairs (every node paired with a landmark is answered exactly).
        let mut probes = pairs.clone();
        for (i, &lm) in stats.landmarks.iter().enumerate() {
            probes.push(((i * 97 % n) as i64, lm));
        }
        let fast_start = Instant::now();
        let covered = probes
            .iter()
            .filter(|&&(s, t)| matches!(landmarks::exact_path(&mut gdb, s, t), Ok(Some(_))))
            .count();
        let fast_time = fast_start.elapsed() / probes.len().max(1) as u32;

        rows.push(vec![
            n.to_string(),
            secs(build_time),
            stats.sssp_iterations.to_string(),
            secs(seeded.avg_time),
            format!("{:.0}", seeded.avg_expansions),
            secs(unseeded.avg_time),
            format!("{:.0}", unseeded.avg_expansions),
            format!("{covered}/{}", probes.len()),
            secs(fast_time),
        ]);
    }
    print_table(
        &format!("Landmark ablation: {K} landmarks, Theorem-1 seeding on/off (Power graph)"),
        &[
            "nodes",
            "build t",
            "build iters",
            "seeded t",
            "seeded Exps",
            "no-seed t",
            "no-seed Exps",
            "covered",
            "fast t",
        ],
        &rows,
    );
    println!("expectation: seeding never increases iterations; covered pairs skip FEM entirely");
    Ok(())
}
