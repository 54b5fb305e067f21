//! **Batch throughput** — beyond the paper (DESIGN.md §8): pairs/second of
//! the batched multi-pair finder vs. looping single-query finders over the
//! same pairs, for batch sizes 1, 8 and 64.
//!
//! Two loop baselines bracket the comparison:
//!
//! * **BDJ** — the batched finder's single-query namesake (bidirectional
//!   Dijkstra, node-at-a-time). Batching amortizes both the per-statement
//!   overhead and the node-at-a-time evaluation, so this is where the
//!   batch win is largest.
//! * **BSDJ** — the paper's strongest raw-edge finder (set-at-a-time).
//!   Batching still amortizes per-statement overhead against it, but both
//!   now expand sets, so the margin is thinner.

use crate::harness::{print_table, query_pairs, secs, BenchConfig};
use fempath_core::{
    BatchBdjFinder, BatchShortestPathFinder, BdjFinder, BsdjFinder, GraphDb, ShortestPathFinder,
};
use fempath_graph::generate;
use fempath_sql::Result;
use std::time::{Duration, Instant};

/// Pairs/second with a guard against zero elapsed.
fn rate(pairs: usize, elapsed: Duration) -> String {
    format!("{:.1}", pairs as f64 / elapsed.as_secs_f64().max(1e-9))
}

/// Times one full pass of `f` over the workload.
fn timed(mut f: impl FnMut() -> Result<usize>) -> Result<(Duration, usize)> {
    let t = Instant::now();
    let reachable = f()?;
    Ok((t.elapsed(), reachable))
}

pub fn throughput(cfg: &BenchConfig) -> Result<()> {
    let n = cfg.nodes(100_000, 0.01);
    let g = generate::power_law(n, 3, 1..=100, cfg.seed);
    let mut gdb = GraphDb::in_memory(&g)?;
    let bdj = BdjFinder::default();
    let bsdj = BsdjFinder::default();
    let batched = BatchBdjFinder::default();

    let mut rows = Vec::new();
    for (i, &batch) in [1usize, 8, 64].iter().enumerate() {
        let pairs = query_pairs(n, batch, cfg.seed + i as u64);

        let loop_over = |gdb: &mut GraphDb, f: &dyn ShortestPathFinder| -> Result<usize> {
            let mut reachable = 0;
            for &(s, t) in &pairs {
                if f.find_path(gdb, s, t)?.path.is_some() {
                    reachable += 1;
                }
            }
            Ok(reachable)
        };
        let (bdj_time, bdj_reach) = timed(|| loop_over(&mut gdb, &bdj))?;
        let (bsdj_time, bsdj_reach) = timed(|| loop_over(&mut gdb, &bsdj))?;
        let (batch_time, batch_reach) = timed(|| {
            let out = batched.find_paths(&mut gdb, &pairs)?;
            Ok(out.paths.iter().filter(|p| p.is_some()).count())
        })?;
        assert_eq!(bdj_reach, batch_reach, "loop and batch must agree");
        assert_eq!(bsdj_reach, batch_reach, "loop and batch must agree");

        rows.push(vec![
            format!("{batch}"),
            secs(bdj_time),
            rate(batch, bdj_time),
            secs(bsdj_time),
            rate(batch, bsdj_time),
            secs(batch_time),
            rate(batch, batch_time),
            format!(
                "{:.2}x",
                bdj_time.as_secs_f64() / batch_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    let header = [
        "batch",
        "BDJ loop (s)",
        "BDJ pairs/s",
        "BSDJ loop (s)",
        "BSDJ pairs/s",
        "batched (s)",
        "batched pairs/s",
        "speedup",
    ];
    print_table(
        &format!("Batch throughput: BatchBDJ vs looped BDJ/BSDJ, Power graph |V|={n}"),
        &header,
        &rows,
    );
    println!(
        "expected shape: batched pairs/sec beats the BDJ loop at every size. \
         Prepared statements with cached physical plans removed most \
         per-statement overhead from the looped baselines too (BDJ ~2-3x \
         faster than pre-prepared), so the batch margin over BDJ is narrower \
         than the pre-prepared 2x-at-batch-8, and the set-at-a-time BSDJ \
         loop — whose statements were always few and fat — is now the \
         tougher bar."
    );
    Ok(())
}
