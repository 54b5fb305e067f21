//! **Table 3** — time, expansions and visited nodes for BSDJ, BBFS and
//! BSEG(5) on Random graphs.
//!
//! Paper: Random graphs 5 M–20 M nodes (degree 3). Shape: BBFS has the
//! fewest expansions but the most visited nodes; BSEG has ~1/3 the
//! expansions of BSDJ with only slightly more visited nodes, and is the
//! fastest overall.

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{BbfsFinder, BsdjFinder, BsegFinder, GraphDb};
use fempath_graph::generate;
use fempath_sql::Result;

pub fn run(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [5_000_000usize, 10_000_000, 15_000_000, 20_000_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.002);
        let g = generate::random_graph(n, 3, 1..=100, cfg.seed + i as u64);
        let mut gdb = GraphDb::in_memory(&g)?;
        gdb.build_segtable(5)?;
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);

        let bsdj = measure(&mut gdb, &BsdjFinder::default(), &pairs)?;
        let bbfs = measure(&mut gdb, &BbfsFinder, &pairs)?;
        let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
        rows.push(vec![
            format!("{n}"),
            secs(bsdj.avg_time),
            format!("{:.0}", bsdj.avg_expansions),
            format!("{:.0}", bsdj.avg_visited),
            secs(bbfs.avg_time),
            format!("{:.0}", bbfs.avg_expansions),
            format!("{:.0}", bbfs.avg_visited),
            secs(bseg.avg_time),
            format!("{:.0}", bseg.avg_expansions),
            format!("{:.0}", bseg.avg_visited),
        ]);
    }
    print_table(
        "Table 3: Time (s), Exps, Vst on Random graphs — BSDJ / BBFS / BSEG(5)",
        &[
            "|V|", "BSDJ t", "Exps", "Vst", "BBFS t", "Exps", "Vst", "BSEG t", "Exps", "Vst",
        ],
        &rows,
    );
    println!("paper shape: BBFS fewest Exps / most Vst; BSEG ~1/3 of BSDJ's Exps, fastest");
    Ok(())
}
