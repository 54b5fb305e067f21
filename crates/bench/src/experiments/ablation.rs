//! Ablation beyond the paper: the Theorem-1 bidirectional pruning rule
//! on/off (DESIGN.md §7).

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{BsdjFinder, BsegFinder, GraphDb, ShortestPathFinder};
use fempath_graph::generate;
use fempath_sql::Result;

/// Compares BSDJ and BSEG with and without the Theorem-1 pruning term.
pub fn prune(cfg: &BenchConfig) -> Result<()> {
    let n = cfg.nodes(100_000, 0.02);
    let g = generate::power_law(n, 3, 1..=100, cfg.seed);
    let mut gdb = GraphDb::in_memory(&g)?;
    gdb.build_segtable(20)?;
    let pairs = query_pairs(n, cfg.queries, cfg.seed);
    let mut rows = Vec::new();
    type FinderPair = (
        &'static str,
        Box<dyn ShortestPathFinder>,
        Box<dyn ShortestPathFinder>,
    );
    let cases: Vec<FinderPair> = vec![
        (
            "BSDJ",
            Box::new(BsdjFinder::default()),
            Box::new(BsdjFinder {
                prune: false,
                ..Default::default()
            }),
        ),
        (
            "BSEG(20)",
            Box::new(BsegFinder::default()),
            Box::new(BsegFinder { prune: false }),
        ),
    ];
    for (name, on, off) in cases {
        let with = measure(&mut gdb, on.as_ref(), &pairs)?;
        let without = measure(&mut gdb, off.as_ref(), &pairs)?;
        rows.push(vec![
            name.to_string(),
            secs(with.avg_time),
            format!("{:.0}", with.avg_visited),
            secs(without.avg_time),
            format!("{:.0}", without.avg_visited),
        ]);
    }
    print_table(
        "Ablation: Theorem-1 pruning on/off (Power graph)",
        &[
            "algo",
            "pruned t",
            "pruned Vst",
            "no-prune t",
            "no-prune Vst",
        ],
        &rows,
    );
    println!("expectation: pruning shrinks the visited set once a path is known");
    Ok(())
}
