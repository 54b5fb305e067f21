//! **Table 2** — expansions and time for DJ, BDJ, BSDJ on Power graphs.
//!
//! Paper: Power graphs 20 K–100 K nodes (degree 3); DJ took 425 s at 20 K
//! and ">600 s" beyond, BDJ 6.75–15.1 s, BSDJ 2.90–3.62 s. The shape to
//! reproduce: DJ ≫ BDJ ≫ BSDJ in both expansions (~50× / ~140×) and time;
//! DJ only measurable at the smallest size.

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{BdjFinder, BsdjFinder, DjFinder, GraphDb};
use fempath_graph::generate;
use fempath_sql::Result;

pub fn run(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [20_000usize, 40_000, 60_000, 80_000, 100_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.05);
        let g = generate::power_law(n, 3, 1..=100, cfg.seed + i as u64);
        let mut gdb = GraphDb::in_memory(&g)?;
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);

        // DJ is node-at-a-time; the paper could not run it past the
        // smallest graph, and neither do we (1 query on sizes > smallest).
        let dj = if i == 0 {
            let dj_pairs = &pairs[..pairs.len().min(2)];
            let s = measure(&mut gdb, &DjFinder, dj_pairs)?;
            (format!("{:.0}", s.avg_expansions), secs(s.avg_time))
        } else {
            ("-".into(), "> skipped".into())
        };
        let bdj = measure(&mut gdb, &BdjFinder::default(), &pairs)?;
        let bsdj = measure(&mut gdb, &BsdjFinder::default(), &pairs)?;
        rows.push(vec![
            format!("{n}"),
            dj.0,
            dj.1,
            format!("{:.0}", bdj.avg_expansions),
            secs(bdj.avg_time),
            format!("{:.0}", bsdj.avg_expansions),
            secs(bsdj.avg_time),
        ]);
    }
    print_table(
        "Table 2: Exps (# expansions) and Time (s) on Power graphs",
        &[
            "|V|",
            "DJ Exps",
            "DJ Time",
            "BDJ Exps",
            "BDJ Time",
            "BSDJ Exps",
            "BSDJ Time",
        ],
        &rows,
    );
    println!("paper shape: DJ >> BDJ >> BSDJ; DJ ~50x BDJ and ~140x BSDJ on expansions");
    Ok(())
}
