//! **Figure 7** — SegTable optimization: (a) BSDJ/BBFS/BSEG(3) on
//! LiveJournal-like graphs, (b) BBFS/BSDJ/BSEG(3,5,7) on Random graphs,
//! (c)/(d) query time vs the index threshold `lthd`.

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{BbfsFinder, BsdjFinder, BsegFinder, GraphDb};
use fempath_graph::{generate, Graph};
use fempath_sql::Result;

/// Fig 7(a): LiveJournal 0.5 M–4 M in the paper.
pub fn fig7a(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [500_000usize, 1_000_000, 2_000_000, 4_000_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.01);
        let g = generate::livejournal_like(n, 1..=100, cfg.seed + i as u64);
        let mut gdb = GraphDb::in_memory(&g)?;
        gdb.build_segtable(3)?;
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);
        let bsdj = measure(&mut gdb, &BsdjFinder::default(), &pairs)?;
        let bbfs = measure(&mut gdb, &BbfsFinder, &pairs)?;
        let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
        rows.push(vec![
            format!("{n}"),
            secs(bsdj.avg_time),
            secs(bbfs.avg_time),
            secs(bseg.avg_time),
        ]);
    }
    print_table(
        "Fig 7(a): query time (s) vs graph scale — LiveJournal-like",
        &["|V|", "BSDJ", "BBFS", "BSEG(3)"],
        &rows,
    );
    println!("paper shape: BSEG fastest (~1/3 of BSDJ, ~1/7 of BBFS at 4M)");
    Ok(())
}

/// Fig 7(b): Random graphs, BSEG at several thresholds.
pub fn fig7b(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [5_000_000usize, 10_000_000, 15_000_000, 20_000_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.002);
        let g = generate::random_graph(n, 3, 1..=100, cfg.seed + i as u64);
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);
        let mut gdb = GraphDb::in_memory(&g)?;
        let bbfs = measure(&mut gdb, &BbfsFinder, &pairs)?;
        let bsdj = measure(&mut gdb, &BsdjFinder::default(), &pairs)?;
        let mut cells = vec![format!("{n}"), secs(bbfs.avg_time), secs(bsdj.avg_time)];
        for lthd in [3i64, 5, 7] {
            gdb.build_segtable(lthd)?;
            let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
            cells.push(secs(bseg.avg_time));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 7(b): query time (s) vs graph scale — Random graphs",
        &["|V|", "BBFS", "BSDJ", "BSEG(3)", "BSEG(5)", "BSEG(7)"],
        &rows,
    );
    println!("paper shape: BSEG variants fastest; BBFS degrades at scale");
    Ok(())
}

fn lthd_sweep(
    title: &str,
    graphs: Vec<(String, Graph)>,
    lthds: &[i64],
    cfg: &BenchConfig,
) -> Result<()> {
    let mut rows = Vec::new();
    for (name, g) in graphs {
        let n = g.num_nodes();
        let pairs = query_pairs(n, cfg.queries, cfg.seed);
        let mut gdb = GraphDb::in_memory(&g)?;
        let mut cells = vec![name];
        for &lthd in lthds {
            gdb.build_segtable(lthd)?;
            let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
            cells.push(secs(bseg.avg_time));
        }
        rows.push(cells);
    }
    let mut header = vec!["graph"];
    let labels: Vec<String> = lthds.iter().map(|l| format!("lthd={l}")).collect();
    header.extend(labels.iter().map(|s| s.as_str()));
    print_table(title, &header, &rows);
    Ok(())
}

/// Fig 7(c): BSEG query time vs lthd on Power graphs (paper 100 K–500 K).
pub fn fig7c(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [100_000usize, 200_000, 300_000, 400_000, 500_000];
    let graphs = paper_sizes
        .iter()
        .enumerate()
        .map(|(i, &paper_n)| {
            let n = cfg.nodes(paper_n, 0.01);
            (
                format!("Power{n}"),
                generate::power_law(n, 3, 1..=100, cfg.seed + i as u64),
            )
        })
        .collect();
    lthd_sweep(
        "Fig 7(c): BSEG query time (s) vs lthd — Power graphs",
        graphs,
        &[10, 30, 40, 50],
        cfg,
    )?;
    println!("paper shape: improves then declines; lthd~30 best for Power");
    Ok(())
}

/// Fig 7(d): BSEG query time vs lthd on the real-graph stand-ins.
pub fn fig7d(cfg: &BenchConfig) -> Result<()> {
    let web_n = cfg.nodes(855_802, 0.005);
    let dblp_n = cfg.nodes(312_967, 0.005);
    let graphs = vec![
        (
            format!("GoogleWeb~{web_n}"),
            generate::webgraph_like(web_n, 1..=100, cfg.seed),
        ),
        (
            format!("DBLP~{dblp_n}"),
            generate::dblp_like(dblp_n, 1..=100, cfg.seed + 1),
        ),
    ];
    lthd_sweep(
        "Fig 7(d): BSEG query time (s) vs lthd — GoogleWeb/DBLP stand-ins",
        graphs,
        &[2, 4, 6, 8, 10],
        cfg,
    )?;
    println!("paper shape: smaller lthd (6-8) suits the real graphs");
    Ok(())
}
