//! **Figure 8** — extensive studies: (a) PostgreSQL dialect, (b) buffer
//! size, (c) index strategies, (d) relational vs in-memory.
//!
//! (a)–(c) measure the paper's row-tier SQL (`segmented_edges: false`):
//! the no-MERGE statements, a clustered `TEdges` that a small pool spills,
//! and the three `TEdges`/`TOutSegs` index strategies, none of which the
//! segmented tier has. (d) runs the served default.

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{BbfsFinder, BsegFinder, GraphDb, GraphDbOptions};
use fempath_graph::{generate, IndexKind};
use fempath_inmem::{bidijkstra, dijkstra};
use fempath_sql::{Dialect, Result};
use std::time::Instant;

/// Fig 8(a): BBFS vs BSEG(20) on the PostgreSQL dialect (no MERGE).
pub fn fig8a(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [100_000usize, 200_000, 300_000, 400_000, 500_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.01);
        let g = generate::power_law(n, 3, 1..=100, cfg.seed + i as u64);
        let mut gdb = GraphDb::new(
            &g,
            &GraphDbOptions {
                dialect: Dialect::POSTGRES,
                segmented_edges: false,
                ..Default::default()
            },
        )?;
        gdb.build_segtable(20)?;
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);
        let bbfs = measure(&mut gdb, &BbfsFinder, &pairs)?;
        let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
        rows.push(vec![
            format!("{n}"),
            secs(bbfs.avg_time),
            secs(bseg.avg_time),
        ]);
    }
    print_table(
        "Fig 8(a): query time (s) on the PostgreSQL dialect (no MERGE) — Power",
        &["|V|", "BBFS", "BSEG(20)"],
        &rows,
    );
    println!("paper shape: same relative behaviour as on DBMS-x");
    Ok(())
}

/// Fig 8(b): query time vs buffer size (disk-resident database).
pub fn fig8b(cfg: &BenchConfig) -> Result<()> {
    let n = cfg.nodes(4_847_571, 0.004);
    let g = generate::livejournal_like(n, 1..=100, cfg.seed);
    let pairs = query_pairs(n, cfg.queries, cfg.seed);
    let mut rows = Vec::new();
    for buffer_pages in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let mut gdb = GraphDb::new(
            &g,
            &GraphDbOptions {
                buffer_pages,
                on_disk: true,
                segmented_edges: false,
                ..Default::default()
            },
        )?;
        gdb.build_segtable(3)?;
        // Warm the buffer as the paper does ("collected after the database
        // buffer becomes hot").
        let _ = measure(
            &mut gdb,
            &BsegFinder::default(),
            &pairs[..pairs.len().min(2)],
        )?;
        gdb.db.reset_io_stats();
        let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
        let io = gdb.db.io_stats();
        rows.push(vec![
            format!("{buffer_pages}"),
            format!("{:.1}", buffer_pages as f64 * 8.0 / 1024.0),
            secs(bseg.avg_time),
            format!("{}", io.disk_reads),
            format!("{:.1}%", io.hit_rate() * 100.0),
        ]);
    }
    print_table(
        "Fig 8(b): BSEG(3) query time vs buffer size — LiveJournal-like (disk)",
        &["pages", "MiB", "time (s)", "disk reads", "hit rate"],
        &rows,
    );
    println!("paper shape: time falls ~linearly with buffer, flattens once resident");
    Ok(())
}

/// Fig 8(c): NoIndex / Index / CluIndex on TOutSegs + TVisited.
pub fn fig8c(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [100_000usize, 200_000, 300_000, 400_000, 500_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.005);
        let g = generate::power_law(n, 3, 1..=100, cfg.seed + i as u64);
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);
        let mut cells = vec![format!("{n}")];
        for (edges_index, visited_index) in [
            (IndexKind::NoIndex, IndexKind::NoIndex),
            (IndexKind::Secondary, IndexKind::Secondary),
            (IndexKind::Clustered, IndexKind::Clustered),
        ] {
            let mut gdb = GraphDb::new(
                &g,
                &GraphDbOptions {
                    edges_index,
                    visited_index,
                    segmented_edges: false,
                    ..Default::default()
                },
            )?;
            gdb.build_segtable(20)?;
            let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
            cells.push(secs(bseg.avg_time));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 8(c): BSEG(20) query time (s) vs index strategy — Power",
        &["|V|", "NoIndex", "Index", "CluIndex"],
        &rows,
    );
    println!("paper shape: CluIndex best, NoIndex worst");
    Ok(())
}

/// Fig 8(d): relational BSEG vs in-memory MDJ / MBDJ.
pub fn fig8d(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [100_000usize, 200_000, 300_000, 400_000, 500_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.01);
        let g = generate::power_law(n, 3, 1..=100, cfg.seed + i as u64);
        let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);
        let mut gdb = GraphDb::in_memory(&g)?;
        gdb.build_segtable(20)?;
        // Warm the buffer (the paper measures with a hot buffer).
        let _ = measure(
            &mut gdb,
            &BsegFinder::default(),
            &pairs[..pairs.len().min(2)],
        )?;
        let bseg = measure(&mut gdb, &BsegFinder::default(), &pairs)?;
        let t0 = Instant::now();
        for &(s, t) in &pairs {
            let _ = dijkstra::shortest_path(&g, s as u32, t as u32);
        }
        let mdj = t0.elapsed() / pairs.len() as u32;
        let t1 = Instant::now();
        for &(s, t) in &pairs {
            let _ = bidijkstra::shortest_path(&g, s as u32, t as u32);
        }
        let mbdj = t1.elapsed() / pairs.len() as u32;
        rows.push(vec![
            format!("{n}"),
            secs(mdj),
            secs(bseg.avg_time),
            secs(mbdj),
        ]);
    }
    print_table(
        "Fig 8(d): query time (s) — in-memory MDJ vs relational BSEG(20) vs in-memory MBDJ",
        &["|V|", "MDJ", "BSEG(20)", "MBDJ"],
        &rows,
    );
    println!("paper shape: MBDJ < BSEG < MDJ at scale (BSEG beats plain in-memory Dijkstra)");
    Ok(())
}
