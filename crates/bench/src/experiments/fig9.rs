//! **Figure 9** — SegTable construction: index size and construction time
//! across thresholds, databases, SQL styles, buffer sizes and graph scale.
//!
//! Every build runs on the row tier (`segmented_edges: false`), the
//! paper's all-SQL construction: on the served segmented tier step 2
//! streams `TOutSegs` and issues no SQL, so the dialect and the SQL style
//! would reach only step 1.

use crate::harness::{print_table, BenchConfig};
use fempath_core::{build_segtable_with, GraphDb, GraphDbOptions, SqlStyle};
use fempath_graph::{generate, Graph};
use fempath_sql::{Dialect, Result};

const POWER_PAPER_SIZES: [usize; 5] = [100_000, 200_000, 300_000, 400_000, 500_000];

fn power_graphs(cfg: &BenchConfig, fraction: f64) -> Vec<(usize, Graph)> {
    POWER_PAPER_SIZES
        .iter()
        .enumerate()
        .map(|(i, &paper_n)| {
            let n = cfg.nodes(paper_n, fraction);
            (n, generate::power_law(n, 3, 1..=100, cfg.seed + i as u64))
        })
        .collect()
}

/// Row-tier options for a SegTable build under `dialect`.
fn row_tier(dialect: Dialect) -> GraphDbOptions {
    GraphDbOptions {
        dialect,
        segmented_edges: false,
        ..Default::default()
    }
}

fn sweep_build(
    title: &str,
    graphs: Vec<(String, Graph)>,
    lthds: &[i64],
    report_size: bool,
    dialect: Dialect,
    style: SqlStyle,
) -> Result<()> {
    let mut rows = Vec::new();
    for (name, g) in graphs {
        let mut cells = vec![name];
        for &lthd in lthds {
            let mut gdb = GraphDb::new(&g, &row_tier(dialect))?;
            let stats = build_segtable_with(&mut gdb, lthd, style)?;
            if report_size {
                cells.push(format!("{}", stats.segments));
            } else {
                cells.push(format!("{:.2}", stats.build_time.as_secs_f64()));
            }
        }
        rows.push(cells);
    }
    let labels: Vec<String> = lthds.iter().map(|l| format!("lthd={l}")).collect();
    let mut header = vec!["graph"];
    header.extend(labels.iter().map(|s| s.as_str()));
    print_table(title, &header, &rows);
    Ok(())
}

/// Fig 9(a): index size (segments) vs lthd on Power graphs.
pub fn fig9a(cfg: &BenchConfig) -> Result<()> {
    let graphs = power_graphs(cfg, 0.005)
        .into_iter()
        .map(|(n, g)| (format!("Power{n}"), g))
        .collect();
    sweep_build(
        "Fig 9(a): SegTable size (segments) vs lthd — Power",
        graphs,
        &[10, 20, 30, 40],
        true,
        Dialect::DBMS_X,
        SqlStyle::New,
    )?;
    println!("paper shape: size grows with lthd, ~linear in |V|");
    Ok(())
}

/// Fig 9(b): index size vs lthd on GoogleWeb/DBLP stand-ins.
pub fn fig9b(cfg: &BenchConfig) -> Result<()> {
    let web_n = cfg.nodes(855_802, 0.004);
    let dblp_n = cfg.nodes(312_967, 0.004);
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
    sweep_build(
        "Fig 9(b): SegTable size (segments) vs lthd — GoogleWeb/DBLP stand-ins",
        graphs,
        &[2, 4, 6, 8, 10],
        true,
        Dialect::DBMS_X,
        SqlStyle::New,
    )?;
    println!("paper shape: GoogleWeb more lthd-sensitive (skewed degrees)");
    Ok(())
}

/// Fig 9(c): construction time vs lthd on Power graphs.
pub fn fig9c(cfg: &BenchConfig) -> Result<()> {
    let graphs = power_graphs(cfg, 0.005)
        .into_iter()
        .map(|(n, g)| (format!("Power{n}"), g))
        .collect();
    sweep_build(
        "Fig 9(c): SegTable construction time (s) vs lthd — Power",
        graphs,
        &[10, 20, 30, 40],
        false,
        Dialect::DBMS_X,
        SqlStyle::New,
    )?;
    println!("paper shape: larger lthd -> longer construction");
    Ok(())
}

/// Fig 9(d): construction time vs lthd on the real-graph stand-ins.
pub fn fig9d(cfg: &BenchConfig) -> Result<()> {
    let web_n = cfg.nodes(855_802, 0.004);
    let dblp_n = cfg.nodes(312_967, 0.004);
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
    sweep_build(
        "Fig 9(d): SegTable construction time (s) vs lthd — GoogleWeb/DBLP stand-ins",
        graphs,
        &[2, 4, 6, 8],
        false,
        Dialect::DBMS_X,
        SqlStyle::New,
    )?;
    Ok(())
}

/// Fig 9(e): construction time on the PostgreSQL dialect.
pub fn fig9e(cfg: &BenchConfig) -> Result<()> {
    let graphs = power_graphs(cfg, 0.005)
        .into_iter()
        .map(|(n, g)| (format!("Power{n}"), g))
        .collect();
    sweep_build(
        "Fig 9(e): SegTable construction time (s) on PostgreSQL dialect — Power",
        graphs,
        &[10, 20, 30],
        false,
        Dialect::POSTGRES,
        SqlStyle::New,
    )?;
    println!("paper shape: same behaviour as DBMS-x");
    Ok(())
}

/// Fig 9(f): construction NSQL vs TSQL.
pub fn fig9f(cfg: &BenchConfig) -> Result<()> {
    let mut rows = Vec::new();
    for (n, g) in power_graphs(cfg, 0.005) {
        let mut a = GraphDb::new(&g, &row_tier(Dialect::DBMS_X))?;
        let sa = build_segtable_with(&mut a, 20, SqlStyle::New)?;
        let mut b = GraphDb::new(&g, &row_tier(Dialect::DBMS_X))?;
        let sb = build_segtable_with(&mut b, 20, SqlStyle::Traditional)?;
        rows.push(vec![
            format!("{n}"),
            format!("{:.2}", sa.build_time.as_secs_f64()),
            format!("{:.2}", sb.build_time.as_secs_f64()),
            format!(
                "{:.2}x",
                sb.build_time.as_secs_f64() / sa.build_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        "Fig 9(f): SegTable construction time (s), lthd=20 — NSQL vs TSQL (Power)",
        &["|V|", "NSQL", "TSQL", "TSQL/NSQL"],
        &rows,
    );
    println!("paper shape: NSQL still wins, but by less than in path finding");
    Ok(())
}

/// Fig 9(g): construction time vs buffer size.
pub fn fig9g(cfg: &BenchConfig) -> Result<()> {
    let n = cfg.nodes(4_847_571, 0.002);
    let g = generate::livejournal_like(n, 1..=100, cfg.seed);
    let mut rows = Vec::new();
    for buffer_pages in [64usize, 128, 256, 512, 1024, 2048] {
        let mut gdb = GraphDb::new(
            &g,
            &GraphDbOptions {
                buffer_pages,
                on_disk: true,
                ..row_tier(Dialect::DBMS_X)
            },
        )?;
        let stats = build_segtable_with(&mut gdb, 3, SqlStyle::New)?;
        rows.push(vec![
            format!("{buffer_pages}"),
            format!("{:.1}", buffer_pages as f64 * 8.0 / 1024.0),
            format!("{:.2}", stats.build_time.as_secs_f64()),
            format!("{}", stats.io.disk_reads),
        ]);
    }
    print_table(
        "Fig 9(g): SegTable construction time (s) vs buffer size — LiveJournal-like, lthd=3",
        &["pages", "MiB", "time (s)", "disk reads"],
        &rows,
    );
    println!("paper shape: improves with buffer, flattens past the working set");
    Ok(())
}

/// Fig 9(h): construction time vs graph scale.
pub fn fig9h(cfg: &BenchConfig) -> Result<()> {
    let paper_sizes = [500_000usize, 1_000_000, 2_000_000, 4_000_000];
    let mut rows = Vec::new();
    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = cfg.nodes(paper_n, 0.005);
        let g = generate::livejournal_like(n, 1..=100, cfg.seed + i as u64);
        let mut gdb = GraphDb::new(&g, &row_tier(Dialect::DBMS_X))?;
        let stats = build_segtable_with(&mut gdb, 3, SqlStyle::New)?;
        rows.push(vec![
            format!("{n}"),
            format!("{:.2}", stats.build_time.as_secs_f64()),
            format!("{}", stats.segments),
        ]);
    }
    print_table(
        "Fig 9(h): SegTable construction time (s) vs graph scale — LiveJournal-like, lthd=3",
        &["|V|", "time (s)", "segments"],
        &rows,
    );
    println!("paper shape: ~linear in graph size (only local segments are encoded)");
    Ok(())
}
