//! **Figure 6** — FEM framework and set-at-a-time evaluation on Power
//! graphs: (a) BDJ vs BSDJ query time, (b) time per phase, (c) time per
//! operator, (d) NSQL vs TSQL.

use crate::harness::{measure, print_table, query_pairs, secs, BenchConfig};
use fempath_core::{
    BdjFinder, BsdjFinder, FemOperator, GraphDb, Phase, ShortestPathFinder, SqlStyle,
};
use fempath_graph::generate;
use fempath_sql::Result;
use std::time::Duration;

const PAPER_SIZES: [usize; 5] = [20_000, 40_000, 60_000, 80_000, 100_000];
const FRACTION: f64 = 0.05;

type Setup = (GraphDb, Vec<(i64, i64)>, usize);

fn setup(cfg: &BenchConfig, i: usize, paper_n: usize) -> Result<Setup> {
    let n = cfg.nodes(paper_n, FRACTION);
    let g = generate::power_law(n, 3, 1..=100, cfg.seed + i as u64);
    let gdb = GraphDb::in_memory(&g)?;
    let pairs = query_pairs(n, cfg.queries, cfg.seed + i as u64);
    Ok((gdb, pairs, n))
}

/// Fig 6(a): BDJ vs BSDJ query time vs graph scale.
pub fn fig6a(cfg: &BenchConfig) -> Result<()> {
    let mut rows = Vec::new();
    for (i, &paper_n) in PAPER_SIZES.iter().enumerate() {
        let (mut gdb, pairs, n) = setup(cfg, i, paper_n)?;
        let bdj = measure(&mut gdb, &BdjFinder::default(), &pairs)?;
        let bsdj = measure(&mut gdb, &BsdjFinder::default(), &pairs)?;
        rows.push(vec![
            format!("{n}"),
            secs(bdj.avg_time),
            secs(bsdj.avg_time),
            format!(
                "{:.2}x",
                bdj.avg_time.as_secs_f64() / bsdj.avg_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    let header = ["|V|", "BDJ", "BSDJ", "BDJ/BSDJ"];
    print_table(
        "Fig 6(a): query time (s) vs graph scale — BDJ vs BSDJ (Power)",
        &header,
        &rows,
    );
    println!("paper shape: BSDJ ~1/3 of BDJ across all sizes");
    Ok(())
}

/// Fig 6(b): BSDJ time per phase (PE / SC / FPR).
pub fn fig6b(cfg: &BenchConfig) -> Result<()> {
    let mut rows = Vec::new();
    for (i, &paper_n) in PAPER_SIZES.iter().enumerate() {
        let (mut gdb, pairs, n) = setup(cfg, i, paper_n)?;
        let finder = BsdjFinder::default();
        let mut pe = Duration::ZERO;
        let mut sc = Duration::ZERO;
        let mut fpr = Duration::ZERO;
        for &(s, t) in &pairs {
            let out = finder.find_path(&mut gdb, s, t)?;
            pe += out.stats.phase(Phase::PathExpansion);
            sc += out.stats.phase(Phase::StatsCollection);
            fpr += out.stats.phase(Phase::FullPathRecovery);
        }
        let q = pairs.len() as u32;
        rows.push(vec![
            format!("{n}"),
            secs(pe / q),
            secs(sc / q),
            secs(fpr / q),
        ]);
    }
    let header = ["|V|", "PE", "SC", "FPR"];
    print_table(
        "Fig 6(b): query time (s) per phase — BSDJ (Power)",
        &header,
        &rows,
    );
    println!("paper shape: path expansion (PE) dominates");
    Ok(())
}

/// Fig 6(c): BSDJ time per operator (F / E / M), split-statement mode.
pub fn fig6c(cfg: &BenchConfig) -> Result<()> {
    let mut rows = Vec::new();
    for (i, &paper_n) in PAPER_SIZES.iter().enumerate() {
        let (mut gdb, pairs, n) = setup(cfg, i, paper_n)?;
        let finder = BsdjFinder {
            split_operators: true,
            ..Default::default()
        };
        let mut f = Duration::ZERO;
        let mut e = Duration::ZERO;
        let mut m = Duration::ZERO;
        for &(s, t) in &pairs {
            let out = finder.find_path(&mut gdb, s, t)?;
            f += out.stats.operator(FemOperator::F);
            e += out.stats.operator(FemOperator::E);
            m += out.stats.operator(FemOperator::M);
        }
        let q = pairs.len() as u32;
        let total = (f + e + m).as_secs_f64().max(1e-9);
        rows.push(vec![
            format!("{n}"),
            secs(f / q),
            secs(e / q),
            secs(m / q),
            format!("{:.0}%", e.as_secs_f64() / total * 100.0),
        ]);
    }
    let header = ["|V|", "F-op", "E-op", "M-op", "E share"];
    print_table(
        "Fig 6(c): query time (s) per operator — BSDJ, split statements (Power)",
        &header,
        &rows,
    );
    println!("paper shape: the E-operator takes ~75% (it joins the graph table)");
    Ok(())
}

/// Fig 6(d): NSQL (window + MERGE) vs TSQL (aggregate-join + UPDATE/INSERT).
pub fn fig6d(cfg: &BenchConfig) -> Result<()> {
    let mut rows = Vec::new();
    for (i, &paper_n) in PAPER_SIZES.iter().enumerate() {
        let (mut gdb, pairs, n) = setup(cfg, i, paper_n)?;
        let nsql = measure(&mut gdb, &BsdjFinder::default(), &pairs)?;
        let tsql = measure(
            &mut gdb,
            &BsdjFinder {
                style: SqlStyle::Traditional,
                ..Default::default()
            },
            &pairs,
        )?;
        rows.push(vec![
            format!("{n}"),
            secs(nsql.avg_time),
            secs(tsql.avg_time),
            format!(
                "{:.2}x",
                tsql.avg_time.as_secs_f64() / nsql.avg_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    let header = ["|V|", "NSQL", "TSQL", "TSQL/NSQL"];
    print_table(
        "Fig 6(d): query time (s) — NSQL vs TSQL, BSDJ (Power)",
        &header,
        &rows,
    );
    println!("paper shape: NSQL outperforms TSQL significantly");
    Ok(())
}
