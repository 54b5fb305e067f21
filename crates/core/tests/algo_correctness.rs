//! Correctness of every relational shortest-path algorithm against the
//! in-memory Dijkstra oracle, across graph families, SQL styles, dialects
//! and index strategies.

use fempath_core::sqlgen::{expand_params, Dir, EdgeSource, EmMode, FrontierPred, SqlGen};
use fempath_core::{
    build_segtable_with, BbfsFinder, BdjFinder, BsdjFinder, BsegFinder, CancelFlag, DjFinder,
    FemOperator, FrontierPolicy, GraphDb, GraphDbOptions, PathOutcome, SearchLimits,
    ShortestPathFinder, SqlStyle, INF,
};
use fempath_graph::{generate, Graph, IndexKind};
use fempath_inmem::dijkstra;
use fempath_sql::{Dialect, SqlError};
use fempath_storage::Value;
use proptest::prelude::*;

/// The Figure 1 graph of the paper.
fn figure1() -> Graph {
    Graph::from_undirected_edges(
        11,
        vec![
            (0, 1, 2),
            (0, 2, 1),
            (0, 3, 6),
            (1, 4, 2),
            (2, 3, 1),
            (2, 4, 3),
            (3, 9, 7),
            (4, 6, 3),
            (4, 5, 7),
            (4, 7, 8),
            (5, 6, 4),
            (5, 8, 9),
            (6, 7, 4),
            (7, 10, 3),
            (8, 9, 2),
            (8, 10, 5),
            (9, 10, 8),
        ],
    )
}

/// Checks an outcome against the oracle for one query.
fn check(g: &Graph, out: &PathOutcome, s: i64, t: i64, algo: &str) {
    let oracle = dijkstra::shortest_path(g, s as u32, t as u32);
    match (&out.path, &oracle) {
        (Some(p), Some(o)) => {
            assert_eq!(
                p.length as u64, o.distance,
                "{algo}: wrong distance for {s}->{t}"
            );
            assert_eq!(p.nodes.first(), Some(&s), "{algo}: path must start at s");
            assert_eq!(p.nodes.last(), Some(&t), "{algo}: path must end at t");
            // The node sequence must be a real path of the right length.
            let mut total = 0u64;
            for w in p.nodes.windows(2) {
                let arc = g
                    .out_arcs(w[0] as u32)
                    .iter()
                    .filter(|a| a.to == w[1] as u32)
                    .map(|a| a.weight)
                    .min()
                    .unwrap_or_else(|| panic!("{algo}: edge {}->{} not in graph", w[0], w[1]));
                total += arc as u64;
            }
            assert_eq!(
                total, o.distance,
                "{algo}: path weights disagree for {s}->{t}"
            );
        }
        (None, None) => {}
        (got, want) => panic!(
            "{algo}: reachability mismatch for {s}->{t}: got {:?}, oracle {:?}",
            got.is_some(),
            want.is_some()
        ),
    }
}

fn all_pairs_check(
    g: &Graph,
    finder: &dyn ShortestPathFinder,
    gdb: &mut GraphDb,
    pairs: &[(i64, i64)],
) {
    for &(s, t) in pairs {
        let out = finder.find_path(gdb, s, t).unwrap();
        check(g, &out, s, t, finder.name());
    }
}

fn sample_pairs(n: usize, count: usize) -> Vec<(i64, i64)> {
    (0..count)
        .map(|i| {
            let s = (i * 97 + 13) % n;
            let t = (i * 131 + n / 2) % n;
            (s as i64, t as i64)
        })
        .collect()
}

#[test]
fn dj_matches_oracle_on_figure1() {
    let g = figure1();
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let finder = DjFinder;
    for s in 0..11i64 {
        for t in 0..11i64 {
            let out = finder.find_path(&mut gdb, s, t).unwrap();
            check(&g, &out, s, t, "DJ");
        }
    }
}

#[test]
fn all_bidirectional_finders_match_oracle_on_figure1() {
    let g = figure1();
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(6).unwrap(); // the paper's Figure 4 threshold
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    for f in &finders {
        for s in 0..11i64 {
            for t in 0..11i64 {
                let out = f.find_path(&mut gdb, s, t).unwrap();
                check(&g, &out, s, t, f.name());
            }
        }
    }
}

#[test]
fn finders_match_oracle_on_power_law_graph() {
    let g = generate::power_law(300, 3, 1..=100, 11);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(30).unwrap();
    let pairs = sample_pairs(300, 12);
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    for f in &finders {
        all_pairs_check(&g, f.as_ref(), &mut gdb, &pairs);
    }
}

#[test]
fn finders_match_oracle_on_random_graph_with_disconnections() {
    // Sparse random graph: some pairs are unreachable.
    let g = generate::random_graph(200, 1, 1..=100, 5);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(20).unwrap();
    let pairs = sample_pairs(200, 15);
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    for f in &finders {
        all_pairs_check(&g, f.as_ref(), &mut gdb, &pairs);
    }
}

#[test]
fn finders_match_oracle_on_grid() {
    let g = generate::grid(12, 12, 1..=100, 3);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(40).unwrap();
    let pairs = sample_pairs(144, 10);
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(BsdjFinder::default()),
        Box::new(BsegFinder::default()),
    ];
    for f in &finders {
        all_pairs_check(&g, f.as_ref(), &mut gdb, &pairs);
    }
}

#[test]
fn traditional_sql_style_is_equally_correct() {
    // TSQL statements (BSDJ, the finder Fig 6(d) runs them on) and a
    // SegTable built with TSQL statements, read by BSEG.
    let g = generate::power_law(200, 3, 1..=100, 21);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    build_segtable_with(&mut gdb, 25, SqlStyle::Traditional).unwrap();
    let pairs = sample_pairs(200, 8);
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(BsdjFinder {
            style: SqlStyle::Traditional,
            ..Default::default()
        }),
        Box::new(BsegFinder::default()),
    ];
    for f in &finders {
        all_pairs_check(&g, f.as_ref(), &mut gdb, &pairs);
    }
}

/// The one E/M decision ([`EmMode::choose`]) changes how an expansion is
/// spelled, never what it does: BSDJ under every mode — fused MERGE, split
/// through `TExp` with a MERGE, TSQL's UPDATE + INSERT, and the no-MERGE
/// dialect's — expands and visits exactly the same, and issues exactly
/// `expansions × (statements per expansion − 1)` more statements than the
/// fused run. TSQL issues the UPDATE + INSERT pair on a dialect with MERGE.
#[test]
fn every_em_mode_runs_the_same_search() {
    let g = generate::power_law(150, 3, 1..=100, 43);
    let pairs = sample_pairs(150, 6);
    let postgres = GraphDbOptions {
        dialect: Dialect::POSTGRES,
        ..Default::default()
    };
    let bsdj = BsdjFinder::default();
    let split = BsdjFinder {
        split_operators: true,
        ..bsdj
    };
    let tsql = BsdjFinder {
        style: SqlStyle::Traditional,
        ..bsdj
    };
    let dbms_x = GraphDbOptions::default;
    let runs = [
        (dbms_x(), bsdj, EmMode::Fused, 1),
        (dbms_x(), split, EmMode::SplitMerge, 3),
        (dbms_x(), tsql, EmMode::SplitUpdateInsert, 4),
        (postgres, bsdj, EmMode::SplitUpdateInsert, 4),
    ];
    let mut fused = None;
    for (opts, finder, mode, per_expansion) in runs {
        let mut gdb = GraphDb::new(&g, &opts).unwrap();
        assert_eq!(gdb.em_mode(finder.style, finder.split_operators), mode);
        let mut seen = Vec::new();
        for &(s, t) in &pairs {
            let out = finder.find_path(&mut gdb, s, t).unwrap();
            check(&g, &out, s, t, &format!("BSDJ {mode:?}"));
            let st = &out.stats;
            let work = (out.path.map(|p| p.length), st.expansions, st.visited_nodes);
            seen.push((work, st.sql_statements));
        }
        let fused = fused.get_or_insert_with(|| seen.clone());
        for ((work, stmts), (fused_work, fused_stmts)) in seen.iter().zip(fused.iter()) {
            assert_eq!(work, fused_work, "{mode:?}");
            assert_eq!(
                stmts - fused_stmts,
                work.1 * (per_expansion - 1),
                "{mode:?}"
            );
        }
    }
}

#[test]
fn postgres_dialect_without_merge_is_equally_correct() {
    let g = generate::power_law(200, 3, 1..=100, 31);
    let mut gdb = GraphDb::new(
        &g,
        &GraphDbOptions {
            dialect: Dialect::POSTGRES,
            ..Default::default()
        },
    )
    .unwrap();
    gdb.build_segtable(25).unwrap();
    let pairs = sample_pairs(200, 8);
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    for f in &finders {
        all_pairs_check(&g, f.as_ref(), &mut gdb, &pairs);
    }
}

#[test]
fn split_operator_mode_is_equally_correct() {
    let g = generate::power_law(150, 3, 1..=100, 41);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let finder = BsdjFinder {
        split_operators: true,
        ..Default::default()
    };
    let pairs = sample_pairs(150, 6);
    all_pairs_check(&g, &finder, &mut gdb, &pairs);
    // Split mode actually fills the per-operator buckets.
    let out = finder.find_path(&mut gdb, 0, 100).unwrap();
    assert!(out.stats.operator(FemOperator::E) > std::time::Duration::ZERO);
    assert!(out.stats.operator(FemOperator::M) > std::time::Duration::ZERO);
    assert!(out.stats.operator(FemOperator::F) > std::time::Duration::ZERO);
}

#[test]
fn pruning_off_is_equally_correct() {
    let g = generate::power_law(150, 3, 1..=100, 51);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let pairs = sample_pairs(150, 6);
    let finder = BsdjFinder {
        prune: false,
        ..Default::default()
    };
    all_pairs_check(&g, &finder, &mut gdb, &pairs);
}

/// Fig 8(c)'s index matrix, on the row tier: the one that takes an
/// `edges_index`.
#[test]
fn index_strategies_are_equally_correct() {
    let g = generate::power_law(120, 3, 1..=100, 61);
    for edges_index in [
        IndexKind::NoIndex,
        IndexKind::Secondary,
        IndexKind::Clustered,
    ] {
        for visited_index in [
            IndexKind::NoIndex,
            IndexKind::Secondary,
            IndexKind::Clustered,
        ] {
            let mut gdb = GraphDb::new(
                &g,
                &GraphDbOptions {
                    edges_index,
                    visited_index,
                    segmented_edges: false,
                    ..Default::default()
                },
            )
            .unwrap();
            let pairs = sample_pairs(120, 3);
            all_pairs_check(&g, &BsdjFinder::default(), &mut gdb, &pairs);
        }
    }
}

#[test]
fn disk_resident_database_is_equally_correct() {
    let g = generate::power_law(200, 3, 1..=100, 71);
    // Tiny buffer over row-tier tables: everything spills.
    let opts = GraphDbOptions {
        buffer_pages: 8,
        on_disk: true,
        segmented_edges: false,
        ..Default::default()
    };
    let mut gdb = GraphDb::new(&g, &opts).unwrap();
    let pairs = sample_pairs(200, 5);
    all_pairs_check(&g, &BsdjFinder::default(), &mut gdb, &pairs);
    assert!(
        gdb.db.io_stats().disk_reads > 0,
        "an 8-page pool over this graph must touch disk"
    );
}

#[test]
fn bsdj_uses_fewer_expansions_than_bdj() {
    // Table 2's headline: set-at-a-time needs far fewer iterations.
    let g = generate::power_law(2000, 3, 1..=100, 81);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let a = BdjFinder::default().find_path(&mut gdb, 0, 1500).unwrap();
    let b = BsdjFinder::default().find_path(&mut gdb, 0, 1500).unwrap();
    assert!(a.path.is_some() && b.path.is_some());
    assert!(
        b.stats.expansions < a.stats.expansions,
        "BSDJ ({}) must beat BDJ ({}) on expansions",
        b.stats.expansions,
        a.stats.expansions
    );
}

#[test]
fn bbfs_uses_fewest_expansions_but_most_visited() {
    // Table 3's trade-off.
    let g = generate::random_graph(2000, 3, 1..=100, 91);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let bsdj = BsdjFinder::default().find_path(&mut gdb, 0, 1000).unwrap();
    let bbfs = BbfsFinder.find_path(&mut gdb, 0, 1000).unwrap();
    assert!(bsdj.path.is_some() && bbfs.path.is_some());
    assert!(
        bbfs.stats.expansions < bsdj.stats.expansions,
        "BBFS expansions {} must undercut BSDJ {}",
        bbfs.stats.expansions,
        bsdj.stats.expansions
    );
    assert!(
        bbfs.stats.visited_nodes >= bsdj.stats.visited_nodes,
        "BBFS visits at least as many nodes ({} vs {})",
        bbfs.stats.visited_nodes,
        bsdj.stats.visited_nodes
    );
}

#[test]
fn bseg_reduces_expansions_versus_bsdj() {
    // §4.2: selective expansion over SegTable cuts iteration counts.
    // The SegTable build owns this test's time, so the graph and the
    // threshold are small (BSDJ 109 against BSEG 32 expansions).
    let g = generate::power_law(400, 3, 1..=100, 101);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(20).unwrap();
    let mut exps_bsdj = 0u64;
    let mut exps_bseg = 0u64;
    for (s, t) in sample_pairs(400, 5) {
        let a = BsdjFinder::default().find_path(&mut gdb, s, t).unwrap();
        let b = BsegFinder::default().find_path(&mut gdb, s, t).unwrap();
        check(&g, &b, s, t, "BSEG");
        exps_bsdj += a.stats.expansions;
        exps_bseg += b.stats.expansions;
    }
    assert!(
        exps_bseg < exps_bsdj,
        "BSEG total expansions {exps_bseg} must undercut BSDJ {exps_bsdj}"
    );
}

#[test]
fn query_stats_are_populated() {
    let g = generate::power_law(300, 3, 1..=100, 121);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let out = BsdjFinder::default().find_path(&mut gdb, 0, 200).unwrap();
    assert!(out.stats.expansions > 0);
    assert!(out.stats.sql_statements > out.stats.expansions);
    assert!(out.stats.visited_nodes > 0);
    assert!(out.stats.total_time > std::time::Duration::ZERO);
    use fempath_core::Phase;
    assert!(out.stats.phase(Phase::PathExpansion) > std::time::Duration::ZERO);
    assert!(out.stats.phase(Phase::StatsCollection) > std::time::Duration::ZERO);
}

/// Work counts are part of the contract, not only answers: executor
/// changes must leave what each finder *does* — statements issued, frontier
/// expansions, rows left in the visited table — exactly as it was. Pinned
/// on a fixed graph and pair set (counts first recorded at commit 541835a,
/// before the DML pipeline went columnar). BDJ's and BSDJ's statement
/// counts were re-pinned once, when their per-expansion sequence lost two
/// statements and one (1952 − 2·313, 1039 − 193); expansions and visited
/// rows did not move. BSEG's were first recorded with the SegTable stored
/// twice (`TOutSegs` forward, a mirrored `TInSegs` backward), before both
/// directions read the one `TOutSegs`.
#[test]
fn work_counts_are_pinned_on_a_fixed_graph() {
    let g = generate::power_law(400, 3, 1..=100, 77);
    let pairs = sample_pairs(400, 10);
    let counts = |s: &fempath_core::QueryStats| (s.sql_statements, s.expansions, s.visited_nodes);

    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(40).unwrap();
    let finders: [(&dyn ShortestPathFinder, _); 3] = [
        (&BdjFinder::default(), (1326u64, 313u64, 627u64)),
        (&BsdjFinder::default(), (846, 193, 617)),
        (&BsegFinder::default(), (258, 46, 1016)),
    ];
    for (finder, want) in finders {
        let mut total = (0u64, 0u64, 0u64);
        for &(s, t) in &pairs {
            let out = finder.find_path(&mut gdb, s, t).unwrap();
            check(&g, &out, s, t, finder.name());
            let c = counts(&out.stats);
            total = (total.0 + c.0, total.1 + c.1, total.2 + c.2);
        }
        assert_eq!(total, want, "{}", finder.name());
    }
}

/// A zero deadline stops every finder at its first expansion with
/// `Timeout` — never a partial path — and the same session, its limits
/// lifted, then answers exactly; a raised cancel flag does the same with
/// `Cancelled`.
#[test]
fn limits_stop_every_finder_without_a_partial_answer() {
    let g = generate::power_law(300, 3, 1..=100, 5);
    let pairs = sample_pairs(300, 3);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(40).unwrap();
    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(DjFinder),
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    let flag = CancelFlag::new();
    flag.cancel();
    let stopping = [
        SearchLimits {
            deadline: Some(std::time::Duration::ZERO),
            cancel: None,
        },
        SearchLimits {
            deadline: None,
            cancel: Some(flag),
        },
    ];
    for f in &finders {
        for &(s, t) in &pairs {
            for limits in &stopping {
                gdb.set_limits(limits.clone());
                let err = f.find_path(&mut gdb, s, t).unwrap_err();
                let want_timeout = limits.deadline.is_some();
                assert!(
                    matches!(
                        (&err, want_timeout),
                        (SqlError::Timeout, true) | (SqlError::Cancelled, false)
                    ),
                    "{}: {s}->{t} stopped with {err}",
                    f.name()
                );
                gdb.set_limits(SearchLimits::default());
                let out = f.find_path(&mut gdb, s, t).unwrap();
                check(&g, &out, s, t, f.name());
            }
        }
    }
}

/// What a hand-driven search saw on the way.
struct HandDriven {
    min_cost: i64,
    expansions: u64,
    /// Most candidates any pick found tied at the minimal distance.
    max_tied: i64,
}

/// Algorithm 2 driven statement by statement with [`SqlGen`]'s text — the
/// sequence `run_bidi` issues for `policy` — checking the identities the
/// finders rest on after *every* expansion:
///
/// * the running minimum folded out of `candidate_stats` equals Listing
///   4(5), `SELECT MIN(d2s + d2t) FROM TVisited`;
/// * in both directions the pick bound to the client-held `l` returns the
///   node Listing 2(2) returns (and BSEG's two-parameter mark selects the
///   rows Listing 4(1) selects);
/// * BDJ's expanding node sits at `flag = 0` through its own M-operator
///   and comes out untouched.
fn drive_by_hand(
    gdb: &mut GraphDb,
    policy: FrontierPolicy,
    style: SqlStyle,
    (s, t): (i64, i64),
) -> HandDriven {
    let edges = match policy {
        FrontierPolicy::Threshold { .. } => EdgeSource::SegTable,
        _ => EdgeSource::Edges,
    };
    let gens = [
        SqlGen::new(Dir::Fwd, edges, style),
        SqlGen::new(Dir::Bwd, edges, style),
    ];
    let int = |v: i64| Value::Int(v);
    let scalar = |gdb: &mut GraphDb, sql: &str, params: &[Value]| -> Option<i64> {
        gdb.db.query_params(sql, params).unwrap().scalar_i64()
    };
    let mode = gdb.reset_search(style, false).unwrap();
    for (dir, node) in [(Dir::Fwd, s), (Dir::Bwd, t)] {
        gdb.db
            .execute_params(&SqlGen::init(dir), &[int(node), int(node)])
            .unwrap();
    }

    let mut seen = HandDriven {
        min_cost: INF,
        expansions: 0,
        max_tied: 0,
    };
    let (mut l, mut n, mut k) = ([0i64; 2], [1i64; 2], [1i64; 2]);
    while seen.min_cost > l[0] + l[1] && (n[0] > 0 || n[1] > 0) {
        // Both directions, not only the expanding one: `l` of the other
        // direction was read before any number of this one's expansions.
        for (gen, &l) in gens.iter().zip(&l) {
            let listing = scalar(gdb, &gen.select_mid(), &[]);
            let bound = scalar(gdb, &gen.select_mid_at(), &[int(l)]).filter(|_| l < INF);
            assert_eq!(bound, listing, "{policy:?} {:?}: pick at l = {l}", gen.dir);
            let (dist, _, flag, ..) = gen.dir.cols();
            let tied = format!("SELECT COUNT(*) FROM TVisited WHERE {flag} = 0 AND {dist} = ?");
            if l < INF {
                seen.max_tied = seen.max_tied.max(scalar(gdb, &tied, &[int(l)]).unwrap());
            }
        }

        let d = usize::from(!(n[0] > 0 && (n[1] <= 0 || n[0] <= n[1])));
        let gen = gens[d];
        let (dist, _, flag, ..) = gen.dir.cols();
        let mid = match policy {
            FrontierPolicy::SingleMin => scalar(gdb, &gen.select_mid_at(), &[int(l[d])]),
            _ => None,
        };
        let marked = match policy {
            FrontierPolicy::SingleMin => u64::from(mid.is_some()),
            FrontierPolicy::AllMin => {
                let out = gdb.db.execute_params(&gen.mark_by_dist(), &[int(l[d])]);
                out.unwrap().rows_affected
            }
            FrontierPolicy::All => gdb.db.execute(&gen.mark_all()).unwrap().rows_affected,
            FrontierPolicy::Threshold { lthd } => {
                let listing = format!(
                    "SELECT COUNT(*) FROM TVisited WHERE ({dist} <= ? OR {dist} = \
                     (SELECT MIN({dist}) FROM TVisited WHERE {flag} = 0 AND {dist} < {INF})) \
                     AND {flag} = 0 AND {dist} < {INF}"
                );
                let want = scalar(gdb, &listing, &[int(k[d] * lthd)]).unwrap();
                let params = [int(k[d] * lthd), int(l[d])];
                let out = gdb.db.execute_params(&gen.mark_threshold(), &params);
                let marked = out.unwrap().rows_affected;
                assert_eq!(marked as i64, want, "Listing 4(1) at l = {}", l[d]);
                marked
            }
        };
        if marked == 0 {
            n[d] = 0;
            continue;
        }

        let pred = if mid.is_some() {
            FrontierPred::ByNid
        } else {
            FrontierPred::Marked
        };
        let params = expand_params(style, pred, mid, l[1 - d], seen.min_cost).unwrap();
        for (op, sql) in gen.expansion(pred, mode) {
            let params: &[Value] = if op == FemOperator::E { &params } else { &[] };
            gdb.db.execute_params(&sql, params).unwrap();
        }
        match mid {
            Some(mid) => {
                let row = format!("SELECT {flag}, {dist} FROM TVisited WHERE nid = ?");
                let row = gdb.db.query_params(&row, &[int(mid)]).unwrap();
                assert_eq!(
                    row.rows,
                    [[int(0), int(l[d])]],
                    "BDJ: node {mid} re-opened or moved by its own expansion"
                );
                gdb.db
                    .execute_params(&gen.settle_by_nid(), &[int(mid)])
                    .unwrap();
            }
            None => {
                gdb.db.execute(&gen.reset_frontier()).unwrap();
            }
        }
        seen.expansions += 1;
        k[d] += 1;

        let stats = gdb.db.query(&gen.candidate_stats()).unwrap();
        let col = |i: usize| stats.rows[0][i].as_i64();
        l[d] = col(0).unwrap_or(INF);
        n[d] = col(1).unwrap_or(0);
        seen.min_cost = seen.min_cost.min(col(2).unwrap_or(INF));
        let listing = scalar(gdb, "SELECT MIN(d2s + d2t) FROM TVisited", &[]).unwrap();
        assert_eq!(
            seen.min_cost,
            listing.min(INF),
            "{policy:?}: folded minCost after expansion {}",
            seen.expansions
        );
        assert!(seen.expansions <= 8 * gdb.num_nodes() as u64 + 32);
    }
    seen
}

const POLICIES: [FrontierPolicy; 4] = [
    FrontierPolicy::SingleMin,
    FrontierPolicy::AllMin,
    FrontierPolicy::All,
    FrontierPolicy::Threshold { lthd: 4 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three identities on random graphs with few distinct weights
    /// (many ties, zero-weight edges included), in every dialect, style
    /// and `TVisited` layout the finders run under.
    #[test]
    fn folded_statistics_and_bound_picks_equal_the_listings(
        grid in any::<bool>(),
        seed in 0u64..1_000,
        max_weight in 0u32..4,
        traditional in any::<bool>(),
        postgres in any::<bool>(),
        clustered in any::<bool>(),
        (s, t) in (0i64..48, 0i64..48),
    ) {
        let g = if grid {
            generate::grid(6, 8, 0..=max_weight, seed)
        } else {
            generate::power_law(48, 2, 0..=max_weight, seed)
        };
        let style = if traditional { SqlStyle::Traditional } else { SqlStyle::New };
        let opts = GraphDbOptions {
            dialect: if postgres { Dialect::POSTGRES } else { Dialect::DBMS_X },
            visited_index: if clustered { IndexKind::Clustered } else { IndexKind::Secondary },
            ..Default::default()
        };
        let mut gdb = GraphDb::new(&g, &opts).unwrap();
        build_segtable_with(&mut gdb, 4, style).unwrap();
        let want = dijkstra::shortest_path(&g, s as u32, t as u32).map(|p| p.distance as i64);
        for policy in POLICIES {
            if s == t {
                continue;
            }
            let seen = drive_by_hand(&mut gdb, policy, style, (s, t));
            prop_assert_eq!(seen.min_cost, want.unwrap_or(INF), "{:?}", policy);
        }
    }
}

#[test]
fn bound_pick_breaks_ties_like_listing_2_2() {
    // A unit-weight grid: every frontier is a tie.
    let g = generate::grid(7, 7, 1..=1, 1);
    for visited_index in [IndexKind::Secondary, IndexKind::Clustered] {
        let opts = GraphDbOptions {
            visited_index,
            ..Default::default()
        };
        let mut gdb = GraphDb::new(&g, &opts).unwrap();
        gdb.build_segtable(2).unwrap();
        for policy in POLICIES {
            let seen = drive_by_hand(&mut gdb, policy, SqlStyle::New, (0, 48));
            assert_eq!(seen.min_cost, 12, "{policy:?}");
            assert!(seen.max_tied >= 3, "{policy:?}: no tie among candidates");
        }
        // The finder issues the same sequence: same number of expansions.
        let by_hand = drive_by_hand(&mut gdb, POLICIES[0], SqlStyle::New, (0, 48));
        let out = BdjFinder::default().find_path(&mut gdb, 0, 48).unwrap();
        assert_eq!(out.stats.expansions, by_hand.expansions);
    }
}

#[test]
fn bdj_settles_each_node_once_with_zero_weight_and_parallel_edges() {
    // Zero-weight edges put neighbours at the expanding node's own
    // distance, a zero-weight self-loop offers the node to itself, and
    // parallel edges offer one neighbour twice. The by-`nid` flow leaves
    // the expanding node at `flag = 0` during its own MERGE; none of this
    // may re-open it, so every expansion settles a different node.
    let g = Graph::from_undirected_edges(
        8,
        vec![
            (0, 0, 0),
            (0, 1, 0),
            (0, 1, 3),
            (1, 2, 0),
            (1, 2, 0),
            (2, 3, 2),
            (2, 3, 5),
            (3, 3, 0),
            (3, 4, 0),
            (4, 5, 1),
            (5, 6, 0),
            (6, 7, 4),
            (0, 7, 9),
        ],
    );
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let opts = GraphDbOptions {
            dialect,
            ..Default::default()
        };
        let mut gdb = GraphDb::new(&g, &opts).unwrap();
        for s in 0..8i64 {
            for t in 0..8i64 {
                let out = BdjFinder::default().find_path(&mut gdb, s, t).unwrap();
                check(&g, &out, s, t, "BDJ");
                if s == t {
                    continue;
                }
                let settled = gdb
                    .db
                    .query("SELECT SUM(f = 1) + SUM(b = 1) FROM TVisited")
                    .unwrap()
                    .scalar_i64()
                    .unwrap();
                assert_eq!(out.stats.expansions as i64, settled, "{s}->{t}");
                drive_by_hand(&mut gdb, FrontierPolicy::SingleMin, SqlStyle::New, (s, t));
            }
        }
    }
}

#[test]
fn resident_frames_are_flat_across_bdj_queries() {
    // Every query TRUNCATEs `TVisited`, which frees all but the root of its
    // `nid` index; the freed pages' frames must be the ones the next
    // query's splits get (a worker session leaked 3.8 KB/query before). A
    // degree-16 graph makes most queries visit enough rows to split.
    let g = generate::power_law(3000, 8, 1..=100, 77);
    let mut gdb = GraphDb::in_memory(&g).unwrap().freeze().unwrap().session();
    let pairs = sample_pairs(3000, 10);
    let finder = BdjFinder::default();
    // Two passes: the first touches every edge page and grows the heap to
    // its largest, the second repeats it from a recycled heap.
    all_pairs_check(&g, &finder, &mut gdb, &pairs);
    all_pairs_check(&g, &finder, &mut gdb, &pairs);
    let warm = (gdb.db.buffer_resident(), gdb.db.io_stats().allocations);
    for i in 0..200 {
        let (s, t) = pairs[i % pairs.len()];
        finder.find_path(&mut gdb, s, t).unwrap();
    }
    assert_eq!(gdb.db.buffer_resident(), warm.0);
    assert!(
        gdb.db.io_stats().allocations > warm.1,
        "no query split the index: nothing was recycled"
    );
}
