//! SegTable construction correctness (§4.2, Definition 4) against the
//! in-memory bounded-Dijkstra oracle.

use fempath_core::{
    build_segtable_with, segtable::read_segments, GraphDb, GraphDbOptions, SqlStyle,
};
use fempath_graph::{generate, Graph};
use fempath_inmem::dijkstra;
use fempath_sql::Dialect;
use std::collections::HashMap;

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

/// Validates a built SegTable against Definition 4:
/// * every pair with δ(u,v) <= lthd appears with cost = δ(u,v);
/// * every original edge (u,v) with no within-threshold pair appears with
///   its edge weight;
/// * no other tuples, except original edges dominated by recorded
///   segments (cost >= δ).
fn validate_segtable(g: &Graph, gdb: &mut GraphDb, lthd: i64) {
    let segs = read_segments(gdb).unwrap();
    let mut best: HashMap<(i64, i64), i64> = HashMap::new();
    for (f, t, c) in &segs {
        let e = best.entry((*f, *t)).or_insert(i64::MAX);
        *e = (*e).min(*c);
    }
    for u in 0..g.num_nodes() as u32 {
        let dist = dijkstra::distances_from(g, u);
        // Case 1: all pairs within the threshold, exact distance.
        for v in 0..g.num_nodes() as u32 {
            if u == v {
                continue;
            }
            let d = dist[v as usize];
            if d != u64::MAX && d as i64 <= lthd {
                assert_eq!(
                    best.get(&(u as i64, v as i64)).copied(),
                    Some(d as i64),
                    "segment ({u},{v}) should carry δ = {d}"
                );
            }
        }
        // Case 2: residual original edges are present.
        for a in g.out_arcs(u) {
            let d = dist[a.to as usize];
            let within = d != u64::MAX && d as i64 <= lthd;
            if !within {
                let got = best.get(&(u as i64, a.to as i64)).copied();
                assert!(
                    got.is_some() && got.unwrap() <= a.weight as i64,
                    "residual edge ({u},{}) missing from SegTable",
                    a.to
                );
            }
        }
    }
    // Nothing bogus: every stored segment cost is >= the true distance.
    for ((f, t), c) in &best {
        let d = dijkstra::distances_from(g, *f as u32)[*t as usize];
        assert!(
            d != u64::MAX,
            "segment ({f},{t}) connects unreachable nodes"
        );
        assert!(
            *c >= d as i64,
            "segment ({f},{t}) cost {c} below true distance {d}"
        );
    }
}

#[test]
fn figure1_segtable_lthd6_matches_paper_examples() {
    let g = figure1();
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let stats = gdb.build_segtable(6).unwrap();
    assert!(stats.segments > 0);
    assert!(stats.iterations > 0);
    let segs = read_segments(&mut gdb).unwrap();
    let lookup = |f: i64, t: i64| {
        segs.iter()
            .filter(|(a, b, _)| *a == f && *b == t)
            .map(|(_, _, c)| *c)
            .min()
    };
    // Figure 4(b): segment s->e has cost 4 (s->b->e or s->c->e).
    assert_eq!(lookup(0, 4), Some(4));
    // Figure 4(a): refined edge s->d costs 2 (s->c->d), not the original 6.
    assert_eq!(lookup(0, 3), Some(2));
    // e->h (4->7): δ = 7 (e-g-h) > lthd. The original edge weight 8 must
    // appear as a residual edge (Definition 4, case 2).
    assert_eq!(lookup(4, 7), Some(8));
    validate_segtable(&g, &mut gdb, 6);
}

#[test]
fn segtable_on_power_law_graph() {
    let g = generate::power_law(150, 3, 1..=20, 17);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(15).unwrap();
    validate_segtable(&g, &mut gdb, 15);
}

#[test]
fn segtable_traditional_style_matches_new_style() {
    let g = generate::power_law(100, 3, 1..=20, 27);
    let mut a = GraphDb::in_memory(&g).unwrap();
    let mut b = GraphDb::in_memory(&g).unwrap();
    let sa = build_segtable_with(&mut a, 12, SqlStyle::New).unwrap();
    let sb = build_segtable_with(&mut b, 12, SqlStyle::Traditional).unwrap();
    let mut segs_a = read_segments(&mut a).unwrap();
    let mut segs_b = read_segments(&mut b).unwrap();
    // Costs must agree pairwise (pid may differ on ties).
    let dedup = |v: &mut Vec<(i64, i64, i64)>| {
        v.sort_unstable();
        v.dedup();
    };
    dedup(&mut segs_a);
    dedup(&mut segs_b);
    let costs = |v: &[(i64, i64, i64)]| {
        let mut m: HashMap<(i64, i64), i64> = HashMap::new();
        for (f, t, c) in v {
            let e = m.entry((*f, *t)).or_insert(i64::MAX);
            *e = (*e).min(*c);
        }
        m
    };
    assert_eq!(costs(&segs_a), costs(&segs_b));
    assert_eq!(sa.segments, sb.segments);
}

#[test]
fn larger_lthd_yields_more_segments() {
    // Fig 9(a): index size grows with the threshold.
    let g = generate::power_law(120, 3, 1..=20, 37);
    let mut sizes = Vec::new();
    for lthd in [5i64, 15, 30] {
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let stats = gdb.build_segtable(lthd).unwrap();
        sizes.push(stats.segments);
    }
    assert!(
        sizes[0] <= sizes[1] && sizes[1] <= sizes[2],
        "segments must grow with lthd: {sizes:?}"
    );
    assert!(sizes[2] > sizes[0], "a 6x threshold must add segments");
}

#[test]
fn segtable_iteration_bound_theorem() {
    // Construction iterations stay near lthd / wmin (§4.2).
    let g = generate::power_law(100, 3, 2..=20, 47);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let lthd = 16i64;
    let stats = gdb.build_segtable(lthd).unwrap();
    let bound = 2 * (lthd / gdb.min_weight() as i64) as u64 + 4;
    assert!(
        stats.iterations <= bound,
        "iterations {} above ~lthd/wmin bound {bound}",
        stats.iterations
    );
}

#[test]
fn rebuild_replaces_previous_segtable() {
    let g = generate::grid(6, 6, 1..=10, 57);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let a = gdb.build_segtable(5).unwrap();
    let b = gdb.build_segtable(20).unwrap();
    assert!(b.segments > a.segments);
    assert_eq!(gdb.segtable().unwrap().lthd, 20);
    validate_segtable(&g, &mut gdb, 20);
}

/// An edge mutation takes the SegTable out of service: segments computed
/// over a deleted edge would hand BSEG paths that no longer exist (before
/// the gate it answered *shorter* than BDJ on 44 of these 60 pairs).
/// BSEG refuses to answer until `build_segtable` reruns, then agrees with
/// BDJ on the same database. A frozen snapshot's session behaves the same.
#[test]
fn mutations_take_the_segtable_out_of_service_until_rebuilt() {
    use fempath_core::{BdjFinder, BsegFinder, ShortestPathFinder};
    let g = generate::power_law(300, 3, 1..=100, 7);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(40).unwrap();
    let mut deleted: Vec<(i64, i64)> = Vec::new();
    for u in 0..g.num_nodes() as u32 {
        for a in g.out_arcs(u) {
            let e = (u as i64, a.to as i64);
            if u < a.to && !deleted.contains(&e) {
                deleted.push(e);
            }
        }
    }
    let deleted: Vec<(i64, i64)> = deleted.into_iter().step_by(7).take(60).collect();
    assert_eq!(deleted.len(), 60);
    for &(u, v) in &deleted {
        assert!(gdb.delete_edge(u, v).unwrap() > 0);
    }

    assert!(
        gdb.segtable().is_none(),
        "a mutation must gate the SegTable"
    );
    let (bseg, bdj) = (BsegFinder::default(), BdjFinder::default());
    for &(s, t) in &deleted {
        let err = bseg.find_path(&mut gdb, s, t).unwrap_err().to_string();
        assert!(err.contains("requires a SegTable"), "{s}->{t}: {err}");
    }

    gdb.build_segtable(40).unwrap();
    for &(s, t) in &deleted {
        let want = bdj
            .find_path(&mut gdb, s, t)
            .unwrap()
            .path
            .map(|p| p.length);
        let got = bseg
            .find_path(&mut gdb, s, t)
            .unwrap()
            .path
            .map(|p| p.length);
        assert_eq!(got, want, "{s}->{t}: BSEG vs BDJ after the rebuild");
    }

    let snapshot = gdb.freeze().unwrap();
    let mut session = snapshot.session();
    assert!(bseg.find_path(&mut session, 0, 1).is_ok());
    session.insert_edge(0, 1, 1).unwrap();
    assert!(
        bseg.find_path(&mut session, 0, 1).is_err(),
        "a session's replayed mutation gates its SegTable too"
    );
}

/// The segmented tier builds `TOutSegs` in one streamed pass into
/// segment storage, the row tier by SQL into a clustered table; both hold
/// the same rows in the same scan order (a fid's segments as `TSegV`
/// clusters them, then its residual arcs in `TEdges` order), which is the
/// order a probe of the fid reads, in both dialects. Also after edge
/// mutations leave the segmented `TEdges` with tombstones and a delta
/// overlay, and the SegTable is rebuilt over them.
#[test]
fn toutsegs_rows_identical_on_both_tiers() {
    // Both tiers load a fid's arcs in `(tid, cost)` order, so an
    // unsorted graph puts them alike in either `TEdges`.
    let g = generate::power_law(260, 3, 1..=30, 13);
    let scan = |gdb: &mut GraphDb| {
        gdb.db
            .query("SELECT fid, tid, pid, cost FROM TOutSegs")
            .unwrap()
            .rows
    };
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let tier = |segmented_edges| {
            let opts = GraphDbOptions {
                dialect,
                segmented_edges,
                bulk_load: true,
                ..Default::default()
            };
            GraphDb::new(&g, &opts).unwrap()
        };
        let (mut rows, mut segs) = (tier(false), tier(true));
        for round in 0..2 {
            let a = rows.build_segtable(20).unwrap();
            let b = segs.build_segtable(20).unwrap();
            let t = segs.db.catalog().table("TOutSegs").unwrap();
            assert!(t.is_segmented() && t.schema.columns.len() == 4);
            assert_eq!(a.segments, b.segments, "{dialect:?} round {round}");
            let want = scan(&mut rows);
            assert_eq!(want.len() as u64, a.segments);
            assert_eq!(scan(&mut segs), want, "{dialect:?} round {round}");
            // Deletes, re-inserts and a parallel arc, on both tiers alike.
            for gdb in [&mut rows, &mut segs] {
                for u in (0..40).step_by(3) {
                    let v = g.out_arcs(u)[0].to;
                    gdb.delete_edge(i64::from(u), i64::from(v)).unwrap();
                    gdb.insert_edge(i64::from(u), i64::from(v), 31).unwrap();
                    gdb.insert_edge(i64::from(u), i64::from(u + 100), 2)
                        .unwrap();
                }
            }
        }
    }
}
