//! Differential test for the segment-compressed storage tier (DESIGN.md §14):
//! every finder must return exactly the same answers whether `TEdges` (and
//! with it the SegTable, `TOutSegs`) is stored as heap/clustered rows or as
//! delta-compressed segments — across both SQL dialects — and both must
//! match in-memory Dijkstra.

use fempath::core::{
    BatchShortestPathFinder, BbfsFinder, BdjFinder, BsdjFinder, BsegFinder, DjFinder, GraphDb,
    GraphDbOptions, ShortestPathFinder,
};
use fempath::graph::{generate, Graph};
use fempath::inmem::dijkstra;
use fempath::sql::Dialect;

fn query_pairs(n: usize, count: usize) -> Vec<(i64, i64)> {
    (0..count)
        .map(|i| {
            let s = (i * 7919 + 13) % n;
            let mut t = (i * 104_729 + n / 2) % n;
            if t == s {
                t = (t + 1) % n;
            }
            (s as i64, t as i64)
        })
        .collect()
}

fn build(g: &Graph, dialect: Dialect, segmented: bool) -> GraphDb {
    GraphDb::new(
        g,
        &GraphDbOptions {
            dialect,
            segmented_edges: segmented,
            bulk_load: segmented,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Single-pair finders: segmented and row-stored databases must agree with
/// each other and with the in-memory oracle on distance and reachability,
/// for every dialect.
#[test]
fn finders_identical_on_segmented_and_row_storage() {
    // dblp_like leaves isolated nodes, so unreachable pairs are exercised.
    let g = generate::dblp_like(140, 1..=100, 19);
    let pairs = query_pairs(140, 6);
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut rows = build(&g, dialect, false);
        let mut segs = build(&g, dialect, true);
        let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
            Box::new(DjFinder),
            Box::new(BdjFinder::default()),
            Box::new(BsdjFinder::default()),
            Box::new(BbfsFinder),
        ];
        for &(s, t) in &pairs {
            let oracle = dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64);
            for f in &finders {
                let ctx = format!("{} {s}->{t} ({dialect:?})", f.name());
                let a = f.find_path(&mut rows, s, t).unwrap();
                let b = f.find_path(&mut segs, s, t).unwrap();
                let a_len = a.path.as_ref().map(|p| p.length);
                let b_len = b.path.as_ref().map(|p| p.length);
                assert_eq!(a_len, oracle, "{ctx}: row storage vs Dijkstra");
                assert_eq!(b_len, oracle, "{ctx}: segmented storage vs Dijkstra");
                assert_eq!(
                    a.path.as_ref().map(|p| &p.nodes),
                    b.path.as_ref().map(|p| &p.nodes),
                    "{ctx}: segmented and row storage must walk identical paths \
                     (same plans, same tie-breaking)"
                );
            }
        }
    }
}

/// BSEG over a SegTable built on each tier — SQL step 2 into a clustered
/// `TOutSegs` on the row tier, one streamed pass into 4-column segments on
/// the segmented tier — walks identical paths, at Dijkstra's distance,
/// with identical work counts, in both dialects.
#[test]
fn bseg_identical_on_segmented_and_row_segtables() {
    let g = generate::power_law(220, 3, 1..=40, 31);
    let pairs = query_pairs(220, 10);
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut rows = build(&g, dialect, false);
        let mut segs = build(&g, dialect, true);
        let a = rows.build_segtable(30).unwrap();
        let b = segs.build_segtable(30).unwrap();
        assert_eq!(a.segments, b.segments, "{dialect:?}: SegTable rows");
        assert!(segs.db.catalog().table("TOutSegs").unwrap().is_segmented());
        let f = BsegFinder::default();
        for &(s, t) in &pairs {
            let ctx = format!("BSEG {s}->{t} ({dialect:?})");
            let oracle = dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64);
            let a = f.find_path(&mut rows, s, t).unwrap();
            let b = f.find_path(&mut segs, s, t).unwrap();
            assert_eq!(a.path.as_ref().map(|p| p.length), oracle, "{ctx}: rows");
            assert_eq!(b.path.as_ref().map(|p| p.length), oracle, "{ctx}: segments");
            assert_eq!(
                a.path.as_ref().map(|p| &p.nodes),
                b.path.as_ref().map(|p| &p.nodes),
                "{ctx}: both SegTables must walk identical paths"
            );
            let work =
                |s: &fempath::core::QueryStats| (s.expansions, s.visited_nodes, s.sql_statements);
            assert_eq!(work(&a.stats), work(&b.stats), "{ctx}: work counts");
        }
    }
}

/// One multi-pair run per session over segment-compressed edges, per
/// dialect: every pair after the first starts from the previous pair's
/// truncated working tables.
#[test]
fn batched_finder_identical_on_segmented_storage() {
    let g = generate::power_law(160, 3, 1..=100, 23);
    let pairs = query_pairs(160, 8);
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut rows = build(&g, dialect, false);
        let mut segs = build(&g, dialect, true);
        let f = BsdjFinder::default();
        let a = f.find_paths(&mut rows, &pairs).unwrap();
        let b = f.find_paths(&mut segs, &pairs).unwrap();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let oracle = dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64);
            let ctx = format!("BSDJ {s}->{t} ({dialect:?})");
            assert_eq!(
                a.paths[i].as_ref().map(|p| p.length),
                oracle,
                "{ctx}: row storage vs Dijkstra"
            );
            assert_eq!(
                b.paths[i].as_ref().map(|p| p.length),
                oracle,
                "{ctx}: segmented storage vs Dijkstra"
            );
        }
    }
}

/// Full-scan SQL over the segmented table must agree with the row tables:
/// aggregates, ordering, and ad-hoc predicates that bypass the fid access
/// path all decode through the segment cursor.
#[test]
fn segment_scans_match_row_scans() {
    let g = generate::power_law(200, 3, 1..=100, 5);
    let mut rows = build(&g, Dialect::DBMS_X, false);
    let mut segs = build(&g, Dialect::DBMS_X, true);
    for sql in [
        "SELECT COUNT(*), SUM(cost), MIN(cost), MAX(cost) FROM TEdges",
        "SELECT COUNT(*) FROM TEdges WHERE cost > 50",
        "SELECT fid, COUNT(*) FROM TEdges GROUP BY fid ORDER BY fid",
        "SELECT tid FROM TEdges WHERE fid = 0 ORDER BY tid",
        "SELECT COUNT(*) FROM TEdges e1, TEdges e2 \
         WHERE e1.tid = e2.fid AND e1.fid = 3",
    ] {
        let a = rows.db.query(sql).unwrap();
        let b = segs.db.query(sql).unwrap();
        assert_eq!(a.rows, b.rows, "query diverged on segmented storage: {sql}");
    }
    // INSERT routes to the delta overlay (DESIGN.md §16) and is visible
    // to the same scan paths immediately; both tiers stay in agreement.
    rows.db
        .execute("INSERT INTO TEdges VALUES (1, 2, 3)")
        .unwrap();
    let n = segs
        .db
        .execute("INSERT INTO TEdges VALUES (1, 2, 3)")
        .unwrap();
    assert_eq!(n.rows_affected, 1);
    let count_sql = "SELECT COUNT(*), SUM(cost) FROM TEdges";
    assert_eq!(
        rows.db.query(count_sql).unwrap().rows,
        segs.db.query(count_sql).unwrap().rows,
        "post-insert aggregates diverged on segmented storage"
    );
    // UPDATE/DELETE against compressed base rows are still refused, not
    // silently dropped.
    let err = segs
        .db
        .execute("UPDATE TEdges SET cost = 1 WHERE fid = 1")
        .unwrap_err();
    assert!(
        err.to_string().contains("segment"),
        "unexpected error: {err}"
    );
}
