//! Cross-crate integration: the full pipeline from generator to SQL-driven
//! path discovery, exercising the facade crate's public API exactly as the
//! examples and benches do.

use fempath::core::{
    BsdjFinder, BsegFinder, DjFinder, GraphDb, GraphDbOptions, ShortestPathFinder, SqlStyle,
};
use fempath::graph::{generate, io, IndexKind};
use fempath::inmem::dijkstra;
use fempath::sql::Dialect;

#[test]
fn full_pipeline_generate_load_index_query() {
    let g = generate::dblp_like(400, 1..=100, 3);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    let seg = gdb.build_segtable(8).unwrap();
    assert!(
        seg.segments >= g.num_arcs() as u64 / 2,
        "SegTable covers the graph"
    );

    let finder = BsegFinder::default();
    let mut reachable = 0;
    for i in 0..8i64 {
        let (s, t) = ((i * 37) % 400, (i * 59 + 200) % 400);
        let out = finder.find_path(&mut gdb, s, t).unwrap();
        let oracle = dijkstra::shortest_path(&g, s as u32, t as u32);
        match (out.path, oracle) {
            (Some(p), Some(o)) => {
                assert_eq!(p.length as u64, o.distance);
                reachable += 1;
            }
            (None, None) => {}
            _ => panic!("reachability mismatch"),
        }
    }
    assert!(
        reachable > 0,
        "some pairs must connect in a DBLP-like graph"
    );
}

#[test]
fn graph_file_roundtrip_through_database() {
    let g = generate::power_law(200, 3, 1..=50, 5);
    let mut path = std::env::temp_dir();
    path.push(format!("fempath-e2e-{}.txt", std::process::id()));
    io::write_arcs(&g, &path).unwrap();
    let g2 = io::read_arcs(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let mut a = GraphDb::in_memory(&g).unwrap();
    let mut b = GraphDb::in_memory(&g2).unwrap();
    let f = BsdjFinder::default();
    for (s, t) in [(0i64, 150i64), (7, 90)] {
        let pa = f.find_path(&mut a, s, t).unwrap().path;
        let pb = f.find_path(&mut b, s, t).unwrap().path;
        assert_eq!(pa.map(|p| p.length), pb.map(|p| p.length));
    }
}

#[test]
fn every_dialect_and_style_agrees_on_distances() {
    let g = generate::grid(8, 8, 1..=20, 9);
    let expect = dijkstra::shortest_path(&g, 0, 63).unwrap().distance as i64;
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        for style in [SqlStyle::New, SqlStyle::Traditional] {
            let mut gdb = GraphDb::new(
                &g,
                &GraphDbOptions {
                    dialect,
                    ..Default::default()
                },
            )
            .unwrap();
            let finder = BsdjFinder {
                style,
                ..Default::default()
            };
            let out = finder.find_path(&mut gdb, 0, 63).unwrap();
            assert_eq!(
                out.path.unwrap().length,
                expect,
                "dialect {dialect:?}, style {style:?}"
            );
        }
    }
}

#[test]
fn dj_runs_on_tiny_graph_all_dialects() {
    let g = generate::grid(4, 4, 1..=10, 13);
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let mut gdb = GraphDb::new(
            &g,
            &GraphDbOptions {
                dialect,
                ..Default::default()
            },
        )
        .unwrap();
        let out = DjFinder.find_path(&mut gdb, 0, 15).unwrap();
        let oracle = dijkstra::shortest_path(&g, 0, 15).unwrap();
        assert_eq!(out.path.unwrap().length as u64, oracle.distance);
    }
}

#[test]
fn disk_resident_pipeline_with_tiny_buffer() {
    // The row tier: a 24-page pool spills its clustered `TEdges` and
    // `TOutSegs`, where the segmented tier's would stay resident.
    let g = generate::power_law(300, 3, 1..=50, 21);
    let mut gdb = GraphDb::new(
        &g,
        &GraphDbOptions {
            buffer_pages: 24,
            on_disk: true,
            edges_index: IndexKind::Clustered,
            segmented_edges: false,
            ..Default::default()
        },
    )
    .unwrap();
    gdb.build_segtable(10).unwrap();
    let out = BsegFinder::default().find_path(&mut gdb, 0, 250).unwrap();
    let oracle = dijkstra::shortest_path(&g, 0, 250);
    assert_eq!(
        out.path.map(|p| p.length as u64),
        oracle.map(|o| o.distance)
    );
    let io = gdb.db.io_stats();
    assert!(
        io.disk_reads > 0 && io.disk_writes > 0,
        "must really hit the disk"
    );
}
