//! Quickstart: load the paper's Figure 1 graph into relational tables and
//! find the shortest s→t path with every algorithm.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fempath::core::{
    BbfsFinder, BdjFinder, BsdjFinder, BsegFinder, DjFinder, GraphDb, ShortestPathFinder,
};
use fempath::graph::Graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The graph of Figure 1 (s=0, b=1, c=2, d=3, e=4, f=5, g=6, h=7, i=8,
    // j=9, t=10), weights as printed in the paper.
    let g = Graph::from_undirected_edges(
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
    );
    let names = ["s", "b", "c", "d", "e", "f", "g", "h", "i", "j", "t"];

    // Load into TNodes/TEdges (clustered index on TEdges(fid)).
    let mut db = GraphDb::in_memory(&g)?;
    println!(
        "loaded {} nodes / {} arcs into the relational store",
        db.num_nodes(),
        db.num_arcs()
    );

    // Build the SegTable with the paper's example threshold (Figure 4).
    let stats = db.build_segtable(6)?;
    println!(
        "SegTable(lthd=6): {} segments in {} FEM iterations ({} SQL statements)",
        stats.segments, stats.iterations, stats.sql_statements
    );

    let finders: Vec<Box<dyn ShortestPathFinder>> = vec![
        Box::new(DjFinder),
        Box::new(BdjFinder::default()),
        Box::new(BsdjFinder::default()),
        Box::new(BbfsFinder),
        Box::new(BsegFinder::default()),
    ];
    println!("\nshortest path s -> t (expected length 14):");
    for f in &finders {
        let out = f.find_path(&mut db, 0, 10)?;
        let path = out.path.expect("s-t are connected");
        let pretty: Vec<&str> = path.nodes.iter().map(|&n| names[n as usize]).collect();
        println!(
            "  {:>5}: length {:>2}, path {:<22} ({} expansions, {} SQL statements)",
            f.name(),
            path.length,
            pretty.join("->"),
            out.stats.expansions,
            out.stats.sql_statements,
        );
    }
    Ok(())
}
