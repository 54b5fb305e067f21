//! Many (s, t) pairs through one finder: `find_paths` runs BDJ on each
//! pair in turn over one session and sums the measurements (DESIGN.md §8).
//!
//! ```text
//! cargo run --release --example batch_queries
//! ```

use fempath::core::{BatchShortestPathFinder, BdjFinder, GraphDb};
use fempath::graph::generate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small social-network-style graph, loaded into relational tables.
    let g = generate::power_law(400, 3, 1..=100, 7);
    let mut db = GraphDb::in_memory(&g)?;
    println!(
        "loaded {} nodes / {} arcs into the relational store",
        db.num_nodes(),
        db.num_arcs()
    );

    // One batch mixing ordinary, trivial and repeated pairs.
    let pairs: Vec<(i64, i64)> = vec![
        (0, 399),
        (17, 230),
        (42, 42), // trivial: answered without SQL
        (399, 0),
        (0, 399), // duplicate of the first pair
        (250, 11),
        (3, 77),
        (198, 305),
    ];
    let out = BdjFinder::default().find_paths(&mut db, &pairs)?;

    println!("\n{} pairs through BDJ:", pairs.len());
    for ((s, t), path) in pairs.iter().zip(&out.paths) {
        match path {
            Some(p) => println!(
                "  {s:>3} -> {t:>3}: length {:>3}, {} hops",
                p.length,
                p.nodes.len() - 1
            ),
            None => println!("  {s:>3} -> {t:>3}: unreachable"),
        }
    }
    println!(
        "\nwhole batch: {} expansions, {} SQL statements, {:.1} ms",
        out.stats.expansions,
        out.stats.sql_statements,
        out.stats.total_time.as_secs_f64() * 1e3,
    );
    println!("(PathService::query_batch dedupes the pairs and spreads them over its workers)");
    Ok(())
}
