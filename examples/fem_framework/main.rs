//! The FEM framework beyond shortest paths (§3.1 and §7 of the paper):
//! reachability, Prim's minimal spanning tree, single-source shortest
//! paths, landmark distance estimation, and label-path pattern matching —
//! all running as SQL iterations over the same relational store.
//!
//! Reachability, Prim and label-path matching are written here, on the
//! library's public API: [`fem`] is the F/E/M skeleton the first two
//! share, and the tests compare each search with an in-memory oracle.
//!
//! ```text
//! cargo run --release --example fem_framework
//! cargo test --example fem_framework
//! ```

mod fem;
#[cfg(test)]
mod oracles;
mod pattern;
mod prim;
mod reach;

use fempath::core::{build_landmarks, estimate_distance, single_source, GraphDb};
use fempath::graph::generate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generate::power_law(800, 3, 1..=50, 99);
    let mut db = GraphDb::in_memory(&g)?;
    println!(
        "graph: {} nodes / {} arcs, loaded relationally\n",
        g.num_nodes(),
        g.num_arcs()
    );

    // 1. Reachability (§3.1's first example).
    println!(
        "reachable(0, 799)      = {}",
        reach::reachable(&mut db, 0, 799)?
    );
    println!(
        "component_size(0)      = {}",
        reach::component_size(&mut db, 0)?
    );

    // 2. Prim's MST (§3.1's second example).
    let mst = prim::prim_mst(&mut db, 0)?;
    println!(
        "prim MST               = {} edges, total weight {}, {} FEM iterations",
        mst.edges.len(),
        mst.total_weight,
        mst.iterations
    );

    // 3. Single-source shortest paths (set-Dijkstra, forward only).
    let sssp = single_source(&mut db, 0)?;
    let ecc = sssp.entries.iter().map(|e| e.distance).max().unwrap_or(0);
    println!(
        "SSSP from node 0       = {} nodes settled in {} iterations (eccentricity {})",
        sssp.entries.len(),
        sssp.iterations,
        ecc
    );

    // 4. Landmark distance estimation (the offline alternative of [19]).
    build_landmarks(&mut db, &[0, 200, 400, 600])?;
    let b = estimate_distance(&mut db, 13, 777)?.expect("connected");
    println!(
        "landmark bounds 13~777 = [{}, {}] (4 landmarks)",
        b.lower, b.upper
    );

    // 5. Label-path pattern matching (§3.1's third example / §7 future work).
    let labels: Vec<i64> = (0..g.num_nodes() as i64).map(|v| v % 3).collect();
    pattern::set_labels(&mut db, &labels)?;
    let matches = pattern::match_label_path(&mut db, &[0, 1, 2], true)?;
    println!("pattern A->B->C        = {} embeddings", matches.len());

    println!("\nevery number above was produced by SQL statements over TEdges & friends");
    Ok(())
}
