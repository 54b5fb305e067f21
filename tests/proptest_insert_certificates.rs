//! Property test of the result cache's insert rule (DESIGN.md §16
//! *Inserts keep what they cannot change*) against in-memory Dijkstra.
//!
//! Random small graphs — many of them disconnected — are served with the
//! cache on, by BDJ and by BSDJ, while a random script interleaves
//! weighted inserts, deletes and queries over a small pool of pairs. The
//! pool is small so that entries are asked again across mutation windows:
//! kept across inserts, re-stamped mid-window by a query, and asked again
//! after later inserts, whose running minima then carry over from the
//! earlier ones. Every answer, whichever way it was served (a plain hit,
//! an entry kept across a window, or a miss that ran a finder), must
//! have the oracle's length on the graph at the current version and be
//! a walk of that graph costing its length, through `query` and through
//! `query_batch` alike.
//!
//! `PROPTEST_CASES=512 cargo test --release --test proptest_insert_certificates`
//! runs the wide sweep.

mod common;

use common::walk_cost;
use fempath::core::{Path, PathService, PathServiceOptions, ServiceAlgorithm};
use fempath::graph::{generate, Graph};
use fempath::inmem::dijkstra;
use proptest::prelude::*;

/// Nodes of every generated graph.
const N: i64 = 10;

/// Honour `PROPTEST_CASES` (the CI sweep) without a code change.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One step of a script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Ask pair `k` (mod the pool size) of the pool.
    Query(usize),
    Insert(i64, i64, i64),
    /// Delete the edge `(a, b)` (most of the time no edge is there).
    Delete(i64, i64),
    /// Delete edge `k` (mod its length) of the current edge list.
    DeleteExisting(usize),
}

/// Queries dominate (4/8), then inserts (2/8, weights from 1), then
/// the two kinds of delete. Insert self-loops are remapped away.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..8, 0..N, 0..N, 1i64..=12, 0usize..64).prop_map(|(kind, a, b, w, k)| {
        let b_ne = if a == b { (b + 1) % N } else { b };
        match kind {
            0..=3 => Op::Query(k),
            4 | 5 => Op::Insert(a, b_ne, w),
            6 => Op::Delete(a, b_ne),
            _ => Op::DeleteExisting(k),
        }
    })
}

/// Shortest-path length over `edges` by in-memory Dijkstra.
fn oracle(edges: &[(u32, u32, u32)], (s, t): (i64, i64)) -> Option<i64> {
    let g = Graph::from_undirected_edges(N as usize, edges.iter().copied());
    dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64)
}

fn check(edges: &[(u32, u32, u32)], pair: (i64, i64), got: &Option<Path>, ctx: &str) {
    assert_eq!(
        got.as_ref().map(|p| p.length),
        oracle(edges, pair),
        "{ctx}: length vs Dijkstra"
    );
    if let Some(p) = got {
        assert_eq!(
            (p.nodes.first(), p.nodes.last()),
            (Some(&pair.0), Some(&pair.1)),
            "{ctx}: path ends"
        );
        assert_eq!(
            walk_cost(edges, &p.nodes),
            Some(p.length),
            "{ctx}: {:?} is not a walk of the current graph costing its length",
            p.nodes
        );
    }
}

/// Runs `ops` against a cache-on service over `edges`, checking every
/// answer, and returns how many hits were kept across an insert.
fn run_script(
    edges: &[(u32, u32, u32)],
    pool: &[(i64, i64)],
    ops: &[Op],
    algorithm: ServiceAlgorithm,
) -> u64 {
    let g = Graph::from_undirected_edges(N as usize, edges.iter().copied());
    let svc = PathService::with_options(
        &g,
        &PathServiceOptions {
            workers: 2,
            algorithm,
            ..Default::default() // cache ON: that is the layer under test
        },
    )
    .unwrap();
    let mut model = edges.to_vec();
    for (step, &op) in ops.iter().enumerate() {
        let ctx = format!("step {step} {op:?} ({algorithm:?})");
        match op {
            Op::Query(k) => {
                let pair = pool[k % pool.len()];
                let single = svc.query(pair.0, pair.1).unwrap().path;
                check(&model, pair, &single, &format!("{ctx} via query"));
                let batch = svc.query_batch(&[pair, pair]).unwrap();
                for got in &batch {
                    check(&model, pair, got, &format!("{ctx} via query_batch"));
                }
            }
            Op::Insert(u, v, w) => {
                svc.insert_edge(u, v, w).unwrap();
                model.push((u as u32, v as u32, w as u32));
            }
            Op::Delete(..) | Op::DeleteExisting(_) => {
                let (u, v) = match op {
                    Op::DeleteExisting(k) if !model.is_empty() => {
                        let (a, b, _) = model[k % model.len()];
                        (i64::from(a), i64::from(b))
                    }
                    Op::Delete(a, b) => (a, b),
                    _ => continue,
                };
                svc.delete_edge(u, v).unwrap();
                model.retain(|&(a, b, _)| {
                    let (a, b) = (i64::from(a), i64::from(b));
                    (a, b) != (u, v) && (a, b) != (v, u)
                });
            }
        }
    }
    svc.stats().cache.insert_kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(128)))]

    /// Whatever the window, a served answer is the current graph's.
    #[test]
    fn kept_entries_match_fresh_dijkstra(
        edges in prop::collection::vec((0u32..N as u32, 0u32..N as u32, 1u32..=10), 0..16),
        pool in prop::collection::vec((0..N, 0..N), 1..4),
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        for algorithm in [ServiceAlgorithm::Bdj, ServiceAlgorithm::Bsdj] {
            run_script(&edges, &pool, &ops, algorithm);
        }
    }
}

/// The property is not vacuous: on a fixed connected graph, a script of
/// far inserts between repeated queries keeps entries across them (and
/// re-stamps them mid-window), for both finders.
#[test]
fn the_script_keeps_entries_across_inserts() {
    let grid = generate::grid(2, 5, 1..=10, 3);
    let edges = common::edge_list(&grid);
    let ops = [
        Op::Query(0),
        Op::Insert(4, 9, 1),
        Op::Query(0),
        Op::Insert(3, 9, 2),
        Op::Query(0),
        Op::DeleteExisting(0),
        Op::Insert(0, 6, 1),
        Op::Query(0),
    ];
    for algorithm in [ServiceAlgorithm::Bdj, ServiceAlgorithm::Bsdj] {
        assert!(
            run_script(&edges, &[(0, 5)], &ops, algorithm) > 0,
            "{algorithm:?}: no entry was kept across an insert"
        );
    }
}
