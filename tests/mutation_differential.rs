//! Differential test for versioned edge mutations served through the
//! result cache (DESIGN.md §16): a random interleaving of
//! `insert_edge` / `delete_edge` / `query` / `query_batch` against a
//! [`PathService`] must agree with a fresh in-memory Dijkstra over a
//! plain edge-list model after **every** step — across both SQL dialects
//! and both the node-at-a-time (BDJ) and set-at-a-time (BSDJ) finders,
//! on the default (segmented) storage tier, with the cache enabled.
//! Every query is issued twice in a row, so the second answer is served
//! from the cache and a stale entry (including a stale *negative* entry)
//! can never hide. The row tier's SQL mutation path keeps its unit test
//! in `GraphDb`; `segment_differential.rs` is the one cross-tier
//! differential.

use fempath::core::{GraphDbOptions, PathService, PathServiceOptions, ServiceAlgorithm};
use fempath::graph::{generate, Graph};
use fempath::inmem::dijkstra;
use fempath::sql::Dialect;
use proptest::prelude::*;

/// Honour `PROPTEST_CASES` (the CI sweep) without a code change.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One step of the interleaved workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Query(i64, i64),
    Insert(i64, i64, i64),
    Delete(i64, i64),
}

/// Undirected edge list of `g` (one entry per edge, not per arc), the
/// mutable model the oracle graph is rebuilt from after every mutation.
fn edge_model(g: &Graph) -> Vec<(u32, u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..g.num_nodes() as u32 {
        for a in g.out_arcs(u) {
            if u <= a.to {
                edges.push((u, a.to, a.weight));
            }
        }
    }
    edges
}

/// True shortest-path length on the current model.
fn oracle(n: usize, model: &[(u32, u32, u32)], s: i64, t: i64) -> Option<i64> {
    let g = Graph::from_undirected_edges(n, model.iter().copied());
    dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64)
}

/// Runs one op script against a service built with `dialect` /
/// `algorithm`, checking every query (and its immediate cached replay)
/// against the fresh-Dijkstra oracle.
fn run_script(g: &Graph, ops: &[Op], dialect: Dialect, algorithm: ServiceAlgorithm) {
    let n = g.num_nodes();
    let svc = PathService::with_options(
        g,
        &PathServiceOptions {
            workers: 2,
            graphdb: GraphDbOptions {
                dialect,
                ..Default::default()
            },
            algorithm,
            ..Default::default() // cache ON: that is the layer under test
        },
    )
    .unwrap();
    let mut model = edge_model(g);
    let mut version = svc.graph_version();
    for (step, &op) in ops.iter().enumerate() {
        let ctx = format!("step {step} {op:?} ({algorithm:?}, {dialect:?})");
        match op {
            Op::Query(s, t) => {
                let want = oracle(n, &model, s, t);
                let first = svc.query(s, t).unwrap();
                assert_eq!(
                    first.path.as_ref().map(|p| p.length),
                    want,
                    "{ctx}: fresh answer vs Dijkstra"
                );
                // Replay immediately: this is (usually) a cache hit at
                // the same graph version and must be byte-identical —
                // a stale or negative-stale entry would surface here.
                let again = svc.query(s, t).unwrap();
                assert_eq!(
                    again.path.as_ref().map(|p| p.length),
                    want,
                    "{ctx}: cached answer vs Dijkstra"
                );
                // And through the batch front door too.
                let batch = svc.query_batch(&[(s, t)]).unwrap();
                assert_eq!(
                    batch[0].as_ref().map(|p| p.length),
                    want,
                    "{ctx}: batched answer vs Dijkstra"
                );
            }
            Op::Insert(u, v, w) => {
                svc.insert_edge(u, v, w).unwrap();
                model.push((u as u32, v as u32, w as u32));
                let bumped = svc.graph_version();
                assert!(bumped > version, "{ctx}: insert must bump the version");
                version = bumped;
            }
            Op::Delete(u, v) => {
                svc.delete_edge(u, v).unwrap();
                model.retain(|&(a, b, _)| {
                    (a, b) != (u as u32, v as u32) && (a, b) != (v as u32, u as u32)
                });
                let bumped = svc.graph_version();
                assert!(bumped > version, "{ctx}: delete must bump the version");
                version = bumped;
            }
        }
    }
    // The cache really participated: repeated queries produced hits.
    if ops.iter().any(|o| matches!(o, Op::Query(..))) {
        assert!(
            svc.stats().cache.hits > 0,
            "every query was replayed, yet the cache never hit \
             ({algorithm:?}, {dialect:?})"
        );
    }
}

/// Op mix: queries dominate (4/7, s == t included on purpose), inserts
/// over deletes (2/7 vs 1/7). Mutation self-loops are remapped away
/// rather than filtered so the strategy never rejects.
fn op_strategy(n: i64) -> impl Strategy<Value = Op> {
    (0usize..7, 0..n, 0..n, 1i64..20).prop_map(move |(kind, a, b, w)| {
        let b_ne = if a == b { (b + 1) % n } else { b };
        match kind {
            0..=3 => Op::Query(a, b),
            4 | 5 => Op::Insert(a, b_ne, w),
            _ => Op::Delete(a, b_ne),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// The acceptance property: random mutation/query interleavings are
    /// indistinguishable from fresh Dijkstra on the mutated edge list,
    /// for every finder × dialect combination, cache on.
    #[test]
    fn interleaved_mutations_match_fresh_dijkstra(
        seed in 0u64..500,
        ops in prop::collection::vec(op_strategy(16), 1..24),
    ) {
        let g = generate::grid(4, 4, 1..=10, seed);
        for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
            for algorithm in [ServiceAlgorithm::Bdj, ServiceAlgorithm::Bsdj] {
                run_script(&g, &ops, dialect, algorithm);
            }
        }
    }
}

/// Deterministic negative-cache staleness check: an unreachable verdict
/// is cached, a mutation connects the pair (the cached `None` must not
/// survive), and the reverse mutation disconnects it again (the cached
/// path must not survive either). Node `n` starts isolated.
#[test]
fn negative_cache_entries_go_stale_with_the_version() {
    let core = generate::grid(4, 4, 1..=10, 11);
    let n = core.num_nodes(); // node `n` of the enlarged graph is isolated
    let g = Graph::from_undirected_edges(n + 1, edge_model(&core));
    let lonely = n as i64;
    for dialect in [Dialect::DBMS_X, Dialect::POSTGRES] {
        let svc = PathService::with_options(
            &g,
            &PathServiceOptions {
                workers: 2,
                graphdb: GraphDbOptions {
                    dialect,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let ctx = format!("({dialect:?})");
        // Unreachable, twice: the second answer is a negative hit.
        assert!(svc.query(lonely, 0).unwrap().path.is_none(), "{ctx}");
        let before = svc.stats().cache.hits;
        assert!(svc.query(lonely, 0).unwrap().path.is_none(), "{ctx}");
        assert!(
            svc.stats().cache.hits > before,
            "{ctx}: unreachable verdict was not served from the cache"
        );
        // Connect the lonely node straight to node 5.
        svc.insert_edge(lonely, 5, 3).unwrap();
        let want = oracle(
            n + 1,
            &{
                let mut m = edge_model(&core);
                m.push((lonely as u32, 5, 3));
                m
            },
            lonely,
            0,
        );
        assert!(want.is_some(), "{ctx}: grid is connected, so 5 reaches 0");
        let out = svc.query(lonely, 0).unwrap();
        assert_eq!(
            out.path.as_ref().map(|p| p.length),
            want,
            "{ctx}: stale negative-cache entry survived the mutation"
        );
        // Disconnect again: the cached positive path must die too.
        svc.delete_edge(lonely, 5).unwrap();
        assert!(
            svc.query(lonely, 0).unwrap().path.is_none(),
            "{ctx}: stale positive entry survived the delete"
        );
    }
}

/// Interleaved read/mutate stress: client threads hammer a hot pair set
/// through the cache while the main thread publishes mutations. Every
/// answer must be exact for *some* prefix-consistent graph version —
/// verified post-hoc by checking each observed length against the set of
/// oracle distances the mutation schedule ever made true.
#[test]
fn concurrent_readers_survive_mutations() {
    let g = generate::grid(5, 5, 1..=10, 23);
    let n = g.num_nodes();
    let svc = PathService::with_options(
        &g,
        &PathServiceOptions {
            workers: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let pairs = [(0i64, 24i64), (3, 20), (7, 17), (12, 24)];
    // The mutation schedule toggles one shortcut edge; precompute the
    // oracle answer for both graph states.
    let base = edge_model(&g);
    let with_shortcut = {
        let mut m = base.clone();
        m.push((0, 24, 1));
        m
    };
    let mut legal: Vec<Vec<i64>> = Vec::new();
    for &(s, t) in &pairs {
        legal.push(
            [&base, &with_shortcut]
                .iter()
                .filter_map(|m| oracle(n, m, s, t))
                .collect(),
        );
    }
    std::thread::scope(|scope| {
        for _client in 0..3 {
            scope.spawn(|| {
                for round in 0..60 {
                    let (s, t) = pairs[round % pairs.len()];
                    let out = svc.query(s, t).unwrap();
                    let len = out.path.as_ref().map(|p| p.length).unwrap();
                    let idx = round % pairs.len();
                    assert!(
                        legal[idx].contains(&len),
                        "{s}->{t}: length {len} matches no graph state ever \
                         published (legal: {:?})",
                        legal[idx]
                    );
                }
            });
        }
        // Toggle the shortcut while the clients run.
        for _ in 0..10 {
            svc.insert_edge(0, 24, 1).unwrap();
            svc.delete_edge(0, 24).unwrap();
        }
    });
    // After the dust settles the graph is back to its base state and
    // must answer exactly — including through the now-refilled cache.
    for &(s, t) in &pairs {
        let want = oracle(n, &base, s, t);
        for _ in 0..2 {
            assert_eq!(
                svc.query(s, t).unwrap().path.as_ref().map(|p| p.length),
                want,
                "{s}->{t}: post-stress answer diverged from the base graph"
            );
        }
    }
}
