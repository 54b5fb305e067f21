//! Differential test for versioned edge mutations served through the
//! result cache (DESIGN.md §16): a random interleaving of
//! `insert_edge` / `delete_edge` / `query` / `query_batch` against a
//! [`PathService`] must agree with a fresh in-memory Dijkstra over a
//! plain edge-list model after **every** step — across both SQL dialects
//! and both the node-at-a-time (BDJ) and set-at-a-time (BSDJ) finders,
//! on the default (segmented) storage tier, with the cache enabled.
//! Every query is issued twice in a row, so the second answer is served
//! from the cache and a stale entry (including a stale *negative* entry)
//! can never hide, and the previous query's pair is asked again after
//! every mutation, so the entries a delete leaves answering are served.
//! Every returned path is checked to be a walk of the current edge list
//! whose cheapest hop weights sum to its length: a kept path that
//! crosses a deleted edge has the right length but is no walk. The row
//! tier's SQL mutation path keeps its unit test
//! in `GraphDb`; `segment_differential.rs` is the one cross-tier
//! differential.

mod common;

use common::{edge_list, walk_cost};
use fempath::core::{GraphDbOptions, Path, PathService, PathServiceOptions, ServiceAlgorithm};
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
    /// Delete hop `k` (mod its hop count) of the last answered path —
    /// the delete that must strand that pair's cache entry — or the
    /// edge `(a, b)` when there is no such hop.
    DeleteHop(usize, i64, i64),
}

/// True shortest-path length on the current model.
fn oracle(n: usize, model: &[(u32, u32, u32)], s: i64, t: i64) -> Option<i64> {
    let g = Graph::from_undirected_edges(n, model.iter().copied());
    dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64)
}

/// Asserts that `got` answers `pair` on the current model: `None`
/// exactly when the oracle says unreachable, else a walk between the
/// pair's ends whose cost over the model is its length and the oracle's
/// distance.
fn check_answer(
    model: &[(u32, u32, u32)],
    want: Option<i64>,
    pair: (i64, i64),
    got: &Option<Path>,
    ctx: &str,
) {
    assert_eq!(
        got.as_ref().map(|p| p.length),
        want,
        "{ctx}: length vs Dijkstra"
    );
    if let Some(p) = got {
        assert_eq!(
            (p.nodes.first(), p.nodes.last()),
            (Some(&pair.0), Some(&pair.1)),
            "{ctx}: path ends"
        );
        assert_eq!(
            walk_cost(model, &p.nodes),
            Some(p.length),
            "{ctx}: {:?} is not a walk of the current graph costing its length",
            p.nodes
        );
    }
}

/// Queries `s → t` fresh, then again (usually a cache hit at the same
/// version), then through the batch front door, checking all three.
/// Returns the fresh answer's node list (empty when unreachable).
fn check_pair(
    svc: &PathService,
    n: usize,
    model: &[(u32, u32, u32)],
    (s, t): (i64, i64),
    ctx: &str,
) -> Vec<i64> {
    let want = oracle(n, model, s, t);
    let first = svc.query(s, t).unwrap().path;
    check_answer(model, want, (s, t), &first, &format!("{ctx}: fresh answer"));
    let again = svc.query(s, t).unwrap().path;
    check_answer(
        model,
        want,
        (s, t),
        &again,
        &format!("{ctx}: replayed answer"),
    );
    let batch = svc.query_batch(&[(s, t)]).unwrap();
    check_answer(
        model,
        want,
        (s, t),
        &batch[0],
        &format!("{ctx}: batched answer"),
    );
    first.map_or_else(Vec::new, |p| p.nodes)
}

/// Runs one op script against a service built with `dialect` /
/// `algorithm`, checking every query (its immediate cached replay and
/// its batched form) against the fresh-Dijkstra oracle, and asking the
/// previous query's pair again after every mutation.
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
    let mut model = edge_list(g);
    let mut version = svc.graph_version();
    let mut last: Option<((i64, i64), Vec<i64>)> = None;
    for (step, &op) in ops.iter().enumerate() {
        let ctx = format!("step {step} {op:?} ({algorithm:?}, {dialect:?})");
        let (u, v) = match op {
            Op::Query(s, t) => {
                last = Some(((s, t), check_pair(&svc, n, &model, (s, t), &ctx)));
                continue;
            }
            Op::Insert(u, v, w) => {
                svc.insert_edge(u, v, w).unwrap();
                model.push((u as u32, v as u32, w as u32));
                (u, v)
            }
            Op::Delete(a, b) | Op::DeleteHop(_, a, b) => {
                let (u, v) = match (op, &last) {
                    (Op::DeleteHop(k, ..), Some((_, nodes))) if nodes.len() > 1 => {
                        let i = k % (nodes.len() - 1);
                        (nodes[i], nodes[i + 1])
                    }
                    _ => (a, b),
                };
                svc.delete_edge(u, v).unwrap();
                model.retain(|&(a, b, _)| {
                    (a, b) != (u as u32, v as u32) && (a, b) != (v as u32, u as u32)
                });
                (u, v)
            }
        };
        let bumped = svc.graph_version();
        assert!(
            bumped > version,
            "{ctx}: mutating ({u}, {v}) must bump the version"
        );
        version = bumped;
        // The pair cached just before this mutation: a delete off its
        // path leaves the entry answering, anything else strands it.
        if let Some((pair, nodes)) = &mut last {
            *nodes = check_pair(
                &svc,
                n,
                &model,
                *pair,
                &format!("{ctx}, then the last pair"),
            );
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

/// Op mix: queries dominate (4/8, s == t included on purpose), inserts
/// over deletes (2/8 vs 1/8 of `(a, b)` and 1/8 of a hop of the last
/// answer). Mutation self-loops are remapped away rather than filtered
/// so the strategy never rejects.
fn op_strategy(n: i64) -> impl Strategy<Value = Op> {
    (0usize..8, 0..n, 0..n, 1i64..20).prop_map(move |(kind, a, b, w)| {
        let b_ne = if a == b { (b + 1) % n } else { b };
        match kind {
            0..=3 => Op::Query(a, b),
            4 | 5 => Op::Insert(a, b_ne, w),
            6 => Op::Delete(a, b_ne),
            _ => Op::DeleteHop(w as usize, a, b_ne),
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
    let g = Graph::from_undirected_edges(n + 1, edge_list(&core));
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
                let mut m = edge_list(&core);
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
    let base = edge_list(&g);
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
