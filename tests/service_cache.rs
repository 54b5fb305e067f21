//! Edge cases of [`PathService::query_batch`] routed through the
//! version-keyed result cache (DESIGN.md §16): empty inputs, duplicate
//! pairs inside one batch, s == t self-queries, negative-cache hits for
//! unreachable pairs, and which older entries a mutation leaves
//! answering: deletes off the cached path, and inserts the entry's
//! certificate proves cannot undercut it, for BDJ and BSDJ through both
//! front doors. The companion differential test
//! (tests/mutation_differential.rs) covers correctness under
//! interleaving; this file pins the *accounting* — which pairs run a
//! finder and which are answered from the cache.

mod common;

use common::{edge_list, walk_cost};
use fempath::core::{Path, PathService, PathServiceOptions, ServiceAlgorithm, ServiceStats};
use fempath::graph::{generate, Graph};
use fempath::inmem::dijkstra;

fn grid() -> Graph {
    generate::grid(4, 4, 1..=10, 7)
}

fn service(g: &Graph, workers: usize) -> PathService {
    PathService::with_options(
        g,
        &PathServiceOptions {
            workers,
            ..Default::default() // cache ON at the default budget
        },
    )
    .unwrap()
}

fn grid_service(workers: usize) -> PathService {
    service(&grid(), workers)
}

/// Whether `(u, v)` is an edge of the list, in either direction.
fn joins(e: &(u32, u32, u32), u: i64, v: i64) -> bool {
    let (a, b) = (i64::from(e.0), i64::from(e.1));
    (a, b) == (u, v) || (a, b) == (v, u)
}

/// Whether `nodes` has a hop between `u` and `v`, in either direction.
fn has_hop(nodes: &[i64], u: i64, v: i64) -> bool {
    nodes
        .windows(2)
        .any(|h| (h[0], h[1]) == (u, v) || (h[0], h[1]) == (v, u))
}

/// Shortest-path length over `edges` by in-memory Dijkstra.
fn dijkstra_len(n: usize, edges: &[(u32, u32, u32)], s: i64, t: i64) -> Option<i64> {
    let g = Graph::from_undirected_edges(n, edges.iter().copied());
    dijkstra::shortest_path(&g, s as u32, t as u32).map(|o| o.distance as i64)
}

/// Counter deltas between two snapshots of the service's stats:
/// (jobs executed, hits, revalidated, stale, insert_kept).
fn delta(before: &ServiceStats, after: &ServiceStats) -> (u64, u64, u64, u64, u64) {
    (
        after.total_executed() - before.total_executed(),
        after.cache.hits - before.cache.hits,
        after.cache.revalidated - before.cache.revalidated,
        after.cache.stale - before.cache.stale,
        after.cache.insert_kept - before.cache.insert_kept,
    )
}

/// An empty pair slice is a no-op: no jobs, no cache traffic.
#[test]
fn empty_batch_runs_nothing() {
    let svc = grid_service(2);
    let out = svc.query_batch(&[]).unwrap();
    assert!(out.is_empty());
    let stats = svc.stats();
    assert_eq!(
        stats.total_executed(),
        0,
        "no worker job for an empty batch"
    );
    assert_eq!(stats.cache.hits + stats.cache.misses, 0, "no cache probe");
}

/// Duplicate pairs in one batch are computed once — the pairs are
/// deduplicated before the cache probe and the dispatch, every caller slot
/// is still filled, and there is no per-duplicate race on insert.
#[test]
fn duplicate_pairs_in_one_batch_are_computed_once() {
    let svc = grid_service(2);
    let pairs = [(0i64, 15i64), (0, 15), (3, 12), (0, 15), (3, 12)];
    let out = svc.query_batch(&pairs).unwrap();
    assert_eq!(out.len(), pairs.len(), "every slot answered");
    for (i, p) in out.iter().enumerate() {
        assert!(p.is_some(), "slot {i}: grid is connected");
    }
    assert_eq!(
        out[0].as_ref().map(|p| p.length),
        out[1].as_ref().map(|p| p.length),
        "duplicate slots must agree"
    );
    let stats = svc.stats();
    // 2 distinct pairs -> exactly 2 jobs and 2 cache probes.
    assert_eq!(stats.total_executed(), 2, "one job per distinct pair");
    assert_eq!(stats.cache.misses, 2, "one probe per distinct pair");
    // Replaying the same batch is now pure cache: zero new jobs.
    let again = svc.query_batch(&pairs).unwrap();
    assert_eq!(again, out);
    let stats = svc.stats();
    assert_eq!(
        stats.total_executed(),
        2,
        "a fully cached batch must not dispatch"
    );
    assert_eq!(stats.cache.hits, 2, "each distinct pair hit once");
}

/// s == t flows through the cache like any other pair and stays exact.
#[test]
fn self_query_through_the_cache() {
    let svc = grid_service(2);
    for _ in 0..2 {
        let out = svc.query_batch(&[(5, 5)]).unwrap();
        let p = out[0].as_ref().expect("s == t is always reachable");
        assert_eq!(p.length, 0);
        assert_eq!(p.nodes, vec![5]);
        let single = svc.query(5, 5).unwrap();
        assert_eq!(single.path.as_ref().map(|p| p.length), Some(0));
    }
    assert!(svc.stats().cache.hits > 0, "the repeat was served cached");
}

/// Unreachable verdicts are cached too (negative cache): the second
/// probe of a disconnected pair is a hit and runs no finder.
#[test]
fn unreachable_pairs_hit_the_negative_cache() {
    // Grid plus one isolated node tacked on the end.
    let core = generate::grid(4, 4, 1..=10, 9);
    let n = core.num_nodes();
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for a in core.out_arcs(u) {
            if u <= a.to {
                edges.push((u, a.to, a.weight));
            }
        }
    }
    let g = Graph::from_undirected_edges(n + 1, edges);
    let svc = PathService::with_options(
        &g,
        &PathServiceOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let lonely = n as i64;
    assert!(svc.query(lonely, 0).unwrap().path.is_none());
    let stats = svc.stats();
    let (executed, hits) = (stats.total_executed(), stats.cache.hits);
    assert!(svc.query(lonely, 0).unwrap().path.is_none());
    let stats = svc.stats();
    assert_eq!(
        stats.total_executed(),
        executed,
        "the cached unreachable verdict must not re-run a finder"
    );
    assert!(stats.cache.hits > hits, "negative entry served as a hit");
}

/// A delete off the cached path cannot change the answer: the older
/// entry is re-stamped and served as a hit, through `query` and
/// `query_batch` alike, and the path it serves is still a shortest walk
/// of the graph without the deleted edge.
#[test]
fn a_delete_off_the_cached_path_keeps_it_answering() {
    let g = grid();
    let n = g.num_nodes();
    let svc = service(&g, 2);
    let mut edges = edge_list(&g);
    let p = svc.query(0, 15).unwrap().path.expect("grid is connected");
    for front_door in ["query", "query_batch"] {
        let (u, v, _) = *edges
            .iter()
            .find(|e| !has_hop(&p.nodes, i64::from(e.0), i64::from(e.1)))
            .expect("a grid has edges off any path");
        let (u, v) = (i64::from(u), i64::from(v));
        svc.delete_edge(u, v).unwrap();
        edges.retain(|e| !joins(e, u, v));
        let before = svc.stats();
        let again = if front_door == "query" {
            svc.query(0, 15).unwrap().path
        } else {
            svc.query_batch(&[(0, 15)]).unwrap().remove(0)
        };
        let again = again.expect("still connected");
        assert_eq!(
            delta(&before, &svc.stats()),
            (0, 1, 1, 0, 0),
            "{front_door}: a revalidated hit, no finder run"
        );
        assert_eq!(again, p, "{front_door}: the same path");
        assert_eq!(
            walk_cost(&edges, &again.nodes),
            Some(again.length),
            "{front_door}: the path is a walk of the new graph"
        );
        assert_eq!(
            dijkstra_len(n, &edges, 0, 15),
            Some(again.length),
            "{front_door}: and still a shortest one"
        );
    }
    // Re-stamped: the next probe is a plain hit at the new version.
    let before = svc.stats();
    svc.query(0, 15).unwrap();
    assert_eq!(delta(&before, &svc.stats()), (0, 1, 0, 0, 0));
}

/// A delete of a hop of the cached path strands the entry: a stale
/// miss, and the recomputed answer is the new graph's shortest path.
#[test]
fn a_delete_on_the_cached_path_is_a_stale_miss() {
    let g = grid();
    let n = g.num_nodes();
    let svc = service(&g, 2);
    let mut edges = edge_list(&g);
    let p = svc.query(0, 15).unwrap().path.expect("grid is connected");
    let mid = p.nodes.len() / 2;
    let (u, v) = (p.nodes[mid - 1], p.nodes[mid]);
    svc.delete_edge(u, v).unwrap();
    edges.retain(|e| !joins(e, u, v));
    let before = svc.stats();
    let out = svc
        .query(0, 15)
        .unwrap()
        .path
        .expect("a grid minus one edge");
    assert_eq!(delta(&before, &svc.stats()), (1, 0, 0, 1, 0));
    assert!(!has_hop(&out.nodes, u, v), "the deleted hop is gone");
    assert_eq!(walk_cost(&edges, &out.nodes), Some(out.length));
    assert_eq!(dijkstra_len(n, &edges, 0, 15), Some(out.length));
}

/// An unreachable verdict survives any delete: removing edges cannot
/// connect a pair.
#[test]
fn an_unreachable_verdict_survives_a_delete() {
    let core = grid();
    let n = core.num_nodes();
    let g = Graph::from_undirected_edges(n + 1, edge_list(&core));
    let svc = service(&g, 2);
    let lonely = n as i64;
    assert!(svc.query(lonely, 0).unwrap().path.is_none());
    svc.delete_edge(0, 1).unwrap();
    let before = svc.stats();
    assert!(svc.query(lonely, 0).unwrap().path.is_none());
    assert_eq!(delta(&before, &svc.stats()), (0, 1, 1, 0, 0));
}

/// The front door a query goes through.
#[derive(Debug, Clone, Copy)]
enum Door {
    Query,
    Batch,
}

/// Every finder the insert rule serves, through both front doors.
fn finders_and_doors() -> impl Iterator<Item = (ServiceAlgorithm, Door)> {
    [ServiceAlgorithm::Bdj, ServiceAlgorithm::Bsdj]
        .into_iter()
        .flat_map(|a| [(a, Door::Query), (a, Door::Batch)])
}

fn finder_service(g: &Graph, algorithm: ServiceAlgorithm) -> PathService {
    PathService::with_options(
        g,
        &PathServiceOptions {
            workers: 2,
            algorithm,
            ..Default::default() // cache ON at the default budget
        },
    )
    .unwrap()
}

fn ask(svc: &PathService, door: Door, s: i64, t: i64) -> Option<Path> {
    match door {
        Door::Query => svc.query(s, t).unwrap().path,
        Door::Batch => svc.query_batch(&[(s, t)]).unwrap().remove(0),
    }
}

/// Asserts that `got` is the shortest `s → t` answer over `edges`: the
/// oracle's length, and a walk of that graph costing it.
fn assert_exact(
    n: usize,
    edges: &[(u32, u32, u32)],
    s: i64,
    t: i64,
    got: &Option<Path>,
    ctx: &str,
) {
    assert_eq!(
        got.as_ref().map(|p| p.length),
        dijkstra_len(n, edges, s, t),
        "{ctx}: length vs Dijkstra"
    );
    if let Some(p) = got {
        assert_eq!(walk_cost(edges, &p.nodes), Some(p.length), "{ctx}: a walk");
    }
}

/// A 6×6 grid, and pair (0, 7) — two corners of one cell — whose two
/// search balls stay in the grid's first rows.
fn six_by_six() -> Graph {
    generate::grid(6, 6, 1..=10, 7)
}

/// An insert far from both search balls keeps the entry: a revalidated
/// hit counted in `insert_kept`, the same path, still exact, and plain
/// hits after the re-stamp. A delete off the path in the same window
/// does not change that.
#[test]
fn an_insert_far_from_both_balls_keeps_the_entry() {
    let g = six_by_six();
    let n = g.num_nodes();
    for (algorithm, door) in finders_and_doors() {
        let ctx = format!("{algorithm:?} via {door:?}");
        let svc = finder_service(&g, algorithm);
        let mut edges = edge_list(&g);
        let p = ask(&svc, door, 0, 7).expect("grid is connected");
        // (28, 35) is a diagonal in the far corner: a fresh edge.
        svc.insert_edge(28, 35, 1).unwrap();
        edges.push((28, 35, 1));
        let before = svc.stats();
        let again = ask(&svc, door, 0, 7);
        assert_eq!(
            delta(&before, &svc.stats()),
            (0, 1, 1, 0, 1),
            "{ctx}: kept across the insert"
        );
        assert_eq!(again.as_ref(), Some(&p), "{ctx}: the same path");
        assert_exact(n, &edges, 0, 7, &again, &ctx);
        // A window of a delete off the path and another far insert.
        let (u, v, _) = *edges
            .iter()
            .find(|e| !has_hop(&p.nodes, i64::from(e.0), i64::from(e.1)) && e.0 > 20)
            .expect("edges far from the path");
        svc.delete_edge(i64::from(u), i64::from(v)).unwrap();
        edges.retain(|e| !joins(e, i64::from(u), i64::from(v)));
        svc.insert_edge(29, 34, 1).unwrap();
        edges.push((29, 34, 1));
        let before = svc.stats();
        let again = ask(&svc, door, 0, 7);
        assert_eq!(delta(&before, &svc.stats()), (0, 1, 1, 0, 1), "{ctx}");
        assert_exact(n, &edges, 0, 7, &again, &ctx);
        // Re-stamped: a plain hit at the new version.
        let before = svc.stats();
        ask(&svc, door, 0, 7);
        assert_eq!(delta(&before, &svc.stats()), (0, 1, 0, 0, 0), "{ctx}");
    }
}

/// A shortcut insert strands the entry: a stale miss, and the answer
/// recomputed — and cached at the new version — is the new graph's
/// shortest path.
#[test]
fn a_shortcut_insert_strands_the_entry_and_the_answer_is_recomputed() {
    let g = six_by_six();
    let n = g.num_nodes();
    for (algorithm, door) in finders_and_doors() {
        let ctx = format!("{algorithm:?} via {door:?}");
        let svc = finder_service(&g, algorithm);
        let mut edges = edge_list(&g);
        let old = ask(&svc, door, 0, 7).expect("grid is connected").length;
        assert!(old > 1, "{ctx}: two grid hops cost at least 2");
        // (0, 7) is the cell's diagonal: a fresh weight-1 edge beats it.
        svc.insert_edge(0, 7, 1).unwrap();
        edges.push((0, 7, 1));
        let before = svc.stats();
        let out = ask(&svc, door, 0, 7);
        assert_eq!(
            delta(&before, &svc.stats()),
            (1, 0, 0, 1, 0),
            "{ctx}: a stale miss"
        );
        assert_eq!(out.as_ref().map(|p| p.length), Some(1), "{ctx}");
        assert_exact(n, &edges, 0, 7, &out, &ctx);
        let before = svc.stats();
        assert_eq!(ask(&svc, door, 0, 7), out, "{ctx}");
        assert_eq!(
            delta(&before, &svc.stats()),
            (0, 1, 0, 0, 0),
            "{ctx}: re-cached at the new version"
        );
    }
}

/// Two inserts through a node `m` that no edge reaches: each alone
/// leaves `m` a dead end, together they are a path `0 → m → 35` one
/// cheaper than the cached one. The first is kept — `m`'s bounds are
/// the certificate's floors, which `c - 2` bridges — and a query
/// re-stamps the entry between the two; the second strands it, and the
/// recomputed answer takes the new path.
#[test]
fn two_inserts_harmless_alone_form_a_shortcut_together_across_a_restamp() {
    let core = six_by_six();
    let m = core.num_nodes() as i64;
    let n = core.num_nodes() + 1;
    let g = Graph::from_undirected_edges(n, edge_list(&core));
    for (algorithm, door) in finders_and_doors() {
        let ctx = format!("{algorithm:?} via {door:?}");
        let svc = finder_service(&g, algorithm);
        let mut edges = edge_list(&g);
        let first = svc.query(0, 35).unwrap();
        let c = first.path.as_ref().expect("grid is connected").length;
        let cert = first.certificate.expect("a BDJ or BSDJ miss carries one");
        assert!(
            cert.to_target(m) >= 2 && cert.from_source(m) >= 2,
            "{ctx}: m lies outside both balls"
        );
        svc.insert_edge(0, m, c - 2).unwrap();
        edges.push((0, m as u32, (c - 2) as u32));
        let before = svc.stats();
        let kept = ask(&svc, door, 0, 35);
        assert_eq!(
            delta(&before, &svc.stats()),
            (0, 1, 1, 0, 1),
            "{ctx}: the first insert alone is kept (and re-stamped)"
        );
        assert_exact(n, &edges, 0, 35, &kept, &ctx);
        svc.insert_edge(m, 35, 1).unwrap();
        edges.push((m as u32, 35, 1));
        let before = svc.stats();
        let out = ask(&svc, door, 0, 35);
        assert_eq!(
            delta(&before, &svc.stats()),
            (1, 0, 0, 1, 0),
            "{ctx}: the second strands it"
        );
        assert_eq!(out.as_ref().map(|p| p.length), Some(c - 1), "{ctx}");
        assert_eq!(
            out.as_ref().map(|p| p.nodes.as_slice()),
            Some(&[0, m, 35][..])
        );
        assert_exact(n, &edges, 0, 35, &out, &ctx);
    }
}

/// An unreachable verdict outlives inserts that touch neither
/// endpoint's component, and goes stale once an insert bridges the two.
#[test]
fn an_unreachable_pair_bridged_by_an_insert_goes_stale() {
    let core = six_by_six();
    let lonely = core.num_nodes() as i64;
    let n = core.num_nodes() + 1;
    let g = Graph::from_undirected_edges(n, edge_list(&core));
    for (algorithm, door) in finders_and_doors() {
        let ctx = format!("{algorithm:?} via {door:?}");
        let svc = finder_service(&g, algorithm);
        let mut edges = edge_list(&g);
        assert!(ask(&svc, door, lonely, 0).is_none(), "{ctx}");
        svc.insert_edge(28, 35, 1).unwrap();
        edges.push((28, 35, 1));
        let before = svc.stats();
        assert!(ask(&svc, door, lonely, 0).is_none(), "{ctx}");
        assert_eq!(
            delta(&before, &svc.stats()),
            (0, 1, 1, 0, 1),
            "{ctx}: an insert inside the grid cannot reach the lonely node"
        );
        svc.insert_edge(lonely, 5, 3).unwrap();
        edges.push((lonely as u32, 5, 3));
        let before = svc.stats();
        let out = ask(&svc, door, lonely, 0);
        assert_eq!(
            delta(&before, &svc.stats()),
            (1, 0, 0, 1, 0),
            "{ctx}: the bridge strands the verdict"
        );
        assert!(out.is_some(), "{ctx}: now reachable");
        assert_exact(n, &edges, lonely, 0, &out, &ctx);
    }
}
