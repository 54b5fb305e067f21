//! Edge cases of [`PathService::query_batch`] routed through the
//! version-keyed result cache (DESIGN.md §16): empty inputs, duplicate
//! pairs inside one batch, s == t self-queries, stale misses after a
//! mutation, negative-cache hits for unreachable pairs, and which
//! older entries a mutation leaves answering (only deletes since, none
//! on the cached path). The companion differential test
//! (tests/mutation_differential.rs) covers correctness under
//! interleaving; this file pins the *accounting* — which pairs run a
//! finder and which are answered from the cache.

mod common;

use common::{edge_list, walk_cost};
use fempath::core::{PathService, PathServiceOptions, ServiceStats};
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
/// (jobs executed, hits, revalidated, stale).
fn delta(before: &ServiceStats, after: &ServiceStats) -> (u64, u64, u64, u64) {
    (
        after.total_executed() - before.total_executed(),
        after.cache.hits - before.cache.hits,
        after.cache.revalidated - before.cache.revalidated,
        after.cache.stale - before.cache.stale,
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

/// A mutation strands every resident entry at the old version: the next
/// probe is a stale miss (counted as such), recomputes, and re-caches at
/// the new version.
#[test]
fn mutation_turns_hits_into_stale_misses() {
    let svc = grid_service(2);
    let want = svc.query(0, 15).unwrap().path.map(|p| p.length);
    svc.query(0, 15).unwrap(); // resident + hit
    let before = svc.stats();
    assert!(before.cache.hits >= 1);
    svc.insert_edge(1, 2, 1).unwrap(); // parallel cheap edge, version bump
    let out = svc.query(0, 15).unwrap(); // stale miss: recompute
    let after = svc.stats();
    assert!(
        after.cache.stale > before.cache.stale,
        "the resident entry must be detected as stale, not silently hit"
    );
    assert_eq!(after.graph_version, before.graph_version + 1);
    // The recomputed answer is cached at the new version: next is a hit.
    let hits_mid = after.cache.hits;
    let again = svc.query(0, 15).unwrap();
    assert!(svc.stats().cache.hits > hits_mid, "re-cache at new version");
    assert_eq!(
        again.path.as_ref().map(|p| p.length),
        out.path.as_ref().map(|p| p.length)
    );
    // The shortcut (1 -> 2 at weight 1) can only shorten or preserve.
    if let (Some(w), Some(n)) = (want, out.path.as_ref().map(|p| p.length)) {
        assert!(n <= w, "a parallel weight-1 edge cannot lengthen paths");
    }
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
            (0, 1, 1, 0),
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
    assert_eq!(delta(&before, &svc.stats()), (0, 1, 0, 0));
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
    assert_eq!(delta(&before, &svc.stats()), (1, 0, 0, 1));
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
    assert_eq!(delta(&before, &svc.stats()), (0, 1, 1, 0));
}

/// An insert anywhere in the window since an entry was computed strands
/// it, whether or not it touches the path, whether or not a delete
/// follows, and even when a later delete of the same fresh edge puts
/// the graph back as it was.
#[test]
fn an_insert_in_the_window_strands_the_entry() {
    let g = grid();
    let n = g.num_nodes();
    let svc = service(&g, 2);
    let mut edges = edge_list(&g);
    let p = svc.query(0, 15).unwrap().path.expect("grid is connected");
    let off = *edges
        .iter()
        .find(|e| !has_hop(&p.nodes, i64::from(e.0), i64::from(e.1)))
        .expect("a grid has edges off any path");
    // (0, 5) and (10, 15) are grid diagonals: fresh edges.
    type Step = (&'static str, i64, i64);
    let windows: [&[Step]; 3] = [
        &[("insert", 10, 15)],
        &[("insert", 0, 5), ("delete", 0, 5)],
        &[
            ("delete", i64::from(off.0), i64::from(off.1)),
            ("insert", 0, 5),
        ],
    ];
    for window in windows {
        // The entry is resident at the current version before the window.
        svc.query(0, 15).unwrap();
        svc.query(0, 15).unwrap();
        for &(op, u, v) in window {
            if op == "insert" {
                svc.insert_edge(u, v, 30).unwrap();
                edges.push((u as u32, v as u32, 30));
            } else {
                svc.delete_edge(u, v).unwrap();
                edges.retain(|e| !joins(e, u, v));
            }
        }
        let before = svc.stats();
        let out = svc.query(0, 15).unwrap().path.expect("connected");
        assert_eq!(
            delta(&before, &svc.stats()),
            (1, 0, 0, 1),
            "{window:?}: a stale miss"
        );
        assert_eq!(walk_cost(&edges, &out.nodes), Some(out.length));
        assert_eq!(dijkstra_len(n, &edges, 0, 15), Some(out.length));
    }
}
