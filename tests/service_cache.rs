//! Edge cases of [`PathService::query_batch`] routed through the
//! version-keyed result cache (DESIGN.md §16): empty inputs, duplicate
//! pairs inside one batch, s == t self-queries, stale misses after a
//! mutation and negative-cache hits for unreachable pairs. The
//! companion differential test (tests/mutation_differential.rs) covers
//! correctness under interleaving; this file pins the *accounting* —
//! which pairs run a finder and which are answered from the cache.

use fempath::core::{PathService, PathServiceOptions};
use fempath::graph::{generate, Graph};

fn grid_service(workers: usize) -> PathService {
    let g = generate::grid(4, 4, 1..=10, 7);
    PathService::with_options(
        &g,
        &PathServiceOptions {
            workers,
            ..Default::default() // cache ON at the default budget
        },
    )
    .unwrap()
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
