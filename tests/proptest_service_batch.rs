//! Property test for [`PathService::query_batch`] (DESIGN.md §13): with
//! the result cache off, a batch is exactly a set of single queries —
//! `query_batch(pairs)[i]` has the same `nodes` and `length` as
//! `query(pairs[i])`, in input order, for any worker count, with duplicate,
//! trivial (`s == t`) and unreachable pairs — and the pool executes one job
//! per *distinct* pair, never one per slot.

use fempath::core::{PathService, PathServiceOptions};
use fempath::graph::Graph;
use proptest::prelude::*;
use std::collections::HashSet;

/// Budget: CI sets `PROPTEST_CASES=512`; the local default keeps plain
/// `cargo test` quick. `ProptestConfig::with_cases` overrides the
/// environment, so honour the variable explicitly.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A random graph (duplicates and disconnected components allowed) plus
/// a random batch of in-range query pairs and a worker count.
#[allow(clippy::type_complexity)]
fn arb_case() -> impl Strategy<Value = (Graph, Vec<(i64, i64)>, usize)> {
    (
        6usize..24,
        prop::collection::vec((0u32..24, 0u32..24, 1u32..20), 3..48),
        prop::collection::vec((0u32..24, 0u32..24), 0..33),
        1usize..=8,
    )
        .prop_map(|(n, edges, raw_pairs, workers)| {
            let n = n.max(
                edges
                    .iter()
                    .map(|(u, v, _)| (*u).max(*v) as usize + 1)
                    .max()
                    .unwrap_or(1),
            );
            let g = Graph::from_undirected_edges(n, edges);
            let mut pairs: Vec<(i64, i64)> = raw_pairs
                .into_iter()
                .map(|(s, t)| ((s as usize % n) as i64, (t as usize % n) as i64))
                .collect();
            // Every non-empty batch carries a repeat and a trivial pair.
            if let Some(&p) = pairs.first() {
                pairs.push(p);
                pairs.push((p.1, p.1));
            }
            (g, pairs, workers)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn batch_matches_looped_single_queries((g, pairs, workers) in arb_case()) {
        // Cache off, so every single query below runs a finder too and
        // the job count is the batch's alone.
        let svc = PathService::with_options(&g, &PathServiceOptions {
            workers,
            cache_bytes: 0,
            ..Default::default()
        }).unwrap();
        let batch = svc.query_batch(&pairs).unwrap();
        prop_assert_eq!(batch.len(), pairs.len(), "one answer per input pair");

        let distinct: HashSet<(i64, i64)> = pairs.iter().copied().collect();
        prop_assert_eq!(
            svc.stats().total_executed(),
            distinct.len() as u64,
            "{} pairs ({} distinct) on {} workers",
            pairs.len(), distinct.len(), workers
        );

        for (i, &(s, t)) in pairs.iter().enumerate() {
            let single = svc.query(s, t).unwrap().path;
            prop_assert_eq!(
                &batch[i], &single,
                "pair {} ({}->{}) differs from query() ({} workers)",
                i, s, t, workers
            );
        }
    }
}
