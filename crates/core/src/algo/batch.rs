//! Many (s, t) pairs through one single-pair finder (DESIGN.md §8).
//!
//! There is no separate batched FEM search: [`BatchShortestPathFinder`] is
//! implemented once, for every [`ShortestPathFinder`], by looping the
//! finder over the pairs in one session and folding the per-pair
//! measurements. [`crate::PathService::query_batch`] goes one step further
//! and hands each distinct pair to the worker pool as its own job.

use super::{BdjFinder, Path, ShortestPathFinder};
use crate::graphdb::GraphDb;
use crate::stats::QueryStats;
use fempath_sql::Result;

/// Result of a multi-pair query: one entry per input pair (in input order,
/// `None` when unreachable) and the measurements of the whole run.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// `paths[i]` answers `pairs[i]`.
    pub paths: Vec<Option<Path>>,
    /// Per-pair stats summed over the run ([`QueryStats::absorb`]).
    pub stats: QueryStats,
}

/// Answers many (s, t) pairs with one finder over one session.
///
/// Deliberately has no `name()`: every implementor is a
/// [`ShortestPathFinder`], whose `name()` would otherwise be ambiguous.
pub trait BatchShortestPathFinder {
    /// Finds the shortest path for every pair; `paths[i]` answers
    /// `pairs[i]`. Pairs may repeat and may be trivial (`s == t`).
    fn find_paths(&self, gdb: &mut GraphDb, pairs: &[(i64, i64)]) -> Result<BatchOutcome>;
}

impl<F: ShortestPathFinder + ?Sized> BatchShortestPathFinder for F {
    fn find_paths(&self, gdb: &mut GraphDb, pairs: &[(i64, i64)]) -> Result<BatchOutcome> {
        let mut paths = Vec::with_capacity(pairs.len());
        let mut stats = QueryStats::default();
        for &(s, t) in pairs {
            let out = self.find_path(gdb, s, t)?;
            stats.absorb(&out.stats);
            paths.push(out.path);
        }
        Ok(BatchOutcome { paths, stats })
    }
}

/// The former batched bidirectional finder's name, kept for callers
/// outside this workspace that still import it (the `fembench` probes).
/// In-tree code names [`BdjFinder`].
pub type BatchBdjFinder = BdjFinder;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BbfsFinder, BsdjFinder, DjFinder};
    use crate::stats::SqlStyle;
    use fempath_graph::generate;

    fn finders() -> Vec<Box<dyn ShortestPathFinder>> {
        vec![
            Box::new(DjFinder),
            Box::new(BdjFinder::default()),
            Box::new(BsdjFinder::default()),
            Box::new(BsdjFinder {
                style: SqlStyle::Traditional,
                ..Default::default()
            }),
            Box::new(BsdjFinder {
                prune: false,
                ..Default::default()
            }),
            Box::new(BbfsFinder),
        ]
    }

    #[test]
    fn batch_matches_single_query_distances_on_grid() {
        let g = generate::grid(5, 5, 1..=10, 9);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let pairs: Vec<(i64, i64)> = vec![(0, 24), (3, 21), (12, 12), (24, 0), (0, 24)];
        let single = BsdjFinder::default();
        let expected: Vec<Option<i64>> = pairs
            .iter()
            .map(|&(s, t)| {
                single
                    .find_path(&mut gdb, s, t)
                    .unwrap()
                    .path
                    .map(|p| p.length)
            })
            .collect();
        for f in finders() {
            let out = f.find_paths(&mut gdb, &pairs).unwrap();
            let got: Vec<Option<i64>> = out
                .paths
                .iter()
                .map(|p| p.as_ref().map(|p| p.length))
                .collect();
            assert_eq!(got, expected, "{} distances", f.name());
            for (i, p) in out.paths.iter().enumerate() {
                let p = p.as_ref().unwrap();
                assert_eq!(p.nodes.first(), Some(&pairs[i].0), "{} start", f.name());
                assert_eq!(p.nodes.last(), Some(&pairs[i].1), "{} end", f.name());
            }
            // The folded stats cover every non-trivial pair.
            assert!(out.stats.expansions > 0, "{} expansions", f.name());
            assert!(out.stats.visited_nodes > 0, "{} visited_nodes", f.name());
        }
    }

    #[test]
    fn batch_handles_unreachable_and_trivial_pairs() {
        // Two components: 0–1–2 and 3–4; node 5 isolated.
        let g =
            fempath_graph::Graph::from_undirected_edges(6, vec![(0, 1, 2), (1, 2, 3), (3, 4, 1)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let pairs = vec![(0, 2), (0, 4), (5, 5), (2, 5), (3, 4)];
        for f in finders() {
            let out = f.find_paths(&mut gdb, &pairs).unwrap();
            assert_eq!(out.paths[0].as_ref().map(|p| p.length), Some(5));
            assert!(
                out.paths[1].is_none(),
                "{}: 0->4 crosses components",
                f.name()
            );
            assert_eq!(
                out.paths[2].as_ref().map(|p| p.nodes.clone()),
                Some(vec![5]),
                "{}: trivial pair",
                f.name()
            );
            assert!(out.paths[3].is_none(), "{}: isolated target", f.name());
            assert_eq!(out.paths[4].as_ref().map(|p| p.length), Some(1));
        }
    }

    #[test]
    fn batch_rejects_invalid_nodes() {
        let g = generate::grid(2, 2, 1..=10, 1);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        assert!(BdjFinder::default()
            .find_paths(&mut gdb, &[(0, 1), (0, 9)])
            .is_err());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = generate::grid(2, 2, 1..=10, 1);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let out = BdjFinder::default().find_paths(&mut gdb, &[]).unwrap();
        assert!(out.paths.is_empty());
        assert_eq!(out.stats.sql_statements, 0);
    }
}
