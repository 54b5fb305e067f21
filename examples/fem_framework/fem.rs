//! The generic FEM framework (§3.1–§3.2).
//!
//! A graph search in the FEM framework is an iteration of three relational
//! operators over a visited-node table:
//!
//! * **F-operator** — select frontier nodes from the visited nodes,
//! * **E-operator** — expand the frontier against an edge relation,
//! * **M-operator** — merge the expansion back into the visited nodes,
//!
//! plus auxiliary statements (initialization, termination detection, result
//! recovery). The library's shortest-path finders (`fempath::core::algo`)
//! instantiate the pattern with their own frontier policies and loops;
//! [`FemSearch`]/[`run_fem`] write the skeleton down once so *other* graph
//! searches can be built the same way on the public API — [`crate::reach`]
//! (the first example of §3.1) and [`crate::prim`] (the second).

use fempath::sql::{Database, Result};

/// One FEM-style graph search: the three operators plus a continuation
/// test. Implementations keep their own client-side scalars (the paper's
/// `mid`, `minCost`, …) between calls.
pub trait FemSearch {
    /// Initializes the visited-node table (the A¹ set).
    fn init(&mut self, db: &mut Database) -> Result<()>;

    /// F-operator for iteration `k`: selects (marks) frontier nodes and
    /// returns how many were selected. Returning 0 stops the iteration.
    fn select_frontier(&mut self, db: &mut Database, k: u64) -> Result<u64>;

    /// E- and M-operators for iteration `k`: expands the frontier and
    /// merges it into the visited nodes. Returns the number of visited
    /// rows affected (the SQLCA counter of Algorithms 1/2).
    fn expand_and_merge(&mut self, db: &mut Database, k: u64) -> Result<u64>;

    /// Post-iteration hook (termination detection, statistics). Returning
    /// `false` stops the iteration.
    fn after_iteration(&mut self, db: &mut Database, k: u64, affected: u64) -> Result<bool> {
        let _ = (db, k, affected);
        Ok(true)
    }
}

/// Drives a [`FemSearch`] to completion; returns the number of completed
/// iterations.
pub fn run_fem(db: &mut Database, search: &mut impl FemSearch) -> Result<u64> {
    search.init(db)?;
    let mut k = 1u64;
    loop {
        let frontier = search.select_frontier(db, k)?;
        if frontier == 0 {
            return Ok(k - 1);
        }
        let affected = search.expand_and_merge(db, k)?;
        if !search.after_iteration(db, k, affected)? {
            return Ok(k);
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy FEM search: computes hop-reachability from node 0 by marking
    /// and expanding everything each round (BFS).
    struct Reach {
        iterations_seen: u64,
    }

    impl FemSearch for Reach {
        fn init(&mut self, db: &mut Database) -> Result<()> {
            db.execute("DROP TABLE IF EXISTS R")?;
            db.execute("CREATE TABLE R (nid INT, f INT, PRIMARY KEY(nid))")?;
            db.execute("INSERT INTO R VALUES (0, 0)")?;
            Ok(())
        }

        fn select_frontier(&mut self, db: &mut Database, _k: u64) -> Result<u64> {
            Ok(db.execute("UPDATE R SET f = 2 WHERE f = 0")?.rows_affected)
        }

        fn expand_and_merge(&mut self, db: &mut Database, _k: u64) -> Result<u64> {
            let n = db
                .execute(
                    "MERGE INTO R AS target USING ( \
                       SELECT DISTINCT e.tid AS nid FROM R q, TEdges e \
                       WHERE q.nid = e.fid AND q.f = 2 \
                     ) AS source (nid) ON source.nid = target.nid \
                     WHEN NOT MATCHED THEN INSERT (nid, f) VALUES (source.nid, 0)",
                )?
                .rows_affected;
            db.execute("UPDATE R SET f = 1 WHERE f = 2")?;
            Ok(n)
        }

        fn after_iteration(&mut self, _db: &mut Database, k: u64, _affected: u64) -> Result<bool> {
            self.iterations_seen = k;
            Ok(true)
        }
    }

    #[test]
    fn fem_bfs_reaches_component() {
        let g = fempath::graph::Graph::from_undirected_edges(
            6,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (4, 5, 1)],
        );
        let mut db = Database::in_memory(128);
        fempath::graph::load_graph(&mut db, &g, &fempath::graph::LoadOptions::default()).unwrap();
        let mut search = Reach { iterations_seen: 0 };
        let iters = run_fem(&mut db, &mut search).unwrap();
        // Nodes 0..=3 reachable; 4, 5 are in the other component.
        assert_eq!(db.table_len("R").unwrap(), 4);
        assert!(iters >= 3, "needs at least the graph's hop radius");
    }
}
