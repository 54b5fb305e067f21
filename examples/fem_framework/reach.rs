//! Reachability queries in the FEM framework.
//!
//! §3.1 opens with reachability as the first example of a graph search
//! query ("reachability query answers whether there exists a path between
//! two given nodes", citing Trißl & Leser's RDB implementation). This
//! module implements it as a [`crate::fem::FemSearch`]: a BFS-style frontier
//! that stops early once the target enters the visited set.

use crate::fem::{run_fem, FemSearch};
use fempath::core::GraphDb;
use fempath::sql::{Database, Result};
use fempath::storage::Value;

struct ReachSearch {
    source: i64,
    target: Option<i64>,
    hit: bool,
}

impl FemSearch for ReachSearch {
    fn init(&mut self, db: &mut Database) -> Result<()> {
        db.execute("DROP TABLE IF EXISTS TReach")?;
        db.execute("CREATE TABLE TReach (nid INT, f INT, PRIMARY KEY(nid))")?;
        db.execute_params(
            "INSERT INTO TReach (nid, f) VALUES (?, 0)",
            &[Value::Int(self.source)],
        )?;
        Ok(())
    }

    fn select_frontier(&mut self, db: &mut Database, _k: u64) -> Result<u64> {
        Ok(db
            .execute("UPDATE TReach SET f = 2 WHERE f = 0")?
            .rows_affected)
    }

    fn expand_and_merge(&mut self, db: &mut Database, _k: u64) -> Result<u64> {
        let n = db
            .execute(
                "MERGE INTO TReach AS target USING ( \
                   SELECT DISTINCT e.tid AS nid FROM TReach q, TEdges e \
                   WHERE q.nid = e.fid AND q.f = 2 \
                 ) AS source (nid) ON source.nid = target.nid \
                 WHEN NOT MATCHED THEN INSERT (nid, f) VALUES (source.nid, 0)",
            )?
            .rows_affected;
        db.execute("UPDATE TReach SET f = 1 WHERE f = 2")?;
        Ok(n)
    }

    fn after_iteration(&mut self, db: &mut Database, _k: u64, affected: u64) -> Result<bool> {
        if let Some(t) = self.target {
            if affected > 0 {
                let rs =
                    db.query_params("SELECT nid FROM TReach WHERE nid = ?", &[Value::Int(t)])?;
                if !rs.is_empty() {
                    self.hit = true;
                    return Ok(false); // early exit
                }
            }
        }
        Ok(true)
    }
}

/// True when `t` is reachable from `s`, computed entirely in SQL.
pub fn reachable(gdb: &mut GraphDb, s: i64, t: i64) -> Result<bool> {
    gdb.check_node(s)?;
    gdb.check_node(t)?;
    if s == t {
        return Ok(true);
    }
    let mut search = ReachSearch {
        source: s,
        target: Some(t),
        hit: false,
    };
    run_fem(&mut gdb.db, &mut search)?;
    let hit = search.hit || {
        let rs = gdb
            .db
            .query_params("SELECT nid FROM TReach WHERE nid = ?", &[Value::Int(t)])?;
        !rs.is_empty()
    };
    gdb.db.execute("DROP TABLE TReach")?;
    Ok(hit)
}

/// Size of the connected component containing `s` (including `s`).
pub fn component_size(gdb: &mut GraphDb, s: i64) -> Result<u64> {
    gdb.check_node(s)?;
    let mut search = ReachSearch {
        source: s,
        target: None,
        hit: false,
    };
    run_fem(&mut gdb.db, &mut search)?;
    let n = gdb.db.table_len("TReach")?;
    gdb.db.execute("DROP TABLE TReach")?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles;
    use fempath::graph::{generate, Graph};

    #[test]
    fn reachability_matches_bfs_oracle() {
        let g = generate::random_graph(120, 1, 1..=10, 3); // sparse: disconnected
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        for (s, t) in [(0u32, 100u32), (5, 50), (7, 8), (0, 0), (99, 1)] {
            let want = oracles::reachable(&g, s, t);
            let got = reachable(&mut gdb, s as i64, t as i64).unwrap();
            assert_eq!(got, want, "{s}->{t}");
        }
    }

    #[test]
    fn component_size_matches_bfs() {
        let g = Graph::from_undirected_edges(
            7,
            vec![(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)],
        );
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        assert_eq!(component_size(&mut gdb, 0).unwrap(), 3);
        assert_eq!(component_size(&mut gdb, 3).unwrap(), 3);
        assert_eq!(component_size(&mut gdb, 6).unwrap(), 1);
    }

    #[test]
    fn early_exit_stops_before_full_component() {
        // Chain graph: reaching a near neighbour must not expand the tail.
        let edges: Vec<(u32, u32, u32)> = (0..199).map(|i| (i, i + 1, 1)).collect();
        let g = Graph::from_undirected_edges(200, edges);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        assert!(reachable(&mut gdb, 0, 3).unwrap());
        // The working table was dropped; a fresh full-component query still
        // works afterwards.
        assert_eq!(component_size(&mut gdb, 0).unwrap(), 200);
    }
}
