//! Prim's minimal spanning tree in the FEM framework.
//!
//! §3.1 of the paper sketches exactly this: visited nodes carry
//! `(p2s, w, f)` — the tentative parent, the connecting edge weight, and
//! the in-tree flag — and each iteration selects the cheapest non-tree
//! node, finalizes it, and relaxes its neighbours. Implemented over
//! [`crate::fem::FemSearch`] to demonstrate that the framework generalizes
//! beyond shortest paths.

use crate::fem::{run_fem, FemSearch};
use fempath::core::GraphDb;
use fempath::sql::{Database, Result, SqlError};
use fempath::storage::Value;

/// Result of the relational Prim run.
#[derive(Debug, Clone)]
pub struct MstResult {
    /// Tree edges `(node, parent, weight)`, one per non-root node of the
    /// start node's component.
    pub edges: Vec<(i64, i64, i64)>,
    /// Sum of tree edge weights.
    pub total_weight: i64,
    /// FEM iterations (= nodes added to the tree).
    pub iterations: u64,
}

struct PrimSearch {
    start: i64,
    mid: Option<i64>,
}

impl FemSearch for PrimSearch {
    fn init(&mut self, db: &mut Database) -> Result<()> {
        db.execute("DROP TABLE IF EXISTS TMst")?;
        db.execute("CREATE TABLE TMst (nid INT, w INT, p2s INT, f INT, PRIMARY KEY(nid))")?;
        db.execute_params(
            "INSERT INTO TMst (nid, w, p2s, f) VALUES (?, 0, -1, 0)",
            &[Value::Int(self.start)],
        )?;
        Ok(())
    }

    fn select_frontier(&mut self, db: &mut Database, _k: u64) -> Result<u64> {
        // The non-tree node with the cheapest connecting edge.
        let rs = db.query(
            "SELECT TOP 1 nid FROM TMst WHERE f = 0 \
             AND w = (SELECT MIN(w) FROM TMst WHERE f = 0)",
        )?;
        match rs.scalar_i64() {
            Some(mid) => {
                self.mid = Some(mid);
                // Finalize immediately: the selected node joins the tree.
                db.execute_params("UPDATE TMst SET f = 1 WHERE nid = ?", &[Value::Int(mid)])?;
                Ok(1)
            }
            None => {
                self.mid = None;
                Ok(0)
            }
        }
    }

    fn expand_and_merge(&mut self, db: &mut Database, _k: u64) -> Result<u64> {
        let mid = self.mid.ok_or_else(|| {
            SqlError::Eval("expand_and_merge called without a selected frontier node".into())
        })?;
        // Relax the neighbours of the newly added node. Unlike shortest
        // paths, the comparison key is the single edge weight.
        Ok(db
            .execute_params(
                "MERGE INTO TMst AS target USING ( \
                   SELECT nid, np, w FROM ( \
                     SELECT e.tid AS nid, e.fid AS np, e.cost AS w, \
                            ROW_NUMBER() OVER (PARTITION BY e.tid ORDER BY e.cost) AS rn \
                     FROM TEdges e WHERE e.fid = ? \
                   ) tmp WHERE rn = 1 \
                 ) AS source (nid, np, w) ON source.nid = target.nid \
                 WHEN MATCHED AND target.f = 0 AND target.w > source.w THEN \
                   UPDATE SET w = source.w, p2s = source.np \
                 WHEN NOT MATCHED THEN \
                   INSERT (nid, w, p2s, f) VALUES (source.nid, source.w, source.np, 0)",
                &[Value::Int(mid)],
            )?
            .rows_affected)
    }
}

/// Computes the MST of the component containing `start`, entirely in SQL.
pub fn prim_mst(gdb: &mut GraphDb, start: i64) -> Result<MstResult> {
    gdb.check_node(start)?;
    let mut search = PrimSearch { start, mid: None };
    let iterations = run_fem(&mut gdb.db, &mut search)?;
    let rs = gdb
        .db
        .query("SELECT nid, p2s, w FROM TMst WHERE p2s >= 0 AND f = 1")?;
    let mut edges = Vec::with_capacity(rs.len());
    let mut total = 0i64;
    for row in &rs.rows {
        let col = |i: usize| {
            row[i]
                .as_i64()
                .ok_or_else(|| SqlError::Eval("TMst holds non-integer columns".into()))
        };
        let (n, p, w) = (col(0)?, col(1)?, col(2)?);
        edges.push((n, p, w));
        total += w;
    }
    gdb.db.execute("DROP TABLE TMst")?;
    Ok(MstResult {
        edges,
        total_weight: total,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles;
    use fempath::graph::generate;

    #[test]
    fn relational_prim_matches_in_memory_prim() {
        let g = generate::power_law(200, 2, 1..=50, 111);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let rel = prim_mst(&mut gdb, 0).unwrap();
        let (edges, total) = oracles::prim(&g);
        assert_eq!(rel.edges.len(), edges.len());
        assert_eq!(rel.total_weight as u64, total);
    }

    #[test]
    fn mst_pipeline() {
        let g = generate::random_graph(150, 4, 1..=30, 17);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let rel = prim_mst(&mut gdb, 0).unwrap();
        let (edges, total) = oracles::prim(&g);
        assert_eq!(rel.total_weight as u64, total);
        assert_eq!(rel.edges.len(), edges.len());
        assert_eq!(rel.iterations as usize, edges.len() + 1);
    }
}
