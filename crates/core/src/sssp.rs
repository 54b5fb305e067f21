//! Single-source shortest paths in the FEM framework.
//!
//! A forward-only set-Dijkstra (§4.1's frontier policy without the
//! backward search or early termination): each iteration settles *all*
//! candidates at the minimal distance until the reachable component is
//! exhausted. Returns the full distance/parent table — the building block
//! for landmark-style estimators the paper cites (\[19\], \[2\]).

use crate::graphdb::{GraphDb, INF, NO_NODE};
use crate::sqlgen::{expand_params, Dir, EdgeSource, FrontierPred, SqlGen};
use crate::stats::{FemOperator, SqlStyle};
use fempath_sql::{Result, SqlError};
use fempath_storage::Value;

/// One settled node of an SSSP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsspEntry {
    pub node: i64,
    pub distance: i64,
    /// Predecessor on a shortest path (`-1` for the source itself).
    pub parent: i64,
}

/// Result of a single-source run.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// Settled nodes (the source's component), unordered.
    pub entries: Vec<SsspEntry>,
    /// Set-at-a-time iterations used.
    pub iterations: u64,
}

/// Computes shortest distances from `s` to every reachable node, entirely
/// in SQL (forward set-Dijkstra over the FEM operators).
pub fn single_source(gdb: &mut GraphDb, s: i64) -> Result<SsspResult> {
    gdb.check_node(s)?;
    let mode = gdb.reset_search(SqlStyle::New, false)?;
    let gen = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);
    let expansion = gen.expansion(FrontierPred::Marked, mode);
    let params = expand_params(SqlStyle::New, FrontierPred::Marked, None, 0, INF)?;
    gdb.db
        .execute_params(&SqlGen::init(Dir::Fwd), &[Value::Int(s), Value::Int(s)])?;

    let mut l = 0i64; // current candidate minimum (see bidi.rs invariant)
    let mut iterations = 0u64;
    let max_iters = 2 * gdb.num_nodes() as u64 + 16;
    loop {
        if l >= INF {
            break;
        }
        let marked = gdb
            .db
            .execute_params(&gen.mark_by_dist(), &[Value::Int(l)])?
            .rows_affected;
        if marked == 0 {
            break;
        }
        for (op, sql) in &expansion {
            let params: &[Value] = if *op == FemOperator::E { &params } else { &[] };
            gdb.db.execute_params(sql, params)?;
        }
        gdb.db.execute(&gen.reset_frontier())?;
        l = gdb
            .db
            .query(&gen.min_candidate())?
            .scalar_i64()
            .unwrap_or(INF);
        iterations += 1;
        if iterations > max_iters {
            return Err(SqlError::Eval(
                "SSSP exceeded its iteration bound — likely a bug".into(),
            ));
        }
    }

    let rs = gdb
        .db
        .query("SELECT nid, d2s, p2s FROM TVisited WHERE d2s < 4000000000000000")?;
    let entries = rs
        .rows
        .into_iter()
        .map(|r| {
            let node = r[0].as_i64().unwrap_or(NO_NODE);
            let distance = r[1].as_i64().unwrap_or(INF);
            let parent = r[2].as_i64().unwrap_or(NO_NODE);
            SsspEntry {
                node,
                distance,
                parent: if node == s { NO_NODE } else { parent },
            }
        })
        .collect();
    Ok(SsspResult {
        entries,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fempath_graph::{generate, Graph};
    use fempath_inmem::dijkstra;
    use fempath_sql::Dialect;

    fn check_against_oracle(g: &Graph, gdb: &mut GraphDb, s: i64) {
        let res = single_source(gdb, s).unwrap();
        let oracle = dijkstra::distances_from(g, s as u32);
        let reachable = oracle.iter().filter(|&&d| d != u64::MAX).count();
        assert_eq!(res.entries.len(), reachable, "component size");
        for e in &res.entries {
            assert_eq!(
                e.distance as u64, oracle[e.node as usize],
                "distance of node {}",
                e.node
            );
            if e.node != s {
                // Parent is a real shortest-path predecessor.
                let via = oracle[e.parent as usize]
                    + g.out_arcs(e.parent as u32)
                        .iter()
                        .filter(|a| a.to == e.node as u32)
                        .map(|a| a.weight as u64)
                        .min()
                        .expect("parent edge exists");
                assert_eq!(via, e.distance as u64, "parent chain of {}", e.node);
            }
        }
    }

    #[test]
    fn sssp_matches_oracle_on_power_law() {
        let g = generate::power_law(300, 3, 1..=100, 5);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        check_against_oracle(&g, &mut gdb, 0);
        check_against_oracle(&g, &mut gdb, 123);
    }

    #[test]
    fn sssp_on_disconnected_graph_covers_only_component() {
        let g = Graph::from_undirected_edges(6, vec![(0, 1, 3), (1, 2, 4), (3, 4, 1)]);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let res = single_source(&mut gdb, 0).unwrap();
        let mut nodes: Vec<i64> = res.entries.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
        check_against_oracle(&g, &mut gdb, 3);
    }

    #[test]
    fn sssp_works_without_merge_dialect() {
        let g = generate::grid(6, 6, 1..=10, 7);
        let mut gdb = GraphDb::new(
            &g,
            &crate::graphdb::GraphDbOptions {
                dialect: Dialect::POSTGRES,
                ..Default::default()
            },
        )
        .unwrap();
        check_against_oracle(&g, &mut gdb, 0);
    }

    #[test]
    fn iteration_count_respects_set_at_a_time_bound() {
        // Theorem 2's analysis: iterations <= max distance / wmin.
        let g = generate::grid(5, 5, 2..=10, 9);
        let mut gdb = GraphDb::in_memory(&g).unwrap();
        let res = single_source(&mut gdb, 0).unwrap();
        let max_d = res.entries.iter().map(|e| e.distance).max().unwrap();
        assert!(
            res.iterations <= (max_d / gdb.min_weight() as i64) as u64 + 2,
            "{} iterations vs bound {}",
            res.iterations,
            max_d / gdb.min_weight() as i64 + 2
        );
    }
}
