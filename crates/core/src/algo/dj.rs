//! **DJ** — the single-directional relational Dijkstra of Algorithm 1.
//!
//! Node-at-a-time: each iteration issues Listing 2(2) to find the next node
//! `mid`, the Listing 2(3)/(4) expansion with `q.nid = mid`, the finalize
//! statement of Listing 3(2), and the termination probe of Listing 3(1).
//! The paper runs this only up to 20 K nodes (Table 2: ">600 s" beyond) —
//! node-at-a-time evaluation is the point being criticised.

use super::{
    seeded_ceiling, trivial_case, walk_links, Expansion, Path, PathOutcome, Runner,
    ShortestPathFinder, Stmt,
};
use crate::graphdb::GraphDb;
use crate::sqlgen::{expand_params, Dir, EdgeSource, FrontierPred, SqlGen};
use crate::stats::{FemOperator, Phase, SqlStyle};
use fempath_sql::Result;
use fempath_storage::Value;

/// The DJ finder (Algorithm 1): NSQL statements, pruned by the landmark
/// upper bound when an index exists (a no-op without one).
#[derive(Debug, Clone, Copy, Default)]
pub struct DjFinder;

impl ShortestPathFinder for DjFinder {
    fn name(&self) -> &'static str {
        "DJ"
    }

    fn find_path(&self, gdb: &mut GraphDb, s: i64, t: i64) -> Result<PathOutcome> {
        if let Some(out) = trivial_case(gdb, s, t)? {
            return Ok(out);
        }
        let bound = seeded_ceiling(gdb, s, t, true)?;
        let mode = gdb.reset_search(SqlStyle::New, false)?;
        let gen = SqlGen::new(Dir::Fwd, EdgeSource::Edges, SqlStyle::New);

        // Prepare the statement set once; the loop executes handles only.
        let db = &mut gdb.db;
        let (pe, sc, fpr) = (
            Phase::PathExpansion,
            Phase::StatsCollection,
            Phase::FullPathRecovery,
        );
        let init = Stmt::prepare(db, &SqlGen::init(Dir::Fwd), pe, FemOperator::Aux)?;
        let select_mid = Stmt::prepare(db, &gen.select_mid(), sc, FemOperator::F)?;
        let expansion = Expansion::prepare(db, &gen, FrontierPred::ByNid, mode)?;
        let settle = Stmt::prepare(db, &gen.settle_by_nid(), pe, FemOperator::F)?;
        let settled = Stmt::prepare(db, &gen.settled(), sc, FemOperator::Aux)?;
        let dist_of = Stmt::prepare(db, &gen.dist_of(), fpr, FemOperator::Aux)?;
        let pred_of = Stmt::prepare(db, &gen.pred_of(), fpr, FemOperator::Aux)?;

        let mut runner = Runner::new(gdb);
        runner.exec(&init, &[Value::Int(s), Value::Int(s)])?;

        let mut found = false;
        // Listing 2(2) locates the node to finalize; no candidate left means
        // the target is unreachable.
        while let Some(mid) = runner.scalar(&select_mid, &[])? {
            // E + M operators with `q.nid = mid` (Listing 2(3)/(4)).
            let params = expand_params(SqlStyle::New, FrontierPred::ByNid, Some(mid), 0, bound)?;
            expansion.run(&mut runner, &params)?;
            // Listing 3(2): finalize `mid`.
            runner.exec(&settle, &[Value::Int(mid)])?;
            // Listing 3(1): has the target been finalized?
            if mid == t {
                found = true;
                break;
            }
            let probe = runner.exec(&settled, &[Value::Int(t)])?;
            if probe.rows.map(|r| !r.is_empty()).unwrap_or(false) {
                found = true;
                break;
            }
        }

        let path = if found {
            let length = runner.scalar(&dist_of, &[Value::Int(t)])?.ok_or_else(|| {
                fempath_sql::SqlError::Eval("settled target has no distance row".into())
            })?;
            let node_limit = runner.gdb.num_nodes() + 1;
            let mut nodes = walk_links(&mut runner, &pred_of, t, s, node_limit)?;
            nodes.reverse();
            nodes.push(t);
            Some(Path { nodes, length })
        } else {
            None
        };
        runner.finish(path)
    }
}
