//! **DJ** — the single-directional relational Dijkstra of Algorithm 1.
//!
//! Node-at-a-time: each iteration issues Listing 2(2) to find the next node
//! `mid`, the Listing 2(3)/(4) expansion with `q.nid = mid`, the finalize
//! statement of Listing 3(2), and the termination probe of Listing 3(1).
//! The paper runs this only up to 20 K nodes (Table 2: ">600 s" beyond) —
//! node-at-a-time evaluation is the point being criticised.

use super::{
    seeded_ceiling, trivial_case, walk_links, Expansion, Path, PathOutcome, Runner,
    ShortestPathFinder,
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
        let max_iters = 4 * gdb.num_nodes() as u64 + 16;

        // Prepare the statement set once; the loop executes handles only.
        let db = &mut gdb.db;
        let init = db.prepare(&SqlGen::init(Dir::Fwd))?;
        let select_mid = db.prepare(&gen.select_mid())?;
        let expansion = Expansion::prepare(db, &gen, FrontierPred::ByNid, mode)?;
        let settle = db.prepare(&gen.settle_by_nid())?;
        let settled = db.prepare(&gen.settled())?;
        let dist_of = db.prepare(&gen.dist_of())?;
        let pred_of = db.prepare(&gen.pred_of())?;

        let mut runner = Runner::new(gdb);
        runner.exec_prepared(
            Phase::PathExpansion,
            FemOperator::Aux,
            &init,
            &[Value::Int(s), Value::Int(s)],
        )?;

        let mut found = false;
        // Listing 2(2) locates the node to finalize; no candidate left means
        // the target is unreachable.
        while let Some(mid) =
            runner.scalar_prepared(Phase::StatsCollection, FemOperator::F, &select_mid, &[])?
        {
            // E + M operators with `q.nid = mid` (Listing 2(3)/(4)).
            let params = expand_params(SqlStyle::New, FrontierPred::ByNid, Some(mid), 0, bound)?;
            expansion.run(&mut runner, &params)?;
            runner.stats.expansions += 1;
            // Listing 3(2): finalize `mid`.
            runner.exec_prepared(
                Phase::PathExpansion,
                FemOperator::Aux,
                &settle,
                &[Value::Int(mid)],
            )?;
            // Listing 3(1): has the target been finalized?
            if mid == t {
                found = true;
                break;
            }
            let probe = runner.exec_prepared(
                Phase::StatsCollection,
                FemOperator::Aux,
                &settled,
                &[Value::Int(t)],
            )?;
            if probe.rows.map(|r| !r.is_empty()).unwrap_or(false) {
                found = true;
                break;
            }
            if runner.stats.expansions > max_iters {
                return Err(fempath_sql::SqlError::Eval(
                    "DJ exceeded the iteration bound — likely a bug".into(),
                ));
            }
        }

        let path = if found {
            let length = runner
                .scalar_prepared(
                    Phase::FullPathRecovery,
                    FemOperator::Aux,
                    &dist_of,
                    &[Value::Int(t)],
                )?
                .ok_or_else(|| {
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
