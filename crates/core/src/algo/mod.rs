//! Relational shortest-path algorithms.
//!
//! All five of the paper's methods are here:
//!
//! | finder | paper name | §  |
//! |--------|-----------|----|
//! | [`DjFinder`]   | DJ — single-directional Dijkstra (Algorithm 1) | 3.4 |
//! | [`BdjFinder`]  | BDJ — bidirectional Dijkstra                   | 4.1 |
//! | [`BsdjFinder`] | BSDJ — bidirectional *set* Dijkstra            | 4.1 |
//! | [`BbfsFinder`] | BBFS — bidirectional BFS-style relaxation      | 4.2 |
//! | [`BsegFinder`] | BSEG — selective expansion over the SegTable (Algorithm 2) | 4.3 |
//!
//! Each runs entirely through SQL statements against a [`GraphDb`]; the
//! client side holds only scalars (`mid`, `lf`, `lb`, `minCost`, counters),
//! mirroring the paper's JDBC architecture.

pub mod batch;
pub mod bidi;
pub mod dj;

pub use batch::{BatchBdjFinder, BatchOutcome, BatchShortestPathFinder};
pub use bidi::{BbfsFinder, BdjFinder, BsdjFinder, BsegFinder, FrontierPolicy};
pub use dj::DjFinder;

use crate::graphdb::{GraphDb, INF, NO_NODE};
use crate::sqlgen::{EmMode, FrontierPred, SqlGen};
use crate::stats::{FemOperator, Phase, QueryStats};
use fempath_sql::{Database, ExecOutcome, PreparedStmt, Result, SqlError};
use fempath_storage::Value;
use std::time::Instant;

/// A discovered shortest path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Node sequence from source to target, inclusive.
    pub nodes: Vec<i64>,
    /// Total weight.
    pub length: i64,
}

/// Result of a shortest-path query: the path (None when unreachable) and
/// the measurements of the run.
#[derive(Debug, Clone)]
pub struct PathOutcome {
    pub path: Option<Path>,
    pub stats: QueryStats,
}

/// A relational shortest-path algorithm.
pub trait ShortestPathFinder {
    /// Short name as used in the paper ("DJ", "BSDJ", …).
    fn name(&self) -> &'static str;

    /// Finds the shortest path from `s` to `t`.
    fn find_path(&self, gdb: &mut GraphDb, s: i64, t: i64) -> Result<PathOutcome>;
}

/// Statement executor that accumulates [`QueryStats`].
pub(crate) struct Runner<'a> {
    pub gdb: &'a mut GraphDb,
    pub stats: QueryStats,
    started: Instant,
    io_start: fempath_storage::IoStats,
}

impl<'a> Runner<'a> {
    pub fn new(gdb: &'a mut GraphDb) -> Runner<'a> {
        let io_start = gdb.db.io_stats();
        Runner {
            gdb,
            stats: QueryStats::default(),
            started: Instant::now(),
            io_start,
        }
    }

    /// Executes a prepared handle — the hot-loop path: no parse, no plan,
    /// no binding, just parameter substitution and execution.
    pub fn exec_prepared(
        &mut self,
        phase: Phase,
        op: FemOperator,
        stmt: &PreparedStmt,
        params: &[Value],
    ) -> Result<ExecOutcome> {
        let t = Instant::now();
        let out = self.gdb.db.execute_prepared(stmt, params)?;
        self.stats.record(phase, op, t.elapsed());
        Ok(out)
    }

    /// Executes a prepared handle expected to return a single optional
    /// i64 scalar (MIN queries return NULL on empty input → `None`).
    pub fn scalar_prepared(
        &mut self,
        phase: Phase,
        op: FemOperator,
        stmt: &PreparedStmt,
        params: &[Value],
    ) -> Result<Option<i64>> {
        let out = self.exec_prepared(phase, op, stmt, params)?;
        Self::first_scalar(out)
    }

    fn first_scalar(out: ExecOutcome) -> Result<Option<i64>> {
        let rows = out
            .rows
            .ok_or_else(|| SqlError::Eval("expected a result set".into()))?;
        Ok(rows
            .rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64()))
    }

    /// Executes a prepared handle and returns its first row, if any.
    pub fn row_prepared(
        &mut self,
        phase: Phase,
        op: FemOperator,
        stmt: &PreparedStmt,
        params: &[Value],
    ) -> Result<Option<Vec<Value>>> {
        let out = self.exec_prepared(phase, op, stmt, params)?;
        let rows = out
            .rows
            .ok_or_else(|| SqlError::Eval("expected a result set".into()))?;
        Ok(rows.rows.into_iter().next())
    }

    /// Finishes the run: fills in visited-node count, I/O delta and total
    /// time.
    pub fn finish(mut self, path: Option<Path>) -> Result<PathOutcome> {
        self.stats.visited_nodes = self.gdb.db.table_len("TVisited").unwrap_or(0);
        self.stats.io = self.gdb.db.io_stats().since(&self.io_start);
        self.stats.total_time = self.started.elapsed();
        Ok(PathOutcome {
            path,
            stats: self.stats,
        })
    }
}

/// One expansion's E and M operators, prepared: the statements
/// [`SqlGen::expansion`] lists for the search's [`EmMode`], run in order.
pub(crate) struct Expansion(Vec<(FemOperator, PreparedStmt)>);

impl Expansion {
    pub fn prepare(
        db: &mut Database,
        gen: &SqlGen,
        frontier: FrontierPred,
        mode: EmMode,
    ) -> Result<Expansion> {
        gen.expansion(frontier, mode)
            .into_iter()
            .map(|(op, sql)| Ok((op, db.prepare(&sql)?)))
            .collect::<Result<_>>()
            .map(Expansion)
    }

    /// Runs the expansion; `params` ([`crate::sqlgen::expand_params`]) go
    /// to the E-operator statement.
    pub fn run(&self, runner: &mut Runner<'_>, params: &[Value]) -> Result<()> {
        for (op, stmt) in &self.0 {
            let params = if *op == FemOperator::E { params } else { &[] };
            runner.exec_prepared(Phase::PathExpansion, *op, stmt, params)?;
        }
        Ok(())
    }
}

/// The landmark-seeded ceiling for an expansion's pruning term (DESIGN.md
/// §12): every prefix of an optimal path has distance `<= D <= U`, so
/// relaxing up to (but excluding) `U + 1` preserves exactness while
/// skipping candidates strictly above the triangle-inequality bound.
/// [`INF`] when seeding is off or no landmark index exists.
pub(crate) fn seeded_ceiling(gdb: &mut GraphDb, s: i64, t: i64, seed: bool) -> Result<i64> {
    if !seed || gdb.landmarks().is_none() {
        return Ok(INF);
    }
    let upper = crate::landmarks::upper_bound(gdb, s, t)?;
    Ok(upper.map_or(INF, |u| u.saturating_add(1).min(INF)))
}

/// Walks predecessor links from `from` back to `anchor` (Listing 3(3))
/// with a prepared `pred_of` handle. Returns the chain **excluding**
/// `from` itself, ordered from the node nearest `from` to `anchor`.
pub(crate) fn walk_links(
    runner: &mut Runner<'_>,
    pred_of: &PreparedStmt,
    from: i64,
    anchor: i64,
    limit: usize,
) -> Result<Vec<i64>> {
    let mut chain = Vec::new();
    let mut cur = from;
    while cur != anchor {
        let next = runner
            .scalar_prepared(
                Phase::FullPathRecovery,
                FemOperator::Aux,
                pred_of,
                &[Value::Int(cur)],
            )?
            .ok_or_else(|| SqlError::Eval(format!("broken predecessor chain at node {cur}")))?;
        if next == NO_NODE {
            return Err(SqlError::Eval(format!(
                "node {cur} has no predecessor while walking to {anchor}"
            )));
        }
        chain.push(next);
        cur = next;
        if chain.len() > limit {
            return Err(SqlError::Eval(
                "predecessor chain exceeds node count".into(),
            ));
        }
    }
    Ok(chain)
}

/// Recovers the full path of a bidirectional search that met at `meet`
/// with total length `min_cost` (Algorithm 2 lines 17–20). `fwd_pred` /
/// `bwd_pred` are prepared `pred_of` handles for the two directions.
pub(crate) fn recover_bidi_path(
    runner: &mut Runner<'_>,
    s: i64,
    t: i64,
    meet: i64,
    min_cost: i64,
    fwd_pred: &PreparedStmt,
    bwd_pred: &PreparedStmt,
) -> Result<Path> {
    let n = runner.gdb.num_nodes();
    // s … meet via p2s links (walked backward, then reversed).
    let mut nodes: Vec<i64> = walk_links(runner, fwd_pred, meet, s, n + 1)?;
    nodes.reverse();
    nodes.push(meet);
    // meet … t via p2t links.
    let tail = walk_links(runner, bwd_pred, meet, t, n + 1)?;
    nodes.extend(tail);
    debug_assert_eq!(nodes.first(), Some(&s));
    debug_assert_eq!(nodes.last(), Some(&t));
    Ok(Path {
        nodes,
        length: min_cost,
    })
}

/// Shared guard: both endpoints valid; the trivial `s == t` path.
pub(crate) fn trivial_case(gdb: &mut GraphDb, s: i64, t: i64) -> Result<Option<PathOutcome>> {
    gdb.check_node(s)?;
    gdb.check_node(t)?;
    if s == t {
        return Ok(Some(PathOutcome {
            path: Some(Path {
                nodes: vec![s],
                length: 0,
            }),
            stats: QueryStats::default(),
        }));
    }
    Ok(None)
}
