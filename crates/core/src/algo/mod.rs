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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// What may stop a search short of its answer: a deadline and a
/// cooperative cancel flag, both checked once per expansion, beside the
/// expansion cap every search loop passes through. A stopped search fails
/// with [`SqlError::Timeout`] or [`SqlError::Cancelled`] and never
/// returns a partial path. The default stops nothing. A session carries
/// its limits ([`GraphDb::set_limits`]), so every finder honours them.
#[derive(Debug, Clone, Default)]
pub struct SearchLimits {
    /// How long a search may run, counted from its start.
    pub deadline: Option<Duration>,
    /// Once raised, the search stops at its next expansion.
    pub cancel: Option<CancelFlag>,
}

/// A cooperative cancel flag, shared between whoever raises it and the
/// searches that poll it; clones share one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A flag not raised yet.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Raises the flag: every search polling it stops at its next
    /// expansion.
    pub fn cancel(&self) {
        // ORDERING: Release pairs with the Acquire load in
        // `is_cancelled`; the flag guards no other data, the pair only
        // makes the raise visible promptly.
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in `cancel`.
        self.0.load(Ordering::Acquire)
    }
}

/// A prepared statement with the phase and operator its time is charged
/// to (Fig 6(b)/(c)). Both are fixed here, where the statement is
/// prepared; DESIGN.md §3 lists them.
pub(crate) struct Stmt {
    handle: PreparedStmt,
    phase: Phase,
    op: FemOperator,
}

impl Stmt {
    pub fn prepare(db: &mut Database, sql: &str, phase: Phase, op: FemOperator) -> Result<Stmt> {
        Ok(Stmt {
            handle: db.prepare(sql)?,
            phase,
            op,
        })
    }
}

/// Statement executor that accumulates [`QueryStats`]: the one way a
/// search executes a statement.
pub(crate) struct Runner<'a> {
    pub gdb: &'a mut GraphDb,
    pub stats: QueryStats,
    /// Last-resort bound on [`Expansion::run`] calls, 8·|V| + 32: a bug
    /// guard that stops a search whose loop no longer terminates, not a
    /// work budget.
    expansion_cap: u64,
    /// When the session's [`SearchLimits`] stop this search.
    deadline: Option<Instant>,
    cancel: Option<CancelFlag>,
    started: Instant,
    io_start: fempath_storage::IoStats,
}

impl<'a> Runner<'a> {
    pub fn new(gdb: &'a mut GraphDb) -> Runner<'a> {
        let io_start = gdb.db.io_stats();
        let expansion_cap = 8 * gdb.num_nodes() as u64 + 32;
        let started = Instant::now();
        let limits = gdb.limits();
        let (deadline, cancel) = (limits.deadline.map(|d| started + d), limits.cancel.clone());
        Runner {
            gdb,
            stats: QueryStats::default(),
            expansion_cap,
            deadline,
            cancel,
            started,
            io_start,
        }
    }

    /// Fails the search once its cancel flag is raised or its deadline
    /// has passed.
    fn check_limits(&self) -> Result<()> {
        if self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled) {
            return Err(SqlError::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(SqlError::Timeout);
        }
        Ok(())
    }

    /// Executes a prepared statement — the hot-loop path: no parse, no
    /// plan, no binding, just parameter substitution and execution.
    pub fn exec(&mut self, stmt: &Stmt, params: &[Value]) -> Result<ExecOutcome> {
        let t = Instant::now();
        let out = self.gdb.db.execute_prepared(&stmt.handle, params)?;
        self.stats.record(stmt.phase, stmt.op, t.elapsed());
        Ok(out)
    }

    /// Executes a statement expected to return a single optional i64
    /// scalar (MIN queries return NULL on empty input → `None`).
    pub fn scalar(&mut self, stmt: &Stmt, params: &[Value]) -> Result<Option<i64>> {
        Ok(self
            .row(stmt, params)?
            .and_then(|r| r.first().and_then(Value::as_i64)))
    }

    /// Executes a statement and returns its first row, if any.
    pub fn row(&mut self, stmt: &Stmt, params: &[Value]) -> Result<Option<Vec<Value>>> {
        let rows = self
            .exec(stmt, params)?
            .rows
            .ok_or_else(|| SqlError::Eval("expected a result set".into()))?;
        Ok(rows.rows.into_iter().next())
    }

    /// Finishes the run: fills in visited-node count, I/O delta and total
    /// time.
    pub fn finish(mut self, path: Option<Path>) -> Result<PathOutcome> {
        self.stats.visited_nodes = self.gdb.db.table_len("TVisited")?;
        self.stats.io = self.gdb.db.io_stats().since(&self.io_start);
        self.stats.total_time = self.started.elapsed();
        Ok(PathOutcome {
            path,
            stats: self.stats,
        })
    }
}

/// One expansion's E and M operators, prepared: the statements
/// [`SqlGen::expansion`] lists for the search's [`EmMode`], run in order
/// and charged to path expansion.
pub(crate) struct Expansion(Vec<Stmt>);

impl Expansion {
    pub fn prepare(
        db: &mut Database,
        gen: &SqlGen,
        frontier: FrontierPred,
        mode: EmMode,
    ) -> Result<Expansion> {
        gen.expansion(frontier, mode)
            .into_iter()
            .map(|(op, sql)| Stmt::prepare(db, &sql, Phase::PathExpansion, op))
            .collect::<Result<_>>()
            .map(Expansion)
    }

    /// Runs one expansion and counts it in `stats.expansions` (the paper's
    /// `Exps`); `params` ([`crate::sqlgen::expand_params`]) go to the
    /// E-operator statement. Every search loop calls this once per
    /// iteration, so it is where the search's work is bounded: past the
    /// runner's expansion cap the search fails instead of looping on, and
    /// past its deadline or once cancelled ([`SearchLimits`]) it stops.
    pub fn run(&self, runner: &mut Runner<'_>, params: &[Value]) -> Result<()> {
        if runner.stats.expansions >= runner.expansion_cap {
            return Err(SqlError::Eval(format!(
                "search exceeded its cap of {} expansions — likely a bug",
                runner.expansion_cap
            )));
        }
        runner.check_limits()?;
        runner.stats.expansions += 1;
        for stmt in &self.0 {
            let params = if stmt.op == FemOperator::E {
                params
            } else {
                &[]
            };
            runner.exec(stmt, params)?;
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
    pred_of: &Stmt,
    from: i64,
    anchor: i64,
    limit: usize,
) -> Result<Vec<i64>> {
    let mut chain = Vec::new();
    let mut cur = from;
    while cur != anchor {
        let next = runner
            .scalar(pred_of, &[Value::Int(cur)])?
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
    fwd_pred: &Stmt,
    bwd_pred: &Stmt,
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
