//! Physical plans: compile-once / execute-many statement representations.
//!
//! [`crate::engine::Database::prepare`] turns a parsed statement into a
//! [`PreparedPlan`]: tables are resolved, an access path is chosen per table
//! reference (heap scan, secondary-index point/prefix lookup, or clustered
//! range scan), join strategies are fixed with pre-bound key expressions,
//! and every predicate/projection/assignment is bound to fixed column
//! offsets (`PExpr`). Executing a plan therefore does *no* name
//! resolution, no access-path search and no AST traversal — exactly the
//! per-statement work the paper's FEM loops repeat hundreds of times. One
//! executor runs every plan, batch at a time (`plan::vexec`): one
//! evaluator for every `PExpr`, one tail (projection → DISTINCT → cap)
//! for every SELECT.
//!
//! Two kinds of work stay runtime-bound by design:
//!
//! * `?` parameters are `PExpr::Param` slots read from the execution's
//!   parameter list (a prepared statement is executed many times with
//!   different parameters);
//! * uncorrelated subqueries are compiled into `SubPlan`s and re-run at
//!   the start of every execution (their result depends on table *data*,
//!   which changes between executions), preserving the interpreter's
//!   evaluate-once-per-statement semantics.
//!
//! Plans are cached per SQL string and stamped with the
//! [`crate::catalog::Catalog::version`] they were built against; any DDL
//! bumps the version and stale plans are transparently rebuilt (see
//! DESIGN.md §9).

pub mod agg;
pub(crate) mod build;
pub mod scope;
pub mod value;
pub(crate) mod vexec;
pub mod window;

use crate::ast::{AggFunc, BinaryOp, Stmt, UnaryOp, WindowFunc};
use crate::catalog::{ProbePath, TableSchema, UpdateMode};
use fempath_storage::{ColSet, Value};
use scope::{Schema, SchemaCol};
use std::sync::Arc;

/// A fully planned statement, stamped with the catalog version it was
/// compiled against.
pub struct PreparedPlan {
    /// Original statement text (used for transparent replanning).
    pub(crate) sql: String,
    /// Catalog version at plan time; mismatch ⇒ the plan is stale.
    pub(crate) catalog_version: u64,
    /// Number of `?` parameters the statement expects.
    pub(crate) n_params: usize,
    pub(crate) kind: PlanKind,
}

impl PreparedPlan {
    /// The statement text this plan was compiled from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The catalog version the plan was compiled against.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Number of `?` parameters the statement expects.
    pub fn param_count(&self) -> usize {
        self.n_params
    }

    /// Human-readable plan shape, one line per operator — used by the
    /// plan-shape regression tests and diagnostics.
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        match &self.kind {
            PlanKind::Select(sp) => describe_select(sp, 0, &mut out),
            PlanKind::Update(up) => {
                match &up.kind {
                    UpdateKind::Plain { target, .. } => {
                        out.push(format!("UPDATE {}", up.table));
                        describe_target(target, &mut out);
                    }
                    UpdateKind::From { source, probe, .. } => {
                        out.push(format!(
                            "UPDATE {} probing columns {:?}",
                            up.table, probe.cols
                        ));
                        describe_source(source, 1, &mut out);
                        describe_probe(&up.table, probe, &mut out);
                    }
                }
                out.push(format!("  WRITE {}", describe_mode(up.mode)));
                describe_subplans(&up.subplans, 1, &mut out);
            }
            PlanKind::Delete(dp) => {
                out.push(format!("DELETE {}", dp.table));
                describe_target(&dp.target, &mut out);
                describe_subplans(&dp.subplans, 1, &mut out);
            }
            PlanKind::Insert(ip) => {
                match &ip.source {
                    InsertSourcePlan::Values(rows) => out.push(format!(
                        "INSERT {} ({} literal row(s))",
                        ip.table,
                        rows.len()
                    )),
                    InsertSourcePlan::Query(q) => {
                        out.push(format!("INSERT {} from query", ip.table));
                        describe_select(q, 1, &mut out);
                    }
                }
                describe_subplans(&ip.subplans, 1, &mut out);
            }
            PlanKind::Merge(mp) => {
                out.push(format!(
                    "MERGE INTO {} probing columns {:?}",
                    mp.target, mp.probe.cols
                ));
                describe_source(&mp.source, 1, &mut out);
                describe_probe(&mp.target, &mp.probe, &mut out);
                if mp.matched.is_some() {
                    out.push(format!("  WRITE {}", describe_mode(mp.mode)));
                }
                if mp.not_matched.is_some() {
                    out.push(format!(
                        "  INSERT unmatched rows{}",
                        if mp.insert_keys_probed.is_some() {
                            ", keys proven absent by the probe"
                        } else {
                            ""
                        }
                    ));
                }
                describe_subplans(&mp.subplans, 1, &mut out);
            }
            PlanKind::Ddl(stmt) => out.push(
                match stmt {
                    Stmt::CreateTable(_) => "DDL CREATE TABLE",
                    Stmt::CreateIndex(_) => "DDL CREATE INDEX",
                    Stmt::CreateView { .. } => "DDL CREATE VIEW",
                    Stmt::DropTable { .. } => "DDL DROP TABLE",
                    Stmt::DropIndex { .. } => "DDL DROP INDEX",
                    Stmt::DropView { .. } => "DDL DROP VIEW",
                    Stmt::Truncate { .. } => "DDL TRUNCATE",
                    Stmt::Explain(_) => "EXPLAIN",
                    _ => "DDL statement",
                }
                .to_string(),
            ),
        }
        out
    }
}

/// Statement-kind dispatch of a [`PreparedPlan`].
pub(crate) enum PlanKind {
    Select(SelectPlan),
    Update(UpdatePlan),
    Delete(DeletePlan),
    Insert(InsertPlan),
    Merge(MergePlan),
    /// Statements the physical planner does not cover (DDL, TRUNCATE,
    /// EXPLAIN) — run by the engine straight from the cached AST, with no
    /// per-execution clone (EXPLAIN plans and runs its inner SELECT like
    /// any other).
    Ddl(Stmt),
}

/// A bound expression over fixed column offsets, with parameters and
/// subqueries left as runtime slots.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PExpr {
    Const(Value),
    /// `?` parameter, bound per execution.
    Param(usize),
    Col(usize),
    Unary {
        op: UnaryOp,
        e: Box<PExpr>,
    },
    Binary {
        l: Box<PExpr>,
        op: BinaryOp,
        r: Box<PExpr>,
    },
    IsNull {
        e: Box<PExpr>,
        negated: bool,
    },
    /// Scalar subquery slot (re-evaluated at the start of each execution).
    Sub(usize),
    /// `expr [NOT] IN (subquery slot)`.
    InSub {
        e: Box<PExpr>,
        sub: usize,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery slot)`.
    ExistsSub {
        sub: usize,
        negated: bool,
    },
}

/// Largest row offset a bound plan expression reads, or `None` when it is
/// row-independent. Lets executors evaluate a predicate against a row
/// prefix (e.g. the target half of an UPDATE … FROM join) without
/// materializing the full combined row.
pub(crate) fn max_pexpr_col(e: &PExpr) -> Option<usize> {
    match e {
        PExpr::Const(_) | PExpr::Param(_) | PExpr::Sub(_) | PExpr::ExistsSub { .. } => None,
        PExpr::Col(i) => Some(*i),
        PExpr::Unary { e, .. } | PExpr::IsNull { e, .. } | PExpr::InSub { e, .. } => {
            max_pexpr_col(e)
        }
        PExpr::Binary { l, r, .. } => match (max_pexpr_col(l), max_pexpr_col(r)) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        },
    }
}

/// Flags in `used` every row offset a bound plan expression reads
/// (offsets past `used` — window columns appended behind the FROM
/// schema — are not base-table reads and are ignored).
pub(crate) fn mark_pexpr_cols(e: &PExpr, used: &mut [bool]) {
    match e {
        PExpr::Const(_) | PExpr::Param(_) | PExpr::Sub(_) | PExpr::ExistsSub { .. } => {}
        PExpr::Col(i) => {
            if let Some(u) = used.get_mut(*i) {
                *u = true;
            }
        }
        PExpr::Unary { e, .. } | PExpr::IsNull { e, .. } | PExpr::InSub { e, .. } => {
            mark_pexpr_cols(e, used)
        }
        PExpr::Binary { l, r, .. } => {
            mark_pexpr_cols(l, used);
            mark_pexpr_cols(r, used);
        }
    }
}

/// How a subquery's result is consumed.
pub(crate) enum SubPlan {
    /// Scalar subquery: ≤ 1 row, exactly 1 column.
    Scalar(SelectPlan),
    /// `IN (…)` list: 1 column, sorted + deduplicated.
    List(SelectPlan),
    /// `EXISTS (…)`: row-presence flag.
    Exists(SelectPlan),
}

/// A compiled SELECT: a streaming FROM/WHERE pipeline plus the post-stages
/// the statement actually needs. Without an aggregate, window or sort it
/// streams; otherwise its input is gathered into one batch first.
pub(crate) struct SelectPlan {
    pub(crate) from: FromPlan,
    /// GROUP BY / scalar aggregation (streams into accumulators).
    pub(crate) agg: Option<AggPlan>,
    /// Window columns appended to the gathered pipeline output (mutually
    /// exclusive with `agg`).
    pub(crate) windows: Vec<WindowPlan>,
    /// Post-aggregation (or plain) row filter.
    pub(crate) having: Option<PExpr>,
    /// Sort keys, over the post-stage schema.
    pub(crate) order_by: Vec<(PExpr, bool)>,
    /// Projection over the post-stage schema.
    pub(crate) items: Vec<PExpr>,
    /// Output column names.
    pub(crate) out_names: Arc<[String]>,
    pub(crate) distinct: bool,
    /// `TOP` / `LIMIT` row cap (min of both when given).
    pub(crate) cap: Option<u64>,
    /// Uncorrelated subqueries, re-run once per execution.
    pub(crate) subplans: Vec<SubPlan>,
}

impl SelectPlan {
    /// Output schema under `binding` (for derived tables and views).
    pub(crate) fn out_schema(&self, binding: &str) -> Schema {
        let b = Some(binding.to_ascii_lowercase());
        Schema {
            cols: self
                .out_names
                .iter()
                .map(|n| SchemaCol {
                    binding: b.clone(),
                    name: n.clone(),
                })
                .collect(),
        }
    }
}

/// The streaming FROM/WHERE pipeline: one source, zero or more join
/// stages, and a final residual filter.
pub(crate) struct FromPlan {
    pub(crate) source: SourcePlan,
    pub(crate) joins: Vec<JoinPlan>,
    /// Conjuncts not consumed by any access path or join stage.
    pub(crate) residual: Vec<PExpr>,
}

/// A row source with its pushed-down single-relation filters.
pub(crate) struct SourcePlan {
    pub(crate) input: InputPlan,
    pub(crate) filter: Vec<PExpr>,
}

/// The columns of one base table that a statement reads — pushed down to
/// the row decoder, which steps over every other column (DESIGN.md §11).
/// Column offsets in the pipeline are unaffected: unread columns stay in
/// the batch as absent columns.
pub(crate) struct ReadCols {
    pub(crate) set: ColSet,
    /// Names of the columns in `set`, in table order (for `describe()`).
    names: Vec<String>,
}

impl ReadCols {
    /// Every column: what full-row consumers (`SELECT *`, DML sources,
    /// MERGE) read.
    pub(crate) fn all(schema: &TableSchema) -> ReadCols {
        ReadCols {
            set: ColSet::all(),
            names: schema.columns.iter().map(|c| c.name.clone()).collect(),
        }
    }

    /// The columns whose ordinal is flagged in `used`.
    pub(crate) fn of(schema: &TableSchema, used: &[bool]) -> ReadCols {
        let ordinals = || (0..used.len()).filter(|&c| used[c]);
        ReadCols {
            set: ColSet::of(ordinals()),
            names: ordinals().map(|c| schema.columns[c].name.clone()).collect(),
        }
    }
}

impl std::fmt::Display for ReadCols {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cols=[{}]", self.names.join(","))
    }
}

/// Where base rows come from.
pub(crate) enum InputPlan {
    /// `SELECT` without FROM: a single empty row.
    Nothing,
    /// Full table scan (heap order or clustered-key order).
    Scan {
        table: String,
        binding: String,
        read: ReadCols,
    },
    /// Index point/prefix lookup with pre-bound, row-independent keys,
    /// along the path [`crate::catalog::Table::probe_path`] gave `cols`.
    Lookup {
        table: String,
        binding: String,
        cols: Vec<usize>,
        keys: Vec<PExpr>,
        path: ProbePath,
        read: ReadCols,
    },
    /// Materialized subquery (derived table or view).
    Derived(Box<SelectPlan>),
}

/// The probe (right) side of a hash or nested-loop join stage.
pub(crate) enum RightPlan {
    /// Full scan of a base table, materialized as the build side.
    Table { name: String, read: ReadCols },
    /// Materialized subquery.
    Derived(Box<SelectPlan>),
}

/// One join stage of the pipeline: the stage appends the right side's
/// columns to the batch flowing in.
pub(crate) enum JoinPlan {
    /// Index nested loop: per input row, probe the inner table along
    /// `path` with pre-bound key expressions.
    IndexLoop {
        table: String,
        binding: String,
        path_cols: Vec<usize>,
        keys: Vec<PExpr>,
        path: ProbePath,
        residual: Vec<PExpr>,
        read: ReadCols,
    },
    /// Hash join: the right side is materialized and hashed once per
    /// execution; input rows probe it.
    Hash {
        right: RightPlan,
        left_keys: Vec<PExpr>,
        right_cols: Vec<usize>,
        residual: Vec<PExpr>,
    },
    /// Nested-loop cross product with a residual filter (last resort).
    Loop {
        right: RightPlan,
        residual: Vec<PExpr>,
    },
}

/// Grouping/aggregation stage: rows stream into per-group accumulators;
/// the output row is `[group keys…, aggregate results…]`.
pub(crate) struct AggPlan {
    pub(crate) group: Vec<PExpr>,
    pub(crate) aggs: Vec<(AggFunc, Option<PExpr>)>,
}

/// One window function over the materialized pipeline output.
pub(crate) struct WindowPlan {
    pub(crate) func: WindowFunc,
    pub(crate) partition: Vec<PExpr>,
    pub(crate) order: Vec<(PExpr, bool)>,
}

/// A compiled UPDATE.
pub(crate) struct UpdatePlan {
    pub(crate) table: String,
    pub(crate) assign_cols: Vec<usize>,
    pub(crate) kind: UpdateKind,
    /// How the write phase applies the assignments — from the target's
    /// storage and `assign_cols ∩ index columns`, once per statement.
    pub(crate) mode: UpdateMode,
    pub(crate) subplans: Vec<SubPlan>,
}

/// Plain update of the rows a target access path finds vs `UPDATE … FROM`
/// probe.
pub(crate) enum UpdateKind {
    Plain {
        target: TargetPlan,
        /// Assignments over the target row.
        assigns: Vec<PExpr>,
    },
    From {
        source: SourcePlan,
        probe: ProbePlan,
        /// Residuals reading only the target row prefix.
        target_residual: Vec<PExpr>,
        /// Residuals over the combined target+source row.
        mixed_residual: Vec<PExpr>,
        /// Assignments over the combined row.
        assigns: Vec<PExpr>,
    },
}

/// How a plain UPDATE/DELETE finds its rows: an index probe with
/// row-independent keys when the WHERE clause pins an indexed prefix,
/// otherwise a scan. `access.filter` holds the conjuncts the access path
/// did not consume; the access's `read` set is what the filter and the
/// write phase need of each row.
pub(crate) struct TargetPlan {
    pub(crate) access: SourcePlan,
    /// The write phase rewrites whole rows ([`UpdateMode::Rewrite`]): a
    /// lookup reads every column, a scan reads the predicate's columns
    /// and re-reads the rows it selects whole.
    pub(crate) whole_rows: bool,
}

/// The per-source-row equality probe of `UPDATE … FROM` / MERGE into the
/// target table.
pub(crate) struct ProbePlan {
    pub(crate) cols: Vec<usize>,
    /// Probe key expressions over the source row.
    pub(crate) keys: Vec<PExpr>,
    pub(crate) path: ProbePath,
    /// Target columns fetched for each match: what the residuals,
    /// conditions and assignments read (every column under
    /// [`UpdateMode::Rewrite`]).
    pub(crate) read: ReadCols,
    /// Source columns the combined-row expressions read; only these are
    /// copied next to the fetched target columns.
    pub(crate) source_read: Vec<bool>,
}

/// A compiled DELETE.
pub(crate) struct DeletePlan {
    pub(crate) table: String,
    /// Reads the predicate's columns plus the indexed ones (the keys of
    /// the index entries to remove).
    pub(crate) target: TargetPlan,
    pub(crate) subplans: Vec<SubPlan>,
}

/// A compiled INSERT.
pub(crate) struct InsertPlan {
    pub(crate) table: String,
    pub(crate) col_positions: Option<Vec<usize>>,
    pub(crate) source: InsertSourcePlan,
    pub(crate) subplans: Vec<SubPlan>,
}

/// Literal rows or a compiled source query.
pub(crate) enum InsertSourcePlan {
    Values(Vec<Vec<PExpr>>),
    Query(Box<SelectPlan>),
}

/// A compiled MERGE.
pub(crate) struct MergePlan {
    pub(crate) target: String,
    pub(crate) source: SourcePlan,
    pub(crate) probe: ProbePlan,
    /// ON-clause residual over the combined target+source row.
    pub(crate) residual: Vec<PExpr>,
    /// WHEN MATCHED: (condition, assigned columns, value expressions) over
    /// the combined row.
    pub(crate) matched: Option<(Option<PExpr>, Vec<usize>, Vec<PExpr>)>,
    /// How WHEN MATCHED assignments are written.
    pub(crate) mode: UpdateMode,
    /// WHEN NOT MATCHED: (columns, value expressions) over the source row.
    pub(crate) not_matched: Option<(Vec<usize>, Vec<PExpr>)>,
    /// The unique secondary index whose full key the probe looks up and
    /// the NOT MATCHED insert writes from the same source expressions,
    /// with no ON residual to reject a probe hit and no WHEN MATCHED
    /// assignment to an index key: an unmatched row's key is then known
    /// to be absent from it.
    pub(crate) insert_keys_probed: Option<usize>,
    pub(crate) subplans: Vec<SubPlan>,
}

/// A shared handle to a prepared plan (cheap to clone; the engine keeps
/// the canonical copy in its plan cache). `Arc` — plans are immutable
/// after compilation and `Send + Sync`, so handles and cache entries can
/// be shared across worker sessions (DESIGN.md §10).
pub type PlanHandle = Arc<PreparedPlan>;

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn describe_source(sp: &SourcePlan, depth: usize, out: &mut Vec<String>) {
    let pad = indent(depth);
    match &sp.input {
        InputPlan::Nothing => out.push(format!("{pad}CONST ROW")),
        InputPlan::Scan {
            table,
            binding,
            read,
        } => out.push(format!(
            "{pad}SCAN {table} ({binding}) full scan, {} pushed filter(s), {read}",
            sp.filter.len()
        )),
        InputPlan::Lookup {
            table,
            binding,
            cols,
            path,
            read,
            ..
        } => out.push(format!(
            "{pad}SCAN {table} ({binding}) via index lookup on columns {cols:?}, {read}, {}",
            describe_path(*path)
        )),
        InputPlan::Derived(sub) => {
            out.push(format!(
                "{pad}DERIVED (materialized, {} filter(s))",
                sp.filter.len()
            ));
            describe_select(sub, depth + 1, out);
        }
    }
}

fn describe_target(tp: &TargetPlan, out: &mut Vec<String>) {
    describe_source(&tp.access, 1, out);
    if let (InputPlan::Scan { .. }, true) = (&tp.access.input, tp.whole_rows) {
        if let Some(line) = out.last_mut() {
            line.push_str(", matches re-read whole");
        }
    }
}

fn describe_probe(table: &str, probe: &ProbePlan, out: &mut Vec<String>) {
    out.push(format!(
        "  PROBE {table} {}, {}",
        describe_path(probe.path),
        probe.read
    ));
}

fn describe_path(path: ProbePath) -> String {
    match path {
        ProbePath::Clustered => "by clustered-key prefix".into(),
        ProbePath::Segments => "by segment-tree key range".into(),
        ProbePath::Secondary { index, point: true } => format!("by unique key of index #{index}"),
        ProbePath::Secondary {
            index,
            point: false,
        } => format!("by prefix of index #{index}"),
        ProbePath::Scan => "by scan (no index on the probed columns)".into(),
    }
}

fn describe_mode(mode: UpdateMode) -> &'static str {
    match mode {
        UpdateMode::InPlace => "assigned cells in place",
        UpdateMode::Rewrite => "whole rows (clustered target or indexed column assigned)",
    }
}

fn describe_right(right: &RightPlan, depth: usize, out: &mut Vec<String>) {
    match right {
        RightPlan::Table { name, read } => {
            out.push(format!("{}SCAN {name} full scan, {read}", indent(depth)))
        }
        RightPlan::Derived(sub) => describe_select(sub, depth, out),
    }
}

fn describe_select(sp: &SelectPlan, depth: usize, out: &mut Vec<String>) {
    let pad = indent(depth);
    describe_source(&sp.from.source, depth, out);
    for j in &sp.from.joins {
        match j {
            JoinPlan::IndexLoop {
                table,
                binding,
                path_cols,
                path,
                read,
                ..
            } => out.push(format!(
                "{pad}INDEX NESTED LOOP JOIN {table} ({binding}) probing index columns {path_cols:?}, {read}, {}",
                describe_path(*path)
            )),
            JoinPlan::Hash {
                right, left_keys, ..
            } => {
                out.push(format!(
                    "{pad}HASH JOIN on {} column(s)",
                    left_keys.len()
                ));
                describe_right(right, depth + 1, out);
            }
            JoinPlan::Loop { right, .. } => {
                out.push(format!("{pad}NESTED LOOP JOIN"));
                describe_right(right, depth + 1, out);
            }
        }
    }
    if let Some(agg) = &sp.agg {
        out.push(format!(
            "{pad}AGGREGATE ({} group key(s), {} aggregate(s))",
            agg.group.len(),
            agg.aggs.len()
        ));
    }
    if !sp.windows.is_empty() {
        out.push(format!("{pad}WINDOW ({} function(s))", sp.windows.len()));
    }
    if !sp.order_by.is_empty() {
        out.push(format!("{pad}SORT ({} key(s))", sp.order_by.len()));
    }
    if sp.distinct {
        out.push(format!("{pad}DISTINCT"));
    }
    if let Some(cap) = sp.cap {
        out.push(format!("{pad}LIMIT {cap}"));
    }
    describe_subplans(&sp.subplans, depth + 1, out);
}

fn describe_subplans(subs: &[SubPlan], depth: usize, out: &mut Vec<String>) {
    for (i, s) in subs.iter().enumerate() {
        let (kind, plan) = match s {
            SubPlan::Scalar(p) => ("scalar", p),
            SubPlan::List(p) => ("IN-list", p),
            SubPlan::Exists(p) => ("EXISTS", p),
        };
        out.push(format!("{}SUBQUERY #{i} ({kind})", indent(depth)));
        describe_select(plan, depth + 1, out);
    }
}
