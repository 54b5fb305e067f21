//! Vectorized (batch-at-a-time) execution of physical plans — the one
//! executor every planned statement runs through.
//!
//! Plans execute over [`Chunk`]s of ~1024 rows: scans fill typed column
//! vectors straight from page bytes, WHERE clauses narrow a selection
//! vector with typed comparison loops, join stages gather whole batches,
//! and aggregation folds column slices into the accumulators. This makes
//! the engine's own execution model match the paper's set-at-a-time
//! argument — the FEM working tables are all-integer, the ideal case for
//! the dense `Vec<i64>`-plus-null-bitmap column layout (DESIGN.md §11).
//!
//! Every expression is evaluated by one evaluator, [`eval_v`]; a
//! row-independent value (an index probe key, a `VALUES` cell, the filter
//! of a FROM-less SELECT) is the same evaluation over a one-row,
//! zero-column batch ([`eval_scalar`]).
//! Every SELECT ends in one tail: a statement without aggregate, window or
//! sort streams its batches through it, every other one first gathers its
//! input into one batch, folds or extends it and runs HAVING and the sort
//! over it. The tail projects, drops the rows DISTINCT has seen and stops
//! at the cap.
//!
//! In the steady state only the result rows handed back to the engine
//! API are allocated: chunks, selection vectors, probe keys, computed
//! columns, locator batches and aggregate states come from the capped
//! thread-local pools of [`crate::pool`], and a column reference is read
//! in place rather than copied (DESIGN.md §11 *Steady-state allocation*).
//!
//! Per-*column* fallback to generic `Value` vectors (mixed/text/float
//! columns) keeps behaviour identical to the AST interpreter, which
//! remains the differential oracle. Two deliberate, bounded divergences
//! from strict row-at-a-time evaluation order exist, both documented in
//! DESIGN.md §11: predicates are evaluated eagerly across a batch (an
//! error in a row a row-at-a-time evaluator would not have reached under
//! a `TOP n` cap can surface), and the runaway-cross-join safety valve
//! truncates at batch rather than row granularity.

use super::agg::AggState;
use super::value::{arith, in_list_result, truthy, HashKey};
use super::{
    AggPlan, FromPlan, InputPlan, InsertPlan, InsertSourcePlan, JoinPlan, MergePlan, PExpr,
    ProbePlan, RightPlan, SelectPlan, SourcePlan, SubPlan, TargetPlan, UpdateKind, UpdatePlan,
    WindowPlan,
};
use crate::ast::{BinaryOp, UnaryOp};
use crate::catalog::{AbsentKeys, BatchLocs, Catalog, EqMatches, Table, UpdateMode};
use crate::error::{Result, SqlError};
use crate::pool::{recycle, take, Pooled, Recycle, POOL_CAP};
use fempath_storage::{
    BufferPool, Chunk, ColSet, Column, DataType, NullMask, Value, CHUNK_CAPACITY,
};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::thread::LocalKey;

/// Per-execution context: the parameter list and the evaluated subquery
/// slots.
struct Env<'a> {
    params: &'a [Value],
    subs: Vec<SubResult>,
}

/// Result of one subquery slot for the current execution.
enum SubResult {
    Scalar(Value),
    /// Sorted, deduplicated, NULL-free list + "the subquery produced a
    /// NULL" flag (three-valued `[NOT] IN`, see
    /// [`super::value::in_list_result`]).
    List(Rc<Vec<Value>>, bool),
    Exists(bool),
}

/// Safety valve against runaway cross joins.
const LOOP_JOIN_ROW_CAP: u64 = 50_000_000;

/// The identity selection `0..n`, in a recycled buffer.
fn take_sel(n: usize) -> Pooled<Vec<u32>> {
    let mut sel = take::<Vec<u32>>();
    fill_identity(&mut sel, n);
    sel
}

/// Resets `sel` to the identity selection `0..n`.
fn fill_identity(sel: &mut Vec<u32>, n: usize) {
    sel.clear();
    sel.extend(0..n as u32);
}

/// A copy of `sel` in a recycled buffer.
fn copy_sel(sel: &[u32]) -> Pooled<Vec<u32>> {
    let mut out = take::<Vec<u32>>();
    out.extend_from_slice(sel);
    out
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------------

/// An evaluated expression over one batch, dense over the selection it was
/// evaluated with (position `k` answers row `sel[k]`).
enum VCol<'a> {
    /// Row-independent value (constants, parameters, scalar subqueries).
    Const(Value),
    /// A column of the batch, read in place: position `k` is row `sel[k]`.
    Col(&'a Column, &'a [u32]),
    /// Computed integers, in a recycled buffer, and their NULLs (one mask
    /// bit per position; a mask without NULLs holds no words).
    Int {
        vals: Pooled<Vec<i64>>,
        nulls: NullMask,
    },
    /// Generic fallback.
    Generic(Vec<Value>),
}

impl VCol<'_> {
    /// Value at dense position `k`.
    fn get(&self, k: usize) -> Value {
        match self {
            VCol::Const(v) => v.clone(),
            VCol::Col(c, sel) => c.get(sel[k] as usize),
            VCol::Int { vals, nulls } => {
                if nulls.get(k) {
                    Value::Null
                } else {
                    Value::Int(vals[k])
                }
            }
            VCol::Generic(v) => v[k].clone(),
        }
    }

    fn is_null(&self, k: usize) -> bool {
        match self {
            VCol::Const(v) => v.is_null(),
            VCol::Col(c, sel) => c.is_null_at(sel[k] as usize),
            VCol::Int { nulls, .. } => nulls.get(k),
            VCol::Generic(v) => v[k].is_null(),
        }
    }

    /// SQL truthiness at `k` (NULL is not true) without cloning.
    fn truthy(&self, k: usize) -> bool {
        match self {
            VCol::Const(v) => truthy(v),
            VCol::Col(Column::Int { vals, nulls }, sel) => {
                let i = sel[k] as usize;
                !nulls.get(i) && vals[i] != 0
            }
            VCol::Col(Column::Generic(v), sel) => truthy(&v[sel[k] as usize]),
            VCol::Int { vals, nulls } => !nulls.get(k) && vals[k] != 0,
            VCol::Generic(v) => truthy(&v[k]),
        }
    }

    /// `Some(i)` when position `k` holds exactly an integer (`None` for
    /// NULL or any non-integer value).
    fn int_at(&self, k: usize) -> Option<i64> {
        match int_view(self) {
            Some(iv) => iv.get(k),
            None => match self.get(k) {
                Value::Int(i) => Some(i),
                _ => None,
            },
        }
    }

    /// Whether every value is an integer or NULL, so the column needs no
    /// coercion to enter an INT column.
    fn int_typed(&self) -> bool {
        match self {
            VCol::Const(v) => matches!(v, Value::Int(_) | Value::Null),
            VCol::Col(c, _) => matches!(c, Column::Int { .. }),
            VCol::Int { .. } => true,
            VCol::Generic(_) => false,
        }
    }
}

/// Converts an evaluated column into a storage [`Column`] of `n` rows.
fn vcol_into_column(v: VCol<'_>, n: usize) -> Column {
    match v {
        VCol::Int { vals, nulls } => Column::Int {
            vals: vals.into_inner(),
            nulls,
        },
        VCol::Generic(vals) => Column::Generic(vals),
        VCol::Const(val) => Column::repeat(&val, n),
        VCol::Col(c, sel) => c.gather(sel),
    }
}

/// Converts a push-built column into an evaluated column.
fn column_to_vcol(c: Column) -> VCol<'static> {
    match c {
        Column::Int { vals, nulls } => VCol::Int {
            vals: Pooled::from(vals),
            nulls,
        },
        Column::Generic(v) => VCol::Generic(v),
    }
}

/// Appends the `n` values of an evaluated column to `acc`.
fn append_vcol(acc: &mut Column, v: &VCol<'_>, n: usize) {
    match v {
        VCol::Col(c, sel) => acc.extend_gather(c, sel),
        VCol::Int { vals, nulls } if !nulls.any() => acc.extend_ints(vals.iter().copied()),
        VCol::Const(Value::Int(x)) => acc.extend_ints((0..n).map(|_| *x)),
        _ => (0..n).for_each(|k| acc.push(v.get(k))),
    }
}

/// Appends the `n` values of `v`, coerced to column `c` of `table`, to
/// `acc` — straight across when an integer column feeds an INT column
/// (the FEM steady state), through [`Table::coerce_column`] otherwise.
fn append_coerced(table: &Table, c: usize, v: VCol<'_>, n: usize, acc: &mut Column) -> Result<()> {
    if v.int_typed() && table.schema.columns[c].dtype == DataType::Int {
        append_vcol(acc, &v, n);
    } else {
        acc.append(table.coerce_column(c, vcol_into_column(v, n))?);
    }
    Ok(())
}

/// A NULL-free integer operand of a typed kernel, read by dense position.
#[derive(Clone, Copy)]
enum IntSrc<'a> {
    /// Position `k` is `vals[k]`.
    Dense(&'a [i64]),
    /// Position `k` is `vals[sel[k]]` (a column read in place).
    Gather(&'a [i64], &'a [u32]),
    /// Every position holds the same value.
    Splat(i64),
}

impl IntSrc<'_> {
    #[inline]
    fn at(self, k: usize) -> i64 {
        match self {
            IntSrc::Dense(v) => v[k],
            IntSrc::Gather(v, sel) => v[sel[k] as usize],
            IntSrc::Splat(x) => x,
        }
    }
}

/// Where the NULLs of an [`IntView`] are.
#[derive(Clone, Copy)]
enum Nulls<'a> {
    /// Nowhere.
    None,
    /// Everywhere (a NULL constant).
    All,
    /// At the positions the mask flags.
    Dense(&'a NullMask),
    /// At the positions `k` whose row `sel[k]` the mask flags.
    Gather(&'a NullMask, &'a [u32]),
}

/// An all-integer view of an evaluated column: its values and its NULLs.
#[derive(Clone, Copy)]
struct IntView<'a> {
    src: IntSrc<'a>,
    nulls: Nulls<'a>,
}

impl IntView<'_> {
    fn null_free(&self) -> bool {
        matches!(self.nulls, Nulls::None)
    }

    #[inline]
    fn get(&self, k: usize) -> Option<i64> {
        let null = match self.nulls {
            Nulls::None => false,
            Nulls::All => true,
            Nulls::Dense(m) => m.get(k),
            Nulls::Gather(m, sel) => m.get(sel[k] as usize),
        };
        (!null).then(|| self.src.at(k))
    }
}

/// The all-integer view of an evaluated column, when it has one.
fn int_view<'v>(v: &'v VCol<'_>) -> Option<IntView<'v>> {
    let view = |src, nulls| Some(IntView { src, nulls });
    match v {
        VCol::Const(Value::Int(i)) => view(IntSrc::Splat(*i), Nulls::None),
        VCol::Const(Value::Null) => view(IntSrc::Splat(0), Nulls::All),
        VCol::Col(Column::Int { vals, nulls }, sel) => view(
            IntSrc::Gather(vals, sel),
            if nulls.any() {
                Nulls::Gather(nulls, sel)
            } else {
                Nulls::None
            },
        ),
        VCol::Int { vals, nulls } => view(
            IntSrc::Dense(vals),
            if nulls.any() {
                Nulls::Dense(nulls)
            } else {
                Nulls::None
            },
        ),
        VCol::Const(_) | VCol::Col(Column::Generic(_), _) | VCol::Generic(_) => None,
    }
}

/// Binds `$f` to a reader of the [`IntSrc`] `$src` by dense position, once
/// per source shape, so the kernel `$body` is compiled for each shape.
macro_rules! with_src {
    ($src:expr, |$f:ident| $body:expr) => {
        match $src {
            IntSrc::Dense(v) => {
                let $f = |k: usize| v[k];
                $body
            }
            IntSrc::Gather(v, sel) => {
                let $f = |k: usize| v[sel[k] as usize];
                $body
            }
            IntSrc::Splat(x) => {
                let $f = |_: usize| x;
                $body
            }
        }
    };
}

/// `out[k] = a(k) <op> b(k)` as 0/1 for `k < n`: one typed loop per
/// comparison operator.
fn cmp_kernel(
    op: BinaryOp,
    n: usize,
    a: impl Fn(usize) -> i64,
    b: impl Fn(usize) -> i64,
    out: &mut Vec<i64>,
) {
    fn fill(out: &mut Vec<i64>, n: usize, holds: impl Fn(usize) -> bool) {
        out.extend((0..n).map(|k| i64::from(holds(k))));
    }
    match op {
        BinaryOp::Eq => fill(out, n, |k| a(k) == b(k)),
        BinaryOp::NotEq => fill(out, n, |k| a(k) != b(k)),
        BinaryOp::Lt => fill(out, n, |k| a(k) < b(k)),
        BinaryOp::LtEq => fill(out, n, |k| a(k) <= b(k)),
        BinaryOp::Gt => fill(out, n, |k| a(k) > b(k)),
        BinaryOp::GtEq => fill(out, n, |k| a(k) >= b(k)),
        _ => unreachable!("comparison operator expected"),
    }
}

/// `out[k] = a(k) <op> b(k)` for `k < n`: one typed loop per arithmetic
/// operator (wrapping, like the interpreter); a zero divisor errors.
fn arith_kernel(
    op: BinaryOp,
    n: usize,
    a: impl Fn(usize) -> i64,
    b: impl Fn(usize) -> i64,
    out: &mut Vec<i64>,
) -> Result<()> {
    match op {
        BinaryOp::Add => out.extend((0..n).map(|k| a(k).wrapping_add(b(k)))),
        BinaryOp::Sub => out.extend((0..n).map(|k| a(k).wrapping_sub(b(k)))),
        BinaryOp::Mul => out.extend((0..n).map(|k| a(k).wrapping_mul(b(k)))),
        _ => {
            for k in 0..n {
                out.push(arith_int(op, a(k), b(k))?);
            }
        }
    }
    Ok(())
}

/// One integer arithmetic step, as the interpreter computes it.
fn arith_int(op: BinaryOp, x: i64, y: i64) -> Result<i64> {
    Ok(match op {
        BinaryOp::Add => x.wrapping_add(y),
        BinaryOp::Sub => x.wrapping_sub(y),
        BinaryOp::Mul => x.wrapping_mul(y),
        BinaryOp::Div | BinaryOp::Mod if y == 0 => {
            return Err(SqlError::Eval("division by zero".into()))
        }
        BinaryOp::Div => x.wrapping_div(y),
        BinaryOp::Mod => x.wrapping_rem(y),
        _ => unreachable!("arithmetic operator expected"),
    })
}

fn cmp_holds(op: BinaryOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => ord.is_ne(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::GtEq => ord.is_ge(),
        _ => unreachable!("comparison operator expected"),
    }
}

fn is_cmp(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq
    )
}

fn is_arith(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
    )
}

/// Evaluates `e` for the rows of `chunk` selected by `sel`, producing a
/// result dense over the selection. Callers never pass an empty selection
/// (so row-independent subexpressions are not evaluated for zero rows,
/// matching the interpreter's per-row laziness).
fn eval_v<'a>(e: &PExpr, chunk: &'a Chunk, sel: &'a [u32], env: &Env<'_>) -> Result<VCol<'a>> {
    debug_assert!(!sel.is_empty());
    let n = sel.len();
    Ok(match e {
        PExpr::Const(v) => VCol::Const(v.clone()),
        PExpr::Param(i) => {
            VCol::Const(env.params.get(*i).cloned().ok_or(SqlError::ParamCount {
                expected: i + 1,
                got: env.params.len(),
            })?)
        }
        PExpr::Sub(i) => match &env.subs[*i] {
            SubResult::Scalar(v) => VCol::Const(v.clone()),
            _ => unreachable!("slot kind fixed at plan time"),
        },
        PExpr::ExistsSub { sub, negated } => {
            let SubResult::Exists(exists) = &env.subs[*sub] else {
                unreachable!("slot kind fixed at plan time")
            };
            VCol::Const(Value::Int(i64::from(*exists != *negated)))
        }
        PExpr::Col(i) => VCol::Col(chunk.col(*i), sel),
        PExpr::Unary { op, e } => {
            let v = eval_v(e, chunk, sel, env)?;
            match op {
                UnaryOp::Neg => match (&v, int_view(&v)) {
                    (VCol::Const(c), _) => VCol::Const(match c {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(f) => Value::Float(-f),
                        Value::Null => Value::Null,
                        Value::Text(_) => return Err(SqlError::Eval("cannot negate text".into())),
                    }),
                    (VCol::Col(..) | VCol::Int { .. }, Some(iv)) => {
                        let mut vals = take::<Vec<i64>>();
                        let mut nulls = NullMask::new();
                        for k in 0..n {
                            match iv.get(k) {
                                Some(x) => {
                                    vals.push(-x);
                                    nulls.push(false);
                                }
                                None => {
                                    vals.push(0);
                                    nulls.push(true);
                                }
                            }
                        }
                        VCol::Int { vals, nulls }
                    }
                    _ => {
                        let mut out = Column::new_int();
                        for k in 0..n {
                            out.push(match v.get(k) {
                                Value::Int(i) => Value::Int(-i),
                                Value::Float(f) => Value::Float(-f),
                                Value::Null => Value::Null,
                                Value::Text(_) => {
                                    return Err(SqlError::Eval("cannot negate text".into()))
                                }
                            });
                        }
                        column_to_vcol(out)
                    }
                },
                UnaryOp::Not => {
                    let mut vals = take::<Vec<i64>>();
                    let mut nulls = NullMask::new();
                    for k in 0..n {
                        let null = v.is_null(k);
                        vals.push(i64::from(!null && !v.truthy(k)));
                        nulls.push(null);
                    }
                    VCol::Int { vals, nulls }
                }
            }
        }
        PExpr::IsNull { e, negated } => {
            let v = eval_v(e, chunk, sel, env)?;
            let mut vals = take::<Vec<i64>>();
            vals.extend((0..n).map(|k| i64::from(v.is_null(k) != *negated)));
            VCol::Int {
                vals,
                nulls: NullMask::all_valid(n),
            }
        }
        PExpr::InSub { e, sub, negated } => {
            let v = eval_v(e, chunk, sel, env)?;
            let SubResult::List(list, has_null) = &env.subs[*sub] else {
                unreachable!("slot kind fixed at plan time")
            };
            let mut out = Column::new_int();
            for k in 0..n {
                out.push(in_list_result(&v.get(k), list, *has_null, *negated));
            }
            column_to_vcol(out)
        }
        PExpr::Binary { l, op, r } => return eval_binary(l, *op, r, chunk, sel, env),
    })
}

fn eval_binary<'a>(
    l: &PExpr,
    op: BinaryOp,
    r: &PExpr,
    chunk: &'a Chunk,
    sel: &'a [u32],
    env: &Env<'_>,
) -> Result<VCol<'a>> {
    let n = sel.len();
    // AND/OR keep the interpreter's per-row short-circuit: the right side is
    // only evaluated for rows the left side did not decide, so an error in
    // the right operand surfaces for exactly the rows it would have.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let and = op == BinaryOp::And;
        let lv = eval_v(l, chunk, sel, env)?;
        let mut need = take::<Vec<u32>>();
        let mut need_pos = take::<Vec<u32>>();
        for (k, &r0) in sel.iter().enumerate() {
            let ln = lv.is_null(k);
            let lt = lv.truthy(k);
            // AND is decided (false) when l is false; OR is decided (true)
            // when l is true.
            let decided = if and { !ln && !lt } else { lt };
            if !decided {
                need.push(r0);
                need_pos.push(k as u32);
            }
        }
        let mut vals = take::<Vec<i64>>();
        vals.resize(n, i64::from(!and));
        let mut nulls = NullMask::all_valid(n);
        if !need.is_empty() {
            let rv = eval_v(r, chunk, &need, env)?;
            for (j, &k) in need_pos.iter().enumerate() {
                let k = k as usize;
                let ln = lv.is_null(k);
                let rn = rv.is_null(j);
                let rt = rv.truthy(j);
                let out = if and {
                    if !rn && !rt {
                        Some(0)
                    } else if ln || rn {
                        None
                    } else {
                        Some(1)
                    }
                } else if rt {
                    Some(1)
                } else if ln || rn {
                    None
                } else {
                    Some(0)
                };
                match out {
                    Some(v) => vals[k] = v,
                    None => {
                        vals[k] = 0;
                        nulls.set_null(k);
                    }
                }
            }
        }
        return Ok(VCol::Int { vals, nulls });
    }

    let lv = eval_v(l, chunk, sel, env)?;
    let rv = eval_v(r, chunk, sel, env)?;

    if let (Some(a), Some(b)) = (int_view(&lv), int_view(&rv)) {
        let mut vals = take::<Vec<i64>>();
        // Both sides NULL-free: one typed loop per operator and operand
        // shape (the FEM comparisons and additive distance terms).
        if a.null_free() && b.null_free() {
            if is_cmp(op) {
                with_src!(a.src, |fa| with_src!(b.src, |fb| cmp_kernel(
                    op, n, fa, fb, &mut vals
                )));
            } else {
                with_src!(a.src, |fa| with_src!(b.src, |fb| arith_kernel(
                    op, n, fa, fb, &mut vals
                )))?;
            }
            return Ok(VCol::Int {
                vals,
                nulls: NullMask::all_valid(n),
            });
        }
        let mut nulls = NullMask::new();
        for k in 0..n {
            match (a.get(k), b.get(k)) {
                (Some(x), Some(y)) => {
                    vals.push(if is_cmp(op) {
                        i64::from(cmp_holds(op, x.cmp(&y)))
                    } else {
                        arith_int(op, x, y)?
                    });
                    nulls.push(false);
                }
                _ => {
                    vals.push(0);
                    nulls.push(true);
                }
            }
        }
        return Ok(VCol::Int { vals, nulls });
    }

    // Generic per-row fallback (floats, text, mixed columns).
    let mut out = Column::new_int();
    for k in 0..n {
        let a = lv.get(k);
        let b = rv.get(k);
        let v = if is_arith(op) {
            arith(op, a, b)?
        } else if a.is_null() || b.is_null() {
            Value::Null
        } else {
            Value::Int(i64::from(cmp_holds(op, a.total_cmp(&b))))
        };
        out.push(v);
    }
    Ok(column_to_vcol(out))
}

// ---------------------------------------------------------------------------
// Filters (selection vectors)
// ---------------------------------------------------------------------------

/// Keeps the rows `i` of `sel` for which `keep(i)` holds, in order: a
/// branch-free compaction (every row is written, the write cursor advances
/// by the predicate).
#[inline(always)]
fn compact(sel: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut w = 0;
    for r in 0..sel.len() {
        let i = sel[r];
        sel[w] = i;
        w += usize::from(keep(i as usize));
    }
    sel.truncate(w);
}

/// Narrows `sel` to the rows `i` where `a(i) <op> b(i)`, over NULL-free
/// integers: one compaction loop per comparison operator.
fn filter_cmp(
    op: BinaryOp,
    sel: &mut Vec<u32>,
    a: impl Fn(usize) -> i64,
    b: impl Fn(usize) -> i64,
) {
    match op {
        BinaryOp::Eq => compact(sel, |i| a(i) == b(i)),
        BinaryOp::NotEq => compact(sel, |i| a(i) != b(i)),
        BinaryOp::Lt => compact(sel, |i| a(i) < b(i)),
        BinaryOp::LtEq => compact(sel, |i| a(i) <= b(i)),
        BinaryOp::Gt => compact(sel, |i| a(i) > b(i)),
        BinaryOp::GtEq => compact(sel, |i| a(i) >= b(i)),
        _ => unreachable!("comparison operator expected"),
    }
}

/// Narrows `sel` to the rows where `p` is true. The hot shapes —
/// `col <cmp> const/param` (either operand order) and `col <cmp> col`
/// over integer columns — filter the chunk columns directly, with no
/// intermediate result vector: a typed compaction kernel when the columns
/// hold no NULL, a NULL-aware walk otherwise.
fn apply_pred(p: &PExpr, chunk: &Chunk, sel: &mut Vec<u32>, env: &Env<'_>) -> Result<()> {
    if sel.is_empty() {
        return Ok(());
    }
    if let PExpr::Binary { l, op, r } = p {
        let op = *op;
        if is_cmp(op) {
            match (l.as_ref(), r.as_ref()) {
                (PExpr::Col(a), PExpr::Col(b)) => {
                    if let (
                        Column::Int {
                            vals: va,
                            nulls: na,
                        },
                        Column::Int {
                            vals: vb,
                            nulls: nb,
                        },
                    ) = (chunk.col(*a), chunk.col(*b))
                    {
                        if na.any() || nb.any() {
                            sel.retain(|&i| {
                                let i = i as usize;
                                !na.get(i) && !nb.get(i) && cmp_holds(op, va[i].cmp(&vb[i]))
                            });
                        } else {
                            filter_cmp(op, sel, |i| va[i], |i| vb[i]);
                        }
                        return Ok(());
                    }
                }
                (PExpr::Col(a), rhs) => {
                    if let Some(v) = scalar_operand(rhs, env)? {
                        match (chunk.col(*a), &v) {
                            (Column::Int { vals, nulls }, &Value::Int(x)) => {
                                if nulls.any() {
                                    sel.retain(|&i| {
                                        !nulls.get(i as usize)
                                            && cmp_holds(op, vals[i as usize].cmp(&x))
                                    });
                                } else {
                                    filter_cmp(op, sel, |i| vals[i], |_| x);
                                }
                                return Ok(());
                            }
                            // col <cmp> NULL is never true
                            (_, Value::Null) => {
                                sel.clear();
                                return Ok(());
                            }
                            _ => {}
                        }
                    }
                }
                (lhs, PExpr::Col(a)) => {
                    if let Some(v) = scalar_operand(lhs, env)? {
                        match (chunk.col(*a), &v) {
                            (Column::Int { vals, nulls }, &Value::Int(x)) => {
                                if nulls.any() {
                                    sel.retain(|&i| {
                                        !nulls.get(i as usize)
                                            && cmp_holds(op, x.cmp(&vals[i as usize]))
                                    });
                                } else {
                                    filter_cmp(op, sel, |_| x, |i| vals[i]);
                                }
                                return Ok(());
                            }
                            (_, Value::Null) => {
                                sel.clear();
                                return Ok(());
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let cur = copy_sel(sel);
    let v = eval_v(p, chunk, &cur, env)?;
    sel.clear();
    sel.extend(
        cur.iter()
            .enumerate()
            .filter(|&(k, _)| v.truthy(k))
            .map(|(_, &i)| i),
    );
    Ok(())
}

/// The value of a row-independent operand (constant, parameter, scalar
/// subquery slot), or `None` when the operand depends on the row.
fn scalar_operand(e: &PExpr, env: &Env<'_>) -> Result<Option<Value>> {
    Ok(match e {
        PExpr::Const(v) => Some(v.clone()),
        PExpr::Param(i) => Some(env.params.get(*i).cloned().ok_or(SqlError::ParamCount {
            expected: i + 1,
            got: env.params.len(),
        })?),
        PExpr::Sub(i) => match &env.subs[*i] {
            SubResult::Scalar(v) => Some(v.clone()),
            _ => None,
        },
        _ => None,
    })
}

/// The value of a row-independent expression (an index probe key, a
/// `VALUES` cell, the filter of a FROM-less SELECT): a constant, parameter
/// or scalar subquery slot is read as it is, anything else is evaluated
/// over a one-row, zero-column batch.
fn eval_scalar(e: &PExpr, env: &Env<'_>) -> Result<Value> {
    if let Some(v) = scalar_operand(e, env)? {
        return Ok(v);
    }
    let mut row = Chunk::new();
    row.push_empty_row();
    Ok(eval_v(e, &row, &[0], env)?.get(0))
}

/// Applies every conjunct in order, narrowing `sel`.
fn apply_filter(preds: &[PExpr], chunk: &Chunk, sel: &mut Vec<u32>, env: &Env<'_>) -> Result<()> {
    for p in preds {
        if sel.is_empty() {
            return Ok(());
        }
        apply_pred(p, chunk, sel, env)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Sources and the join pipeline
// ---------------------------------------------------------------------------

/// Streams a source's batches (pushed-down filters applied as selection
/// vectors) into `f`; `f` returns `false` to stop early.
fn stream_source_v(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    sp: &SourcePlan,
    f: &mut dyn FnMut(&Chunk, &[u32]) -> Result<bool>,
) -> Result<()> {
    match &sp.input {
        InputPlan::Nothing => {
            for p in &sp.filter {
                if !truthy(&eval_scalar(p, env)?) {
                    return Ok(());
                }
            }
            let mut row = Chunk::new();
            row.push_empty_row();
            f(&row, &[0])?;
            Ok(())
        }
        InputPlan::Scan { table, read, .. } => {
            let t = catalog.table(table)?;
            let mut cursor = t.batch_cursor(pool)?;
            let mut chunk = take::<Chunk>();
            let mut sel = take::<Vec<u32>>();
            loop {
                chunk.reset();
                let more = t.next_batch(
                    pool,
                    &mut cursor,
                    &mut chunk,
                    &read.set,
                    None,
                    CHUNK_CAPACITY,
                )?;
                if !chunk.is_empty() {
                    fill_identity(&mut sel, chunk.len());
                    apply_filter(&sp.filter, &chunk, &mut sel, env)?;
                    if !sel.is_empty() && !f(&chunk, &sel)? {
                        return Ok(());
                    }
                }
                if !more {
                    return Ok(());
                }
            }
        }
        InputPlan::Lookup {
            table,
            cols,
            keys,
            path,
            read,
            ..
        } => {
            let key_vals = probe_keys(keys, env)?;
            let t = catalog.table(table)?;
            let mut chunk = take::<Chunk>();
            let found = EqMatches {
                rows: &mut chunk,
                src: None,
                locs: None,
            };
            t.probe_eq(pool, *path, cols, &key_vals, &read.set, found, None)?;
            if !chunk.is_empty() {
                let mut sel = take_sel(chunk.len());
                apply_filter(&sp.filter, &chunk, &mut sel, env)?;
                if !sel.is_empty() {
                    f(&chunk, &sel)?;
                }
            }
            Ok(())
        }
        InputPlan::Derived(sub) => {
            let chunks = run_select_chunks(pool, catalog, env.params, sub)?;
            let mut sel = take::<Vec<u32>>();
            for chunk in chunks.iter().filter(|c| !c.is_empty()) {
                fill_identity(&mut sel, chunk.len());
                apply_filter(&sp.filter, chunk, &mut sel, env)?;
                if !sel.is_empty() && !f(chunk, &sel)? {
                    break;
                }
            }
            Ok(())
        }
    }
}

/// Evaluates an index probe's row-independent key expressions.
fn probe_keys(keys: &[PExpr], env: &Env<'_>) -> Result<Pooled<Vec<Value>>> {
    let mut out = take::<Vec<Value>>();
    for k in keys {
        out.push(eval_scalar(k, env)?);
    }
    Ok(out)
}

/// The probe keys of a batch: the value of every key expression at each
/// selected row, laid end to end (see [`Table::probe_eq`]).
fn batch_keys(
    keys: &[PExpr],
    chunk: &Chunk,
    sel: &[u32],
    env: &Env<'_>,
) -> Result<Pooled<Vec<Value>>> {
    let (nk, n) = (keys.len(), sel.len());
    let mut out = take::<Vec<Value>>();
    out.resize(n * nk, Value::Null);
    for (j, e) in keys.iter().enumerate() {
        let v = eval_v(e, chunk, sel, env)?;
        for k in 0..n {
            out[k * nk + j] = v.get(k);
        }
    }
    Ok(out)
}

/// Materializes a join stage's right side as one columnar batch.
fn materialize_right_v(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    right: &RightPlan,
) -> Result<Chunk> {
    match right {
        RightPlan::Table { name, read } => {
            let t = catalog.table(name)?;
            let mut cursor = t.batch_cursor(pool)?;
            let mut chunk = Chunk::new();
            while t.next_batch(pool, &mut cursor, &mut chunk, &read.set, None, usize::MAX)? {}
            Ok(chunk)
        }
        RightPlan::Derived(sub) => {
            let chunks = run_select_chunks(pool, catalog, env.params, sub)?;
            let mut out = Chunk::new();
            for c in chunks.iter() {
                out.append(c);
            }
            Ok(out)
        }
    }
}

/// Per-execution runtime state of one join stage.
enum VStageRt {
    /// An index nested loop reads its table through the catalog.
    Index,
    Hash {
        chunk: Chunk,
        /// Single-integer-key build table (the FEM join shape): probes
        /// hash a bare `i64`, no key encoding or allocation.
        int_ht: Option<HashMap<i64, Vec<u32>>>,
        gen_ht: Option<HashMap<HashKey, Vec<u32>>>,
    },
    Loop {
        chunk: Chunk,
        emitted: u64,
    },
}

recycle!(Vec<VStageRt>, |v| keep: v.capacity() > 0 && v.capacity() <= POOL_CAP,
    reset: v.clear());

fn build_stage_rts_v(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    joins: &[JoinPlan],
) -> Result<Pooled<Vec<VStageRt>>> {
    let mut rts = take::<Vec<VStageRt>>();
    for j in joins {
        let rt = match j {
            JoinPlan::IndexLoop { .. } => VStageRt::Index,
            JoinPlan::Hash {
                right, right_cols, ..
            } => {
                let chunk = materialize_right_v(pool, catalog, env, right)?;
                let mut int_ht = None;
                let mut gen_ht = None;
                // An empty build side may hold no rows to fix its width, so
                // the column probe below is only valid when rows exist.
                if let ([c], false) = (&right_cols[..], chunk.is_empty()) {
                    if let Column::Int { vals, nulls } = chunk.col(*c) {
                        let mut ht: HashMap<i64, Vec<u32>> = HashMap::new();
                        for (i, &v) in vals.iter().enumerate() {
                            if !nulls.get(i) {
                                ht.entry(v).or_default().push(i as u32);
                            }
                        }
                        int_ht = Some(ht);
                    }
                }
                if int_ht.is_none() {
                    let mut ht: HashMap<HashKey, Vec<u32>> = HashMap::new();
                    'row: for i in 0..chunk.len() {
                        let mut vals = Vec::with_capacity(right_cols.len());
                        for &c in right_cols {
                            let v = chunk.get(c, i);
                            if v.is_null() {
                                continue 'row;
                            }
                            vals.push(v);
                        }
                        ht.entry(HashKey::from_values(&vals))
                            .or_default()
                            .push(i as u32);
                    }
                    gen_ht = Some(ht);
                }
                VStageRt::Hash {
                    chunk,
                    int_ht,
                    gen_ht,
                }
            }
            JoinPlan::Loop { right, .. } => VStageRt::Loop {
                chunk: materialize_right_v(pool, catalog, env, right)?,
                emitted: 0,
            },
        };
        rts.push(rt);
    }
    Ok(rts)
}

/// A join stage's output batch and the selection its residual left.
type StageOut = (Pooled<Chunk>, Pooled<Vec<u32>>);

/// Runs one join stage over a whole batch, producing the combined batch
/// (left columns gathered per match, right columns beside them) with the
/// stage residual already applied as its selection.
#[allow(clippy::too_many_arguments)]
fn apply_stage(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    join: &JoinPlan,
    rt: &mut VStageRt,
    chunk: &Chunk,
    sel: &[u32],
    stop: &mut bool,
) -> Result<StageOut> {
    match (join, rt) {
        (
            JoinPlan::IndexLoop {
                table,
                keys,
                path_cols,
                path,
                residual,
                read,
                ..
            },
            VStageRt::Index,
        ) => {
            let table = catalog.table(table)?;
            let keys = batch_keys(keys, chunk, sel, env)?;
            let mut right = take::<Chunk>();
            right.set_width(table.schema.columns.len());
            let mut lidx = take::<Vec<u32>>();
            let found = EqMatches {
                rows: &mut right,
                src: Some(&mut lidx),
                locs: None,
            };
            table.probe_eq(pool, *path, path_cols, &keys, &read.set, found, None)?;
            // Each match's key position in `sel` becomes its left row.
            for k in lidx.iter_mut() {
                *k = sel[*k as usize];
            }
            let mut out = take::<Chunk>();
            out.append_joined(chunk, &lidx, &right, None);
            let mut sel_out = take_sel(out.len());
            apply_filter(residual, &out, &mut sel_out, env)?;
            Ok((out, sel_out))
        }
        (
            JoinPlan::Hash {
                left_keys,
                residual,
                ..
            },
            VStageRt::Hash {
                chunk: rchunk,
                int_ht,
                gen_ht,
            },
        ) => {
            let kcols: Vec<VCol> = left_keys
                .iter()
                .map(|k| eval_v(k, chunk, sel, env))
                .collect::<Result<_>>()?;
            let mut lidx = take::<Vec<u32>>();
            let mut ridx = take::<Vec<u32>>();
            if let (Some(ht), [kc]) = (int_ht.as_ref(), &kcols[..]) {
                // Bare-integer probe: HashKey semantics make a non-integer
                // probe value never match an integer build key.
                for (k, &r) in sel.iter().enumerate() {
                    if let Some(x) = kc.int_at(k) {
                        if let Some(matches) = ht.get(&x) {
                            for &ri in matches {
                                lidx.push(r);
                                ridx.push(ri);
                            }
                        }
                    }
                }
            } else {
                let ht = gen_ht.as_ref().ok_or_else(|| {
                    SqlError::Eval("hash stage is missing its build table".into())
                })?;
                let mut vals = Vec::with_capacity(kcols.len());
                'probe: for (k, &r) in sel.iter().enumerate() {
                    vals.clear();
                    for c in &kcols {
                        let v = c.get(k);
                        if v.is_null() {
                            continue 'probe;
                        }
                        vals.push(v);
                    }
                    if let Some(matches) = ht.get(&HashKey::from_values(&vals)) {
                        for &ri in matches {
                            lidx.push(r);
                            ridx.push(ri);
                        }
                    }
                }
            }
            let mut out = take::<Chunk>();
            out.append_joined(chunk, &lidx, rchunk, Some(&ridx));
            let mut sel_out = take_sel(out.len());
            apply_filter(residual, &out, &mut sel_out, env)?;
            Ok((out, sel_out))
        }
        (
            JoinPlan::Loop { residual, .. },
            VStageRt::Loop {
                chunk: rchunk,
                emitted,
            },
        ) => {
            let rn = rchunk.len() as u32;
            let all_right: Vec<u32> = (0..rn).collect();
            let mut out = take::<Chunk>();
            // The right side is cloned once; per left row only the left
            // columns of the combined batch are rewritten in place.
            let mut comb: Option<Chunk> = None;
            for &r in sel {
                if rn == 0 {
                    break;
                }
                let lrep = vec![r; rn as usize];
                match &mut comb {
                    None => comb = Some(chunk.gather(&lrep).hcat(rchunk.gather(&all_right))),
                    Some(c) => {
                        let left = chunk.gather(&lrep).into_columns();
                        for (i, col) in left.into_iter().enumerate() {
                            c.set_column(i, col);
                        }
                    }
                }
                let c = comb
                    .as_ref()
                    .ok_or_else(|| SqlError::Eval("loop join produced no combined chunk".into()))?;
                let mut s: Vec<u32> = (0..c.len() as u32).collect();
                apply_filter(residual, c, &mut s, env)?;
                *emitted += s.len() as u64;
                // Survivors append straight into the output — no second
                // gather over the combined columns.
                out.append_gather(c, &s);
                if *emitted > LOOP_JOIN_ROW_CAP {
                    *stop = true; // runaway cross join
                    break;
                }
            }
            let sel_out = take_sel(out.len());
            Ok((out, sel_out))
        }
        _ => unreachable!("runtime built from the same join list"),
    }
}

/// Streams the FROM/WHERE pipeline batch-wise into `sink`.
fn run_from_v(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    fp: &FromPlan,
    sink: &mut dyn FnMut(&Chunk, &[u32]) -> Result<bool>,
) -> Result<()> {
    if fp.joins.is_empty() && fp.residual.is_empty() {
        return stream_source_v(pool, catalog, env, &fp.source, sink);
    }
    if fp.joins.is_empty() {
        return stream_source_v(pool, catalog, env, &fp.source, &mut |chunk, sel| {
            let mut sel = copy_sel(sel);
            apply_filter(&fp.residual, chunk, &mut sel, env)?;
            if sel.is_empty() {
                return Ok(true);
            }
            sink(chunk, &sel)
        });
    }
    // Join pipeline: the base side is materialized (index probes need the
    // buffer pool between batches).
    let mut base = take::<Vec<Chunk>>();
    stream_source_v(pool, catalog, env, &fp.source, &mut |chunk, sel| {
        let mut b = take::<Chunk>();
        b.append_gather(chunk, sel);
        base.push(b.into_inner());
        Ok(true)
    })?;
    let mut rts = build_stage_rts_v(pool, catalog, env, &fp.joins)?;
    for chunk in base.iter() {
        let mut sel = take_sel(chunk.len());
        let mut owned: Option<Pooled<Chunk>> = None;
        let mut stop = false;
        for (j, rt) in fp.joins.iter().zip(rts.iter_mut()) {
            let input: &Chunk = owned.as_deref().unwrap_or(chunk);
            let (next, nsel) = apply_stage(pool, catalog, env, j, rt, input, &sel, &mut stop)?;
            owned = Some(next);
            sel = nsel;
            if sel.is_empty() {
                break;
            }
        }
        if !sel.is_empty() {
            let out = owned.as_deref().ok_or_else(|| {
                SqlError::Eval("join pipeline finished without producing a chunk".into())
            })?;
            apply_filter(&fp.residual, out, &mut sel, env)?;
            if !sel.is_empty() && !sink(out, &sel)? {
                return Ok(());
            }
        }
        if stop {
            return Ok(());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

/// Runs every subquery slot (vectorized) against current data.
fn build_env_v<'a>(
    pool: &mut BufferPool,
    catalog: &Catalog,
    params: &'a [Value],
    subplans: &[SubPlan],
) -> Result<Env<'a>> {
    let mut subs = Vec::with_capacity(subplans.len());
    for sp in subplans {
        let res = match sp {
            SubPlan::Scalar(p) => {
                let rows = run_select_rows(pool, catalog, params, p)?;
                if rows.len() > 1 {
                    return Err(SqlError::Eval(
                        "scalar subquery returned more than one row".into(),
                    ));
                }
                match rows.into_iter().next() {
                    Some(mut row) => {
                        if row.len() != 1 {
                            return Err(SqlError::Eval(
                                "scalar subquery must return exactly one column".into(),
                            ));
                        }
                        SubResult::Scalar(row.pop().ok_or_else(|| {
                            SqlError::Eval("scalar subquery returned an empty row".into())
                        })?)
                    }
                    None => SubResult::Scalar(Value::Null),
                }
            }
            SubPlan::List(p) => {
                let rows = run_select_rows(pool, catalog, params, p)?;
                let mut list: Vec<Value> = rows
                    .into_iter()
                    .map(|mut r| {
                        if r.len() != 1 {
                            return Err(SqlError::Eval(
                                "IN subquery must return exactly one column".into(),
                            ));
                        }
                        r.pop().ok_or_else(|| {
                            SqlError::Eval("IN subquery returned an empty row".into())
                        })
                    })
                    .collect::<Result<_>>()?;
                let n = list.len();
                list.retain(|v| !v.is_null());
                let has_null = list.len() != n;
                list.sort_by(|a, b| a.total_cmp(b));
                list.dedup();
                SubResult::List(Rc::new(list), has_null)
            }
            SubPlan::Exists(p) => {
                SubResult::Exists(!run_select_rows(pool, catalog, params, p)?.is_empty())
            }
        };
        subs.push(res);
    }
    Ok(Env { params, subs })
}

/// Folds the non-NULL integers `vals` into an aggregate accumulator.
fn fold_ints(state: &mut AggState, vals: impl Iterator<Item = i64>) {
    match state {
        AggState::Count(c) => *c += vals.count() as i64,
        AggState::Min(_) => {
            if let Some(b) = vals.min() {
                state.update_int(b);
            }
        }
        AggState::Max(_) => {
            if let Some(b) = vals.max() {
                state.update_int(b);
            }
        }
        _ => vals.for_each(|x| state.update_int(x)),
    }
}

/// Vectorized update of one aggregate accumulator from a batch column:
/// integer columns fold typed, others value by value.
fn agg_update_vcol(state: &mut AggState, v: &VCol<'_>, n: usize) -> Result<()> {
    match int_view(v) {
        Some(iv) if iv.null_free() => with_src!(iv.src, |f| fold_ints(state, (0..n).map(f))),
        Some(iv) => fold_ints(state, (0..n).filter_map(|k| iv.get(k))),
        None => {
            for k in 0..n {
                state.update(Some(v.get(k)))?;
            }
        }
    }
    Ok(())
}

/// Evaluates the select items over the rows `sel` of `chunk` into a
/// recycled batch, one column per item.
fn project(items: &[PExpr], chunk: &Chunk, sel: &[u32], env: &Env<'_>) -> Result<Pooled<Chunk>> {
    let mut out = take::<Chunk>();
    out.set_width(items.len());
    for (c, p) in items.iter().enumerate() {
        let v = eval_v(p, chunk, sel, env)?;
        append_vcol(out.col_mut(c), &v, sel.len());
    }
    out.commit_rows(sel.len());
    Ok(out)
}

/// The integer values of an all-integer column (the typed window path
/// only sees those).
fn int_vals(c: &Column) -> &[i64] {
    match c {
        Column::Int { vals, .. } => vals,
        Column::Generic(_) => &[],
    }
}

/// Computes one window function over the rows of `keys` (the partition
/// key columns, the first `np`, then the order key columns) into the
/// empty column `out`. All-integer keys — both FEM E-operator shapes —
/// sort an index permutation over the typed vectors with no per-row
/// allocation; anything else goes through the shared
/// [`super::window::window_values`] engine.
fn window_column(keys: &Chunk, np: usize, w: &WindowPlan, out: &mut Column) {
    let n = keys.len();
    let cols = keys.columns();
    let (pacc, oacc) = cols.split_at(np);
    let all_int = cols
        .iter()
        .all(|c| matches!(c, Column::Int { nulls, .. } if !nulls.any()));
    if n == 0 {
        return;
    }
    if let (true, Column::Int { vals: out, nulls }) = (all_int, &mut *out) {
        let mut idx = take_sel(n);
        // The final index tiebreak reproduces the interpreter's *stable*
        // sort, so ROW_NUMBER assignment among fully-tied rows matches.
        idx.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for p in pacc {
                let p = int_vals(p);
                let ord = p[a].cmp(&p[b]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            for (o, (_, asc)) in oacc.iter().zip(&w.order) {
                let o = int_vals(o);
                let ord = o[a].cmp(&o[b]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });
        let same = |keys: &[Column], p: usize, i: usize| {
            keys.iter().all(|c| {
                let c = int_vals(c);
                c[p] == c[i]
            })
        };
        out.resize(n, 0);
        nulls.extend_valid(n);
        let mut row_num = 0i64;
        let mut rank = 0i64;
        let mut prev: Option<usize> = None;
        for &i in idx.iter() {
            let i = i as usize;
            if !prev.is_some_and(|p| same(pacc, p, i)) {
                row_num = 0;
                rank = 0;
                prev = None;
            }
            row_num += 1;
            if !prev.is_some_and(|p| same(oacc, p, i)) {
                rank = row_num;
            }
            prev = Some(i);
            out[i] = match w.func {
                crate::ast::WindowFunc::RowNumber => row_num,
                crate::ast::WindowFunc::Rank => rank,
            };
        }
        return;
    }
    // Generic fallback: per-row key tuples through the shared engine.
    let keyed: Vec<(Vec<Value>, Vec<Value>, usize)> = (0..n)
        .map(|i| {
            (
                pacc.iter().map(|c| c.get(i)).collect(),
                oacc.iter().map(|c| c.get(i)).collect(),
                i,
            )
        })
        .collect();
    let dirs: Vec<bool> = w.order.iter().map(|(_, asc)| *asc).collect();
    for v in super::window::window_values(keyed, &dirs, w.func) {
        out.push(v);
    }
}

/// Where a SELECT's result goes: rows for the engine API and subqueries,
/// batches for derived tables and INSERT sources.
enum SelectOut {
    Rows(Vec<Vec<Value>>),
    Chunks(Pooled<Vec<Chunk>>),
}

impl SelectOut {
    /// Appends the rows `keep` of `batch` (every row when `None`).
    fn push_batch(&mut self, batch: Pooled<Chunk>, keep: Option<&[u32]>) {
        match (self, keep) {
            (SelectOut::Rows(rows), Some(keep)) => {
                rows.extend(keep.iter().map(|&r| batch.row(r as usize)));
            }
            (SelectOut::Rows(rows), None) => rows.extend((0..batch.len()).map(|r| batch.row(r))),
            (SelectOut::Chunks(_), Some([])) => {}
            (SelectOut::Chunks(chunks), Some(keep)) => {
                let mut kept = take::<Chunk>();
                kept.append_gather(&batch, keep);
                chunks.push(kept.into_inner());
            }
            (SelectOut::Chunks(chunks), None) => {
                if !batch.is_empty() {
                    chunks.push(batch.into_inner());
                }
            }
        }
    }

    /// Appends one row.
    fn push_row(&mut self, row: Vec<Value>) {
        match self {
            SelectOut::Rows(rows) => rows.push(row),
            SelectOut::Chunks(chunks) => chunks.push(fempath_storage::chunk_from_rows(&[row])),
        }
    }
}

/// The tail every SELECT ends in: projection → DISTINCT → TOP/LIMIT, fed
/// the rows that are left after HAVING (and the sort), batch by batch.
#[derive(Default)]
struct Emit {
    /// Keys of the output rows DISTINCT has let through.
    seen: HashSet<HashKey>,
    /// Rows handed out so far.
    count: u64,
}

impl Emit {
    /// Projects the rows `sel` of `chunk` (every one of them, so errors
    /// surface as the interpreter's do) and hands `out` those that DISTINCT
    /// and the cap keep; returns whether more rows may follow.
    fn push(
        &mut self,
        plan: &SelectPlan,
        chunk: &Chunk,
        sel: &[u32],
        env: &Env<'_>,
        out: &mut SelectOut,
    ) -> Result<bool> {
        if sel.is_empty() {
            return Ok(true);
        }
        let oc = project(&plan.items, chunk, sel, env)?;
        // The rows of `oc` that go out; `None` is all of them.
        let mut keep: Option<Pooled<Vec<u32>>> = None;
        if plan.distinct {
            let mut k = take::<Vec<u32>>();
            let mut row = take::<Vec<Value>>();
            for r in 0..oc.len() {
                row.clear();
                row.extend(oc.columns().iter().map(|c| c.get(r)));
                if self.seen.insert(HashKey::from_values(&row)) {
                    k.push(r as u32);
                }
            }
            keep = Some(k);
        }
        let kept = keep.as_ref().map_or(oc.len(), |k| k.len()) as u64;
        let go_on = match plan.cap {
            Some(cap) if kept >= cap - self.count => {
                keep.get_or_insert_with(|| take_sel(oc.len()))
                    .truncate((cap - self.count) as usize);
                false
            }
            _ => true,
        };
        self.count += keep.as_ref().map_or(oc.len(), |k| k.len()) as u64;
        out.push_batch(oc, keep.as_deref().map(Vec::as_slice));
        Ok(go_on)
    }
}

/// Compares rows `a` and `b` of a column in the total value order
/// ([`Value::total_cmp`]: NULL first), cloning nothing.
fn cmp_rows(c: &Column, a: usize, b: usize) -> Ordering {
    match c {
        Column::Int { vals, nulls } => match (nulls.get(a), nulls.get(b)) {
            (false, false) => vals[a].cmp(&vals[b]),
            (a_null, b_null) => b_null.cmp(&a_null),
        },
        Column::Generic(v) => v[a].total_cmp(&v[b]),
    }
}

/// Reorders the rows `sel` of `data` by the ORDER BY keys, stably: rows
/// with equal keys keep their order, as in the interpreter.
fn sort_rows(
    order_by: &[(PExpr, bool)],
    data: &Chunk,
    sel: &mut Vec<u32>,
    env: &Env<'_>,
) -> Result<()> {
    let mut keys = take::<Chunk>();
    keys.set_width(order_by.len());
    for (j, (e, _)) in order_by.iter().enumerate() {
        let v = eval_v(e, data, sel, env)?;
        append_vcol(keys.col_mut(j), &v, sel.len());
    }
    keys.commit_rows(sel.len());
    // A permutation of the key positions, then back to rows of `data`.
    let mut perm = take_sel(sel.len());
    perm.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        for ((_, asc), c) in order_by.iter().zip(keys.columns()) {
            let ord = cmp_rows(c, a, b);
            if ord != Ordering::Equal {
                return if *asc { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    });
    for p in perm.iter_mut() {
        *p = sel[*p as usize];
    }
    sel.clear();
    sel.extend_from_slice(&perm);
    Ok(())
}

/// Folds the FROM pipeline into one row of accumulators (a scalar
/// aggregate: the FEM statistics statements), one batch at a time.
fn scalar_aggregate(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    from: &FromPlan,
    agg: &AggPlan,
) -> Result<Vec<Value>> {
    let mut states = take::<Vec<AggState>>();
    states.extend(agg.aggs.iter().map(|(f, _)| AggState::new(*f)));
    run_from_v(pool, catalog, env, from, &mut |chunk, sel| {
        for (state, (_, arg)) in states.iter_mut().zip(&agg.aggs) {
            match arg {
                None => state.update_star(sel.len() as i64),
                Some(a) => {
                    let v = eval_v(a, chunk, sel, env)?;
                    agg_update_vcol(state, &v, sel.len())?;
                }
            }
        }
        Ok(true)
    })?;
    Ok(states.drain(..).map(AggState::finish).collect())
}

/// Folds the FROM pipeline into one row per group in `data`: the group
/// keys, then the aggregate results.
///
/// Group keys and aggregate arguments are evaluated per batch; every row
/// is mapped to a dense group id, then each argument column folds into
/// that group's accumulators — typed, with no per-row key or value
/// materialization, when the key is a single non-NULL integer and the
/// arguments are integers (every FEM statistics statement).
fn group_aggregate(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    from: &FromPlan,
    agg: &AggPlan,
    data: &mut Chunk,
) -> Result<()> {
    let (n_keys, n_aggs) = (agg.group.len(), agg.aggs.len());
    data.set_width(n_keys + n_aggs);
    let mut ids: HashMap<HashKey, u32> = HashMap::new();
    let mut states: Vec<AggState> = Vec::new(); // group-major
    let mut gid: Vec<u32> = Vec::new();
    run_from_v(pool, catalog, env, from, &mut |chunk, sel| {
        let gcols: Vec<VCol> = agg
            .group
            .iter()
            .map(|g| eval_v(g, chunk, sel, env))
            .collect::<Result<_>>()?;
        let int_key = match &gcols[..] {
            [g] => int_view(g).filter(IntView::null_free),
            _ => None,
        };
        gid.clear();
        // Runs of one key (rows clustered by it) skip the hash lookup.
        let mut last: Option<(HashKey, u32)> = None;
        for k in 0..sel.len() {
            let key = match int_key {
                Some(iv) => HashKey::Int(iv.src.at(k)),
                None => {
                    let vals: Vec<Value> = gcols.iter().map(|c| c.get(k)).collect();
                    HashKey::from_values(&vals)
                }
            };
            let g = match &last {
                Some((prev, g)) if *prev == key => *g,
                _ => match ids.get(&key) {
                    Some(g) => *g,
                    None => {
                        let g = data.len() as u32;
                        for (j, c) in gcols.iter().enumerate() {
                            data.col_mut(j).push(c.get(k));
                        }
                        data.commit_row();
                        states.extend(agg.aggs.iter().map(|(f, _)| AggState::new(*f)));
                        ids.insert(key.clone(), g);
                        g
                    }
                },
            };
            gid.push(g);
            last = Some((key, g));
        }
        for (a, (_, arg)) in agg.aggs.iter().enumerate() {
            let slot = |k: usize| gid[k] as usize * n_aggs + a;
            let Some(e) = arg else {
                (0..sel.len()).for_each(|k| states[slot(k)].update_star(1));
                continue;
            };
            let v = eval_v(e, chunk, sel, env)?;
            match int_view(&v) {
                Some(iv) => {
                    for k in 0..sel.len() {
                        if let Some(x) = iv.get(k) {
                            states[slot(k)].update_int(x);
                        }
                    }
                }
                None => {
                    for k in 0..sel.len() {
                        states[slot(k)].update(Some(v.get(k)))?;
                    }
                }
            }
        }
        Ok(true)
    })?;
    for (i, state) in states.into_iter().enumerate() {
        data.col_mut(n_keys + i % n_aggs).push(state.finish());
    }
    Ok(())
}

/// Appends one window column to `data`, computed from keys evaluated over
/// all of its rows. Windows are added in order, so a later window's keys
/// may read an earlier one's column, exactly like the interpreter's
/// row-extension order. A top-1 window ([`WindowPlan::top1`]) narrows
/// `sel`, which lists every row of `data`, to the rows it numbers 1, in
/// input order, and numbers only those.
fn add_window_column(
    data: &mut Chunk,
    w: &WindowPlan,
    env: &Env<'_>,
    sel: &mut Vec<u32>,
) -> Result<()> {
    let np = w.partition.len();
    let n = data.len();
    let mut keys = take::<Chunk>();
    keys.set_width(np + w.order.len());
    if n > 0 {
        let sel = take_sel(n);
        let exprs = w.partition.iter().chain(w.order.iter().map(|(o, _)| o));
        for (j, e) in exprs.enumerate() {
            let v = eval_v(e, data, &sel, env)?;
            append_vcol(keys.col_mut(j), &v, n);
        }
        keys.commit_rows(n);
    }
    if !w.top1 {
        window_column(&keys, np, w, data.add_column());
        return Ok(());
    }
    top1_rows(&keys, np, w, sel);
    let out = data.add_column();
    (0..n).for_each(|_| out.push_int(1));
    Ok(())
}

/// Narrows `sel` (every row of `keys`, in order) to the rows a
/// `ROW_NUMBER()` over `keys` (partition key columns, the first `np`, then
/// the order key columns) numbers 1: per partition, the first row in
/// input order with the least order key — what the stable tie-break of
/// [`window_column`] numbers 1. All-integer keys without a NULL take one
/// pass over an open-addressing table of each partition's best row so
/// far; any other key numbers every row and keeps the 1s.
fn top1_rows(keys: &Chunk, np: usize, w: &WindowPlan, sel: &mut Vec<u32>) {
    let n = keys.len();
    if n == 0 {
        return;
    }
    let cols = keys.columns();
    let all_int = cols
        .iter()
        .all(|c| matches!(c, Column::Int { nulls, .. } if !nulls.any()));
    if !all_int {
        let mut rn = Column::new_int();
        window_column(keys, np, w, &mut rn);
        let rn = int_vals(&rn);
        sel.retain(|&r| rn.get(r as usize) == Some(&1));
        return;
    }
    let (part, order) = cols.split_at(np);
    let same_part = |a: usize, b: usize| part.iter().map(int_vals).all(|p| p[a] == p[b]);
    let before = |a: usize, b: usize| {
        for (o, (_, asc)) in order.iter().map(int_vals).zip(&w.order) {
            match o[a].cmp(&o[b]) {
                Ordering::Equal => {}
                ord => return (ord == Ordering::Less) == *asc,
            }
        }
        false
    };
    let bits = (2 * n).next_power_of_two().trailing_zeros();
    let mut slots = take::<Vec<u32>>();
    slots.resize(1 << bits, u32::MAX);
    let mask = slots.len() - 1;
    for r in 0..n {
        let h = part.iter().map(int_vals).fold(0u64, |h, p| {
            (h.rotate_left(5) ^ p[r] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        let mut s = (h >> (64 - bits)) as usize;
        loop {
            let best = slots[s];
            if best == u32::MAX {
                slots[s] = r as u32;
                break;
            }
            if same_part(best as usize, r) {
                if before(r, best as usize) {
                    slots[s] = r as u32;
                }
                break;
            }
            s = (s + 1) & mask;
        }
    }
    let mut keep = take::<Vec<u32>>();
    keep.resize(n, 0);
    for &best in slots.iter().filter(|&&b| b != u32::MAX) {
        keep[best as usize] = 1;
    }
    sel.retain(|&r| keep[r as usize] == 1);
}

/// Executes a SELECT plan batch-at-a-time into `out`.
fn run_select(
    pool: &mut BufferPool,
    catalog: &Catalog,
    params: &[Value],
    plan: &SelectPlan,
    out: &mut SelectOut,
) -> Result<()> {
    let env = build_env_v(pool, catalog, params, &plan.subplans)?;

    if plan.agg.is_none() && plan.windows.is_empty() && plan.order_by.is_empty() {
        // Fully streaming: filter → HAVING → tail, with early exit.
        if plan.cap == Some(0) {
            return Ok(());
        }
        let mut emit = Emit::default();
        run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
            let Some(h) = &plan.having else {
                return emit.push(plan, chunk, sel, &env, out);
            };
            let mut narrowed = copy_sel(sel);
            apply_pred(h, chunk, &mut narrowed, &env)?;
            emit.push(plan, chunk, &narrowed, &env, out)
        })?;
        return Ok(());
    }

    // A scalar aggregate whose select list returns the accumulators as they
    // are, with no HAVING or ORDER BY, hands its one row straight out.
    if let Some(agg) = &plan.agg {
        let as_is = plan.items.len() == agg.aggs.len()
            && plan.items.iter().zip(0..).all(|(p, i)| *p == PExpr::Col(i));
        if agg.group.is_empty() && as_is && plan.having.is_none() && plan.order_by.is_empty() {
            let row = scalar_aggregate(pool, catalog, &env, &plan.from, agg)?;
            if plan.cap != Some(0) {
                out.push_row(row);
            }
            return Ok(());
        }
    }

    // Aggregates, windows and sorts need the whole input: gather it into
    // one batch, fold or extend it, then HAVING → ORDER BY → tail.
    let mut data = take::<Chunk>();
    match &plan.agg {
        Some(agg) if agg.group.is_empty() => {
            data.push_row(&scalar_aggregate(pool, catalog, &env, &plan.from, agg)?)
        }
        Some(agg) => group_aggregate(pool, catalog, &env, &plan.from, agg, &mut data)?,
        None => {
            run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
                data.append_gather(chunk, sel);
                Ok(true)
            })?;
        }
    }
    let mut sel = take_sel(data.len());
    for w in &plan.windows {
        add_window_column(&mut data, w, &env, &mut sel)?;
    }
    if let Some(h) = &plan.having {
        apply_pred(h, &data, &mut sel, &env)?;
    }
    if !plan.order_by.is_empty() && !sel.is_empty() {
        sort_rows(&plan.order_by, &data, &mut sel, &env)?;
    }
    // A zero cap excludes every row *before* projection: no excluded
    // row's output expressions may be evaluated (`… ORDER BY x LIMIT 0`
    // with `1/0` in the select list returns empty instead of erroring),
    // matching the interpreter and the streaming branch.
    if plan.cap == Some(0) {
        return Ok(());
    }
    Emit::default().push(plan, &data, &sel, &env, out)?;
    Ok(())
}

/// Executes a SELECT plan, returning columnar results.
pub(crate) fn run_select_chunks(
    pool: &mut BufferPool,
    catalog: &Catalog,
    params: &[Value],
    plan: &SelectPlan,
) -> Result<Pooled<Vec<Chunk>>> {
    let mut out = SelectOut::Chunks(take());
    run_select(pool, catalog, params, plan, &mut out)?;
    let SelectOut::Chunks(chunks) = out else {
        unreachable!("run_select keeps its output's kind")
    };
    Ok(chunks)
}

/// Executes a SELECT plan, returning the result rows (the row boundary
/// the engine API and subqueries consume).
pub(crate) fn run_select_rows(
    pool: &mut BufferPool,
    catalog: &Catalog,
    params: &[Value],
    plan: &SelectPlan,
) -> Result<Vec<Vec<Value>>> {
    let mut out = SelectOut::Rows(Vec::new());
    run_select(pool, catalog, params, plan, &mut out)?;
    let SelectOut::Rows(rows) = out else {
        unreachable!("run_select keeps its output's kind")
    };
    Ok(rows)
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

/// Executes an INSERT plan: the source — the VALUES rows, evaluated, or
/// the query's batches — is placed into the listed columns and coerced
/// ([`Table::insert_source`]) and lands through [`Table::insert_chunk`].
pub(crate) fn run_insert(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &InsertPlan,
) -> Result<u64> {
    let full_chunks: Vec<Chunk> = {
        let catalog = &*catalog;
        let table = catalog.table(&plan.table)?;
        let cols = plan.col_positions.as_deref();
        let source = match &plan.source {
            InsertSourcePlan::Values(rows) => {
                let env = build_env_v(pool, catalog, params, &plan.subplans)?;
                let rows: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|row| row.iter().map(|e| eval_scalar(e, &env)).collect())
                    .collect::<Result<_>>()?;
                vec![table.source_chunk(rows, cols)?]
            }
            InsertSourcePlan::Query(q) => {
                // Insert-level subplans only exist for VALUES expressions; a
                // Query source's subqueries live inside its own SelectPlan.
                debug_assert!(plan.subplans.is_empty());
                run_select_chunks(pool, catalog, params, q)?.into_inner()
            }
        };
        // Coerce up front: a type error in a late chunk must surface
        // before the first chunk is inserted.
        source
            .into_iter()
            .filter(|sc| !sc.is_empty())
            .map(|sc| table.insert_source(sc, cols))
            .collect::<Result<_>>()?
    };
    let mut n = 0u64;
    let table = catalog.table_mut(&plan.table)?;
    for c in &full_chunks {
        n += table.insert_chunk(pool, c, None)?;
    }
    Ok(n)
}

/// Sink of [`match_target`]: a batch of target rows (the columns the
/// target plan reads), the selection of those that match, and the batch's
/// locators (parallel to the chunk's rows).
type MatchSink<'a> = dyn FnMut(&Chunk, &[u32], &BatchLocs) -> Result<()> + 'a;

/// Read phase shared by plain UPDATE and DELETE: finds the target rows
/// through the planned access path and streams them to `f`.
///
/// A probe ([`Table::probe_eq`]) appends the planned columns and the
/// locators of the rows its key matches; a scan decodes the planned
/// columns of every row. Either way the residual conjuncts narrow the
/// selection. When the write phase rewrites whole rows, a scan reads just
/// its predicate's columns and re-reads the rows it selects whole
/// ([`Table::fetch_chunk`], one page read per touched page).
fn match_target(
    pool: &mut BufferPool,
    table: &Table,
    target: &TargetPlan,
    env: &Env<'_>,
    f: &mut MatchSink<'_>,
) -> Result<()> {
    let mut rows = take::<Chunk>();
    let mut sel = take::<Vec<u32>>();
    let mut locs = take::<BatchLocs>();
    let filter = &target.access.filter;
    match &target.access.input {
        InputPlan::Lookup {
            cols,
            keys,
            path,
            read,
            ..
        } => {
            let found = EqMatches {
                rows: &mut rows,
                src: None,
                locs: Some(&mut locs),
            };
            table.probe_eq(
                pool,
                *path,
                cols,
                &probe_keys(keys, env)?,
                &read.set,
                found,
                None,
            )?;
            fill_identity(&mut sel, rows.len());
            apply_filter(filter, &rows, &mut sel, env)?;
            if !sel.is_empty() {
                f(&rows, &sel, &locs)?;
            }
            Ok(())
        }
        InputPlan::Scan { read, .. } => {
            let mut whole = take::<Chunk>();
            let mut picked = take::<BatchLocs>();
            let mut cursor = table.batch_cursor(pool)?;
            loop {
                rows.reset();
                locs.clear();
                let more = table.next_batch(
                    pool,
                    &mut cursor,
                    &mut rows,
                    &read.set,
                    Some(&mut locs),
                    CHUNK_CAPACITY,
                )?;
                fill_identity(&mut sel, rows.len());
                apply_filter(filter, &rows, &mut sel, env)?;
                if !sel.is_empty() && target.whole_rows {
                    picked.clear();
                    picked.extend_selected(&locs, &sel);
                    whole.reset();
                    table.fetch_chunk(pool, &picked, 0, &mut whole, &ColSet::all())?;
                    fill_identity(&mut sel, whole.len());
                    f(&whole, &sel, &picked)?;
                } else if !sel.is_empty() {
                    f(&rows, &sel, &locs)?;
                }
                if !more {
                    return Ok(());
                }
            }
        }
        InputPlan::Nothing | InputPlan::Derived(_) => {
            unreachable!("DML targets are planned as base-table accesses")
        }
    }
}

/// Materializes a DML source as batches (the probes that follow need the
/// buffer pool between batches).
fn collect_source_chunks(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    sp: &SourcePlan,
) -> Result<Pooled<Vec<Chunk>>> {
    if let (InputPlan::Derived(sub), true) = (&sp.input, sp.filter.is_empty()) {
        return run_select_chunks(pool, catalog, env.params, sub);
    }
    let mut out = take::<Vec<Chunk>>();
    stream_source_v(pool, catalog, env, sp, &mut |chunk, sel| {
        let mut c = take::<Chunk>();
        c.append_gather(chunk, sel);
        out.push(c.into_inner());
        Ok(true)
    })?;
    Ok(out)
}

/// The matches of one source batch's probes into a DML target: the target
/// columns the plan fetches followed by the source columns it reads, one
/// row per (target row, source row) pair, in source order.
struct Matches {
    /// Combined target+source rows (bound offsets of both sides apply).
    rows: Pooled<Chunk>,
    /// Locator of each pair's target row.
    locs: Pooled<BatchLocs>,
    /// Source batch row of each pair.
    src: Pooled<Vec<u32>>,
    /// Every probe key was a non-NULL integer.
    int_keys: bool,
}

/// Probes `table` once per row of the source batch `sc` (vectorized key
/// evaluation, one [`Table::probe_eq`] for the batch: one index descent
/// per row, NULL keys never match, the matched rows' planned columns
/// fetched in one pass). `walked`, when given, receives the source rows
/// in the key order the probe walked them in.
fn probe_source_chunk(
    pool: &mut BufferPool,
    table: &Table,
    probe: &ProbePlan,
    sc: &Chunk,
    env: &Env<'_>,
    walked: Option<&mut Vec<u32>>,
) -> Result<Matches> {
    let keys = batch_keys(&probe.keys, sc, &take_sel(sc.len()), env)?;
    let mut m = Matches {
        rows: take(),
        locs: take(),
        src: take(),
        int_keys: keys.iter().all(|v| matches!(v, Value::Int(_))),
    };
    m.rows.set_width(table.schema.columns.len());
    let found = EqMatches {
        rows: &mut m.rows,
        src: Some(&mut m.src),
        locs: Some(&mut m.locs),
    };
    let (cols, read) = (&probe.cols, &probe.read.set);
    table.probe_eq(pool, probe.path, cols, &keys, read, found, walked)?;
    if !m.rows.is_empty() {
        m.rows.hcat_gather(sc, &m.src, &probe.source_read);
    }
    Ok(m)
}

/// One statement's pending row updates in columnar form: locators, the
/// new value of every assigned column (one column of `vals` each), and —
/// when the write phase rewrites whole rows — the rows as stored.
struct PendingUpdates<'p> {
    assign_cols: &'p [usize],
    mode: UpdateMode,
    locs: Pooled<BatchLocs>,
    vals: Pooled<Chunk>,
    old: Pooled<Chunk>,
}

impl<'p> PendingUpdates<'p> {
    fn new(assign_cols: &'p [usize], mode: UpdateMode) -> Self {
        let mut vals = take::<Chunk>();
        vals.set_width(assign_cols.len());
        PendingUpdates {
            assign_cols,
            mode,
            locs: take(),
            vals,
            old: take(),
        }
    }

    /// Evaluates `assigns` over the selected rows of `rows` (target
    /// columns first) and queues the coerced results for `locs[sel]`.
    fn push(
        &mut self,
        table: &Table,
        assigns: &[PExpr],
        rows: &Chunk,
        sel: &[u32],
        locs: &BatchLocs,
        env: &Env<'_>,
    ) -> Result<()> {
        for (j, (&c, a)) in self.assign_cols.iter().zip(assigns).enumerate() {
            let v = eval_v(a, rows, sel, env)?;
            append_coerced(table, c, v, sel.len(), self.vals.col_mut(j))?;
        }
        self.vals.commit_rows(sel.len());
        self.locs.extend_selected(locs, sel);
        if self.mode == UpdateMode::Rewrite {
            self.old
                .append_gather_prefix(rows, sel, table.schema.columns.len());
        }
        Ok(())
    }

    /// Write phase; returns the number of rows updated.
    fn apply(self, pool: &mut BufferPool, table: &mut Table) -> Result<u64> {
        table.update_rows(
            pool,
            &self.locs,
            self.assign_cols,
            self.vals.columns(),
            &self.old,
            self.mode,
        )
    }
}

/// Executes an UPDATE plan, columnar end to end: the read phase finds the
/// target rows (a planned scan or probe, or one probe per source row for
/// `UPDATE … FROM`), narrows them with vectorized residuals and evaluates
/// the assignments over the survivors; the write phase takes locators
/// plus the assigned columns.
pub(crate) fn run_update(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &UpdatePlan,
) -> Result<u64> {
    let mut pending = PendingUpdates::new(&plan.assign_cols, plan.mode);
    {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let table = catalog.table(&plan.table)?;
        match &plan.kind {
            UpdateKind::Plain { target, assigns } => {
                match_target(pool, table, target, &env, &mut |rows, sel, locs| {
                    pending.push(table, assigns, rows, sel, locs, &env)
                })?;
            }
            UpdateKind::From {
                source,
                probe,
                target_residual,
                mixed_residual,
                assigns,
            } => {
                let sources = collect_source_chunks(pool, catalog, &env, source)?;
                for sc in sources.iter().filter(|c| !c.is_empty()) {
                    let m = probe_source_chunk(pool, table, probe, sc, &env, None)?;
                    let mut sel = take_sel(m.rows.len());
                    apply_filter(target_residual, &m.rows, &mut sel, &env)?;
                    apply_filter(mixed_residual, &m.rows, &mut sel, &env)?;
                    if !sel.is_empty() {
                        pending.push(table, assigns, &m.rows, &sel, &m.locs, &env)?;
                    }
                }
            }
        }
    }
    pending.apply(pool, catalog.table_mut(&plan.table)?)
}

/// Executes a DELETE plan: the read phase collects the locators and
/// indexed columns of the matching rows, the write phase removes them
/// with page-grouped deletes.
pub(crate) fn run_delete(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &super::DeletePlan,
) -> Result<u64> {
    let mut locs = take::<BatchLocs>();
    let mut rows = take::<Chunk>();
    {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let table = catalog.table(&plan.table)?;
        match_target(pool, table, &plan.target, &env, &mut |chunk, sel, found| {
            locs.extend_selected(found, sel);
            rows.append_gather(chunk, sel);
            Ok(())
        })?;
    }
    catalog
        .table_mut(&plan.table)?
        .delete_rows(pool, &locs, &rows)?;
    Ok(locs.len() as u64)
}

/// Executes a MERGE plan: the source (the expensive E-operator select)
/// runs vectorized; each source batch probes the target once per row and
/// fetches what the ON residual, the WHEN MATCHED condition and the SET
/// expressions read of the matched rows in one pass; those expressions
/// and the NOT MATCHED values are evaluated column-wise; the write phase
/// applies the assigned columns by locator, then inserts one chunk. When
/// the probe proves the inserted keys absent, the key order it walked the
/// source in is handed on to the insert, which writes in it.
pub(crate) fn run_merge(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &MergePlan,
) -> Result<u64> {
    let matched_cols = plan.matched.as_ref().map_or(&[][..], |(_, cols, _)| cols);
    let mut pending = PendingUpdates::new(matched_cols, plan.mode);
    let mut inserts = take::<Chunk>();
    let mut keys_probed = plan.insert_keys_probed;
    // The rows of `inserts` in key order, while one source batch has
    // supplied them all.
    let mut by_key = take::<Vec<u32>>();
    {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let table = catalog.table(&plan.target)?;
        inserts.set_width(table.schema.columns.len());
        let sources = collect_source_chunks(pool, catalog, &env, &plan.source)?;
        let mut matched = take::<Vec<u32>>();
        let mut walked = take::<Vec<u32>>();
        for sc in sources.iter().filter(|c| !c.is_empty()) {
            walked.clear();
            let walk = keys_probed.is_some().then_some(&mut *walked);
            let m = probe_source_chunk(pool, table, &plan.probe, sc, &env, walk)?;
            if !m.int_keys {
                keys_probed = None;
            }
            let mut sel = take_sel(m.rows.len());
            apply_filter(&plan.residual, &m.rows, &mut sel, &env)?;
            // Which source rows the ON condition matched (1) or not (0).
            matched.clear();
            matched.resize(sc.len(), 0);
            for &r in sel.iter() {
                matched[m.src[r as usize] as usize] = 1;
            }
            if let Some((cond, _, exprs)) = &plan.matched {
                if let Some(c) = cond {
                    apply_pred(c, &m.rows, &mut sel, &env)?;
                }
                if !sel.is_empty() {
                    pending.push(table, exprs, &m.rows, &sel, &m.locs, &env)?;
                }
            }
            let Some((cols, exprs)) = &plan.not_matched else {
                continue;
            };
            sel.clear();
            sel.extend((0..sc.len() as u32).filter(|&k| matched[k as usize] == 0));
            if sel.is_empty() {
                continue;
            }
            if inserts.is_empty() && walked.len() == sc.len() {
                // Each unmatched source row's place among the inserts.
                matched.fill(u32::MAX);
                for (j, &k) in sel.iter().enumerate() {
                    matched[k as usize] = j as u32;
                }
                let places = walked.iter().map(|&k| matched[k as usize]);
                by_key.extend(places.filter(|&j| j != u32::MAX));
            }
            let n = sel.len();
            for (&c, e) in cols.iter().zip(exprs) {
                let v = eval_v(e, sc, &sel, &env)?;
                append_coerced(table, c, v, n, inserts.col_mut(c))?;
            }
            for c in (0..inserts.width()).filter(|c| !cols.contains(c)) {
                let col = inserts.col_mut(c);
                (0..n).for_each(|_| col.push_null());
            }
            inserts.commit_rows(n);
        }
    }
    let table = catalog.table_mut(&plan.target)?;
    let updated = pending.apply(pool, table)?;
    let absent = keys_probed.map(|key| AbsentKeys {
        key,
        by_key: &by_key,
    });
    Ok(updated + table.insert_chunk(pool, &inserts, absent)?)
}
