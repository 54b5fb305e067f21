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
//! The inherently per-row pieces (probe keys, `VALUES` rows, post-sort
//! projection) use the scalar kernel in [`super::exec`].
//!
//! Per-*column* fallback to generic `Value` vectors (mixed/text/float
//! columns) keeps behaviour identical to the AST interpreter, which
//! remains the differential oracle. Two deliberate, bounded divergences
//! from strict row-at-a-time evaluation order exist, both documented in
//! DESIGN.md §11: predicates are evaluated eagerly across a batch (an
//! error in a row a row-at-a-time evaluator would not have reached under
//! a `TOP n` cap can surface), and the runaway-cross-join safety valve
//! truncates at batch rather than row granularity.

use super::exec::{self, Env, SubResult};
use super::{
    FromPlan, InputPlan, InsertPlan, InsertSourcePlan, JoinPlan, MergePlan, PExpr, ProbePlan,
    RightPlan, SelectPlan, SourcePlan, SubPlan, TargetPlan, UpdateKind, UpdatePlan,
};
use crate::ast::{BinaryOp, UnaryOp};
use crate::catalog::{BatchLocs, Catalog, EqMatches, Table, UpdateMode};
use crate::error::{Result, SqlError};
use crate::exec::agg::AggState;
use crate::exec::eval::{arith, in_list_result, truthy, HashKey};
use fempath_storage::{
    encode_key, BufferPool, Chunk, ColSet, Column, NullMask, Value, CHUNK_CAPACITY,
};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Chunk reuse
// ---------------------------------------------------------------------------

thread_local! {
    /// Recycled chunks: a fresh 7-column chunk costs ~14 vector
    /// allocations, which dominates point statements (the BDJ inner
    /// loop); a recycled one costs a few pointer resets. Executions are
    /// single-threaded per session, so a thread-local free list is safe —
    /// recursive consumers (derived tables, subqueries) simply take
    /// additional chunks.
    static CHUNK_POOL: std::cell::RefCell<Vec<Chunk>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Recycled selection vectors: every scanned batch starts from the
    /// identity selection, and a point statement would otherwise allocate
    /// one per execution.
    static SEL_POOL: std::cell::RefCell<Vec<Vec<u32>>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Pool bound — beyond this, returned chunks are simply dropped.
const CHUNK_POOL_CAP: usize = 16;

fn take_chunk() -> Chunk {
    CHUNK_POOL
        .with(|p| p.borrow_mut().pop())
        .map(|mut c| {
            c.reset_for_reuse();
            c
        })
        .unwrap_or_default()
}

fn put_chunk(c: Chunk) {
    // A skewed probe can blow a chunk far past the target batch size;
    // pooling it would pin that peak allocation for the thread's
    // lifetime, so oversized chunks are dropped instead.
    if c.len() > 4 * CHUNK_CAPACITY {
        return;
    }
    CHUNK_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < CHUNK_POOL_CAP {
            p.push(c);
        }
    });
}

/// The identity selection `0..n`, in a recycled buffer.
fn take_sel(n: usize) -> Vec<u32> {
    let mut sel = SEL_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    fill_identity(&mut sel, n);
    sel
}

/// Resets `sel` to the identity selection `0..n`.
fn fill_identity(sel: &mut Vec<u32>, n: usize) {
    sel.clear();
    sel.extend(0..n as u32);
}

fn put_sel(sel: Vec<u32>) {
    if sel.capacity() > 4 * CHUNK_CAPACITY {
        return; // same peak-pinning concern as `put_chunk`
    }
    SEL_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < CHUNK_POOL_CAP {
            p.push(sel);
        }
    });
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation
// ---------------------------------------------------------------------------

/// An evaluated expression over one batch, dense over the selection it was
/// evaluated with (`len == sel.len()`), except for the broadcast constant.
enum VCol {
    /// Row-independent value (constants, parameters, scalar subqueries).
    Const(Value),
    /// Typed integers; `nulls: None` means no row is NULL.
    Int {
        vals: Vec<i64>,
        nulls: Option<NullMask>,
    },
    /// Generic fallback.
    Generic(Vec<Value>),
}

impl VCol {
    /// Value at dense position `k`.
    fn get(&self, k: usize) -> Value {
        match self {
            VCol::Const(v) => v.clone(),
            VCol::Int { vals, nulls } => {
                if nulls.as_ref().is_some_and(|m| m.get(k)) {
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
            VCol::Int { nulls, .. } => nulls.as_ref().is_some_and(|m| m.get(k)),
            VCol::Generic(v) => v[k].is_null(),
        }
    }

    /// SQL truthiness at `k` (NULL is not true) without cloning.
    fn truthy(&self, k: usize) -> bool {
        match self {
            VCol::Const(v) => truthy(v),
            VCol::Int { vals, nulls } => !nulls.as_ref().is_some_and(|m| m.get(k)) && vals[k] != 0,
            VCol::Generic(v) => truthy(&v[k]),
        }
    }

    /// `Some(i)` when position `k` holds exactly an integer (`None` for
    /// NULL or any non-integer value).
    fn int_at(&self, k: usize) -> Option<i64> {
        match self {
            VCol::Const(Value::Int(i)) => Some(*i),
            VCol::Const(_) => None,
            VCol::Int { vals, nulls } => {
                if nulls.as_ref().is_some_and(|m| m.get(k)) {
                    None
                } else {
                    Some(vals[k])
                }
            }
            VCol::Generic(v) => match &v[k] {
                Value::Int(i) => Some(*i),
                _ => None,
            },
        }
    }
}

/// Converts an evaluated column into a storage [`Column`] of `n` rows.
fn vcol_into_column(v: VCol, n: usize) -> Column {
    match v {
        VCol::Int { vals, nulls } => Column::Int {
            vals,
            nulls: nulls.unwrap_or_else(|| NullMask::all_valid(n)),
        },
        VCol::Generic(vals) => Column::Generic(vals),
        VCol::Const(val) => Column::repeat(&val, n),
    }
}

fn vcols_to_chunk(cols: Vec<VCol>, n: usize) -> Chunk {
    let out: Vec<Column> = cols.into_iter().map(|c| vcol_into_column(c, n)).collect();
    Chunk::from_columns(out, n)
}

/// Column-to-column view used by the typed arithmetic/comparison loops:
/// a dense int slice, a broadcast scalar, or a broadcast NULL.
enum IntView<'a> {
    Slice(&'a [i64], Option<&'a NullMask>),
    Scalar(i64),
    Null,
}

/// An all-integer view of an evaluated column, when one exists.
fn int_view(v: &VCol) -> Option<IntView<'_>> {
    match v {
        VCol::Const(Value::Int(i)) => Some(IntView::Scalar(*i)),
        VCol::Const(Value::Null) => Some(IntView::Null),
        VCol::Const(_) => None,
        VCol::Int { vals, nulls } => Some(IntView::Slice(vals, nulls.as_ref())),
        VCol::Generic(_) => None,
    }
}

impl IntView<'_> {
    #[inline]
    fn get(&self, k: usize) -> Option<i64> {
        match self {
            IntView::Slice(vals, nulls) => {
                if nulls.is_some_and(|m| m.get(k)) {
                    None
                } else {
                    Some(vals[k])
                }
            }
            IntView::Scalar(i) => Some(*i),
            IntView::Null => None,
        }
    }
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
fn eval_v(e: &PExpr, chunk: &Chunk, sel: &[u32], env: &Env<'_>) -> Result<VCol> {
    debug_assert!(!sel.is_empty());
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
        PExpr::Col(i) => match chunk.col(*i) {
            Column::Int { vals, nulls } => {
                let mut out = Vec::with_capacity(sel.len());
                if nulls.any() {
                    let mut m = NullMask::new();
                    for &r in sel {
                        out.push(vals[r as usize]);
                        m.push(nulls.get(r as usize));
                    }
                    let nulls = if m.any() { Some(m) } else { None };
                    VCol::Int { vals: out, nulls }
                } else {
                    for &r in sel {
                        out.push(vals[r as usize]);
                    }
                    VCol::Int {
                        vals: out,
                        nulls: None,
                    }
                }
            }
            Column::Generic(v) => {
                VCol::Generic(sel.iter().map(|&r| v[r as usize].clone()).collect())
            }
        },
        PExpr::Unary { op, e } => {
            let v = eval_v(e, chunk, sel, env)?;
            match op {
                UnaryOp::Neg => match &v {
                    VCol::Int { vals, nulls } => VCol::Int {
                        vals: vals.iter().map(|&i| -i).collect(),
                        nulls: nulls.clone(),
                    },
                    other => {
                        let mut out = Column::new_int();
                        for k in 0..sel.len() {
                            out.push(match other.get(k) {
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
                    let mut vals = Vec::with_capacity(sel.len());
                    let mut m = NullMask::new();
                    for k in 0..sel.len() {
                        if v.is_null(k) {
                            vals.push(0);
                            m.push(true);
                        } else {
                            vals.push(i64::from(!v.truthy(k)));
                            m.push(false);
                        }
                    }
                    VCol::Int {
                        vals,
                        nulls: if m.any() { Some(m) } else { None },
                    }
                }
            }
        }
        PExpr::IsNull { e, negated } => {
            let v = eval_v(e, chunk, sel, env)?;
            let vals: Vec<i64> = (0..sel.len())
                .map(|k| i64::from(v.is_null(k) != *negated))
                .collect();
            VCol::Int { vals, nulls: None }
        }
        PExpr::InSub { e, sub, negated } => {
            let v = eval_v(e, chunk, sel, env)?;
            let SubResult::List(list, has_null) = &env.subs[*sub] else {
                unreachable!("slot kind fixed at plan time")
            };
            let mut out = Column::new_int();
            for k in 0..sel.len() {
                out.push(in_list_result(&v.get(k), list, *has_null, *negated));
            }
            column_to_vcol(out)
        }
        PExpr::Binary { l, op, r } => return eval_binary(l, *op, r, chunk, sel, env),
    })
}

/// Converts a push-built column into an evaluated column.
fn column_to_vcol(c: Column) -> VCol {
    match c {
        Column::Int { vals, nulls } => {
            let nulls = if nulls.any() { Some(nulls) } else { None };
            VCol::Int { vals, nulls }
        }
        Column::Generic(v) => VCol::Generic(v),
    }
}

fn eval_binary(
    l: &PExpr,
    op: BinaryOp,
    r: &PExpr,
    chunk: &Chunk,
    sel: &[u32],
    env: &Env<'_>,
) -> Result<VCol> {
    // AND/OR keep the interpreter's per-row short-circuit: the right side is
    // only evaluated for rows the left side did not decide, so an error in
    // the right operand surfaces for exactly the rows it would have.
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let and = op == BinaryOp::And;
        let lv = eval_v(l, chunk, sel, env)?;
        let mut need: Vec<u32> = Vec::new();
        let mut need_pos: Vec<usize> = Vec::new();
        for (k, &r0) in sel.iter().enumerate() {
            let ln = lv.is_null(k);
            let lt = lv.truthy(k);
            // AND is decided (false) when l is false; OR is decided (true)
            // when l is true.
            let decided = if and { !ln && !lt } else { lt };
            if !decided {
                need.push(r0);
                need_pos.push(k);
            }
        }
        let decided_val = i64::from(!and);
        let mut vals = vec![decided_val; sel.len()];
        let mut m = NullMask::all_valid(sel.len());
        if !need.is_empty() {
            let rv = eval_v(r, chunk, &need, env)?;
            for (j, &k) in need_pos.iter().enumerate() {
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
                        m.set_null(k);
                    }
                }
            }
        }
        let nulls = if m.any() { Some(m) } else { None };
        return Ok(VCol::Int { vals, nulls });
    }

    let lv = eval_v(l, chunk, sel, env)?;
    let rv = eval_v(r, chunk, sel, env)?;
    let n = sel.len();

    if let (Some(a), Some(b)) = (int_view(&lv), int_view(&rv)) {
        if is_cmp(op) {
            let mut vals = Vec::with_capacity(n);
            let mut m = NullMask::new();
            // The fully-dense slice/slice and slice/scalar shapes are the
            // FEM hot loops; the generic Option walk covers the rest.
            match (&a, &b) {
                (IntView::Slice(av, None), IntView::Slice(bv, None)) => {
                    for k in 0..n {
                        vals.push(i64::from(cmp_holds(op, av[k].cmp(&bv[k]))));
                    }
                    return Ok(VCol::Int { vals, nulls: None });
                }
                (IntView::Slice(av, None), IntView::Scalar(x)) => {
                    for v in av.iter() {
                        vals.push(i64::from(cmp_holds(op, v.cmp(x))));
                    }
                    return Ok(VCol::Int { vals, nulls: None });
                }
                (IntView::Scalar(x), IntView::Slice(bv, None)) => {
                    for v in bv.iter() {
                        vals.push(i64::from(cmp_holds(op, x.cmp(v))));
                    }
                    return Ok(VCol::Int { vals, nulls: None });
                }
                _ => {}
            }
            for k in 0..n {
                match (a.get(k), b.get(k)) {
                    (Some(x), Some(y)) => {
                        vals.push(i64::from(cmp_holds(op, x.cmp(&y))));
                        m.push(false);
                    }
                    _ => {
                        vals.push(0);
                        m.push(true);
                    }
                }
            }
            let nulls = if m.any() { Some(m) } else { None };
            return Ok(VCol::Int { vals, nulls });
        }
        if is_arith(op) {
            let mut vals = Vec::with_capacity(n);
            let mut m = NullMask::new();
            let mut any_null = false;
            match (&a, &b, op) {
                // Dense no-null fast loops for the additive FEM shapes.
                (IntView::Slice(av, None), IntView::Slice(bv, None), BinaryOp::Add) => {
                    for k in 0..n {
                        vals.push(av[k].wrapping_add(bv[k]));
                    }
                    return Ok(VCol::Int { vals, nulls: None });
                }
                (IntView::Slice(av, None), IntView::Scalar(x), BinaryOp::Add) => {
                    for v in av.iter() {
                        vals.push(v.wrapping_add(*x));
                    }
                    return Ok(VCol::Int { vals, nulls: None });
                }
                (IntView::Slice(av, None), IntView::Scalar(x), BinaryOp::Mul) => {
                    for v in av.iter() {
                        vals.push(v.wrapping_mul(*x));
                    }
                    return Ok(VCol::Int { vals, nulls: None });
                }
                _ => {}
            }
            for k in 0..n {
                match (a.get(k), b.get(k)) {
                    (Some(x), Some(y)) => {
                        let v = match op {
                            BinaryOp::Add => x.wrapping_add(y),
                            BinaryOp::Sub => x.wrapping_sub(y),
                            BinaryOp::Mul => x.wrapping_mul(y),
                            BinaryOp::Div => {
                                if y == 0 {
                                    return Err(SqlError::Eval("division by zero".into()));
                                }
                                x.wrapping_div(y)
                            }
                            BinaryOp::Mod => {
                                if y == 0 {
                                    return Err(SqlError::Eval("division by zero".into()));
                                }
                                x.wrapping_rem(y)
                            }
                            _ => unreachable!(),
                        };
                        vals.push(v);
                        m.push(false);
                    }
                    _ => {
                        vals.push(0);
                        m.push(true);
                        any_null = true;
                    }
                }
            }
            let nulls = if any_null { Some(m) } else { None };
            return Ok(VCol::Int { vals, nulls });
        }
        unreachable!("AND/OR handled above");
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

/// Narrows `sel` to the rows where `p` is true. The single hot shape —
/// `col <cmp> const/param` and `col <cmp> col` over integer columns —
/// filters the chunk columns directly, with no intermediate result vector.
fn apply_pred(p: &PExpr, chunk: &Chunk, sel: &mut Vec<u32>, env: &Env<'_>) -> Result<()> {
    if sel.is_empty() {
        return Ok(());
    }
    if let PExpr::Binary { l, op, r } = p {
        if is_cmp(*op) {
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
                        sel.retain(|&i| {
                            let i = i as usize;
                            !na.get(i) && !nb.get(i) && cmp_holds(*op, va[i].cmp(&vb[i]))
                        });
                        return Ok(());
                    }
                }
                (PExpr::Col(a), rhs) => {
                    if let Some(v) = scalar_operand(rhs, env)? {
                        if let (Column::Int { vals, nulls }, Value::Int(x)) = (chunk.col(*a), &v) {
                            sel.retain(|&i| {
                                let i = i as usize;
                                !nulls.get(i) && cmp_holds(*op, vals[i].cmp(x))
                            });
                            return Ok(());
                        }
                        if v.is_null() {
                            sel.clear(); // col <cmp> NULL is never true
                            return Ok(());
                        }
                    }
                }
                (lhs, PExpr::Col(a)) => {
                    if let Some(v) = scalar_operand(lhs, env)? {
                        if let (Column::Int { vals, nulls }, Value::Int(x)) = (chunk.col(*a), &v) {
                            sel.retain(|&i| {
                                let i = i as usize;
                                !nulls.get(i) && cmp_holds(*op, x.cmp(&vals[i]))
                            });
                            return Ok(());
                        }
                        if v.is_null() {
                            sel.clear();
                            return Ok(());
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let v = eval_v(p, chunk, sel, env)?;
    let mut k = 0usize;
    sel.retain(|_| {
        let keep = v.truthy(k);
        k += 1;
        keep
    });
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
            if exec::passes(&sp.filter, &[], env)? {
                let mut ch = Chunk::new();
                ch.push_empty_row();
                f(&ch, &[0])?;
            }
            Ok(())
        }
        InputPlan::Scan { table, read, .. } => {
            let t = catalog.table(table)?;
            let mut cursor = t.batch_cursor(pool)?;
            let mut chunk = take_chunk();
            let mut sel = take_sel(0);
            let res = (|| loop {
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
            })();
            put_chunk(chunk);
            put_sel(sel);
            res
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
            let mut chunk = take_chunk();
            let res = (|| {
                let found = EqMatches {
                    rows: &mut chunk,
                    src: None,
                    locs: None,
                };
                t.probe_eq(pool, *path, cols, &key_vals, &read.set, found)?;
                if !chunk.is_empty() {
                    let mut sel = take_sel(chunk.len());
                    apply_filter(&sp.filter, &chunk, &mut sel, env)?;
                    if !sel.is_empty() {
                        f(&chunk, &sel)?;
                    }
                    put_sel(sel);
                }
                Ok(())
            })();
            put_chunk(chunk);
            res
        }
        InputPlan::Derived(sub) => {
            let chunks = run_select_chunks(pool, catalog, env.params, sub)?;
            for chunk in &chunks {
                if chunk.is_empty() {
                    continue;
                }
                let mut sel = take_sel(chunk.len());
                apply_filter(&sp.filter, chunk, &mut sel, env)?;
                let go = sel.is_empty() || f(chunk, &sel)?;
                put_sel(sel);
                if !go {
                    break;
                }
            }
            Ok(())
        }
    }
}

/// Evaluates an index probe's row-independent key expressions.
fn probe_keys(keys: &[PExpr], env: &Env<'_>) -> Result<Vec<Value>> {
    keys.iter().map(|k| exec::eval_px(k, &[], env)).collect()
}

/// The probe keys of a batch: the value of every key column at each of
/// the `n` dense positions, laid end to end (see [`Table::probe_eq`]).
fn batch_keys(kcols: &[VCol], n: usize) -> Vec<Value> {
    let mut keys = Vec::with_capacity(n * kcols.len());
    for k in 0..n {
        keys.extend(kcols.iter().map(|c| c.get(k)));
    }
    keys
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
            for c in &chunks {
                out.append(c);
            }
            Ok(out)
        }
    }
}

/// Per-execution runtime state of one join stage.
enum VStageRt<'a> {
    Index {
        table: &'a Table,
    },
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

fn build_stage_rts_v<'a>(
    pool: &mut BufferPool,
    catalog: &'a Catalog,
    env: &Env<'_>,
    joins: &[JoinPlan],
) -> Result<Vec<VStageRt<'a>>> {
    let mut rts = Vec::with_capacity(joins.len());
    for j in joins {
        let rt = match j {
            JoinPlan::IndexLoop { table, .. } => VStageRt::Index {
                table: catalog.table(table)?,
            },
            JoinPlan::Hash {
                right, right_cols, ..
            } => {
                let chunk = materialize_right_v(pool, catalog, env, right)?;
                let mut int_ht = None;
                let mut gen_ht = None;
                // An empty build side materializes as a zero-column chunk
                // (no row ever fixed its width), so the column probe below
                // is only valid when rows exist.
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
                        ht.entry(HashKey::from_values(&vals)?)
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

/// Runs one join stage over a whole batch, producing the combined batch
/// (left columns gathered per match, right columns appended) with the
/// stage residual already applied as its selection.
fn apply_stage(
    pool: &mut BufferPool,
    env: &Env<'_>,
    join: &JoinPlan,
    rt: &mut VStageRt<'_>,
    chunk: &Chunk,
    sel: &[u32],
    stop: &mut bool,
) -> Result<(Chunk, Vec<u32>)> {
    match (join, rt) {
        (
            JoinPlan::IndexLoop {
                keys,
                path_cols,
                path,
                residual,
                read,
                ..
            },
            VStageRt::Index { table },
        ) => {
            let kcols: Vec<VCol> = keys
                .iter()
                .map(|k| eval_v(k, chunk, sel, env))
                .collect::<Result<_>>()?;
            let keys = batch_keys(&kcols, sel.len());
            let mut right = Chunk::new();
            let mut lidx: Vec<u32> = Vec::new();
            let found = EqMatches {
                rows: &mut right,
                src: Some(&mut lidx),
                locs: None,
            };
            table.probe_eq(pool, *path, path_cols, &keys, &read.set, found)?;
            // Each match's key position in `sel` becomes its left row.
            for k in &mut lidx {
                *k = sel[*k as usize];
            }
            let out = chunk.gather(&lidx).hcat(right);
            let mut sel_out: Vec<u32> = (0..out.len() as u32).collect();
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
            let mut lidx: Vec<u32> = Vec::new();
            let mut ridx: Vec<u32> = Vec::new();
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
                    if let Some(matches) = ht.get(&HashKey::from_values(&vals)?) {
                        for &ri in matches {
                            lidx.push(r);
                            ridx.push(ri);
                        }
                    }
                }
            }
            let out = chunk.gather(&lidx).hcat(rchunk.gather(&ridx));
            let mut sel_out: Vec<u32> = (0..out.len() as u32).collect();
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
            let mut out = Chunk::new();
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
                if *emitted > exec::LOOP_JOIN_ROW_CAP {
                    *stop = true; // runaway cross join
                    break;
                }
            }
            let sel_out: Vec<u32> = (0..out.len() as u32).collect();
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
            let mut sel = sel.to_vec();
            apply_filter(&fp.residual, chunk, &mut sel, env)?;
            if sel.is_empty() {
                return Ok(true);
            }
            sink(chunk, &sel)
        });
    }
    // Join pipeline: the base side is materialized (index probes need the
    // buffer pool between batches).
    let mut base: Vec<Chunk> = Vec::new();
    stream_source_v(pool, catalog, env, &fp.source, &mut |chunk, sel| {
        base.push(chunk.gather(sel));
        Ok(true)
    })?;
    let mut rts = build_stage_rts_v(pool, catalog, env, &fp.joins)?;
    for chunk in &base {
        if chunk.is_empty() {
            continue;
        }
        let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
        let mut owned: Option<Chunk> = None;
        let mut stop = false;
        for (j, rt) in fp.joins.iter().zip(rts.iter_mut()) {
            let input: &Chunk = owned.as_ref().unwrap_or(chunk);
            let (next, nsel) = apply_stage(pool, env, j, rt, input, &sel, &mut stop)?;
            owned = Some(next);
            sel = nsel;
            if sel.is_empty() {
                break;
            }
        }
        if !sel.is_empty() {
            let out = owned.as_ref().ok_or_else(|| {
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

/// Vectorized update of one aggregate accumulator from a batch column.
fn agg_update_vcol(state: &mut AggState, v: &VCol, n: usize) -> Result<()> {
    if let VCol::Int { vals, nulls } = v {
        match state {
            AggState::Count(c) => {
                let null_count = nulls.as_ref().map_or(0, |m| m.count());
                *c += (n - null_count) as i64;
            }
            AggState::SumInt {
                acc, any, float, ..
            } => {
                let mut saw = false;
                match nulls {
                    None => {
                        for &x in vals {
                            *acc = acc.wrapping_add(x);
                            *float += x as f64;
                        }
                        saw = n > 0;
                    }
                    Some(m) => {
                        for (i, &x) in vals.iter().enumerate() {
                            if !m.get(i) {
                                *acc = acc.wrapping_add(x);
                                *float += x as f64;
                                saw = true;
                            }
                        }
                    }
                }
                if saw {
                    *any = true;
                }
            }
            AggState::Min(cur) => {
                let mut best: Option<i64> = None;
                for (i, &x) in vals.iter().enumerate() {
                    if !nulls.as_ref().is_some_and(|m| m.get(i)) {
                        best = Some(best.map_or(x, |b| b.min(x)));
                    }
                }
                if let Some(b) = best {
                    let v = Value::Int(b);
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Max(cur) => {
                let mut best: Option<i64> = None;
                for (i, &x) in vals.iter().enumerate() {
                    if !nulls.as_ref().is_some_and(|m| m.get(i)) {
                        best = Some(best.map_or(x, |b| b.max(x)));
                    }
                }
                if let Some(b) = best {
                    let v = Value::Int(b);
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Avg { sum, n: cnt } => {
                for (i, &x) in vals.iter().enumerate() {
                    if !nulls.as_ref().is_some_and(|m| m.get(i)) {
                        *sum += x as f64;
                        *cnt += 1;
                    }
                }
            }
        }
        return Ok(());
    }
    for k in 0..n {
        state.update(Some(v.get(k)))?;
    }
    Ok(())
}

/// Appends an evaluated column's `n` values to an accumulator column.
fn append_vcol_to_column(acc: &mut Column, v: &VCol, n: usize) {
    match v {
        VCol::Int { vals, nulls: None } => {
            for &x in vals {
                acc.push_int(x);
            }
        }
        VCol::Int {
            vals,
            nulls: Some(m),
        } => {
            for (i, &x) in vals.iter().enumerate() {
                if m.get(i) {
                    acc.push_null();
                } else {
                    acc.push_int(x);
                }
            }
        }
        VCol::Generic(vals) => {
            for x in vals {
                acc.push(x.clone());
            }
        }
        VCol::Const(c) => {
            for _ in 0..n {
                acc.push(c.clone());
            }
        }
    }
}

/// Computes one window function column from batch-accumulated partition
/// and order key columns. All-integer keys — both FEM E-operator shapes —
/// sort an index permutation over the typed vectors with no per-row
/// allocation; anything else goes through the shared
/// [`crate::exec::window::window_values`] engine.
fn window_column(
    pacc: &[Column],
    oacc: &[Column],
    dirs: &[bool],
    func: crate::ast::WindowFunc,
    n: usize,
) -> Column {
    let all_int = |cols: &[Column]| {
        cols.iter()
            .all(|c| matches!(c, Column::Int { nulls, .. } if !nulls.any()))
    };
    if all_int(pacc) && all_int(oacc) && n > 0 {
        let pv: Vec<&[i64]> = pacc
            .iter()
            .map(|c| match c {
                Column::Int { vals, .. } => vals.as_slice(),
                Column::Generic(_) => unreachable!("checked all-int"),
            })
            .collect();
        let ov: Vec<&[i64]> = oacc
            .iter()
            .map(|c| match c {
                Column::Int { vals, .. } => vals.as_slice(),
                Column::Generic(_) => unreachable!("checked all-int"),
            })
            .collect();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        // The final index tiebreak reproduces the interpreter's *stable*
        // sort, so ROW_NUMBER assignment among fully-tied rows matches.
        idx.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for p in &pv {
                let ord = p[a].cmp(&p[b]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            for (o, asc) in ov.iter().zip(dirs) {
                let ord = o[a].cmp(&o[b]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });
        let mut out = vec![0i64; n];
        let mut row_num = 0i64;
        let mut rank = 0i64;
        let mut prev: Option<usize> = None;
        for &i in &idx {
            let i = i as usize;
            let same_part = prev.is_some_and(|p| pv.iter().all(|col| col[p] == col[i]));
            if !same_part {
                row_num = 0;
                rank = 0;
                prev = None;
            }
            row_num += 1;
            let tied = prev.is_some_and(|p| ov.iter().all(|col| col[p] == col[i]));
            if !tied {
                rank = row_num;
            }
            prev = Some(i);
            out[i] = match func {
                crate::ast::WindowFunc::RowNumber => row_num,
                crate::ast::WindowFunc::Rank => rank,
            };
        }
        return Column::Int {
            vals: out,
            nulls: NullMask::all_valid(n),
        };
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
    let values = crate::exec::window::window_values(keyed, dirs, func);
    let mut col = Column::new_int();
    for v in values {
        col.push(v);
    }
    col
}

/// Executes a SELECT plan batch-at-a-time, returning columnar results.
pub(crate) fn run_select_chunks(
    pool: &mut BufferPool,
    catalog: &Catalog,
    params: &[Value],
    plan: &SelectPlan,
) -> Result<Vec<Chunk>> {
    let env = build_env_v(pool, catalog, params, &plan.subplans)?;

    if let Some(agg) = &plan.agg {
        if agg.group.is_empty() {
            // Scalar aggregate (the FEM stats statements): columns fold
            // straight into the accumulators, one batch at a time.
            let mut states: Vec<AggState> =
                agg.aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
            run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
                for (state, (_, arg)) in states.iter_mut().zip(&agg.aggs) {
                    match arg {
                        None => state.update_star(sel.len() as i64),
                        Some(a) => {
                            let v = eval_v(a, chunk, sel, &env)?;
                            agg_update_vcol(state, &v, sel.len())?;
                        }
                    }
                }
                Ok(true)
            })?;
            let row: Vec<Value> = states.into_iter().map(|s| s.finish()).collect();
            let rows = exec::post_process(vec![row], plan, &env)?;
            return Ok(vec![fempath_storage::chunk_from_rows(&rows)]);
        }
        // Grouped aggregation: group keys and aggregate arguments are
        // evaluated per batch; every row is mapped to a dense group id,
        // then each argument column folds into that group's accumulators
        // — typed, with no per-row key or value materialization, when the
        // key is a single non-NULL integer and the arguments are integers
        // (every FEM statistics statement).
        let n_aggs = agg.aggs.len();
        let mut ids: HashMap<HashKey, u32> = HashMap::new();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut states: Vec<AggState> = Vec::new(); // group-major
        let mut gid: Vec<u32> = Vec::new();
        run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
            let gcols: Vec<VCol> = agg
                .group
                .iter()
                .map(|g| eval_v(g, chunk, sel, &env))
                .collect::<Result<_>>()?;
            gid.clear();
            // Runs of one key (rows clustered by it) skip the hash lookup.
            let mut last: Option<(HashKey, u32)> = None;
            for k in 0..sel.len() {
                let key = match &gcols[..] {
                    [VCol::Int { vals, nulls: None }] => HashKey::Int(vals[k]),
                    _ => {
                        let vals: Vec<Value> = gcols.iter().map(|c| c.get(k)).collect();
                        HashKey::from_values(&vals)?
                    }
                };
                let g = match &last {
                    Some((prev, g)) if *prev == key => *g,
                    _ => match ids.get(&key) {
                        Some(g) => *g,
                        None => {
                            keys.push(gcols.iter().map(|c| c.get(k)).collect());
                            states.extend(agg.aggs.iter().map(|(f, _)| AggState::new(*f)));
                            ids.insert(key.clone(), keys.len() as u32 - 1);
                            keys.len() as u32 - 1
                        }
                    },
                };
                gid.push(g);
                last = Some((key, g));
            }
            for (a, (_, arg)) in agg.aggs.iter().enumerate() {
                let slot = |k: usize| gid[k] as usize * n_aggs + a;
                match arg
                    .as_ref()
                    .map(|e| eval_v(e, chunk, sel, &env))
                    .transpose()?
                {
                    None => (0..sel.len()).for_each(|k| states[slot(k)].update_star(1)),
                    Some(VCol::Int { vals, nulls }) => {
                        for (k, &x) in vals.iter().enumerate() {
                            if !nulls.as_ref().is_some_and(|m| m.get(k)) {
                                states[slot(k)].update_int(x);
                            }
                        }
                    }
                    Some(v) => {
                        for k in 0..sel.len() {
                            states[slot(k)].update(Some(v.get(k)))?;
                        }
                    }
                }
            }
            Ok(true)
        })?;
        let mut states = states.into_iter();
        let rows: Vec<Vec<Value>> = keys
            .into_iter()
            .map(|mut row| {
                row.extend(states.by_ref().take(n_aggs).map(AggState::finish));
                row
            })
            .collect();
        let rows = exec::post_process(rows, plan, &env)?;
        return Ok(vec![fempath_storage::chunk_from_rows(&rows)]);
    }

    if !plan.windows.is_empty() {
        // Windows need the whole input: materialize the pipeline output
        // as batches, then compute each window column from batch-evaluated
        // keys and append it before the next window's keys are evaluated
        // (a later window's keys may bind against the extended schema,
        // exactly like the interpreter's row-extension order).
        let mut data: Vec<Chunk> = Vec::new();
        run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
            data.push(chunk.gather(sel));
            Ok(true)
        })?;
        data.retain(|c| !c.is_empty());
        let mut sel = take_sel(0);
        for w in &plan.windows {
            let mut pacc: Vec<Column> = w.partition.iter().map(|_| Column::new_int()).collect();
            let mut oacc: Vec<Column> = w.order.iter().map(|_| Column::new_int()).collect();
            for c in &data {
                fill_identity(&mut sel, c.len());
                for (acc, p) in pacc.iter_mut().zip(&w.partition) {
                    let v = eval_v(p, c, &sel, &env)?;
                    append_vcol_to_column(acc, &v, sel.len());
                }
                for (acc, (o, _)) in oacc.iter_mut().zip(&w.order) {
                    let v = eval_v(o, c, &sel, &env)?;
                    append_vcol_to_column(acc, &v, sel.len());
                }
            }
            let dirs: Vec<bool> = w.order.iter().map(|(_, asc)| *asc).collect();
            let total: usize = data.iter().map(|c| c.len()).sum();
            let col = window_column(&pacc, &oacc, &dirs, w.func, total);
            let mut off = 0u32;
            for c in &mut data {
                let idx: Vec<u32> = (off..off + c.len() as u32).collect();
                c.push_column(col.gather(&idx));
                off += c.len() as u32;
            }
        }
        if !plan.materializes_rows() {
            // Batched projection (the FEM E-operator source shape).
            let mut out = Vec::with_capacity(data.len());
            for c in &data {
                fill_identity(&mut sel, c.len());
                let pcols: Vec<VCol> = plan
                    .items
                    .iter()
                    .map(|p| eval_v(p, c, &sel, &env))
                    .collect::<Result<_>>()?;
                out.push(vcols_to_chunk(pcols, sel.len()));
            }
            put_sel(sel);
            return Ok(out);
        }
        put_sel(sel);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for c in &data {
            rows.extend(c.to_rows());
        }
        let rows = exec::post_process(rows, plan, &env)?;
        return Ok(vec![fempath_storage::chunk_from_rows(&rows)]);
    }

    if plan.materializes_rows() {
        // Sort needs the whole input: batch-collect, then shared
        // post-stages (sort keys are evaluated there).
        let mut rows: Vec<Vec<Value>> = Vec::new();
        run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
            for &r in sel {
                rows.push(chunk.row(r as usize));
            }
            Ok(true)
        })?;
        let rows = exec::post_process(rows, plan, &env)?;
        return Ok(vec![fempath_storage::chunk_from_rows(&rows)]);
    }

    // Fully streaming: filter → project → DISTINCT → cap, with early exit.
    if plan.cap == Some(0) {
        return Ok(Vec::new());
    }
    let mut out: Vec<Chunk> = Vec::new();
    let mut count: u64 = 0;
    let mut seen: Option<HashSet<Vec<u8>>> = if plan.distinct {
        Some(HashSet::new())
    } else {
        None
    };
    run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
        let narrowed;
        let sel = match &plan.having {
            Some(h) => {
                let mut s = sel.to_vec();
                apply_pred(h, chunk, &mut s, &env)?;
                if s.is_empty() {
                    return Ok(true);
                }
                narrowed = s;
                &narrowed[..]
            }
            None => sel,
        };
        let pcols: Vec<VCol> = plan
            .items
            .iter()
            .map(|p| eval_v(p, chunk, sel, &env))
            .collect::<Result<_>>()?;
        let mut oc = vcols_to_chunk(pcols, sel.len());
        if let Some(seen) = &mut seen {
            let mut keep = Vec::with_capacity(oc.len());
            for r in 0..oc.len() {
                let row = oc.row(r);
                if seen.insert(encode_key(&row).unwrap_or_default()) {
                    keep.push(r as u32);
                }
            }
            if keep.len() < oc.len() {
                oc = oc.gather(&keep);
            }
        }
        if let Some(cap) = plan.cap {
            let remaining = cap - count;
            if oc.len() as u64 >= remaining {
                let keep: Vec<u32> = (0..remaining as u32).collect();
                oc = oc.gather(&keep);
                count += oc.len() as u64;
                if !oc.is_empty() {
                    out.push(oc);
                }
                return Ok(false);
            }
        }
        count += oc.len() as u64;
        if !oc.is_empty() {
            out.push(oc);
        }
        Ok(true)
    })?;
    Ok(out)
}

/// Executes a SELECT plan, returning the result rows (the row boundary
/// the engine API and subqueries consume).
pub(crate) fn run_select_rows(
    pool: &mut BufferPool,
    catalog: &Catalog,
    params: &[Value],
    plan: &SelectPlan,
) -> Result<Vec<Vec<Value>>> {
    let chunks = run_select_chunks(pool, catalog, params, plan)?;
    let mut rows = Vec::new();
    for c in &chunks {
        rows.extend(c.to_rows());
    }
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
                    .map(|row| row.iter().map(|e| exec::eval_px(e, &[], &env)).collect())
                    .collect::<Result<_>>()?;
                vec![table.source_chunk(rows, cols)?]
            }
            InsertSourcePlan::Query(q) => {
                // Insert-level subplans only exist for VALUES expressions; a
                // Query source's subqueries live inside its own SelectPlan.
                debug_assert!(plan.subplans.is_empty());
                run_select_chunks(pool, catalog, params, q)?
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
    let mut rows = take_chunk();
    let mut whole = take_chunk();
    let mut sel = take_sel(0);
    let mut locs = BatchLocs::default();
    let mut picked = BatchLocs::default();
    let filter = &target.access.filter;
    let res = (|| match &target.access.input {
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
            table.probe_eq(pool, *path, cols, &probe_keys(keys, env)?, &read.set, found)?;
            fill_identity(&mut sel, rows.len());
            apply_filter(filter, &rows, &mut sel, env)?;
            if !sel.is_empty() {
                f(&rows, &sel, &locs)?;
            }
            Ok(())
        }
        InputPlan::Scan { read, .. } => {
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
    })();
    put_chunk(rows);
    put_chunk(whole);
    put_sel(sel);
    res
}

/// Materializes a DML source as batches (the probes that follow need the
/// buffer pool between batches).
fn collect_source_chunks(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    sp: &SourcePlan,
) -> Result<Vec<Chunk>> {
    if let (InputPlan::Derived(sub), true) = (&sp.input, sp.filter.is_empty()) {
        return run_select_chunks(pool, catalog, env.params, sub);
    }
    let mut out = Vec::new();
    stream_source_v(pool, catalog, env, sp, &mut |chunk, sel| {
        out.push(chunk.gather(sel));
        Ok(true)
    })?;
    Ok(out)
}

/// The matches of one source batch's probes into a DML target: the target
/// columns the plan fetches followed by the source columns it reads, one
/// row per (target row, source row) pair, in source order.
struct Matches {
    /// Combined target+source rows (bound offsets of both sides apply).
    rows: Chunk,
    /// Locator of each pair's target row.
    locs: BatchLocs,
    /// Source batch row of each pair.
    src: Vec<u32>,
    /// Every probe key was a non-NULL integer.
    int_keys: bool,
}

/// Probes `table` once per row of the source batch `sc` (vectorized key
/// evaluation, one [`Table::probe_eq`] for the batch: one index descent
/// per row, NULL keys never match, the matched rows' planned columns
/// fetched in one pass).
fn probe_source_chunk(
    pool: &mut BufferPool,
    table: &Table,
    probe: &ProbePlan,
    sc: &Chunk,
    env: &Env<'_>,
) -> Result<Matches> {
    let sel = take_sel(sc.len());
    let kcols: Vec<VCol> = probe
        .keys
        .iter()
        .map(|k| eval_v(k, sc, &sel, env))
        .collect::<Result<_>>()?;
    put_sel(sel);
    let keys = batch_keys(&kcols, sc.len());
    let mut m = Matches {
        // Not from the chunk pool: these batches grow as tall as the match
        // set and as wide as both sides, and pooling them pins that.
        rows: Chunk::new(),
        locs: BatchLocs::default(),
        src: Vec::new(),
        int_keys: keys.iter().all(|v| matches!(v, Value::Int(_))),
    };
    let found = EqMatches {
        rows: &mut m.rows,
        src: Some(&mut m.src),
        locs: Some(&mut m.locs),
    };
    table.probe_eq(pool, probe.path, &probe.cols, &keys, &probe.read.set, found)?;
    if !m.rows.is_empty() {
        m.rows = m.rows.hcat(sc.gather_cols(&m.src, &probe.source_read));
    }
    Ok(m)
}

/// One statement's pending row updates in columnar form: locators, the
/// new value of every assigned column, and — when the write phase
/// rewrites whole rows — the rows as stored.
struct PendingUpdates<'p> {
    assign_cols: &'p [usize],
    mode: UpdateMode,
    locs: BatchLocs,
    vals: Vec<Column>,
    old: Chunk,
}

impl<'p> PendingUpdates<'p> {
    fn new(assign_cols: &'p [usize], mode: UpdateMode) -> Self {
        PendingUpdates {
            assign_cols,
            mode,
            locs: BatchLocs::default(),
            vals: assign_cols.iter().map(|_| Column::new_int()).collect(),
            old: Chunk::new(),
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
        for ((acc, &c), a) in self.vals.iter_mut().zip(self.assign_cols).zip(assigns) {
            let v = eval_v(a, rows, sel, env)?;
            acc.append(table.coerce_column(c, vcol_into_column(v, sel.len()))?);
        }
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
            &self.vals,
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
                for sc in collect_source_chunks(pool, catalog, &env, source)? {
                    if sc.is_empty() {
                        continue;
                    }
                    let m = probe_source_chunk(pool, table, probe, &sc, &env)?;
                    let mut sel = take_sel(m.rows.len());
                    apply_filter(target_residual, &m.rows, &mut sel, &env)?;
                    apply_filter(mixed_residual, &m.rows, &mut sel, &env)?;
                    if !sel.is_empty() {
                        pending.push(table, assigns, &m.rows, &sel, &m.locs, &env)?;
                    }
                    put_sel(sel);
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
    let mut locs = BatchLocs::default();
    let mut rows = take_chunk();
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
    let res = catalog
        .table_mut(&plan.table)?
        .delete_rows(pool, &locs, &rows);
    put_chunk(rows);
    res.map(|()| locs.len() as u64)
}

/// Executes a MERGE plan: the source (the expensive E-operator select)
/// runs vectorized; each source batch probes the target once per row and
/// fetches what the ON residual, the WHEN MATCHED condition and the SET
/// expressions read of the matched rows in one pass; those expressions
/// and the NOT MATCHED values are evaluated column-wise; the write phase
/// applies the assigned columns by locator, then inserts one chunk.
pub(crate) fn run_merge(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &MergePlan,
) -> Result<u64> {
    let matched_cols = plan.matched.as_ref().map_or(&[][..], |(_, cols, _)| cols);
    let mut pending = PendingUpdates::new(matched_cols, plan.mode);
    let mut inserts = Chunk::new();
    let mut keys_probed = plan.insert_keys_probed;
    {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let table = catalog.table(&plan.target)?;
        let n_cols = table.schema.columns.len();
        for sc in collect_source_chunks(pool, catalog, &env, &plan.source)? {
            if sc.is_empty() {
                continue;
            }
            let m = probe_source_chunk(pool, table, &plan.probe, &sc, &env)?;
            if !m.int_keys {
                keys_probed = None;
            }
            let mut sel = take_sel(m.rows.len());
            apply_filter(&plan.residual, &m.rows, &mut sel, &env)?;
            let mut unmatched = vec![true; sc.len()];
            for &r in &sel {
                unmatched[m.src[r as usize] as usize] = false;
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
                put_sel(sel);
                continue;
            };
            sel.clear();
            sel.extend((0..sc.len() as u32).filter(|&k| unmatched[k as usize]));
            if !sel.is_empty() {
                let mut new_cols: Vec<Option<Column>> = vec![None; n_cols];
                for (&c, e) in cols.iter().zip(exprs) {
                    let v = vcol_into_column(eval_v(e, &sc, &sel, &env)?, sel.len());
                    new_cols[c] = Some(table.coerce_column(c, v)?);
                }
                let new_cols: Vec<Column> = new_cols
                    .into_iter()
                    .map(|c| c.unwrap_or_else(|| Column::nulls(sel.len())))
                    .collect();
                let new_rows = Chunk::from_columns(new_cols, sel.len());
                if inserts.is_empty() {
                    inserts = new_rows;
                } else {
                    inserts.append(&new_rows);
                }
            }
            put_sel(sel);
        }
    }
    let table = catalog.table_mut(&plan.target)?;
    let updated = pending.apply(pool, table)?;
    Ok(updated + table.insert_chunk(pool, &inserts, keys_probed)?)
}
