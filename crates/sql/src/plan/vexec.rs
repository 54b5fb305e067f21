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
    FromPlan, InputPlan, InsertPlan, InsertSourcePlan, JoinPlan, MergePlan, PExpr, RightPlan,
    SelectPlan, SourcePlan, SubPlan, UpdateKind, UpdatePlan,
};
use crate::ast::{BinaryOp, UnaryOp};
use crate::catalog::{BatchLocs, Catalog, RowLoc, Table};
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
        VCol::Const(val) => {
            let mut c = Column::new_int();
            for _ in 0..n {
                c.push(val.clone());
            }
            c
        }
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
            read,
            ..
        } => {
            let Some(key_vals) = probe_keys(keys, env)? else {
                return Ok(());
            };
            let t = catalog.table(table)?;
            let mut chunk = take_chunk();
            let res = (|| {
                t.lookup_eq_chunk(pool, cols, &key_vals, &mut chunk, &read.set)?;
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
                let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
                apply_filter(&sp.filter, chunk, &mut sel, env)?;
                if !sel.is_empty() && !f(chunk, &sel)? {
                    break;
                }
            }
            Ok(())
        }
    }
}

/// Evaluates an index probe's row-independent key expressions; `None`
/// when one is NULL (`col = NULL` never matches).
fn probe_keys(keys: &[PExpr], env: &Env<'_>) -> Result<Option<Vec<Value>>> {
    let mut key_vals = Vec::with_capacity(keys.len());
    for k in keys {
        key_vals.push(exec::eval_px(k, &[], env)?);
    }
    Ok((!key_vals.iter().any(|k| k.is_null())).then_some(key_vals))
}

/// Materializes a source's selected rows (DML sources, MERGE).
fn collect_source_rows_v(
    pool: &mut BufferPool,
    catalog: &Catalog,
    env: &Env<'_>,
    sp: &SourcePlan,
) -> Result<Vec<Vec<Value>>> {
    let mut rows = Vec::new();
    stream_source_v(pool, catalog, env, sp, &mut |chunk, sel| {
        for &r in sel {
            rows.push(chunk.row(r as usize));
        }
        Ok(true)
    })?;
    Ok(rows)
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
            let mut lidx: Vec<u32> = Vec::new();
            let mut right = Chunk::new();
            let mut key_vals: Vec<Value> = Vec::with_capacity(kcols.len());
            for (k, &r) in sel.iter().enumerate() {
                key_vals.clear();
                let mut null_key = false;
                for c in &kcols {
                    let v = c.get(k);
                    if v.is_null() {
                        null_key = true;
                        break;
                    }
                    key_vals.push(v);
                }
                if null_key {
                    continue; // NULL join key never matches
                }
                table.lookup_eq_chunk(pool, path_cols, &key_vals, &mut right, &read.set)?;
                while lidx.len() < right.len() {
                    lidx.push(r);
                }
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
        // evaluated per batch; per-row work is the accumulator update.
        let mut order: Vec<HashKey> = Vec::new();
        let mut groups: HashMap<HashKey, (Vec<Value>, Vec<AggState>)> = HashMap::new();
        run_from_v(pool, catalog, &env, &plan.from, &mut |chunk, sel| {
            let gcols: Vec<VCol> = agg
                .group
                .iter()
                .map(|g| eval_v(g, chunk, sel, &env))
                .collect::<Result<_>>()?;
            let acols: Vec<Option<VCol>> = agg
                .aggs
                .iter()
                .map(|(_, arg)| {
                    arg.as_ref()
                        .map(|a| eval_v(a, chunk, sel, &env))
                        .transpose()
                })
                .collect::<Result<_>>()?;
            for k in 0..sel.len() {
                let mut key_vals: Vec<Value> = gcols.iter().map(|c| c.get(k)).collect();
                let key = HashKey::from_values(&key_vals)?;
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (
                        std::mem::take(&mut key_vals),
                        agg.aggs.iter().map(|(f, _)| AggState::new(*f)).collect(),
                    )
                });
                for (state, arg) in entry.1.iter_mut().zip(&acols) {
                    state.update(arg.as_ref().map(|c| c.get(k)))?;
                }
            }
            Ok(true)
        })?;
        let mut rows = Vec::with_capacity(order.len());
        for key in order {
            let (mut key_vals, states) = groups.remove(&key).ok_or_else(|| {
                SqlError::Eval("group key vanished between collection and output".into())
            })?;
            for s in states {
                key_vals.push(s.finish());
            }
            rows.push(key_vals);
        }
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
        for w in &plan.windows {
            let mut pacc: Vec<Column> = w.partition.iter().map(|_| Column::new_int()).collect();
            let mut oacc: Vec<Column> = w.order.iter().map(|_| Column::new_int()).collect();
            for c in &data {
                let sel: Vec<u32> = (0..c.len() as u32).collect();
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
                let sel: Vec<u32> = (0..c.len() as u32).collect();
                let pcols: Vec<VCol> = plan
                    .items
                    .iter()
                    .map(|p| eval_v(p, c, &sel, &env))
                    .collect::<Result<_>>()?;
                out.push(vcols_to_chunk(pcols, sel.len()));
            }
            return Ok(out);
        }
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

/// Executes an INSERT plan; `INSERT … SELECT` sources stream as batches
/// and land through [`Table::insert_chunk`]'s batched storage calls.
pub(crate) fn run_insert(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &InsertPlan,
) -> Result<u64> {
    let query = match &plan.source {
        InsertSourcePlan::Values(rows) => return insert_values(pool, catalog, params, plan, rows),
        InsertSourcePlan::Query(q) => q,
    };
    let full_chunks: Vec<Chunk> = {
        let catalog = &*catalog;
        // Insert-level subplans only exist for VALUES expressions; a
        // Query source's subqueries live inside its own SelectPlan.
        debug_assert!(plan.subplans.is_empty());
        let source_chunks = run_select_chunks(pool, catalog, params, query)?;
        let table = catalog.table(&plan.table)?;
        let n_cols = table.schema.columns.len();
        let mut full = Vec::with_capacity(source_chunks.len());
        for sc in source_chunks {
            if sc.is_empty() {
                continue;
            }
            let fc = match &plan.col_positions {
                Some(pos) => {
                    if sc.width() != pos.len() {
                        return Err(SqlError::Eval(format!(
                            "INSERT lists {} columns but supplies {} values",
                            pos.len(),
                            sc.width()
                        )));
                    }
                    let mut cols: Vec<Column> =
                        (0..n_cols).map(|_| null_column(sc.len())).collect();
                    for (i, &p) in pos.iter().enumerate() {
                        cols[p] = sc.col(i).clone();
                    }
                    Chunk::from_columns(cols, sc.len())
                }
                None => sc,
            };
            // Coerce up front: the interpreter coerces *every* source
            // row before writing anything, so a type error in a late
            // chunk must surface before the first chunk is inserted.
            full.push(table.coerce_chunk(&fc)?);
        }
        full
    };
    let mut n = 0u64;
    let table = catalog.table_mut(&plan.table)?;
    for c in &full_chunks {
        n += table.insert_chunk_precoerced(pool, c)?;
    }
    Ok(n)
}

/// `INSERT … VALUES`: literal rows are few, so they are evaluated,
/// coerced and written one row at a time.
fn insert_values(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &InsertPlan,
    rows: &[Vec<PExpr>],
) -> Result<u64> {
    let full_rows: Vec<Vec<Value>> = {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let mut source_rows = Vec::with_capacity(rows.len());
        for row in rows {
            let mut vals = Vec::with_capacity(row.len());
            for e in row {
                vals.push(exec::eval_px(e, &[], &env)?);
            }
            source_rows.push(vals);
        }
        let table = catalog.table(&plan.table)?;
        let n_cols = table.schema.columns.len();
        let mut full_rows = Vec::with_capacity(source_rows.len());
        for vals in source_rows {
            let row = match &plan.col_positions {
                Some(pos) => {
                    if vals.len() != pos.len() {
                        return Err(SqlError::Eval(format!(
                            "INSERT lists {} columns but supplies {} values",
                            pos.len(),
                            vals.len()
                        )));
                    }
                    let mut row = vec![Value::Null; n_cols];
                    for (p, v) in pos.iter().zip(vals) {
                        row[*p] = v;
                    }
                    row
                }
                None => vals,
            };
            full_rows.push(table.coerce_row(row)?);
        }
        full_rows
    };
    let table = catalog.table_mut(&plan.table)?;
    for row in &full_rows {
        table.insert_row(pool, row)?;
    }
    Ok(full_rows.len() as u64)
}

fn null_column(n: usize) -> Column {
    let mut c = Column::new_int();
    for _ in 0..n {
        c.push_null();
    }
    c
}

/// Sink of [`match_target`]: whole target rows, the selection of those that
/// match, and the rows' locators (parallel to the chunk's rows).
type MatchSink<'a> = dyn FnMut(&Chunk, &[u32], &[RowLoc]) -> Result<()> + 'a;

/// Read phase shared by plain UPDATE and DELETE: finds the target rows
/// through the planned access path and streams them, whole, to `f`.
///
/// An index probe reads whole rows to begin with and applies the residual
/// conjuncts to them. A scan decodes only the predicate's columns, builds
/// locators for the rows the predicate keeps, and re-reads just those
/// rows whole ([`Table::fetch_chunk`], one page read per touched page).
fn match_target(
    pool: &mut BufferPool,
    table: &Table,
    target: &SourcePlan,
    env: &Env<'_>,
    f: &mut MatchSink<'_>,
) -> Result<()> {
    let mut full = take_chunk();
    let mut narrow = take_chunk();
    let mut sel = take_sel(0);
    let mut locs: Vec<RowLoc> = Vec::new();
    let res = (|| match &target.input {
        InputPlan::Lookup { cols, keys, .. } => {
            let Some(key_vals) = probe_keys(keys, env)? else {
                return Ok(());
            };
            table.lookup_eq(pool, cols, &key_vals, |loc, row| {
                locs.push(loc);
                full.push_row(&row);
                true
            })?;
            fill_identity(&mut sel, full.len());
            apply_filter(&target.filter, &full, &mut sel, env)?;
            if !sel.is_empty() {
                f(&full, &sel, &locs)?;
            }
            Ok(())
        }
        InputPlan::Scan { read, .. } => {
            let mut cursor = table.batch_cursor(pool)?;
            let mut batch_locs = BatchLocs::default();
            loop {
                narrow.reset();
                batch_locs.clear();
                let more = table.next_batch(
                    pool,
                    &mut cursor,
                    &mut narrow,
                    &read.set,
                    Some(&mut batch_locs),
                    CHUNK_CAPACITY,
                )?;
                fill_identity(&mut sel, narrow.len());
                apply_filter(&target.filter, &narrow, &mut sel, env)?;
                if !sel.is_empty() {
                    locs.clear();
                    locs.extend(sel.iter().map(|&r| batch_locs.loc(r as usize)));
                    full.reset();
                    table.fetch_chunk(pool, &locs, &mut full, &ColSet::all())?;
                    fill_identity(&mut sel, full.len());
                    f(&full, &sel, &locs)?;
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
    put_chunk(full);
    put_chunk(narrow);
    put_sel(sel);
    res
}

/// Executes an UPDATE plan; the read phase scans in batches with
/// vectorized predicates and assignments, the write phase applies one
/// page-grouped batch per statement.
pub(crate) fn run_update(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &UpdatePlan,
) -> Result<u64> {
    let pending: Vec<(RowLoc, Vec<Value>, Vec<Value>)> = {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let table = catalog.table(&plan.table)?;
        match &plan.kind {
            UpdateKind::Plain { target, assigns } => {
                let mut pending = Vec::new();
                match_target(pool, table, target, &env, &mut |chunk, sel, locs| {
                    let acols: Vec<VCol> = assigns
                        .iter()
                        .map(|a| eval_v(a, chunk, sel, &env))
                        .collect::<Result<_>>()?;
                    for (k, &r) in sel.iter().enumerate() {
                        let old = chunk.row(r as usize);
                        let mut new_row = old.clone();
                        for (c, vc) in plan.assign_cols.iter().zip(&acols) {
                            new_row[*c] = vc.get(k);
                        }
                        let new_row = table.coerce_row(new_row)?;
                        pending.push((locs[r as usize].clone(), old, new_row));
                    }
                    Ok(())
                })?;
                pending
            }
            UpdateKind::From {
                source,
                probe_cols,
                probe_keys,
                target_residual,
                mixed_residual,
                assigns,
            } => {
                // The probe side is inherently row-at-a-time (one index
                // lookup per source row); the batch win is the vectorized
                // source pipeline and the batched write phase.
                let source_rows = collect_source_rows_v(pool, catalog, &env, source)?;
                let mut pending = Vec::new();
                let mut touched: HashSet<RowLoc> = HashSet::new();
                for srow in &source_rows {
                    let mut keys = Vec::with_capacity(probe_keys.len());
                    let mut null_key = false;
                    for e in probe_keys {
                        let v = exec::eval_px(e, srow, &env)?;
                        if v.is_null() {
                            null_key = true;
                            break;
                        }
                        keys.push(v);
                    }
                    if null_key {
                        continue; // NULL never matches
                    }
                    let mut matches: Vec<(RowLoc, Vec<Value>)> = Vec::new();
                    table.lookup_eq(pool, probe_cols, &keys, |loc, row| {
                        matches.push((loc, row));
                        true
                    })?;
                    'target: for (loc, trow) in matches {
                        if !exec::passes(target_residual, &trow, &env)? {
                            continue 'target;
                        }
                        let mut combined = trow.clone();
                        combined.extend(srow.iter().cloned());
                        if !exec::passes(mixed_residual, &combined, &env)? {
                            continue 'target;
                        }
                        if !touched.insert(loc.clone()) {
                            continue;
                        }
                        let mut new_row = trow.clone();
                        for (c, a) in plan.assign_cols.iter().zip(assigns) {
                            new_row[*c] = exec::eval_px(a, &combined, &env)?;
                        }
                        let new_row = table.coerce_row(new_row)?;
                        pending.push((loc, trow, new_row));
                    }
                }
                pending
            }
        }
    };
    let n = pending.len() as u64;
    let table = catalog.table_mut(&plan.table)?;
    table.update_rows(pool, &pending)?;
    Ok(n)
}

/// Executes a DELETE plan with a batched read phase and page-grouped
/// deletes.
pub(crate) fn run_delete(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &super::DeletePlan,
) -> Result<u64> {
    let matches: Vec<(RowLoc, Vec<Value>)> = {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let table = catalog.table(&plan.table)?;
        let mut out = Vec::new();
        match_target(pool, table, &plan.target, &env, &mut |chunk, sel, locs| {
            for &r in sel {
                out.push((locs[r as usize].clone(), chunk.row(r as usize)));
            }
            Ok(())
        })?;
        out
    };
    let n = matches.len() as u64;
    let table = catalog.table_mut(&plan.table)?;
    table.delete_rows(pool, &matches)?;
    Ok(n)
}

/// Executes a MERGE plan: the source (the expensive E-operator select)
/// runs vectorized, the target is probed with one index lookup per source
/// row, and the write phase applies batched updates and inserts.
pub(crate) fn run_merge(
    pool: &mut BufferPool,
    catalog: &mut Catalog,
    params: &[Value],
    plan: &MergePlan,
) -> Result<u64> {
    type Pending = (
        Vec<(RowLoc, Vec<Value>, Vec<Value>)>, // updates
        Vec<Vec<Value>>,                       // inserts
    );
    let (pending_updates, pending_inserts): Pending = {
        let catalog = &*catalog;
        let env = build_env_v(pool, catalog, params, &plan.subplans)?;
        let source_rows = collect_source_rows_v(pool, catalog, &env, &plan.source)?;
        let table = catalog.table(&plan.target)?;
        let n_cols = table.schema.columns.len();

        let mut updates = Vec::new();
        let mut inserts: Vec<Vec<Value>> = Vec::new();
        let mut touched: HashSet<RowLoc> = HashSet::new();

        for srow in &source_rows {
            let mut keys = Vec::with_capacity(plan.probe_keys.len());
            let mut null_key = false;
            for e in &plan.probe_keys {
                let v = exec::eval_px(e, srow, &env)?;
                if v.is_null() {
                    null_key = true;
                    break;
                }
                keys.push(v);
            }
            let mut matches: Vec<(RowLoc, Vec<Value>)> = Vec::new();
            if !null_key {
                table.lookup_eq(pool, &plan.probe_cols, &keys, |loc, row| {
                    matches.push((loc, row));
                    true
                })?;
            }
            let mut any_match = false;
            for (loc, trow) in matches {
                let mut combined = trow.clone();
                combined.extend(srow.iter().cloned());
                if !exec::passes(&plan.residual, &combined, &env)? {
                    continue;
                }
                any_match = true;
                if let Some((cond, cols, exprs)) = &plan.matched {
                    let applies = match cond {
                        Some(c) => truthy(&exec::eval_px(c, &combined, &env)?),
                        None => true,
                    };
                    if applies && touched.insert(loc.clone()) {
                        let mut new_row = trow.clone();
                        for (c, e) in cols.iter().zip(exprs) {
                            new_row[*c] = exec::eval_px(e, &combined, &env)?;
                        }
                        let new_row = table.coerce_row(new_row)?;
                        updates.push((loc, trow, new_row));
                    }
                }
            }
            if !any_match {
                if let Some((cols, exprs)) = &plan.not_matched {
                    let mut row = vec![Value::Null; n_cols];
                    for (c, e) in cols.iter().zip(exprs) {
                        row[*c] = exec::eval_px(e, srow, &env)?;
                    }
                    inserts.push(table.coerce_row(row)?);
                }
            }
        }
        (updates, inserts)
    };

    let n = (pending_updates.len() + pending_inserts.len()) as u64;
    let table = catalog.table_mut(&plan.target)?;
    table.update_rows(pool, &pending_updates)?;
    if !pending_inserts.is_empty() {
        // Rows were coerce_row'd while pending — skip the chunk-level
        // re-coercion (and its full-column clone).
        let chunk = fempath_storage::chunk_from_rows(&pending_inserts);
        table.insert_chunk_precoerced(pool, &chunk)?;
    }
    Ok(n)
}
