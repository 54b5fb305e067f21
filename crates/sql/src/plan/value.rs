//! Value semantics both executors share: SQL truthiness, arithmetic,
//! three-valued `[NOT] IN`, and the hashable identity of a value tuple.
//! The vectorized executor calls them on its slow (non-integer) paths, and
//! the reference interpreter calls them on every row, so the two cannot
//! disagree on what a value means.

use crate::ast::BinaryOp;
use crate::error::{Result, SqlError};
use fempath_storage::Value;

/// Hashable row-key identity shared by GROUP BY, DISTINCT and hash joins:
/// a bare integer for the common one-int-column key (no allocation), a
/// tagged byte string otherwise. Any value tuple has a key — text is
/// length-prefixed, so it may hold NUL — and two tuples share one exactly
/// when their values have the same types and the same bits (Int and Float
/// keys stay distinct, NULL equals NULL).
#[derive(Hash, PartialEq, Eq, Clone)]
pub enum HashKey {
    /// A one-column integer tuple.
    Int(i64),
    /// Any other tuple, tagged and length-prefixed.
    Bytes(Vec<u8>),
}

impl HashKey {
    /// Builds the key for one evaluated key-column tuple.
    pub fn from_values(vals: &[Value]) -> HashKey {
        if let [Value::Int(i)] = vals {
            return HashKey::Int(*i);
        }
        let mut out = Vec::with_capacity(vals.len() * 9);
        for v in vals {
            let (tag, word) = match v {
                Value::Null => (0u8, 0),
                Value::Int(i) => (1, *i as u64),
                Value::Float(f) => (2, f.to_bits()),
                Value::Text(s) => (3, s.len() as u64),
            };
            out.push(tag);
            out.extend_from_slice(&word.to_le_bytes());
            if let Value::Text(s) = v {
                out.extend_from_slice(s.as_bytes());
            }
        }
        HashKey::Bytes(out)
    }
}

/// SQL truthiness: non-zero numbers are true; NULL is not true.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Null => false,
        Value::Text(_) => false,
    }
}

/// `[NOT] IN` result under SQL three-valued logic. `list` is sorted,
/// deduplicated and NULL-free; `has_null` records whether the subquery
/// produced any NULL.
///
/// * empty list (no rows at all): `IN` is false / `NOT IN` is true, even
///   for a NULL probe;
/// * NULL probe over a non-empty list: UNKNOWN;
/// * probe found: `IN` true / `NOT IN` false;
/// * probe not found but the list had a NULL: UNKNOWN — in particular
///   `x NOT IN (…, NULL)` is never true;
/// * otherwise: `IN` false / `NOT IN` true.
pub fn in_list_result(v: &Value, list: &[Value], has_null: bool, negated: bool) -> Value {
    if list.is_empty() && !has_null {
        return Value::Int(i64::from(negated));
    }
    if v.is_null() {
        return Value::Null;
    }
    if list.binary_search_by(|x| x.total_cmp(v)).is_ok() {
        Value::Int(i64::from(!negated))
    } else if has_null {
        Value::Null
    } else {
        Value::Int(i64::from(negated))
    }
}

/// Arithmetic (`+ - * / %`) on two evaluated operands: NULL in, NULL out;
/// two integers wrap; anything else numeric computes in floating point;
/// division or modulo by zero is an error.
pub fn arith(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinaryOp::Div => {
                if b == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                Value::Int(a.wrapping_div(b))
            }
            BinaryOp::Mod => {
                if b == 0 {
                    return Err(SqlError::Eval("division by zero".into()));
                }
                Value::Int(a.wrapping_rem(b))
            }
            _ => unreachable!(),
        }),
        (l, r) => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(SqlError::Eval(
                        "arithmetic requires numeric operands".into(),
                    ))
                }
            };
            Ok(match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("division by zero".into()));
                    }
                    Value::Float(a / b)
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Eval("division by zero".into()));
                    }
                    Value::Float(a % b)
                }
                _ => unreachable!(),
            })
        }
    }
}
