//! Typed column values and their order-preserving key encoding.
//!
//! Index keys are compared as raw byte strings (`memcmp`), so the encoding
//! must preserve the logical ordering of values:
//!
//! * `Null` sorts before everything (tag `0x00`),
//! * `Int` is encoded big-endian with the sign bit flipped (tag `0x01`),
//! * `Float` uses the classic total-order trick — flip all bits for
//!   negatives, flip only the sign bit for non-negatives (tag `0x02`),
//! * `Text` is the UTF-8 bytes followed by a `0x00` terminator (tag `0x03`);
//!   interior NULs are rejected so the terminator stays unambiguous.
//!
//! Composite keys are simply concatenations; every component encoding is
//! prefix-free, so concatenation preserves lexicographic order.

use crate::error::{Result, StorageError};
use std::cmp::Ordering;
use std::fmt;

/// Column data types understood by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

/// A single column value.
///
/// `Int`/`Float` compare numerically with each other; `Null` compares below
/// everything; `Text` compares above numbers. This total order is what both
/// the executor's sort and the B+tree key encoding implement.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
}

impl Eq for Value {}

impl Value {
    /// Type tag used to rank values of different types in the total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
        }
    }

    /// Returns true when the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and comparisons; `None` for
    /// non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view; floats with no fractional part convert losslessly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The data type of this value, if it has one (`Null` does not).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// Total-order comparison (used for ORDER BY, MIN/MAX, and as the
    /// reference semantics the key encoding must agree with).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_TEXT: u8 = 0x03;

/// Bytes of an encoded INT key ([`int_key`]).
pub const INT_KEY_LEN: usize = 9;

/// The order-preserving encoding of `Value::Int(i)`, as
/// [`encode_key_into`] appends it.
pub fn int_key(i: i64) -> [u8; INT_KEY_LEN] {
    let mut key = [TAG_INT; INT_KEY_LEN];
    // Flip the sign bit so two's-complement order becomes unsigned byte
    // order.
    key[1..].copy_from_slice(&((i as u64) ^ (1u64 << 63)).to_be_bytes());
    key
}

/// Appends the order-preserving encoding of `v` to `out`.
pub fn encode_key_into(out: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => out.extend_from_slice(&int_key(*i)),
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            let bits = f.to_bits();
            let flipped = if bits & (1u64 << 63) != 0 {
                !bits
            } else {
                bits ^ (1u64 << 63)
            };
            out.extend_from_slice(&flipped.to_be_bytes());
        }
        Value::Text(s) => {
            if s.as_bytes().contains(&0) {
                return Err(StorageError::NulInTextKey);
            }
            out.push(TAG_TEXT);
            out.extend_from_slice(s.as_bytes());
            out.push(0);
        }
    }
    Ok(())
}

/// Encodes a composite key from a slice of values.
pub fn encode_key(values: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        encode_key_into(&mut out, v)?;
    }
    Ok(out)
}

/// Decodes one value from `bytes`, returning it and the remaining slice.
pub fn decode_key_one(bytes: &[u8]) -> Result<(Value, &[u8])> {
    let (&tag, rest) = bytes
        .split_first()
        .ok_or_else(|| StorageError::Corrupt("empty key".into()))?;
    match tag {
        TAG_NULL => Ok((Value::Null, rest)),
        TAG_INT => {
            if rest.len() < 8 {
                return Err(StorageError::Corrupt("short int key".into()));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&rest[..8]);
            let flipped = u64::from_be_bytes(b) ^ (1u64 << 63);
            Ok((Value::Int(flipped as i64), &rest[8..]))
        }
        TAG_FLOAT => {
            if rest.len() < 8 {
                return Err(StorageError::Corrupt("short float key".into()));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&rest[..8]);
            let flipped = u64::from_be_bytes(b);
            let bits = if flipped & (1u64 << 63) != 0 {
                flipped ^ (1u64 << 63)
            } else {
                !flipped
            };
            Ok((Value::Float(f64::from_bits(bits)), &rest[8..]))
        }
        TAG_TEXT => {
            let end = rest
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| StorageError::Corrupt("unterminated text key".into()))?;
            let s = std::str::from_utf8(&rest[..end])
                .map_err(|_| StorageError::Corrupt("non-utf8 text key".into()))?;
            Ok((Value::Text(s.to_string()), &rest[end + 1..]))
        }
        t => Err(StorageError::Corrupt(format!("unknown key tag {t}"))),
    }
}

/// Decodes a full composite key back into values.
pub fn decode_key(mut bytes: &[u8]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (v, rest) = decode_key_one(bytes)?;
        out.push(v);
        bytes = rest;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let enc = encode_key(std::slice::from_ref(&v)).unwrap();
        let dec = decode_key(&enc).unwrap();
        assert_eq!(dec, vec![v]);
    }

    #[test]
    fn int_roundtrip() {
        for v in [i64::MIN, -1, 0, 1, 42, i64::MAX] {
            roundtrip(Value::Int(v));
        }
    }

    #[test]
    fn float_roundtrip() {
        for v in [-1.5, 0.0, 3.25, f64::MIN, f64::MAX] {
            roundtrip(Value::Float(v));
        }
    }

    #[test]
    fn text_roundtrip() {
        roundtrip(Value::Text("hello".into()));
        roundtrip(Value::Text(String::new()));
    }

    #[test]
    fn null_roundtrip() {
        roundtrip(Value::Null);
    }

    #[test]
    fn int_encoding_preserves_order() {
        let vals = [i64::MIN, -100, -1, 0, 1, 7, 100, i64::MAX];
        for w in vals.windows(2) {
            let a = encode_key(&[Value::Int(w[0])]).unwrap();
            let b = encode_key(&[Value::Int(w[1])]).unwrap();
            assert!(a < b, "{} should encode below {}", w[0], w[1]);
        }
    }

    #[test]
    fn float_encoding_preserves_order() {
        let vals = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1.0e-9,
            2.5,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            let a = encode_key(&[Value::Float(w[0])]).unwrap();
            let b = encode_key(&[Value::Float(w[1])]).unwrap();
            assert!(a <= b, "{} should encode <= {}", w[0], w[1]);
        }
    }

    #[test]
    fn text_encoding_preserves_order() {
        let vals = ["", "a", "ab", "b", "ba"];
        for w in vals.windows(2) {
            let a = encode_key(&[Value::Text(w[0].into())]).unwrap();
            let b = encode_key(&[Value::Text(w[1].into())]).unwrap();
            assert!(a < b, "{:?} should encode below {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn composite_key_order_matches_tuple_order() {
        let a = encode_key(&[Value::Int(1), Value::Int(99)]).unwrap();
        let b = encode_key(&[Value::Int(2), Value::Int(0)]).unwrap();
        assert!(a < b);
        // Prefix-free: shorter text key sorts before longer with same prefix.
        let c = encode_key(&[Value::Text("ab".into()), Value::Int(0)]).unwrap();
        let d = encode_key(&[Value::Text("b".into()), Value::Int(0)]).unwrap();
        assert!(c < d);
    }

    #[test]
    fn nul_in_text_key_rejected() {
        let err = encode_key(&[Value::Text("a\0b".into())]);
        assert!(matches!(err, Err(StorageError::NulInTextKey)));
    }

    #[test]
    fn null_sorts_first() {
        let n = encode_key(&[Value::Null]).unwrap();
        let i = encode_key(&[Value::Int(i64::MIN)]).unwrap();
        assert!(n < i);
    }

    #[test]
    fn value_total_order_mixed_numeric() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(
            Value::Text("a".into()).total_cmp(&Value::Int(i64::MAX)),
            Ordering::Greater
        );
    }
}
