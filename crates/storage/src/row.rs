//! Compact row (tuple) serialization for heap pages and B+tree payloads.
//!
//! Unlike the key encoding in [`crate::value`], row bytes do not need to be
//! order-preserving — they only need to round-trip — so the layout favours
//! decode speed: a tag byte per column followed by a fixed/length-prefixed
//! payload.

use crate::error::{Result, StorageError};
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;

/// Serializes a row into `out` (clearing it first).
pub fn encode_row_into(out: &mut Vec<u8>, row: &[Value]) {
    out.clear();
    debug_assert!(row.len() <= u16::MAX as usize);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                debug_assert!(s.len() <= u32::MAX as usize);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Serializes a row, returning a fresh buffer.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + row.len() * 9);
    encode_row_into(&mut out, row);
    out
}

/// The set of column ordinals a scan materializes. Every statement reads
/// some of a table's columns; the decoder steps over the rest by tag width
/// and never builds a value for them (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColSet {
    /// `None` = every column; otherwise the ordinals read, ascending.
    only: Option<Vec<usize>>,
}

impl ColSet {
    /// Every column — what `SELECT *`, row fetches and DML sources read.
    pub const fn all() -> ColSet {
        ColSet { only: None }
    }

    /// Exactly the given ordinals (possibly none: `COUNT(*)` reads no
    /// column, only the row count).
    pub fn of(ordinals: impl IntoIterator<Item = usize>) -> ColSet {
        let mut only: Vec<usize> = ordinals.into_iter().collect();
        only.sort_unstable();
        only.dedup();
        ColSet { only: Some(only) }
    }

    /// Whether ordinal `c` is in the set.
    pub fn contains(&self, c: usize) -> bool {
        self.only
            .as_ref()
            .is_none_or(|o| o.binary_search(&c).is_ok())
    }
}

fn corrupt(m: &str) -> StorageError {
    StorageError::Corrupt(m.to_string())
}

/// Column count from the row header.
fn row_arity(bytes: &[u8]) -> Result<usize> {
    match bytes.first_chunk::<2>() {
        Some(h) => Ok(u16::from_le_bytes(*h) as usize),
        None => Err(corrupt("row shorter than header")),
    }
}

/// Walks an encoded row, handing `f` each column's ordinal, tag and payload
/// bytes (8 for INT/FLOAT, the string for TEXT, none for NULL). The one
/// place that knows cell widths: every cell is bounds- and tag-checked
/// whether or not `f` looks at it, so a damaged cell in a column the caller
/// skips is still reported.
#[inline]
fn walk_cells<'a>(
    bytes: &'a [u8],
    mut f: impl FnMut(usize, u8, &'a [u8]) -> Result<()>,
) -> Result<()> {
    let n = row_arity(bytes)?;
    let mut pos = 2usize;
    for c in 0..n {
        let tag = *bytes.get(pos).ok_or_else(|| corrupt("truncated row tag"))?;
        pos += 1;
        let len = match tag {
            TAG_NULL => 0,
            TAG_INT | TAG_FLOAT => 8,
            TAG_TEXT => {
                let l = bytes
                    .get(pos..)
                    .and_then(|b| b.first_chunk::<4>())
                    .ok_or_else(|| corrupt("truncated text length"))?;
                pos += 4;
                u32::from_le_bytes(*l) as usize
            }
            t => return Err(StorageError::Corrupt(format!("unknown row tag {t}"))),
        };
        let payload = bytes
            .get(pos..pos + len)
            .ok_or_else(|| corrupt("truncated cell payload"))?;
        f(c, tag, payload)?;
        pos += len;
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after row"));
    }
    Ok(())
}

/// The 8 payload bytes of an INT/FLOAT cell ([`walk_cells`] sized them).
fn cell8(payload: &[u8]) -> Result<[u8; 8]> {
    payload
        .first_chunk::<8>()
        .copied()
        .ok_or_else(|| corrupt("fixed-width cell is not 8 bytes"))
}

fn cell_text(payload: &[u8]) -> Result<String> {
    std::str::from_utf8(payload)
        .map(str::to_string)
        .map_err(|_| corrupt("non-utf8 text payload"))
}

/// Deserializes a row previously produced by [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(row_arity(bytes)?);
    walk_cells(bytes, |_, tag, payload| {
        out.push(match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(cell8(payload)?)),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(cell8(payload)?)),
            _ => Value::Text(cell_text(payload)?),
        });
        Ok(())
    })?;
    Ok(out)
}

/// Serializes row `r` of `chunk` into `out` (clearing it first) without
/// materializing a `Vec<Value>` — integer columns write their tag and
/// little-endian payload straight from the typed vector.
pub fn encode_row_from_chunk(out: &mut Vec<u8>, chunk: &crate::chunk::Chunk, r: usize) {
    use crate::chunk::Column;
    out.clear();
    debug_assert!(chunk.width() <= u16::MAX as usize);
    out.extend_from_slice(&(chunk.width() as u16).to_le_bytes());
    for col in chunk.columns() {
        match col {
            Column::Int { vals, nulls } => {
                if nulls.get(r) {
                    out.push(TAG_NULL);
                } else {
                    out.push(TAG_INT);
                    out.extend_from_slice(&vals[r].to_le_bytes());
                }
            }
            Column::Generic(v) => match &v[r] {
                Value::Null => out.push(TAG_NULL),
                Value::Int(i) => {
                    out.push(TAG_INT);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    out.push(TAG_FLOAT);
                    out.extend_from_slice(&f.to_le_bytes());
                }
                Value::Text(s) => {
                    out.push(TAG_TEXT);
                    debug_assert!(s.len() <= u32::MAX as usize);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            },
        }
    }
}

/// The cells of a row made only of fixed-width cells (INT/FLOAT: a tag
/// and 8 payload bytes) — every FEM working-table row. Their offsets are
/// known without walking the tags one after another, so a projected decode
/// touches just the cells it wants. `None` for any other shape (NULLs,
/// text, damage), which [`walk_cells`] handles and reports.
fn fixed_cells(bytes: &[u8], n: usize) -> Option<&[[u8; 9]]> {
    let (cells, rest) = bytes.get(2..)?.as_chunks::<9>();
    let fixed = |cell: &[u8; 9]| cell[0] == TAG_INT || cell[0] == TAG_FLOAT;
    (rest.is_empty() && cells.len() == n && cells.iter().all(fixed)).then_some(cells)
}

/// The encoded cell (tag + 8 payload bytes) of row `k` of `col`, when that
/// value is an INT or FLOAT.
fn fixed_cell_of(col: &crate::chunk::Column, k: usize) -> Option<[u8; 9]> {
    use crate::chunk::Column;
    let (tag, payload) = match col {
        Column::Int { vals, nulls } if !nulls.get(k) => (TAG_INT, vals[k].to_le_bytes()),
        Column::Int { .. } => return None,
        Column::Generic(v) => match &v[k] {
            Value::Int(i) => (TAG_INT, i.to_le_bytes()),
            Value::Float(f) => (TAG_FLOAT, f.to_le_bytes()),
            Value::Null | Value::Text(_) => return None,
        },
    };
    let mut cell = [tag; 9];
    cell[1..].copy_from_slice(&payload);
    Some(cell)
}

/// Overwrites the cells `cols` of an encoded row with row `k` of the
/// matching `vals` columns, in place. Possible exactly when the stored row
/// is made only of fixed-width cells and every new value is an INT or
/// FLOAT — no cell changes size, so the result is byte-identical to
/// re-encoding the updated row. Returns `false`, leaving `bytes`
/// untouched, for any other shape (the caller re-encodes the row).
pub fn patch_fixed_cells(
    bytes: &mut [u8],
    cols: &[usize],
    vals: &[crate::chunk::Column],
    k: usize,
) -> bool {
    let Ok(n) = row_arity(bytes) else {
        return false;
    };
    if fixed_cells(bytes, n).is_none() || cols.iter().any(|&c| c >= n) {
        return false;
    }
    if vals.iter().any(|col| fixed_cell_of(col, k).is_none()) {
        return false;
    }
    for (&c, col) in cols.iter().zip(vals) {
        if let Some(cell) = fixed_cell_of(col, k) {
            bytes[2 + 9 * c..2 + 9 * (c + 1)].copy_from_slice(&cell);
        }
    }
    true
}

/// Deserializes the columns of a row that are in `cols` directly into the
/// matching columns of `chunk`, appending one row without materializing a
/// `Vec<Value>`. Columns outside `cols` are stepped over and stay empty;
/// the chunk's row count advances either way. The chunk's width is fixed
/// by the first decoded row; later rows must match it. Integer cells
/// append to the typed column vector (`Chunk`'s hot path); NULLs set the
/// bitmap; anything else demotes that column to generic.
pub fn decode_row_into_chunk(
    bytes: &[u8],
    chunk: &mut crate::chunk::Chunk,
    cols: &ColSet,
) -> Result<()> {
    let n = row_arity(bytes)?;
    if chunk.is_empty() && chunk.width() != n {
        chunk.set_width(n);
    }
    if chunk.width() != n {
        return Err(corrupt("row arity differs from chunk width"));
    }
    if let Some(cells) = fixed_cells(bytes, n) {
        let mut push = |c: usize| {
            let [tag, payload @ ..] = cells[c];
            if tag == TAG_INT {
                chunk.col_mut(c).push_int(i64::from_le_bytes(payload));
            } else {
                chunk
                    .col_mut(c)
                    .push(Value::Float(f64::from_le_bytes(payload)));
            }
        };
        match &cols.only {
            Some(only) => only.iter().take_while(|&&c| c < n).for_each(|&c| push(c)),
            None => (0..n).for_each(push),
        }
    } else {
        walk_cells(bytes, |c, tag, payload| {
            if !cols.contains(c) {
                return Ok(());
            }
            let col = chunk.col_mut(c);
            match tag {
                TAG_NULL => col.push_null(),
                TAG_INT => col.push_int(i64::from_le_bytes(cell8(payload)?)),
                TAG_FLOAT => col.push(Value::Float(f64::from_le_bytes(cell8(payload)?))),
                _ => col.push(Value::Text(cell_text(payload)?)),
            }
            Ok(())
        })?;
    }
    chunk.commit_row();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_row() {
        let row = vec![
            Value::Int(42),
            Value::Null,
            Value::Float(-3.75),
            Value::Text("frontier".into()),
            Value::Int(i64::MIN),
        ];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn roundtrip_empty_row() {
        let row: Vec<Value> = vec![];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn truncated_row_is_error() {
        let row = vec![Value::Int(7)];
        let bytes = encode_row(&row);
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        let mut bytes = encode_row(&[Value::Int(7)]);
        bytes.push(0xAB);
        assert!(decode_row(&bytes).is_err());
    }

    #[test]
    fn text_with_nul_is_fine_in_rows() {
        // Rows (unlike keys) may contain NUL bytes in text.
        let row = vec![Value::Text("a\0b".into())];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }
}
