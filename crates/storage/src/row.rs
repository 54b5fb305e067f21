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

    /// The ordinals below `n` in the set, ascending.
    fn ordinals(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let (only, all) = match &self.only {
            Some(o) => (&o[..o.partition_point(|&c| c < n)], 0),
            None => (&[][..], n),
        };
        only.iter().copied().chain(0..all)
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
/// known without walking the tags one after another, so an in-place patch
/// touches just the cells it assigns. `None` for any other shape (NULLs,
/// text, damage).
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

/// Deserializes the columns of one row that are in `cols` into `chunk` —
/// [`decode_rows_into_chunk`] over a batch of one.
pub fn decode_row_into_chunk(
    bytes: &[u8],
    chunk: &mut crate::chunk::Chunk,
    cols: &ColSet,
) -> Result<()> {
    decode_rows_into_chunk([bytes], chunk, cols)
}

/// Rows [`decode_rows_into_chunk`] holds at once: a heap page's worth of
/// FEM working-table rows, on the stack — or, for a handful of rows (a
/// point fetch, one probe's matches), a block that costs no more to set up
/// than the rows do to decode.
const PAGE_BLOCK: usize = 128;
const SMALL_BLOCK: usize = 4;

/// The row decoder: deserializes the columns in `cols` of each encoded row
/// of `rows`, in order, into the matching columns of `chunk`, appending one
/// row each without materializing a `Vec<Value>`. Columns outside `cols`
/// are stepped over and stay empty; the chunk's row count advances either
/// way. The chunk's width is fixed by the first decoded row; later rows
/// must match it. Every storage cursor hands it a page's rows at a time
/// (DESIGN.md §11 *Page-at-a-time decode*).
///
/// A run of rows made only of INT cells — every FEM working-table and edge
/// row — has each row's header, length and cell tags checked, then fills
/// each wanted column in one typed loop over the run. Any other row takes
/// the tag walk, which appends INTs to the typed column vector, sets the
/// bitmap for NULLs and demotes a column to generic for anything else.
/// Either way every cell of every row is validated, wanted or not. On an
/// error the rows before the damaged one are appended; the chunk is then
/// discarded by the caller (statement errors abort the batch).
pub fn decode_rows_into_chunk<'a>(
    rows: impl IntoIterator<Item = &'a [u8]>,
    chunk: &mut crate::chunk::Chunk,
    cols: &ColSet,
) -> Result<()> {
    let rows = rows.into_iter();
    if rows.size_hint().1.is_some_and(|most| most <= SMALL_BLOCK) {
        decode_in_blocks::<SMALL_BLOCK>(rows, chunk, cols)
    } else {
        decode_in_blocks::<PAGE_BLOCK>(rows, chunk, cols)
    }
}

/// [`decode_rows_into_chunk`], `B` rows at a time.
fn decode_in_blocks<'a, const B: usize>(
    mut rows: impl Iterator<Item = &'a [u8]>,
    chunk: &mut crate::chunk::Chunk,
    cols: &ColSet,
) -> Result<()> {
    let mut block: [&[u8]; B] = [&[]; B];
    loop {
        let mut k = 0;
        for (slot, row) in block.iter_mut().zip(&mut rows) {
            *slot = row;
            k += 1;
        }
        decode_block(&block[..k], chunk, cols)?;
        if k < B {
            return Ok(());
        }
    }
}

/// [`decode_rows_into_chunk`] over rows held in a slice.
fn decode_block(mut rows: &[&[u8]], chunk: &mut crate::chunk::Chunk, cols: &ColSet) -> Result<()> {
    while let Some(first) = rows.first() {
        if chunk.is_empty() {
            let n = row_arity(first)?;
            if chunk.width() != n {
                chunk.set_width(n);
            }
        }
        let n = chunk.width();
        let run = int_run(rows, n);
        if run > 0 {
            for c in cols.ordinals(n) {
                chunk
                    .col_mut(c)
                    .extend_ints(rows[..run].iter().map(|r| int_cell(r, c)));
            }
            chunk.commit_rows(run);
        }
        if let Some((row, rest)) = rows[run..].split_first() {
            decode_walked(row, chunk, cols)?;
            rows = rest;
        } else {
            rows = &[];
        }
    }
    Ok(())
}

/// How many rows at the head of `rows` are `n` INT cells each. The
/// widths of the FEM tables (up to 8 columns) are matched to literals, so
/// each gets a copy of [`is_int_row`] with its cell count unrolled.
fn int_run(rows: &[&[u8]], n: usize) -> usize {
    let run = |n| rows.iter().take_while(|r| is_int_row(r, n)).count();
    match n {
        1 => run(1),
        2 => run(2),
        3 => run(3),
        4 => run(4),
        5 => run(5),
        6 => run(6),
        7 => run(7),
        8 => run(8),
        _ => run(n),
    }
}

/// Whether `row` is `n` INT cells: the header says `n`, the length is
/// exactly `n` tagged 8-byte cells, and every tag is INT.
#[inline(always)]
fn is_int_row(row: &[u8], n: usize) -> bool {
    let tags = |cells: &[[u8; 9]]| cells.iter().fold(0, |acc, cell| acc | (cell[0] ^ TAG_INT));
    row.len() == 2 + 9 * n
        && row.first_chunk::<2>() == Some(&(n as u16).to_le_bytes())
        && tags(row[2..].as_chunks::<9>().0) == 0
}

/// The value of cell `c` of a row [`is_int_row`] accepted.
#[inline]
fn int_cell(row: &[u8], c: usize) -> i64 {
    let at = 3 + 9 * c;
    row.get(at..at + 8)
        .and_then(<[u8]>::first_chunk::<8>)
        .map_or(0, |b| i64::from_le_bytes(*b))
}

/// One row of any shape, by the tag walk ([`walk_cells`]).
fn decode_walked(bytes: &[u8], chunk: &mut crate::chunk::Chunk, cols: &ColSet) -> Result<()> {
    if row_arity(bytes)? != chunk.width() {
        return Err(corrupt("row arity differs from chunk width"));
    }
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

    /// Widths past the unrolled ones (8, then 9 and 12 through the
    /// generic check) decode like `decode_row`, in runs broken by a
    /// NULL row, across more rows than one block holds.
    #[test]
    fn wide_rows_decode_in_runs() {
        for n in [8usize, 9, 12] {
            let rows: Vec<Vec<Value>> = (0..300i64)
                .map(|r| {
                    (0..n as i64)
                        .map(|c| {
                            if r % 37 == 5 && c == 1 {
                                Value::Null
                            } else {
                                Value::Int(r * 100 + c)
                            }
                        })
                        .collect()
                })
                .collect();
            let encoded: Vec<Vec<u8>> = rows.iter().map(|r| encode_row(r)).collect();
            let cols = ColSet::of([0, n - 1, 1]);
            let mut chunk = crate::chunk::Chunk::new();
            decode_rows_into_chunk(encoded.iter().map(Vec::as_slice), &mut chunk, &cols).unwrap();
            assert_eq!(chunk.len(), rows.len());
            for c in [0, 1, n - 1] {
                let got: Vec<Value> = (0..rows.len()).map(|r| chunk.get(c, r)).collect();
                let want: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                assert_eq!(got, want, "width {n}, column {c}");
            }
        }
    }
}
