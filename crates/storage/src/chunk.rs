//! Typed columnar batches (`Chunk`) — the unit of batch-at-a-time
//! execution.
//!
//! A [`Chunk`] holds up to ~[`CHUNK_CAPACITY`] rows as column vectors. The
//! all-integer case — every FEM working table — is stored as a dense
//! `Vec<i64>` plus a [`NullMask`] bitmap, so downstream operators (filters,
//! arithmetic, joins, aggregation) run tight typed loops with no per-cell
//! enum dispatch. Columns that ever see a non-integer value fall back to a
//! generic [`Value`] vector; the fallback is per column, so a mixed table
//! still vectorizes its integer columns (DESIGN.md §11).
//!
//! Chunks are reusable: [`Chunk::reset`] clears the data but keeps both the
//! allocations and each column's representation (a column demoted to
//! generic stays generic, avoiding re-promotion churn across batches).
//! Reshaping keeps allocations too: columns a narrower width drops are
//! set aside and handed back, cleared, when the chunk widens again, so a
//! recycled chunk grows its columns into the buffers it already has.

use crate::value::Value;

/// Target rows per batch. Chosen so an 8-column integer chunk (~64 KiB)
/// stays L2-resident while amortizing per-batch overhead.
pub const CHUNK_CAPACITY: usize = 1024;

/// A validity bitmap: bit set ⇒ the row is NULL.
///
/// Words are only materialized up to the last NULL: a mask with no NULLs
/// holds no words at all, so the common all-valid column never allocates
/// for its mask, and rows past the last word read as valid.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
    set: usize,
}

impl NullMask {
    /// An empty mask.
    pub fn new() -> NullMask {
        NullMask::default()
    }

    /// A mask of `len` rows, none of them NULL.
    pub fn all_valid(len: usize) -> NullMask {
        NullMask {
            words: Vec::new(),
            len,
            set: 0,
        }
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row's validity.
    #[inline]
    pub fn push(&mut self, is_null: bool) {
        self.len += 1;
        if is_null {
            self.set_null(self.len - 1);
        }
    }

    /// Appends `k` rows, none of them NULL.
    #[inline]
    pub fn extend_valid(&mut self, k: usize) {
        self.len += k;
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Marks an already-tracked row `i` as NULL.
    #[inline]
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.set += 1;
        }
    }

    /// True when at least one row is NULL.
    #[inline]
    pub fn any(&self) -> bool {
        self.set > 0
    }

    /// Number of NULL rows.
    pub fn count(&self) -> usize {
        self.set
    }

    /// Clears the mask, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
        self.set = 0;
    }
}

/// One column of a [`Chunk`]: dense integers with a null bitmap, or the
/// generic fallback.
#[derive(Debug, Clone)]
pub enum Column {
    /// Integer column; `nulls.get(i)` ⇒ `vals[i]` is a placeholder 0.
    Int { vals: Vec<i64>, nulls: NullMask },
    /// Any non-integer (or mixed) column.
    Generic(Vec<Value>),
}

impl Default for Column {
    fn default() -> Self {
        Column::new_int()
    }
}

impl Column {
    /// A fresh (optimistically integer-typed) column.
    pub fn new_int() -> Column {
        Column::Int {
            vals: Vec::new(),
            nulls: NullMask::new(),
        }
    }

    /// A fresh generic column.
    pub fn new_generic() -> Column {
        Column::Generic(Vec::new())
    }

    /// A column of `n` NULLs.
    pub fn nulls(n: usize) -> Column {
        let mut nulls = NullMask::all_valid(n);
        (0..n).for_each(|i| nulls.set_null(i));
        Column::Int {
            vals: vec![0; n],
            nulls,
        }
    }

    /// A column holding `v` in each of `n` rows.
    pub fn repeat(v: &Value, n: usize) -> Column {
        match v {
            Value::Int(i) => Column::Int {
                vals: vec![*i; n],
                nulls: NullMask::all_valid(n),
            },
            Value::Null => Column::nulls(n),
            other => Column::Generic(vec![other.clone(); n]),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { vals, .. } => vals.len(),
            Column::Generic(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Demotes an integer column to the generic representation in place.
    fn demote(&mut self) {
        if let Column::Int { vals, nulls } = self {
            let out: Vec<Value> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    if nulls.get(i) {
                        Value::Null
                    } else {
                        Value::Int(v)
                    }
                })
                .collect();
            *self = Column::Generic(out);
        }
    }

    /// Appends a known-integer value (the typed hot path).
    #[inline]
    pub fn push_int(&mut self, v: i64) {
        match self {
            Column::Int { vals, nulls } => {
                vals.push(v);
                nulls.push(false);
            }
            Column::Generic(g) => g.push(Value::Int(v)),
        }
    }

    /// Appends known-integer values, none NULL (the batch row decoder's
    /// typed fill).
    #[inline]
    pub fn extend_ints(&mut self, new: impl ExactSizeIterator<Item = i64>) {
        match self {
            Column::Int { vals, nulls } => {
                nulls.extend_valid(new.len());
                vals.extend(new);
            }
            Column::Generic(g) => g.extend(new.map(Value::Int)),
        }
    }

    /// Appends a NULL.
    #[inline]
    pub fn push_null(&mut self) {
        match self {
            Column::Int { vals, nulls } => {
                vals.push(0);
                nulls.push(true);
            }
            Column::Generic(g) => g.push(Value::Null),
        }
    }

    /// Appends any value, demoting to generic when it is not Int/Null.
    pub fn push(&mut self, v: Value) {
        match v {
            Value::Int(i) => self.push_int(i),
            Value::Null => self.push_null(),
            other => {
                self.demote();
                match self {
                    Column::Generic(g) => g.push(other),
                    Column::Int { .. } => unreachable!("just demoted"),
                }
            }
        }
    }

    /// Value at row `i` (clones text).
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int { vals, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(vals[i])
                }
            }
            Column::Generic(v) => v[i].clone(),
        }
    }

    /// Whether row `i` is NULL (no value clone).
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            Column::Int { nulls, .. } => nulls.get(i),
            Column::Generic(v) => v[i].is_null(),
        }
    }

    /// Clears the data, keeping allocations and the representation.
    pub fn clear(&mut self) {
        match self {
            Column::Int { vals, nulls } => {
                vals.clear();
                nulls.clear();
            }
            Column::Generic(v) => v.clear(),
        }
    }

    /// Appends `other[i]` for each `i` in `idx`; integers copy between the
    /// typed vectors.
    pub fn extend_gather(&mut self, other: &Column, idx: &[u32]) {
        match (&mut *self, other) {
            (
                Column::Int { vals, nulls },
                Column::Int {
                    vals: src,
                    nulls: src_nulls,
                },
            ) => {
                vals.extend(idx.iter().map(|&i| src[i as usize]));
                if src_nulls.any() {
                    idx.iter()
                        .for_each(|&i| nulls.push(src_nulls.get(i as usize)));
                } else {
                    nulls.extend_valid(idx.len());
                }
            }
            _ => idx.iter().for_each(|&i| self.push(other.get(i as usize))),
        }
    }

    /// Appends every row of `other`, copying.
    pub fn extend_from(&mut self, other: &Column) {
        match (&mut *self, other) {
            (
                Column::Int { vals, nulls },
                Column::Int {
                    vals: src,
                    nulls: src_nulls,
                },
            ) => {
                vals.extend_from_slice(src);
                if src_nulls.any() {
                    (0..src.len()).for_each(|i| nulls.push(src_nulls.get(i)));
                } else {
                    nulls.extend_valid(src.len());
                }
            }
            (_, other) => (0..other.len()).for_each(|i| self.push(other.get(i))),
        }
    }

    /// Appends every row of `other`; an empty column simply takes
    /// `other`'s vectors over.
    pub fn append(&mut self, other: Column) {
        if self.is_empty() {
            *self = other;
        } else {
            self.extend_from(&other);
        }
    }

    /// A new column holding `self[i]` for each `i` in `idx`.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut out = match self {
            Column::Int { .. } => Column::new_int(),
            Column::Generic(_) => Column::new_generic(),
        };
        out.extend_gather(self, idx);
        out
    }
}

/// A batch of rows in columnar layout. `len` is authoritative — a chunk
/// may have zero columns but a positive row count (`SELECT` without FROM).
///
/// A projected scan ([`crate::row::ColSet`]) fills only the columns its
/// statement reads: the others stay **absent** — empty vectors inside a
/// chunk with rows. Absent columns keep their slot (offsets bound at plan
/// time stay valid) and survive gathers as absent; reading one is a
/// planner bug, caught by a debug assertion.
#[derive(Debug, Default)]
pub struct Chunk {
    cols: Vec<Column>,
    len: usize,
    /// Cleared columns a narrower width set aside, handed back first when
    /// the chunk widens (their allocations survive reshaping).
    spare: Vec<Column>,
}

impl Clone for Chunk {
    fn clone(&self) -> Chunk {
        Chunk {
            cols: self.cols.clone(),
            len: self.len,
            spare: Vec::new(),
        }
    }
}

impl Chunk {
    /// An empty chunk with no columns yet (columns appear with the first
    /// pushed row).
    pub fn new() -> Chunk {
        Chunk::default()
    }

    /// An empty chunk with `width` pre-created integer-typed columns.
    pub fn with_width(width: usize) -> Chunk {
        Chunk {
            cols: (0..width).map(|_| Column::new_int()).collect(),
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Builds a chunk directly from columns (all must share one length).
    pub fn from_columns(cols: Vec<Column>, len: usize) -> Chunk {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Chunk {
            cols,
            len,
            spare: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Whether column `c` holds this chunk's rows (false for a column a
    /// projected scan skipped).
    #[inline]
    fn is_present(&self, c: usize) -> bool {
        self.cols[c].len() == self.len
    }

    /// Column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &Column {
        debug_assert!(self.is_present(c), "read of unprojected column {c}");
        &self.cols[c]
    }

    /// All columns (a full-row consumer: none may be absent).
    pub fn columns(&self) -> &[Column] {
        debug_assert!(
            (0..self.cols.len()).all(|c| self.is_present(c)),
            "full-row read of a projected chunk"
        );
        &self.cols
    }

    /// Mutable column `c` — used with [`Chunk::commit_row`] by decoders
    /// that append cell-by-cell. If the caller errors between `col_mut`
    /// pushes and `commit_row`, the chunk is left inconsistent and must be
    /// discarded (statement errors abort the batch anyway).
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut Column {
        &mut self.cols[c]
    }

    /// Completes one row appended cell-by-cell through [`Chunk::col_mut`].
    #[inline]
    pub fn commit_row(&mut self) {
        self.commit_rows(1);
    }

    /// Completes `k` rows appended column-by-column through
    /// [`Chunk::col_mut`].
    #[inline]
    pub fn commit_rows(&mut self, k: usize) {
        debug_assert!(self
            .cols
            .iter()
            .all(|c| c.len() == self.len + k || c.is_empty()));
        self.len += k;
    }

    /// Value at `(col, row)`.
    #[inline]
    pub fn get(&self, c: usize, r: usize) -> Value {
        self.col(c).get(r)
    }

    /// Clears all rows, keeping column allocations and representations.
    pub fn reset(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.len = 0;
    }

    /// Clears the chunk for reuse by an *unrelated* consumer: row data is
    /// dropped, integer columns keep their allocations, and columns that
    /// were demoted to generic revert to the typed representation (the
    /// stickiness that is right within one scan would pessimize the next
    /// borrower).
    pub fn reset_for_reuse(&mut self) {
        self.cols.iter_mut().for_each(clear_typed);
        self.len = 0;
    }

    /// Ensures the chunk has exactly `width` columns (integer-typed ones
    /// when it widens); only valid while the chunk is empty. Columns a
    /// narrower width drops are kept aside, cleared, for the next widening.
    pub fn set_width(&mut self, width: usize) {
        debug_assert_eq!(self.len, 0, "cannot reshape a non-empty chunk");
        while self.cols.len() > width {
            if let Some(mut c) = self.cols.pop() {
                clear_typed(&mut c);
                self.spare.push(c);
            }
        }
        while self.cols.len() < width {
            self.cols.push(self.spare.pop().unwrap_or_default());
        }
    }

    /// Appends one empty column slot (a set-aside column when there is
    /// one) for the caller to fill with exactly [`Chunk::len`] rows.
    pub fn add_column(&mut self) -> &mut Column {
        let col = self.spare.pop().unwrap_or_default();
        self.cols.push(col);
        let last = self.cols.len() - 1;
        &mut self.cols[last]
    }

    /// Appends one row. The first row fixes the width; later rows must
    /// match it.
    pub fn push_row(&mut self, row: &[Value]) {
        if self.len == 0 && self.cols.len() != row.len() {
            self.set_width(row.len());
        }
        debug_assert_eq!(self.cols.len(), row.len(), "row arity mismatch");
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v.clone());
        }
        self.len += 1;
    }

    /// Appends an empty row to a zero-column chunk.
    pub fn push_empty_row(&mut self) {
        debug_assert!(self.cols.is_empty());
        self.len += 1;
    }

    /// Materializes row `r` as values.
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.columns().iter().map(|c| c.get(r)).collect()
    }

    /// Materializes every row (the row-at-a-time boundary).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|r| self.row(r)).collect()
    }

    /// Appends joined rows: row `k` is row `lidx[k]` of `left` beside row
    /// `ridx[k]` of `right` (row `k` of `right` when `ridx` is `None`).
    /// Absent columns of either side stay absent.
    pub fn append_joined(
        &mut self,
        left: &Chunk,
        lidx: &[u32],
        right: &Chunk,
        ridx: Option<&[u32]>,
    ) {
        let lw = left.cols.len();
        if self.len == 0 && self.cols.len() != lw + right.cols.len() {
            self.set_width(lw + right.cols.len());
        }
        debug_assert_eq!(self.cols.len(), lw + right.cols.len());
        debug_assert_eq!(lidx.len(), ridx.map_or(right.len, <[u32]>::len));
        for (c, dst) in self.cols[..lw].iter_mut().enumerate() {
            if left.is_present(c) {
                dst.extend_gather(&left.cols[c], lidx);
            }
        }
        for (c, dst) in self.cols[lw..].iter_mut().enumerate() {
            if right.is_present(c) {
                match ridx {
                    Some(ridx) => dst.extend_gather(&right.cols[c], ridx),
                    None => dst.extend_from(&right.cols[c]),
                }
            }
        }
        self.len += lidx.len();
    }

    /// Widens the chunk by `other`'s columns: row `k` of each holds row
    /// `idx[k]` of `other`, and the columns `keep` does not flag (or that
    /// `other` lacks) come out absent.
    pub fn hcat_gather(&mut self, other: &Chunk, idx: &[u32], keep: &[bool]) {
        debug_assert_eq!(idx.len(), self.len);
        for (c, src) in other.cols.iter().enumerate() {
            let present = keep[c] && other.is_present(c);
            let dst = self.add_column();
            if present {
                dst.extend_gather(src, idx);
            }
        }
    }

    /// Appends the rows of `other` selected by `idx`.
    pub fn append_gather(&mut self, other: &Chunk, idx: &[u32]) {
        self.append_gather_prefix(other, idx, other.cols.len());
    }

    /// [`Chunk::append_gather`] over `other`'s first `width` columns only.
    pub fn append_gather_prefix(&mut self, other: &Chunk, idx: &[u32], width: usize) {
        if self.len == 0 && self.cols.len() != width {
            self.set_width(width);
        }
        debug_assert_eq!(self.cols.len(), width);
        for (c, (dst, src)) in self.cols.iter_mut().zip(&other.cols).enumerate() {
            if other.is_present(c) {
                dst.extend_gather(src, idx);
            }
        }
        self.len += idx.len();
    }

    /// A new chunk holding the rows selected by `idx` (column-wise gather).
    pub fn gather(&self, idx: &[u32]) -> Chunk {
        let cols = (0..self.cols.len())
            .map(|c| {
                if self.is_present(c) {
                    self.cols[c].gather(idx)
                } else {
                    Column::new_int()
                }
            })
            .collect();
        Chunk {
            cols,
            len: idx.len(),
            spare: Vec::new(),
        }
    }

    /// Replaces column `i` (must match the row count, or be absent).
    pub fn set_column(&mut self, i: usize, col: Column) {
        debug_assert!(col.len() == self.len || col.is_empty());
        self.cols[i] = col;
    }

    /// Takes the chunk apart into its columns (absent ones included).
    pub fn into_columns(self) -> Vec<Column> {
        self.cols
    }

    /// Appends all rows of `other` (vertical concatenation).
    pub fn append(&mut self, other: &Chunk) {
        if self.len == 0 && self.cols.len() != other.cols.len() {
            self.set_width(other.cols.len());
        }
        debug_assert_eq!(self.cols.len(), other.cols.len());
        for (c, (dst, src)) in self.cols.iter_mut().zip(&other.cols).enumerate() {
            if other.is_present(c) {
                dst.extend_from(src);
            }
        }
        self.len += other.len;
    }

    /// Horizontal concatenation: `self`'s columns followed by `other`'s.
    /// Both must hold the same number of rows.
    pub fn hcat(mut self, other: Chunk) -> Chunk {
        debug_assert_eq!(self.len, other.len);
        self.cols.extend(other.cols);
        self
    }
}

/// Clears a column for an unrelated next user: integer columns keep their
/// allocations, generic ones revert to the typed representation.
fn clear_typed(c: &mut Column) {
    if matches!(c, Column::Generic(_)) {
        *c = Column::new_int();
    } else {
        c.clear();
    }
}

/// Builds a chunk from materialized rows.
pub fn chunk_from_rows(rows: &[Vec<Value>]) -> Chunk {
    let mut c = Chunk::new();
    for row in rows {
        c.push_row(row);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_tracks_bits() {
        let mut m = NullMask::new();
        for i in 0..130 {
            m.push(i % 3 == 0);
        }
        assert_eq!(m.len(), 130);
        assert!(m.any());
        for i in 0..130 {
            assert_eq!(m.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(m.count(), (0..130).filter(|i| i % 3 == 0).count());
        m.clear();
        assert!(!m.any());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn null_mask_extends_valid_rows_across_words() {
        let mut m = NullMask::new();
        m.push(true);
        m.extend_valid(130);
        m.push(true);
        assert_eq!((m.len(), m.count()), (132, 2));
        assert!((0..132).all(|i| m.get(i) == (i == 0 || i == 131)));
        let mut c = Column::new_int();
        c.push_null();
        c.extend_ints([4, -5].into_iter());
        assert_eq!(
            (0..3).map(|i| c.get(i)).collect::<Vec<_>>(),
            [Value::Null, Value::Int(4), Value::Int(-5)]
        );
    }

    #[test]
    fn int_column_roundtrip_with_nulls() {
        let mut c = Column::new_int();
        c.push(Value::Int(7));
        c.push(Value::Null);
        c.push_int(-3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(7));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(-3));
        assert!(c.is_null_at(1) && !c.is_null_at(0));
        assert!(matches!(c, Column::Int { .. }));
    }

    #[test]
    fn text_push_demotes_preserving_prior_rows() {
        let mut c = Column::new_int();
        c.push(Value::Int(1));
        c.push(Value::Null);
        c.push(Value::Text("x".into()));
        c.push(Value::Float(2.5));
        assert!(matches!(c, Column::Generic(_)));
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Text("x".into()));
        assert_eq!(c.get(3), Value::Float(2.5));
        // Demoted columns stay generic across clear (sticky representation).
        c.clear();
        assert!(matches!(c, Column::Generic(_)));
    }

    #[test]
    fn chunk_push_rows_and_gather() {
        let mut ch = Chunk::new();
        for i in 0..10i64 {
            ch.push_row(&[Value::Int(i), Value::Int(i * 2)]);
        }
        assert_eq!(ch.len(), 10);
        assert_eq!(ch.width(), 2);
        let g = ch.gather(&[1, 3, 9]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(1, 2), Value::Int(18));
        let rows = g.to_rows();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn chunk_reset_keeps_width() {
        let mut ch = Chunk::new();
        ch.push_row(&[Value::Int(1)]);
        ch.reset();
        assert_eq!(ch.len(), 0);
        assert_eq!(ch.width(), 1);
        ch.push_row(&[Value::Int(2)]);
        assert_eq!(ch.get(0, 0), Value::Int(2));
    }

    #[test]
    fn zero_column_chunk_counts_rows() {
        let mut ch = Chunk::new();
        ch.push_empty_row();
        ch.push_empty_row();
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.width(), 0);
        assert_eq!(ch.row(0), Vec::<Value>::new());
    }

    /// A chunk filled by a projected decode: column 1 of 3 only.
    fn projected_chunk() -> Chunk {
        let mut ch = Chunk::new();
        for i in 0..4i64 {
            let bytes = crate::row::encode_row(&[Value::Int(i), Value::Int(i * 10), Value::Null]);
            crate::row::decode_row_into_chunk(&bytes, &mut ch, &crate::row::ColSet::of([1]))
                .unwrap();
        }
        ch
    }

    #[test]
    fn absent_columns_keep_their_slot_through_gathers() {
        let ch = projected_chunk();
        assert_eq!((ch.len(), ch.width()), (4, 3));
        assert_eq!(ch.get(1, 2), Value::Int(20));
        let g = ch.gather(&[3, 1]);
        assert_eq!((g.len(), g.width()), (2, 3));
        assert_eq!(g.get(1, 0), Value::Int(30));
        let mut acc = Chunk::new();
        acc.append_gather(&ch, &[0, 2]);
        acc.append_gather(&ch, &[3]);
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.get(1, 2), Value::Int(30));
        let cols = acc.into_columns();
        assert!(cols[0].is_empty() && cols[2].is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unprojected column 0")]
    fn reading_an_unprojected_column_is_caught() {
        projected_chunk().col(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "full-row read of a projected chunk")]
    fn materializing_a_row_of_a_projected_chunk_is_caught() {
        projected_chunk().row(0);
    }

    #[test]
    fn append_gather_concatenates() {
        let mut a = Chunk::new();
        a.push_row(&[Value::Int(1)]);
        let mut b = Chunk::new();
        for i in 10..20i64 {
            b.push_row(&[Value::Int(i)]);
        }
        a.append_gather(&b, &[0, 5]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0, 1), Value::Int(10));
        assert_eq!(a.get(0, 2), Value::Int(15));
    }
}
