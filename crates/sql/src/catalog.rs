//! Catalog: tables, their physical storage, indexes, and views.
//!
//! A table is either a **heap** (unordered slotted pages) or **clustered**
//! (index-organized: rows live in a B+tree keyed by the clustering columns).
//! Secondary indexes map encoded key columns to a row locator. These are the
//! three physical configurations the paper sweeps in Fig 8(c):
//! `NoIndex` (heap, no indexes), `Index` (heap + secondary B+tree), and
//! `CluIndex` (index-organized table).

use crate::ast::ColumnDef;
use crate::error::{Result, SqlError};
use fempath_storage::{
    decode_edge_segment, decode_edge_segment_with, decode_row, decode_row_into_chunk,
    decode_rows_into_chunk, encode_key, encode_key_into, encode_row, encode_row_from_chunk,
    encode_row_into, BTree, BTreeBulkBuilder, BTreeScanCursor, BufferPool, Chunk, ColSet, Column,
    DataType, HeapFile, HeapScanCursor, KeyArena, RecordId, SegmentWriter, Value, CHUNK_CAPACITY,
};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

/// Where a row physically lives.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RowLoc {
    /// Heap record id.
    Heap(RecordId),
    /// Full B+tree key of a clustered table (key columns + uniquifier).
    Clustered(Vec<u8>),
}

impl RowLoc {
    /// Serializes the locator for storage inside a secondary-index entry.
    fn to_bytes(&self) -> Vec<u8> {
        match self {
            RowLoc::Heap(rid) => rid.to_u64().to_be_bytes().to_vec(),
            RowLoc::Clustered(k) => k.clone(),
        }
    }
}

/// Physical storage of a table.
///
/// `Clone` duplicates only the in-memory handles (heap metadata / tree
/// root); see [`Catalog`]'s `Clone` note for when that is sound.
#[derive(Clone)]
pub enum TableStorage {
    Heap(HeapFile),
    Clustered {
        tree: BTree,
        /// Column positions forming the clustering key.
        key_cols: Vec<usize>,
        /// Whether the clustering key is declared unique.
        unique: bool,
        /// Monotonic uniquifier appended to non-unique clustering keys.
        next_uniquifier: u64,
    },
    /// Segment-compressed edge storage (DESIGN.md §14): runs of
    /// `(fid, tid, cost)` rows delta-encoded into varint blobs, each blob a
    /// single B+tree value keyed by `(last_fid, seq)`. The bulk of the
    /// table is filled once via [`Table::bulk_load_segments`]; later
    /// mutations go through a small row-store **delta overlay**
    /// (DESIGN.md §16): INSERTs land in the `delta` heap, DELETEs
    /// tombstone base `(fid, tid)` pairs and physically remove delta
    /// rows ([`Table::delta_delete_edge`]). Every read path merges
    /// base-minus-tombstones with the delta. SQL UPDATE/DELETE are
    /// still rejected (base rows have no per-row locators).
    Segmented {
        tree: BTree,
        /// Column positions usable as an ordered access path — always the
        /// leading `fid` column for the 3-column edge schema.
        key_cols: Vec<usize>,
        /// Total edges across all segments (`tree.len()` counts segments,
        /// not rows), *including* edges suppressed by `tombstones`.
        rows: u64,
        /// Row-store overlay holding post-load inserts.
        delta: HeapFile,
        /// Rows currently in `delta` (live, after physical deletes).
        delta_rows: u64,
        /// Base `(fid, tid)` pairs whose segment edges are suppressed.
        /// A pair tombstones *all* parallel base edges between the two
        /// endpoints, matching edge-level delete semantics.
        tombstones: HashSet<(i64, i64)>,
        /// Base edges suppressed by `tombstones` (so `len()` stays O(1)).
        dead_rows: u64,
    },
}

/// A secondary index.
#[derive(Clone)]
pub struct SecondaryIndex {
    pub name: String,
    pub cols: Vec<usize>,
    pub unique: bool,
    pub tree: BTree,
}

/// Table schema: column names (original case preserved) and types.
#[derive(Debug, Clone)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Case-insensitive column lookup.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// Resolved access path for an equality probe (see
/// [`Table::lookup_eq_chunk`]).
enum EqAccessPath {
    /// Prefix scan of the clustered tree with this encoded key prefix.
    ClusteredPrefix(Vec<u8>),
    /// Ordered segment scan of segmented storage for this `fid`: start at
    /// the first segment whose `last_fid` key reaches the probe, stop at
    /// the first whose opening edge is past it.
    SegmentedFid(i64),
    /// Row locators collected from a secondary index.
    Secondary(BatchLocs),
    /// No usable index — scan and filter.
    Scan,
}

/// A batch of row locators in their raw storage form (record ids, or
/// clustered keys in one flat arena) — what scans, probes and the batched
/// write phases exchange. Owned [`RowLoc`]s are built by
/// [`BatchLocs::loc`] only where a row-at-a-time call needs one.
#[derive(Default)]
pub struct BatchLocs {
    rids: Vec<RecordId>,
    keys: KeyArena,
}

impl BatchLocs {
    /// Number of locators held.
    pub fn len(&self) -> usize {
        self.rids.len().max(self.keys.len())
    }

    /// True when no locator is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets the batch, keeping the allocations.
    pub fn clear(&mut self) {
        self.rids.clear();
        self.keys.clear();
    }

    /// The `r`-th locator.
    pub fn loc(&self, r: usize) -> RowLoc {
        if self.keys.is_empty() {
            RowLoc::Heap(self.rids[r])
        } else {
            RowLoc::Clustered(self.keys.get(r).to_vec())
        }
    }

    /// Appends `other`'s locators at the positions in `sel`.
    pub fn extend_selected(&mut self, other: &BatchLocs, sel: &[u32]) {
        if other.keys.is_empty() {
            self.rids
                .extend(sel.iter().map(|&r| other.rids[r as usize]));
        } else {
            for &r in sel {
                self.keys.push(other.keys.get(r as usize));
            }
        }
    }

    /// Appends the locator stored in a secondary-index entry (see
    /// [`RowLoc::to_bytes`]).
    fn push_bytes(&mut self, bytes: &[u8], clustered: bool) -> Result<()> {
        if clustered {
            self.keys.push(bytes);
        } else {
            let raw: [u8; 8] = bytes.try_into().map_err(|_| {
                SqlError::Catalog(format!(
                    "corrupt index entry: heap locator must be 8 bytes, got {}",
                    bytes.len()
                ))
            })?;
            self.rids.push(RecordId::from_u64(u64::from_be_bytes(raw)));
        }
        Ok(())
    }

    /// The `r`-th locator as stored inside secondary-index entries.
    fn write_bytes(&self, r: usize, out: &mut Vec<u8>) {
        if self.keys.is_empty() {
            out.extend_from_slice(&self.rids[r].to_u64().to_be_bytes());
        } else {
            out.extend_from_slice(self.keys.get(r));
        }
    }

    fn cmp_at(&self, a: usize, b: usize) -> std::cmp::Ordering {
        if self.keys.is_empty() {
            self.rids[a].cmp(&self.rids[b])
        } else {
            self.keys.get(a).cmp(self.keys.get(b))
        }
    }

    /// Positions of the distinct locators, each at its first appearance,
    /// ordered by locator (page order for heap rows).
    fn distinct_sorted(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        let ascending =
            |w: &[u32]| self.cmp_at(w[0] as usize, w[1] as usize) == std::cmp::Ordering::Less;
        if !order.windows(2).all(ascending) {
            order.sort_unstable_by(|&a, &b| self.cmp_at(a as usize, b as usize).then(a.cmp(&b)));
            order.dedup_by(|b, a| self.cmp_at(*a as usize, *b as usize).is_eq());
        }
        order
    }
}

/// How an equality probe on a fixed column list reaches a table — chosen
/// once per statement, at plan time ([`Table::probe_path`]), from the
/// catalog alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePath {
    /// The columns are a prefix of the clustering key: a prefix scan of
    /// the table's own tree.
    Clustered,
    /// The columns are the `fid` key of segment-compressed storage: a
    /// range scan of the segments whose key range holds the probe, plus
    /// the delta overlay.
    Segments,
    /// The columns are a prefix of secondary index `index`. `point`: they
    /// are all the columns of a unique index, so a probe is one point get
    /// matching at most one row; otherwise a prefix scan of the index.
    Secondary { index: usize, point: bool },
    /// No index covers the columns: every probe scans the table.
    Scan,
}

/// How an UPDATE's write phase reaches the rows — chosen once per
/// statement, at plan time ([`Table::update_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Heap target and no assigned column is an index key: the assigned
    /// cells are written into the stored rows from locators alone.
    InPlace,
    /// Clustered target, or an assigned column is an index key: rows are
    /// rewritten whole, one at a time, with full index maintenance — the
    /// caller supplies every column of the old rows.
    Rewrite,
}

/// Appends to `chunk` the `read` columns of the rows `keep` accepts among
/// those `next` decodes (whole rows, a batch per call, `false` once
/// exhausted) — for the probes that must test a row before keeping it.
fn append_matching(
    chunk: &mut Chunk,
    read: &ColSet,
    mut next: impl FnMut(&mut Chunk) -> Result<bool>,
    keep: impl Fn(&Chunk, usize) -> bool,
) -> Result<()> {
    let mut rows = Chunk::new();
    let mut idx = Vec::new();
    loop {
        rows.reset();
        let more = next(&mut rows)?;
        idx.clear();
        idx.extend((0..rows.len() as u32).filter(|&r| keep(&rows, r as usize)));
        if !idx.is_empty() {
            if chunk.is_empty() && chunk.width() != rows.width() {
                chunk.set_width(rows.width());
            }
            for c in (0..rows.width()).filter(|&c| read.contains(c)) {
                chunk.col_mut(c).extend_gather(rows.col(c), &idx);
            }
            chunk.commit_rows(idx.len());
        }
        if !more {
            return Ok(());
        }
    }
}

/// Appends one `(fid, tid, cost)` edge's `cols` columns to a 3-wide chunk.
fn push_edge_cols(chunk: &mut Chunk, edge: (i64, i64, i64), cols: &ColSet) {
    for (c, v) in [edge.0, edge.1, edge.2].into_iter().enumerate() {
        if cols.contains(c) {
            chunk.col_mut(c).push_int(v);
        }
    }
    chunk.commit_row();
}

/// A resumable batched-scan position over a table's storage
/// (see [`Table::batch_cursor`] / [`Table::next_batch`]).
pub enum TableBatchCursor {
    Heap(HeapScanCursor),
    Clustered(BTreeScanCursor),
    Segmented(SegmentScanCursor),
}

/// Resume point of a batched scan over segmented storage: the key of the
/// segment last touched plus how many of its raw (pre-tombstone-filter)
/// edges were already consumed (a segment can straddle two batches when
/// `max` lands inside it). Once the base segments are exhausted the scan
/// continues into the delta overlay via `delta`.
#[derive(Default)]
pub struct SegmentScanCursor {
    cur_key: Option<Vec<u8>>,
    skip: usize,
    done: bool,
    delta: HeapScanCursor,
}

/// A table: schema + storage + indexes.
#[derive(Clone)]
pub struct Table {
    pub schema: TableSchema,
    pub storage: TableStorage,
    pub indexes: Vec<SecondaryIndex>,
}

impl Table {
    fn is_clustered(&self) -> bool {
        matches!(self.storage, TableStorage::Clustered { .. })
    }

    /// True when the table uses segment-compressed edge storage (base
    /// rows immutable, mutations via the delta overlay).
    pub fn is_segmented(&self) -> bool {
        matches!(self.storage, TableStorage::Segmented { .. })
    }

    /// True when some equality could be served by an ordered access path:
    /// the table is clustered or segmented, or has a secondary index.
    pub(crate) fn has_index(&self) -> bool {
        !matches!(self.storage, TableStorage::Heap(_)) || !self.indexes.is_empty()
    }

    /// The longest prefix of an ordered access path whose columns are all
    /// in `usable`, as the position in `usable` of each prefix column (its
    /// first occurrence). Paths are tried in a fixed order — the
    /// clustering or segment key, then the secondary indexes as created —
    /// and a later one wins only with a strictly longer prefix. `None`
    /// when no path's leading column is usable.
    ///
    /// Every planner picks the columns an equality is served on here;
    /// [`Table::probe_path`] then names the structure that serves them.
    pub(crate) fn longest_prefix(&self, usable: &[usize]) -> Option<Vec<usize>> {
        let key = match &self.storage {
            TableStorage::Clustered { key_cols, .. } | TableStorage::Segmented { key_cols, .. } => {
                Some(key_cols.as_slice())
            }
            TableStorage::Heap(_) => None,
        };
        let mut best: Option<Vec<usize>> = None;
        for path in key
            .into_iter()
            .chain(self.indexes.iter().map(|i| &i.cols[..]))
        {
            let picks: Vec<usize> = path
                .iter()
                .map_while(|c| usable.iter().position(|u| u == c))
                .collect();
            if picks.len() > best.as_ref().map_or(0, Vec::len) {
                best = Some(picks);
            }
        }
        best
    }

    pub(crate) fn read_only_err(&self) -> SqlError {
        SqlError::Eval(format!(
            "table {} is segment-compressed: base rows are immutable \
             (use INSERT / delta_delete_edge for edge mutations)",
            self.schema.name
        ))
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        match &self.storage {
            TableStorage::Heap(h) => h.len(),
            TableStorage::Clustered { tree, .. } => tree.len(),
            TableStorage::Segmented {
                rows,
                delta_rows,
                dead_rows,
                ..
            } => *rows - *dead_rows + *delta_rows,
        }
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coerces `row` to the schema's declared types (Int ↔ Float), erroring
    /// on arity or type mismatch.
    pub fn coerce_row(&self, mut row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != self.schema.columns.len() {
            return Err(SqlError::Eval(format!(
                "table {} expects {} columns, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (v, col) in row.iter_mut().zip(&self.schema.columns) {
            let coerced = match (col.dtype, &*v) {
                (_, Value::Null) => Value::Null,
                (DataType::Int, Value::Int(i)) => Value::Int(*i),
                (DataType::Int, Value::Float(f)) => Value::Int(*f as i64),
                (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
                (DataType::Float, Value::Float(f)) => Value::Float(*f),
                (DataType::Text, Value::Text(s)) => Value::Text(s.clone()),
                (want, got) => {
                    return Err(SqlError::Eval(format!(
                        "column {}.{} expects {want}, got {got:?}",
                        self.schema.name, col.name
                    )))
                }
            };
            *v = coerced;
        }
        Ok(row)
    }

    /// Inserts a (already coerced) row, maintaining all indexes. On a
    /// segmented table the row lands in the delta overlay (segmented
    /// tables cannot have secondary indexes, so no index maintenance).
    pub fn insert_row(&mut self, pool: &mut BufferPool, row: &[Value]) -> Result<RowLoc> {
        if self.is_segmented() {
            if row.iter().any(|v| !matches!(v, Value::Int(_))) {
                return Err(SqlError::Eval(format!(
                    "table {} is segment-compressed: delta rows must be non-NULL integers",
                    self.schema.name
                )));
            }
            let bytes = encode_row(row);
            let TableStorage::Segmented {
                delta, delta_rows, ..
            } = &mut self.storage
            else {
                unreachable!("checked above");
            };
            let rid = delta.insert(pool, &bytes)?;
            *delta_rows += 1;
            return Ok(RowLoc::Heap(rid));
        }
        let bytes = encode_row(row);
        let loc = match &mut self.storage {
            TableStorage::Heap(h) => RowLoc::Heap(h.insert(pool, &bytes)?),
            TableStorage::Clustered {
                tree,
                key_cols,
                unique,
                next_uniquifier,
            } => {
                let mut key =
                    encode_key(&key_cols.iter().map(|&c| row[c].clone()).collect::<Vec<_>>())?;
                if *unique {
                    if tree.contains(pool, &key)? {
                        return Err(SqlError::DuplicateKey {
                            table: self.schema.name.clone(),
                            key: format_key(row, key_cols),
                        });
                    }
                } else {
                    key.extend_from_slice(&next_uniquifier.to_be_bytes());
                    *next_uniquifier += 1;
                }
                tree.insert(pool, &key, &bytes)?;
                RowLoc::Clustered(key)
            }
            TableStorage::Segmented { .. } => unreachable!("guarded above"),
        };
        // Maintain secondary indexes; roll back is not attempted (single
        // writer, errors abort the statement).
        let clustered = self.is_clustered();
        for idx in &mut self.indexes {
            let mut key =
                encode_key(&idx.cols.iter().map(|&c| row[c].clone()).collect::<Vec<_>>())?;
            if idx.unique {
                if idx.tree.contains(pool, &key)? {
                    // Undo the base insert to keep table/indexes agreed.
                    match (&mut self.storage, &loc) {
                        (TableStorage::Heap(h), RowLoc::Heap(rid)) => h.delete(pool, *rid)?,
                        (TableStorage::Clustered { tree, .. }, RowLoc::Clustered(k)) => {
                            tree.delete(pool, k)?;
                        }
                        _ => unreachable!(),
                    }
                    return Err(SqlError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: format_key(row, &idx.cols),
                    });
                }
                idx.tree.insert(pool, &key, &loc.to_bytes())?;
            } else {
                key.extend_from_slice(&loc.to_bytes());
                idx.tree.insert(pool, &key, &[])?;
            }
        }
        let _ = clustered;
        Ok(loc)
    }

    /// Deletes the row at `loc` (the caller supplies the decoded row so
    /// index entries can be located without a re-read).
    pub fn delete_row(&mut self, pool: &mut BufferPool, loc: &RowLoc, row: &[Value]) -> Result<()> {
        if self.is_segmented() {
            return Err(self.read_only_err());
        }
        match (&mut self.storage, loc) {
            (TableStorage::Heap(h), RowLoc::Heap(rid)) => h.delete(pool, *rid)?,
            (TableStorage::Clustered { tree, .. }, RowLoc::Clustered(k)) => {
                tree.delete(pool, k)?;
            }
            _ => {
                return Err(SqlError::Eval(
                    "row locator does not match table storage".into(),
                ))
            }
        }
        for idx in &mut self.indexes {
            let mut key =
                encode_key(&idx.cols.iter().map(|&c| row[c].clone()).collect::<Vec<_>>())?;
            if !idx.unique {
                key.extend_from_slice(&loc.to_bytes());
            }
            idx.tree.delete(pool, &key)?;
        }
        Ok(())
    }

    /// Replaces the row at `loc` with `new_row`, maintaining indexes.
    /// Returns the (possibly new) locator.
    pub fn update_row(
        &mut self,
        pool: &mut BufferPool,
        loc: &RowLoc,
        old_row: &[Value],
        new_row: &[Value],
    ) -> Result<RowLoc> {
        if self.is_segmented() {
            return Err(self.read_only_err());
        }
        // A unique key may only move onto a free slot; checked before
        // anything is written, as `insert_row` does.
        for idx in self.indexes.iter().filter(|i| i.unique) {
            if idx.cols.iter().all(|&c| old_row[c] == new_row[c]) {
                continue;
            }
            let new_vals: Vec<Value> = idx.cols.iter().map(|&c| new_row[c].clone()).collect();
            if idx.tree.contains(pool, &encode_key(&new_vals)?)? {
                return Err(SqlError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: format_key(new_row, &idx.cols),
                });
            }
        }
        let bytes = encode_row(new_row);
        let new_loc = match (&mut self.storage, loc) {
            (TableStorage::Heap(h), RowLoc::Heap(rid)) => {
                RowLoc::Heap(h.update(pool, *rid, &bytes)?)
            }
            (
                TableStorage::Clustered {
                    tree,
                    key_cols,
                    unique,
                    next_uniquifier,
                },
                RowLoc::Clustered(old_key),
            ) => {
                let key_changed = key_cols.iter().any(|&c| old_row[c] != new_row[c]);
                if key_changed {
                    let mut key = encode_key(
                        &key_cols
                            .iter()
                            .map(|&c| new_row[c].clone())
                            .collect::<Vec<_>>(),
                    )?;
                    if *unique {
                        if tree.contains(pool, &key)? {
                            return Err(SqlError::DuplicateKey {
                                table: self.schema.name.clone(),
                                key: format_key(new_row, key_cols),
                            });
                        }
                    } else {
                        key.extend_from_slice(&next_uniquifier.to_be_bytes());
                        *next_uniquifier += 1;
                    }
                    tree.delete(pool, old_key)?;
                    tree.insert(pool, &key, &bytes)?;
                    RowLoc::Clustered(key)
                } else {
                    tree.insert(pool, old_key, &bytes)?;
                    RowLoc::Clustered(old_key.clone())
                }
            }
            _ => {
                return Err(SqlError::Eval(
                    "row locator does not match table storage".into(),
                ))
            }
        };
        for idx in &mut self.indexes {
            let old_vals: Vec<Value> = idx.cols.iter().map(|&c| old_row[c].clone()).collect();
            let new_vals: Vec<Value> = idx.cols.iter().map(|&c| new_row[c].clone()).collect();
            if old_vals == new_vals && new_loc == *loc {
                continue;
            }
            let mut old_key = encode_key(&old_vals)?;
            let mut new_key = encode_key(&new_vals)?;
            if idx.unique {
                idx.tree.delete(pool, &old_key)?;
                idx.tree.insert(pool, &new_key, &new_loc.to_bytes())?;
            } else {
                old_key.extend_from_slice(&loc.to_bytes());
                new_key.extend_from_slice(&new_loc.to_bytes());
                idx.tree.delete(pool, &old_key)?;
                idx.tree.insert(pool, &new_key, &[])?;
            }
        }
        Ok(new_loc)
    }

    /// Full scan in storage order; `f` returns `false` to stop.
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(RowLoc, Vec<Value>) -> bool,
    ) -> Result<()> {
        match &self.storage {
            TableStorage::Heap(h) => {
                let mut decode_err = None;
                h.scan(pool, |rid, bytes| match decode_row(bytes) {
                    Ok(row) => f(RowLoc::Heap(rid), row),
                    Err(e) => {
                        decode_err = Some(e);
                        false
                    }
                })?;
                if let Some(e) = decode_err {
                    return Err(e.into());
                }
            }
            TableStorage::Clustered { tree, .. } => {
                let mut decode_err = None;
                tree.scan_range(
                    pool,
                    Bound::Unbounded,
                    Bound::Unbounded,
                    |k, v| match decode_row(v) {
                        Ok(row) => f(RowLoc::Clustered(k.to_vec()), row),
                        Err(e) => {
                            decode_err = Some(e);
                            false
                        }
                    },
                )?;
                if let Some(e) = decode_err {
                    return Err(e.into());
                }
            }
            TableStorage::Segmented {
                tree,
                delta,
                tombstones,
                ..
            } => {
                // Decode each segment in key order; base edges come out
                // sorted by (fid, tid, cost), tombstoned pairs suppressed.
                // Rows of one segment share its key as a (non-unique)
                // locator — fine for reads, and base-row DML on segmented
                // tables is rejected before locators matter. Delta-overlay
                // rows follow in heap order with real heap locators.
                let mut decode_err = None;
                let mut go = true;
                tree.scan_range(pool, Bound::Unbounded, Bound::Unbounded, |k, v| {
                    let res = decode_edge_segment_with(v, |ef, et, ec| {
                        if go && !tombstones.contains(&(ef, et)) {
                            go = f(
                                RowLoc::Clustered(k.to_vec()),
                                vec![Value::Int(ef), Value::Int(et), Value::Int(ec)],
                            );
                        }
                    });
                    if let Err(e) = res {
                        decode_err = Some(e);
                        return false;
                    }
                    go
                })?;
                if let Some(e) = decode_err {
                    return Err(e.into());
                }
                if go {
                    delta.scan(pool, |rid, bytes| match decode_row(bytes) {
                        Ok(row) => f(RowLoc::Heap(rid), row),
                        Err(e) => {
                            decode_err = Some(e);
                            false
                        }
                    })?;
                    if let Some(e) = decode_err {
                        return Err(e.into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes the `read` columns of the rows stored at `locs` into `chunk`
    /// (appending, in the order given) — the row fetch behind index probes and the re-read of the rows a projected DML
    /// target scan selected. Each run of heap locators on one page costs
    /// one buffer-pool read (a scan's locators are page-ordered).
    pub fn fetch_chunk(
        &self,
        pool: &mut BufferPool,
        locs: &BatchLocs,
        chunk: &mut Chunk,
        read: &ColSet,
    ) -> Result<()> {
        if locs.is_empty() {
            return Ok(());
        }
        match &self.storage {
            TableStorage::Heap(h) if locs.keys.is_empty() => {
                Ok(h.fetch_into_chunk(pool, &locs.rids, chunk, read)?)
            }
            TableStorage::Clustered { tree, .. } if locs.rids.is_empty() => {
                for r in 0..locs.keys.len() {
                    let decoded = tree.get_with(pool, locs.keys.get(r), |bytes| {
                        decode_row_into_chunk(bytes, chunk, read)
                    })?;
                    decoded
                        .ok_or_else(|| SqlError::Eval("dangling clustered locator".into()))??;
                }
                Ok(())
            }
            TableStorage::Segmented { .. } => Err(SqlError::Eval(
                "segmented base storage has no per-row locators".into(),
            )),
            _ => Err(SqlError::Eval(
                "row locator does not match table storage".into(),
            )),
        }
    }

    /// Rows whose values in `cols` equal `key_vals`, along the `path` a
    /// plan recorded for `cols` ([`Table::probe_path`]), decoding the
    /// `read` columns of every match straight into the columns of `chunk`
    /// (appending) — the batched probe the vectorized lookups and index
    /// nested-loop joins use.
    pub fn lookup_eq_chunk(
        &self,
        pool: &mut BufferPool,
        path: ProbePath,
        cols: &[usize],
        key_vals: &[Value],
        chunk: &mut Chunk,
        read: &ColSet,
    ) -> Result<()> {
        match self.resolve_eq_path(pool, path, cols, key_vals)? {
            EqAccessPath::ClusteredPrefix(prefix) => {
                let TableStorage::Clustered { tree, .. } = &self.storage else {
                    unreachable!("clustered path implies clustered storage");
                };
                let mut decoded = Ok(());
                tree.scan_prefix_runs(pool, &prefix, |run| {
                    decoded = decode_rows_into_chunk(run.vals(), chunk, read);
                    decoded.is_ok()
                })?;
                Ok(decoded?)
            }
            EqAccessPath::SegmentedFid(fid) => {
                // The FEM expansion hot path: decode matching edges
                // straight into the chunk's int columns, no Vec<Value>
                // per row.
                let TableStorage::Segmented {
                    tree,
                    delta,
                    tombstones,
                    ..
                } = &self.storage
                else {
                    unreachable!("segmented path implies segmented storage");
                };
                if chunk.is_empty() && chunk.width() != 3 {
                    chunk.set_width(3);
                }
                if chunk.width() != 3 {
                    return Err(SqlError::Eval(
                        "segmented probe chunk must be 3 columns wide".into(),
                    ));
                }
                let lo = encode_key(&[Value::Int(fid)])?;
                let mut decode_err = None;
                tree.scan_range(pool, Bound::Included(&lo), Bound::Unbounded, |_, v| {
                    let mut past = false;
                    let mut first = true;
                    let res = decode_edge_segment_with(v, |ef, et, ec| {
                        if first {
                            first = false;
                            if ef > fid {
                                past = true;
                            }
                        }
                        if ef == fid && !tombstones.contains(&(ef, et)) {
                            push_edge_cols(chunk, (ef, et, ec), read);
                        }
                    });
                    if let Err(e) = res {
                        decode_err = Some(e);
                        return false;
                    }
                    !past
                })?;
                if let Some(e) = decode_err {
                    return Err(e.into());
                }
                // Delta-overlay rows for this fid (unsorted tail).
                let mut cursor = delta.batch_cursor();
                append_matching(
                    chunk,
                    read,
                    |rows| {
                        Ok(cursor.next_batch(
                            delta,
                            pool,
                            rows,
                            &ColSet::all(),
                            None,
                            CHUNK_CAPACITY,
                        )?)
                    },
                    |rows, r| rows.get(0, r).as_i64() == Some(fid),
                )
            }
            EqAccessPath::Secondary(locs) => self.fetch_chunk(pool, &locs, chunk, read),
            EqAccessPath::Scan => {
                let mut cursor = self.batch_cursor(pool)?;
                append_matching(
                    chunk,
                    read,
                    |rows| {
                        self.next_batch(
                            pool,
                            &mut cursor,
                            rows,
                            &ColSet::all(),
                            None,
                            CHUNK_CAPACITY,
                        )
                    },
                    // NULLs never match.
                    |rows, r| {
                        cols.iter().zip(key_vals).all(|(&c, v)| {
                            let cell = rows.get(c, r);
                            !cell.is_null() && cell.total_cmp(v).is_eq()
                        })
                    },
                )
            }
        }
    }

    /// Resolves `path` for one probe of `cols` by `key_vals`: the encoded
    /// tree prefix, the segment `fid`, or — for a secondary index — the
    /// row locators the index holds.
    fn resolve_eq_path(
        &self,
        pool: &mut BufferPool,
        path: ProbePath,
        cols: &[usize],
        key_vals: &[Value],
    ) -> Result<EqAccessPath> {
        debug_assert_eq!(cols.len(), key_vals.len());
        Ok(match path {
            ProbePath::Clustered => EqAccessPath::ClusteredPrefix(encode_key(key_vals)?),
            ProbePath::Segments => match key_vals[0].as_i64() {
                Some(fid) => EqAccessPath::SegmentedFid(fid),
                // A non-integral probe can never equal an INT fid (and
                // NULLs never match): indexed empty result.
                None => EqAccessPath::Secondary(BatchLocs::default()),
            },
            ProbePath::Secondary { index, point } => {
                let mut locs = BatchLocs::default();
                self.probe_index_locs(pool, index, point, &encode_key(key_vals)?, &mut locs)?;
                EqAccessPath::Secondary(locs)
            }
            ProbePath::Scan => EqAccessPath::Scan,
        })
    }

    /// How an equality on `cols` is served — the one answer the planners
    /// record and the executors follow:
    ///
    /// 1. the clustered tree when `cols` is a prefix of the clustering key,
    /// 2. the segments when `cols` is the `fid` key of segmented storage,
    /// 3. a secondary index `cols` is a prefix of (unique and fully
    ///    covered → point get, else prefix scan),
    /// 4. a scan.
    pub fn probe_path(&self, cols: &[usize]) -> ProbePath {
        let is_prefix = |of: &[usize]| cols.len() <= of.len() && cols == &of[..cols.len()];
        match &self.storage {
            TableStorage::Clustered { key_cols, .. } if is_prefix(key_cols) => {
                return ProbePath::Clustered
            }
            TableStorage::Segmented { key_cols, .. } if cols == key_cols.as_slice() => {
                return ProbePath::Segments
            }
            _ => {}
        }
        match self.indexes.iter().position(|i| is_prefix(&i.cols)) {
            Some(index) => {
                let idx = &self.indexes[index];
                ProbePath::Secondary {
                    index,
                    point: idx.unique && cols.len() == idx.cols.len(),
                }
            }
            None => ProbePath::Scan,
        }
    }

    /// The [`ProbePath::Secondary`] probe: appends to `out` the locators
    /// index `index` holds for the encoded probe key `key` — one point get
    /// when `point`, else a prefix scan. The rows are fetched afterwards,
    /// page-grouped ([`Table::fetch_chunk`]).
    pub fn probe_index_locs(
        &self,
        pool: &mut BufferPool,
        index: usize,
        point: bool,
        key: &[u8],
        out: &mut BatchLocs,
    ) -> Result<()> {
        let clustered = self.is_clustered();
        let idx = self
            .indexes
            .get(index)
            .ok_or_else(|| SqlError::Eval("probe of a dropped index".into()))?;
        // Decode errors inside the scan callbacks (which can only
        // continue/stop) are parked and surfaced after the scan.
        let mut parked: Result<()> = Ok(());
        if point {
            if let Some(pushed) = idx
                .tree
                .get_with(pool, key, |v| out.push_bytes(v, clustered))?
            {
                pushed?;
            }
        } else if idx.unique {
            idx.tree.scan_prefix(pool, key, |_, v| {
                parked = out.push_bytes(v, clustered);
                parked.is_ok()
            })?;
        } else {
            // The locator is the key suffix past the indexed column
            // values.
            let n_cols = idx.cols.len();
            idx.tree.scan_prefix(pool, key, |k, _| {
                parked = index_key_loc(k, n_cols).and_then(|loc| out.push_bytes(loc, clustered));
                parked.is_ok()
            })?;
        }
        parked
    }

    /// The [`ProbePath::Clustered`] probe: one prefix scan of the
    /// clustering tree for the encoded probe key `key`, appending each
    /// match's locator to `locs` and — the scan stands on the rows — its
    /// `read` columns to `rows`.
    pub fn probe_clustered(
        &self,
        pool: &mut BufferPool,
        key: &[u8],
        locs: &mut BatchLocs,
        rows: &mut Chunk,
        read: &ColSet,
    ) -> Result<()> {
        let TableStorage::Clustered { tree, .. } = &self.storage else {
            return Err(SqlError::Eval(
                "clustered probe of a table that is not clustered".into(),
            ));
        };
        let mut decoded = Ok(());
        tree.scan_prefix_runs(pool, key, |run| {
            run.keys().for_each(|k| locs.keys.push(k));
            decoded = decode_rows_into_chunk(run.vals(), rows, read);
            decoded.is_ok()
        })?;
        Ok(decoded?)
    }

    /// The [`ProbePath::Segments`] probe, whose base rows have no
    /// locators: appends the `read` columns of the rows whose `fid` key
    /// `cols` equal `key_vals` to `rows` ([`Table::lookup_eq_chunk`]) and
    /// one placeholder locator per match to `locs`. No write accepts those
    /// — [`Table::update_rows`] refuses segmented storage — but a statement
    /// that matches nothing, or only inserts (the delta overlay), runs.
    pub fn probe_segmented(
        &self,
        pool: &mut BufferPool,
        cols: &[usize],
        key_vals: &[Value],
        locs: &mut BatchLocs,
        rows: &mut Chunk,
        read: &ColSet,
    ) -> Result<()> {
        self.lookup_eq_chunk(pool, ProbePath::Segments, cols, key_vals, rows, read)?;
        locs.rids.resize(rows.len(), RecordId::from_u64(u64::MAX));
        Ok(())
    }

    /// The [`ProbePath::Scan`] probe: appends the locators of the rows
    /// whose `cols` equal `key_vals` (NULLs never match), reading only
    /// those columns.
    pub fn scan_eq_locs(
        &self,
        pool: &mut BufferPool,
        cols: &[usize],
        key_vals: &[Value],
        out: &mut BatchLocs,
    ) -> Result<()> {
        let read = ColSet::of(cols.iter().copied());
        let mut cursor = self.batch_cursor(pool)?;
        let mut chunk = Chunk::new();
        let mut batch = BatchLocs::default();
        let mut sel: Vec<u32> = Vec::new();
        loop {
            chunk.reset();
            batch.clear();
            let more = self.next_batch(
                pool,
                &mut cursor,
                &mut chunk,
                &read,
                Some(&mut batch),
                CHUNK_CAPACITY,
            )?;
            sel.clear();
            sel.extend((0..chunk.len() as u32).filter(|&r| {
                cols.iter().zip(key_vals).all(|(&c, v)| {
                    let cell = chunk.get(c, r as usize);
                    !cell.is_null() && cell.total_cmp(v).is_eq()
                })
            }));
            out.extend_selected(&batch, &sel);
            if !more {
                return Ok(());
            }
        }
    }

    /// A batched-scan cursor over the table's storage (heap or clustered
    /// tree), positioned at the first row. The table must not be mutated
    /// while the cursor is in use.
    pub fn batch_cursor(&self, pool: &mut BufferPool) -> Result<TableBatchCursor> {
        Ok(match &self.storage {
            TableStorage::Heap(_) => TableBatchCursor::Heap(HeapScanCursor::default()),
            TableStorage::Clustered { tree, .. } => {
                TableBatchCursor::Clustered(tree.batch_cursor(pool)?)
            }
            TableStorage::Segmented { .. } => {
                TableBatchCursor::Segmented(SegmentScanCursor::default())
            }
        })
    }

    /// Decodes the `cols` columns of up to `max` further rows into `chunk`
    /// (appending), also recording their locators into `locs` when given.
    /// Returns `false` once the table is exhausted. Rows arrive in the
    /// same storage order as [`Table::scan`].
    pub fn next_batch(
        &self,
        pool: &mut BufferPool,
        cursor: &mut TableBatchCursor,
        chunk: &mut Chunk,
        cols: &ColSet,
        locs: Option<&mut BatchLocs>,
        max: usize,
    ) -> Result<bool> {
        match (&self.storage, cursor) {
            (TableStorage::Heap(h), TableBatchCursor::Heap(c)) => {
                Ok(c.next_batch(h, pool, chunk, cols, locs.map(|l| &mut l.rids), max)?)
            }
            (TableStorage::Clustered { .. }, TableBatchCursor::Clustered(c)) => {
                Ok(c.next_batch(pool, chunk, cols, locs.map(|l| &mut l.keys), max)?)
            }
            (
                TableStorage::Segmented {
                    tree,
                    delta,
                    tombstones,
                    ..
                },
                TableBatchCursor::Segmented(c),
            ) => {
                if locs.is_some() {
                    return Err(SqlError::Eval(
                        "segmented base storage has no per-row locators".into(),
                    ));
                }
                if chunk.is_empty() && chunk.width() != 3 {
                    chunk.set_width(3);
                }
                if chunk.width() != 3 {
                    return Err(SqlError::Eval(
                        "segmented scan chunk must be 3 columns wide".into(),
                    ));
                }
                let mut added = 0usize;
                if !c.done {
                    let lo_key = c.cur_key.clone();
                    let lo = match &lo_key {
                        None => Bound::Unbounded,
                        // Mid-segment resume re-reads the same segment and
                        // skips the raw edges already consumed (`skip`
                        // counts pre-filter edges so tombstones cannot
                        // desynchronise the resume point).
                        Some(k) if c.skip > 0 => Bound::Included(k.as_slice()),
                        Some(k) => Bound::Excluded(k.as_slice()),
                    };
                    let mut skip = c.skip;
                    let mut new_pos: Option<(Vec<u8>, usize)> = None;
                    let mut stopped_early = false;
                    let mut decode_err = None;
                    tree.scan_range(pool, lo, Bound::Unbounded, |k, v| {
                        if added >= max {
                            stopped_early = true;
                            return false;
                        }
                        let edges = match decode_edge_segment(v) {
                            Ok(e) => e,
                            Err(e) => {
                                decode_err = Some(e);
                                return false;
                            }
                        };
                        let offset = skip.min(edges.len());
                        skip = 0;
                        let mut consumed = offset;
                        for &(ef, et, ec) in &edges[offset..] {
                            if added >= max {
                                break;
                            }
                            consumed += 1;
                            if tombstones.contains(&(ef, et)) {
                                continue;
                            }
                            push_edge_cols(chunk, (ef, et, ec), cols);
                            added += 1;
                        }
                        if consumed < edges.len() {
                            new_pos = Some((k.to_vec(), consumed));
                            stopped_early = true;
                            false
                        } else {
                            new_pos = Some((k.to_vec(), 0));
                            true
                        }
                    })?;
                    if let Some(e) = decode_err {
                        return Err(e.into());
                    }
                    if let Some((k, s)) = new_pos {
                        c.cur_key = Some(k);
                        c.skip = s;
                    }
                    if stopped_early {
                        return Ok(true);
                    }
                    c.done = true;
                }
                // Base exhausted: stream the delta overlay.
                let more = c
                    .delta
                    .next_batch(delta, pool, chunk, cols, None, max - added)?;
                Ok(more)
            }
            _ => Err(SqlError::Eval("cursor does not match table storage".into())),
        }
    }

    /// Coerces every column of `chunk` to the schema's declared types —
    /// the column-wise analogue of [`Table::coerce_row`].
    pub(crate) fn coerce_chunk(&self, chunk: Chunk) -> Result<Chunk> {
        if chunk.width() != self.schema.columns.len() {
            return Err(SqlError::Eval(format!(
                "table {} expects {} columns, got {}",
                self.schema.name,
                self.schema.columns.len(),
                chunk.width()
            )));
        }
        let len = chunk.len();
        let cols = chunk
            .into_columns()
            .into_iter()
            .enumerate()
            .map(|(c, col)| self.coerce_column(c, col))
            .collect::<Result<_>>()?;
        Ok(Chunk::from_columns(cols, len))
    }

    /// Coerces values bound for column `c` to its declared type. An
    /// integer column feeding an INT schema column passes through
    /// untouched (the FEM steady state).
    pub(crate) fn coerce_column(&self, c: usize, col: Column) -> Result<Column> {
        let spec = &self.schema.columns[c];
        if let (DataType::Int, Column::Int { .. }) = (spec.dtype, &col) {
            return Ok(col);
        }
        let mut out = Column::new_int();
        for r in 0..col.len() {
            out.push(match (spec.dtype, col.get(r)) {
                (_, Value::Null) => Value::Null,
                (DataType::Int, Value::Int(i)) => Value::Int(i),
                (DataType::Int, Value::Float(f)) => Value::Int(f as i64),
                (DataType::Float, Value::Int(i)) => Value::Float(i as f64),
                (DataType::Float, Value::Float(f)) => Value::Float(f),
                (DataType::Text, Value::Text(s)) => Value::Text(s),
                (want, got) => {
                    return Err(SqlError::Eval(format!(
                        "column {}.{} expects {want}, got {got:?}",
                        self.schema.name, spec.name
                    )))
                }
            });
        }
        Ok(out)
    }

    /// Appends the encoded key of `cols` at row `r` of `chunk` to `out`.
    fn chunk_key_into(out: &mut Vec<u8>, chunk: &Chunk, cols: &[usize], r: usize) -> Result<()> {
        for &c in cols {
            encode_key_into(out, &chunk.get(c, r))?;
        }
        Ok(())
    }

    /// Inserts every row of `chunk`, maintaining all indexes, with
    /// batch-level storage calls: one duplicate pre-scan, one page-packing
    /// heap write batch, and sorted per-index insert batches — instead of
    /// one full round trip per row. Behaviour under a duplicate key
    /// matches repeated [`Table::insert_row`]: rows before the offender
    /// are inserted and stay, the statement errors. (A key that cannot be
    /// encoded fails the batch before anything is written.)
    pub fn insert_chunk(&mut self, pool: &mut BufferPool, chunk: &Chunk) -> Result<u64> {
        if chunk.is_empty() {
            return Ok(0);
        }
        let chunk = self.coerce_chunk(chunk.clone())?;
        self.insert_chunk_precoerced(pool, &chunk, None)
    }

    /// [`Table::insert_chunk`] for a chunk whose columns the caller
    /// already coerced. `absent_from` names a unique secondary index the
    /// caller has just probed, without a match, for every row's key (MERGE
    /// NOT MATCHED): those keys are checked against each other but not
    /// against the index again.
    pub(crate) fn insert_chunk_precoerced(
        &mut self,
        pool: &mut BufferPool,
        chunk: &Chunk,
        absent_from: Option<usize>,
    ) -> Result<u64> {
        if chunk.is_empty() {
            return Ok(0);
        }
        let n = chunk.len();
        if !matches!(self.storage, TableStorage::Heap(_)) {
            // Clustered inserts are per-key tree descents (and own the
            // key uniquifier); delta-overlay inserts are per-row heap
            // appends. Both keep the row path.
            for r in 0..n {
                let row = chunk.row(r);
                self.insert_row(pool, &row)?;
            }
            return Ok(n as u64);
        }
        // Every row's key under every index, encoded once: the duplicate
        // pre-scan and the index entries below both use them.
        let mut keys: Vec<Vec<Vec<u8>>> = Vec::with_capacity(self.indexes.len());
        for idx in &self.indexes {
            let mut of_idx = Vec::with_capacity(n);
            for r in 0..n {
                let mut key = Vec::with_capacity(idx.cols.len() * 9 + 8);
                Self::chunk_key_into(&mut key, chunk, &idx.cols, r)?;
                of_idx.push(key);
            }
            keys.push(of_idx);
        }
        // Unique-index pre-scan: the first offending row in row order —
        // a key already in the index, or repeated earlier in the batch.
        let mut dup: Option<(usize, usize)> = None; // (row, index)
        for (ii, idx) in self.indexes.iter().enumerate().filter(|(_, i)| i.unique) {
            let of_idx = &keys[ii];
            let mut by_key: Vec<usize> = (0..n).collect();
            by_key.sort_unstable_by(|&a, &b| of_idx[a].cmp(&of_idx[b]).then(a.cmp(&b)));
            let mut first = by_key
                .windows(2)
                .filter(|w| of_idx[w[0]] == of_idx[w[1]])
                .map(|w| w[1])
                .min();
            if absent_from != Some(ii) {
                let bound = first.unwrap_or(n).min(dup.map_or(n, |(r, _)| r));
                for (r, key) in of_idx.iter().enumerate().take(bound) {
                    if idx.tree.contains(pool, key)? {
                        first = Some(r);
                        break;
                    }
                }
            }
            if let Some(r) = first.filter(|&r| dup.is_none_or(|(d, _)| r < d)) {
                dup = Some((r, ii));
            }
        }
        let limit = dup.map_or(n, |(r, _)| r);
        // Base rows: one page-packing batch insert.
        let mut encoded = Vec::with_capacity(limit);
        let mut buf = Vec::new();
        for r in 0..limit {
            encode_row_from_chunk(&mut buf, chunk, r);
            encoded.push(buf.clone());
        }
        let rids = match &mut self.storage {
            TableStorage::Heap(h) => h.insert_batch(pool, &encoded)?,
            _ => unreachable!("handled above"),
        };
        // Index maintenance: sorted batches per index.
        for (idx, of_idx) in self.indexes.iter_mut().zip(keys) {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = of_idx
                .into_iter()
                .zip(&rids)
                .map(|(mut key, rid)| {
                    let loc = rid.to_u64().to_be_bytes();
                    if idx.unique {
                        (key, loc.to_vec())
                    } else {
                        key.extend_from_slice(&loc);
                        (key, Vec::new())
                    }
                })
                .collect();
            idx.tree.insert_batch(pool, entries)?;
        }
        match dup {
            Some((r, ii)) => Err(SqlError::DuplicateKey {
                table: self.schema.name.clone(),
                key: format_key(&chunk.row(r), &self.indexes[ii].cols),
            }),
            None => Ok(n as u64),
        }
    }

    /// How [`Table::update_rows`] must apply assignments to `assign_cols`.
    pub fn update_mode(&self, assign_cols: &[usize]) -> UpdateMode {
        let keyed = |cols: &[usize]| cols.iter().any(|c| assign_cols.contains(c));
        match &self.storage {
            TableStorage::Heap(_) if !self.indexes.iter().any(|i| keyed(&i.cols)) => {
                UpdateMode::InPlace
            }
            _ => UpdateMode::Rewrite,
        }
    }

    /// Whether each column is part of some secondary index — what
    /// [`Table::delete_rows`] needs of the rows it removes.
    pub fn indexed_cols(&self) -> Vec<bool> {
        let mut used = vec![false; self.schema.columns.len()];
        for &c in self.indexes.iter().flat_map(|i| &i.cols) {
            used[c] = true;
        }
        used
    }

    /// Applies one statement's assignments: for every `k`, column
    /// `assign_cols[j]` of the row at `locs[k]` becomes row `k` of
    /// `new_vals[j]` (values already coerced). A row located more than
    /// once keeps its first assignment. `mode` is this table's
    /// [`Table::update_mode`] for `assign_cols`; under
    /// [`UpdateMode::Rewrite`] `old` holds every column of the rows as
    /// they are stored. Returns the number of distinct rows updated.
    pub fn update_rows(
        &mut self,
        pool: &mut BufferPool,
        locs: &BatchLocs,
        assign_cols: &[usize],
        new_vals: &[Column],
        old: &Chunk,
        mode: UpdateMode,
    ) -> Result<u64> {
        if locs.is_empty() {
            return Ok(0);
        }
        if self.is_segmented() {
            return Err(self.read_only_err());
        }
        debug_assert_eq!(mode, self.update_mode(assign_cols));
        let mut order = locs.distinct_sorted();
        match (&mut self.storage, mode) {
            (TableStorage::Heap(h), UpdateMode::InPlace) if locs.keys.is_empty() => {
                let moved = h.update_cells(pool, &locs.rids, &order, assign_cols, new_vals)?;
                // A record that moved pages re-points every index at its
                // new id (its key values did not change).
                for m in moved {
                    let old_loc = locs.rids[m.item].to_u64().to_be_bytes();
                    let new_loc = m.rid.to_u64().to_be_bytes();
                    for idx in &mut self.indexes {
                        let vals: Vec<Value> = idx.cols.iter().map(|&c| m.row[c].clone()).collect();
                        let base = encode_key(&vals)?;
                        if idx.unique {
                            idx.tree.insert(pool, &base, &new_loc)?;
                        } else {
                            idx.tree.delete(pool, &[&base[..], &old_loc].concat())?;
                            idx.tree
                                .insert(pool, &[&base[..], &new_loc].concat(), &[])?;
                        }
                    }
                }
            }
            (TableStorage::Heap(_) | TableStorage::Clustered { .. }, UpdateMode::Rewrite) => {
                // Arrival order, exactly as a row-at-a-time executor
                // would: an error leaves the rows before it applied.
                order.sort_unstable();
                for &k in &order {
                    let old_row = old.row(k as usize);
                    let mut new_row = old_row.clone();
                    for (&c, vals) in assign_cols.iter().zip(new_vals) {
                        new_row[c] = vals.get(k as usize);
                    }
                    self.update_row(pool, &locs.loc(k as usize), &old_row, &new_row)?;
                }
            }
            _ => {
                return Err(SqlError::Eval(
                    "row locator does not match table storage".into(),
                ))
            }
        }
        Ok(order.len() as u64)
    }

    /// Deletes the rows at `locs`; row `r` of `rows` holds (at least) the
    /// [`Table::indexed_cols`] of the row at `locs[r]`. Heap rows go in
    /// one page-grouped batch.
    pub fn delete_rows(
        &mut self,
        pool: &mut BufferPool,
        locs: &BatchLocs,
        rows: &Chunk,
    ) -> Result<()> {
        if locs.is_empty() {
            return Ok(());
        }
        match &mut self.storage {
            TableStorage::Heap(h) if locs.keys.is_empty() => h.delete_batch(pool, &locs.rids)?,
            TableStorage::Clustered { tree, .. } if locs.rids.is_empty() => {
                for r in 0..locs.len() {
                    tree.delete(pool, locs.keys.get(r))?;
                }
            }
            TableStorage::Segmented { .. } => return Err(self.read_only_err()),
            _ => {
                return Err(SqlError::Eval(
                    "row locator does not match table storage".into(),
                ))
            }
        }
        let mut key = Vec::new();
        for idx in &mut self.indexes {
            for r in 0..locs.len() {
                key.clear();
                Self::chunk_key_into(&mut key, rows, &idx.cols, r)?;
                if !idx.unique {
                    locs.write_bytes(r, &mut key);
                }
                idx.tree.delete(pool, &key)?;
            }
        }
        Ok(())
    }

    /// Removes all rows (storage and indexes), keeping pages for reuse.
    pub fn truncate(&mut self, pool: &mut BufferPool) -> Result<()> {
        match &mut self.storage {
            TableStorage::Heap(h) => h.truncate(pool)?,
            TableStorage::Clustered { tree, .. } => tree.clear(pool)?,
            TableStorage::Segmented {
                tree,
                rows,
                delta,
                delta_rows,
                tombstones,
                dead_rows,
                ..
            } => {
                tree.clear(pool)?;
                delta.truncate(pool)?;
                tombstones.clear();
                *rows = 0;
                *delta_rows = 0;
                *dead_rows = 0;
            }
        }
        for idx in &mut self.indexes {
            idx.tree.clear(pool)?;
        }
        Ok(())
    }

    /// Fills an empty segmented table from edges sorted by `(fid, tid,
    /// cost)`: packs them into delta-encoded varint segments
    /// ([`SegmentWriter`]) and bulk-builds the B+tree bottom-up — no
    /// per-key root-to-leaf descents. Errors if the table is not
    /// segmented, already loaded, or the input is out of order.
    pub fn bulk_load_segments(
        &mut self,
        pool: &mut BufferPool,
        edges: impl IntoIterator<Item = (i64, i64, i64)>,
    ) -> Result<u64> {
        let TableStorage::Segmented {
            tree,
            rows,
            delta_rows,
            ..
        } = &mut self.storage
        else {
            return Err(SqlError::Eval(format!(
                "table {} is not segment-compressed",
                self.schema.name
            )));
        };
        if *rows != 0 || !tree.is_empty() || *delta_rows != 0 {
            return Err(SqlError::Eval(format!(
                "segmented table {} is already loaded",
                self.schema.name
            )));
        }
        // Segment keys are (last fid, sequence number): the sequence keeps
        // keys unique, and keying by *last* fid means an equality probe can
        // start at the first segment whose key reaches the probe fid even
        // when that fid's run begins inside an earlier-starting segment.
        let mut segs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut seq = 0u64;
        let mut total = 0u64;
        let mut prev: Option<(i64, i64, i64)> = None;
        {
            let mut w = SegmentWriter::new(|_first, last, blob| {
                let mut key = encode_key(&[Value::Int(last)])?;
                key.extend_from_slice(&seq.to_be_bytes());
                seq += 1;
                segs.push((key, blob));
                Ok(())
            });
            for e in edges {
                if prev.is_some_and(|p| p > e) {
                    return Err(SqlError::Eval(format!(
                        "bulk load into {} requires (fid, tid, cost) order",
                        self.schema.name
                    )));
                }
                prev = Some(e);
                total += 1;
                w.push(e.0, e.1, e.2)?;
            }
            w.flush()?;
        }
        let TableStorage::Segmented { tree, rows, .. } = &mut self.storage else {
            unreachable!("checked above");
        };
        tree.bulk_build(pool, segs)?;
        *rows = total;
        Ok(total)
    }

    /// Deletes every `(fid, tid)` edge of a segmented table — base rows
    /// by tombstone (all parallel edges between the endpoints are
    /// suppressed at once; segment blobs are immutable), delta-overlay
    /// rows physically. Returns the number of edges removed. Idempotent:
    /// deleting an already-tombstoned or absent pair removes nothing.
    pub fn delta_delete_edge(&mut self, pool: &mut BufferPool, fid: i64, tid: i64) -> Result<u64> {
        let TableStorage::Segmented {
            tree,
            delta,
            delta_rows,
            tombstones,
            dead_rows,
            ..
        } = &mut self.storage
        else {
            return Err(SqlError::Eval(format!(
                "table {} is not segment-compressed",
                self.schema.name
            )));
        };
        let mut removed = 0u64;
        if !tombstones.contains(&(fid, tid)) {
            // Count the base edges the new tombstone suppresses so len()
            // stays exact.
            let lo = encode_key(&[Value::Int(fid)])?;
            let mut base = 0u64;
            let mut decode_err = None;
            tree.scan_range(pool, Bound::Included(&lo), Bound::Unbounded, |_, v| {
                let mut past = false;
                let mut first = true;
                let res = decode_edge_segment_with(v, |ef, et, _| {
                    if first {
                        first = false;
                        if ef > fid {
                            past = true;
                        }
                    }
                    if ef == fid && et == tid {
                        base += 1;
                    }
                });
                if let Err(e) = res {
                    decode_err = Some(e);
                    return false;
                }
                !past
            })?;
            if let Some(e) = decode_err {
                return Err(e.into());
            }
            if base > 0 {
                tombstones.insert((fid, tid));
                *dead_rows += base;
                removed += base;
            }
        }
        // Delta rows matching the pair go away physically, so a later
        // re-insert of the same edge is visible again.
        let mut rids = Vec::new();
        let mut decode_err = None;
        delta.scan(pool, |rid, bytes| match decode_row(bytes) {
            Ok(row) => {
                if row.first().and_then(|v| v.as_i64()) == Some(fid)
                    && row.get(1).and_then(|v| v.as_i64()) == Some(tid)
                {
                    rids.push(rid);
                }
                true
            }
            Err(e) => {
                decode_err = Some(e);
                false
            }
        })?;
        if let Some(e) = decode_err {
            return Err(e.into());
        }
        if !rids.is_empty() {
            delta.delete_batch(pool, &rids)?;
            *delta_rows -= rids.len() as u64;
            removed += rids.len() as u64;
        }
        Ok(removed)
    }

    /// Bulk-loads an empty table (and its empty indexes) from pre-coerced
    /// rows: base storage gets page-packing batch writes (heap) or a
    /// bottom-up build (clustered), and every index tree is bulk-built
    /// bottom-up from sorted entries — bypassing per-row descents
    /// entirely. Unique violations surface as [`SqlError::DuplicateKey`]
    /// before anything is written.
    pub fn bulk_load_rows(
        &mut self,
        pool: &mut BufferPool,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<u64> {
        if self.is_segmented() {
            return Err(SqlError::Eval(format!(
                "table {} is segment-compressed; use bulk_load_segments",
                self.schema.name
            )));
        }
        if !self.is_empty() || self.indexes.iter().any(|i| !i.tree.is_empty()) {
            return Err(SqlError::Eval(format!(
                "bulk load requires empty table {}",
                self.schema.name
            )));
        }
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|r| self.coerce_row(r))
            .collect::<Result<_>>()?;
        let n = rows.len() as u64;
        if rows.is_empty() {
            return Ok(0);
        }
        // Unique violations (within the batch — the table is empty) are
        // detected before anything is written.
        for idx in self.indexes.iter().filter(|i| i.unique) {
            let mut keyed: Vec<(Vec<u8>, usize)> = rows
                .iter()
                .enumerate()
                .map(|(r, row)| {
                    encode_key(&idx.cols.iter().map(|&c| row[c].clone()).collect::<Vec<_>>())
                        .map(|k| (k, r))
                })
                .collect::<std::result::Result<_, _>>()?;
            keyed.sort_unstable();
            if let Some(w) = keyed.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(SqlError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: format_key(&rows[w[1].1], &idx.cols),
                });
            }
        }
        // Resolve every row's locator with one batch write of the base
        // storage.
        let locs: Vec<RowLoc> = match &mut self.storage {
            TableStorage::Heap(h) => {
                let encoded: Vec<Vec<u8>> = rows.iter().map(|r| encode_row(r)).collect();
                h.insert_batch(pool, &encoded)?
                    .into_iter()
                    .map(RowLoc::Heap)
                    .collect()
            }
            TableStorage::Clustered {
                tree,
                key_cols,
                unique,
                next_uniquifier,
            } => {
                // Encodes one row's clustering-key prefix into `out`
                // (cleared first).
                let key_prefix = |row: &[Value], out: &mut Vec<u8>| -> Result<()> {
                    out.clear();
                    for &c in key_cols.iter() {
                        encode_key_into(out, &row[c])?;
                    }
                    Ok(())
                };
                // Non-decreasing key prefixes plus the monotone uniquifier
                // give strictly increasing full keys, so key-sorted input
                // (the CSR edge stream) can skip the sort below.
                let mut sorted_input = !*unique;
                if sorted_input {
                    let mut prev = Vec::new();
                    let mut cur = Vec::new();
                    for row in &rows {
                        key_prefix(row, &mut cur)?;
                        if cur < prev {
                            sorted_input = false;
                            break;
                        }
                        std::mem::swap(&mut prev, &mut cur);
                    }
                }
                if sorted_input && self.indexes.is_empty() {
                    // No locators needed and no sort: stream straight into
                    // the bottom-up builder with two reusable buffers —
                    // zero per-row allocations on the million-edge path.
                    let mut b = BTreeBulkBuilder::for_tree(tree, pool)?;
                    let mut key = Vec::new();
                    let mut val = Vec::new();
                    for row in &rows {
                        key_prefix(row, &mut key)?;
                        key.extend_from_slice(&next_uniquifier.to_be_bytes());
                        *next_uniquifier += 1;
                        encode_row_into(&mut val, row);
                        b.push(pool, &key, &val)?;
                    }
                    tree.bulk_finish(pool, b)?;
                    Vec::new()
                } else {
                    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(rows.len());
                    for row in &rows {
                        let mut key = Vec::with_capacity(17);
                        key_prefix(row, &mut key)?;
                        if !*unique {
                            key.extend_from_slice(&next_uniquifier.to_be_bytes());
                            *next_uniquifier += 1;
                        }
                        entries.push((key, encode_row(row)));
                    }
                    // Sort indirectly so duplicate-key errors can name the
                    // offending row's values.
                    let mut order: Vec<usize> = (0..entries.len()).collect();
                    if !sorted_input {
                        order.sort_by(|&a, &b| entries[a].0.cmp(&entries[b].0));
                    }
                    if *unique {
                        if let Some(w) = order
                            .windows(2)
                            .find(|w| entries[w[0]].0 == entries[w[1]].0)
                        {
                            return Err(SqlError::DuplicateKey {
                                table: self.schema.name.clone(),
                                key: format_key(&rows[w[1]], key_cols),
                            });
                        }
                    }
                    let locs: Vec<RowLoc> = entries
                        .iter()
                        .map(|(k, _)| RowLoc::Clustered(k.clone()))
                        .collect();
                    let sorted: Vec<(Vec<u8>, Vec<u8>)> = order
                        .iter()
                        .map(|&i| std::mem::take(&mut entries[i]))
                        .collect();
                    tree.bulk_build(pool, sorted)?;
                    locs
                }
            }
            TableStorage::Segmented { .. } => unreachable!("guarded above"),
        };
        // Every index: sorted entries, bottom-up build.
        for idx in &mut self.indexes {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(rows.len());
            for (row, loc) in rows.iter().zip(&locs) {
                let mut key =
                    encode_key(&idx.cols.iter().map(|&c| row[c].clone()).collect::<Vec<_>>())?;
                if idx.unique {
                    entries.push((key, loc.to_bytes()));
                } else {
                    key.extend_from_slice(&loc.to_bytes());
                    entries.push((key, Vec::new()));
                }
            }
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            idx.tree.bulk_build(pool, entries)?;
        }
        Ok(n)
    }
}

/// The locator suffix of a non-unique index key: what follows the encoded
/// index-column values.
fn index_key_loc(key: &[u8], n_cols: usize) -> Result<&[u8]> {
    let mut rest = key;
    for _ in 0..n_cols {
        let (_, r) = fempath_storage::value::decode_key_one(rest)
            .map_err(|e| SqlError::Catalog(format!("corrupt index key: {e}")))?;
        rest = r;
    }
    Ok(rest)
}

fn format_key(row: &[Value], cols: &[usize]) -> String {
    let parts: Vec<String> = cols.iter().map(|&c| row[c].to_string()).collect();
    format!("({})", parts.join(", "))
}

/// The database catalog.
///
/// `Clone` duplicates the schema plus every table's in-memory storage
/// handles, **not** the pages they address. It exists for the snapshot
/// architecture (DESIGN.md §10): a frozen database's catalog is the
/// template cloned into each copy-on-write session, where page writes
/// land in the session's private overlay. Cloning a catalog while the
/// original keeps mutating the same buffer pool is not supported.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    views: HashMap<String, crate::ast::Select>,
    /// index name (lowercase) → table name (lowercase).
    index_owner: HashMap<String, String>,
    /// Monotonic schema version, bumped by every DDL statement that changes
    /// what a physical plan could depend on (tables, indexes, views).
    /// Cached plans are validated against it and replanned when stale.
    version: u64,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Current schema version. TRUNCATE and DML leave it unchanged; CREATE
    /// and DROP of tables, indexes and views advance it.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    pub fn create_table(
        &mut self,
        pool: &mut BufferPool,
        name: &str,
        columns: Vec<ColumnDef>,
        primary_key: Option<Vec<String>>,
    ) -> Result<()> {
        let key = Self::key(name);
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(SqlError::Catalog(format!("table {name} already exists")));
        }
        let schema = TableSchema {
            name: name.to_string(),
            columns,
        };
        let mut table = Table {
            schema,
            storage: TableStorage::Heap(HeapFile::create()),
            indexes: Vec::new(),
        };
        if let Some(pk_cols) = primary_key {
            let cols = resolve_cols(&table.schema, &pk_cols)?;
            let idx_name = format!("pk_{}", name.to_ascii_lowercase());
            table.indexes.push(SecondaryIndex {
                name: idx_name.clone(),
                cols,
                unique: true,
                tree: BTree::create(pool)?,
            });
            self.index_owner.insert(idx_name, key.clone());
        }
        self.tables.insert(key, table);
        self.version += 1;
        Ok(())
    }

    /// Creates a segment-compressed edge table (DESIGN.md §14). The
    /// schema must be exactly three INT columns — `(fid, tid, cost)`
    /// shaped — with the first column doubling as the ordered access path.
    /// Fill it with [`Table::bulk_load_segments`]; post-load mutations go
    /// through the delta overlay (INSERT / [`Table::delta_delete_edge`]).
    pub fn create_segmented_table(
        &mut self,
        pool: &mut BufferPool,
        name: &str,
        columns: Vec<ColumnDef>,
    ) -> Result<()> {
        let key = Self::key(name);
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(SqlError::Catalog(format!("table {name} already exists")));
        }
        if columns.len() != 3 || columns.iter().any(|c| !matches!(c.dtype, DataType::Int)) {
            return Err(SqlError::Catalog(format!(
                "segmented table {name} requires exactly three INT columns"
            )));
        }
        let table = Table {
            schema: TableSchema {
                name: name.to_string(),
                columns,
            },
            storage: TableStorage::Segmented {
                tree: BTree::create(pool)?,
                key_cols: vec![0],
                rows: 0,
                delta: HeapFile::create(),
                delta_rows: 0,
                tombstones: HashSet::new(),
                dead_rows: 0,
            },
            indexes: Vec::new(),
        };
        self.tables.insert(key, table);
        self.version += 1;
        Ok(())
    }

    pub fn drop_table(&mut self, pool: &mut BufferPool, name: &str, if_exists: bool) -> Result<()> {
        let key = Self::key(name);
        match self.tables.remove(&key) {
            Some(table) => {
                match table.storage {
                    TableStorage::Heap(_) => { /* heap pages stay with the pool */ }
                    TableStorage::Clustered { tree, .. } | TableStorage::Segmented { tree, .. } => {
                        tree.destroy(pool)?
                    }
                }
                for idx in table.indexes {
                    idx.tree.destroy(pool)?;
                }
                // Covers both secondary indexes and the clustered index
                // name (which lives in the storage, not the index list).
                self.index_owner.retain(|_, owner| owner != &key);
                self.version += 1;
                Ok(())
            }
            None if if_exists => Ok(()),
            None => Err(SqlError::Catalog(format!("no such table {name}"))),
        }
    }

    pub fn create_view(&mut self, name: &str, query: crate::ast::Select) -> Result<()> {
        let key = Self::key(name);
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(SqlError::Catalog(format!("name {name} already in use")));
        }
        self.views.insert(key, query);
        self.version += 1;
        Ok(())
    }

    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        self.views
            .remove(&Self::key(name))
            .map(|_| self.version += 1)
            .ok_or_else(|| SqlError::Catalog(format!("no such view {name}")))
    }

    pub fn view(&self, name: &str) -> Option<&crate::ast::Select> {
        self.views.get(&Self::key(name))
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| SqlError::Catalog(format!("no such table {name}")))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| SqlError::Catalog(format!("no such table {name}")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// Creates an index. A clustered index physically reorganises the table
    /// into a B+tree on the key; any existing secondary indexes are rebuilt
    /// because row locators change.
    pub fn create_index(
        &mut self,
        pool: &mut BufferPool,
        stmt: &crate::ast::CreateIndex,
    ) -> Result<()> {
        let idx_key = Self::key(&stmt.name);
        if self.index_owner.contains_key(&idx_key) {
            return Err(SqlError::Catalog(format!(
                "index {} already exists",
                stmt.name
            )));
        }
        let table = self
            .tables
            .get_mut(&Self::key(&stmt.table))
            .ok_or_else(|| SqlError::Catalog(format!("no such table {}", stmt.table)))?;
        let cols = resolve_cols(&table.schema, &stmt.columns)?;

        if table.is_segmented() {
            // Segment rows have no per-row locators for a secondary index
            // to point at, and the fid access path already exists.
            return Err(SqlError::Catalog(format!(
                "table {} is segment-compressed and cannot be indexed",
                stmt.table
            )));
        }
        if stmt.clustered {
            if table.is_clustered() {
                return Err(SqlError::Catalog(format!(
                    "table {} is already clustered",
                    stmt.table
                )));
            }
            // Materialise all rows, rebuild as index-organised storage.
            let mut rows = Vec::new();
            table.scan(pool, |_, row| {
                rows.push(row);
                true
            })?;
            let mut storage = TableStorage::Clustered {
                tree: BTree::create(pool)?,
                key_cols: cols.clone(),
                unique: stmt.unique,
                next_uniquifier: 0,
            };
            std::mem::swap(&mut table.storage, &mut storage);
            if let TableStorage::Heap(mut h) = storage {
                h.truncate(pool)?;
            }
            // Rebuild secondary indexes (locators changed) and reinsert.
            for idx in &mut table.indexes {
                idx.tree.clear(pool)?;
            }
            for row in rows {
                table.insert_row(pool, &row)?;
            }
            self.index_owner.insert(idx_key, Self::key(&stmt.table));
            self.version += 1;
            return Ok(());
        }

        // Secondary index: build from a scan.
        let mut index = SecondaryIndex {
            name: stmt.name.clone(),
            cols: cols.clone(),
            unique: stmt.unique,
            tree: BTree::create(pool)?,
        };
        let mut entries: Vec<(Vec<Value>, RowLoc)> = Vec::new();
        table.scan(pool, |loc, row| {
            entries.push((cols.iter().map(|&c| row[c].clone()).collect(), loc));
            true
        })?;
        for (vals, loc) in entries {
            let mut key = encode_key(&vals)?;
            if index.unique {
                if index.tree.contains(pool, &key)? {
                    return Err(SqlError::DuplicateKey {
                        table: stmt.table.clone(),
                        key: format!("{vals:?}"),
                    });
                }
                index.tree.insert(pool, &key, &loc.to_bytes())?;
            } else {
                key.extend_from_slice(&loc.to_bytes());
                index.tree.insert(pool, &key, &[])?;
            }
        }
        table.indexes.push(index);
        self.index_owner.insert(idx_key, Self::key(&stmt.table));
        self.version += 1;
        Ok(())
    }

    pub fn drop_index(&mut self, pool: &mut BufferPool, name: &str) -> Result<()> {
        let idx_key = Self::key(name);
        let owner = self
            .index_owner
            .remove(&idx_key)
            .ok_or_else(|| SqlError::Catalog(format!("no such index {name}")))?;
        let table = self
            .tables
            .get_mut(&owner)
            .ok_or_else(|| SqlError::Catalog(format!("index {name} points at a dropped table")))?;
        let pos = table
            .indexes
            .iter()
            .position(|i| i.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::Catalog(format!("no such index {name}")))?;
        let idx = table.indexes.remove(pos);
        idx.tree.destroy(pool)?;
        self.version += 1;
        Ok(())
    }

    /// Names of all tables (for diagnostics / the SQL shell example).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .values()
            .map(|t| t.schema.name.clone())
            .collect();
        names.sort();
        names
    }
}

fn resolve_cols(schema: &TableSchema, names: &[String]) -> Result<Vec<usize>> {
    names
        .iter()
        .map(|n| {
            schema
                .col_index(n)
                .ok_or_else(|| SqlError::Bind(format!("no column {n} in {}", schema.name)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CreateIndex;

    fn setup() -> (BufferPool, Catalog) {
        let mut pool = BufferPool::in_memory(256);
        let mut cat = Catalog::new();
        cat.create_table(
            &mut pool,
            "TEdges",
            vec![
                ColumnDef {
                    name: "fid".into(),
                    dtype: DataType::Int,
                },
                ColumnDef {
                    name: "tid".into(),
                    dtype: DataType::Int,
                },
                ColumnDef {
                    name: "cost".into(),
                    dtype: DataType::Int,
                },
            ],
            None,
        )
        .unwrap();
        (pool, cat)
    }

    fn row(f: i64, t: i64, c: i64) -> Vec<Value> {
        vec![Value::Int(f), Value::Int(t), Value::Int(c)]
    }

    /// The rows whose `cols` equal `key`, read whole along the path
    /// [`Table::probe_path`] picks for `cols`, and that path.
    fn probe(
        pool: &mut BufferPool,
        t: &Table,
        cols: &[usize],
        key: &[Value],
    ) -> (ProbePath, Vec<Vec<Value>>) {
        let path = t.probe_path(cols);
        let mut chunk = Chunk::with_width(t.schema.columns.len());
        t.lookup_eq_chunk(pool, path, cols, key, &mut chunk, &ColSet::all())
            .unwrap();
        (path, (0..chunk.len()).map(|r| chunk.row(r)).collect())
    }

    fn triple(r: &[Value]) -> (i64, i64, i64) {
        (
            r[0].as_i64().unwrap(),
            r[1].as_i64().unwrap(),
            r[2].as_i64().unwrap(),
        )
    }

    #[test]
    fn insert_scan_roundtrip() {
        let (mut pool, mut cat) = setup();
        let t = cat.table_mut("tedges").unwrap();
        for i in 0..10 {
            t.insert_row(&mut pool, &row(i, i + 1, 5)).unwrap();
        }
        let mut n = 0;
        t.scan(&mut pool, |_, r| {
            assert_eq!(r.len(), 3);
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 10);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn secondary_index_lookup() {
        let (mut pool, mut cat) = setup();
        {
            let t = cat.table_mut("TEdges").unwrap();
            for i in 0..100 {
                t.insert_row(&mut pool, &row(i % 10, i, 1)).unwrap();
            }
        }
        cat.create_index(
            &mut pool,
            &CreateIndex {
                name: "idx_fid".into(),
                table: "TEdges".into(),
                columns: vec!["fid".into()],
                unique: false,
                clustered: false,
            },
        )
        .unwrap();
        let t = cat.table("TEdges").unwrap();
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(3)]);
        assert_eq!(
            path,
            ProbePath::Secondary {
                index: 0,
                point: false
            },
            "index should be used"
        );
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|r| r[1].as_i64().unwrap() % 10 == 3));
        // An unindexed column is served by a scan.
        let (path, hits) = probe(&mut pool, t, &[1], &[Value::Int(42)]);
        assert_eq!(path, ProbePath::Scan);
        assert_eq!(hits, vec![row(2, 42, 1)]);
    }

    #[test]
    fn clustered_index_reorganises_table() {
        let (mut pool, mut cat) = setup();
        {
            let t = cat.table_mut("TEdges").unwrap();
            for i in (0..50).rev() {
                t.insert_row(&mut pool, &row(i, 100 + i, 1)).unwrap();
            }
        }
        cat.create_index(
            &mut pool,
            &CreateIndex {
                name: "clu_fid".into(),
                table: "TEdges".into(),
                columns: vec!["fid".into()],
                unique: false,
                clustered: true,
            },
        )
        .unwrap();
        let t = cat.table("TEdges").unwrap();
        assert!(t.is_clustered());
        assert_eq!(t.len(), 50);
        // Scan now yields clustering-key order.
        let mut fids = Vec::new();
        t.scan(&mut pool, |_, r| {
            fids.push(r[0].as_i64().unwrap());
            true
        })
        .unwrap();
        let mut sorted = fids.clone();
        sorted.sort_unstable();
        assert_eq!(fids, sorted);
        // Prefix lookup works.
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(7)]);
        assert_eq!(path, ProbePath::Clustered);
        assert_eq!(hits, vec![row(7, 107, 1)]);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let (mut pool, mut cat) = setup();
        cat.create_table(
            &mut pool,
            "TVisited",
            vec![
                ColumnDef {
                    name: "nid".into(),
                    dtype: DataType::Int,
                },
                ColumnDef {
                    name: "d2s".into(),
                    dtype: DataType::Int,
                },
            ],
            Some(vec!["nid".into()]),
        )
        .unwrap();
        let t = cat.table_mut("TVisited").unwrap();
        t.insert_row(&mut pool, &[Value::Int(1), Value::Int(0)])
            .unwrap();
        let err = t.insert_row(&mut pool, &[Value::Int(1), Value::Int(9)]);
        assert!(matches!(err, Err(SqlError::DuplicateKey { .. })));
        // Failed insert must not leave a phantom row.
        assert_eq!(t.len(), 1);
        let mut seen = 0;
        t.scan(&mut pool, |_, _| {
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 1);
    }

    #[test]
    fn update_maintains_indexes() {
        let (mut pool, mut cat) = setup();
        cat.create_table(
            &mut pool,
            "TVisited",
            vec![
                ColumnDef {
                    name: "nid".into(),
                    dtype: DataType::Int,
                },
                ColumnDef {
                    name: "d2s".into(),
                    dtype: DataType::Int,
                },
            ],
            Some(vec!["nid".into()]),
        )
        .unwrap();
        let t = cat.table_mut("TVisited").unwrap();
        let loc = t
            .insert_row(&mut pool, &[Value::Int(1), Value::Int(10)])
            .unwrap();
        let old = vec![Value::Int(1), Value::Int(10)];
        let new = vec![Value::Int(2), Value::Int(20)];
        t.update_row(&mut pool, &loc, &old, &new).unwrap();
        // Old key gone, new key findable.
        let (path, found) = probe(&mut pool, t, &[0], &[Value::Int(1)]);
        assert_eq!(
            path,
            ProbePath::Secondary {
                index: 0,
                point: true
            }
        );
        assert!(found.is_empty());
        let (_, found) = probe(&mut pool, t, &[0], &[Value::Int(2)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0][1], Value::Int(20));
        // Moving a row onto another row's unique key is refused before
        // anything is written: both rows and both index entries stay.
        let other = t
            .insert_row(&mut pool, &[Value::Int(3), Value::Int(30)])
            .unwrap();
        let err = t.update_row(
            &mut pool,
            &other,
            &[Value::Int(3), Value::Int(30)],
            &[Value::Int(2), Value::Int(30)],
        );
        assert!(matches!(err, Err(SqlError::DuplicateKey { .. })));
        for (k, d) in [(2, 20), (3, 30)] {
            let (_, found) = probe(&mut pool, t, &[0], &[Value::Int(k)]);
            assert_eq!(found, vec![vec![Value::Int(k), Value::Int(d)]]);
        }
    }

    #[test]
    fn delete_removes_index_entries() {
        let (mut pool, mut cat) = setup();
        cat.create_index(
            &mut pool,
            &CreateIndex {
                name: "idx_fid".into(),
                table: "TEdges".into(),
                columns: vec!["fid".into()],
                unique: false,
                clustered: false,
            },
        )
        .unwrap();
        let t = cat.table_mut("TEdges").unwrap();
        let loc = t.insert_row(&mut pool, &row(5, 6, 7)).unwrap();
        t.delete_row(&mut pool, &loc, &row(5, 6, 7)).unwrap();
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(5)]);
        assert!(matches!(path, ProbePath::Secondary { .. }));
        assert!(hits.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn truncate_empties_table_and_indexes() {
        let (mut pool, mut cat) = setup();
        cat.create_index(
            &mut pool,
            &CreateIndex {
                name: "idx_fid".into(),
                table: "TEdges".into(),
                columns: vec!["fid".into()],
                unique: false,
                clustered: false,
            },
        )
        .unwrap();
        let t = cat.table_mut("TEdges").unwrap();
        for i in 0..20 {
            t.insert_row(&mut pool, &row(i, i, i)).unwrap();
        }
        t.truncate(&mut pool).unwrap();
        assert!(t.is_empty());
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(3)]);
        assert!(matches!(path, ProbePath::Secondary { .. }));
        assert!(hits.is_empty());
    }

    #[test]
    fn drop_table_and_views() {
        let (mut pool, mut cat) = setup();
        assert!(cat.has_table("tedges"));
        cat.drop_table(&mut pool, "TEDGES", false).unwrap();
        assert!(!cat.has_table("tedges"));
        assert!(cat.drop_table(&mut pool, "tedges", false).is_err());
        cat.drop_table(&mut pool, "tedges", true).unwrap();
    }

    fn edge_cols() -> Vec<ColumnDef> {
        ["fid", "tid", "cost"]
            .iter()
            .map(|n| ColumnDef {
                name: (*n).into(),
                dtype: DataType::Int,
            })
            .collect()
    }

    /// 600 edges for fid 7 forces its run across multiple segments, and
    /// fids sharing segments with neighbours exercise the last-fid keying.
    fn segmented_fixture(pool: &mut BufferPool, cat: &mut Catalog) -> Vec<(i64, i64, i64)> {
        cat.create_segmented_table(pool, "TSeg", edge_cols())
            .unwrap();
        let mut edges: Vec<(i64, i64, i64)> = Vec::new();
        for f in 0..40i64 {
            let fanout = if f == 7 { 600 } else { 20 };
            for t in 0..fanout {
                edges.push((f, t, 1 + (f + t) % 9));
            }
        }
        let t = cat.table_mut("TSeg").unwrap();
        let n = t.bulk_load_segments(pool, edges.iter().copied()).unwrap();
        assert_eq!(n, edges.len() as u64);
        edges
    }

    #[test]
    fn segmented_scan_and_len_match_input() {
        let (mut pool, mut cat) = setup();
        let edges = segmented_fixture(&mut pool, &mut cat);
        let t = cat.table("TSeg").unwrap();
        assert_eq!(t.len(), edges.len() as u64);
        let mut seen = Vec::new();
        t.scan(&mut pool, |_, r| {
            seen.push((
                r[0].as_i64().unwrap(),
                r[1].as_i64().unwrap(),
                r[2].as_i64().unwrap(),
            ));
            true
        })
        .unwrap();
        assert_eq!(seen, edges);
    }

    #[test]
    fn segmented_lookup_eq_spans_segments() {
        let (mut pool, mut cat) = setup();
        let edges = segmented_fixture(&mut pool, &mut cat);
        let t = cat.table("TSeg").unwrap();
        for fid in [0i64, 6, 7, 8, 39, 40, -1] {
            let expect: Vec<(i64, i64, i64)> =
                edges.iter().copied().filter(|e| e.0 == fid).collect();
            let (path, got) = probe(&mut pool, t, &[0], &[Value::Int(fid)]);
            assert_eq!(
                path,
                ProbePath::Segments,
                "fid probe must use the segment path"
            );
            let got: Vec<(i64, i64, i64)> = got.iter().map(|r| triple(r)).collect();
            assert_eq!(got, expect, "probe fid={fid}");
        }
    }

    #[test]
    fn segmented_batch_cursor_resumes_mid_segment() {
        let (mut pool, mut cat) = setup();
        let edges = segmented_fixture(&mut pool, &mut cat);
        let t = cat.table("TSeg").unwrap();
        // A max far smaller than one segment forces mid-segment resumes.
        for max in [7usize, 256, 1024] {
            let mut cursor = t.batch_cursor(&mut pool).unwrap();
            let mut seen = Vec::new();
            loop {
                let mut chunk = Chunk::with_width(3);
                let more = t
                    .next_batch(
                        &mut pool,
                        &mut cursor,
                        &mut chunk,
                        &ColSet::all(),
                        None,
                        max,
                    )
                    .unwrap();
                for r in 0..chunk.len() {
                    seen.push((
                        chunk.get(0, r).as_i64().unwrap(),
                        chunk.get(1, r).as_i64().unwrap(),
                        chunk.get(2, r).as_i64().unwrap(),
                    ));
                }
                if !more {
                    break;
                }
            }
            assert_eq!(seen, edges, "batched scan with max={max}");
        }
    }

    #[test]
    fn segmented_rejects_dml_and_indexing() {
        let (mut pool, mut cat) = setup();
        segmented_fixture(&mut pool, &mut cat);
        {
            let t = cat.table_mut("TSeg").unwrap();
            // Locator-based row DML stays rejected (base rows have no
            // per-row locators); inserts are covered by the delta overlay
            // (see `segmented_delta_overlay`).
            let loc = RowLoc::Heap(RecordId::from_u64(0));
            assert!(t.delete_row(&mut pool, &loc, &row(1, 2, 3)).is_err());
            assert!(t
                .update_row(&mut pool, &loc, &row(1, 2, 3), &row(4, 5, 6))
                .is_err());
            // NULL-bearing delta rows are rejected.
            assert!(t
                .insert_row(&mut pool, &[Value::Int(1), Value::Null, Value::Int(3)])
                .is_err());
            // Double bulk load is rejected.
            assert!(t.bulk_load_segments(&mut pool, [(0, 0, 1)]).is_err());
            // Unsorted input is rejected.
        }
        cat.create_segmented_table(&mut pool, "TSeg2", edge_cols())
            .unwrap();
        assert!(cat
            .table_mut("TSeg2")
            .unwrap()
            .bulk_load_segments(&mut pool, [(5, 0, 1), (4, 0, 1)])
            .is_err());
        // No secondary or clustered indexes on segmented tables.
        assert!(cat
            .create_index(
                &mut pool,
                &CreateIndex {
                    name: "idx_seg".into(),
                    table: "TSeg".into(),
                    columns: vec!["fid".into()],
                    unique: false,
                    clustered: false,
                },
            )
            .is_err());
        // TRUNCATE and DROP still work.
        cat.table_mut("TSeg").unwrap().truncate(&mut pool).unwrap();
        assert!(cat.table("TSeg").unwrap().is_empty());
        cat.drop_table(&mut pool, "TSeg", false).unwrap();
    }

    #[test]
    fn segmented_delta_overlay() {
        let (mut pool, mut cat) = setup();
        let edges = segmented_fixture(&mut pool, &mut cat);
        let base_len = edges.len() as u64;

        // Collects the table content through every read path and checks
        // they agree.
        fn content(pool: &mut BufferPool, t: &Table) -> Vec<(i64, i64, i64)> {
            let mut scanned = Vec::new();
            t.scan(pool, |_, r| {
                scanned.push((
                    r[0].as_i64().unwrap(),
                    r[1].as_i64().unwrap(),
                    r[2].as_i64().unwrap(),
                ));
                true
            })
            .unwrap();
            // Batched scan must agree with the row scan.
            let mut cursor = t.batch_cursor(pool).unwrap();
            let mut batched = Vec::new();
            loop {
                let mut chunk = Chunk::with_width(3);
                let more = t
                    .next_batch(pool, &mut cursor, &mut chunk, &ColSet::all(), None, 13)
                    .unwrap();
                for r in 0..chunk.len() {
                    batched.push((
                        chunk.get(0, r).as_i64().unwrap(),
                        chunk.get(1, r).as_i64().unwrap(),
                        chunk.get(2, r).as_i64().unwrap(),
                    ));
                }
                if !more {
                    break;
                }
            }
            assert_eq!(batched, scanned, "batched scan drifted from row scan");
            scanned
        }

        // Inserts (row and chunk path) land in the delta and are visible
        // to every read path.
        {
            let t = cat.table_mut("TSeg").unwrap();
            t.insert_chunk(&mut pool, &chunk_of(&[(7, 9000, 5)]))
                .unwrap();
            assert_eq!(t.len(), base_len + 1);
            let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(7)]);
            assert_eq!(path, ProbePath::Segments);
            assert!(
                hits.iter().any(|r| triple(r) == (7, 9000, 5)),
                "delta row missing from probe"
            );
            assert_eq!(hits.len(), 601);
        }
        assert_eq!(
            content(&mut pool, cat.table("TSeg").unwrap()).len(),
            edges.len() + 1
        );

        // Deleting a base pair tombstones it everywhere; deleting the
        // delta row removes it physically; both are idempotent.
        {
            let t = cat.table_mut("TSeg").unwrap();
            assert_eq!(t.delta_delete_edge(&mut pool, 3, 4).unwrap(), 1);
            assert_eq!(t.delta_delete_edge(&mut pool, 3, 4).unwrap(), 0);
            assert_eq!(t.delta_delete_edge(&mut pool, 7, 9000).unwrap(), 1);
            assert_eq!(t.len(), base_len - 1);
            let (_, hits) = probe(&mut pool, t, &[0], &[Value::Int(3)]);
            assert!(
                hits.iter().all(|r| r[1] != Value::Int(4)),
                "tombstoned edge surfaced"
            );
            assert_eq!(hits.len(), 19);
        }
        let now = content(&mut pool, cat.table("TSeg").unwrap());
        assert_eq!(now.len(), edges.len() - 1);
        // 8 = the generator's weight for edge (3, 4): 1 + (3 + 4) % 9.
        assert!(!now.contains(&(3, 4, 8)));

        // Re-insert after delete is visible again (delta is not filtered
        // by the base tombstone).
        {
            let t = cat.table_mut("TSeg").unwrap();
            t.insert_row(&mut pool, &row(3, 4, 99)).unwrap();
            assert_eq!(t.len(), base_len);
            let (_, seen) = probe(&mut pool, t, &[0], &[Value::Int(3)]);
            assert!(seen.contains(&row(3, 4, 99)));
            // Truncate clears base, delta, and tombstones, after which a
            // fresh bulk load is accepted again.
            t.truncate(&mut pool).unwrap();
            assert!(t.is_empty());
            t.bulk_load_segments(&mut pool, [(0, 1, 2)]).unwrap();
            assert_eq!(t.len(), 1);
        }
    }

    fn chunk_of(edges: &[(i64, i64, i64)]) -> Chunk {
        let mut c = Chunk::with_width(3);
        for &(f, t, w) in edges {
            c.push_row(&[Value::Int(f), Value::Int(t), Value::Int(w)]);
        }
        c
    }

    #[test]
    fn bulk_load_rows_matches_insert_path_heap_with_index() {
        let (mut pool, mut cat) = setup();
        cat.create_index(
            &mut pool,
            &CreateIndex {
                name: "idx_fid".into(),
                table: "TEdges".into(),
                columns: vec!["fid".into()],
                unique: false,
                clustered: false,
            },
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..500).map(|i| row(i / 5, i % 97, 1 + i % 7)).collect();
        let t = cat.table_mut("TEdges").unwrap();
        let n = t.bulk_load_rows(&mut pool, rows.clone()).unwrap();
        assert_eq!(n, 500);
        assert_eq!(t.len(), 500);
        // Index probes return exactly the matching rows.
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(3)]);
        assert!(matches!(path, ProbePath::Secondary { .. }));
        assert_eq!(hits.len(), 5);
        // A second bulk load into the now non-empty table is rejected.
        assert!(t.bulk_load_rows(&mut pool, rows).is_err());
    }

    #[test]
    fn bulk_load_rows_clustered_and_unique_violations() {
        let (mut pool, mut cat) = setup();
        cat.create_index(
            &mut pool,
            &CreateIndex {
                name: "clu_fid".into(),
                table: "TEdges".into(),
                columns: vec!["fid".into()],
                unique: false,
                clustered: true,
            },
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..300).map(|i| row(i % 30, i, 1)).collect();
        let t = cat.table_mut("TEdges").unwrap();
        t.bulk_load_rows(&mut pool, rows).unwrap();
        assert_eq!(t.len(), 300);
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(4)]);
        assert_eq!(path, ProbePath::Clustered);
        assert_eq!(hits.len(), 10);
        // Later per-row inserts coexist with the bulk-built tree.
        t.insert_row(&mut pool, &row(4, 999, 1)).unwrap();
        assert_eq!(t.len(), 301);

        // Unique PK violation inside the batch is caught up front.
        cat.create_table(
            &mut pool,
            "TNodes",
            vec![ColumnDef {
                name: "nid".into(),
                dtype: DataType::Int,
            }],
            Some(vec!["nid".into()]),
        )
        .unwrap();
        let tn = cat.table_mut("TNodes").unwrap();
        let err = tn.bulk_load_rows(
            &mut pool,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(1)],
            ],
        );
        assert!(matches!(err, Err(SqlError::DuplicateKey { .. })));
    }

    #[test]
    fn coerce_row_types() {
        let (mut pool, mut cat) = setup();
        let _ = &mut pool;
        let t = cat.table_mut("TEdges").unwrap();
        let coerced = t
            .coerce_row(vec![Value::Float(2.9), Value::Int(3), Value::Int(4)])
            .unwrap();
        assert_eq!(coerced[0], Value::Int(2));
        assert!(t.coerce_row(vec![Value::Int(1)]).is_err());
        assert!(t
            .coerce_row(vec![Value::Text("x".into()), Value::Int(1), Value::Int(2)])
            .is_err());
    }
}
