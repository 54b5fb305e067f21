//! Catalog: tables, their physical storage, indexes, and views.
//!
//! A table's rows live in one of three storages ([`TableStorage`]):
//!
//! - a **heap** (unordered slotted pages);
//! - **clustered** (index-organized: rows live in a B+tree keyed by the
//!   clustering columns);
//! - **segmented** (DESIGN.md §14): `(fid, tid, cost)` edges or
//!   `(fid, tid, pid, cost)` SegTable rows packed into delta-encoded
//!   segments, immutable once loaded, with a row-store delta overlay for
//!   later inserts and tombstones for deletes.
//!
//! Secondary indexes map encoded key columns to a row locator. The first
//! two storages give the three physical configurations the paper sweeps
//! in Fig 8(c): `NoIndex` (heap, no indexes), `Index` (heap + secondary
//! B+tree), and `CluIndex` (index-organized table).
//!
//! Each storage is read one way: one batched scan ([`Table::next_batch`],
//! which [`Table::scan`] loops over) and one equality probe
//! (`Table::probe_eq`) that serves queries and DML targets alike. It is
//! written one way too, a batch at a time, by both SQL executors and the
//! loaders: [`Table::insert_chunk`] (one duplicate-key pre-scan for every
//! unique key), [`Table::update_rows`] and [`Table::delete_rows`], with
//! [`Table::bulk_load_rows`] for an empty table. The `match` over
//! [`TableStorage`] inside those is the one storage dispatch.

use crate::ast::ColumnDef;
use crate::error::{Result, SqlError};
use crate::pool::{take, Pooled};
use fempath_storage::{
    decode_row_into_chunk, decode_rows_into_chunk, decode_segment, encode_key_into,
    encode_row_from_chunk, int_key, BTree, BTreeBulkBuilder, BTreeScanCursor, BufferPool, Chunk,
    ColSet, Column, DataType, HeapFile, HeapScanCursor, KeyArena, LeafWalk, PackedSegment,
    RecordId, SegRow, SegmentCursor, SegmentPacker, Value, CHUNK_CAPACITY, INT_KEY_LEN,
};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

/// Where a row physically lives.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RowLoc {
    /// Heap record id.
    Heap(RecordId),
    /// Full B+tree key of a clustered table (key columns + uniquifier).
    Clustered(Vec<u8>),
    /// A row of segmented storage (base segment or delta overlay). It has
    /// no per-row locator, and every write refuses it.
    Segment,
}

/// Appends the encoded key of row `r` of `rows` on `cols` to `out`.
fn encode_cols_into(out: &mut Vec<u8>, rows: &Chunk, r: usize, cols: &[usize]) -> Result<()> {
    for &c in cols {
        encode_key_into(out, &rows.get(c, r))?;
    }
    Ok(())
}

/// Appends every row's encoded key on `cols` to `keys`, back to back.
fn keys_into(keys: &mut KeyArena, rows: &Chunk, cols: &[usize]) -> Result<()> {
    let mut key = take::<Vec<u8>>();
    for r in 0..rows.len() {
        key.clear();
        encode_cols_into(&mut key, rows, r, cols)?;
        keys.push(&key);
    }
    Ok(())
}

/// Every row's encoded key on `cols`, back to back.
fn keys_on(rows: &Chunk, cols: &[usize]) -> Result<KeyArena> {
    let mut keys = KeyArena::default();
    keys_into(&mut keys, rows, cols)?;
    Ok(keys)
}

/// Of the rows keyed `keys`, the first in row order whose key an earlier
/// row already has — what a unique key refuses.
fn first_repeat(keys: &KeyArena) -> Option<usize> {
    if keys.len() < 2 {
        return None;
    }
    let mut by_key = take::<Vec<u32>>();
    by_key.extend(0..keys.len() as u32);
    by_key.sort_unstable_by(|&a, &b| {
        keys.get(a as usize)
            .cmp(keys.get(b as usize))
            .then(a.cmp(&b))
    });
    first_repeat_in(keys, &by_key)
}

/// [`first_repeat`] over rows `by_key` lists in key order, ties in row
/// order: a repeat sits next to the row it repeats.
fn first_repeat_in(keys: &KeyArena, by_key: &[u32]) -> Option<usize> {
    by_key
        .windows(2)
        .filter(|w| keys.get(w[0] as usize) == keys.get(w[1] as usize))
        .map(|w| w[1] as usize)
        .min()
}

/// Appends the first `n` rows of `rows`, each encoded as stored, to `out`.
fn encode_rows_into(out: &mut KeyArena, rows: &Chunk, n: usize) {
    let mut buf = take::<Vec<u8>>();
    for r in 0..n {
        encode_row_from_chunk(&mut buf, rows, r);
        out.push(&buf);
    }
}

/// A heap locator as stored inside a secondary-index entry.
fn rid_bytes(rid: RecordId) -> [u8; 8] {
    rid.to_u64().to_be_bytes()
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
    /// Segment-compressed storage (DESIGN.md §14): runs of `(fid, tid,
    /// cost)` or `(fid, tid, pid, cost)` rows — the schema's width picks
    /// the layout — delta-encoded into varint blobs, each blob a single
    /// B+tree value keyed by `(last_fid, seq)`. The bulk of the table is
    /// filled once via [`Table::segment_load`]; later
    /// mutations go through a small row-store **delta overlay**
    /// (DESIGN.md §16): INSERTs land in the `delta` heap, DELETEs
    /// tombstone base `(fid, tid)` pairs and physically remove delta
    /// rows ([`Table::delta_delete_edge`]). Every read path merges
    /// base-minus-tombstones with the delta. Its rows carry
    /// [`RowLoc::Segment`], which SQL UPDATE/DELETE refuse.
    Segmented {
        tree: BTree,
        /// Column positions usable as an ordered access path — always the
        /// leading `fid` column.
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

impl SecondaryIndex {
    /// Appends the encoded key of row `r` of `rows` to `out`.
    fn key_into(&self, out: &mut Vec<u8>, rows: &Chunk, r: usize) -> Result<()> {
        encode_cols_into(out, rows, r, &self.cols)
    }

    /// The one entry format. Turns `key`, a row's encoded key, into the
    /// tree key of the entry for the row at `loc` and returns the entry's
    /// value: a unique index maps key → locator, a non-unique one stores
    /// key‖locator → ∅ (the locator keeps equal keys apart).
    fn entry<'l>(&self, key: &mut Vec<u8>, loc: &'l [u8]) -> &'l [u8] {
        if self.unique {
            loc
        } else {
            key.extend_from_slice(loc);
            &[]
        }
    }

    /// Adds the entry of the row keyed `key` at `loc`.
    fn insert(&mut self, pool: &mut BufferPool, mut key: Vec<u8>, loc: &[u8]) -> Result<()> {
        let val = self.entry(&mut key, loc);
        self.tree.insert(pool, &key, val)?;
        Ok(())
    }

    /// Removes the entry of the row keyed `key` at `loc`.
    fn delete(&mut self, pool: &mut BufferPool, mut key: Vec<u8>, loc: &[u8]) -> Result<()> {
        self.entry(&mut key, loc);
        self.tree.delete(pool, &key)?;
        Ok(())
    }

    /// Of the rows keyed `keys`, the first in row order this index
    /// refuses for repeating an earlier row's key. `None` when it is not
    /// unique.
    fn first_repeat(&self, keys: &KeyArena) -> Option<usize> {
        self.unique.then(|| first_repeat(keys)).flatten()
    }

    /// The entries of the first `n` rows whose encoded keys are `keys`
    /// (row `r` stored at `locs[r]`), in row order.
    fn entries(&self, keys: &KeyArena, n: usize, locs: &BatchLocs) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut loc = Vec::new();
        (0..n)
            .map(|r| {
                loc.clear();
                locs.write_bytes(r, &mut loc);
                let mut key = keys.get(r).to_vec();
                let val = self.entry(&mut key, &loc).to_vec();
                (key, val)
            })
            .collect()
    }

    /// Inserts the entries of the first `n` rows whose encoded keys are
    /// `keys` (row `r` stored at `locs[r]`) in entry-key order, ties in
    /// row order, from reused buffers: one [`BTree::insert_sorted`] run,
    /// a page write per leaf the entries fall into. `by_key`, when given,
    /// lists every row of the chunk in ascending order of its key, ties
    /// in row order; a unique index (its entry key is the row key) takes
    /// that order as it is, so no key is sorted again.
    fn insert_entries(
        &mut self,
        pool: &mut BufferPool,
        keys: &KeyArena,
        n: usize,
        locs: &BatchLocs,
        by_key: Option<&[u32]>,
    ) -> Result<()> {
        let (mut tree_keys, mut vals) = (take::<KeyArena>(), take::<KeyArena>());
        let mut key = take::<Vec<u8>>();
        let mut loc = take::<Vec<u8>>();
        for r in 0..n {
            key.clear();
            key.extend_from_slice(keys.get(r));
            loc.clear();
            locs.write_bytes(r, &mut loc);
            let val = self.entry(&mut key, &loc);
            vals.push(val);
            tree_keys.push(&key);
        }
        let mut order = take::<Vec<u32>>();
        match by_key {
            Some(by_key) => {
                debug_assert!(self.unique, "a non-unique entry key carries its locator");
                order.extend(by_key.iter().filter(|&&r| (r as usize) < n));
            }
            None => {
                order.extend(0..n as u32);
                order.sort_unstable_by(|&a, &b| {
                    tree_keys
                        .get(a as usize)
                        .cmp(tree_keys.get(b as usize))
                        .then(a.cmp(&b))
                });
            }
        }
        let entries = order
            .iter()
            .map(|&r| (tree_keys.get(r as usize), vals.get(r as usize)));
        self.tree.insert_sorted(pool, entries)?;
        Ok(())
    }

    /// Bulk-builds this empty index bottom-up from every row's encoded key
    /// (`keys[r]`) and locator (`locs[r]`).
    fn bulk_fill(
        &mut self,
        pool: &mut BufferPool,
        keys: &KeyArena,
        locs: &BatchLocs,
    ) -> Result<()> {
        let mut entries = self.entries(keys, keys.len(), locs);
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.tree.bulk_build(pool, entries)?;
        Ok(())
    }

    /// Appends to `out` the locators this index holds for the encoded
    /// probe key `key` — at most one entry when `point`, else every entry
    /// the key prefixes — as one probe of a batch in key order on `walk`.
    /// `clustered`: the table is clustered (locators are tree keys).
    fn find_locs(
        &self,
        pool: &mut BufferPool,
        walk: &mut LeafWalk,
        key: &[u8],
        point: bool,
        clustered: bool,
        out: &mut BatchLocs,
    ) -> Result<()> {
        // A unique index's entry is key → locator; a non-unique one's
        // locator is the key suffix past the indexed column values.
        // Decode errors inside the scan callback (which can only
        // continue/stop) are parked and surfaced after the scan.
        let n_cols = self.cols.len();
        let mut parked: Result<()> = Ok(());
        self.tree.scan_prefix_runs(pool, walk, key, |run| {
            for (k, v) in run.keys().zip(run.vals()) {
                let loc = if self.unique {
                    Ok(v)
                } else {
                    index_key_loc(k, n_cols)
                };
                parked = loc.and_then(|loc| out.push_bytes(loc, clustered));
                if parked.is_err() || point {
                    return false;
                }
            }
            true
        })?;
        parked
    }
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

/// A batch of row locators in their raw storage form (record ids,
/// clustered keys in one flat arena, or a count of segmented rows) — what
/// scans, probes and the batched write phases exchange. Owned [`RowLoc`]s
/// are built by [`BatchLocs::loc`] only where a row-at-a-time call needs
/// one.
#[derive(Default)]
pub struct BatchLocs {
    rids: Vec<RecordId>,
    keys: KeyArena,
    /// Rows of segmented storage, which carry no locator
    /// ([`RowLoc::Segment`]): only counted.
    segment_rows: usize,
}

impl BatchLocs {
    /// Number of locators held.
    pub fn len(&self) -> usize {
        self.rids.len() + self.keys.len() + self.segment_rows
    }

    /// True when no locator is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the batch holds an allocation worth reusing.
    pub(crate) fn has_capacity(&self) -> bool {
        self.rids.capacity() > 0 || self.keys.capacity() > 0
    }

    /// Forgets the batch, keeping the allocations.
    pub fn clear(&mut self) {
        self.rids.clear();
        self.keys.clear();
        self.segment_rows = 0;
    }

    /// The `r`-th locator.
    pub fn loc(&self, r: usize) -> RowLoc {
        if !self.keys.is_empty() {
            RowLoc::Clustered(self.keys.get(r).to_vec())
        } else if self.segment_rows > 0 {
            RowLoc::Segment
        } else {
            RowLoc::Heap(self.rids[r])
        }
    }

    /// Appends one locator.
    pub fn push(&mut self, loc: &RowLoc) {
        match loc {
            RowLoc::Heap(rid) => self.rids.push(*rid),
            RowLoc::Clustered(key) => self.keys.push(key),
            RowLoc::Segment => self.segment_rows += 1,
        }
    }

    /// Appends `other`'s locators at the positions in `sel`.
    pub fn extend_selected(&mut self, other: &BatchLocs, sel: &[u32]) {
        if !other.keys.is_empty() {
            for &r in sel {
                self.keys.push(other.keys.get(r as usize));
            }
        } else if other.segment_rows > 0 {
            self.segment_rows += sel.len();
        } else {
            self.rids
                .extend(sel.iter().map(|&r| other.rids[r as usize]));
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

    /// Appends the `r`-th locator as stored inside secondary-index
    /// entries to `out`.
    fn write_bytes(&self, r: usize, out: &mut Vec<u8>) {
        if self.keys.is_empty() {
            out.extend_from_slice(&rid_bytes(self.rids[r]));
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
    fn distinct_sorted(&self) -> Pooled<Vec<u32>> {
        let mut order = take::<Vec<u32>>();
        order.extend(0..self.len() as u32);
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

/// A unique key of a table: a unique secondary index, or the clustering
/// key of a table clustered on a unique one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniqueKey {
    Index(usize),
    Clustering,
}

/// What a caller of [`Table::insert_chunk`] has proven about a chunk's
/// keys under one unique key: it has just probed that key for every row
/// and found none of them stored (MERGE NOT MATCHED).
#[derive(Debug, Clone, Copy)]
pub struct AbsentKeys<'a> {
    pub key: UniqueKey,
    /// Every row of the chunk once, in ascending order of its key, ties
    /// in row order — the order the probe walked them in — or empty
    /// when the probe did not sort them.
    pub by_key: &'a [u32],
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

/// Where [`Table::probe_eq`] appends what its probes find: one entry per
/// matching row, grouped by key, in key order.
pub struct EqMatches<'a> {
    /// The probe's `read` columns of each match.
    pub rows: &'a mut Chunk,
    /// When given: the position in the key batch of the key each match
    /// answers.
    pub src: Option<&'a mut Vec<u32>>,
    /// When given: each match's locator (what a DML write takes).
    pub locs: Option<&'a mut BatchLocs>,
}

/// Appends to `chunk` the `read` columns of the rows `keep` accepts among
/// those `next` decodes (whole rows, a batch per call, `false` once
/// exhausted), and to `locs`, when given, their locators — for the probes
/// that must test a row before keeping it.
fn append_matching(
    chunk: &mut Chunk,
    read: &ColSet,
    mut next: impl FnMut(&mut Chunk, Option<&mut BatchLocs>) -> Result<bool>,
    keep: impl Fn(&Chunk, usize) -> bool,
    mut locs: Option<&mut BatchLocs>,
) -> Result<()> {
    let mut rows = Chunk::new();
    let mut found = BatchLocs::default();
    let mut idx = Vec::new();
    loop {
        rows.reset();
        found.clear();
        let more = next(&mut rows, locs.is_some().then_some(&mut found))?;
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
            if let Some(locs) = locs.as_deref_mut() {
                locs.extend_selected(&found, &idx);
            }
        }
        if !more {
            return Ok(());
        }
    }
}

/// Appends the `cols` columns of one segment row to a chunk as wide as
/// the row's layout.
fn push_edge_cols(chunk: &mut Chunk, row: &SegRow, cols: &ColSet) {
    for (c, &v) in row[..chunk.width()].iter().enumerate() {
        if cols.contains(c) {
            chunk.col_mut(c).push_int(v);
        }
    }
    chunk.commit_row();
}

/// Makes `chunk` `width` columns wide for segmented rows, or errors when
/// it already holds rows of another width.
fn edge_width(chunk: &mut Chunk, width: usize) -> Result<()> {
    if chunk.is_empty() && chunk.width() != width {
        chunk.set_width(width);
    }
    if chunk.width() != width {
        return Err(SqlError::Eval(format!(
            "segmented rows need a {width}-column chunk"
        )));
    }
    Ok(())
}

/// Bytes of a segment tree key: the segment's last fid, encoded, then an
/// 8-byte sequence number ([`SegmentLoad::put`]).
const SEG_KEY_LEN: usize = INT_KEY_LEN + 8;

/// Where a sweep over ascending fids stands in a segment tree: the leaf
/// walk, and the segment it is decoding — its tree key and a cursor that
/// resumes before the first row past the previous fid. It takes no
/// buffer from the pools: a one-key probe sets one up per call.
#[derive(Default)]
struct SegmentWalk {
    /// The segments' layout: 3 or 4 columns.
    width: usize,
    leaf: LeafWalk,
    /// The tree key of the segment `cursor` is on; `None` when the next
    /// segment is decoded afresh.
    key: Option<[u8; SEG_KEY_LEN]>,
    cursor: SegmentCursor,
    /// The fid probed last.
    last: Option<i64>,
}

impl SegmentWalk {
    fn new(width: usize) -> SegmentWalk {
        SegmentWalk {
            width,
            ..SegmentWalk::default()
        }
    }

    /// Calls `f(row)` for every base row of `fid` in the segment tree
    /// `tree`, in stored order, tombstoned ones included. It visits the
    /// segments from the first whose key (`last_fid`) reaches `fid` and
    /// stops after the first whose key passes it. Over ascending fids it
    /// decodes each segment once, only as far as the fids asked for; a
    /// fid at or below the last one decodes its segments afresh. In each
    /// segment the cursor seeks the fid through the segment's directory.
    fn edges(
        &mut self,
        tree: &BTree,
        pool: &mut BufferPool,
        fid: i64,
        mut f: impl FnMut(&SegRow),
    ) -> Result<()> {
        let SegmentWalk {
            width,
            leaf,
            key,
            cursor,
            last,
        } = self;
        if last.replace(fid).is_some_and(|last| fid <= last) {
            *key = None;
        }
        let lo = int_key(fid);
        let mut decoded = Ok(());
        tree.scan_from(pool, leaf, &lo, |k, blob| {
            if key.as_ref().is_none_or(|key| key[..] != *k) {
                // A key of another length is not remembered: its segment
                // is decoded afresh each time.
                *key = k.try_into().ok();
                decoded = SegmentCursor::new(blob, *width).map(|c| *cursor = c);
            }
            if decoded.is_ok() {
                decoded = rows_of(cursor, blob, fid, &mut f);
            }
            // The fid's rows go on into the next segment only when this
            // one's last fid is the fid.
            decoded.is_ok() && k.starts_with(&lo)
        })?;
        Ok(decoded?)
    }
}

/// Calls `f` on each row of `fid` in the segment `blob`, which `cursor`
/// is on: it seeks the fid, then reads until another fid begins.
fn rows_of(
    cursor: &mut SegmentCursor,
    blob: &[u8],
    fid: i64,
    f: &mut impl FnMut(&SegRow),
) -> fempath_storage::Result<()> {
    cursor.seek(blob, fid)?;
    while let Some(row) = cursor.next_row_of(blob, fid)? {
        f(&row);
    }
    Ok(())
}

/// The delta overlay as one probe batch reads it: every row, and the
/// rows' positions ordered by fid (heap order within a fid).
struct Overlay {
    rows: Pooled<Chunk>,
    fids: Pooled<Vec<i64>>,
    by_fid: Pooled<Vec<u32>>,
}

impl Overlay {
    /// Reads the overlay heap `delta`, which holds `live` rows; `None`
    /// when it holds none.
    fn read(delta: &HeapFile, live: u64, pool: &mut BufferPool) -> Result<Option<Overlay>> {
        if live == 0 {
            return Ok(None);
        }
        let mut o = Overlay {
            rows: take(),
            fids: take(),
            by_fid: take(),
        };
        let mut cursor = delta.batch_cursor();
        let all = ColSet::all();
        while cursor.next_batch(delta, pool, &mut o.rows, &all, None, usize::MAX)? {}
        let fid = |r: u32| o.rows.get(0, r as usize).as_i64();
        o.by_fid
            .extend((0..o.rows.len() as u32).filter(|&r| fid(r).is_some()));
        o.by_fid.sort_unstable_by_key(|&r| (fid(r), r));
        o.fids
            .extend(o.by_fid.iter().map(|&r| fid(r).unwrap_or_default()));
        Ok(Some(o))
    }

    /// Appends the `read` columns of the overlay rows of `fid` to
    /// `chunk`, as wide as the table.
    fn append(&self, fid: i64, chunk: &mut Chunk, read: &ColSet) {
        let lo = self.fids.partition_point(|&f| f < fid);
        let hi = lo + self.fids[lo..].partition_point(|&f| f == fid);
        let sel = &self.by_fid[lo..hi];
        if !sel.is_empty() {
            for c in (0..self.rows.width()).filter(|&c| read.contains(c)) {
                chunk.col_mut(c).extend_gather(self.rows.col(c), sel);
            }
            chunk.commit_rows(sel.len());
        }
    }
}

/// The shortest probe batch `sweep` sorts: below it, sorting and
/// gathering cost more than the descents they save.
const SWEEP_MIN: usize = 8;

/// Probes a batch of keys in key order and answers in batch order.
/// `batch` holds the positions of the keys that can match, in batch
/// order; `cmp` orders two positions' keys, `Equal` only for keys that
/// match the same rows; `probe(k, rows, locs)` appends the matches of
/// the key at position `k` to `rows` (or, `by_locator`, only their
/// locators to `locs`, and `rows` stays untouched).
///
/// A batch shorter than [`SWEEP_MIN`] keys, or already in strictly
/// ascending key order, is probed key by key straight into `out`. Any
/// other batch is sorted once, each distinct key probed once, in order,
/// into scratch buffers, and the matches gathered back in batch order.
/// Either way `out` receives, key by key in batch order, what a probe of
/// that key alone appends, and `out.src` each match's key position —
/// `probe` must answer a key the same in any order. `walked`, when given
/// and the batch holds [`SWEEP_MIN`] keys or more, receives the batch in
/// the key order it was probed in, ties in batch order.
fn sweep(
    batch: &[u32],
    cmp: impl Fn(u32, u32) -> Ordering,
    out: EqMatches<'_>,
    by_locator: bool,
    walked: Option<&mut Vec<u32>>,
    mut probe: impl FnMut(u32, &mut Chunk, Option<&mut BatchLocs>) -> Result<()>,
) -> Result<()> {
    let EqMatches {
        rows,
        mut src,
        mut locs,
    } = out;
    let found = |rows: &Chunk, locs: Option<&BatchLocs>| match (by_locator, locs) {
        (true, Some(locs)) => locs.len(),
        _ => rows.len(),
    };
    // Records that the key at `k` found `n` rows.
    let mut tag = |k: u32, n: usize| {
        if let Some(src) = src.as_deref_mut() {
            src.resize(src.len() + n, k);
        }
    };
    if batch.len() < SWEEP_MIN || batch.windows(2).all(|w| cmp(w[0], w[1]).is_lt()) {
        if let Some(walked) = walked.filter(|_| batch.len() >= SWEEP_MIN) {
            walked.extend_from_slice(batch);
        }
        for &k in batch {
            let before = found(rows, locs.as_deref());
            probe(k, rows, locs.as_deref_mut())?;
            tag(k, found(rows, locs.as_deref()) - before);
        }
        return Ok(());
    }
    let mut order = take::<Vec<u32>>();
    order.extend(0..batch.len() as u32);
    order.sort_unstable_by(|&a, &b| cmp(batch[a as usize], batch[b as usize]).then(a.cmp(&b)));
    if let Some(walked) = walked {
        walked.extend(order.iter().map(|&i| batch[i as usize]));
    }
    let mut scratch = take::<Chunk>();
    scratch.set_width(rows.width());
    let mut scratch_locs = take::<BatchLocs>();
    let want_locs = locs.is_some();
    // `ends[g]` closes the matches of the `g`-th distinct key in
    // `scratch`; `rank[i]` is the distinct key of `batch[i]`.
    let mut ends = take::<Vec<u32>>();
    let mut rank = take::<Vec<u32>>();
    rank.resize(batch.len(), 0);
    for (j, &i) in order.iter().enumerate() {
        let k = batch[i as usize];
        if j == 0 || cmp(batch[order[j - 1] as usize], k).is_ne() {
            probe(k, &mut scratch, want_locs.then_some(&mut *scratch_locs))?;
            ends.push(found(&scratch, want_locs.then_some(&*scratch_locs)) as u32);
        }
        rank[i as usize] = ends.len() as u32 - 1;
    }
    // The scratch positions of every key's matches, in batch order.
    order.clear();
    for (&k, &g) in batch.iter().zip(rank.iter()) {
        let g = g as usize;
        let start = if g == 0 { 0 } else { ends[g - 1] };
        order.extend(start..ends[g]);
        tag(k, (ends[g] - start) as usize);
    }
    if order.is_empty() {
        return Ok(());
    }
    if !by_locator {
        rows.append_gather(&scratch, &order);
    }
    if let Some(locs) = locs {
        locs.extend_selected(&scratch_locs, &order);
    }
    Ok(())
}

/// A probe batch (`width` values per key, laid end to end) as the
/// probes read it.
struct ProbeKeys {
    /// Each key encoded, or empty when it holds a NULL.
    encoded: Pooled<KeyArena>,
    /// The positions of the keys without a NULL, in batch order.
    live: Pooled<Vec<u32>>,
    /// When every value of the live keys is an INT: all values as
    /// integers (0 for a NULL), `width` per key.
    ints: Option<Pooled<Vec<i64>>>,
    width: usize,
}

impl ProbeKeys {
    fn new(keys: &[Value], width: usize) -> Result<ProbeKeys> {
        let mut encoded = take::<KeyArena>();
        let mut live = take::<Vec<u32>>();
        let mut ints = Some(take::<Vec<i64>>());
        for (k, vals) in keys.chunks_exact(width).enumerate() {
            let null = vals.iter().any(Value::is_null);
            encoded.push_with(|key| {
                if !null {
                    vals.iter().try_for_each(|v| encode_key_into(key, v))?;
                }
                Ok::<_, SqlError>(())
            })?;
            if !null {
                live.push(k as u32);
            }
            if let Some(out) = &mut ints {
                for v in vals {
                    match v {
                        Value::Int(i) => out.push(*i),
                        Value::Null => out.push(0),
                        _ => {
                            ints = None;
                            break;
                        }
                    }
                }
            }
        }
        Ok(ProbeKeys {
            encoded,
            live,
            ints,
            width,
        })
    }

    /// The encoded key at position `k`.
    fn get(&self, k: u32) -> &[u8] {
        self.encoded.get(k as usize)
    }

    /// Orders two key positions as their encoded keys order: by their
    /// integers when the batch has them (the key encoding preserves INT
    /// order, and an integer compare is what a sort of a batch can
    /// afford), else by the encoded bytes.
    fn cmp(&self, a: u32, b: u32) -> Ordering {
        let (a, b) = (a as usize, b as usize);
        match (&self.ints, self.width) {
            (Some(ints), 1) => ints[a].cmp(&ints[b]),
            (Some(ints), w) => ints[a * w..(a + 1) * w].cmp(&ints[b * w..(b + 1) * w]),
            (None, _) => self.encoded.get(a).cmp(self.encoded.get(b)),
        }
    }
}

/// Orders two key positions by their encoded keys in `keys`.
fn by_key(keys: &KeyArena) -> impl Fn(u32, u32) -> Ordering + '_ {
    |a, b| keys.get(a as usize).cmp(keys.get(b as usize))
}

/// A total order of values in which only identical values tie: by type,
/// then by value — what groups a scan probe's keys (`Value::total_cmp`
/// alone ties an INT with the FLOAT it converts to).
fn identity_cmp(a: &Value, b: &Value) -> Ordering {
    let rank = |v: &Value| match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Text(_) => 3,
    };
    rank(a).cmp(&rank(b)).then_with(|| a.total_cmp(b))
}

/// The error of a locator or cursor handed to a table it did not come
/// from.
fn foreign_locator() -> SqlError {
    SqlError::Eval("row locator does not match table storage".into())
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

/// A bulk load of an empty segmented table in progress (see
/// [`Table::segment_load`]).
pub struct SegmentLoad {
    table: String,
    width: usize,
    packer: SegmentPacker,
    builder: BTreeBulkBuilder,
    key: Vec<u8>,
    /// The next segment's sequence number.
    seq: u64,
    rows: u64,
    last: Option<SegRow>,
}

impl SegmentLoad {
    /// Appends one row (`[fid, tid, cost, _]` or `[fid, tid, pid, cost]`,
    /// as the table is wide). A 3-column table takes rows in `(fid, tid,
    /// cost)` order; a 4-column one in non-decreasing fid order, any
    /// order within a fid, which a probe of the fid returns as pushed.
    pub fn push(&mut self, pool: &mut BufferPool, row: SegRow) -> Result<()> {
        if let Some(last) = self.last {
            let (in_order, order) = match self.width {
                3 => (last <= row, "(fid, tid, cost) order"),
                _ => (last[0] <= row[0], "non-decreasing fid"),
            };
            if !in_order {
                return Err(SqlError::Eval(format!(
                    "bulk load into {} requires {order}",
                    self.table
                )));
            }
        }
        self.last = Some(row);
        self.rows += 1;
        match self.packer.push(row) {
            Some(seg) => self.put(pool, seg),
            None => Ok(()),
        }
    }

    /// Adds one closed segment to the tree. Segment keys are (last fid,
    /// sequence number): the sequence keeps keys unique, and keying by
    /// *last* fid means an equality probe can start at the first segment
    /// whose key reaches the probe fid even when that fid's run begins
    /// inside an earlier-starting segment.
    fn put(&mut self, pool: &mut BufferPool, seg: PackedSegment) -> Result<()> {
        self.key.clear();
        self.key.extend_from_slice(&int_key(seg.last_fid));
        self.key.extend_from_slice(&self.seq.to_be_bytes());
        self.seq += 1;
        Ok(self.builder.push(pool, &self.key, &seg.blob)?)
    }
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

    /// The clustering columns, when the table is clustered on a unique
    /// key.
    pub(crate) fn unique_clustering_key(&self) -> Option<&[usize]> {
        match &self.storage {
            TableStorage::Clustered {
                key_cols,
                unique: true,
                ..
            } => Some(key_cols),
            _ => None,
        }
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

    /// Full scan in storage order, one row at a time with its locator;
    /// `f` returns `false` to stop. A loop over [`Table::next_batch`].
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(RowLoc, Vec<Value>) -> bool,
    ) -> Result<()> {
        let mut cursor = self.batch_cursor(pool)?;
        let mut rows = Chunk::new();
        let mut locs = BatchLocs::default();
        loop {
            rows.reset();
            locs.clear();
            let more = self.next_batch(
                pool,
                &mut cursor,
                &mut rows,
                &ColSet::all(),
                Some(&mut locs),
                CHUNK_CAPACITY,
            )?;
            for r in 0..rows.len() {
                if !f(locs.loc(r), rows.row(r)) {
                    return Ok(());
                }
            }
            if !more {
                return Ok(());
            }
        }
    }

    /// Decodes the `read` columns of the rows stored at `locs[from..]`
    /// into `chunk` (appending, in the order given) — the row fetch behind
    /// secondary-index probes and the re-read of the rows a DML target
    /// scan selected. Each run of heap locators on one page costs one
    /// buffer-pool read (a scan's locators are page-ordered); clustered
    /// rows are read in key order on one walk of the leaf chain (a
    /// scan's locators are in key order already). Segmented
    /// rows cannot be fetched by locator; only a write re-reads them, and
    /// it is refused here as it would be there.
    pub(crate) fn fetch_chunk(
        &self,
        pool: &mut BufferPool,
        locs: &BatchLocs,
        from: usize,
        chunk: &mut Chunk,
        read: &ColSet,
    ) -> Result<()> {
        if locs.len() <= from {
            return Ok(());
        }
        match &self.storage {
            TableStorage::Heap(h) => {
                Ok(h.fetch_into_chunk(pool, &locs.rids[from..], chunk, read)?)
            }
            TableStorage::Clustered { tree, .. } => {
                let mut batch = take::<Vec<u32>>();
                batch.extend(from as u32..locs.keys.len() as u32);
                let key = |k: u32| locs.keys.get(k as usize);
                let out = EqMatches {
                    rows: chunk,
                    src: None,
                    locs: None,
                };
                let mut walk = LeafWalk::default();
                sweep(
                    &batch,
                    by_key(&locs.keys),
                    out,
                    false,
                    None,
                    |k, rows, _| {
                        let mut decoded = None;
                        tree.scan_from(pool, &mut walk, key(k), |stored, bytes| {
                            decoded = (stored == key(k))
                                .then(|| decode_row_into_chunk(bytes, rows, read));
                            false
                        })?;
                        decoded
                            .ok_or_else(|| SqlError::Eval("dangling clustered locator".into()))??;
                        Ok(())
                    },
                )
            }
            TableStorage::Segmented { .. } => Err(read_only_err(&self.schema.name)),
        }
    }

    /// The one equality probe, shared by queries, index nested-loop joins
    /// and DML targets. Probes along `path` — the plan's
    /// [`Table::probe_path`] for `cols` — for every key of `keys`
    /// (`cols.len()` values each, laid end to end; a key holding a NULL
    /// matches nothing), and appends to `out`, key by key in batch order,
    /// what a probe of that key alone finds.
    ///
    /// A batch is answered in key order (see `sweep`): one walk along the
    /// clustered tree's, the index's or the segment tree's leaf chain that
    /// re-descends only when a key passes the current leaf, each segment
    /// decoded at most once, the delta overlay read once, and each
    /// distinct key probed once. The clustered tree and the segments
    /// decode their matches as they find them; a secondary index collects
    /// locators for the whole batch and fetches their rows once
    /// (`Table::fetch_chunk`); a scan decodes every row per distinct key
    /// and keeps the matches.
    ///
    /// `walked`, when given, receives the key positions in the order they
    /// were probed: the keys without a NULL in key order, ties in batch
    /// order — when the batch holds `SWEEP_MIN` keys or more; a shorter
    /// batch, probed key by key, leaves it as it was.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_eq(
        &self,
        pool: &mut BufferPool,
        path: ProbePath,
        cols: &[usize],
        keys: &[Value],
        read: &ColSet,
        out: EqMatches<'_>,
        walked: Option<&mut Vec<u32>>,
    ) -> Result<()> {
        let width = cols.len().max(1);
        let key_vals = |k: u32| &keys[k as usize * width..(k as usize + 1) * width];
        match (path, &self.storage) {
            (ProbePath::Clustered, TableStorage::Clustered { tree, .. }) => {
                let batch = ProbeKeys::new(keys, width)?;
                let mut walk = LeafWalk::default();
                let cmp = |a, b| batch.cmp(a, b);
                sweep(&batch.live, cmp, out, false, walked, |k, rows, mut locs| {
                    let mut decoded = Ok(());
                    tree.scan_prefix_runs(pool, &mut walk, batch.get(k), |run| {
                        if let Some(locs) = locs.as_deref_mut() {
                            run.keys().for_each(|k| locs.keys.push(k));
                        }
                        decoded = decode_rows_into_chunk(run.vals(), rows, read);
                        decoded.is_ok()
                    })?;
                    Ok(decoded?)
                })
            }
            (
                ProbePath::Segments,
                TableStorage::Segmented {
                    tree,
                    delta,
                    delta_rows,
                    tombstones,
                    ..
                },
            ) => {
                edge_width(out.rows, self.schema.columns.len())?;
                // A non-integral key never equals an INT fid.
                let fid = |k: u32| key_vals(k)[0].as_i64();
                let mut batch = take::<Vec<u32>>();
                batch.extend((0..(keys.len() / width) as u32).filter(|&k| fid(k).is_some()));
                let overlay = Overlay::read(delta, *delta_rows, pool)?;
                let mut walk = SegmentWalk::new(self.schema.columns.len());
                sweep(
                    &batch,
                    |a, b| fid(a).cmp(&fid(b)),
                    out,
                    false,
                    walked,
                    |k, rows, locs| {
                        let Some(fid) = fid(k) else {
                            return Ok(());
                        };
                        let before = rows.len();
                        walk.edges(tree, pool, fid, |row| {
                            if tombstones.is_empty() || !tombstones.contains(&(fid, row[1])) {
                                push_edge_cols(rows, row, read);
                            }
                        })?;
                        if let Some(overlay) = &overlay {
                            overlay.append(fid, rows, read);
                        }
                        if let Some(locs) = locs {
                            locs.segment_rows += rows.len() - before;
                        }
                        Ok(())
                    },
                )
            }
            (ProbePath::Secondary { index, point }, _) => {
                let idx = self
                    .indexes
                    .get(index)
                    .ok_or_else(|| SqlError::Eval("probe of a dropped index".into()))?;
                let batch = ProbeKeys::new(keys, width)?;
                let EqMatches { rows, src, locs } = out;
                let mut own = take::<BatchLocs>();
                let found = locs.unwrap_or(&mut own);
                let from = found.len();
                let clustered = self.is_clustered();
                let mut walk = LeafWalk::default();
                let out = EqMatches {
                    rows,
                    src,
                    locs: Some(&mut *found),
                };
                sweep(
                    &batch.live,
                    |a, b| batch.cmp(a, b),
                    out,
                    true,
                    walked,
                    |k, _, locs| match locs {
                        Some(locs) => {
                            idx.find_locs(pool, &mut walk, batch.get(k), point, clustered, locs)
                        }
                        None => Ok(()),
                    },
                )?;
                self.fetch_chunk(pool, found, from, rows, read)
            }
            (ProbePath::Scan, _) => {
                let mut batch = take::<Vec<u32>>();
                batch.extend(
                    (0..(keys.len() / width) as u32)
                        .filter(|&k| !key_vals(k).iter().any(Value::is_null)),
                );
                let cmp = |a: u32, b: u32| {
                    let (a, b) = (key_vals(a), key_vals(b));
                    a.iter()
                        .zip(b)
                        .map(|(x, y)| identity_cmp(x, y))
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                };
                // What the scans that must test a row before keeping it
                // decode.
                let all = ColSet::all();
                sweep(&batch, cmp, out, false, walked, |k, rows, locs| {
                    let vals = key_vals(k);
                    let mut cursor = self.batch_cursor(pool)?;
                    append_matching(
                        rows,
                        read,
                        |batch, found| {
                            self.next_batch(pool, &mut cursor, batch, &all, found, CHUNK_CAPACITY)
                        },
                        |batch, r| {
                            cols.iter().zip(vals).all(|(&c, v)| {
                                let cell = batch.get(c, r);
                                !cell.is_null() && cell.total_cmp(v).is_eq()
                            })
                        },
                        locs,
                    )
                })
            }
            _ => Err(SqlError::Eval(
                "probe path does not match table storage".into(),
            )),
        }
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

    /// A batched-scan cursor over the table's storage, positioned at the
    /// first row. The table must not be mutated while the cursor is in
    /// use.
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
    /// Returns `false` once the table is exhausted. Rows come in storage
    /// order: heap pages, clustering-key order, or the segments in key
    /// order minus tombstones followed by the delta overlay.
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
                let width = self.schema.columns.len();
                edge_width(chunk, width)?;
                let before = chunk.len();
                let mut more = false;
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
                    let mut added = 0usize;
                    let mut new_pos: Option<(Vec<u8>, usize)> = None;
                    let mut decode_err = None;
                    tree.scan_range(pool, lo, Bound::Unbounded, |k, v| {
                        if added >= max {
                            more = true;
                            return false;
                        }
                        let edges = match decode_segment(v, width) {
                            Ok(e) => e,
                            Err(e) => {
                                decode_err = Some(e);
                                return false;
                            }
                        };
                        let offset = skip.min(edges.len());
                        skip = 0;
                        let mut consumed = offset;
                        for row in &edges[offset..] {
                            if added >= max {
                                break;
                            }
                            consumed += 1;
                            if tombstones.contains(&(row[0], row[1])) {
                                continue;
                            }
                            push_edge_cols(chunk, row, cols);
                            added += 1;
                        }
                        let resume = if consumed < edges.len() { consumed } else { 0 };
                        new_pos = Some((k.to_vec(), resume));
                        more = resume > 0;
                        !more
                    })?;
                    if let Some(e) = decode_err {
                        return Err(e.into());
                    }
                    if let Some((k, s)) = new_pos {
                        c.cur_key = Some(k);
                        c.skip = s;
                    }
                    c.done = !more;
                }
                if !more {
                    // Base exhausted: stream the delta overlay.
                    let room = max - (chunk.len() - before);
                    more = c.delta.next_batch(delta, pool, chunk, cols, None, room)?;
                }
                if let Some(locs) = locs {
                    locs.segment_rows += chunk.len() - before;
                }
                Ok(more)
            }
            _ => Err(foreign_locator()),
        }
    }

    /// The error of an INSERT source `got` columns wide, when `cols` (the
    /// listed columns, if any) asks for another width.
    fn arity_err(&self, cols: Option<&[usize]>, got: usize) -> SqlError {
        SqlError::Eval(match cols {
            Some(cols) => format!(
                "INSERT lists {} columns but supplies {got} values",
                cols.len()
            ),
            None => format!(
                "table {} expects {} columns, got {got}",
                self.schema.name,
                self.schema.columns.len()
            ),
        })
    }

    /// Lays out row-form INSERT source for [`Table::insert_source`], one
    /// value per listed column (`cols`) or per table column; a row of
    /// another arity is refused as [`Table::insert_source`] would refuse a
    /// chunk of its width.
    pub fn source_chunk(
        &self,
        rows: impl IntoIterator<Item = Vec<Value>>,
        cols: Option<&[usize]>,
    ) -> Result<Chunk> {
        let width = cols.map_or(self.schema.columns.len(), <[usize]>::len);
        let mut chunk = Chunk::with_width(width);
        for row in rows {
            if row.len() != width {
                return Err(self.arity_err(cols, row.len()));
            }
            chunk.push_row(&row);
        }
        Ok(chunk)
    }

    /// The rows an INSERT writes, from its source — column `i` of
    /// `source` lands in column `cols[i]` (column `i` when no columns are
    /// listed), unlisted columns are NULL — coerced to the declared types:
    /// what [`Table::insert_chunk`] takes, for both executors.
    pub fn insert_source(&self, source: Chunk, cols: Option<&[usize]>) -> Result<Chunk> {
        let placed = match cols {
            Some(cols) if source.width() != cols.len() => {
                return Err(self.arity_err(Some(cols), source.width()))
            }
            Some(cols) => {
                let n = source.len();
                let mut placed: Vec<Column> = (0..self.schema.columns.len())
                    .map(|_| Column::nulls(n))
                    .collect();
                for (&c, col) in cols.iter().zip(source.into_columns()) {
                    placed[c] = col;
                }
                Chunk::from_columns(placed, n)
            }
            None => source,
        };
        self.coerce_chunk(placed)
    }

    /// Coerces every column of `chunk` to the schema's declared types,
    /// erroring on a width or type mismatch.
    pub fn coerce_chunk(&self, chunk: Chunk) -> Result<Chunk> {
        if chunk.width() != self.schema.columns.len() {
            return Err(self.arity_err(None, chunk.width()));
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

    /// Coerces values bound for column `c` to its declared type (Int ↔
    /// Float), erroring on any other mismatch. An integer column feeding
    /// an INT schema column passes through untouched (the FEM steady
    /// state).
    pub fn coerce_column(&self, c: usize, col: Column) -> Result<Column> {
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

    /// Inserts every row of `chunk` (columns already coerced, e.g. by
    /// `Table::insert_source`) and maintains every index — the one
    /// insert, for every storage. One pre-scan finds the first row in row
    /// order that cannot go in: one whose unique key (of a secondary index
    /// or the clustering key) is stored already or held by an earlier row
    /// of the chunk, or a delta-overlay row that is not all non-NULL
    /// integers. The rows before it are written and stay, and the call
    /// fails on it — what writing the rows one at a time would leave.
    /// Heap and delta rows go in one page-packing batch, clustered rows in
    /// arrival order with one tree descent each, and each secondary index
    /// takes its entries in entry-key order as one sorted run, a page
    /// write per leaf ([`BTree::insert_sorted`]).
    ///
    /// `absent` names a unique key (a secondary index or the clustering
    /// key) the caller has just probed, without a match, for every row's
    /// key (MERGE NOT MATCHED): those keys are checked against each other
    /// but not against the stored ones again. When it also lists the rows
    /// in key order, that order serves the whole write under that key:
    /// the in-chunk check compares neighbours, and a secondary index takes
    /// its entries in that order — no key is sorted again.
    pub fn insert_chunk(
        &mut self,
        pool: &mut BufferPool,
        chunk: &Chunk,
        absent: Option<AbsentKeys<'_>>,
    ) -> Result<u64> {
        let n = chunk.len();
        if n == 0 {
            return Ok(0);
        }
        if chunk.width() != self.schema.columns.len() {
            return Err(self.arity_err(None, chunk.width()));
        }
        let absent_key = absent.map(|a| a.key);
        // The probe's key order, when it covers every row.
        let by_key = absent.map_or(&[][..], |a| a.by_key);
        let by_key = (by_key.len() == n).then_some(by_key);
        // Every row's key under every index and under a unique clustering
        // key, encoded once: the pre-scan and the index entries both use
        // them.
        let mut keys = take::<Vec<KeyArena>>();
        keys.resize_with(self.indexes.len(), KeyArena::default);
        for (arena, idx) in keys.iter_mut().zip(&self.indexes) {
            keys_into(arena, chunk, &idx.cols)?;
        }
        let unique_clustered = match &self.storage {
            TableStorage::Clustered {
                tree,
                key_cols,
                unique: true,
                ..
            } => Some((tree, &key_cols[..], keys_on(chunk, key_cols)?)),
            _ => None,
        };
        // The pre-scan: the unique keys in a fixed order (secondary indexes
        // as created, then the clustering key), each checked against the
        // earlier rows and then, among the rows before the first offender
        // found so far, against what its tree stores.
        let mut first_bad: Option<(usize, &[usize])> = None;
        let secondary = self
            .indexes
            .iter()
            .zip(keys.iter())
            .enumerate()
            .filter(|(_, (idx, _))| idx.unique)
            .map(|(ii, (idx, keys))| (&idx.tree, &idx.cols[..], keys, UniqueKey::Index(ii)));
        let primary = unique_clustered
            .as_ref()
            .map(|(tree, cols, keys)| (*tree, *cols, keys, UniqueKey::Clustering));
        for (tree, cols, keys, key) in secondary.chain(primary) {
            let probed = absent_key == Some(key);
            let mut first = match by_key.filter(|_| probed) {
                Some(by_key) => first_repeat_in(keys, by_key),
                None => first_repeat(keys),
            };
            if !probed {
                let bound = first.unwrap_or(n).min(first_bad.map_or(n, |(r, _)| r));
                let mut walk = LeafWalk::default();
                for r in 0..bound {
                    if tree.contains_at(pool, &mut walk, keys.get(r))? {
                        first = Some(r);
                        break;
                    }
                }
            }
            if let Some(r) = first.filter(|&r| first_bad.is_none_or(|(b, _)| r < b)) {
                first_bad = Some((r, cols));
            }
        }
        // A segmented table has no unique key; its delta rows must be
        // non-NULL integers.
        let failure = if self.is_segmented() {
            let not_int =
                |r: &usize| (0..chunk.width()).any(|c| !matches!(chunk.get(c, *r), Value::Int(_)));
            (0..n).find(not_int).map(|r| {
                let msg = format!(
                    "table {} is segment-compressed: delta rows must be non-NULL integers",
                    self.schema.name
                );
                (r, SqlError::Eval(msg))
            })
        } else {
            first_bad.map(|(r, cols)| (r, duplicate_key(&self.schema.name, chunk, r, cols)))
        };
        let limit = failure.as_ref().map_or(n, |(r, _)| *r);
        // The rows before the offender, and their locators when an index
        // needs them.
        let mut locs = take::<BatchLocs>();
        let mut rows = take::<KeyArena>();
        match &mut self.storage {
            TableStorage::Heap(h) => {
                encode_rows_into(&mut rows, chunk, limit);
                h.insert_rows(pool, limit, |r| rows.get(r), &mut locs.rids)?;
            }
            TableStorage::Clustered {
                tree,
                key_cols,
                unique,
                next_uniquifier,
            } => {
                let (mut key, mut row) = (take::<Vec<u8>>(), take::<Vec<u8>>());
                let mut walk = LeafWalk::default();
                for r in 0..limit {
                    key.clear();
                    encode_cols_into(&mut key, chunk, r, key_cols)?;
                    if !*unique {
                        key.extend_from_slice(&next_uniquifier.to_be_bytes());
                        *next_uniquifier += 1;
                    }
                    encode_row_from_chunk(&mut row, chunk, r);
                    tree.insert_at(pool, &mut walk, &key, &row)?;
                    if !self.indexes.is_empty() {
                        locs.keys.push(&key);
                    }
                }
            }
            TableStorage::Segmented {
                delta, delta_rows, ..
            } => {
                encode_rows_into(&mut rows, chunk, limit);
                let mut rids = take::<Vec<RecordId>>();
                delta.insert_rows(pool, limit, |r| rows.get(r), &mut rids)?;
                *delta_rows += limit as u64;
            }
        }
        for (ii, (idx, keys)) in self.indexes.iter_mut().zip(keys.iter()).enumerate() {
            let by_key = by_key.filter(|_| absent_key == Some(UniqueKey::Index(ii)));
            idx.insert_entries(pool, keys, limit, &locs, by_key)?;
        }
        match failure {
            Some((_, e)) => Err(e),
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
            return Err(read_only_err(&self.schema.name));
        }
        debug_assert_eq!(mode, self.update_mode(assign_cols));
        let mut order = locs.distinct_sorted();
        match (&mut self.storage, mode) {
            (TableStorage::Heap(h), UpdateMode::InPlace) => {
                let moved = h.update_cells(pool, &locs.rids, &order, assign_cols, new_vals)?;
                // A record that moved pages re-points every index at its
                // new id (its key values did not change).
                if !self.indexes.is_empty() && !moved.is_empty() {
                    let mut rows = Chunk::new();
                    moved.iter().for_each(|m| rows.push_row(&m.row));
                    for (r, m) in moved.iter().enumerate() {
                        let (old_loc, new_loc) = (rid_bytes(locs.rids[m.item]), rid_bytes(m.rid));
                        for idx in &mut self.indexes {
                            let mut key = Vec::new();
                            idx.key_into(&mut key, &rows, r)?;
                            idx.delete(pool, key.clone(), &old_loc)?;
                            idx.insert(pool, key, &new_loc)?;
                        }
                    }
                }
            }
            _ => {
                let mut new = old.clone();
                for (&c, vals) in assign_cols.iter().zip(new_vals) {
                    new.set_column(c, vals.clone());
                }
                if self.rewrite_in_key_order(pool, locs, &order, &new, assign_cols)? {
                    return Ok(order.len() as u64);
                }
                // Arrival order, one row at a time: a row may take a unique
                // key an earlier row of the statement just freed, and an
                // error leaves the rows before it applied.
                order.sort_unstable();
                for &k in order.iter() {
                    self.rewrite_row(pool, locs, k, old, &new, assign_cols, new_vals)?;
                }
            }
        }
        Ok(order.len() as u64)
    }

    /// The rewrite of [`UpdateMode::Rewrite`] when no row moves: a
    /// clustered table whose assignments touch neither the clustering key
    /// nor an indexed column keeps every row at its key and every index
    /// entry as it is, so the rows `order` picks (ascending locators)
    /// are written over in one walk of the leaf chain
    /// ([`BTree::replace_sorted`]) — unless one no longer fits a cell,
    /// which the row-at-a-time rewrite refuses in arrival order. Returns
    /// whether it wrote the rows.
    fn rewrite_in_key_order(
        &mut self,
        pool: &mut BufferPool,
        locs: &BatchLocs,
        order: &[u32],
        new: &Chunk,
        assign_cols: &[usize],
    ) -> Result<bool> {
        let keyed = |cols: &[usize]| cols.iter().any(|c| assign_cols.contains(c));
        let TableStorage::Clustered { tree, key_cols, .. } = &mut self.storage else {
            return Ok(false);
        };
        if keyed(key_cols) || self.indexes.iter().any(|i| keyed(&i.cols)) {
            return Ok(false);
        }
        let mut rows = take::<KeyArena>();
        let mut row = take::<Vec<u8>>();
        for &k in order {
            encode_row_from_chunk(&mut row, new, k as usize);
            if !BTree::fits(locs.keys.get(k as usize), &row) {
                return Ok(false);
            }
            rows.push(&row);
        }
        let entries = order
            .iter()
            .enumerate()
            .map(|(j, &k)| (locs.keys.get(k as usize), rows.get(j)));
        tree.replace_sorted(pool, entries)?;
        Ok(true)
    }

    /// The step of [`UpdateMode::Rewrite`]: rewrites the row stored at
    /// `locs[k]` whole, from row `k` of `old` (as stored) to row `k` of
    /// `new` (the same row with `assign_cols` set to row `k` of
    /// `new_vals`), and moves every index entry whose key or locator
    /// changes. A unique key may only move onto a free key, checked before
    /// anything is written.
    #[allow(clippy::too_many_arguments)]
    fn rewrite_row(
        &mut self,
        pool: &mut BufferPool,
        locs: &BatchLocs,
        k: u32,
        old: &Chunk,
        new: &Chunk,
        assign_cols: &[usize],
        new_vals: &[Column],
    ) -> Result<()> {
        let r = k as usize;
        let same = |cols: &[usize]| cols.iter().all(|&c| old.get(c, r) == new.get(c, r));
        let mut key = Vec::new();
        for idx in self.indexes.iter().filter(|i| i.unique && !same(&i.cols)) {
            key.clear();
            idx.key_into(&mut key, new, r)?;
            if idx.tree.contains(pool, &key)? {
                return Err(duplicate_key(&self.schema.name, new, r, &idx.cols));
            }
        }
        let mut old_loc = Vec::new();
        locs.write_bytes(r, &mut old_loc);
        let new_loc = match &mut self.storage {
            TableStorage::Heap(h) => {
                let moved = h.update_cells(pool, &locs.rids, &[k], assign_cols, new_vals)?;
                moved.first().map(|m| rid_bytes(m.rid).to_vec())
            }
            TableStorage::Clustered {
                tree,
                key_cols,
                unique,
                next_uniquifier,
            } => {
                let mut row = Vec::new();
                encode_row_from_chunk(&mut row, new, r);
                if same(key_cols) {
                    tree.insert(pool, &old_loc, &row)?;
                    None
                } else {
                    let mut key = Vec::with_capacity(key_cols.len() * 9 + 8);
                    encode_cols_into(&mut key, new, r, key_cols)?;
                    if !*unique {
                        key.extend_from_slice(&next_uniquifier.to_be_bytes());
                        *next_uniquifier += 1;
                    } else if tree.contains(pool, &key)? {
                        return Err(duplicate_key(&self.schema.name, new, r, key_cols));
                    }
                    tree.delete(pool, &old_loc)?;
                    tree.insert(pool, &key, &row)?;
                    Some(key)
                }
            }
            TableStorage::Segmented { .. } => return Err(read_only_err(&self.schema.name)),
        };
        let moved = new_loc.is_some();
        let new_loc = new_loc.unwrap_or_else(|| old_loc.clone());
        for idx in self.indexes.iter_mut().filter(|i| moved || !same(&i.cols)) {
            let (mut old_key, mut new_key) = (Vec::new(), Vec::new());
            idx.key_into(&mut old_key, old, r)?;
            idx.key_into(&mut new_key, new, r)?;
            idx.delete(pool, old_key, &old_loc)?;
            idx.insert(pool, new_key, &new_loc)?;
        }
        Ok(())
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
            TableStorage::Heap(h) => h.delete_batch(pool, &locs.rids)?,
            TableStorage::Clustered { tree, .. } => {
                for r in 0..locs.keys.len() {
                    tree.delete(pool, locs.keys.get(r))?;
                }
            }
            TableStorage::Segmented { .. } => return Err(read_only_err(&self.schema.name)),
        }
        let mut key = Vec::new();
        let mut loc = Vec::new();
        for idx in &mut self.indexes {
            for r in 0..locs.len() {
                key.clear();
                idx.key_into(&mut key, rows, r)?;
                loc.clear();
                locs.write_bytes(r, &mut loc);
                idx.entry(&mut key, &loc);
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

    /// Returns every page the table owns (heaps, trees, indexes) to the
    /// pool's allocator.
    fn destroy(self, pool: &mut BufferPool) -> Result<()> {
        match self.storage {
            TableStorage::Heap(heap) => heap.destroy(pool),
            TableStorage::Clustered { tree, .. } => tree.destroy(pool)?,
            TableStorage::Segmented { tree, delta, .. } => {
                tree.destroy(pool)?;
                delta.destroy(pool);
            }
        }
        for idx in self.indexes {
            idx.tree.destroy(pool)?;
        }
        Ok(())
    }

    /// Fills an empty 3-column segmented table from edges sorted by
    /// `(fid, tid, cost)` (see [`Table::segment_load`]). Errors if the
    /// table is not a segmented edge table, is already loaded, or the
    /// input is out of order.
    pub fn bulk_load_segments(
        &mut self,
        pool: &mut BufferPool,
        edges: impl IntoIterator<Item = (i64, i64, i64)>,
    ) -> Result<u64> {
        let mut load = self.segment_load(pool)?;
        if load.width != 3 {
            return Err(SqlError::Eval(format!(
                "table {} holds {} columns, not (fid, tid, cost) edges",
                self.schema.name, load.width
            )));
        }
        for (fid, tid, cost) in edges {
            load.push(pool, [fid, tid, cost, 0])?;
        }
        self.finish_segment_load(pool, load)
    }

    /// Starts a bulk load of this empty segmented table: the rows pushed
    /// into the returned [`SegmentLoad`] are packed into delta-encoded
    /// varint segments and streamed into a bottom-up build of the tree —
    /// no per-key root-to-leaf descents, and no more than one segment
    /// buffered. The table is read-only meanwhile (the load borrows the
    /// pool only per call, so the caller may read other tables between
    /// pushes); [`Table::finish_segment_load`] completes it. Errors if the
    /// table is not segmented or is already loaded.
    pub fn segment_load(&self, pool: &mut BufferPool) -> Result<SegmentLoad> {
        let TableStorage::Segmented {
            tree,
            rows,
            delta_rows,
            ..
        } = &self.storage
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
        let width = self.schema.columns.len();
        Ok(SegmentLoad {
            table: self.schema.name.clone(),
            width,
            packer: SegmentPacker::new(width)?,
            builder: BTreeBulkBuilder::for_tree(tree, pool)?,
            key: Vec::new(),
            seq: 0,
            rows: 0,
            last: None,
        })
    }

    /// Completes a bulk load [`Table::segment_load`] began on this table:
    /// packs the last rows and finishes the tree. Returns the rows loaded.
    pub fn finish_segment_load(
        &mut self,
        pool: &mut BufferPool,
        mut load: SegmentLoad,
    ) -> Result<u64> {
        if let Some(seg) = load.packer.finish() {
            load.put(pool, seg)?;
        }
        let TableStorage::Segmented { tree, rows, .. } = &mut self.storage else {
            return Err(SqlError::Eval(format!(
                "table {} is not segment-compressed",
                self.schema.name
            )));
        };
        tree.bulk_finish(pool, load.builder)?;
        *rows = load.rows;
        Ok(load.rows)
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
            let mut base = 0u64;
            SegmentWalk::new(self.schema.columns.len())
                .edges(tree, pool, fid, |row| base += u64::from(row[1] == tid))?;
            if base > 0 {
                tombstones.insert((fid, tid));
                *dead_rows += base;
                removed += base;
            }
        }
        // Delta rows matching the pair go away physically, so a later
        // re-insert of the same edge is visible again.
        let (mut pairs, mut all_rids) = (Chunk::new(), Vec::new());
        let mut cursor = delta.batch_cursor();
        let read = ColSet::of([0, 1]);
        while cursor.next_batch(
            delta,
            pool,
            &mut pairs,
            &read,
            Some(&mut all_rids),
            usize::MAX,
        )? {}
        let rids: Vec<RecordId> = (0..pairs.len())
            .filter(|&r| pairs.get(0, r) == Value::Int(fid) && pairs.get(1, r) == Value::Int(tid))
            .map(|r| all_rids[r])
            .collect();
        if !rids.is_empty() {
            delta.delete_batch(pool, &rids)?;
            *delta_rows -= rids.len() as u64;
            removed += rids.len() as u64;
        }
        Ok(removed)
    }

    /// Bulk-loads an empty table (and its empty indexes) from `rows`
    /// (columns already coerced, e.g. by `Table::insert_source`): base
    /// storage gets one page-packing batch write (heap) or a bottom-up
    /// build (clustered), and every index tree is bulk-built bottom-up
    /// from sorted entries — bypassing per-row descents entirely. Unique
    /// violations surface as [`SqlError::DuplicateKey`] before anything is
    /// written.
    pub fn bulk_load_rows(&mut self, pool: &mut BufferPool, rows: &Chunk) -> Result<u64> {
        if !self.is_empty() || self.indexes.iter().any(|i| !i.tree.is_empty()) {
            return Err(SqlError::Eval(format!(
                "bulk load requires empty table {}",
                self.schema.name
            )));
        }
        let n = rows.len();
        if n == 0 {
            return Ok(0);
        }
        if rows.width() != self.schema.columns.len() {
            return Err(self.arity_err(None, rows.width()));
        }
        // Every row's key under every index; unique violations (within
        // the batch — the table is empty) are detected before anything is
        // written.
        let keys: Vec<KeyArena> = self
            .indexes
            .iter()
            .map(|idx| keys_on(rows, &idx.cols))
            .collect::<Result<_>>()?;
        for (idx, keys) in self.indexes.iter().zip(&keys) {
            if let Some(r) = idx.first_repeat(keys) {
                return Err(duplicate_key(&self.schema.name, rows, r, &idx.cols));
            }
        }
        // Resolve every row's locator with one batch write of the base
        // storage.
        let mut locs = BatchLocs::default();
        match &mut self.storage {
            TableStorage::Heap(h) => {
                let mut encoded = KeyArena::default();
                encode_rows_into(&mut encoded, rows, n);
                h.insert_rows(pool, n, |r| encoded.get(r), &mut locs.rids)?;
            }
            TableStorage::Clustered {
                tree,
                key_cols,
                unique,
                next_uniquifier,
            } => {
                // Encodes one row's clustering-key prefix into `out`
                // (cleared first).
                let key_prefix = |r: usize, out: &mut Vec<u8>| {
                    out.clear();
                    encode_cols_into(out, rows, r, key_cols)
                };
                // Non-decreasing key prefixes plus the monotone uniquifier
                // give strictly increasing full keys, so key-sorted input
                // (the CSR edge stream) can skip the sort below.
                let mut sorted_input = !*unique;
                if sorted_input {
                    let mut prev = Vec::new();
                    let mut cur = Vec::new();
                    for r in 0..n {
                        key_prefix(r, &mut cur)?;
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
                    for r in 0..n {
                        key_prefix(r, &mut key)?;
                        key.extend_from_slice(&next_uniquifier.to_be_bytes());
                        *next_uniquifier += 1;
                        encode_row_from_chunk(&mut val, rows, r);
                        b.push(pool, &key, &val)?;
                    }
                    tree.bulk_finish(pool, b)?;
                } else {
                    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(n);
                    for r in 0..n {
                        let mut val = Vec::new();
                        encode_row_from_chunk(&mut val, rows, r);
                        let mut key = Vec::with_capacity(17);
                        key_prefix(r, &mut key)?;
                        if !*unique {
                            key.extend_from_slice(&next_uniquifier.to_be_bytes());
                            *next_uniquifier += 1;
                        }
                        entries.push((key, val));
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
                            return Err(duplicate_key(&self.schema.name, rows, w[1], key_cols));
                        }
                    }
                    for (k, _) in &entries {
                        locs.keys.push(k);
                    }
                    let sorted: Vec<(Vec<u8>, Vec<u8>)> = order
                        .iter()
                        .map(|&i| std::mem::take(&mut entries[i]))
                        .collect();
                    tree.bulk_build(pool, sorted)?;
                }
            }
            TableStorage::Segmented { .. } => {
                return Err(SqlError::Eval(format!(
                    "table {} is segment-compressed; use bulk_load_segments",
                    self.schema.name
                )))
            }
        }
        // Every index: sorted entries, bottom-up build.
        for (idx, keys) in self.indexes.iter_mut().zip(&keys) {
            idx.bulk_fill(pool, keys, &locs)?;
        }
        Ok(n as u64)
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

/// The refusal of a write to the base rows of segmented table `table`.
fn read_only_err(table: &str) -> SqlError {
    SqlError::Eval(format!(
        "table {table} is segment-compressed: base rows are immutable \
         (use INSERT / delta_delete_edge for edge mutations)"
    ))
}

/// The refusal of row `r` of `rows`, whose key on `cols` a unique key of
/// `table` already holds.
fn duplicate_key(table: &str, rows: &Chunk, r: usize, cols: &[usize]) -> SqlError {
    let parts: Vec<String> = cols.iter().map(|&c| rows.get(c, r).to_string()).collect();
    SqlError::DuplicateKey {
        table: table.to_string(),
        key: format!("({})", parts.join(", ")),
    }
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

    /// Calls `f` with `name` lowercased, as the maps are keyed. The
    /// per-execution lookups take this door: a name that is already
    /// lowercase, or short enough to lowercase on the stack, costs no
    /// allocation.
    fn with_key<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
        if !name.bytes().any(|b| b.is_ascii_uppercase()) {
            return f(name);
        }
        let mut buf = [0u8; 64];
        match buf.get_mut(..name.len()) {
            Some(lower) => {
                lower.copy_from_slice(name.as_bytes());
                lower.make_ascii_lowercase();
                // Lowercasing ASCII bytes keeps UTF-8 valid.
                f(std::str::from_utf8(lower).unwrap_or(name))
            }
            None => f(&Self::key(name)),
        }
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

    /// Creates a segment-compressed table (DESIGN.md §14). The schema
    /// must be three INT columns shaped `(fid, tid, cost)` (an edge table)
    /// or four shaped `(fid, tid, pid, cost)` (a SegTable), with the first
    /// column doubling as the ordered access path. Fill it with
    /// [`Table::bulk_load_segments`] (edges) or [`Table::segment_load`]
    /// (either width); post-load mutations go through the delta overlay
    /// (INSERT / [`Table::delta_delete_edge`]).
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
        if !matches!(columns.len(), 3 | 4)
            || columns.iter().any(|c| !matches!(c.dtype, DataType::Int))
        {
            return Err(SqlError::Catalog(format!(
                "segmented table {name} requires three or four INT columns"
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
                table.destroy(pool)?;
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
        Self::with_key(name, |k| self.views.get(k))
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        Self::with_key(name, |k| self.tables.get(k))
            .ok_or_else(|| SqlError::Catalog(format!("no such table {name}")))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let tables = &mut self.tables;
        Self::with_key(name, |k| tables.get_mut(k))
            .ok_or_else(|| SqlError::Catalog(format!("no such table {name}")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        Self::with_key(name, |k| self.tables.contains_key(k))
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
        if stmt.clustered && table.is_clustered() {
            return Err(SqlError::Catalog(format!(
                "table {} is already clustered",
                stmt.table
            )));
        }
        // Every row and its locator.
        let mut rows = Chunk::new();
        let mut locs = BatchLocs::default();
        let mut cursor = table.batch_cursor(pool)?;
        let all = ColSet::all();
        while table.next_batch(
            pool,
            &mut cursor,
            &mut rows,
            &all,
            Some(&mut locs),
            usize::MAX,
        )? {}
        if stmt.clustered {
            // Reorganise into a fresh index-organised table — bulk-built,
            // its secondary indexes rebuilt (the locators change) — and
            // swap it in only once it is whole.
            let mut fresh = Table {
                schema: table.schema.clone(),
                storage: TableStorage::Clustered {
                    tree: BTree::create(pool)?,
                    key_cols: cols,
                    unique: stmt.unique,
                    next_uniquifier: 0,
                },
                indexes: Vec::with_capacity(table.indexes.len()),
            };
            for idx in &table.indexes {
                fresh.indexes.push(SecondaryIndex {
                    tree: BTree::create(pool)?,
                    ..idx.clone()
                });
            }
            if let Err(e) = fresh.bulk_load_rows(pool, &rows) {
                fresh.destroy(pool)?;
                return Err(e);
            }
            std::mem::replace(table, fresh).destroy(pool)?;
        } else {
            // Secondary index: every row's key and locator, checked for
            // repeats, then bulk-built.
            let mut index = SecondaryIndex {
                name: stmt.name.clone(),
                cols,
                unique: stmt.unique,
                tree: BTree::create(pool)?,
            };
            let built =
                keys_on(&rows, &index.cols).and_then(|keys| match index.first_repeat(&keys) {
                    Some(r) => Err(duplicate_key(&table.schema.name, &rows, r, &index.cols)),
                    None => index.bulk_fill(pool, &keys, &locs),
                });
            if let Err(e) = built {
                index.tree.destroy(pool)?;
                return Err(e);
            }
            table.indexes.push(index);
        }
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
    use fempath_storage::{chunk_from_rows, decode_edge_segment};

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
        let found = EqMatches {
            rows: &mut chunk,
            src: None,
            locs: None,
        };
        t.probe_eq(pool, path, cols, key, &ColSet::all(), found, None)
            .unwrap();
        (path, (0..chunk.len()).map(|r| chunk.row(r)).collect())
    }

    /// Inserts `rows` through the one insert entry, placed and coerced as
    /// an INSERT's source is.
    fn insert(pool: &mut BufferPool, t: &mut Table, rows: &[Vec<Value>]) -> Result<u64> {
        let chunk = t.insert_source(t.source_chunk(rows.to_vec(), None)?, None)?;
        t.insert_chunk(pool, &chunk, None)
    }

    /// The locators and stored rows of the rows `keep` accepts, in scan
    /// order.
    fn find(
        pool: &mut BufferPool,
        t: &Table,
        keep: impl Fn(&[Value]) -> bool,
    ) -> (BatchLocs, Chunk) {
        let (mut locs, mut rows) = (BatchLocs::default(), Chunk::new());
        t.scan(pool, |loc, row| {
            if keep(&row) {
                locs.push(&loc);
                rows.push_row(&row);
            }
            true
        })
        .unwrap();
        (locs, rows)
    }

    /// Sets column `c` to `v` in every row `keep` accepts, through the one
    /// update entry.
    fn set(
        pool: &mut BufferPool,
        t: &mut Table,
        keep: impl Fn(&[Value]) -> bool,
        c: usize,
        v: Value,
    ) -> Result<u64> {
        let (locs, old) = find(pool, t, keep);
        let vals = [Column::repeat(&v, locs.len())];
        let mode = t.update_mode(&[c]);
        t.update_rows(pool, &locs, &[c], &vals, &old, mode)
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
        let rows: Vec<Vec<Value>> = (0..10).map(|i| row(i, i + 1, 5)).collect();
        assert_eq!(insert(&mut pool, t, &rows).unwrap(), 10);
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
            let rows: Vec<Vec<Value>> = (0..100).map(|i| row(i % 10, i, 1)).collect();
            insert(&mut pool, t, &rows).unwrap();
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
            let rows: Vec<Vec<Value>> = (0..50).rev().map(|i| row(i, 100 + i, 1)).collect();
            insert(&mut pool, t, &rows).unwrap();
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
        insert(&mut pool, t, &[vec![Value::Int(1), Value::Int(0)]]).unwrap();
        let err = insert(&mut pool, t, &[vec![Value::Int(1), Value::Int(9)]]);
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
    fn failed_unique_index_build_leaves_the_table_as_it_was() {
        let (mut pool, mut cat) = setup();
        let int = |name: &str| ColumnDef {
            name: name.into(),
            dtype: DataType::Int,
        };
        cat.create_table(&mut pool, "t", vec![int("a"), int("b")], None)
            .unwrap();
        let index = |name: &str, col: &str, unique: bool, clustered: bool| CreateIndex {
            name: name.into(),
            table: "t".into(),
            columns: vec![col.into()],
            unique,
            clustered,
        };
        cat.create_index(&mut pool, &index("ib", "b", false, false))
            .unwrap();
        let rows: Vec<Vec<Value>> = [(1, 1), (2, 3), (1, 2), (3, 4)]
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        let t = cat.table_mut("t").unwrap();
        insert(&mut pool, t, &rows).unwrap();
        let content = |pool: &mut BufferPool, cat: &Catalog| {
            let mut seen = Vec::new();
            cat.table("t")
                .unwrap()
                .scan(pool, |_, row| {
                    seen.push(row);
                    true
                })
                .unwrap();
            seen
        };
        for clustered in [true, false, true] {
            let err = cat.create_index(&mut pool, &index("ia", "a", true, clustered));
            match err {
                Err(SqlError::DuplicateKey { table, key }) => {
                    assert_eq!((table.as_str(), key.as_str()), ("t", "(1)"));
                }
                other => panic!("expected a duplicate key, got {:?}", other.err()),
            }
            let t = cat.table("t").unwrap();
            assert_eq!(t.len(), 4);
            assert!(!t.is_clustered());
            assert_eq!(t.indexes.len(), 1);
            assert_eq!(content(&mut pool, &cat), rows);
            let (_, hits) = probe(&mut pool, t, &[1], &[Value::Int(4)]);
            assert_eq!(hits, vec![rows[3].clone()]);
        }
        // The failed name was never registered; a clustering that fits
        // goes through and keeps every row and the index on `b`.
        cat.create_index(&mut pool, &index("ia", "a", false, true))
            .unwrap();
        let t = cat.table("t").unwrap();
        assert!(t.is_clustered());
        let (path, hits) = probe(&mut pool, t, &[1], &[Value::Int(3)]);
        assert!(matches!(path, ProbePath::Secondary { .. }));
        assert_eq!(hits, vec![rows[1].clone()]);
        let mut sorted = rows.clone();
        sorted.sort_by_key(|r| r[0].as_i64());
        assert_eq!(content(&mut pool, &cat), sorted);
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
        insert(&mut pool, t, &[vec![Value::Int(1), Value::Int(10)]]).unwrap();
        let (locs, old) = find(&mut pool, t, |r| r[0] == Value::Int(1));
        let new = [
            Column::repeat(&Value::Int(2), 1),
            Column::repeat(&Value::Int(20), 1),
        ];
        let mode = t.update_mode(&[0, 1]);
        t.update_rows(&mut pool, &locs, &[0, 1], &new, &old, mode)
            .unwrap();
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
        insert(&mut pool, t, &[vec![Value::Int(3), Value::Int(30)]]).unwrap();
        let err = set(&mut pool, t, |r| r[0] == Value::Int(3), 0, Value::Int(2));
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
        insert(&mut pool, t, &[row(5, 6, 7)]).unwrap();
        let (locs, rows) = find(&mut pool, t, |r| r == row(5, 6, 7));
        t.delete_rows(&mut pool, &locs, &rows).unwrap();
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
        let rows: Vec<Vec<Value>> = (0..20).map(|i| row(i, i, i)).collect();
        insert(&mut pool, t, &rows).unwrap();
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

    /// Column `c` of every row of `chunk`, as integers.
    fn ints(chunk: &Chunk) -> Vec<(i64, i64, i64)> {
        (0..chunk.len())
            .map(|r| {
                let v = |c| chunk.get(c, r).as_i64().unwrap();
                (v(0), v(1), v(2))
            })
            .collect()
    }

    /// Probes `t` on `fid` with `keys`; returns the rows found and the
    /// buffer-pool accesses the probe made.
    fn probe_fids(pool: &mut BufferPool, t: &Table, keys: &[Value]) -> (Vec<(i64, i64, i64)>, u64) {
        let mut chunk = Chunk::with_width(3);
        let found = EqMatches {
            rows: &mut chunk,
            src: None,
            locs: None,
        };
        let before = pool.stats().accesses();
        t.probe_eq(
            pool,
            ProbePath::Segments,
            &[0],
            keys,
            &ColSet::all(),
            found,
            None,
        )
        .unwrap();
        (ints(&chunk), pool.stats().accesses() - before)
    }

    #[test]
    fn a_fid_inside_one_segment_reads_only_its_own_leaf() {
        let (mut pool, mut cat) = setup();
        cat.create_segmented_table(&mut pool, "TSeg", edge_cols())
            .unwrap();
        let edges: Vec<(i64, i64, i64)> = (0..2600i64)
            .flat_map(|f| (0..3).map(move |i| (f, 3 * f + i, 1 + (f + i) % 9)))
            .collect();
        let t = cat.table_mut("TSeg").unwrap();
        t.bulk_load_segments(&mut pool, edges.iter().copied())
            .unwrap();
        let t = cat.table("TSeg").unwrap();
        let TableStorage::Segmented { tree, .. } = &t.storage else {
            unreachable!()
        };
        let height = tree.height(&mut pool).unwrap() as u64;
        assert!(tree.chain_leaves(&mut pool).unwrap() > 3);
        // The fid span of every segment, leaf by leaf.
        let mut leaves: Vec<Vec<(i64, i64)>> = Vec::new();
        tree.scan_prefix_runs(&mut pool, &mut LeafWalk::default(), &[], |run| {
            let span = |blob: &[u8]| {
                let seg = decode_edge_segment(blob).unwrap();
                (seg[0].0, seg[seg.len() - 1].0)
            };
            leaves.push(run.vals().map(span).collect());
            true
        })
        .unwrap();
        assert!(leaves.len() > 3 && leaves.iter().all(|l| l.len() > 1));
        for (l, leaf) in leaves.iter().enumerate() {
            for (i, &(first, last)) in leaf.iter().enumerate() {
                let fid = (first + last) / 2;
                assert!(first < fid && fid < last);
                let (got, reads) = probe_fids(&mut pool, t, &[Value::Int(fid)]);
                let want: Vec<_> = edges.iter().filter(|e| e.0 == fid).copied().collect();
                assert_eq!(got, want);
                // The descent reads `height` pages, the leaf last; one
                // for a leaf's first segment lands on the leaf before
                // (separators are first keys) and steps on. No probe reads
                // past its segment's own leaf, the last segment of a leaf
                // included.
                let want_reads = height + u64::from(i == 0 && l > 0);
                assert_eq!(reads, want_reads, "fid {fid} in segment {i} of leaf {l}");
            }
        }
    }

    #[test]
    fn a_batch_probe_reads_the_delta_overlay_once() {
        let (mut pool, mut cat) = setup();
        let base: Vec<(i64, i64, i64)> = (0..50i64).map(|f| (f, f + 1, 2)).collect();
        for name in ["Plain", "Mutated"] {
            cat.create_segmented_table(&mut pool, name, edge_cols())
                .unwrap();
            let t = cat.table_mut(name).unwrap();
            t.bulk_load_segments(&mut pool, base.iter().copied())
                .unwrap();
        }
        let t = cat.table_mut("Mutated").unwrap();
        let delta: Vec<Vec<Value>> = (0..1500i64).map(|i| row(i % 70, 100 + i, 3)).collect();
        insert(&mut pool, t, &delta).unwrap();
        let (plain, mutated) = (cat.table("Plain").unwrap(), cat.table("Mutated").unwrap());
        // Shuffled and repeated fids, some only in the overlay, some absent.
        let keys: Vec<Value> = (0..1000i64).map(|i| Value::Int(i * 37 % 90)).collect();
        let (_, one_plain) = probe_fids(&mut pool, plain, &keys[..1]);
        let (_, one_mutated) = probe_fids(&mut pool, mutated, &keys[..1]);
        let delta_pages = one_mutated - one_plain;
        assert!(delta_pages > 2, "the overlay spans {delta_pages} pages");
        let (got, batch_mutated) = probe_fids(&mut pool, mutated, &keys);
        let (_, batch_plain) = probe_fids(&mut pool, plain, &keys);
        assert_eq!(batch_mutated - batch_plain, delta_pages);
        let want: Vec<_> = keys
            .iter()
            .flat_map(|k| probe_fids(&mut pool, mutated, std::slice::from_ref(k)).0)
            .collect();
        assert_eq!(got, want);
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
            let mut locs = BatchLocs::default();
            locs.push(&RowLoc::Heap(RecordId::from_u64(0)));
            let old = chunk_of(&[(1, 2, 3)]);
            assert!(t.delete_rows(&mut pool, &locs, &old).is_err());
            let vals = [Column::repeat(&Value::Int(4), 1)];
            assert!(t
                .update_rows(&mut pool, &locs, &[0], &vals, &old, UpdateMode::Rewrite)
                .is_err());
            // NULL-bearing delta rows are rejected.
            assert!(insert(
                &mut pool,
                t,
                &[vec![Value::Int(1), Value::Null, Value::Int(3)]]
            )
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
            t.insert_chunk(&mut pool, &chunk_of(&[(7, 9000, 5)]), None)
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
            insert(&mut pool, t, &[row(3, 4, 99)]).unwrap();
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
        let n = t
            .bulk_load_rows(&mut pool, &chunk_from_rows(&rows))
            .unwrap();
        assert_eq!(n, 500);
        assert_eq!(t.len(), 500);
        // Index probes return exactly the matching rows.
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(3)]);
        assert!(matches!(path, ProbePath::Secondary { .. }));
        assert_eq!(hits.len(), 5);
        // A second bulk load into the now non-empty table is rejected.
        assert!(t
            .bulk_load_rows(&mut pool, &chunk_from_rows(&rows))
            .is_err());
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
        t.bulk_load_rows(&mut pool, &chunk_from_rows(&rows))
            .unwrap();
        assert_eq!(t.len(), 300);
        let (path, hits) = probe(&mut pool, t, &[0], &[Value::Int(4)]);
        assert_eq!(path, ProbePath::Clustered);
        assert_eq!(hits.len(), 10);
        // Later per-row inserts coexist with the bulk-built tree.
        insert(&mut pool, t, &[row(4, 999, 1)]).unwrap();
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
            &chunk_from_rows(&[
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(1)],
            ]),
        );
        assert!(matches!(err, Err(SqlError::DuplicateKey { .. })));
    }

    #[test]
    fn insert_source_coerces_types() {
        let (mut pool, mut cat) = setup();
        let _ = &mut pool;
        let t = cat.table_mut("TEdges").unwrap();
        let coerce = |row: Vec<Value>| t.insert_source(t.source_chunk([row], None)?, None);
        let coerced = coerce(vec![Value::Float(2.9), Value::Int(3), Value::Int(4)]).unwrap();
        assert_eq!(coerced.row(0)[0], Value::Int(2));
        assert!(coerce(vec![Value::Int(1)]).is_err());
        assert!(coerce(vec![Value::Text("x".into()), Value::Int(1), Value::Int(2)]).is_err());
    }
}
