//! Slotted-page heap files: unordered record storage.
//!
//! A heap file is a list of pages, each with a classic slot directory
//! growing from the header and cell payloads growing from the end of the
//! page. Records are addressed by [`RecordId`] (page index within the file +
//! slot). Records never move pages on update *unless* they grow beyond the
//! page's free space, in which case the caller is told the new location so
//! secondary indexes can be fixed up. Every write takes a batch:
//! [`HeapFile::insert_batch`], [`HeapFile::delete_batch`] and
//! [`HeapFile::update_cells`].
//!
//! Heap metadata (the list of page ids and per-page free space) is kept in
//! memory and rebuilt from the catalog on open; crash recovery is out of
//! scope (see DESIGN.md §5).

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{codec, PageId, PAGE_SIZE};
use crate::value::Value;
use std::ops::Range;

const HDR_NUM_SLOTS: usize = 0; // u16
const HDR_CELL_START: usize = 2; // u16
const HDR_DEAD: usize = 4; // u16 bytes of reclaimable cell space
const HDR_SIZE: usize = 6;
const SLOT_SIZE: usize = 4; // u16 offset + u16 length
const DEAD_SLOT: u16 = u16::MAX;

/// Largest record a heap page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HDR_SIZE - SLOT_SIZE;

/// Stable address of a record: page index within the heap file + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub page: u32,
    pub slot: u16,
}

impl RecordId {
    /// Packs the rid into a single integer (used to store rids inside
    /// secondary-index payloads).
    pub fn to_u64(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// Inverse of [`RecordId::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: (v >> 16) as u32,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// An unordered record file over the buffer pool.
///
/// `Clone` duplicates only the in-memory metadata (page list, free-space
/// hints, row count) — both clones address the same pages, so cloning is
/// only sound when at most one clone keeps writing (e.g. catalog templates
/// cloned into copy-on-write snapshot sessions, DESIGN.md §10).
#[derive(Clone)]
pub struct HeapFile {
    pages: Vec<PageId>,
    /// Usable free bytes per page (contiguous + dead), kept in memory.
    free: Vec<u16>,
    len: u64,
}

fn init_page(buf: &mut [u8; PAGE_SIZE]) {
    codec::put_u16(buf, HDR_NUM_SLOTS, 0);
    codec::put_u16(buf, HDR_CELL_START, PAGE_SIZE as u16);
    codec::put_u16(buf, HDR_DEAD, 0);
}

fn page_free(buf: &[u8; PAGE_SIZE]) -> usize {
    let n = codec::get_u16(buf, HDR_NUM_SLOTS) as usize;
    let cell_start = codec::get_u16(buf, HDR_CELL_START) as usize;
    let dead = codec::get_u16(buf, HDR_DEAD) as usize;
    cell_start - (HDR_SIZE + n * SLOT_SIZE) + dead
}

/// Rewrites all live cells tightly against the end of the page, zeroing the
/// dead-byte counter. Slot numbers are preserved.
fn compact(buf: &mut [u8; PAGE_SIZE]) {
    let n = codec::get_u16(buf, HDR_NUM_SLOTS) as usize;
    let mut cells: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
    for s in 0..n {
        let so = HDR_SIZE + s * SLOT_SIZE;
        let off = codec::get_u16(buf, so);
        if off == DEAD_SLOT {
            continue;
        }
        let len = codec::get_u16(buf, so + 2) as usize;
        cells.push((s, buf[off as usize..off as usize + len].to_vec()));
    }
    let mut cell_start = PAGE_SIZE;
    for (s, bytes) in cells {
        cell_start -= bytes.len();
        buf[cell_start..cell_start + bytes.len()].copy_from_slice(&bytes);
        let so = HDR_SIZE + s * SLOT_SIZE;
        codec::put_u16(buf, so, cell_start as u16);
        codec::put_u16(buf, so + 2, bytes.len() as u16);
    }
    codec::put_u16(buf, HDR_CELL_START, cell_start as u16);
    codec::put_u16(buf, HDR_DEAD, 0);
}

/// Inserts `bytes` into the page, reusing a dead slot when available.
/// Returns the slot number, or `None` if the page lacks space.
fn page_insert(buf: &mut [u8; PAGE_SIZE], bytes: &[u8]) -> Option<u16> {
    let n = codec::get_u16(buf, HDR_NUM_SLOTS) as usize;
    // Look for a reusable dead slot first so rid space stays dense.
    let mut slot = None;
    for s in 0..n {
        if codec::get_u16(buf, HDR_SIZE + s * SLOT_SIZE) == DEAD_SLOT {
            slot = Some(s);
            break;
        }
    }
    let needs_new_slot = slot.is_none();
    let needed = bytes.len() + if needs_new_slot { SLOT_SIZE } else { 0 };
    if page_free(buf) < needed {
        return None;
    }
    let cell_start = codec::get_u16(buf, HDR_CELL_START) as usize;
    let slot_area_end = HDR_SIZE + (n + usize::from(needs_new_slot)) * SLOT_SIZE;
    if cell_start.saturating_sub(slot_area_end) < bytes.len() {
        compact(buf);
    }
    let cell_start = codec::get_u16(buf, HDR_CELL_START) as usize - bytes.len();
    buf[cell_start..cell_start + bytes.len()].copy_from_slice(bytes);
    codec::put_u16(buf, HDR_CELL_START, cell_start as u16);
    let s = slot.unwrap_or(n);
    if needs_new_slot {
        codec::put_u16(buf, HDR_NUM_SLOTS, (n + 1) as u16);
    }
    let so = HDR_SIZE + s * SLOT_SIZE;
    codec::put_u16(buf, so, cell_start as u16);
    codec::put_u16(buf, so + 2, bytes.len() as u16);
    Some(s as u16)
}

/// Updates the record in `slot` within the page when possible: shrink or
/// same-size overwrites in place; growth re-inserts into this page's free
/// space under the same slot number. Returns `Ok(false)` when the record
/// no longer fits the page — its old cell is then already dead and the
/// caller must re-insert the bytes elsewhere.
fn page_update_in_place(buf: &mut [u8; PAGE_SIZE], rid: RecordId, bytes: &[u8]) -> Result<bool> {
    let n = codec::get_u16(buf, HDR_NUM_SLOTS);
    let slot = rid.slot;
    if slot >= n {
        return Err(StorageError::InvalidRecordId {
            page: rid.page as u64,
            slot,
        });
    }
    let so = HDR_SIZE + slot as usize * SLOT_SIZE;
    let off = codec::get_u16(buf, so);
    if off == DEAD_SLOT {
        return Err(StorageError::InvalidRecordId {
            page: rid.page as u64,
            slot,
        });
    }
    let old_len = codec::get_u16(buf, so + 2) as usize;
    if bytes.len() <= old_len {
        buf[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        codec::put_u16(buf, so + 2, bytes.len() as u16);
        let dead = codec::get_u16(buf, HDR_DEAD);
        codec::put_u16(buf, HDR_DEAD, dead + (old_len - bytes.len()) as u16);
        return Ok(true);
    }
    let dead = codec::get_u16(buf, HDR_DEAD);
    codec::put_u16(buf, HDR_DEAD, dead + old_len as u16);
    codec::put_u16(buf, so, DEAD_SLOT);
    if page_free(buf) >= bytes.len() {
        let cell_start = codec::get_u16(buf, HDR_CELL_START) as usize;
        let slot_area_end = HDR_SIZE + n as usize * SLOT_SIZE;
        if cell_start.saturating_sub(slot_area_end) < bytes.len() {
            compact(buf);
        }
        let cell_start = codec::get_u16(buf, HDR_CELL_START) as usize - bytes.len();
        buf[cell_start..cell_start + bytes.len()].copy_from_slice(bytes);
        codec::put_u16(buf, HDR_CELL_START, cell_start as u16);
        codec::put_u16(buf, so, cell_start as u16);
        codec::put_u16(buf, so + 2, bytes.len() as u16);
        return Ok(true);
    }
    Ok(false)
}

/// Where the live cells among `slots` of a page (which must not run past
/// its slot count) lie, with their slot numbers, in slot order.
#[inline]
fn live_spans(
    buf: &[u8; PAGE_SIZE],
    slots: Range<u16>,
) -> impl Iterator<Item = (u16, Range<usize>)> + '_ {
    let dir = &buf[HDR_SIZE + usize::from(slots.start) * SLOT_SIZE..][..slots.len() * SLOT_SIZE];
    let dir = dir.as_chunks::<SLOT_SIZE>().0;
    dir.iter()
        .enumerate()
        .filter_map(move |(i, &[o0, o1, l0, l1])| {
            let off = u16::from_le_bytes([o0, o1]);
            let len = usize::from(u16::from_le_bytes([l0, l1]));
            let slot = slots.start + i as u16;
            (off != DEAD_SLOT).then(|| (slot, usize::from(off)..usize::from(off) + len))
        })
}

/// Where the live cell `rid` addresses lies within its page.
fn live_cell(buf: &[u8; PAGE_SIZE], rid: RecordId) -> Result<Range<usize>> {
    let in_page = rid.slot < codec::get_u16(buf, HDR_NUM_SLOTS);
    in_page
        .then(|| live_spans(buf, rid.slot..rid.slot + 1).next())
        .flatten()
        .map(|(_, span)| span)
        .ok_or(StorageError::InvalidRecordId {
            page: rid.page as u64,
            slot: rid.slot,
        })
}

/// A record that outgrew its page during [`HeapFile::update_cells`]:
/// which input item it was, where it lives now, and its new content.
pub struct MovedRecord {
    pub item: usize,
    pub rid: RecordId,
    pub row: Vec<Value>,
}

/// Resumable batched scan position over a [`HeapFile`]
/// (see [`HeapFile::batch_cursor`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapScanCursor {
    page_idx: usize,
    slot: u16,
}

impl HeapScanCursor {
    /// Decodes the `cols` columns of up to `max` further records into
    /// `chunk` (appending), also recording their ids into `rids` when
    /// given. Returns `false` once the file is exhausted. The underlying
    /// file must not be mutated between calls.
    pub fn next_batch(
        &mut self,
        heap: &HeapFile,
        pool: &mut BufferPool,
        chunk: &mut crate::chunk::Chunk,
        cols: &crate::row::ColSet,
        mut rids: Option<&mut Vec<RecordId>>,
        max: usize,
    ) -> Result<bool> {
        let mut added = 0usize;
        while self.page_idx < heap.pages.len() {
            if added >= max {
                return Ok(true);
            }
            let pid = heap.pages[self.page_idx];
            let page = self.page_idx as u32;
            let start = self.slot;
            let want = max - added;
            let rids_ref = &mut rids;
            let (next_slot, page_done) = pool.read_page(pid, |buf| {
                let n = codec::get_u16(buf, HDR_NUM_SLOTS);
                // The slots this call takes: the rest of the page, or up
                // to its `want`-th live record.
                let end = if usize::from(n.saturating_sub(start)) > want {
                    live_spans(buf, start..n)
                        .nth(want - 1)
                        .map_or(n, |(slot, _)| slot + 1)
                } else {
                    n
                };
                let before = chunk.len();
                crate::row::decode_rows_into_chunk(
                    live_spans(buf, start..end).map(|(_, span)| &buf[span]),
                    chunk,
                    cols,
                )?;
                if let Some(rids) = rids_ref.as_deref_mut() {
                    let taken = live_spans(buf, start..end);
                    rids.extend(taken.map(|(slot, _)| RecordId { page, slot }));
                }
                added += chunk.len() - before;
                Ok::<_, StorageError>((end, end >= n))
            })??;
            self.slot = next_slot;
            if page_done {
                self.page_idx += 1;
                self.slot = 0;
            }
        }
        Ok(false)
    }
}

impl HeapFile {
    /// Creates an empty heap file (no pages yet).
    pub fn create() -> Self {
        HeapFile {
            pages: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages owned by the file.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// A resumable batched-scan cursor positioned at the start of the file.
    pub fn batch_cursor(&self) -> HeapScanCursor {
        HeapScanCursor::default()
    }

    fn pid_of(&self, rid: RecordId) -> Result<PageId> {
        self.pages
            .get(rid.page as usize)
            .copied()
            .ok_or(StorageError::InvalidRecordId {
                page: rid.page as u64,
                slot: rid.slot,
            })
    }

    /// Reads the record at `rid`.
    pub fn get(&self, pool: &mut BufferPool, rid: RecordId) -> Result<Vec<u8>> {
        let pid = self.pid_of(rid)?;
        pool.read_page(pid, |buf| Ok(buf[live_cell(buf, rid)?].to_vec()))?
    }

    /// Decodes the `cols` columns of the records at `rids` into `chunk`,
    /// appending one row per id in the order given, with one buffer-pool
    /// read per run of ids on the same page — ids collected by a scan
    /// arrive page-ordered, so this costs one read per touched page.
    pub fn fetch_into_chunk(
        &self,
        pool: &mut BufferPool,
        rids: &[RecordId],
        chunk: &mut crate::chunk::Chunk,
        cols: &crate::row::ColSet,
    ) -> Result<()> {
        let mut i = 0usize;
        while i < rids.len() {
            let page = rids[i].page;
            let end = rids[i..]
                .iter()
                .position(|r| r.page != page)
                .map_or(rids.len(), |p| i + p);
            let pid = self.pid_of(rids[i])?;
            pool.read_page(pid, |buf| {
                let mut bad = Ok(());
                let cells = rids[i..end]
                    .iter()
                    .map_while(|&rid| match live_cell(buf, rid) {
                        Ok(span) => Some(&buf[span]),
                        Err(e) => {
                            bad = Err(e);
                            None
                        }
                    });
                crate::row::decode_rows_into_chunk(cells, chunk, cols)?;
                bad
            })??;
            i = end;
        }
        Ok(())
    }

    /// The page the next record of `len` bytes goes to — the one
    /// page-choice rule: the last page if its free space fits the record,
    /// else the first page whose free space does. `None`: no page fits and
    /// the file must grow.
    fn pick_page(free: &[u16], len: usize) -> Option<usize> {
        let fits = |f: u16| usize::from(f) >= len + SLOT_SIZE;
        match free.last() {
            Some(&f) if fits(f) => Some(free.len() - 1),
            _ => free.iter().position(|&f| fits(f)),
        }
    }

    /// Inserts `rows` in order, returning their ids. Each record goes
    /// where the one page-choice rule puts it — the last page if it fits,
    /// else the first page it fits, else a new page — so any split of the
    /// rows into calls yields the same ids. Each buffer-pool write call
    /// packs the consecutive rows the rule sends to one page, instead of
    /// one pin/unpin round trip per record.
    pub fn insert_batch<R: AsRef<[u8]>>(
        &mut self,
        pool: &mut BufferPool,
        rows: &[R],
    ) -> Result<Vec<RecordId>> {
        let mut out = Vec::with_capacity(rows.len());
        self.insert_rows(pool, rows.len(), |i| rows[i].as_ref(), &mut out)?;
        Ok(out)
    }

    /// [`HeapFile::insert_batch`] over `n` rows read by position,
    /// appending their record ids to `out` — a caller that keeps its row
    /// and id buffers across batches allocates nothing here.
    pub fn insert_rows<'r>(
        &mut self,
        pool: &mut BufferPool,
        n: usize,
        row: impl Fn(usize) -> &'r [u8],
        out: &mut Vec<RecordId>,
    ) -> Result<()> {
        if let Some(r) = (0..n).map(&row).find(|r| r.len() > MAX_RECORD) {
            return Err(StorageError::RecordTooLarge {
                size: r.len(),
                max: MAX_RECORD,
            });
        }
        let start = out.len();
        while out.len() - start < n {
            let first = row(out.len() - start);
            let page_idx = match Self::pick_page(&self.free, first.len()) {
                Some(p) => p,
                None => {
                    let pid = pool.allocate_page()?;
                    pool.write_page(pid, init_page)?;
                    self.pages.push(pid);
                    self.free.push((PAGE_SIZE - HDR_SIZE) as u16);
                    self.pages.len() - 1
                }
            };
            let before = out.len();
            let free = &mut self.free;
            pool.write_page(self.pages[page_idx], |buf| {
                // The free-space hints are exact, so a row the rule sends
                // here always fits.
                while out.len() - start < n {
                    let row = row(out.len() - start);
                    if Self::pick_page(free, row.len()) != Some(page_idx) {
                        break;
                    }
                    let slot = page_insert(buf, row).ok_or_else(|| {
                        StorageError::Corrupt(format!("heap page {page_idx} free-space hint"))
                    })?;
                    free[page_idx] = page_free(buf) as u16;
                    out.push(RecordId {
                        page: page_idx as u32,
                        slot,
                    });
                }
                Ok::<_, StorageError>(())
            })??;
            self.len += (out.len() - before) as u64;
        }
        Ok(())
    }

    /// Deletes many records with one buffer-pool write per touched page.
    pub fn delete_batch(&mut self, pool: &mut BufferPool, rids: &[RecordId]) -> Result<()> {
        let mut sorted: Vec<RecordId> = rids.to_vec();
        sorted.sort_unstable();
        let mut i = 0usize;
        while i < sorted.len() {
            let page = sorted[i].page;
            let end = sorted[i..]
                .iter()
                .position(|r| r.page != page)
                .map(|p| i + p)
                .unwrap_or(sorted.len());
            let pid = self.pid_of(sorted[i])?;
            let removed = pool.write_page(pid, |buf| {
                let n = codec::get_u16(buf, HDR_NUM_SLOTS);
                // Validate the whole page group — including duplicates,
                // which sorting made adjacent — before tombstoning
                // anything, so an error leaves this page untouched (the
                // single-record delete() mutates nothing on error too).
                let mut prev: Option<u16> = None;
                for rid in &sorted[i..end] {
                    let dup = prev == Some(rid.slot);
                    prev = Some(rid.slot);
                    let so = HDR_SIZE + rid.slot as usize * SLOT_SIZE;
                    if rid.slot >= n || dup || codec::get_u16(buf, so) == DEAD_SLOT {
                        return Err(StorageError::InvalidRecordId {
                            page: rid.page as u64,
                            slot: rid.slot,
                        });
                    }
                }
                let mut removed = 0u64;
                for rid in &sorted[i..end] {
                    let so = HDR_SIZE + rid.slot as usize * SLOT_SIZE;
                    let len = codec::get_u16(buf, so + 2);
                    codec::put_u16(buf, so, DEAD_SLOT);
                    let dead = codec::get_u16(buf, HDR_DEAD);
                    codec::put_u16(buf, HDR_DEAD, dead + len);
                    removed += 1;
                }
                Ok(removed)
            })??;
            self.free[page as usize] = pool.read_page(pid, page_free)? as u16;
            self.len -= removed;
            i = end;
        }
        Ok(())
    }

    /// Assigns, for every `k` in `order`, row `k` of each `vals[j]` to
    /// column `cols[j]` of the record at `rids[k]` — one buffer-pool write
    /// per run of `order` on the same page. A record made only of
    /// fixed-width cells that receives fixed-width values (every FEM row)
    /// has its cells overwritten where they lie. From the first record of
    /// any other shape on, records are decoded, changed and re-encoded,
    /// and move to another page when they no longer fit their own; every
    /// new size is checked before the first of them is written, so a
    /// record that would be too large fails the call with no cell freed
    /// and nothing moved (the patched records before it stay patched).
    /// Moved records are returned so the caller can re-point secondary
    /// indexes at them.
    pub fn update_cells(
        &mut self,
        pool: &mut BufferPool,
        rids: &[RecordId],
        order: &[u32],
        cols: &[usize],
        vals: &[crate::chunk::Column],
    ) -> Result<Vec<MovedRecord>> {
        // End of the run of `order[i..]` on the page of `order[i]`.
        let page_run = |order: &[u32], i: usize| {
            let page = rids[order[i] as usize].page;
            order[i..]
                .iter()
                .position(|&k| rids[k as usize].page != page)
                .map_or(order.len(), |p| i + p)
        };
        let mut i = 0usize;
        while i < order.len() {
            let end = page_run(order, i);
            let pid = self.pid_of(rids[order[i] as usize])?;
            let patched = pool.write_page(pid, |buf| {
                for (n, &k) in order[i..end].iter().enumerate() {
                    let span = live_cell(buf, rids[k as usize])?;
                    let cell = &mut buf[span];
                    if !crate::row::patch_fixed_cells(cell, cols, vals, k as usize) {
                        return Ok(n);
                    }
                }
                Ok::<_, StorageError>(end - i)
            })??;
            i += patched;
            if i < end {
                break;
            }
        }
        let rest = &order[i..];

        // Read pass: the new content of every remaining record.
        let mut recoded: Vec<(Vec<Value>, Vec<u8>)> = Vec::with_capacity(rest.len());
        let mut i = 0usize;
        while i < rest.len() {
            let end = page_run(rest, i);
            let pid = self.pid_of(rids[rest[i] as usize])?;
            pool.read_page(pid, |buf| {
                for &k in &rest[i..end] {
                    let mut row = crate::row::decode_row(&buf[live_cell(buf, rids[k as usize])?])?;
                    for (&c, col) in cols.iter().zip(vals) {
                        *row.get_mut(c).ok_or_else(|| {
                            StorageError::Corrupt(format!("row has no column {c} to assign"))
                        })? = col.get(k as usize);
                    }
                    let bytes = crate::row::encode_row(&row);
                    if bytes.len() > MAX_RECORD {
                        return Err(StorageError::RecordTooLarge {
                            size: bytes.len(),
                            max: MAX_RECORD,
                        });
                    }
                    recoded.push((row, bytes));
                }
                Ok(())
            })??;
            i = end;
        }

        // Write pass.
        let mut moved: Vec<MovedRecord> = Vec::new();
        let mut recoded = recoded.into_iter();
        let mut i = 0usize;
        while i < rest.len() {
            let end = page_run(rest, i);
            let first = rids[rest[i] as usize];
            let pid = self.pid_of(first)?;
            // Records that no longer fit this page: (item, row, bytes).
            let mut leftovers: Vec<(usize, Vec<Value>, Vec<u8>)> = Vec::new();
            pool.write_page(pid, |buf| {
                for (&k, (row, bytes)) in rest[i..end].iter().zip(recoded.by_ref()) {
                    if !page_update_in_place(buf, rids[k as usize], &bytes)? {
                        leftovers.push((k as usize, row, bytes));
                    }
                }
                Ok::<_, StorageError>(())
            })??;
            self.free[first.page as usize] = pool.read_page(pid, page_free)? as u16;
            // The old cells of the leftovers are already dead
            // (page_update_in_place freed them), so re-insert elsewhere.
            let bytes: Vec<&[u8]> = leftovers.iter().map(|(_, _, b)| b.as_slice()).collect();
            self.len -= bytes.len() as u64; // insert_batch() re-counts them
            let rids = self.insert_batch(pool, &bytes)?;
            for ((item, row, _), rid) in leftovers.into_iter().zip(rids) {
                moved.push(MovedRecord { item, rid, row });
            }
            i = end;
        }
        Ok(moved)
    }

    /// Iterates live records in file order; `f` returns `false` to stop.
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(RecordId, &[u8]) -> bool,
    ) -> Result<()> {
        for (page_idx, &pid) in self.pages.iter().enumerate() {
            let keep_going = pool.read_page(pid, |buf| {
                let n = codec::get_u16(buf, HDR_NUM_SLOTS);
                live_spans(buf, 0..n).all(|(slot, span)| {
                    let page = page_idx as u32;
                    f(RecordId { page, slot }, &buf[span])
                })
            })?;
            if !keep_going {
                break;
            }
        }
        Ok(())
    }

    /// Removes every record (pages are kept and reused).
    pub fn truncate(&mut self, pool: &mut BufferPool) -> Result<()> {
        for &pid in &self.pages {
            pool.write_page(pid, init_page)?;
        }
        for f in &mut self.free {
            *f = (PAGE_SIZE - HDR_SIZE) as u16;
        }
        self.len = 0;
        Ok(())
    }

    /// Destroys the heap, returning every page to the pool's allocator.
    pub fn destroy(self, pool: &mut BufferPool) {
        for pid in self.pages {
            pool.free_page(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufferPool {
        BufferPool::in_memory(16)
    }

    /// One record through the batch entry.
    fn insert(h: &mut HeapFile, p: &mut BufferPool, bytes: &[u8]) -> Result<RecordId> {
        Ok(h.insert_batch(p, &[bytes])?[0])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let rid = insert(&mut h, &mut p, b"hello").unwrap();
        assert_eq!(h.get(&mut p, rid).unwrap(), b"hello");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn many_records_span_pages() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let payload = vec![7u8; 500];
        let rids: Vec<_> = (0..100)
            .map(|i| {
                let mut rec = payload.clone();
                rec[0] = i as u8;
                insert(&mut h, &mut p, &rec).unwrap()
            })
            .collect();
        assert!(h.num_pages() > 1, "500B x100 must not fit one page");
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(&mut p, *rid).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn delete_then_get_fails_and_slot_reused() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let a = insert(&mut h, &mut p, b"aaa").unwrap();
        let _b = insert(&mut h, &mut p, b"bbb").unwrap();
        h.delete_batch(&mut p, &[a]).unwrap();
        assert!(h.get(&mut p, a).is_err());
        assert_eq!(h.len(), 1);
        let c = insert(&mut h, &mut p, b"ccc").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(h.get(&mut p, c).unwrap(), b"ccc");
    }

    #[test]
    fn update_in_place_shrink_and_grow() {
        use crate::chunk::Column;
        use crate::row::{decode_row, encode_row};
        let mut p = pool();
        let mut h = HeapFile::create();
        let text = |s: &str| vec![Value::Text(s.into())];
        let rid = insert(&mut h, &mut p, &encode_row(&text("0123456789"))).unwrap();
        for s in ["abc", "abcdefghijklmnop"] {
            let vals = [Column::Generic(vec![Value::Text(s.into())])];
            let moved = h.update_cells(&mut p, &[rid], &[0], &[0], &vals).unwrap();
            assert!(moved.is_empty(), "shrink or grow within page keeps rid");
            assert_eq!(decode_row(&h.get(&mut p, rid).unwrap()).unwrap(), text(s));
        }
    }

    #[test]
    fn update_that_overflows_page_moves_record() {
        use crate::chunk::Column;
        use crate::row::{decode_row, encode_row};
        let mut p = pool();
        let mut h = HeapFile::create();
        // Fill a page almost completely.
        let wide = |b: u8, n: usize| Value::Text(String::from(b as char).repeat(n));
        let rid = insert(&mut h, &mut p, &encode_row(&[wide(b'1', 4000)])).unwrap();
        let fill = insert(&mut h, &mut p, &encode_row(&[wide(b'2', 4000)])).unwrap();
        assert_eq!(rid.page, fill.page);
        let big = vec![wide(b'3', 5000)];
        let vals = [Column::Generic(big.clone())];
        let moved = h.update_cells(&mut p, &[rid], &[0], &[0], &vals).unwrap();
        let new_rid = moved[0].rid;
        assert_ne!(new_rid, rid);
        assert_eq!(decode_row(&h.get(&mut p, new_rid).unwrap()).unwrap(), big);
        assert!(h.get(&mut p, rid).is_err());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn scan_sees_live_records_only() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let rids: Vec<_> = (0u8..10)
            .map(|i| insert(&mut h, &mut p, &[i]).unwrap())
            .collect();
        h.delete_batch(&mut p, &[rids[3]]).unwrap();
        h.delete_batch(&mut p, &[rids[7]]).unwrap();
        let mut seen = Vec::new();
        h.scan(&mut p, |_, bytes| {
            seen.push(bytes[0]);
            true
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn scan_early_stop() {
        let mut p = pool();
        let mut h = HeapFile::create();
        for i in 0u8..10 {
            insert(&mut h, &mut p, &[i]).unwrap();
        }
        let mut count = 0;
        h.scan(&mut p, |_, _| {
            count += 1;
            count < 4
        })
        .unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    fn truncate_clears_everything() {
        let mut p = pool();
        let mut h = HeapFile::create();
        for i in 0u8..50 {
            insert(&mut h, &mut p, &vec![i; 300]).unwrap();
        }
        let pages_before = h.num_pages();
        h.truncate(&mut p).unwrap();
        assert_eq!(h.len(), 0);
        assert_eq!(h.num_pages(), pages_before, "pages are retained");
        let mut any = false;
        h.scan(&mut p, |_, _| {
            any = true;
            true
        })
        .unwrap();
        assert!(!any);
        // Reusable after truncate.
        let rid = insert(&mut h, &mut p, b"fresh").unwrap();
        assert_eq!(h.get(&mut p, rid).unwrap(), b"fresh");
    }

    #[test]
    fn record_too_large_rejected() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let err = insert(&mut h, &mut p, &vec![0u8; PAGE_SIZE]);
        assert!(matches!(err, Err(StorageError::RecordTooLarge { .. })));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = pool();
        let mut h = HeapFile::create();
        // Alternate insert/delete to fragment the first page, then insert a
        // record that only fits after compaction.
        let mut rids = Vec::new();
        for i in 0..16 {
            rids.push(insert(&mut h, &mut p, &vec![i as u8; 400]).unwrap());
        }
        let first_page_rids: Vec<_> = rids.iter().filter(|r| r.page == 0).copied().collect();
        for r in first_page_rids.iter().skip(1) {
            h.delete_batch(&mut p, &[*r]).unwrap();
        }
        // A 3000-byte record now fits in page 0 only via compaction.
        let rid = insert(&mut h, &mut p, &vec![9u8; 3000]).unwrap();
        assert_eq!(h.get(&mut p, rid).unwrap(), vec![9u8; 3000]);
    }

    #[test]
    fn insert_batch_matches_scan_and_spans_pages() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let rows: Vec<Vec<u8>> = (0..200u32)
            .map(|i| crate::row::encode_row(&[crate::value::Value::Int(i as i64)]))
            .collect();
        let rids = h.insert_batch(&mut p, &rows).unwrap();
        assert_eq!(rids.len(), 200);
        assert_eq!(h.len(), 200);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(&mut p, *rid).unwrap(), rows[i]);
        }
        // Batch + single-record inserts interleave correctly.
        let solo = insert(&mut h, &mut p, &rows[0]).unwrap();
        assert_eq!(h.get(&mut p, solo).unwrap(), rows[0]);
        assert_eq!(h.len(), 201);
    }

    #[test]
    fn insert_batch_large_records_allocate_pages() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let rows: Vec<Vec<u8>> = (0..30).map(|i| vec![i as u8; 1500]).collect();
        let rids = h.insert_batch(&mut p, &rows).unwrap();
        assert!(h.num_pages() > 1);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(&mut p, *rid).unwrap()[0], i as u8);
        }
        let err = h.insert_batch(&mut p, &[vec![0u8; PAGE_SIZE]]);
        assert!(matches!(err, Err(StorageError::RecordTooLarge { .. })));
    }

    #[test]
    fn delete_batch_page_grouped() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let rows: Vec<Vec<u8>> = (0..100u32).map(|i| vec![i as u8; 200]).collect();
        let rids = h.insert_batch(&mut p, &rows).unwrap();
        let victims: Vec<RecordId> = rids.iter().step_by(2).copied().collect();
        h.delete_batch(&mut p, &victims).unwrap();
        assert_eq!(h.len(), 50);
        let mut seen = Vec::new();
        h.scan(&mut p, |_, b| {
            seen.push(b[0]);
            true
        })
        .unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).filter(|i| i % 2 == 1).collect::<Vec<u8>>());
        // Deleting an already-dead record is an error.
        assert!(h.delete_batch(&mut p, &[victims[0]]).is_err());
        // A bad batch leaves the page group untouched: duplicate rids in
        // one batch error without tombstoning either occurrence.
        let live = rids[1];
        let len_before = h.len();
        assert!(h.delete_batch(&mut p, &[live, live]).is_err());
        assert_eq!(h.len(), len_before, "failed batch must not change len");
        assert!(h.get(&mut p, live).is_ok(), "record must still be live");
    }

    #[test]
    fn update_cells_patches_in_place_and_moves_grown_rows() {
        use crate::chunk::Column;
        use crate::row::{decode_row, encode_row};
        let mut p = pool();
        let mut h = HeapFile::create();
        let rows: Vec<Vec<Value>> = (0..300i64)
            .map(|i| vec![Value::Int(i), Value::Int(0), Value::Float(0.5)])
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| encode_row(r)).collect();
        let rids = h.insert_batch(&mut p, &encoded).unwrap();
        // Fixed-width values into fixed-width rows: cells are overwritten
        // where they lie, one pool write per page, nothing moves.
        let order: Vec<u32> = (0..rids.len() as u32).step_by(3).collect();
        let mut new_b = Column::new_int();
        let mut new_c = Column::new_int();
        for i in 0..rids.len() as i64 {
            new_b.push_int(-i);
            new_c.push(Value::Float(i as f64));
        }
        let accesses = |p: &BufferPool| p.stats().buffer_hits + p.stats().buffer_misses;
        let before = accesses(&p);
        let moved = h
            .update_cells(&mut p, &rids, &order, &[1, 2], &[new_b, new_c])
            .unwrap();
        assert!(moved.is_empty());
        let pages: std::collections::HashSet<u32> =
            order.iter().map(|&k| rids[k as usize].page).collect();
        assert_eq!(accesses(&p) - before, pages.len() as u64);
        for (k, rid) in rids.iter().enumerate() {
            let want = if k % 3 == 0 {
                vec![
                    Value::Int(k as i64),
                    Value::Int(-(k as i64)),
                    Value::Float(k as f64),
                ]
            } else {
                rows[k].clone()
            };
            assert_eq!(decode_row(&h.get(&mut p, *rid).unwrap()).unwrap(), want);
        }
        // A NULL shrinks the row (re-encoded under the same id); a text
        // that outgrows the page moves the record.
        let mut big = HeapFile::create();
        let wide = |s: usize| encode_row(&[Value::Int(1), Value::Text("x".repeat(s))]);
        let r0 = insert(&mut big, &mut p, &wide(4000)).unwrap();
        let r1 = insert(&mut big, &mut p, &wide(4000)).unwrap();
        let vals = [Column::Generic(vec![
            Value::Text("y".repeat(5000)),
            Value::Null,
        ])];
        let moved = big
            .update_cells(&mut p, &[r0, r1], &[0], &[1], &vals)
            .unwrap();
        assert_eq!(moved.len(), 1);
        assert_eq!((moved[0].item, moved[0].row[0].clone()), (0, Value::Int(1)));
        assert_ne!(moved[0].rid, r0);
        assert_eq!(
            decode_row(&big.get(&mut p, moved[0].rid).unwrap()).unwrap(),
            moved[0].row
        );
        assert!(big.get(&mut p, r0).is_err());
        let moved = big
            .update_cells(&mut p, &[r0, r1], &[1], &[1], &vals)
            .unwrap();
        assert!(moved.is_empty());
        assert_eq!(
            decode_row(&big.get(&mut p, r1).unwrap()).unwrap(),
            vec![Value::Int(1), Value::Null]
        );
        assert_eq!(big.len(), 2);
        // A dead record is an error.
        big.delete_batch(&mut p, &[r1]).unwrap();
        assert!(big.update_cells(&mut p, &[r1], &[0], &[1], &vals).is_err());
    }

    #[test]
    fn update_cells_oversized_record_frees_and_moves_nothing() {
        use crate::chunk::Column;
        use crate::row::{decode_row, encode_row};
        let mut p = pool();
        let mut h = HeapFile::create();
        // Three records on one page; the new tag fits the first beside its
        // 3000-byte text only by moving it, and cannot fit the second at all.
        let rows = [
            vec![Value::Int(0), Value::Text("a".repeat(3000)), Value::Null],
            vec![Value::Int(1), Value::Text("b".repeat(3000)), Value::Null],
            vec![Value::Int(2), Value::Text("c".into()), Value::Null],
        ];
        let rids: Vec<RecordId> = rows
            .iter()
            .map(|r| insert(&mut h, &mut p, &encode_row(r)).unwrap())
            .collect();
        assert!(rids.iter().all(|r| r.page == rids[0].page));
        let tags = [Column::Generic(vec![
            Value::Text("t".repeat(4000)),
            Value::Text("t".repeat(6000)),
            Value::Text("t".repeat(4000)),
        ])];
        let err = h.update_cells(&mut p, &rids, &[0, 1, 2], &[2], &tags);
        assert!(matches!(err, Err(StorageError::RecordTooLarge { .. })));
        assert_eq!(h.len(), 3);
        for (rid, row) in rids.iter().zip(&rows) {
            assert_eq!(&decode_row(&h.get(&mut p, *rid).unwrap()).unwrap(), row);
        }
        // Patched records ahead of the offender stay patched.
        let mut fixed = HeapFile::create();
        let f0 = insert(
            &mut fixed,
            &mut p,
            &encode_row(&[Value::Int(0), Value::Int(0)]),
        )
        .unwrap();
        let f1 = insert(
            &mut fixed,
            &mut p,
            &encode_row(&[Value::Int(1), Value::Text("x".into())]),
        )
        .unwrap();
        let vals = [Column::Generic(vec![
            Value::Int(7),
            Value::Text("y".repeat(PAGE_SIZE)),
        ])];
        let err = fixed.update_cells(&mut p, &[f0, f1], &[0, 1], &[1], &vals);
        assert!(matches!(err, Err(StorageError::RecordTooLarge { .. })));
        assert_eq!(
            decode_row(&fixed.get(&mut p, f0).unwrap()).unwrap(),
            vec![Value::Int(0), Value::Int(7)]
        );
        assert_eq!(
            decode_row(&fixed.get(&mut p, f1).unwrap()).unwrap(),
            vec![Value::Int(1), Value::Text("x".into())]
        );
    }

    #[test]
    fn batch_cursor_matches_scan() {
        let mut p = pool();
        let mut h = HeapFile::create();
        let rows: Vec<Vec<u8>> = (0..700i64)
            .map(|i| crate::row::encode_row(&[Value::Int(i), Value::Int(i * 2)]))
            .collect();
        let rids = h.insert_batch(&mut p, &rows).unwrap();
        h.delete_batch(&mut p, &[rids[10]]).unwrap();
        h.delete_batch(&mut p, &[rids[500]]).unwrap();

        let mut cursor = h.batch_cursor();
        let mut chunk = crate::chunk::Chunk::new();
        let mut got_rids = Vec::new();
        let mut all: Vec<Vec<Value>> = Vec::new();
        loop {
            chunk.reset();
            let more = cursor
                .next_batch(
                    &h,
                    &mut p,
                    &mut chunk,
                    &crate::row::ColSet::all(),
                    Some(&mut got_rids),
                    256,
                )
                .unwrap();
            all.extend(chunk.to_rows());
            if !more {
                break;
            }
        }
        let mut expect = Vec::new();
        let mut expect_rids = Vec::new();
        h.scan(&mut p, |rid, b| {
            expect.push(crate::row::decode_row(b).unwrap());
            expect_rids.push(rid);
            true
        })
        .unwrap();
        assert_eq!(all, expect);
        assert_eq!(got_rids, expect_rids);
        assert!(matches!(chunk.col(0), crate::chunk::Column::Int { .. }));

        // A projected pass fills only the asked-for column, and the ids
        // it reported fetch back the full rows, page-grouped.
        let mut cursor = h.batch_cursor();
        let mut narrow = crate::chunk::Chunk::new();
        let only_second = crate::row::ColSet::of([1]);
        while cursor
            .next_batch(&h, &mut p, &mut narrow, &only_second, None, usize::MAX)
            .unwrap()
        {}
        assert_eq!(narrow.len(), expect.len());
        assert!(narrow.clone().into_columns()[0].is_empty());
        assert_eq!(narrow.get(1, 7), expect[7][1]);
        let picked: Vec<RecordId> = expect_rids.iter().copied().step_by(97).collect();
        let accesses = |p: &BufferPool| p.stats().buffer_hits + p.stats().buffer_misses;
        let before = accesses(&p);
        let mut fetched = crate::chunk::Chunk::new();
        let all = crate::row::ColSet::all();
        h.fetch_into_chunk(&mut p, &picked, &mut fetched, &all)
            .unwrap();
        let want: Vec<Vec<Value>> = expect.iter().step_by(97).cloned().collect();
        assert_eq!(fetched.to_rows(), want);
        let pages: std::collections::HashSet<u32> = picked.iter().map(|r| r.page).collect();
        assert_eq!(accesses(&p) - before, pages.len() as u64);
        assert!(h
            .fetch_into_chunk(&mut p, &[rids[10]], &mut fetched, &all)
            .is_err());
    }

    #[test]
    fn rid_u64_roundtrip() {
        let rid = RecordId {
            page: 123456,
            slot: 789,
        };
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }
}
