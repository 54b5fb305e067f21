//! Compressed adjacency segments: delta-encoded, varint-packed edge runs.
//!
//! A *segment* packs a run of table rows into a compact byte blob that
//! lives as a single B+tree value. A segmented table has one of two
//! layouts, fixed by its schema's width: three INT columns `(fid, tid,
//! cost)` (an edge table, `TEdges`) or four `(fid, tid, pid, cost)` (a
//! SegTable, `TOutSegs`). Rows are encoded as zigzag varints:
//!
//! ```text
//! [count:   varint]                    rows in the segment
//! [dir_len: varint]                    bytes of the directory below
//! per directory entry (delta-coded against the entry before it; the
//! first against fid 0, offset 0):
//!   [dfid:  zigzag varint]   fid  - prev_fid   (rises after the first)
//!   [doff:  varint]          off  - prev_off   (≥ 1; `off` counts from
//!                                               the first row's first byte)
//! per row, up to the blob's end:
//!   [dfid:  zigzag varint]   fid  - prev_fid   (prev_fid starts at 0)
//!   [dtid:  zigzag varint]   tid  - prev_tid   (prev_tid resets to 0
//!                                               whenever fid changes)
//!   [dpid:  zigzag varint]   pid  - fid        (4-column layout only)
//!   [cost:  zigzag varint]   absolute cost (small weights ⇒ 1 byte)
//! ```
//!
//! The *directory* lets a probe start near its fid instead of at the
//! segment's first row. For each stride mark — row [`DIR_STRIDE`],
//! `2·DIR_STRIDE`, … — it names the first row at or after the mark that
//! begins a fid, by that fid and the row's byte offset (a mark whose fid
//! runs to the segment's end, or on to a row an earlier mark names, adds
//! no entry). Such a row's tid delta starts from 0, so a cursor resumes
//! there knowing only the entry ([`SegmentCursor::seek`]) and steps over
//! fewer than `DIR_STRIDE` rows before the fid it seeks. A segment
//! shorter than one stride has an empty directory (`dir_len` 0). An entry
//! is about 2 bytes, so the directory adds about 0.13 bytes a row
//! (DESIGN.md §14). A cursor reads rows up to the blob's end; the decodes
//! of a whole segment step past the directory and check that they read
//! `count` rows.
//!
//! Rows come in non-decreasing `fid` order. An edge table's rows are
//! sorted by `(fid, tid, cost)`; a SegTable keeps the order its rows are
//! written in within a fid (the zigzag `dtid` takes a falling tid). Because
//! adjacency lists cluster consecutive node ids, the common edge costs 3
//! bytes instead of the 29 bytes of a tagged row, and a SegTable row with
//! its predecessor near its source about 5 — and decoding appends straight
//! into a columnar [`Chunk`], so FEM expansion joins never materialize
//! per-row `Vec<Value>`s (DESIGN.md §14).
//!
//! Segments are sized to fit a B+tree leaf cell: at most [`SEG_MAX_EDGES`]
//! rows and [`SEG_MAX_BYTES`] encoded bytes, whichever is hit first.

use crate::chunk::Chunk;
use crate::error::{Result, StorageError};

/// Maximum rows per segment. Kept below a chunk's capacity so one decoded
/// segment always fits in the current batch.
pub const SEG_MAX_EDGES: usize = 256;

/// Maximum encoded bytes per segment, directory included. Leaves
/// headroom under the B+tree's `MAX_CELL_PAYLOAD` (2036 bytes) for the
/// segment's key.
pub const SEG_MAX_BYTES: usize = 1400;

/// Rows between a segment's directory marks: a seek steps over fewer
/// than this many rows before its fid. Chosen against the space it costs
/// (DESIGN.md §14).
pub const DIR_STRIDE: usize = 16;

/// One segment row, the table's columns in schema order: `[fid, tid,
/// cost, 0]` in the 3-column layout, `[fid, tid, pid, cost]` in the
/// 4-column one.
pub type SegRow = [i64; 4];

/// Checks that `width` names a segment layout: 3 or 4 columns.
fn check_segment_width(width: usize) -> Result<()> {
    if width == 3 || width == 4 {
        Ok(())
    } else {
        Err(StorageError::Corrupt(format!(
            "segments hold 3 or 4 columns, not {width}"
        )))
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    // Most varints here are one byte: small deltas and costs.
    if let Some(&b) = buf.get(*pos).filter(|&&b| b < 0x80) {
        *pos += 1;
        return Ok(u64::from(b));
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| StorageError::Corrupt("truncated segment varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StorageError::Corrupt("segment varint overflow".into()));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Calls `f` on each varint of `row`, delta-coded against the `(fid,
/// tid)` of the row before it in its segment (`(0, 0)` for the first).
#[inline]
fn row_varints(prev: (i64, i64), row: &SegRow, width: usize, mut f: impl FnMut(u64)) {
    let (prev_fid, prev_tid) = prev;
    let base_tid = if row[0] != prev_fid { 0 } else { prev_tid };
    f(zigzag(row[0].wrapping_sub(prev_fid)));
    f(zigzag(row[1].wrapping_sub(base_tid)));
    if width == 4 {
        f(zigzag(row[2].wrapping_sub(row[0])));
    }
    f(zigzag(row[width - 1]));
}

/// Exact encoded size of one row given the `(fid, tid)` of the row
/// preceding it in the segment.
#[inline]
fn row_encoded_len(prev: (i64, i64), row: &SegRow, width: usize) -> usize {
    let mut n = 0;
    row_varints(prev, row, width, |v| n += varint_len(v));
    n
}

/// One directory entry: the fid a row begins and the row's byte offset
/// from the segment's first row.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    fid: i64,
    off: usize,
}

impl DirEntry {
    /// Calls `f` on each varint of the entry, delta-coded against `prev`,
    /// the entry before it (the default one for the first).
    #[inline]
    fn varints(&self, prev: &DirEntry, mut f: impl FnMut(u64)) {
        f(zigzag(self.fid.wrapping_sub(prev.fid)));
        f((self.off - prev.off) as u64);
    }

    fn encoded_len(&self, prev: &DirEntry) -> usize {
        let mut n = 0;
        self.varints(prev, |v| n += varint_len(v));
        n
    }
}

/// A segment's directory as its rows are laid out one by one: the last
/// entry, the row it names, and the bytes of all the entries.
#[derive(Debug, Clone, Copy, Default)]
struct DirBuilder {
    last: DirEntry,
    last_row: usize,
    bytes: usize,
}

impl DirBuilder {
    /// The entry row `row` adds — its fid `fid`, the fid of the row
    /// before it `prev_fid`, `off` bytes into the rows — if it is the
    /// first row at or after a stride mark no entry names yet to begin a
    /// fid.
    #[inline]
    fn entry_for(&self, row: usize, fid: i64, prev_fid: i64, off: usize) -> Option<DirEntry> {
        let mark = (self.last_row / DIR_STRIDE + 1) * DIR_STRIDE;
        (row >= mark && fid != prev_fid).then_some(DirEntry { fid, off })
    }

    fn add(&mut self, row: usize, entry: DirEntry) {
        self.bytes += entry.encoded_len(&self.last);
        self.last = entry;
        self.last_row = row;
    }

    /// Bytes of the header before the rows: the row count, the
    /// directory's length and the directory.
    fn header_len(&self, rows: usize) -> usize {
        varint_len(rows as u64) + varint_len(self.bytes as u64) + self.bytes
    }
}

/// Encodes `rows` of a `width`-column layout into one segment blob, in
/// the order given, with its directory.
pub fn encode_segment(rows: &[SegRow], width: usize) -> Vec<u8> {
    debug_assert!(rows.len() <= SEG_MAX_EDGES);
    let mut body = Vec::with_capacity(rows.len() * (width + 1));
    let mut dir = DirBuilder::default();
    let mut entries = Vec::with_capacity(rows.len() / DIR_STRIDE);
    let mut prev = (0, 0);
    for (i, row) in rows.iter().enumerate() {
        if let Some(entry) = dir.entry_for(i, row[0], prev.0, body.len()) {
            dir.add(i, entry);
            entries.push(entry);
        }
        row_varints(prev, row, width, |v| put_varint(&mut body, v));
        prev = (row[0], row[1]);
    }
    let mut out = Vec::with_capacity(dir.header_len(rows.len()) + body.len());
    put_varint(&mut out, rows.len() as u64);
    put_varint(&mut out, dir.bytes as u64);
    let mut last = DirEntry::default();
    for entry in entries {
        entry.varints(&last, |v| put_varint(&mut out, v));
        last = entry;
    }
    out.extend_from_slice(&body);
    out
}

/// Encodes a run of `(fid, tid, cost)` edges into one segment blob. The
/// input need not be sorted — the encoder sorts a copy by `(fid, tid,
/// cost)`; duplicates are preserved (multiset semantics).
///
/// Panics in debug builds if the run exceeds [`SEG_MAX_EDGES`]; use
/// [`SegmentWriter`] to split an arbitrary stream into valid segments.
pub fn encode_edge_segment(edges: &[(i64, i64, i64)]) -> Vec<u8> {
    let mut rows: Vec<SegRow> = edges.iter().map(|&(f, t, c)| [f, t, c, 0]).collect();
    rows.sort_unstable();
    encode_segment(&rows, 3)
}

/// Number of rows in an encoded segment without decoding the payload.
pub fn segment_edge_count(blob: &[u8]) -> Result<usize> {
    let mut pos = 0usize;
    Ok(get_varint(blob, &mut pos)? as usize)
}

/// A decode of one segment that goes only as far as its caller asks: the
/// rows come one at a time, in order, so a probe can stop once they pass
/// the fid it wants and resume (on the same blob) for a later fid.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentCursor {
    pos: usize,
    width: usize,
    prev_fid: i64,
    prev_tid: i64,
    /// Rows in the segment, as its header says.
    rows: usize,
    /// Where the directory starts; the rows start where it ends.
    dir: usize,
    body: usize,
}

impl SegmentCursor {
    /// A cursor before the first row of `blob`, a segment of the
    /// `width`-column layout.
    pub fn new(blob: &[u8], width: usize) -> Result<SegmentCursor> {
        check_segment_width(width)?;
        let mut pos = 0usize;
        let rows = get_varint(blob, &mut pos)? as usize;
        let dir_len = get_varint(blob, &mut pos)?;
        let body = usize::try_from(dir_len)
            .ok()
            .and_then(|n| pos.checked_add(n))
            .filter(|&body| body <= blob.len())
            .ok_or_else(|| StorageError::Corrupt("segment directory past the blob".into()))?;
        Ok(SegmentCursor {
            pos: body,
            width,
            prev_fid: 0,
            prev_tid: 0,
            rows,
            dir: pos,
            body,
        })
    }

    /// The next row of `blob` (the blob the cursor was made on), or
    /// `None` at the blob's end.
    #[inline]
    pub fn next_row(&mut self, blob: &[u8]) -> Result<Option<SegRow>> {
        self.next_row_if(blob, |_| true)
    }

    /// The next row of `blob` if its fid is `fid`; else `None`, and the
    /// cursor stays before the row, so a later fid resumes there.
    #[inline]
    pub fn next_row_of(&mut self, blob: &[u8], fid: i64) -> Result<Option<SegRow>> {
        self.next_row_if(blob, |next| next == fid)
    }

    #[inline]
    fn next_row_if(&mut self, blob: &[u8], keep: impl Fn(i64) -> bool) -> Result<Option<SegRow>> {
        if self.pos == blob.len() {
            return Ok(None);
        }
        let mut pos = self.pos;
        let fid = self
            .prev_fid
            .wrapping_add(unzigzag(get_varint(blob, &mut pos)?));
        if !keep(fid) {
            return Ok(None);
        }
        if fid != self.prev_fid {
            self.prev_tid = 0;
        }
        let tid = self
            .prev_tid
            .wrapping_add(unzigzag(get_varint(blob, &mut pos)?));
        // The cost, or in the 4-column layout `pid − fid`.
        let third = unzigzag(get_varint(blob, &mut pos)?);
        let row = if self.width == 4 {
            let cost = unzigzag(get_varint(blob, &mut pos)?);
            [fid, tid, fid.wrapping_add(third), cost]
        } else {
            [fid, tid, third, 0]
        };
        self.pos = pos;
        self.prev_fid = fid;
        self.prev_tid = tid;
        Ok(Some(row))
    }

    /// Moves to the first row whose fid is at least `fid`, as
    /// [`skip_below`](Self::skip_below) does, but from the directory: when
    /// the last entry whose fid is at most `fid` lies ahead of the cursor,
    /// it jumps there first, so it steps over fewer than [`DIR_STRIDE`]
    /// rows. It reads the directory up to the first entry past `fid`; an
    /// entry it reads out of order, or pointing past the rows, is
    /// corrupt.
    pub fn seek(&mut self, blob: &[u8], fid: i64) -> Result<()> {
        let corrupt = || StorageError::Corrupt("segment directory out of order".into());
        let mut pos = self.dir;
        let mut found: Option<DirEntry> = None;
        while pos < self.body {
            let prev = found.unwrap_or_default();
            let next_fid = prev.fid.wrapping_add(unzigzag(get_varint(blob, &mut pos)?));
            if found.is_some_and(|f| next_fid <= f.fid) {
                return Err(corrupt());
            }
            if next_fid > fid {
                break;
            }
            let doff = get_varint(blob, &mut pos)?;
            let room = blob.len().saturating_sub(self.body + prev.off) as u64;
            if pos > self.body || !(1..room).contains(&doff) {
                return Err(corrupt());
            }
            found = Some(DirEntry {
                fid: next_fid,
                off: prev.off + doff as usize,
            });
        }
        if let Some(entry) = found.filter(|e| self.body + e.off > self.pos) {
            // The entry's row begins its fid: its fid delta, read here,
            // gives the fid before it, and its tid delta starts from 0.
            let mut pos = self.body + entry.off;
            let dfid = unzigzag(get_varint(blob, &mut pos)?);
            if dfid == 0 {
                return Err(corrupt());
            }
            self.pos = self.body + entry.off;
            self.prev_fid = entry.fid.wrapping_sub(dfid);
            self.prev_tid = 0;
        }
        self.skip_below(blob, fid)
    }

    /// Moves past every row whose fid is below `fid`, stopping before
    /// the first at or past it. A skipped row's other varints are stepped
    /// over, not decoded: the next row kept has another fid, so its tid
    /// delta starts from 0 again.
    pub fn skip_below(&mut self, blob: &[u8], fid: i64) -> Result<()> {
        while self.pos < blob.len() {
            let mut pos = self.pos;
            let next = self
                .prev_fid
                .wrapping_add(unzigzag(get_varint(blob, &mut pos)?));
            if next >= fid {
                return Ok(());
            }
            // The row's other varints each end at a byte below 0x80.
            let mut ends = 1;
            while ends < self.width {
                let b = *blob
                    .get(pos)
                    .ok_or_else(|| StorageError::Corrupt("truncated segment varint".into()))?;
                pos += 1;
                ends += usize::from(b < 0x80);
            }
            self.pos = pos;
            self.prev_fid = next;
        }
        Ok(())
    }
}

/// Decodes a whole segment of the `width`-column layout, invoking
/// `f(row)` per row in stored order; returns the number of rows, which
/// must be the count the segment's header records.
fn for_each_row(blob: &[u8], width: usize, mut f: impl FnMut(SegRow)) -> Result<usize> {
    let mut cursor = SegmentCursor::new(blob, width)?;
    let mut n = 0usize;
    while let Some(row) = cursor.next_row(blob)? {
        f(row);
        n += 1;
    }
    if n != cursor.rows {
        return Err(StorageError::Corrupt(format!(
            "segment holds {n} rows, its header says {}",
            cursor.rows
        )));
    }
    Ok(n)
}

/// Decodes a 3-column segment, invoking `f(fid, tid, cost)` per edge in
/// stored order.
pub fn decode_edge_segment_with(blob: &[u8], mut f: impl FnMut(i64, i64, i64)) -> Result<()> {
    for_each_row(blob, 3, |[fid, tid, cost, _]| f(fid, tid, cost))?;
    Ok(())
}

/// Decodes a 3-column segment into a `Vec` of edges.
pub fn decode_edge_segment(blob: &[u8]) -> Result<Vec<(i64, i64, i64)>> {
    let mut out = Vec::new();
    decode_edge_segment_with(blob, |f, t, c| out.push((f, t, c)))?;
    Ok(out)
}

/// Decodes a segment of the `width`-column layout into a `Vec` of rows.
pub fn decode_segment(blob: &[u8], width: usize) -> Result<Vec<SegRow>> {
    let mut out = Vec::new();
    for_each_row(blob, width, |row| out.push(row))?;
    Ok(out)
}

/// Decodes a segment of the `width`-column layout straight into a
/// `width`-column integer [`Chunk`], appending one committed row per
/// segment row. The chunk's width is fixed on first use.
pub fn decode_segment_into_chunk(blob: &[u8], width: usize, chunk: &mut Chunk) -> Result<usize> {
    if chunk.is_empty() && chunk.width() != width {
        chunk.set_width(width);
    }
    if chunk.width() != width {
        return Err(StorageError::Corrupt(format!(
            "segment chunk must be {width} columns wide"
        )));
    }
    for_each_row(blob, width, |row| {
        for (c, &v) in row[..width].iter().enumerate() {
            chunk.col_mut(c).push_int(v);
        }
        chunk.commit_row();
    })
}

/// One segment a [`SegmentPacker`] closed: its blob and the `(first_fid,
/// last_fid)` span it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSegment {
    pub first_fid: i64,
    pub last_fid: i64,
    pub blob: Vec<u8>,
}

/// Splits a row stream into maximal valid segments, handing each back as
/// it closes.
///
/// Rows must be pushed in non-decreasing fid order — for the 3-column
/// layout in non-decreasing `(fid, tid, cost)` order. Segments close when
/// they reach [`SEG_MAX_EDGES`] rows or when appending another row would
/// push the encoded blob past [`SEG_MAX_BYTES`] — every closed blob
/// therefore fits both caps exactly.
#[derive(Debug)]
pub struct SegmentPacker {
    width: usize,
    buf: Vec<SegRow>,
    /// Exact encoded size of the buffered rows (excluding the header),
    /// maintained incrementally as rows are pushed.
    payload_bytes: usize,
    /// The buffered rows' directory, kept the same way.
    dir: DirBuilder,
}

impl SegmentPacker {
    /// A packer for the `width`-column layout.
    pub fn new(width: usize) -> Result<SegmentPacker> {
        check_segment_width(width)?;
        Ok(SegmentPacker::of_layout(width))
    }

    /// A packer for `width`, already known to name a layout.
    fn of_layout(width: usize) -> SegmentPacker {
        SegmentPacker {
            width,
            buf: Vec::with_capacity(SEG_MAX_EDGES),
            payload_bytes: 0,
            dir: DirBuilder::default(),
        }
    }

    /// Appends one row; returns the segment the push closed, if any (at
    /// most one: the one before the row, when the row would overflow its
    /// bytes, or the one the row fills).
    pub fn push(&mut self, row: SegRow) -> Option<PackedSegment> {
        debug_assert!(
            self.buf.last().is_none_or(|last| if self.width == 3 {
                *last <= row
            } else {
                last[0] <= row[0]
            }),
            "SegmentPacker input must be in order"
        );
        let prev = self.buf.last().map_or((0, 0), |last| (last[0], last[1]));
        let mut add = row_encoded_len(prev, &row, self.width);
        let rows = self.buf.len() + 1;
        let entry = self
            .dir
            .entry_for(self.buf.len(), row[0], prev.0, self.payload_bytes);
        let mut dir = self.dir;
        if let Some(entry) = entry {
            dir.add(self.buf.len(), entry);
        }
        let mut closed = None;
        if !self.buf.is_empty() && dir.header_len(rows) + self.payload_bytes + add > SEG_MAX_BYTES {
            closed = self.finish();
            add = row_encoded_len((0, 0), &row, self.width);
        } else {
            self.dir = dir;
        }
        self.buf.push(row);
        self.payload_bytes += add;
        if self.buf.len() >= SEG_MAX_EDGES {
            debug_assert!(closed.is_none());
            closed = self.finish();
        }
        closed
    }

    /// Closes the buffered rows as a final (possibly short) segment;
    /// `None` when none are buffered.
    pub fn finish(&mut self) -> Option<PackedSegment> {
        let (first, last) = (self.buf.first()?[0], self.buf.last()?[0]);
        let blob = encode_segment(&self.buf, self.width);
        debug_assert_eq!(
            blob.len(),
            self.dir.header_len(self.buf.len()) + self.payload_bytes,
            "incremental size tracking diverged from the encoder"
        );
        self.buf.clear();
        self.payload_bytes = 0;
        self.dir = DirBuilder::default();
        Some(PackedSegment {
            first_fid: first,
            last_fid: last,
            blob,
        })
    }
}

/// A [`SegmentPacker`] for `(fid, tid, cost)` edges that feeds each
/// segment it closes to a sink.
///
/// Edges must be pushed in non-decreasing `(fid, tid, cost)` order; each
/// completed segment is handed to the sink together with the `(first_fid,
/// last_fid)` span it covers.
pub struct SegmentWriter<F: FnMut(i64, i64, Vec<u8>) -> Result<()>> {
    packer: SegmentPacker,
    sink: F,
}

impl<F: FnMut(i64, i64, Vec<u8>) -> Result<()>> SegmentWriter<F> {
    /// A writer feeding completed segments to `sink(first_fid, last_fid,
    /// blob)`.
    pub fn new(sink: F) -> Self {
        SegmentWriter {
            packer: SegmentPacker::of_layout(3),
            sink,
        }
    }

    fn emit(&mut self, seg: Option<PackedSegment>) -> Result<()> {
        match seg {
            Some(s) => (self.sink)(s.first_fid, s.last_fid, s.blob),
            None => Ok(()),
        }
    }

    /// Appends one edge; may flush a completed segment to the sink.
    pub fn push(&mut self, fid: i64, tid: i64, cost: i64) -> Result<()> {
        let seg = self.packer.push([fid, tid, cost, 0]);
        self.emit(seg)
    }

    /// Flushes any buffered edges as a final (possibly short) segment.
    pub fn flush(&mut self) -> Result<()> {
        let seg = self.packer.finish();
        self.emit(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0, 1, -1, 42, -42, i64::MAX, i64::MIN, i64::MAX - 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let blob = encode_edge_segment(&[]);
        assert_eq!(segment_edge_count(&blob).unwrap(), 0);
        assert_eq!(decode_edge_segment(&blob).unwrap(), vec![]);
    }

    #[test]
    fn single_edge_roundtrips() {
        let edges = vec![(7, 9, 3)];
        let blob = encode_edge_segment(&edges);
        assert_eq!(decode_edge_segment(&blob).unwrap(), edges);
    }

    #[test]
    fn unsorted_input_decodes_sorted() {
        let edges = vec![(5, 2, 1), (1, 9, 4), (5, 1, 2), (1, 9, 4)];
        let blob = encode_edge_segment(&edges);
        let mut expect = edges.clone();
        expect.sort_unstable();
        assert_eq!(decode_edge_segment(&blob).unwrap(), expect);
    }

    #[test]
    fn adjacency_run_compresses_well() {
        // A realistic run: consecutive fids, small tids/costs.
        let edges: Vec<(i64, i64, i64)> = (0..SEG_MAX_EDGES as i64)
            .map(|i| (i / 4, i % 97, 1 + i % 10))
            .collect();
        let blob = encode_edge_segment(&edges);
        // 3 bytes/edge typical; allow slack but stay far below row cost.
        assert!(blob.len() < edges.len() * 4, "blob {} bytes", blob.len());
        let mut expect = edges.clone();
        expect.sort_unstable();
        assert_eq!(decode_edge_segment(&blob).unwrap(), expect);
    }

    #[test]
    fn weight_extremes_roundtrip() {
        let edges = vec![
            (0, 0, i64::MIN),
            (0, 1, i64::MAX),
            (i64::MAX, i64::MIN, 0),
            (i64::MIN, 5, -1),
        ];
        let blob = encode_edge_segment(&edges);
        let mut expect = edges.clone();
        expect.sort_unstable();
        assert_eq!(decode_edge_segment(&blob).unwrap(), expect);
    }

    #[test]
    fn decode_into_chunk_matches_vec_decode() {
        let edges: Vec<(i64, i64, i64)> = (0..40).map(|i| (i % 5, i * 3, i)).collect();
        let blob = encode_edge_segment(&edges);
        let mut chunk = Chunk::with_width(3);
        let n = decode_segment_into_chunk(&blob, 3, &mut chunk).unwrap();
        assert_eq!(n, edges.len());
        let via_vec = decode_edge_segment(&blob).unwrap();
        assert_eq!(chunk.len(), via_vec.len());
        for (r, &(f, t, c)) in via_vec.iter().enumerate() {
            assert_eq!(chunk.get(0, r).as_i64(), Some(f));
            assert_eq!(chunk.get(1, r).as_i64(), Some(t));
            assert_eq!(chunk.get(2, r).as_i64(), Some(c));
        }
    }

    #[test]
    fn cursor_stops_early_and_resumes() {
        let edges: Vec<(i64, i64, i64)> = (0..30).map(|i| (i / 4, i * 7 % 11, i)).collect();
        let blob = encode_edge_segment(&edges);
        let mut cursor = SegmentCursor::new(&blob, 3).unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(cursor.next_row(&blob).unwrap().unwrap());
        }
        // A copy picks up exactly where the original stopped.
        let mut rest = cursor;
        while let Some(e) = rest.next_row(&blob).unwrap() {
            got.push(e);
        }
        assert_eq!(got, decode_segment(&blob, 3).unwrap());
        assert_eq!(rest.next_row(&blob).unwrap(), None);
    }

    #[test]
    fn skip_below_lands_on_the_first_edge_of_the_fid() {
        let edges: Vec<(i64, i64, i64)> = (0..60).map(|i| (i / 5 * 2, 1000 - i * 3, i)).collect();
        let blob = encode_edge_segment(&edges);
        let sorted = decode_segment(&blob, 3).unwrap();
        for fid in -1..26 {
            let mut cursor = SegmentCursor::new(&blob, 3).unwrap();
            cursor.skip_below(&blob, fid).unwrap();
            let mut rest = Vec::new();
            while let Some(e) = cursor.next_row(&blob).unwrap() {
                rest.push(e);
            }
            let want: Vec<_> = sorted.iter().filter(|e| e[0] >= fid).copied().collect();
            assert_eq!(rest, want, "fid {fid}");
        }
    }

    /// The directory of `blob`: each entry's fid and byte offset from
    /// the first row.
    fn directory(blob: &[u8]) -> Vec<(i64, usize)> {
        let cursor = SegmentCursor::new(blob, 3).unwrap();
        let (mut pos, mut entry) = (cursor.dir, DirEntry::default());
        let mut out = Vec::new();
        while pos < cursor.body {
            entry.fid = entry
                .fid
                .wrapping_add(unzigzag(get_varint(blob, &mut pos).unwrap()));
            entry.off += get_varint(blob, &mut pos).unwrap() as usize;
            out.push((entry.fid, entry.off));
        }
        assert_eq!(pos, cursor.body);
        out
    }

    /// Each row's fid and byte offset from the first row.
    fn row_starts(blob: &[u8], width: usize) -> Vec<(i64, usize)> {
        let mut cursor = SegmentCursor::new(blob, width).unwrap();
        let mut out = Vec::new();
        loop {
            let off = cursor.pos - cursor.body;
            match cursor.next_row(blob).unwrap() {
                Some(row) => out.push((row[0], off)),
                None => return out,
            }
        }
    }

    /// Rows of one segment whose fid runs are 1 to 40 rows long, so some
    /// fids span several stride marks and some marks fall inside a fid.
    fn runs(width: usize) -> Vec<SegRow> {
        let mut rows = Vec::new();
        let mut fid = 3;
        for len in [1, 40, 2, 5, 17, 1, 1, 9, 33, 3, 24, 6, 1, 30, 12, 7] {
            for i in 0..len {
                let tid = if width == 3 { i * 5 } else { 90 - i * 7 };
                rows.push([fid, tid, fid - 50 + i, i % 4]);
            }
            fid += 1 + len % 3;
        }
        if width == 3 {
            for r in &mut rows {
                r[2] = r[3];
                r[3] = 0;
            }
        }
        rows
    }

    #[test]
    fn directory_names_the_first_fid_start_past_each_mark() {
        for width in [3, 4] {
            let rows = runs(width);
            assert!(rows.len() > 8 * DIR_STRIDE && rows.len() <= SEG_MAX_EDGES);
            let blob = encode_segment(&rows, width);
            let starts = row_starts(&blob, width);
            let mut want = Vec::new();
            let mut next_mark = DIR_STRIDE;
            for (i, &(fid, off)) in starts.iter().enumerate() {
                if i >= next_mark && fid != starts[i - 1].0 {
                    want.push((fid, off));
                    next_mark = (i / DIR_STRIDE + 1) * DIR_STRIDE;
                }
            }
            assert_eq!(directory(&blob), want, "width {width}");
            // A fid's first row is fewer than one stride past the entry a
            // seek for it jumps to.
            for (i, &(fid, _)) in starts.iter().enumerate() {
                if i > 0 && starts[i - 1].0 == fid {
                    continue;
                }
                let from = want
                    .iter()
                    .rfind(|e| e.0 <= fid)
                    .map_or(0, |e| starts.iter().position(|s| s.1 == e.1).unwrap());
                assert!(i - from < DIR_STRIDE, "width {width} fid {fid}");
            }
        }
        // Shorter than a stride: an empty directory, one byte.
        let blob = encode_segment(&runs(4)[..DIR_STRIDE - 1], 4);
        assert_eq!(blob[1], 0);
        assert!(directory(&blob).is_empty());
    }

    #[test]
    fn a_directory_past_the_blob_or_off_a_fid_start_is_corrupt() {
        // `dir_len` runs past the blob.
        let mut short = Vec::new();
        put_varint(&mut short, 2);
        put_varint(&mut short, 100);
        short.extend([0; 10]);
        assert!(matches!(
            SegmentCursor::new(&short, 3),
            Err(StorageError::Corrupt(_))
        ));
        // An entry naming the second row of a fid, whose fid delta is 0:
        // the cursor cannot learn the fid before it.
        let rows: Vec<SegRow> = (0..40).map(|i| [i / 20, i, 1, 0]).collect();
        let blob = encode_segment(&rows, 3);
        let starts = row_starts(&blob, 3);
        assert_eq!(directory(&blob), vec![(1, starts[20].1)]);
        let mut dir = Vec::new();
        put_varint(&mut dir, zigzag(1));
        put_varint(&mut dir, starts[21].1 as u64);
        let body = SegmentCursor::new(&blob, 3).unwrap().body;
        let mut bad = Vec::new();
        put_varint(&mut bad, rows.len() as u64);
        put_varint(&mut bad, dir.len() as u64);
        bad.extend_from_slice(&dir);
        bad.extend_from_slice(&blob[body..]);
        let mut cursor = SegmentCursor::new(&bad, 3).unwrap();
        assert!(matches!(
            cursor.seek(&bad, 1),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn a_row_count_the_rows_do_not_match_is_corrupt() {
        let mut blob = encode_edge_segment(&[(1, 2, 3), (4, 5, 6)]);
        blob[0] = 3;
        assert!(decode_edge_segment(&blob).is_err());
        blob[0] = 1;
        assert!(decode_segment_into_chunk(&blob, 3, &mut Chunk::new()).is_err());
    }

    #[test]
    fn truncated_blob_is_error() {
        let blob = encode_edge_segment(&[(1, 2, 3), (4, 5, 6)]);
        assert!(decode_edge_segment(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        let mut blob = encode_edge_segment(&[(1, 2, 3)]);
        blob.push(0x00);
        assert!(decode_edge_segment(&blob).is_err());
    }

    #[test]
    fn writer_splits_and_preserves_stream() {
        let edges: Vec<(i64, i64, i64)> = (0..1000).map(|i| (i / 50, i % 50, 1)).collect();
        let mut segs: Vec<(i64, i64, Vec<u8>)> = Vec::new();
        let mut w = SegmentWriter::new(|lo, hi, blob| {
            segs.push((lo, hi, blob));
            Ok(())
        });
        for &(f, t, c) in &edges {
            w.push(f, t, c).unwrap();
        }
        w.flush().unwrap();
        assert!(segs.len() >= edges.len() / SEG_MAX_EDGES);
        let mut decoded = Vec::new();
        for (lo, hi, blob) in &segs {
            let part = decode_edge_segment(blob).unwrap();
            assert_eq!(part.first().unwrap().0, *lo);
            assert_eq!(part.last().unwrap().0, *hi);
            assert!(blob.len() <= SEG_MAX_BYTES);
            assert!(part.len() <= SEG_MAX_EDGES);
            decoded.extend(part);
        }
        assert_eq!(decoded, edges);
    }

    /// Rows of the 4-column layout: fids ascending, tids falling and
    /// repeating within a fid, pids on both sides of the fid.
    fn path_rows(n: i64) -> Vec<SegRow> {
        (0..n)
            .map(|i| {
                [
                    i / 6 * 3,
                    500 - i % 6 * 40,
                    i / 6 * 3 + (i % 5) * 1000 - 2000,
                    i % 9,
                ]
            })
            .collect()
    }

    #[test]
    fn four_column_rows_roundtrip_in_written_order() {
        let rows = path_rows(120);
        let blob = encode_segment(&rows, 4);
        assert_eq!(decode_segment(&blob, 4).unwrap(), rows);
        let mut chunk = Chunk::new();
        assert_eq!(
            decode_segment_into_chunk(&blob, 4, &mut chunk).unwrap(),
            rows.len()
        );
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(chunk.get(c, r).as_i64(), Some(v));
            }
        }
    }

    #[test]
    fn four_column_skip_below_steps_over_pids() {
        let rows = path_rows(90);
        let blob = encode_segment(&rows, 4);
        for fid in -1..50 {
            let mut cursor = SegmentCursor::new(&blob, 4).unwrap();
            cursor.skip_below(&blob, fid).unwrap();
            let mut rest = Vec::new();
            while let Some(r) = cursor.next_row(&blob).unwrap() {
                rest.push(r);
            }
            let want: Vec<_> = rows.iter().filter(|r| r[0] >= fid).copied().collect();
            assert_eq!(rest, want, "fid {fid}");
        }
    }

    #[test]
    fn packer_keeps_four_column_order_and_caps() {
        let rows = path_rows(2000);
        let mut packer = SegmentPacker::new(4).unwrap();
        let mut segs: Vec<PackedSegment> = rows.iter().filter_map(|&r| packer.push(r)).collect();
        segs.extend(packer.finish());
        let mut decoded = Vec::new();
        for s in &segs {
            let part = decode_segment(&s.blob, 4).unwrap();
            assert_eq!(
                (part[0][0], part[part.len() - 1][0]),
                (s.first_fid, s.last_fid)
            );
            assert!(s.blob.len() <= SEG_MAX_BYTES && part.len() <= SEG_MAX_EDGES);
            decoded.extend(part);
        }
        assert_eq!(decoded, rows);
        assert!(SegmentPacker::new(5).is_err());
    }
}
