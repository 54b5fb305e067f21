//! Compressed adjacency segments: delta-encoded, varint-packed edge runs.
//!
//! A *segment* packs a run of table rows into a compact byte blob that
//! lives as a single B+tree value. A segmented table has one of two
//! layouts, fixed by its schema's width: three INT columns `(fid, tid,
//! cost)` (an edge table, `TEdges`) or four `(fid, tid, pid, cost)` (a
//! SegTable, `TOutSegs`). Rows are encoded as zigzag varints:
//!
//! ```text
//! [count: varint]
//! per row:
//!   [dfid:  zigzag varint]   fid  - prev_fid   (prev_fid starts at 0)
//!   [dtid:  zigzag varint]   tid  - prev_tid   (prev_tid resets to 0
//!                                               whenever fid changes)
//!   [dpid:  zigzag varint]   pid  - fid        (4-column layout only)
//!   [cost:  zigzag varint]   absolute cost (small weights ⇒ 1 byte)
//! ```
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

/// Maximum encoded bytes per segment. Leaves headroom under the B+tree's
/// `MAX_CELL_PAYLOAD` (2036 bytes) for the segment's key.
pub const SEG_MAX_BYTES: usize = 1400;

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

/// Encodes `rows` of a `width`-column layout into one segment blob, in
/// the order given.
pub fn encode_segment(rows: &[SegRow], width: usize) -> Vec<u8> {
    debug_assert!(rows.len() <= SEG_MAX_EDGES);
    let mut out = Vec::with_capacity(2 + rows.len() * (width + 1));
    put_varint(&mut out, rows.len() as u64);
    let mut prev = (0, 0);
    for row in rows {
        row_varints(prev, row, width, |v| put_varint(&mut out, v));
        prev = (row[0], row[1]);
    }
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
    left: usize,
    width: usize,
    prev_fid: i64,
    prev_tid: i64,
}

impl SegmentCursor {
    /// A cursor before the first row of `blob`, a segment of the
    /// `width`-column layout.
    pub fn new(blob: &[u8], width: usize) -> Result<SegmentCursor> {
        check_segment_width(width)?;
        let mut pos = 0usize;
        let left = get_varint(blob, &mut pos)? as usize;
        Ok(SegmentCursor {
            pos,
            left,
            width,
            prev_fid: 0,
            prev_tid: 0,
        })
    }

    /// The next row of `blob` (the blob the cursor was made on), or
    /// `None` past the last one, where the blob must end too.
    #[inline]
    pub fn next_row(&mut self, blob: &[u8]) -> Result<Option<SegRow>> {
        if self.left == 0 {
            if self.pos != blob.len() {
                return Err(StorageError::Corrupt("trailing bytes after segment".into()));
            }
            return Ok(None);
        }
        self.left -= 1;
        let fid = self
            .prev_fid
            .wrapping_add(unzigzag(get_varint(blob, &mut self.pos)?));
        if fid != self.prev_fid {
            self.prev_tid = 0;
        }
        let tid = self
            .prev_tid
            .wrapping_add(unzigzag(get_varint(blob, &mut self.pos)?));
        // The cost, or in the 4-column layout `pid − fid`.
        let third = unzigzag(get_varint(blob, &mut self.pos)?);
        let row = if self.width == 4 {
            let cost = unzigzag(get_varint(blob, &mut self.pos)?);
            [fid, tid, fid.wrapping_add(third), cost]
        } else {
            [fid, tid, third, 0]
        };
        self.prev_fid = fid;
        self.prev_tid = tid;
        Ok(Some(row))
    }

    /// Moves past every row whose fid is below `fid`, stopping before
    /// the first at or past it. A skipped row's other varints are stepped
    /// over, not decoded: the next row kept has another fid, so its tid
    /// delta starts from 0 again.
    pub fn skip_below(&mut self, blob: &[u8], fid: i64) -> Result<()> {
        while self.left > 0 {
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
            self.left -= 1;
            self.prev_fid = next;
        }
        Ok(())
    }
}

/// Decodes a 3-column segment, invoking `f(fid, tid, cost)` per edge in
/// stored order.
pub fn decode_edge_segment_with(blob: &[u8], mut f: impl FnMut(i64, i64, i64)) -> Result<()> {
    let mut cursor = SegmentCursor::new(blob, 3)?;
    while let Some([fid, tid, cost, _]) = cursor.next_row(blob)? {
        f(fid, tid, cost);
    }
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
    let mut cursor = SegmentCursor::new(blob, width)?;
    let mut out = Vec::new();
    while let Some(row) = cursor.next_row(blob)? {
        out.push(row);
    }
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
    let mut cursor = SegmentCursor::new(blob, width)?;
    let mut n = 0usize;
    while let Some(row) = cursor.next_row(blob)? {
        for (c, &v) in row[..width].iter().enumerate() {
            chunk.col_mut(c).push_int(v);
        }
        chunk.commit_row();
        n += 1;
    }
    Ok(n)
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
    /// Exact encoded size of the buffered rows (excluding the count
    /// header), maintained incrementally as rows are pushed.
    payload_bytes: usize,
}

impl SegmentPacker {
    /// A packer for the `width`-column layout.
    pub fn new(width: usize) -> Result<SegmentPacker> {
        check_segment_width(width)?;
        Ok(SegmentPacker {
            width,
            buf: Vec::with_capacity(SEG_MAX_EDGES),
            payload_bytes: 0,
        })
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
        let header = varint_len((self.buf.len() + 1) as u64);
        let mut closed = None;
        if !self.buf.is_empty() && header + self.payload_bytes + add > SEG_MAX_BYTES {
            closed = self.finish();
            add = row_encoded_len((0, 0), &row, self.width);
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
            varint_len(self.buf.len() as u64) + self.payload_bytes,
            "incremental size tracking diverged from the encoder"
        );
        self.buf.clear();
        self.payload_bytes = 0;
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
            packer: SegmentPacker {
                width: 3,
                buf: Vec::with_capacity(SEG_MAX_EDGES),
                payload_bytes: 0,
            },
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
