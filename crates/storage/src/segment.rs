//! Compressed adjacency segments: delta-encoded, varint-packed edge runs.
//!
//! A *segment* packs a sorted run of graph edges `(fid, tid, cost)` into a
//! compact byte blob that lives as a single B+tree value. Edges are sorted
//! by `(fid, tid, cost)` and encoded as zigzag-varint deltas:
//!
//! ```text
//! [count: varint]
//! per edge:
//!   [dfid:  zigzag varint]   fid  - prev_fid   (prev_fid starts at 0)
//!   [dtid:  zigzag varint]   tid  - prev_tid   (prev_tid resets to 0
//!                                               whenever fid changes)
//!   [cost:  zigzag varint]   absolute cost (small weights ⇒ 1 byte)
//! ```
//!
//! Because adjacency lists cluster consecutive node ids, the common edge
//! costs 3 bytes instead of the 29 bytes of a tagged row — and decoding
//! appends straight into a columnar [`Chunk`], so FEM
//! expansion joins never materialize per-row `Vec<Value>`s (DESIGN.md §14).
//!
//! Segments are sized to fit a B+tree leaf cell: at most [`SEG_MAX_EDGES`]
//! edges and [`SEG_MAX_BYTES`] encoded bytes, whichever is hit first.

use crate::chunk::Chunk;
use crate::error::{Result, StorageError};

/// Maximum edges per segment. Kept below a chunk's capacity so one decoded
/// segment always fits in the current batch.
pub const SEG_MAX_EDGES: usize = 256;

/// Maximum encoded bytes per segment. Leaves headroom under the B+tree's
/// `MAX_CELL_PAYLOAD` (2036 bytes) for the segment's key.
pub const SEG_MAX_BYTES: usize = 1400;

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

#[inline]
fn skip_varint(buf: &[u8], pos: &mut usize) -> Result<()> {
    let len = buf[*pos..]
        .iter()
        .position(|&b| b & 0x80 == 0)
        .ok_or_else(|| StorageError::Corrupt("truncated segment varint".into()))?;
    *pos += len + 1;
    Ok(())
}

/// Encodes a run of edges into one segment blob. The input need not be
/// sorted — the encoder sorts a copy by `(fid, tid, cost)`; duplicates are
/// preserved (multiset semantics).
///
/// Panics in debug builds if the run exceeds [`SEG_MAX_EDGES`]; use
/// [`SegmentWriter`] to split an arbitrary stream into valid segments.
pub fn encode_edge_segment(edges: &[(i64, i64, i64)]) -> Vec<u8> {
    debug_assert!(edges.len() <= SEG_MAX_EDGES);
    let mut sorted: Vec<(i64, i64, i64)> = edges.to_vec();
    sorted.sort_unstable();
    let mut out = Vec::with_capacity(2 + sorted.len() * 3);
    put_varint(&mut out, sorted.len() as u64);
    let mut prev_fid = 0i64;
    let mut prev_tid = 0i64;
    for &(fid, tid, cost) in &sorted {
        put_varint(&mut out, zigzag(fid.wrapping_sub(prev_fid)));
        if fid != prev_fid {
            prev_tid = 0;
        }
        put_varint(&mut out, zigzag(tid.wrapping_sub(prev_tid)));
        put_varint(&mut out, zigzag(cost));
        prev_fid = fid;
        prev_tid = tid;
    }
    out
}

/// Number of edges in an encoded segment without decoding the payload.
pub fn segment_edge_count(blob: &[u8]) -> Result<usize> {
    let mut pos = 0usize;
    Ok(get_varint(blob, &mut pos)? as usize)
}

/// A decode of one segment that goes only as far as its caller asks: the
/// edges come one at a time, in order, so a probe can stop once they pass
/// the fid it wants and resume (on the same blob) for a later fid.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentCursor {
    pos: usize,
    left: usize,
    prev_fid: i64,
    prev_tid: i64,
}

impl SegmentCursor {
    /// A cursor before the first edge of `blob`.
    pub fn new(blob: &[u8]) -> Result<SegmentCursor> {
        let mut pos = 0usize;
        let left = get_varint(blob, &mut pos)? as usize;
        Ok(SegmentCursor {
            pos,
            left,
            prev_fid: 0,
            prev_tid: 0,
        })
    }

    /// The next edge of `blob` (the blob the cursor was made on), or
    /// `None` past the last one, where the blob must end too.
    #[inline]
    pub fn next_edge(&mut self, blob: &[u8]) -> Result<Option<(i64, i64, i64)>> {
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
        let cost = unzigzag(get_varint(blob, &mut self.pos)?);
        self.prev_fid = fid;
        self.prev_tid = tid;
        Ok(Some((fid, tid, cost)))
    }

    /// Moves past every edge whose fid is below `fid`, stopping before
    /// the first at or past it. A skipped edge's tid and cost varints are
    /// stepped over, not decoded: the next edge kept has another fid, so
    /// its tid delta starts from 0 again.
    pub fn skip_below(&mut self, blob: &[u8], fid: i64) -> Result<()> {
        while self.left > 0 {
            let mut pos = self.pos;
            let next = self
                .prev_fid
                .wrapping_add(unzigzag(get_varint(blob, &mut pos)?));
            if next >= fid {
                return Ok(());
            }
            skip_varint(blob, &mut pos)?;
            skip_varint(blob, &mut pos)?;
            self.pos = pos;
            self.left -= 1;
            self.prev_fid = next;
        }
        Ok(())
    }
}

/// Decodes a segment, invoking `f(fid, tid, cost)` per edge in sorted
/// order.
pub fn decode_edge_segment_with(blob: &[u8], mut f: impl FnMut(i64, i64, i64)) -> Result<()> {
    let mut cursor = SegmentCursor::new(blob)?;
    while let Some((fid, tid, cost)) = cursor.next_edge(blob)? {
        f(fid, tid, cost);
    }
    Ok(())
}

/// Decodes a segment into a `Vec` of edges.
pub fn decode_edge_segment(blob: &[u8]) -> Result<Vec<(i64, i64, i64)>> {
    let mut out = Vec::new();
    decode_edge_segment_with(blob, |f, t, c| out.push((f, t, c)))?;
    Ok(out)
}

/// Decodes a segment straight into a 3-column integer [`Chunk`]
/// (`fid, tid, cost`), appending one committed row per edge. The chunk's
/// width is fixed to 3 on first use.
pub fn decode_edge_segment_into_chunk(blob: &[u8], chunk: &mut Chunk) -> Result<usize> {
    if chunk.is_empty() && chunk.width() != 3 {
        chunk.set_width(3);
    }
    if chunk.width() != 3 {
        return Err(StorageError::Corrupt(
            "segment chunk must be 3 columns wide".into(),
        ));
    }
    let mut n = 0usize;
    decode_edge_segment_with(blob, |fid, tid, cost| {
        chunk.col_mut(0).push_int(fid);
        chunk.col_mut(1).push_int(tid);
        chunk.col_mut(2).push_int(cost);
        chunk.commit_row();
        n += 1;
    })?;
    Ok(n)
}

/// Splits a sorted edge stream into maximal valid segments.
///
/// Edges must be pushed in non-decreasing `(fid, tid, cost)` order; each
/// completed segment is handed to the sink together with the `(first_fid,
/// last_fid)` span it covers. Segments close when they reach
/// [`SEG_MAX_EDGES`] edges or when appending another edge would push the
/// encoded blob past [`SEG_MAX_BYTES`] — every emitted blob therefore fits
/// both caps exactly.
pub struct SegmentWriter<F: FnMut(i64, i64, Vec<u8>) -> Result<()>> {
    buf: Vec<(i64, i64, i64)>,
    /// Exact encoded size of the buffered edges (excluding the count
    /// header), maintained incrementally as edges are pushed.
    payload_bytes: usize,
    sink: F,
}

/// Exact encoded size of one edge given the `(fid, tid)` of the edge
/// preceding it in the segment (`None` for the segment's first edge). The
/// writer's sorted-input contract makes this match [`encode_edge_segment`]
/// byte for byte.
#[inline]
fn edge_encoded_len(prev: Option<(i64, i64)>, fid: i64, tid: i64, cost: i64) -> usize {
    let (prev_fid, prev_tid) = prev.unwrap_or((0, 0));
    let base_tid = if fid != prev_fid { 0 } else { prev_tid };
    varint_len(zigzag(fid.wrapping_sub(prev_fid)))
        + varint_len(zigzag(tid.wrapping_sub(base_tid)))
        + varint_len(zigzag(cost))
}

impl<F: FnMut(i64, i64, Vec<u8>) -> Result<()>> SegmentWriter<F> {
    /// A writer feeding completed segments to `sink(first_fid, last_fid,
    /// blob)`.
    pub fn new(sink: F) -> Self {
        SegmentWriter {
            buf: Vec::with_capacity(SEG_MAX_EDGES),
            payload_bytes: 0,
            sink,
        }
    }

    /// Appends one edge; may flush a completed segment to the sink.
    pub fn push(&mut self, fid: i64, tid: i64, cost: i64) -> Result<()> {
        debug_assert!(
            self.buf.last().is_none_or(|&last| last <= (fid, tid, cost)),
            "SegmentWriter input must be sorted"
        );
        let prev = self.buf.last().map(|&(f, t, _)| (f, t));
        let mut add = edge_encoded_len(prev, fid, tid, cost);
        let header = varint_len((self.buf.len() + 1) as u64);
        if !self.buf.is_empty() && header + self.payload_bytes + add > SEG_MAX_BYTES {
            self.flush()?;
            add = edge_encoded_len(None, fid, tid, cost);
        }
        self.buf.push((fid, tid, cost));
        self.payload_bytes += add;
        if self.buf.len() >= SEG_MAX_EDGES {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes any buffered edges as a final (possibly short) segment.
    pub fn flush(&mut self) -> Result<()> {
        let (Some(&(first_fid, ..)), Some(&(last_fid, ..))) = (self.buf.first(), self.buf.last())
        else {
            return Ok(());
        };
        let blob = encode_edge_segment(&self.buf);
        debug_assert_eq!(
            blob.len(),
            varint_len(self.buf.len() as u64) + self.payload_bytes,
            "incremental size tracking diverged from the encoder"
        );
        self.buf.clear();
        self.payload_bytes = 0;
        (self.sink)(first_fid, last_fid, blob)
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
        let n = decode_edge_segment_into_chunk(&blob, &mut chunk).unwrap();
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
        let mut cursor = SegmentCursor::new(&blob).unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(cursor.next_edge(&blob).unwrap().unwrap());
        }
        // A copy picks up exactly where the original stopped.
        let mut rest = cursor;
        while let Some(e) = rest.next_edge(&blob).unwrap() {
            got.push(e);
        }
        assert_eq!(got, decode_edge_segment(&blob).unwrap());
        assert_eq!(rest.next_edge(&blob).unwrap(), None);
    }

    #[test]
    fn skip_below_lands_on_the_first_edge_of_the_fid() {
        let edges: Vec<(i64, i64, i64)> = (0..60).map(|i| (i / 5 * 2, 1000 - i * 3, i)).collect();
        let blob = encode_edge_segment(&edges);
        let sorted = decode_edge_segment(&blob).unwrap();
        for fid in -1..26 {
            let mut cursor = SegmentCursor::new(&blob).unwrap();
            cursor.skip_below(&blob, fid).unwrap();
            let mut rest = Vec::new();
            while let Some(e) = cursor.next_edge(&blob).unwrap() {
                rest.push(e);
            }
            let want: Vec<_> = sorted.iter().filter(|e| e.0 >= fid).copied().collect();
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
}
