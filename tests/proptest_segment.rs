//! Property-based tests of the adjacency-segment codec (DESIGN.md §14):
//! encode/decode round-trips over arbitrary edge multisets — duplicates,
//! weight extremes, single-edge and empty segments — plus the
//! [`SegmentWriter`] splitting invariants (size caps, global order, and
//! lossless reassembly) — a batch probe of a segmented table across a fid
//! whose edges straddle segments and leaves, and the 4-column SegTable
//! layout `(fid, tid, pid, cost)`: rows in written order within a fid
//! (tids falling as well as rising), pids far from their fid on either
//! side, and a fid whose rows straddle segments — and each segment's fid
//! directory: a seek reads on exactly as a skip from the segment's first
//! row does, for fids below, inside, between and above a segment's, in
//! both layouts; a probe with tombstones and overlay rows matches a scan
//! and filter; and a directory out of order or pointing past the rows is
//! a `StorageError::Corrupt`, never a panic.
//!
//! Run with `PROPTEST_CASES=512` (the CI setting) for the heavyweight
//! sweep; the local default keeps `cargo test` fast.

use fempath::sql::ast::ColumnDef;
use fempath::sql::catalog::{EqMatches, ProbePath, TableStorage};
use fempath::sql::Catalog;
use fempath::storage::{
    decode_edge_segment, decode_segment, decode_segment_into_chunk, encode_edge_segment,
    encode_segment, segment_edge_count, BufferPool, Chunk, ColSet, DataType, SegRow, SegmentCursor,
    SegmentPacker, SegmentWriter, StorageError, Value, DIR_STRIDE, SEG_MAX_BYTES, SEG_MAX_EDGES,
};
use proptest::prelude::*;
use std::ops::Bound;

/// Honour `PROPTEST_CASES` explicitly so CI can raise the sweep without a
/// code change (`ProptestConfig::with_cases` overrides the environment).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Edges with every interesting magnitude: small dense ids, duplicates
/// (forced by tiny domains), and extreme weights up to `i64::MAX`.
fn arb_edges(max_len: usize) -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    let edge = prop_oneof![
        // Dense small ids — adjacent deltas, duplicate-prone.
        (0i64..50, 0i64..50, 1i64..100),
        // Sparse ids and extreme weights — worst-case varints.
        (
            prop_oneof![Just(0i64), 0i64..1_000_000_000, Just(i64::MAX / 2)],
            prop_oneof![Just(0i64), 0i64..1_000_000_000, Just(i64::MAX / 2)],
            prop_oneof![
                Just(0i64),
                Just(1i64),
                Just(i64::MAX),
                Just(i64::MIN),
                any::<i64>()
            ],
        ),
    ];
    prop::collection::vec(edge, 0..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// encode → decode is the identity on the sorted edge multiset.
    #[test]
    fn roundtrip_arbitrary_edges(mut edges in arb_edges(SEG_MAX_EDGES)) {
        let blob = encode_edge_segment(&edges);
        let decoded = decode_edge_segment(&blob).unwrap();
        edges.sort_unstable();
        prop_assert_eq!(decoded, edges);
    }

    /// The stored edge count is readable without a full decode.
    #[test]
    fn edge_count_header(edges in arb_edges(SEG_MAX_EDGES)) {
        let blob = encode_edge_segment(&edges);
        prop_assert_eq!(segment_edge_count(&blob).unwrap(), edges.len());
    }

    /// Columnar decode matches the row decode exactly (the FEM expansion
    /// join consumes segments through this path).
    #[test]
    fn chunk_decode_matches_row_decode(edges in arb_edges(SEG_MAX_EDGES)) {
        let blob = encode_edge_segment(&edges);
        let rows = decode_edge_segment(&blob).unwrap();
        let mut chunk = Chunk::new();
        chunk.set_width(3);
        let n = decode_segment_into_chunk(&blob, 3, &mut chunk).unwrap();
        prop_assert_eq!(n, rows.len());
        prop_assert_eq!(chunk.len(), rows.len());
        for (r, &(f, t, c)) in rows.iter().enumerate() {
            prop_assert_eq!(chunk.get(0, r).as_i64(), Some(f));
            prop_assert_eq!(chunk.get(1, r).as_i64(), Some(t));
            prop_assert_eq!(chunk.get(2, r).as_i64(), Some(c));
        }
    }

    /// A sorted stream pushed through the writer reassembles losslessly,
    /// every blob respects the size caps, and the segments partition the
    /// stream in order (first fids never decrease).
    #[test]
    fn writer_splits_respect_caps_and_order(mut edges in arb_edges(4 * SEG_MAX_EDGES)) {
        edges.sort_unstable();
        let mut segs: Vec<(i64, i64, Vec<u8>)> = Vec::new();
        let mut w = SegmentWriter::new(|first, last, blob| {
            segs.push((first, last, blob));
            Ok(())
        });
        for &(f, t, c) in &edges {
            w.push(f, t, c).unwrap();
        }
        w.flush().unwrap();
        let mut reassembled = Vec::new();
        let mut prev_first = i64::MIN;
        for (first, last, blob) in &segs {
            let dec = decode_edge_segment(blob).unwrap();
            prop_assert!(!dec.is_empty(), "writer must not emit empty segments");
            prop_assert!(dec.len() <= SEG_MAX_EDGES);
            prop_assert!(blob.len() <= SEG_MAX_BYTES, "blob {} bytes", blob.len());
            prop_assert_eq!(dec.first().unwrap().0, *first);
            prop_assert_eq!(dec.last().unwrap().0, *last);
            prop_assert!(*first >= prev_first, "segment first fids must not decrease");
            prev_first = *first;
            reassembled.extend(dec);
        }
        prop_assert_eq!(reassembled, edges);
    }

    /// Single-edge segments — the smallest non-empty case.
    #[test]
    fn single_edge_roundtrip(f in any::<i64>(), t in any::<i64>(), c in any::<i64>()) {
        let blob = encode_edge_segment(&[(f, t, c)]);
        prop_assert_eq!(decode_edge_segment(&blob).unwrap(), vec![(f, t, c)]);
    }
}

/// The degenerate empty segment encodes and decodes cleanly.
#[test]
fn empty_segment_roundtrip() {
    let blob = encode_edge_segment(&[]);
    assert_eq!(segment_edge_count(&blob).unwrap(), 0);
    assert!(decode_edge_segment(&blob).unwrap().is_empty());
}

/// Trailing garbage after a valid segment is an error, not silently
/// ignored — a truncation/corruption guard.
#[test]
fn trailing_bytes_rejected() {
    let mut blob = encode_edge_segment(&[(1, 2, 3)]);
    blob.push(0x7f);
    assert!(decode_edge_segment(&blob).is_err());
}

/// Every match of one probe of the segmented table `t` on `fid`: the
/// rows and the key position each answers.
fn probe_fids(pool: &mut BufferPool, cat: &Catalog, keys: &[Value]) -> (Vec<Vec<Value>>, Vec<u32>) {
    let t = cat.table("TSeg").unwrap();
    let mut chunk = Chunk::with_width(3);
    let mut src = Vec::new();
    let out = EqMatches {
        rows: &mut chunk,
        src: Some(&mut src),
        locs: None,
    };
    t.probe_eq(pool, ProbePath::Segments, &[0], keys, &ColSet::all(), out)
        .unwrap();
    ((0..chunk.len()).map(|r| chunk.row(r)).collect(), src)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// A batch probe of a segmented table whose keys come shuffled and
    /// repeated, with missing fids and NULLs among them, returns in batch
    /// order each key's edges as stored — also for a hub fid whose edges
    /// straddle several segments and two leaves.
    #[test]
    fn batch_probe_across_straddling_segments(
        hub in 5i64..40,
        hub_degree in 1600usize..2400,
        degree in 1i64..30,
        probes in prop::collection::vec(prop::option::of(-2i64..50), 1..60),
    ) {
        let mut edges: Vec<(i64, i64, i64)> = Vec::new();
        for f in 0..45i64 {
            let n = if f == hub { hub_degree as i64 } else { degree + f % 3 };
            edges.extend((0..n).map(|t| (f, 3 * t + f % 2, 1 + (f + t) % 7)));
        }
        let mut pool = BufferPool::in_memory(64);
        let mut cat = Catalog::new();
        let cols = ["fid", "tid", "cost"]
            .iter()
            .map(|n| ColumnDef { name: (*n).into(), dtype: DataType::Int })
            .collect();
        cat.create_segmented_table(&mut pool, "TSeg", cols).unwrap();
        cat.table_mut("TSeg")
            .unwrap()
            .bulk_load_segments(&mut pool, edges.iter().copied())
            .unwrap();
        // At most five of the hub's segments (each over 700 bytes) fit
        // one 4 KiB leaf, so six or more span two leaves.
        let TableStorage::Segmented { tree, .. } = &cat.table("TSeg").unwrap().storage else {
            unreachable!()
        };
        let mut hub_segments = 0;
        tree.scan_range(&mut pool, Bound::Unbounded, Bound::Unbounded, |_, blob| {
            let seg = decode_edge_segment(blob).unwrap();
            hub_segments += usize::from(seg.iter().any(|e| e.0 == hub));
            true
        })
        .unwrap();
        prop_assert!(hub_segments >= 6, "{} hub segments", hub_segments);

        let mut keys: Vec<Value> = probes.iter().map(|p| p.map_or(Value::Null, Value::Int)).collect();
        keys.insert(keys.len() / 2, Value::Int(hub));
        keys.push(Value::Int(hub));
        let (rows, src) = probe_fids(&mut pool, &cat, &keys);
        let (mut want_rows, mut want_src) = (Vec::new(), Vec::new());
        for (k, key) in keys.iter().enumerate() {
            let (one, one_src) = probe_fids(&mut pool, &cat, std::slice::from_ref(key));
            let stored: Vec<Vec<Value>> = edges
                .iter()
                .filter(|e| Value::Int(e.0) == *key)
                .map(|&(f, t, c)| vec![Value::Int(f), Value::Int(t), Value::Int(c)])
                .collect();
            prop_assert_eq!(&one, &stored);
            want_src.extend(one_src.iter().map(|_| k as u32));
            want_rows.extend(one);
        }
        prop_assert_eq!(rows, want_rows);
        prop_assert_eq!(src, want_src);
    }
}

/// 4-column SegTable rows `[fid, tid, pid, cost]` in non-decreasing fid
/// order, each fid's rows in generated order — so tids fall as well as
/// rise — with pids near their fid, far below or above it, or at the
/// extremes, and a hub fid of `hub` rows that no one segment holds.
fn arb_path_rows(max_len: usize, hub: usize) -> impl Strategy<Value = Vec<SegRow>> {
    let row = (
        0i64..30,
        prop_oneof![0i64..40, any::<i64>()],
        prop_oneof![
            -3i64..3,
            -1_000_000_000i64..1_000_000_000,
            Just(i64::MIN),
            Just(i64::MAX)
        ],
        prop_oneof![1i64..100, any::<i64>()],
    );
    prop::collection::vec(row, 0..=max_len).prop_map(move |rows| {
        let mut rows: Vec<SegRow> = rows
            .into_iter()
            .map(|(fid, tid, dpid, cost)| [fid, tid, fid.wrapping_add(dpid), cost])
            .collect();
        rows.extend((0..hub as i64).map(|i| [17, 500 - i * 3 % 997, 17 - i, i % 9]));
        rows.sort_by_key(|r| r[0]);
        rows
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// encode → decode of the 4-column layout is the identity, order
    /// included.
    #[test]
    fn four_column_roundtrip(rows in arb_path_rows(SEG_MAX_EDGES, 0)) {
        let blob = encode_segment(&rows, 4);
        prop_assert_eq!(segment_edge_count(&blob).unwrap(), rows.len());
        prop_assert_eq!(decode_segment(&blob, 4).unwrap(), rows);
    }

    /// The packer splits a 4-column stream whose hub fid straddles
    /// segments into blobs within the caps whose spans partition the
    /// stream and whose rows reassemble it in order.
    #[test]
    fn four_column_packer_reassembles(rows in arb_path_rows(2 * SEG_MAX_EDGES, SEG_MAX_EDGES + 40)) {
        let mut packer = SegmentPacker::new(4).unwrap();
        let mut segs: Vec<_> = rows.iter().filter_map(|&r| packer.push(r)).collect();
        segs.extend(packer.finish());
        let hub_segments = segs.iter().filter(|s| s.first_fid <= 17 && 17 <= s.last_fid).count();
        prop_assert!(hub_segments >= 2, "{} hub segments", hub_segments);
        let mut reassembled = Vec::new();
        for seg in &segs {
            let part = decode_segment(&seg.blob, 4).unwrap();
            prop_assert!(!part.is_empty() && part.len() <= SEG_MAX_EDGES);
            prop_assert!(seg.blob.len() <= SEG_MAX_BYTES, "blob {} bytes", seg.blob.len());
            prop_assert_eq!((part[0][0], part[part.len() - 1][0]), (seg.first_fid, seg.last_fid));
            reassembled.extend(part);
        }
        prop_assert_eq!(reassembled, rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// A 4-column segmented table loaded through `Table::segment_load`
    /// scans back its rows in written order, and a shuffled batch probe
    /// of its fids answers each key with that fid's rows in written
    /// order, the hub's across its segments.
    #[test]
    fn four_column_table_keeps_written_order(
        rows in arb_path_rows(3 * SEG_MAX_EDGES, 2 * SEG_MAX_EDGES),
        probes in prop::collection::vec(-1i64..32, 1..40),
    ) {
        let mut pool = BufferPool::in_memory(64);
        let mut cat = Catalog::new();
        let cols = ["fid", "tid", "pid", "cost"]
            .iter()
            .map(|n| ColumnDef { name: (*n).into(), dtype: DataType::Int })
            .collect();
        cat.create_segmented_table(&mut pool, "TSeg", cols).unwrap();
        let mut load = cat.table("TSeg").unwrap().segment_load(&mut pool).unwrap();
        for &row in &rows {
            load.push(&mut pool, row).unwrap();
        }
        let t = cat.table_mut("TSeg").unwrap();
        prop_assert_eq!(t.finish_segment_load(&mut pool, load).unwrap(), rows.len() as u64);
        let t = cat.table("TSeg").unwrap();
        let as_values = |r: &SegRow| r.map(Value::Int).to_vec();
        let mut scanned = Vec::new();
        t.scan(&mut pool, |_, row| {
            scanned.push(row);
            true
        })
        .unwrap();
        prop_assert_eq!(scanned, rows.iter().map(as_values).collect::<Vec<_>>());

        let keys: Vec<Value> = probes.iter().copied().chain([17]).map(Value::Int).collect();
        let mut chunk = Chunk::new();
        let mut src = Vec::new();
        let out = EqMatches { rows: &mut chunk, src: Some(&mut src), locs: None };
        t.probe_eq(&mut pool, ProbePath::Segments, &[0], &keys, &ColSet::all(), out)
            .unwrap();
        let (mut want, mut want_src) = (Vec::new(), Vec::new());
        for (k, key) in keys.iter().enumerate() {
            for r in rows.iter().filter(|r| Value::Int(r[0]) == *key) {
                want.push(as_values(r));
                want_src.push(k as u32);
            }
        }
        prop_assert_eq!((0..chunk.len()).map(|r| chunk.row(r)).collect::<Vec<_>>(), want);
        prop_assert_eq!(src, want_src);
    }
}

/// A row stream for the `width`-column layout in the order a packer
/// takes: fid runs of the lengths in `runs` (a run of 0 leaves a gap),
/// and a hub run of `hub` rows, longer than a segment holds, after the
/// third run; the 3-column stream sorted by `(fid, tid, cost)`.
fn run_stream(width: usize, runs: &[(i64, usize)], hub: usize) -> Vec<SegRow> {
    let mut rows = Vec::new();
    let mut fid = -5;
    for (i, &(gap, len)) in runs.iter().enumerate() {
        fid += gap;
        let len = if i == 3 { hub } else { len };
        for j in 0..len as i64 {
            let tid = (fid * 31 + j * 17) % 97 - 40;
            rows.push([fid, tid, fid + j % 5 - 2, j % 7]);
        }
    }
    if width == 3 {
        for r in &mut rows {
            *r = [r[0], r[1], r[3], 0];
        }
        rows.sort_unstable();
    }
    rows
}

/// The rows a cursor yields from where it stands to the blob's end.
fn read_on(mut cursor: SegmentCursor, blob: &[u8]) -> Vec<SegRow> {
    let mut out = Vec::new();
    while let Some(row) = cursor.next_row(blob).unwrap() {
        out.push(row);
    }
    out
}

/// Fids to seek in a segment whose fids are `fids` (ascending, repeats
/// allowed): below, each one, between and above, and the extremes.
fn targets(fids: &[i64]) -> Vec<i64> {
    let mut t: Vec<i64> = fids
        .iter()
        .flat_map(|&f| [f - 1, f, f + 1])
        .chain([i64::MIN, i64::MAX])
        .collect();
    t.sort_unstable();
    t.dedup();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// Over random row streams in both layouts, packed into segments — a
    /// hub fid filling whole segments and spanning two or more, short
    /// runs, gaps, a short last segment — a seek to any fid reads on
    /// exactly the rows a from-start `skip_below` reads, and one cursor
    /// seeking ascending fids reads each fid's rows and no others.
    #[test]
    fn seek_reads_on_as_skip_below_does(
        width in 3usize..=4,
        runs in prop::collection::vec((prop_oneof![0i64..3, 1i64..1000], 1usize..40), 4..60),
        hub in prop_oneof![Just(0usize), 1..DIR_STRIDE, 300usize..700],
    ) {
        let rows = run_stream(width, &runs, hub);
        let mut packer = SegmentPacker::new(width).unwrap();
        let mut segs: Vec<_> = rows.iter().filter_map(|&r| packer.push(r)).collect();
        segs.extend(packer.finish());
        let mut reassembled = Vec::new();
        for seg in &segs {
            let blob = &seg.blob;
            let part = decode_segment(blob, width).unwrap();
            let fids: Vec<i64> = part.iter().map(|r| r[0]).collect();
            let mut walk = SegmentCursor::new(blob, width).unwrap();
            for fid in targets(&fids) {
                let mut seek = SegmentCursor::new(blob, width).unwrap();
                seek.seek(blob, fid).unwrap();
                let mut skip = SegmentCursor::new(blob, width).unwrap();
                skip.skip_below(blob, fid).unwrap();
                let want = read_on(skip, blob);
                prop_assert_eq!(&read_on(seek, blob), &want, "fid {}", fid);
                prop_assert!(want.iter().all(|r| r[0] >= fid));
                walk.seek(blob, fid).unwrap();
                let mut of_fid = Vec::new();
                while let Some(row) = walk.next_row_of(blob, fid).unwrap() {
                    of_fid.push(row);
                }
                let want: Vec<SegRow> = part.iter().filter(|r| r[0] == fid).copied().collect();
                prop_assert_eq!(of_fid, want, "fid {}", fid);
            }
            reassembled.extend(part);
        }
        prop_assert_eq!(reassembled, rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// `Table::probe_eq` on a segmented edge table with tombstoned edges
    /// and delta-overlay rows answers a shuffled batch — repeated and
    /// missing fids, the hub's among them — with what a scan of the table
    /// filtered on each key returns, in the same order.
    #[test]
    fn probe_with_tombstones_and_overlay_matches_scan_and_filter(
        runs in prop::collection::vec((0i64..3, 1usize..30), 4..40),
        hub in 300usize..700,
        deletes in prop::collection::vec((0usize..4000, 0i64..3), 0..30),
        inserts in prop::collection::vec((-6i64..80, 0i64..50, 1i64..9), 0..30),
        probes in prop::collection::vec(-8i64..90, 1..50),
    ) {
        let rows = run_stream(3, &runs, hub);
        let mut pool = BufferPool::in_memory(64);
        let mut cat = Catalog::new();
        let cols = ["fid", "tid", "cost"]
            .iter()
            .map(|n| ColumnDef { name: (*n).into(), dtype: DataType::Int })
            .collect();
        cat.create_segmented_table(&mut pool, "TSeg", cols).unwrap();
        let t = cat.table_mut("TSeg").unwrap();
        t.bulk_load_segments(&mut pool, rows.iter().map(|r| (r[0], r[1], r[2]))).unwrap();
        // Tombstone stored edges (and an edge one tid off, often absent).
        for &(i, off) in &deletes {
            let r = rows[i % rows.len()];
            t.delta_delete_edge(&mut pool, r[0], r[1] + off).unwrap();
        }
        let mut overlay = Chunk::with_width(3);
        for &(f, tid, c) in &inserts {
            overlay.push_row(&[Value::Int(f), Value::Int(tid), Value::Int(c)]);
        }
        t.insert_chunk(&mut pool, &overlay, None).unwrap();

        let t = cat.table("TSeg").unwrap();
        let mut scanned = Vec::new();
        t.scan(&mut pool, |_, row| {
            scanned.push(row);
            true
        })
        .unwrap();
        let mut keys: Vec<Value> = probes.iter().map(|&p| Value::Int(p)).collect();
        keys.push(Value::Int(rows[rows.len() / 2][0]));
        keys.push(keys[0].clone());
        let (got, src) = probe_fids(&mut pool, &cat, &keys);
        let (mut want, mut want_src) = (Vec::new(), Vec::new());
        for (k, key) in keys.iter().enumerate() {
            for row in scanned.iter().filter(|r| r[0] == *key) {
                want.push(row.clone());
                want_src.push(k as u32);
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(src, want_src);
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The header of segment `blob` — its row count and its directory's
/// entries as `(fid, offset)` — and where its rows start.
fn split_segment(blob: &[u8]) -> (u64, Vec<(i64, u64)>, usize) {
    let mut pos = 0;
    let count = get_varint(blob, &mut pos);
    let end = get_varint(blob, &mut pos) as usize + pos;
    let (mut fid, mut off, mut entries) = (0i64, 0u64, Vec::new());
    while pos < end {
        fid = fid.wrapping_add(unzigzag(get_varint(blob, &mut pos)));
        off += get_varint(blob, &mut pos);
        entries.push((fid, off));
    }
    (count, entries, end)
}

/// `blob` with `entries` as its directory.
fn with_directory(blob: &[u8], entries: &[(i64, u64)]) -> Vec<u8> {
    let (count, _, body) = split_segment(blob);
    let mut dir = Vec::new();
    let (mut fid, mut off) = (0i64, 0u64);
    for &(f, o) in entries {
        put_varint(&mut dir, zigzag(f.wrapping_sub(fid)));
        put_varint(&mut dir, o.wrapping_sub(off));
        (fid, off) = (f, o);
    }
    let mut out = Vec::new();
    put_varint(&mut out, count);
    put_varint(&mut out, dir.len() as u64);
    out.extend_from_slice(&dir);
    out.extend_from_slice(&blob[body..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// A directory with an entry whose offset points past the blob, or
    /// with two entries out of order (by fid or by offset), makes a seek
    /// that reads that far a `StorageError::Corrupt`; a seek to any other
    /// fid returns, and nothing panics.
    #[test]
    fn a_corrupt_directory_is_an_error_not_a_panic(
        width in 3usize..=4,
        runs in prop::collection::vec((1i64..4, 2usize..12), 40..60),
        pick in 0usize..1000,
        kind in 0usize..4,
        past in 0u64..5000,
    ) {
        let rows = run_stream(width, &runs, 0);
        let mut packer = SegmentPacker::new(width).unwrap();
        let seg = rows.iter().find_map(|&r| packer.push(r)).or_else(|| packer.finish()).unwrap();
        let blob = seg.blob;
        let (_, mut entries, body) = split_segment(&blob);
        prop_assert!(entries.len() >= 2, "{} entries", entries.len());
        let i = pick % (entries.len() - 1);
        match kind {
            // An offset at or past the blob's end.
            0 => entries[i].1 = (blob.len() - body) as u64 + past,
            // Two entries swapped: fids and offsets fall.
            1 => entries.swap(i, i + 1),
            // A fid that does not rise.
            2 => entries[i + 1].0 = entries[i].0 - (past as i64 % 3),
            // An offset that does not rise.
            _ => entries[i + 1].1 = entries[i].1 - (past % (entries[i].1 + 1)).min(entries[i].1),
        }
        let bad = with_directory(&blob, &entries);
        let mut cursor = SegmentCursor::new(&bad, width).unwrap();
        let err = cursor.seek(&bad, i64::MAX);
        prop_assert!(matches!(err, Err(StorageError::Corrupt(_))), "{:?}", err);
        let fids: Vec<i64> = rows.iter().map(|r| r[0]).collect();
        for fid in targets(&fids) {
            let mut cursor = SegmentCursor::new(&bad, width).unwrap();
            if cursor.seek(&bad, fid).is_ok() {
                while let Ok(Some(_)) = cursor.next_row(&bad) {}
            }
        }
    }
}
