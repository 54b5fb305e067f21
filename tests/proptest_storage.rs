//! Property-based tests of the storage substrate: the B+tree against a
//! `BTreeMap` model (also probed on one leaf walk in any key order, and
//! built by inserts on one walk), key-encoding order preservation, row
//! round-trips,
//! the batch row decoder under the heap cursor, the heap's page-choice
//! rule and the column null bitmap against a `Vec<bool>` model.

use fempath::storage::{
    decode_key, decode_row, decode_rows_into_chunk, encode_key, encode_row, patch_fixed_cells,
    BTree, BufferPool, Chunk, ColSet, Column, HeapFile, LeafWalk, NullMask, RecordId, StorageError,
    Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Text),
    ]
}

/// Rows of one arity (0..=7): mixed NULL/INT/FLOAT/TEXT, or — every other
/// case — fixed-width cells only, the shape of the FEM working tables.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        0usize..8,
        any::<bool>(),
        prop::collection::vec(prop::collection::vec(arb_value(), 7), 1..4),
    )
        .prop_map(|(n, fixed, rows)| {
            rows.into_iter()
                .map(|mut row| {
                    row.truncate(n);
                    for (c, v) in row.iter_mut().enumerate() {
                        if fixed && matches!(v, Value::Null | Value::Text(_)) {
                            *v = Value::Int(c as i64 - 3);
                        }
                    }
                    row
                })
                .collect()
        })
}

/// A batch of 1–300 rows of one arity (0..=7), as the storage cursors
/// hand the decoder a page: mostly rows of INT cells only — the FEM shape,
/// decoded a run at a time — broken, at a rate drawn per batch (none, a
/// few, a quarter, nearly all), by rows of any cells: NULL, INT, FLOAT,
/// TEXT.
fn arb_batch() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (
        0usize..8,
        0usize..4,
        prop::collection::vec((any::<u8>(), prop::collection::vec(arb_value(), 7)), 1..301),
    )
        .prop_map(|(n, rate, rows)| {
            let odd_below = [0u8, 8, 64, 255][rate];
            rows.into_iter()
                .map(|(roll, mut row)| {
                    row.truncate(n);
                    if roll >= odd_below {
                        for (c, v) in row.iter_mut().enumerate() {
                            if !matches!(v, Value::Int(_)) {
                                *v = Value::Int(c as i64 - 3);
                            }
                        }
                    }
                    row
                })
                .collect()
        })
}

/// The ordinals whose bit is set in `mask`.
fn subset(mask: u32, n: usize) -> Vec<usize> {
    (0..n).filter(|c| mask & (1 << c) != 0).collect()
}

/// One batch decode of `rows` (encoded) under `set`.
fn decode_batch(rows: &[Vec<u8>], set: &ColSet) -> Result<Chunk, StorageError> {
    let mut chunk = Chunk::new();
    decode_rows_into_chunk(rows.iter().map(Vec::as_slice), &mut chunk, set)?;
    Ok(chunk)
}

/// One step of the `NullMask` model property.
#[derive(Debug, Clone)]
enum MaskOp {
    Push(bool),
    ExtendValid(usize),
    /// Marks the row at this fraction (in 1/256ths) of the tracked rows.
    SetNull(u8),
    Clear,
}

fn arb_mask_op() -> impl Strategy<Value = MaskOp> {
    prop_oneof![
        any::<bool>().prop_map(MaskOp::Push),
        any::<bool>().prop_map(MaskOp::Push),
        (0usize..150).prop_map(MaskOp::ExtendValid),
        any::<u8>().prop_map(MaskOp::SetNull),
        Just(MaskOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `NullMask` is a `Vec<bool>`: `push` / `extend_valid` / `set_null` /
    /// `clear` keep `get`, `count`, `any` and `len` equal to the model's
    /// after every step — across word boundaries, and whether or not the
    /// mask has materialized words (a mask without NULLs holds none).
    #[test]
    fn null_mask_matches_a_vec_of_bools(
        ops in prop::collection::vec(arb_mask_op(), 0..60),
    ) {
        let mut mask = NullMask::new();
        let mut model: Vec<bool> = Vec::new();
        for op in ops {
            match op {
                MaskOp::Push(null) => {
                    mask.push(null);
                    model.push(null);
                }
                MaskOp::ExtendValid(k) => {
                    mask.extend_valid(k);
                    model.resize(model.len() + k, false);
                }
                MaskOp::SetNull(at) if !model.is_empty() => {
                    let i = model.len() * at as usize / 256;
                    mask.set_null(i);
                    model[i] = true;
                }
                MaskOp::SetNull(_) => {}
                MaskOp::Clear => {
                    mask.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(mask.len(), model.len());
            prop_assert_eq!(mask.count(), model.iter().filter(|&&b| b).count());
            prop_assert_eq!(mask.any(), model.contains(&true));
            for (i, &b) in model.iter().enumerate() {
                prop_assert_eq!(mask.get(i), b, "row {}", i);
            }
        }
        prop_assert_eq!(NullMask::all_valid(model.len()).count(), 0);
    }

    /// A projected decode is the full decode restricted to the set: wanted
    /// columns hold exactly the full decode's values, the others stay
    /// empty, the row count advances regardless — for every subset of the
    /// columns, the empty one included, and the everything-set.
    #[test]
    fn projected_decode_is_full_decode_restricted(rows in arb_batch()) {
        let n = rows[0].len();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| encode_row(r)).collect();
        let sets = (0..1u32 << n)
            .map(|mask| (ColSet::of(subset(mask, n)), subset(mask, n)))
            .chain([(ColSet::all(), (0..n).collect())]);
        for (set, wanted) in sets {
            let chunk = decode_batch(&encoded, &set).unwrap();
            prop_assert_eq!(chunk.len(), rows.len());
            for (c, col) in chunk.into_columns().into_iter().enumerate() {
                if wanted.contains(&c) {
                    let got: Vec<Value> = (0..rows.len()).map(|r| col.get(r)).collect();
                    let want: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                    prop_assert_eq!(got, want, "column {} under {:?}", c, wanted);
                } else {
                    prop_assert!(col.is_empty(), "column {} not in {:?} was filled", c, wanted);
                }
            }
        }
    }

    /// Skipping a column does not skip its validation: a row cut short
    /// inside a skipped cell, or carrying an unknown tag there, is
    /// `Corrupt` whatever the set asks for — wherever in the batch the
    /// damaged row sits, with every row before it decoded.
    #[test]
    fn damage_in_a_skipped_column_is_still_corrupt(
        rows in arb_batch(),
        pick_row in any::<u32>(),
        pick in any::<u32>(),
        mask in any::<u32>(),
    ) {
        let n = rows[0].len();
        if n == 0 {
            return;
        }
        let at = pick_row as usize % rows.len();
        let row = &rows[at];
        let damaged = pick as usize % n;
        let wanted: Vec<usize> =
            subset(mask, n).into_iter().filter(|&c| c != damaged).collect();
        let set = ColSet::of(wanted);
        let mut encoded: Vec<Vec<u8>> = rows.iter().map(|r| encode_row(r)).collect();
        let bytes = encoded[at].clone();
        let cell_start = encode_row(&row[..damaged]).len();
        let cell_end = encode_row(&row[..=damaged]).len();

        let mut bad_tag = bytes.clone();
        bad_tag[cell_start] = 0x7F;
        let mut cases = vec![bad_tag];
        // Every cut strictly inside the cell (a NULL cell is its tag alone,
        // so cutting it removes the cell whole — still short of the arity).
        cases.extend((cell_start..cell_end).map(|cut| bytes[..cut].to_vec()));
        for case in cases {
            encoded[at] = case;
            let mut chunk = Chunk::new();
            let got = decode_rows_into_chunk(encoded.iter().map(Vec::as_slice), &mut chunk, &set);
            prop_assert!(
                matches!(got, Err(StorageError::Corrupt(_))),
                "column {} of row {} ({:?}) damaged, got {:?}",
                damaged,
                at,
                row,
                got
            );
            prop_assert_eq!(chunk.len(), at, "rows before the damaged one");
        }
    }

    /// The heap cursor, a page at a time: for any `max` up to a page's
    /// rows, with and without record ids, over pages with dead slots, the
    /// batches it yields — none above `max` — are exactly the rows and ids
    /// of `HeapFile::scan` + `decode_row`.
    #[test]
    fn heap_cursor_yields_exactly_the_scan(
        rows in arb_batch(),
        dead in prop::collection::vec(any::<bool>(), 300),
        pick_max in any::<u32>(),
        with_rids in any::<bool>(),
    ) {
        let mut pool = BufferPool::in_memory(64);
        let mut heap = HeapFile::create();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| encode_row(r)).collect();
        let rids = heap.insert_batch(&mut pool, &encoded).unwrap();
        let victims: Vec<RecordId> = rids
            .iter()
            .zip(&dead)
            .filter(|(_, d)| **d)
            .map(|(&rid, _)| rid)
            .collect();
        heap.delete_batch(&mut pool, &victims).unwrap();
        let per_page = rids.iter().filter(|r| r.page == 0).count();
        let max = 1 + pick_max as usize % per_page;

        let mut want_rows = Vec::new();
        let mut want_rids = Vec::new();
        heap.scan(&mut pool, |rid, bytes| {
            want_rids.push(rid);
            want_rows.push(decode_row(bytes).unwrap());
            true
        })
        .unwrap();

        let mut got = Chunk::new();
        let mut got_rids: Vec<RecordId> = Vec::new();
        let mut cursor = heap.batch_cursor();
        loop {
            let before = got.len();
            let locs = with_rids.then_some(&mut got_rids);
            let more = cursor
                .next_batch(&heap, &mut pool, &mut got, &ColSet::all(), locs, max)
                .unwrap();
            prop_assert!(got.len() - before <= max, "batch above max {}", max);
            if !more {
                break;
            }
        }
        prop_assert_eq!(got.to_rows(), want_rows);
        if with_rids {
            prop_assert_eq!(got_rids, want_rids);
        }
    }

    /// The heap's one page-choice rule: records inserted in one
    /// `insert_batch` call land exactly where calls of one record each put
    /// them — the same ids, the same scan, the same page count — also once
    /// deletes have left free space in earlier pages.
    #[test]
    fn heap_batch_and_single_inserts_agree(
        first in prop::collection::vec(1usize..3000, 1..40),
        dead in prop::collection::vec(any::<bool>(), 40),
        then in prop::collection::vec(1usize..3000, 1..40),
    ) {
        let records = |lens: &[usize], tag: usize| -> Vec<Vec<u8>> {
            lens.iter().enumerate().map(|(i, &n)| vec![(tag + i) as u8; n]).collect()
        };
        let mut runs = Vec::new();
        for one_at_a_time in [false, true] {
            let mut pool = BufferPool::in_memory(64);
            let mut heap = HeapFile::create();
            let rids = heap.insert_batch(&mut pool, &records(&first, 0)).unwrap();
            let victims: Vec<RecordId> = rids
                .iter()
                .zip(&dead)
                .filter(|(_, d)| **d)
                .map(|(&rid, _)| rid)
                .collect();
            heap.delete_batch(&mut pool, &victims).unwrap();
            let new = records(&then, 100);
            let placed: Vec<RecordId> = if one_at_a_time {
                new.iter()
                    .map(|r| heap.insert_batch(&mut pool, &[r]).unwrap()[0])
                    .collect()
            } else {
                heap.insert_batch(&mut pool, &new).unwrap()
            };
            let mut scan = Vec::new();
            heap.scan(&mut pool, |rid, bytes| {
                scan.push((rid, bytes.to_vec()));
                true
            })
            .unwrap();
            runs.push((placed, scan, heap.num_pages(), heap.len()));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
    }

    /// The in-place cell patch of the UPDATE write phase: on a row of
    /// fixed-width cells receiving fixed-width values it leaves exactly
    /// the bytes `encode_row` gives the updated row, for every subset of
    /// assigned columns; any other row or value is refused untouched.
    #[test]
    fn cell_patch_is_reencoding_for_fixed_width_rows(
        rows in arb_rows(),
        new_rows in prop::collection::vec(prop::collection::vec(arb_value(), 7), 3),
        mask in any::<u32>(),
    ) {
        let n = rows[0].len();
        let cols = subset(mask, n);
        let fixed = |v: &Value| matches!(v, Value::Int(_) | Value::Float(_));
        // One value column per assigned ordinal; row k of it is the new
        // value of stored row k.
        let vals: Vec<Column> = cols
            .iter()
            .map(|&c| {
                let mut col = Column::new_int();
                new_rows.iter().for_each(|r| col.push(r[c].clone()));
                col
            })
            .collect();
        for (k, row) in rows.iter().enumerate() {
            let before = encode_row(row);
            let mut bytes = before.clone();
            let patched = patch_fixed_cells(&mut bytes, &cols, &vals, k);
            let patchable = row.iter().all(fixed) && cols.iter().all(|&c| fixed(&new_rows[k][c]));
            prop_assert_eq!(patched, patchable, "row {:?} cols {:?}", row, cols);
            if patched {
                let mut updated = row.clone();
                cols.iter().for_each(|&c| updated[c] = new_rows[k][c].clone());
                prop_assert_eq!(bytes, encode_row(&updated));
            } else {
                prop_assert_eq!(bytes, before, "a refused patch must not write");
            }
        }
        // A column past the row's arity is refused, not written.
        let mut bytes = encode_row(&rows[0]);
        prop_assert!(!patch_fixed_cells(&mut bytes, &[n], &[Column::repeat(&Value::Int(1), 1)], 0));
    }

    #[test]
    fn row_roundtrip(row in prop::collection::vec(arb_value(), 0..8)) {
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).unwrap();
        prop_assert_eq!(back, row);
    }

    /// Order preservation is guaranteed per column *type* (the engine
    /// coerces rows to the schema's types before encoding), so the
    /// property generates a random schema and two tuples conforming to it.
    #[test]
    fn key_encoding_preserves_order(
        schema in prop::collection::vec(0u8..3, 1..4),
        seed_a in prop::collection::vec((any::<i64>(), -1e12f64..1e12, "[a-z]{0,8}"), 4),
        seed_b in prop::collection::vec((any::<i64>(), -1e12f64..1e12, "[a-z]{0,8}"), 4),
    ) {
        let tuple = |seeds: &[(i64, f64, String)]| -> Vec<Value> {
            schema.iter().enumerate().map(|(i, ty)| match ty {
                0 => Value::Int(seeds[i].0),
                1 => Value::Float(seeds[i].1),
                _ => Value::Text(seeds[i].2.clone()),
            }).collect()
        };
        let a = tuple(&seed_a);
        let b = tuple(&seed_b);
        let ea = encode_key(&a).unwrap();
        let eb = encode_key(&b).unwrap();
        let tuple_ord = a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal);
        prop_assert_eq!(ea.cmp(&eb), tuple_ord, "a={:?} b={:?}", a, b);
        // Round-trip always holds (including Null, tested separately).
        prop_assert_eq!(decode_key(&ea).unwrap(), a);
        prop_assert_eq!(decode_key(&eb).unwrap(), b);
    }

    #[test]
    fn btree_matches_btreemap_model(
        ops in prop::collection::vec(
            (any::<u16>(), prop::option::of(any::<u32>())),
            1..300
        ),
        pool_pages in 3usize..32,
    ) {
        let mut pool = BufferPool::in_memory(pool_pages);
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (key, maybe_val) in &ops {
            let k = key.to_be_bytes().to_vec();
            match maybe_val {
                Some(v) => {
                    let val = v.to_le_bytes().to_vec();
                    let old = tree.insert(&mut pool, &k, &val).unwrap();
                    let model_old = model.insert(k, val);
                    prop_assert_eq!(old, model_old);
                }
                None => {
                    let old = tree.delete(&mut pool, &k).unwrap();
                    let model_old = model.remove(&k);
                    prop_assert_eq!(old, model_old);
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len() as u64);
        // Point lookups agree.
        for (k, v) in &model {
            let got = tree.get(&mut pool, k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        // Full scan agrees in order and content.
        let mut scanned = Vec::new();
        tree.scan_range(&mut pool, Bound::Unbounded, Bound::Unbounded, |k, v| {
            scanned.push((k.to_vec(), v.to_vec()));
            true
        }).unwrap();
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Probes on one `LeafWalk` — prefix runs, `contains`, a scan from a
    /// key — find what the model holds whatever order the keys come in,
    /// including repeats and absent keys, over trees whose leaves split
    /// and empty at random points. A tree built by inserts on one walk
    /// has the leaves of one built by plain inserts.
    #[test]
    fn btree_walk_probes_match_model(
        ops in prop::collection::vec((0u8..24, any::<u16>(), 0usize..120, any::<bool>()), 1..400),
        probes in prop::collection::vec((0u8..26, any::<u16>()), 1..60),
        sort_probes in any::<bool>(),
    ) {
        let mut pool = BufferPool::in_memory(64);
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut walked = BTree::create(&mut pool).unwrap();
        let mut walk = LeafWalk::default();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for &(group, seq, len, delete) in &ops {
            let key = [&[group][..], &seq.to_be_bytes()].concat();
            if delete {
                tree.delete(&mut pool, &key).unwrap();
                model.remove(&key);
            } else {
                let val = vec![group; len];
                tree.insert(&mut pool, &key, &val).unwrap();
                walked.insert_at(&mut pool, &mut walk, &key, &val).unwrap();
                model.insert(key, val);
            }
        }
        let leaves = |pool: &mut BufferPool, t: &BTree| {
            let mut out = Vec::new();
            t.scan_prefix_runs(pool, &mut LeafWalk::default(), &[], |run| {
                out.push(run.keys().map(<[u8]>::to_vec).collect::<Vec<_>>());
                true
            }).unwrap();
            out
        };
        if ops.iter().all(|op| !op.3) {
            prop_assert_eq!(leaves(&mut pool, &walked), leaves(&mut pool, &tree));
        }
        let mut probes = probes;
        if sort_probes {
            probes.sort_unstable();
        }
        let mut walk = LeafWalk::default();
        for &(group, seq) in &probes {
            let mut got = Vec::new();
            tree.scan_prefix_runs(&mut pool, &mut walk, &[group], |run| {
                got.extend(run.keys().zip(run.vals()).map(|(k, v)| (k.to_vec(), v.to_vec())));
                true
            }).unwrap();
            let want: Vec<_> = model
                .iter()
                .filter(|(k, _)| k[0] == group)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(got, want);
            let key = [&[group][..], &seq.to_be_bytes()].concat();
            let found = tree.contains_at(&mut pool, &mut walk, &key).unwrap();
            prop_assert_eq!(found, model.contains_key(&key));
            let mut next = None;
            tree.scan_from(&mut pool, &mut walk, &key, |k, _| {
                next = Some(k.to_vec());
                false
            }).unwrap();
            prop_assert_eq!(next.as_ref(), model.range(key.clone()..).next().map(|(k, _)| k));
        }
    }

    #[test]
    fn btree_range_scans_match_model(
        keys in prop::collection::btree_set(any::<u16>(), 1..200),
        lo in any::<u16>(),
        hi in any::<u16>(),
    ) {
        let mut pool = BufferPool::in_memory(16);
        let mut tree = BTree::create(&mut pool).unwrap();
        for k in &keys {
            tree.insert(&mut pool, &k.to_be_bytes(), b"x").unwrap();
        }
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut got = Vec::new();
        let lo_b = lo.to_be_bytes();
        let hi_b = hi.to_be_bytes();
        tree.scan_range(
            &mut pool,
            Bound::Included(&lo_b[..]),
            Bound::Excluded(&hi_b[..]),
            |k, _| {
                got.push(u16::from_be_bytes(k.try_into().unwrap()));
                true
            },
        ).unwrap();
        let expected: Vec<u16> = keys.iter().copied().filter(|k| *k >= lo && *k < hi).collect();
        prop_assert_eq!(got, expected);
    }
}
