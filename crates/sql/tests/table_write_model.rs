//! Model test of the one write path: random sequences of
//! `Table::insert_chunk`, `Table::update_rows` and
//! `Table::delete_rows` run against a plain list of rows on each of six
//! storages — a heap, a heap with a unique secondary index, a unique and a
//! non-unique clustered table, and a 3- and a 4-column segmented table
//! (whose inserts land in the delta overlay and whose updates and deletes
//! are refused).
//!
//! After every step the table's rows, `len()` and the answer of every
//! index probe must be the model's — a segmented table's probe of its key
//! in the model's own order: base rows as loaded, then the inserted ones —
//! and a batch probe of shuffled,
//! repeated keys must answer in order what its one-key probes do. A refused insert or update must name
//! the key the model says repeats, and leave applied exactly the rows
//! before the offender. A row located twice by one update keeps its first
//! assignment.
//!
//! Case count honours `PROPTEST_CASES` (CI's property sweep runs 512).

use fempath_sql::ast::{ColumnDef, CreateIndex};
use fempath_sql::catalog::{BatchLocs, EqMatches};
use fempath_sql::{Catalog, RowLoc, SqlError, Table};
use fempath_storage::{BufferPool, Chunk, ColSet, Column, DataType, Value};
use proptest::prelude::*;

/// A cell: an integer of a small domain, so that keys collide, or NULL.
type Cell = Option<i64>;
/// A row of `t(a, b, c, d)`; `d` is `None` in the 3-column storages.
type Row = [Cell; 4];

/// Integers are drawn from `0..DOMAIN`.
const DOMAIN: i64 = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Inserts the rows, in order.
    Insert(Vec<Row>),
    /// Sets column `col` of the rows whose first column is `key` (every
    /// row when `None`), the `i`-th located row to `vals[i % len]`. The
    /// rows are located in scan order, or the reverse with `reverse` (so
    /// arrival and locator order differ). With `repeat`, every row is
    /// located a second time with another value, which must lose.
    Update {
        key: Option<i64>,
        col: usize,
        vals: Vec<Cell>,
        repeat: bool,
        reverse: bool,
    },
    /// Deletes the rows whose column `col` is `key`.
    Delete { col: usize, key: i64 },
}

#[derive(Debug, Clone, Copy)]
enum Storage {
    /// No index.
    Heap,
    /// A unique index on `b`, then a non-unique one on `a`.
    HeapUnique,
    /// Clustered uniquely on `a`, a unique index on `b`.
    ClusteredUnique,
    /// Clustered on `a`, a non-unique index on `c`.
    Clustered,
    /// Segment-compressed, loaded with [`SEGMENT_BASE`].
    Segmented,
    /// Segment-compressed with four columns, a SegTable's shape, loaded
    /// with [`SEGMENT4_BASE`]: within an `a` the rows keep their written
    /// order, and `c` (a SegTable's `pid`) lies on both sides of `a`.
    Segmented4,
}

/// The base rows of the segmented table.
const SEGMENT_BASE: [(i64, i64, i64); 4] = [(0, 1, 1), (1, 2, 3), (2, 0, 0), (3, 3, 2)];

/// The base rows of the 4-column segmented table.
const SEGMENT4_BASE: [[i64; 4]; 6] = [
    [0, 3, 0, 1],
    [0, 1, 3, 2],
    [1, 2, -40, 3],
    [1, 0, 1, 0],
    [1, 2, 7000, 1],
    [3, 3, 2, 2],
];

impl Storage {
    /// The columns of `t`.
    fn width(self) -> usize {
        match self {
            Storage::Segmented4 => 4,
            _ => 3,
        }
    }

    fn segmented(self) -> bool {
        matches!(self, Storage::Segmented | Storage::Segmented4)
    }

    /// `row` as `t` holds it: without `d` when `t` has three columns.
    fn fit(self, mut row: Row) -> Row {
        if self.width() == 3 {
            row[3] = None;
        }
        row
    }

    /// The unique keys, in the order a write checks them: the secondary
    /// indexes as created, then the clustering key.
    fn unique_keys(self) -> Vec<usize> {
        match self {
            Storage::HeapUnique => vec![1],
            Storage::ClusteredUnique => vec![1, 0],
            _ => vec![],
        }
    }

    /// A pool and catalog holding the empty (or, segmented, base-loaded)
    /// table `t(a, b, c)`, and the model of its rows.
    fn setup(self) -> (BufferPool, Catalog, Vec<Row>) {
        let mut pool = BufferPool::in_memory(64);
        let mut cat = Catalog::new();
        let cols: Vec<ColumnDef> = ["a", "b", "c", "d"][..self.width()]
            .iter()
            .map(|n| ColumnDef {
                name: (*n).into(),
                dtype: DataType::Int,
            })
            .collect();
        match self {
            Storage::Segmented => {
                cat.create_segmented_table(&mut pool, "t", cols).unwrap();
                let t = cat.table_mut("t").unwrap();
                t.bulk_load_segments(&mut pool, SEGMENT_BASE).unwrap();
                let model = SEGMENT_BASE
                    .iter()
                    .map(|&(a, b, c)| [Some(a), Some(b), Some(c), None])
                    .collect();
                return (pool, cat, model);
            }
            Storage::Segmented4 => {
                cat.create_segmented_table(&mut pool, "t", cols).unwrap();
                let mut load = cat.table("t").unwrap().segment_load(&mut pool).unwrap();
                for row in SEGMENT4_BASE {
                    load.push(&mut pool, row).unwrap();
                }
                let t = cat.table_mut("t").unwrap();
                t.finish_segment_load(&mut pool, load).unwrap();
                let model = SEGMENT4_BASE.iter().map(|r| r.map(Some)).collect();
                return (pool, cat, model);
            }
            _ => {}
        }
        cat.create_table(&mut pool, "t", cols, None).unwrap();
        let indexes: &[(&str, bool, bool)] = match self {
            Storage::Heap | Storage::Segmented | Storage::Segmented4 => &[],
            Storage::HeapUnique => &[("b", true, false), ("a", false, false)],
            Storage::ClusteredUnique => &[("a", true, true), ("b", true, false)],
            Storage::Clustered => &[("a", false, true), ("c", false, false)],
        };
        for (i, &(col, unique, clustered)) in indexes.iter().enumerate() {
            let stmt = CreateIndex {
                name: format!("i{i}"),
                table: "t".into(),
                columns: vec![col.into()],
                unique,
                clustered,
            };
            cat.create_index(&mut pool, &stmt).unwrap();
        }
        (pool, cat, Vec::new())
    }
}

fn value(c: Cell) -> Value {
    c.map_or(Value::Null, Value::Int)
}

fn cell(v: &Value) -> Cell {
    match v {
        Value::Int(i) => Some(*i),
        Value::Null => None,
        other => panic!("unexpected value {other:?}"),
    }
}

fn chunk_of(rows: &[Row], width: usize) -> Chunk {
    let mut chunk = Chunk::with_width(width);
    for row in rows {
        chunk.push_row(&row.map(value)[..width]);
    }
    chunk
}

/// Row `r` of `chunk`, `d` `None` when the chunk has three columns.
fn row_at(chunk: &Chunk, r: usize) -> Row {
    [0, 1, 2, 3].map(|c| {
        (c < chunk.width())
            .then(|| cell(&chunk.get(c, r)))
            .flatten()
    })
}

/// How the model says a write fails: a repeated unique key, printed as
/// the error prints it, or a refusal of segmented storage.
#[derive(Debug, PartialEq)]
enum Refusal {
    Duplicate(String),
    Refused,
}

fn refusal(err: SqlError) -> Refusal {
    match err {
        SqlError::DuplicateKey { table, key } => {
            assert_eq!(table, "t");
            Refusal::Duplicate(key)
        }
        SqlError::Eval(_) => Refusal::Refused,
        other => panic!("unexpected error {other:?}"),
    }
}

fn key_text(row: &Row, c: usize) -> String {
    format!("({})", value(row[c]))
}

/// The key of `unique` that `row` would repeat among `others`.
fn repeated(row: &Row, others: &[Row], unique: &[usize]) -> Option<Refusal> {
    unique
        .iter()
        .find(|&&c| others.iter().any(|o| o[c] == row[c]))
        .map(|&c| Refusal::Duplicate(key_text(row, c)))
}

/// The model's insert: rows go in one at a time until one is refused.
fn model_insert(model: &mut Vec<Row>, rows: &[Row], storage: Storage) -> Option<Refusal> {
    for row in rows {
        if storage.segmented() && row[..storage.width()].iter().any(Option::is_none) {
            return Some(Refusal::Refused);
        }
        if let Some(r) = repeated(row, model, &storage.unique_keys()) {
            return Some(r);
        }
        model.push(*row);
    }
    None
}

/// The model's update: each `(old, new)` in turn replaces one row equal
/// to `old`, until a changed unique key repeats another row's.
fn model_update(model: &mut [Row], changes: &[(Row, Row)], storage: Storage) -> Option<Refusal> {
    for (old, new) in changes {
        let at = model.iter().position(|r| r == old).expect("located row");
        let others: Vec<Row> = (0..model.len())
            .filter(|&i| i != at)
            .map(|i| model[i])
            .collect();
        let changed: Vec<usize> = storage
            .unique_keys()
            .into_iter()
            .filter(|&c| old[c] != new[c])
            .collect();
        if let Some(r) = repeated(new, &others, &changed) {
            return Some(r);
        }
        model[at] = *new;
    }
    None
}

/// The locators and stored rows of the rows `keep` accepts, in scan order.
fn located(
    pool: &mut BufferPool,
    t: &Table,
    keep: impl Fn(&Row) -> bool,
) -> (Vec<RowLoc>, Vec<Row>) {
    let mut locs = Vec::new();
    let mut rows = Vec::new();
    t.scan(pool, |loc, row| {
        let row = [0, 1, 2, 3].map(|c| row.get(c).and_then(cell));
        if keep(&row) {
            locs.push(loc);
            rows.push(row);
        }
        true
    })
    .unwrap();
    (locs, rows)
}

fn batch(locs: &[RowLoc]) -> BatchLocs {
    let mut batch = BatchLocs::default();
    locs.iter().for_each(|loc| batch.push(loc));
    batch
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_unstable();
    rows
}

/// The table holds the model's rows, and every probe — along each index,
/// the clustering or segment key, and a scan of the other columns — finds
/// the model's; the segment key's in the model's order.
fn check(pool: &mut BufferPool, t: &Table, model: &[Row], storage: Storage) {
    assert_eq!(t.len(), model.len() as u64, "{storage:?} len");
    let (_, rows) = located(pool, t, |_| true);
    assert_eq!(sorted(rows), sorted(model.to_vec()), "{storage:?} rows");
    for c in 0..storage.width() {
        let path = t.probe_path(&[c]);
        for v in 0..DOMAIN {
            let mut found = Chunk::with_width(storage.width());
            let out = EqMatches {
                rows: &mut found,
                src: None,
                locs: None,
            };
            t.probe_eq(pool, path, &[c], &[Value::Int(v)], &ColSet::all(), out)
                .unwrap();
            let got: Vec<Row> = (0..found.len()).map(|r| row_at(&found, r)).collect();
            let want: Vec<Row> = model.iter().filter(|r| r[c] == Some(v)).copied().collect();
            if storage.segmented() && c == 0 {
                assert_eq!(got, want, "{storage:?} probe {path:?} of {c} = {v}");
            } else {
                assert_eq!(
                    sorted(got),
                    sorted(want),
                    "{storage:?} probe {path:?} of {c} = {v}"
                );
            }
        }
        check_batch_probe(pool, t, c, storage);
    }
}

/// What one probe of `keys` along column `c` returns: every match's row,
/// the position of the key it answers, and its locator, in order.
type Probed = (Vec<Vec<Value>>, Vec<u32>, Vec<RowLoc>);

fn probe_batch(pool: &mut BufferPool, t: &Table, c: usize, keys: &[Value]) -> Probed {
    let mut found = Chunk::with_width(t.schema.columns.len());
    let mut src = Vec::new();
    let mut locs = BatchLocs::default();
    let out = EqMatches {
        rows: &mut found,
        src: Some(&mut src),
        locs: Some(&mut locs),
    };
    t.probe_eq(pool, t.probe_path(&[c]), &[c], keys, &ColSet::all(), out)
        .unwrap();
    let rows = (0..found.len()).map(|r| found.row(r)).collect();
    let locs = (0..locs.len()).map(|r| locs.loc(r)).collect();
    (rows, src, locs)
}

/// A batch probe along column `c` whose keys come shuffled, repeated and
/// descending, with missing keys and a NULL among them, returns in order
/// the concatenation of the one-key probes: the same rows, key positions
/// and locators. The long batch is sorted by the probe; the short one is
/// probed in its own order.
fn check_batch_probe(pool: &mut BufferPool, t: &Table, c: usize, storage: Storage) {
    let long = [
        Some(3),
        Some(2),
        Some(1),
        Some(0),
        None,
        Some(DOMAIN + 5),
        Some(1),
        Some(3),
        Some(0),
        Some(-1),
        Some(2),
        Some(1),
        Some(2),
    ];
    let short = [Some(2), Some(0), None, Some(2), Some(1)];
    for batch in [&long[..], &short[..]] {
        let keys: Vec<Value> = batch.iter().map(|&k| value(k)).collect();
        let mut want: Probed = Default::default();
        for (k, key) in keys.iter().enumerate() {
            let (rows, src, locs) = probe_batch(pool, t, c, std::slice::from_ref(key));
            assert!(src.iter().all(|&s| s == 0));
            want.1.extend(src.iter().map(|_| k as u32));
            want.0.extend(rows);
            want.2.extend(locs);
        }
        let got = probe_batch(pool, t, c, &keys);
        assert_eq!(
            got, want,
            "{storage:?} batch probe of column {c}: {batch:?}"
        );
    }
}

fn run(storage: Storage, ops: &[Op]) {
    let (mut pool, mut cat, mut model) = storage.setup();
    let pool = &mut pool;
    let t = cat.table_mut("t").unwrap();
    check(pool, t, &model, storage);
    let width = storage.width();
    for op in ops {
        match op {
            Op::Insert(rows) => {
                let rows: Vec<Row> = rows.iter().map(|&r| storage.fit(r)).collect();
                let rows = &rows;
                let got = t.insert_chunk(pool, &chunk_of(rows, width), None);
                let want = model_insert(&mut model, rows, storage);
                match want {
                    None => assert_eq!(got.unwrap(), rows.len() as u64, "{op:?}"),
                    Some(want) => assert_eq!(refusal(got.unwrap_err()), want, "{op:?}"),
                }
            }
            Op::Update {
                key,
                col,
                vals,
                repeat,
                reverse,
            } => {
                let (mut locs, mut old) = located(pool, t, |r| key.is_none_or(|k| r[0] == Some(k)));
                if *reverse {
                    locs.reverse();
                    old.reverse();
                }
                let mut new: Vec<Cell> = (0..old.len()).map(|i| vals[i % vals.len()]).collect();
                let changes: Vec<(Row, Row)> = old
                    .iter()
                    .zip(&new)
                    .map(|(o, &v)| {
                        let mut n = *o;
                        n[*col] = v;
                        (*o, n)
                    })
                    .collect();
                if *repeat {
                    locs.extend_from_within(..);
                    old.extend_from_within(..);
                    new.extend((0..changes.len()).map(|i| Some(DOMAIN + i as i64)));
                }
                let vals = [Column::Generic(new.iter().map(|&v| value(v)).collect())];
                let mode = t.update_mode(&[*col]);
                let old = chunk_of(&old, width);
                let got = t.update_rows(pool, &batch(&locs), &[*col], &vals, &old, mode);
                let want = match storage {
                    _ if storage.segmented() && !changes.is_empty() => Some(Refusal::Refused),
                    _ => model_update(&mut model, &changes, storage),
                };
                match want {
                    None => assert_eq!(got.unwrap(), changes.len() as u64, "{op:?}"),
                    Some(want) => assert_eq!(refusal(got.unwrap_err()), want, "{op:?}"),
                }
            }
            Op::Delete { col, key } => {
                let hit = |r: &Row| r[*col] == Some(*key);
                let (locs, rows) = located(pool, t, hit);
                let got = t.delete_rows(pool, &batch(&locs), &chunk_of(&rows, width));
                match storage {
                    _ if storage.segmented() && !rows.is_empty() => {
                        assert_eq!(refusal(got.unwrap_err()), Refusal::Refused)
                    }
                    _ => {
                        got.unwrap();
                        model.retain(|r| !hit(r));
                    }
                }
            }
        }
        check(pool, t, &model, storage);
    }
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    (0..2 * DOMAIN).prop_map(|v| (v < 2 * DOMAIN - 1).then_some(v % DOMAIN))
}

fn arb_op() -> impl Strategy<Value = Op> {
    let rows = prop::collection::vec((arb_cell(), arb_cell(), arb_cell(), arb_cell()), 1..6)
        .prop_map(|rows| rows.into_iter().map(|(a, b, c, d)| [a, b, c, d]).collect());
    prop_oneof![
        rows.prop_map(Op::Insert),
        (
            prop::option::of(0..DOMAIN),
            0usize..3,
            prop::collection::vec(arb_cell(), 1..4),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(key, col, vals, repeat, reverse)| Op::Update {
                key,
                col,
                vals,
                repeat,
                reverse,
            }),
        (0usize..3, 0..DOMAIN).prop_map(|(col, key)| Op::Delete { col, key }),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(arb_op(), 1..16)
}

proptest! {
    #[test]
    fn heap_writes_match_the_model(ops in arb_ops()) {
        run(Storage::Heap, &ops);
    }

    #[test]
    fn unique_indexed_heap_writes_match_the_model(ops in arb_ops()) {
        run(Storage::HeapUnique, &ops);
    }

    #[test]
    fn unique_clustered_writes_match_the_model(ops in arb_ops()) {
        run(Storage::ClusteredUnique, &ops);
    }

    #[test]
    fn clustered_writes_match_the_model(ops in arb_ops()) {
        run(Storage::Clustered, &ops);
    }

    #[test]
    fn segmented_writes_match_the_model(ops in arb_ops()) {
        run(Storage::Segmented, &ops);
    }

    #[test]
    fn four_column_segmented_writes_match_the_model(ops in arb_ops()) {
        run(Storage::Segmented4, &ops);
    }
}
