//! Microbenchmarks of the storage substrate: buffer-pool page access,
//! B+tree operations and the heap row decoder.

use criterion::{criterion_group, criterion_main, Criterion};
use fempath_storage::{
    encode_row, BTree, BTreeBulkBuilder, BufferPool, Chunk, ColSet, HeapFile, Value, CHUNK_CAPACITY,
};
use std::hint::black_box;

fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool");
    group.sample_size(20);

    group.bench_function("hit_read", |b| {
        let mut pool = BufferPool::in_memory(64);
        let pid = pool.allocate_page().unwrap();
        b.iter(|| {
            let v = pool.read_page(pid, |buf| buf[17]).unwrap();
            black_box(v);
        });
    });

    group.bench_function("miss_cycle_100_pages_pool_10", |b| {
        let mut pool = BufferPool::in_memory(10);
        let pids: Vec<_> = (0..100).map(|_| pool.allocate_page().unwrap()).collect();
        b.iter(|| {
            for &pid in &pids {
                pool.read_page(pid, |buf| buf[0]).unwrap();
            }
        });
    });
    group.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group.sample_size(20);

    group.bench_function("insert_10k_sequential", |b| {
        b.iter(|| {
            let mut pool = BufferPool::in_memory(512);
            let mut t = BTree::create(&mut pool).unwrap();
            for i in 0..10_000u64 {
                t.insert(&mut pool, &i.to_be_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            black_box(t.len());
        });
    });

    group.bench_function("get_from_10k", |b| {
        let mut pool = BufferPool::in_memory(512);
        let mut t = BTree::create(&mut pool).unwrap();
        for i in 0..10_000u64 {
            t.insert(&mut pool, &i.to_be_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(t.get(&mut pool, &i.to_be_bytes()).unwrap());
        });
    });

    group.bench_function("prefix_scan_degree3", |b| {
        // The E-operator's inner probe: a clustered prefix scan per node.
        let mut pool = BufferPool::in_memory(512);
        let mut t = BTree::create(&mut pool).unwrap();
        for node in 0..3000u64 {
            for e in 0..3u64 {
                let mut key = node.to_be_bytes().to_vec();
                key.extend_from_slice(&e.to_be_bytes());
                t.insert(&mut pool, &key, b"payload").unwrap();
            }
        }
        let mut node = 0u64;
        b.iter(|| {
            node = (node + 997) % 3000;
            let mut n = 0;
            t.scan_prefix(&mut pool, &node.to_be_bytes(), |_, _| {
                n += 1;
                true
            })
            .unwrap();
            black_box(n);
        });
    });
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_load");
    group.sample_size(20);

    // Row-at-a-time insertion of 10k sorted keys — the per-row INSERT
    // baseline of the fig6-scaled experiment, at microbench scale.
    group.bench_function("row_at_a_time_10k", |b| {
        b.iter(|| {
            let mut pool = BufferPool::in_memory(512);
            let mut t = BTree::create(&mut pool).unwrap();
            for i in 0..10_000u64 {
                t.insert(&mut pool, &i.to_be_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            black_box(t.len());
        });
    });

    // Bottom-up bulk build of the same 10k keys: leaves are packed
    // left-to-right and inner levels grown once, with no top-down splits.
    group.bench_function("bottom_up_10k", |b| {
        b.iter(|| {
            let mut pool = BufferPool::in_memory(512);
            let mut t = BTree::create(&mut pool).unwrap();
            let mut builder = BTreeBulkBuilder::for_tree(&t, &mut pool).unwrap();
            for i in 0..10_000u64 {
                builder
                    .push(&mut pool, &i.to_be_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            t.bulk_finish(&mut pool, builder).unwrap();
            black_box(t.len());
        });
    });
    group.finish();
}

/// What decoding costs per heap row, with no SQL above it: a cursor scan
/// reading 3 of the 7 INT columns of 300 `TVisited`-shaped rows (the
/// `d2s`, `f` and `d2t` a frontier pick reads; the workload's mean
/// |TVisited| is about 270). ns/row = time / 300.
fn bench_heap_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap_decode");
    group.sample_size(20);
    const ROWS: i64 = 300;
    group.bench_function(&format!("3_of_7/{ROWS}"), |b| {
        let mut pool = BufferPool::in_memory(64);
        let mut heap = HeapFile::create();
        let rows: Vec<Vec<u8>> = (0..ROWS)
            .map(|u| encode_row(&[u, u % 97, u / 2, u % 10, -1, -1, 0].map(Value::Int)))
            .collect();
        heap.insert_batch(&mut pool, &rows).unwrap();
        let cols = ColSet::of([1, 3, 4]);
        let mut chunk = Chunk::new();
        b.iter(|| {
            chunk.reset();
            let mut cursor = heap.batch_cursor();
            while cursor
                .next_batch(&heap, &mut pool, &mut chunk, &cols, None, CHUNK_CAPACITY)
                .unwrap()
            {}
            black_box(chunk.len());
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_buffer_pool,
    bench_btree,
    bench_bulk_load,
    bench_heap_decode
);
criterion_main!(benches);
