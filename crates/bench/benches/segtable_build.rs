//! SegTable construction benchmarks (the Fig 9 companion): threshold and
//! SQL-style sensitivity on a fixed Power graph, and the build over
//! segment-compressed `TEdges` (the tier `uniform-disk` builds on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fempath_core::{build_segtable_with, GraphDb, GraphDbOptions, SqlStyle};
use fempath_graph::generate;
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let g = generate::power_law(1000, 3, 1..=100, 42);
    let mut group = c.benchmark_group("segtable_build_power1k");
    group.sample_size(10);

    for lthd in [10i64, 20, 40] {
        group.bench_with_input(BenchmarkId::new("nsql_lthd", lthd), &lthd, |b, &lthd| {
            b.iter(|| {
                let mut gdb = GraphDb::in_memory(&g).unwrap();
                let stats = build_segtable_with(&mut gdb, lthd, SqlStyle::New).unwrap();
                black_box(stats.segments);
            });
        });
    }
    group.bench_function("tsql_lthd20", |b| {
        b.iter(|| {
            let mut gdb = GraphDb::in_memory(&g).unwrap();
            let stats = build_segtable_with(&mut gdb, 20, SqlStyle::Traditional).unwrap();
            black_box(stats.segments);
        });
    });
    group.finish();
}

/// The build over segment-compressed `TEdges`: its expansion joins probe
/// the segments a frontier batch at a time (DESIGN.md §11 *Sorted batch
/// access*).
fn bench_build_segmented(c: &mut Criterion) {
    let g = generate::power_law(5000, 3, 1..=100, 42);
    let opts = GraphDbOptions {
        segmented_edges: true,
        ..Default::default()
    };
    let mut group = c.benchmark_group("segtable_build_power5k");
    group.sample_size(10);
    group.bench_function("segmented_lthd10", |b| {
        b.iter(|| {
            let mut gdb = GraphDb::new(&g, &opts).unwrap();
            let stats = build_segtable_with(&mut gdb, 10, SqlStyle::New).unwrap();
            black_box(stats.segments);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_build_segmented);
criterion_main!(benches);
