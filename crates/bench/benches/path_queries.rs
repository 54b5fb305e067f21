//! End-to-end shortest-path queries, one benchmark per algorithm, on a
//! fixed Power graph (the per-algorithm companion to Table 2/3).

use criterion::{criterion_group, criterion_main, Criterion};
use fempath_bench::harness::query_pairs;
use fempath_core::{BbfsFinder, BdjFinder, BsdjFinder, BsegFinder, GraphDb, ShortestPathFinder};
use fempath_graph::generate;
use fempath_inmem::{bidijkstra, dijkstra};
use std::hint::black_box;

const N: usize = 3000;

fn bench_algorithms(c: &mut Criterion) {
    let g = generate::power_law(N, 3, 1..=100, 42);
    let mut gdb = GraphDb::in_memory(&g).unwrap();
    gdb.build_segtable(20).unwrap();
    let pairs = query_pairs(N, 8, 42);

    let mut group = c.benchmark_group("path_query_power3k");
    group.sample_size(10);

    let mut pair_idx = 0usize;
    let mut next = move || {
        let p = pairs[pair_idx % pairs.len()];
        pair_idx += 1;
        p
    };

    macro_rules! bench_finder {
        ($name:literal, $finder:expr) => {
            let (s, t) = next();
            group.bench_function($name, |b| {
                b.iter(|| {
                    let out = $finder.find_path(&mut gdb, s, t).unwrap();
                    black_box(out.stats.expansions);
                });
            });
        };
    }

    bench_finder!("bdj", BdjFinder::default());
    bench_finder!("bsdj", BsdjFinder::default());
    bench_finder!("bbfs", BbfsFinder);
    bench_finder!("bseg20", BsegFinder::default());

    let (s, t) = next();
    group.bench_function("mdj_inmem", |b| {
        b.iter(|| {
            black_box(dijkstra::shortest_path(&g, s as u32, t as u32));
        });
    });
    group.bench_function("mbdj_inmem", |b| {
        b.iter(|| {
            black_box(bidijkstra::shortest_path(&g, s as u32, t as u32));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
