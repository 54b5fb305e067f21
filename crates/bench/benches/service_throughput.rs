//! Criterion microbenches for the concurrent [`PathService`]
//! (DESIGN.md §10): per-query latency through the service at different
//! worker counts, and the batched entry point, on a fixed power-law
//! graph. The paperbench `service-throughput` experiment measures the
//! saturated-throughput curve; this group tracks the per-call overhead.
//! The `cache_hit` cases price a result-cache hit at the current version
//! against one kept across a harmless edge insert (DESIGN.md §16).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fempath_bench::harness::query_pairs;
use fempath_core::PathService;
use fempath_graph::generate;
use std::hint::black_box;

const N: usize = 1000;

fn bench_service(c: &mut Criterion) {
    let g = generate::power_law(N, 3, 1..=100, 42);
    let pairs = query_pairs(N, 16, 42);

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    for workers in [1usize, 4] {
        let svc = PathService::new(&g, workers).unwrap();
        // Warm the shared plan cache so the measurement is steady-state.
        svc.query(pairs[0].0, pairs[0].1).unwrap();
        let mut i = 0usize;
        group.bench_function(&format!("query_w{workers}"), |b| {
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                let out = svc.query(s, t).unwrap();
                black_box(out.path.is_some());
            });
        });
    }

    let svc = PathService::new(&g, 4).unwrap();
    svc.query(pairs[0].0, pairs[0].1).unwrap();
    group.bench_function("query_batch_16_w4", |b| {
        b.iter(|| {
            let paths = svc.query_batch(&pairs).unwrap();
            black_box(paths.len());
        });
    });

    group.finish();
    bench_cache_hits(c, &g, pairs[0]);
}

/// A plain cache hit, and a hit on an entry that one harmless insert
/// since has made older: the probe, the certificate check of the one
/// new edge under the log's read lock, and the re-stamp. The insert
/// runs untimed before each kept hit.
fn bench_cache_hits(c: &mut Criterion, g: &fempath_graph::Graph, (s, t): (i64, i64)) {
    let svc = PathService::new(g, 1).unwrap();
    let first = svc.query(s, t).unwrap();
    let cost = first.path.map_or(fempath_core::INF, |p| p.length);
    let cert = first.certificate.expect("BDJ answers carry a certificate");
    // A weight-1 edge between two consecutive node ids that the
    // certificate rules out as a shortcut in both directions.
    let (u, v) = (1..N as i64)
        .rev()
        .map(|u| (u, u - 1))
        .find(|&(u, v)| {
            cert.from_source(u) + 1 + cert.to_target(v) >= cost
                && cert.from_source(v) + 1 + cert.to_target(u) >= cost
        })
        .expect("an edge outside both search balls");
    let kept = svc.stats().cache.insert_kept;
    svc.insert_edge(u, v, 1).unwrap();
    svc.query(s, t).unwrap();
    assert_eq!(svc.stats().cache.insert_kept, kept + 1, "the entry is kept");

    let mut group = c.benchmark_group("cache_hit");
    group.bench_function("plain", |b| {
        b.iter(|| black_box(svc.query(s, t).unwrap().path.is_some()));
    });
    group.bench_function("kept_across_insert", |b| {
        b.iter_batched(
            || svc.insert_edge(u, v, 1).unwrap(),
            |_| black_box(svc.query(s, t).unwrap().path.is_some()),
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
