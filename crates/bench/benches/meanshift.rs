//! Criterion: Mean Shift clustering cost vs segment count, plus k-means
//! for context.
//!
//! `meanshift_flat` fits three far-apart clusters. The whole-input
//! certificate settles none of their steps, so each one scans its grid
//! block (or, below `GRID_MIN_POINTS`, the whole input).
//! `meanshift_flat_one_cluster` is the `dense_periodic` shape: one
//! periodic train of a few hundred near-identical operations, in
//! `op_feature`'s (log duration, log volume) space.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_clustering::kmeans::KMeans;
use mosaic_clustering::MeanShift;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn points(n: usize) -> Vec<[f64; 2]> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    (0..n)
        .map(|i| {
            let cluster = (i % 3) as f64;
            [cluster * 2.0 + rng.gen_range(-0.05..0.05), cluster * 3.0 + rng.gen_range(-0.05..0.05)]
        })
        .collect()
}

/// `n` points jittered by at most ±0.02 around one (log duration, log
/// volume) centre: a diameter well inside the 0.15 bandwidth.
fn one_cluster(n: usize) -> Vec<[f64; 2]> {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    (0..n).map(|_| [0.6 + rng.gen_range(-0.02..0.02), 7.8 + rng.gen_range(-0.02..0.02)]).collect()
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for n in [32usize, 128, 512, 2048] {
        let pts = points(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("meanshift_flat", n), &pts, |b, pts| {
            b.iter(|| MeanShift::new(0.15).fit(black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("kmeans_k3", n), &pts, |b, pts| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            b.iter(|| KMeans::new(3).fit(black_box(pts), &mut rng))
        });
    }
    for n in [300usize, 900] {
        let pts = one_cluster(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("meanshift_flat_one_cluster", n),
            &pts,
            |b, pts| b.iter(|| MeanShift::new(0.15).fit(black_box(pts))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
