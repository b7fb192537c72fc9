//! Property-based tests for the clustering substrate: structural invariants
//! that must hold for any input, not just the curated fixtures.

use mosaic_clustering::kmeans::KMeans;
use mosaic_clustering::meanshift::{reference, GRID_MIN_POINTS};
use mosaic_clustering::metrics::{inertia, rand_index};
use mosaic_clustering::scale::{scale_uniform, ScaleKind};
use mosaic_clustering::{Clustering, MeanShift};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn arb_points() -> impl Strategy<Value = Vec<[f64; 2]>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..80)
        .prop_map(|v| v.into_iter().map(|(a, b)| [a, b]).collect())
}

/// The grid-indexed fit must equal the linear-scan reference bit for bit:
/// the same labels and the same center bits. NaN is the one exception:
/// Rust leaves the sign and payload of a NaN result unspecified, so an
/// optimizer may produce different NaN bits from the same sums, and every
/// NaN compares as one value.
fn agrees_with_reference<const D: usize>(ms: &MeanShift, points: &[[f64; D]]) -> TestCaseResult {
    let grid = ms.fit(points);
    let scan = reference::fit(ms, points);
    let bits = |c: &Clustering<D>| -> Vec<[u64; D]> {
        let canonical = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
        c.centers.iter().map(|p| p.map(canonical)).collect()
    };
    prop_assert_eq!(&grid.labels, &scan.labels, "labels, h {}", ms.bandwidth);
    prop_assert_eq!(bits(&grid), bits(&scan), "centers, h {}", ms.bandwidth);
    Ok(())
}

/// The fit at bandwidth `h` against the reference.
fn agrees_at<const D: usize>(h: f64, points: &[[f64; D]]) -> TestCaseResult {
    agrees_with_reference(&MeanShift::new(h), points)
}

/// A lattice coordinate `k · unit`, where `unit` is the bandwidth, the
/// grid-cell side (`h · (1 + 2⁻²⁰)`) or three times either, optionally
/// nudged one ulp: points exactly `h` apart and on exact cell boundaries.
fn lattice(h: f64, k: i64, unit: usize) -> f64 {
    let side = |support: f64| support * (1.0 + 1.0 / 1_048_576.0);
    let x = k as f64;
    match unit {
        0 => x * h,
        1 => x * side(h),
        2 => x * side(3.0 * h),
        3 => x * 3.0 * h,
        4 => (x * h).next_up(),
        _ => (x * side(h)).next_down(),
    }
}

/// Coordinate `x`, or for `code < 4` a hostile one from `family`: NaN,
/// ±inf, or a finite |x| ≈ 1e300 too large to key. Any of them makes the
/// whole input one block.
fn hostile(family: usize, code: usize, x: f64) -> f64 {
    let huge = 1e300 * x.signum() + x;
    match (code, family) {
        (4.., _) => x,
        (_, 0) => f64::NAN,
        (_, 1) => f64::INFINITY * x.signum(),
        (_, 2) => huge,
        (0, _) => f64::NAN,
        (1, _) => f64::INFINITY,
        (2, _) => f64::NEG_INFINITY,
        _ => huge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn meanshift_labels_are_valid_and_total(points in arb_points()) {
        let c = MeanShift::new(5.0).fit(&points);
        prop_assert_eq!(c.labels.len(), points.len());
        for &l in &c.labels {
            prop_assert!(l < c.centers.len());
        }
        // Every cluster has at least one member.
        let sizes = c.cluster_sizes();
        prop_assert!(sizes.iter().all(|&s| s >= 1));
        prop_assert_eq!(sizes.iter().sum::<usize>(), points.len());
    }

    #[test]
    fn meanshift_centers_are_finite(points in arb_points()) {
        let c = MeanShift::new(2.0).fit(&points);
        for center in &c.centers {
            prop_assert!(center.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn meanshift_is_deterministic(points in arb_points()) {
        let ms = MeanShift::new(3.0);
        prop_assert_eq!(ms.fit(&points), ms.fit(&points));
    }

    #[test]
    fn kmeans_partitions_everything(points in arb_points(), k in 1usize..6) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let c = KMeans::new(k).fit(&points, &mut rng);
        prop_assert_eq!(c.labels.len(), points.len());
        if !points.is_empty() {
            prop_assert!(c.n_clusters() <= k.min(points.len()));
            for &l in &c.labels {
                prop_assert!(l < c.centers.len());
            }
        }
    }

    #[test]
    fn kmeans_inertia_never_worse_than_single_cluster(points in arb_points()) {
        prop_assume!(points.len() >= 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let k1 = KMeans::new(1).fit(&points, &mut rng);
        let k3 = KMeans::new(3).fit(&points, &mut rng);
        // More clusters can only reduce (or match) within-cluster scatter,
        // modulo Lloyd's local optima — allow small slack.
        prop_assert!(inertia(&points, &k3) <= inertia(&points, &k1) * 1.0001 + 1e-9);
    }

    #[test]
    fn rand_index_is_symmetric_and_reflexive(points in arb_points()) {
        prop_assume!(points.len() >= 2);
        let a = MeanShift::new(3.0).fit(&points).labels;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let b = KMeans::new(2).fit(&points, &mut rng).labels;
        prop_assert_eq!(rand_index(&a, &b), rand_index(&b, &a));
        prop_assert_eq!(rand_index(&a, &a), 1.0);
    }

    #[test]
    fn scaling_preserves_point_count_and_finiteness(points in arb_points()) {
        for kind in [ScaleKind::Log, ScaleKind::MinMax, ScaleKind::ZScore, ScaleKind::Identity] {
            let out = scale_uniform(&points, kind);
            prop_assert_eq!(out.len(), points.len());
            for p in &out {
                prop_assert!(p.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn minmax_output_is_in_unit_box(points in arb_points()) {
        let out = scale_uniform(&points, ScaleKind::MinMax);
        for p in &out {
            prop_assert!(p.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        }
    }

    #[test]
    fn meanshift_respects_bandwidth_separation(gap in 20.0f64..100.0) {
        // Two blobs farther apart than 3x the bandwidth must never merge.
        let mut points = Vec::new();
        for i in 0..8 {
            let o = i as f64 * 0.1;
            points.push([o, o]);
            points.push([gap + o, gap - o]);
        }
        let c = MeanShift::new(3.0).fit(&points);
        prop_assert!(c.n_clusters() >= 2, "gap {gap} merged into {}", c.n_clusters());
    }
}

/// Input sizes on both sides of [`GRID_MIN_POINTS`]: below it the whole
/// input is one block, from it on the grid is keyed.
fn arb_len() -> std::ops::Range<usize> {
    0..GRID_MIN_POINTS + 150
}

// Grid inputs hold at least `GRID_MIN_POINTS` points and the reference
// fit is quadratic, so these properties run fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn meanshift_matches_reference_1d(
        xs in prop::collection::vec(-5.0f64..5.0, arb_len()),
        h in 0.05f64..2.0,
    ) {
        let points: Vec<[f64; 1]> = xs.into_iter().map(|x| [x]).collect();
        agrees_at(h, &points)?;
    }

    #[test]
    fn meanshift_matches_reference_2d(
        xy in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), arb_len()),
        h in 0.05f64..1.0,
    ) {
        let points: Vec<[f64; 2]> = xy.into_iter().map(|(x, y)| [x, y]).collect();
        agrees_at(h, &points)?;
        // The production bandwidth on the same shape.
        agrees_at(0.15, &points)?;
    }

    #[test]
    fn meanshift_matches_reference_on_lattices(
        ks in prop::collection::vec(
            (-12i64..12, -12i64..12, 0usize..6, 0usize..6),
            GRID_MIN_POINTS..GRID_MIN_POINTS + 100,
        ),
        h in 0.05f64..1.5,
    ) {
        let points: Vec<[f64; 2]> =
            ks.iter().map(|&(a, b, ua, ub)| [lattice(h, a, ua), lattice(h, b, ub)]).collect();
        agrees_at(h, &points)?;
        let line: Vec<[f64; 1]> = ks.iter().map(|&(a, _, ua, _)| [lattice(h, a, ua)]).collect();
        agrees_at(h, &line)?;
    }

    #[test]
    fn meanshift_matches_reference_on_scattered_singletons(
        jitter in prop::collection::vec(
            (-0.4f64..0.4, -0.4f64..0.4),
            GRID_MIN_POINTS..GRID_MIN_POINTS + 100,
        ),
        h in 0.05f64..1.0,
    ) {
        let points: Vec<[f64; 2]> = jitter
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| [(i as f64 * 7.0 + a) * h, -((i % 11) as f64 * 5.0 + b) * h])
            .collect();
        agrees_at(h, &points)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn meanshift_matches_reference_on_a_dense_cluster_with_duplicates(
        centre in (0.5f64..8.0, 3.0f64..9.0),
        spread in 0.0f64..0.2,
        n in 300usize..900,
        copies in 1usize..4,
        seed in any::<u64>(),
    ) {
        // The dense_periodic shape: one tight cluster of hundreds of
        // near-identical operations, some repeated exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n);
        while points.len() < n {
            let p = [
                centre.0 + spread * rng.gen_range(-1.0..1.0),
                centre.1 + spread * rng.gen_range(-1.0..1.0),
            ];
            for _ in 0..copies {
                points.push(p);
            }
        }
        agrees_with_reference(&MeanShift::new(0.15), &points)?;
    }

    #[test]
    fn meanshift_matches_reference_on_non_finite_and_huge_input(
        family in 0usize..4,
        raw in prop::collection::vec(
            (0usize..60, -3.0f64..3.0, -3.0f64..3.0),
            GRID_MIN_POINTS..GRID_MIN_POINTS + 40,
        ),
        h in 0.1f64..2.0,
    ) {
        // A NaN point is in range of every position, so every ascent runs
        // to the iteration cap; a low cap keeps the reference affordable.
        let points: Vec<[f64; 2]> =
            raw.iter().map(|&(code, x, y)| [hostile(family, code, x), y]).collect();
        let line: Vec<[f64; 1]> =
            raw.iter().map(|&(code, x, _)| [hostile(family, code, x)]).collect();
        let ms = MeanShift::new(h).max_iter(8);
        agrees_with_reference(&ms, &points)?;
        agrees_with_reference(&ms, &line)?;
    }
}

/// `unit.len()` points in an axis-aligned cube around `centre` whose
/// diagonal is `diag`, each placed at its `unit` fractions of the cube's
/// side per axis, raised to `skew` (above 1, the points crowd towards one
/// corner). The first two points sit on opposite corners, so the input's
/// bounding box is the whole cube.
fn cube<const D: usize>(
    centre: f64,
    diag: f64,
    skew: f64,
    unit: &[(f64, f64, f64)],
) -> Vec<[f64; D]> {
    let side = diag / (D as f64).sqrt();
    unit.iter()
        .enumerate()
        .map(|(i, &(a, b, c))| {
            let u = match i {
                0 => [0.0; 3],
                1 => [1.0; 3],
                _ => [a, b, c],
            };
            let mut p = [0.0; D];
            for (k, (x, f)) in p.iter_mut().zip(u).enumerate() {
                *x = centre * (k + 1) as f64 + side * (f.powf(skew) - 0.5);
            }
            p
        })
        .collect()
}

/// Unit-cube fractions for `len` points.
fn arb_unit_cube(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), len)
}

// The whole-input certificate: one cluster large enough to be
// keyed, at D = 1, 2 and 3. The reference fit is quadratic, hence the few
// cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn meanshift_matches_reference_on_one_certified_cluster(
        unit in arb_unit_cube(GRID_MIN_POINTS..4 * GRID_MIN_POINTS),
        frac in 0.0f64..0.99,
        centre in -50.0f64..50.0,
        h in 0.05f64..2.0,
    ) {
        // Diameter below h: every step is settled by the whole input.
        let ms = MeanShift::new(h);
        agrees_with_reference(&ms, &cube::<1>(centre, frac * h, 1.0, &unit))?;
        agrees_with_reference(&ms, &cube::<2>(centre, frac * h, 1.0, &unit))?;
        agrees_with_reference(&ms, &cube::<3>(centre, frac * h, 1.0, &unit))?;
    }

    #[test]
    fn meanshift_matches_reference_on_a_certified_cluster_with_one_non_finite_coordinate(
        unit in arb_unit_cube(GRID_MIN_POINTS..GRID_MIN_POINTS + 64),
        bad in 0usize..3,
        at in any::<usize>(),
        centre in -50.0f64..50.0,
        h in 0.05f64..2.0,
    ) {
        // A tight cluster whose one NaN or ±inf coordinate leaves the
        // whole input without a bounding box, so the certificate stays off.
        // A NaN point is in range of every position, so every ascent runs
        // to the iteration cap; a low cap keeps the reference affordable.
        let ms = MeanShift::new(h).max_iter(8);
        let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad];
        fn poison<const D: usize>(mut points: Vec<[f64; D]>, at: usize, x: f64) -> Vec<[f64; D]> {
            let i = at % points.len();
            points[i][at % D] = x;
            points
        }
        agrees_with_reference(&ms, &poison(cube::<1>(centre, 0.5 * h, 1.0, &unit), at, x))?;
        agrees_with_reference(&ms, &poison(cube::<2>(centre, 0.5 * h, 1.0, &unit), at, x))?;
        agrees_with_reference(&ms, &poison(cube::<3>(centre, 0.5 * h, 1.0, &unit), at, x))?;
    }
}

// Steps settled by the whole input and steps on the grid within one fit.
// These clusters are smaller and cheaper to fit, hence more cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn meanshift_matches_reference_on_a_cluster_about_as_wide_as_h(
        unit in arb_unit_cube(GRID_MIN_POINTS..2 * GRID_MIN_POINTS),
        frac in 0.7f64..1.5,
        skew in 1.0f64..4.0,
        centre in -50.0f64..50.0,
        h in 0.05f64..2.0,
    ) {
        // Past a diameter of h, a step from a corner fails the whole-input
        // certificate and goes to the grid, while a step from near the
        // centre still passes it: both paths run within one fit. A skewed
        // cluster's mode is not the input's mean, so a certificate that
        // settled too many steps would move it.
        let ms = MeanShift::new(h);
        agrees_with_reference(&ms, &cube::<1>(centre, frac * h, skew, &unit))?;
        agrees_with_reference(&ms, &cube::<2>(centre, frac * h, skew, &unit))?;
        agrees_with_reference(&ms, &cube::<3>(centre, frac * h, skew, &unit))?;
    }
}
