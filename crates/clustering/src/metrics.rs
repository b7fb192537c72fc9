//! Cluster-quality metrics used by tests and ablation benches.

use crate::point::{dist, dist2, Clustering};

/// Sum of squared distances of each point to its cluster center (noise
/// points excluded). Lower is tighter.
pub fn inertia<const D: usize>(points: &[[f64; D]], c: &Clustering<D>) -> f64 {
    points
        .iter()
        .zip(&c.labels)
        // NOISE is past every center, so `get` skips it.
        .filter_map(|(p, &l)| c.centers.get(l).map(|center| dist2(p, center)))
        .sum()
}

/// Mean silhouette coefficient over all clustered points, in `[-1, 1]`.
/// Higher means better-separated clusters. Returns `None` when fewer than
/// two clusters have members (silhouette is undefined there).
pub fn silhouette<const D: usize>(points: &[[f64; D]], c: &Clustering<D>) -> Option<f64> {
    let live: Vec<(&[f64; D], usize)> = points
        .iter()
        .zip(c.labels.iter().copied())
        .filter(|&(_, l)| l != Clustering::<D>::NOISE)
        .collect();
    let labels_present: std::collections::BTreeSet<usize> = live.iter().map(|&(_, l)| l).collect();
    if labels_present.len() < 2 {
        return None;
    }

    let mut total = 0.0;
    let mut counted = 0usize;
    for (i, &(p, own)) in live.iter().enumerate() {
        let mut intra = 0.0;
        let mut intra_n = 0usize;
        // mean distance to every other cluster, keyed by label
        let mut inter: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
        for (j, &(q, label)) in live.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = dist(p, q);
            if label == own {
                intra += d;
                intra_n += 1;
            } else {
                let e = inter.entry(label).or_insert((0.0, 0));
                e.0 += d;
                e.1 += 1;
            }
        }
        if intra_n == 0 {
            // Singleton clusters contribute silhouette 0 by convention.
            counted += 1;
            continue;
        }
        let a = intra / intra_n as f64;
        let b = inter.values().map(|&(sum, n)| sum / n as f64).fold(f64::INFINITY, f64::min);
        total += (b - a) / a.max(b);
        counted += 1;
    }
    Some(total / counted as f64)
}

/// Pairwise-agreement Rand index between two labelings of the same points,
/// in `[0, 1]`. Used to compare clustering algorithms against ground truth.
pub fn rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "labelings must cover the same points");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0usize;
    let mut pairs = 0usize;
    let mut rest = a.iter().zip(b);
    while let Some((ai, bi)) = rest.next() {
        for (aj, bj) in rest.clone() {
            if (ai == aj) == (bi == bj) {
                agree += 1;
            }
            pairs += 1;
        }
    }
    agree as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_two() -> (Vec<[f64; 2]>, Clustering<2>) {
        let points = vec![[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]];
        let c = Clustering { labels: vec![0, 0, 1, 1], centers: vec![[0.05, 0.0], [10.05, 10.0]] };
        (points, c)
    }

    #[test]
    fn inertia_of_tight_clusters_is_small() {
        let (points, c) = tight_two();
        assert!(inertia(&points, &c) < 0.02);
    }

    #[test]
    fn silhouette_high_for_separated_clusters() {
        let (points, c) = tight_two();
        let s = silhouette(&points, &c).unwrap();
        assert!(s > 0.9, "s = {s}");
    }

    #[test]
    fn silhouette_none_for_single_cluster() {
        let points = vec![[0.0], [1.0]];
        let c = Clustering { labels: vec![0, 0], centers: vec![[0.5]] };
        assert_eq!(silhouette(&points, &c), None);
    }

    #[test]
    fn silhouette_ignores_noise() {
        let points = vec![[0.0], [0.1], [10.0], [10.1], [500.0]];
        let c = Clustering {
            labels: vec![0, 0, 1, 1, Clustering::<1>::NOISE],
            centers: vec![[0.05], [10.05]],
        };
        assert!(silhouette(&points, &c).unwrap() > 0.9);
    }

    #[test]
    fn rand_index_extremes() {
        assert_eq!(rand_index(&[0, 0, 1, 1], &[1, 1, 0, 0]), 1.0); // same partition
        assert_eq!(rand_index(&[0, 0, 0], &[0, 0, 0]), 1.0);
        let low = rand_index(&[0, 0, 1, 1], &[0, 1, 0, 1]);
        assert!(low < 0.5, "{low}");
        assert_eq!(rand_index(&[0], &[5]), 1.0); // degenerate
    }

    /// A random 3-D point set and a labeling with `k` clusters, roughly a
    /// fifth of it noise.
    fn random_labeling(seed: u64, n: usize, k: usize) -> (Vec<[f64; 3]>, Clustering<3>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let points: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), rng.gen_range(0.0..1.0)])
            .collect();
        let labels = (0..n)
            .map(|_| if rng.gen_bool(0.2) { Clustering::<3>::NOISE } else { rng.gen_range(0..k) })
            .collect();
        let centers = (0..k).map(|_| [rng.gen_range(-5.0..5.0), 0.0, 0.5]).collect();
        (points, Clustering { labels, centers })
    }

    /// `inertia` as it was written before the `get` rewrite.
    fn indexed_inertia(points: &[[f64; 3]], c: &Clustering<3>) -> f64 {
        (0..points.len())
            .filter(|&i| c.labels[i] != Clustering::<3>::NOISE)
            .map(|i| dist2(&points[i], &c.centers[c.labels[i]]))
            .sum()
    }

    /// `silhouette` as it was written before the zipped rewrite.
    fn indexed_silhouette(points: &[[f64; 3]], c: &Clustering<3>) -> Option<f64> {
        let live: Vec<usize> =
            (0..points.len()).filter(|&i| c.labels[i] != Clustering::<3>::NOISE).collect();
        let present: std::collections::BTreeSet<usize> =
            live.iter().map(|&i| c.labels[i]).collect();
        if present.len() < 2 {
            return None;
        }
        let (mut total, mut counted) = (0.0, 0usize);
        for &i in &live {
            let (mut intra, mut intra_n) = (0.0, 0usize);
            let mut inter: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
            for &j in &live {
                if i == j {
                    continue;
                }
                let d = dist(&points[i], &points[j]);
                if c.labels[j] == c.labels[i] {
                    intra += d;
                    intra_n += 1;
                } else {
                    let e = inter.entry(c.labels[j]).or_insert((0.0, 0));
                    e.0 += d;
                    e.1 += 1;
                }
            }
            counted += 1;
            if intra_n == 0 {
                continue;
            }
            let a = intra / intra_n as f64;
            let b = inter.values().map(|&(sum, n)| sum / n as f64).fold(f64::INFINITY, f64::min);
            total += (b - a) / a.max(b);
        }
        Some(total / counted as f64)
    }

    #[test]
    fn inertia_equals_the_indexed_reference_with_noise() {
        for seed in 0..200 {
            let (points, c) = random_labeling(seed, (seed % 40) as usize, 1 + (seed % 5) as usize);
            assert_eq!(
                inertia(&points, &c).to_bits(),
                indexed_inertia(&points, &c).to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn silhouette_equals_the_indexed_reference_with_noise() {
        for seed in 0..200 {
            let (points, c) = random_labeling(seed, (seed % 40) as usize, 1 + (seed % 5) as usize);
            let got = silhouette(&points, &c).map(f64::to_bits);
            assert_eq!(got, indexed_silhouette(&points, &c).map(f64::to_bits), "seed {seed}");
        }
    }

    #[test]
    fn rand_index_equals_the_pairwise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for case in 0..300 {
            let n = rng.gen_range(0..30usize);
            let a: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4)).collect();
            let b: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let (mut agree, mut pairs) = (0usize, 0usize);
            for i in 0..n {
                for j in (i + 1)..n {
                    agree += usize::from((a[i] == a[j]) == (b[i] == b[j]));
                    pairs += 1;
                }
            }
            let want = if n < 2 { 1.0 } else { agree as f64 / pairs as f64 };
            assert_eq!(rand_index(&a, &b).to_bits(), want.to_bits(), "case {case}: {a:?} {b:?}");
        }
    }

    #[test]
    fn rand_index_is_symmetric_and_ignores_label_names() {
        let a = [0, 0, 1, 2, 2, 2, 1, 0];
        let b = [1, 0, 1, 1, 2, 0, 2, 2];
        assert_eq!(rand_index(&a, &b), rand_index(&b, &a));
        let renamed: Vec<usize> = a.iter().map(|&l| [7, 3, 9][l]).collect();
        assert_eq!(rand_index(&renamed, &b), rand_index(&a, &b));
        assert_eq!(rand_index(&a, &renamed), 1.0);
    }

    #[test]
    #[should_panic(expected = "same points")]
    fn rand_index_length_mismatch_panics() {
        let _ = rand_index(&[0, 1], &[0]);
    }
}
