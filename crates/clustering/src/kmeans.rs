//! k-means clustering with k-means++ initialization.
//!
//! Not used by MOSAIC itself — the paper chose Mean Shift because the number
//! of periodic behaviours per trace is unknown a priori. k-means is here as
//! the ablation comparator (`ablation_clustering` bench): it needs `k` fixed
//! in advance, which is exactly the deficiency the ablation demonstrates.

use crate::point::{centroid, dist2, Clustering};
use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;

/// k-means configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    /// Number of clusters to produce.
    pub k: usize,
    /// Iteration cap.
    pub max_iter: usize,
    /// Convergence threshold on total center movement.
    pub tol: f64,
}

impl KMeans {
    /// k-means with default iteration cap (100) and tolerance (1e-6).
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans { k, max_iter: 100, tol: 1e-6 }
    }

    /// Run Lloyd's algorithm with k-means++ seeding, using `rng` for
    /// reproducible initialization. If there are fewer points than `k`, the
    /// effective `k` is the number of distinct points.
    pub fn fit<const D: usize, R: Rng>(&self, points: &[[f64; D]], rng: &mut R) -> Clustering<D> {
        if points.is_empty() {
            return Clustering { labels: Vec::new(), centers: Vec::new() };
        }
        let k = self.k.min(points.len());
        let mut centers = kmeanspp_init(points, k, rng);
        let mut labels = vec![0usize; points.len()];

        for _ in 0..self.max_iter {
            // Assignment step.
            for (label, p) in labels.iter_mut().zip(points) {
                *label = nearest(p, &centers).0;
            }
            // Update step.
            let mut moved = 0.0;
            for (c, center) in centers.iter_mut().enumerate() {
                let members: Vec<usize> =
                    labels.iter().enumerate().filter_map(|(i, &l)| (l == c).then_some(i)).collect();
                if members.is_empty() {
                    continue; // keep the old center; cluster may repopulate
                }
                let new = centroid(points, &members);
                moved += dist2(center, &new).sqrt();
                *center = new;
            }
            if moved < self.tol {
                break;
            }
        }
        for (label, p) in labels.iter_mut().zip(points) {
            *label = nearest(p, &centers).0;
        }
        Clustering { labels, centers }
    }
}

fn nearest<const D: usize>(p: &[f64; D], centers: &[[f64; D]]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centers.iter().enumerate() {
        let d = dist2(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// k-means++ seeding: first center uniform, subsequent centers sampled with
/// probability proportional to squared distance from the nearest chosen
/// center.
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "indices are drawn from 0..points.len() of the non-empty points fit passes, and \
              d2 is non-negative with a positive total"
)]
fn kmeanspp_init<const D: usize, R: Rng>(
    points: &[[f64; D]],
    k: usize,
    rng: &mut R,
) -> Vec<[f64; D]> {
    let mut centers = Vec::with_capacity(k);
    centers.push(points[rng.gen_range(0..points.len())]);
    while centers.len() < k {
        let d2: Vec<f64> = points.iter().map(|p| nearest(p, &centers).1).collect();
        let total: f64 = d2.iter().sum();
        if total == 0.0 {
            // All remaining points coincide with chosen centers.
            centers.push(points[rng.gen_range(0..points.len())]);
            continue;
        }
        let dist = WeightedIndex::new(&d2).expect("non-negative weights with positive sum");
        centers.push(points[dist.sample(rng)]);
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> impl Rng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn blobs() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..12 {
            let o = (i % 4) as f64 * 0.1;
            pts.push([0.0 + o, 0.0 - o]);
            pts.push([10.0 + o, 10.0 + o]);
        }
        pts
    }

    #[test]
    fn recovers_two_blobs() {
        let c = KMeans::new(2).fit(&blobs(), &mut rng());
        assert_eq!(c.n_clusters(), 2);
        let sizes = c.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 24);
        assert!(sizes.iter().all(|&s| s == 12), "{sizes:?}");
    }

    #[test]
    fn k_capped_at_point_count() {
        let pts = vec![[0.0], [1.0]];
        let c = KMeans::new(10).fit(&pts, &mut rng());
        assert_eq!(c.n_clusters(), 2);
    }

    #[test]
    fn empty_input() {
        let pts: Vec<[f64; 2]> = Vec::new();
        let c = KMeans::new(3).fit(&pts, &mut rng());
        assert_eq!(c.n_clusters(), 0);
    }

    #[test]
    fn identical_points() {
        let pts = vec![[7.0, 7.0]; 9];
        let c = KMeans::new(3).fit(&pts, &mut rng());
        assert_eq!(c.labels.iter().filter(|&&l| l == c.labels[0]).count(), 9);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let pts = blobs();
        let a = KMeans::new(2).fit(&pts, &mut rng());
        let b = KMeans::new(2).fit(&pts, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn every_label_is_the_nearest_final_center() {
        let mut r = rng();
        for k in 1..=6 {
            let points: Vec<[f64; 2]> =
                (0..80).map(|_| [r.gen_range(0.0..10.0), r.gen_range(0.0..10.0)]).collect();
            let c = KMeans::new(k).fit(&points, &mut r);
            assert_eq!(c.labels.len(), points.len());
            for (p, &l) in points.iter().zip(&c.labels) {
                let own = dist2(p, &c.centers[l]);
                assert!(c.centers.iter().all(|q| own <= dist2(p, q)), "k {k}: {p:?} -> {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KMeans::new(0);
    }
}
