//! Density-based clustering (DBSCAN), used by the ablation benches as a
//! second alternative to Mean Shift for segment grouping.
//!
//! DBSCAN's notion of "cluster = dense region" is close in spirit to
//! MOSAIC's "segments with comparable duration and volume", but it labels
//! sparse points as noise rather than singleton clusters — a semantic
//! difference the ablation quantifies (MOSAIC treats a singleton as a
//! non-periodic one-off operation, which is meaningful, not noise).

use crate::point::{centroid, dist2, Clustering};

/// DBSCAN configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Dbscan {
    /// Neighbourhood radius.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Dbscan {
    /// DBSCAN with the given radius and core threshold.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        assert!(min_pts >= 1, "min_pts must be at least 1");
        Dbscan { eps, min_pts }
    }

    /// Run DBSCAN. Unclustered points get [`Clustering::NOISE`]; centers are
    /// the centroids of each cluster's members.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is the loop's own 0..n or one neighbors() yields from 0..n, and \
                  n == points.len() == labels.len() == visited.len()"
    )]
    pub fn fit<const D: usize>(&self, points: &[[f64; D]]) -> Clustering<D> {
        let n = points.len();
        let eps2 = self.eps * self.eps;
        let mut labels = vec![Clustering::<D>::NOISE; n];
        let mut visited = vec![false; n];
        let mut next_cluster = 0usize;

        let neighbors = |i: usize| -> Vec<usize> {
            (0..n).filter(|&j| dist2(&points[i], &points[j]) <= eps2).collect()
        };

        for i in 0..n {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            let nbrs = neighbors(i);
            if nbrs.len() < self.min_pts {
                continue; // stays noise unless captured as a border point
            }
            let cluster = next_cluster;
            next_cluster += 1;
            labels[i] = cluster;
            let mut frontier = nbrs;
            while let Some(j) = frontier.pop() {
                if labels[j] == Clustering::<D>::NOISE {
                    labels[j] = cluster; // border point
                }
                if visited[j] {
                    continue;
                }
                visited[j] = true;
                let jn = neighbors(j);
                if jn.len() >= self.min_pts {
                    labels[j] = cluster;
                    frontier.extend(jn);
                }
            }
        }

        let centers = (0..next_cluster)
            .map(|c| {
                let members: Vec<usize> =
                    labels.iter().enumerate().filter_map(|(i, &l)| (l == c).then_some(i)).collect();
                centroid(points, &members)
            })
            .collect();
        Clustering { labels, centers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_dense_blobs_and_noise() {
        let mut pts: Vec<[f64; 2]> = Vec::new();
        for i in 0..8 {
            pts.push([0.0 + i as f64 * 0.05, 0.0]);
            pts.push([5.0, 5.0 + i as f64 * 0.05]);
        }
        pts.push([100.0, 100.0]); // lone outlier
        let c = Dbscan::new(0.5, 3).fit(&pts);
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.labels[16], Clustering::<2>::NOISE);
        assert_eq!(c.cluster_sizes(), vec![8, 8]);
    }

    #[test]
    fn all_noise_when_sparse() {
        let pts: Vec<[f64; 1]> = vec![[0.0], [10.0], [20.0]];
        let c = Dbscan::new(1.0, 2).fit(&pts);
        assert_eq!(c.n_clusters(), 0);
        assert!(c.labels.iter().all(|&l| l == Clustering::<1>::NOISE));
    }

    #[test]
    fn min_pts_one_clusters_everything() {
        let pts: Vec<[f64; 1]> = vec![[0.0], [10.0]];
        let c = Dbscan::new(1.0, 1).fit(&pts);
        assert_eq!(c.n_clusters(), 2);
    }

    #[test]
    fn chain_connectivity() {
        // Points in a chain, each within eps of the next: one cluster.
        let pts: Vec<[f64; 1]> = (0..10).map(|i| [i as f64 * 0.9]).collect();
        let c = Dbscan::new(1.0, 2).fit(&pts);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.cluster_sizes(), vec![10]);
    }

    #[test]
    fn empty_input() {
        let pts: Vec<[f64; 2]> = Vec::new();
        let c = Dbscan::new(1.0, 2).fit(&pts);
        assert_eq!(c.n_clusters(), 0);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn bad_eps_panics() {
        let _ = Dbscan::new(0.0, 2);
    }
}
