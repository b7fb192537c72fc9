//! Point geometry and the common clustering result type.

/// Squared Euclidean distance between two `D`-dimensional points.
#[inline]
pub fn dist2<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| {
        let d = x - y;
        acc + d * d
    })
}

/// Euclidean distance.
#[inline]
pub fn dist<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    dist2(a, b).sqrt()
}

/// Component-wise mean of a non-empty set of points selected by `idxs`.
#[expect(clippy::indexing_slicing, reason = "callers select idxs from points' own labels")]
pub fn centroid<const D: usize>(points: &[[f64; D]], idxs: &[usize]) -> [f64; D] {
    debug_assert!(!idxs.is_empty());
    let mut c = [0.0; D];
    for &i in idxs {
        for (c, x) in c.iter_mut().zip(&points[i]) {
            *c += x;
        }
    }
    for v in c.iter_mut() {
        *v /= idxs.len() as f64;
    }
    c
}

/// Result of a clustering run: a label per input point and one representative
/// point (mode or centroid) per cluster.
///
/// Labels are dense `0..n_clusters`, or [`Clustering::NOISE`] for a point
/// in no cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering<const D: usize> {
    /// `labels[i]` is the cluster of input point `i` (or [`Clustering::NOISE`]).
    pub labels: Vec<usize>,
    /// Representative point (mode / centroid) of each cluster.
    pub centers: Vec<[f64; D]>,
}

impl<const D: usize> Clustering<D> {
    /// Label for points not assigned to any cluster.
    pub const NOISE: usize = usize::MAX;

    /// Number of clusters found.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of member points per cluster (noise excluded).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centers.len()];
        // Labels are dense cluster indices; NOISE is past every one.
        for &l in &self.labels {
            if let Some(size) = sizes.get_mut(l) {
                *size += 1;
            }
        }
        sizes
    }

    /// Indices of the members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.labels.iter().enumerate().filter_map(|(i, &l)| (l == c).then_some(i)).collect()
    }

    /// Iterate clusters as `(center, member indices)` in cluster order,
    /// skipping empty ones. Members are ascending, as [`Clustering::members`]
    /// returns them; one pass over the labels buckets them all.
    pub fn clusters(&self) -> impl Iterator<Item = ([f64; D], Vec<usize>)> + '_ {
        let mut buckets = vec![Vec::new(); self.centers.len()];
        for (i, &l) in self.labels.iter().enumerate() {
            // Noise (and any label without a center) belongs to no bucket.
            if let Some(bucket) = buckets.get_mut(l) {
                bucket.push(i);
            }
        }
        self.centers.iter().zip(buckets).filter(|(_, m)| !m.is_empty()).map(|(&c, m)| (c, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(dist2(&a, &b), 25.0);
        assert_eq!(dist(&a, &b), 5.0);
        assert_eq!(dist(&a, &a), 0.0);
    }

    #[test]
    fn dist2_equals_the_indexed_sum_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            let a: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-1e6..1e6));
            let b: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-1e6..1e6));
            let mut want = 0.0;
            for i in 0..4 {
                let d = a[i] - b[i];
                want += d * d;
            }
            assert_eq!(dist2(&a, &b).to_bits(), want.to_bits(), "{a:?} {b:?}");
        }
        assert_eq!(dist2::<0>(&[], &[]), 0.0);
    }

    #[test]
    fn centroid_weights_a_repeated_index_once_per_occurrence() {
        let pts = [[0.0, 10.0], [3.0, -2.0], [6.0, 1.0]];
        assert_eq!(centroid(&pts, &[0, 0, 2]), [2.0, 7.0]);
        assert_eq!(centroid(&pts, &[2, 1, 0]), centroid(&pts, &[0, 1, 2]));
    }

    #[test]
    fn cluster_sizes_count_every_label_and_skip_noise() {
        let noise = Clustering::<1>::NOISE;
        let c = Clustering::<1> {
            labels: vec![2, noise, 2, 0, 2, noise, 0],
            centers: vec![[0.0], [1.0], [2.0]],
        };
        assert_eq!(c.cluster_sizes(), vec![2, 0, 3]);
        let all_noise = Clustering::<1> { labels: vec![noise; 4], centers: vec![[0.0]] };
        assert_eq!(all_noise.cluster_sizes(), vec![0]);
        let sizes: usize = c.cluster_sizes().iter().sum();
        assert_eq!(sizes, c.labels.iter().filter(|&&l| l != noise).count());
    }

    #[test]
    fn centroid_averages() {
        let pts = [[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]];
        assert_eq!(centroid(&pts, &[0, 1, 2]), [2.0, 2.0]);
        assert_eq!(centroid(&pts, &[1]), [2.0, 4.0]);
    }

    #[test]
    fn clustering_accessors() {
        let c = Clustering::<2> {
            labels: vec![0, 1, 0, Clustering::<2>::NOISE],
            centers: vec![[0.0, 0.0], [5.0, 5.0]],
        };
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.cluster_sizes(), vec![2, 1]);
        assert_eq!(c.members(0), vec![0, 2]);
        let all: Vec<_> = c.clusters().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn clusters_equal_members_of_each_nonempty_cluster() {
        let noise = Clustering::<1>::NOISE;
        let c = Clustering::<1> {
            labels: vec![3, 0, noise, 3, 1, 0, 3, noise, 1],
            centers: vec![[0.0], [1.0], [2.0], [3.0]],
        };
        let expected: Vec<_> = (0..c.n_clusters())
            .map(|k| (c.centers[k], c.members(k)))
            .filter(|(_, m)| !m.is_empty())
            .collect();
        let got: Vec<_> = c.clusters().collect();
        assert_eq!(got, expected);
        assert_eq!(got, vec![([0.0], vec![1, 5]), ([1.0], vec![4, 8]), ([3.0], vec![0, 3, 6])]);
    }
}
