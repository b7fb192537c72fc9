//! Automatic category discovery — the paper's second future-work item.
//!
//! §V: *"category determination could be made more automatic using
//! clustering methods."* Table I's categories were designed by hand from a
//! literature survey; this module goes the other way: it embeds every
//! trace's report into a fixed feature vector (volumes, temporal chunk
//! shape, metadata pressure) and clusters the embeddings. The
//! [`ClusterProfile`]s then show which hand-made categories each discovered
//! cluster corresponds to — on the Blue Waters-like population the
//! discovered structure aligns with the paper's vocabulary, which is
//! evidence the hand-made taxonomy carves the space at its joints.

use crate::categorize::TraceReport;
use crate::category::Category;
use mosaic_clustering::kmeans::KMeans;
use mosaic_clustering::Clustering;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dimensionality of the trace embedding.
pub const FEATURE_DIM: usize = 12;

/// Embed one trace report:
/// `[log₁₀ read bytes, log₁₀ write bytes, read chunk shares ×4,
///   write chunk shares ×4, log₁₀ meta requests, log₁₀ meta peak r/s]`.
///
/// Chunk shares are normalized so shape (not volume) drives those axes;
/// insignificant directions embed as a flat zero shape.
pub fn features(report: &TraceReport) -> [f64; FEATURE_DIM] {
    let mut out = [0.0; FEATURE_DIM];
    out[0] = (1.0 + report.read.temporality.total_bytes as f64).log10();
    out[1] = (1.0 + report.write.temporality.total_bytes as f64).log10();
    fill_shape(&mut out[2..6], &report.read.temporality.chunk_bytes);
    fill_shape(&mut out[6..10], &report.write.temporality.chunk_bytes);
    out[10] = (1.0 + report.metadata.total_requests as f64).log10();
    out[11] = (1.0 + report.metadata.peak_rps as f64).log10();
    out
}

fn fill_shape(out: &mut [f64], chunks: &[f64]) {
    let total: f64 = chunks.iter().sum();
    if total <= 0.0 {
        return;
    }
    for (o, &c) in out.iter_mut().zip(chunks) {
        // Scaled ×2 so a fully concentrated chunk (share 1.0) carries
        // comparable weight to ~2 decades of volume difference.
        *o = 2.0 * c / total;
    }
}

/// What one discovered cluster contains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterProfile {
    /// Cluster id.
    pub cluster: usize,
    /// Member count.
    pub size: usize,
    /// Hand-made categories carried by members, as `(category, fraction of
    /// members)`, sorted by descending fraction.
    pub dominant: Vec<(Category, f64)>,
}

/// Discover `k` behaviour classes among trace reports.
pub fn discover<R: Rng>(reports: &[TraceReport], k: usize, rng: &mut R) -> Clustering<FEATURE_DIM> {
    let points: Vec<[f64; FEATURE_DIM]> = reports.iter().map(features).collect();
    KMeans::new(k).fit(&points, rng)
}

/// Profile each discovered cluster against the hand-made category sets.
/// Categories below `min_fraction` of a cluster's members are omitted.
pub fn profiles(
    reports: &[TraceReport],
    clustering: &Clustering<FEATURE_DIM>,
    min_fraction: f64,
) -> Vec<ClusterProfile> {
    let mut out = Vec::new();
    for c in 0..clustering.n_clusters() {
        let members = clustering.members(c);
        if members.is_empty() {
            continue;
        }
        let mut counts: BTreeMap<Category, usize> = BTreeMap::new();
        for report in members.iter().filter_map(|&m| reports.get(m)) {
            for &cat in &report.categories {
                *counts.entry(cat).or_insert(0) += 1;
            }
        }
        let mut dominant: Vec<(Category, f64)> = counts
            .into_iter()
            .map(|(cat, n)| (cat, n as f64 / members.len() as f64))
            .filter(|&(_, f)| f >= min_fraction)
            .collect();
        dominant.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push(ClusterProfile { cluster: c, size: members.len(), dominant });
    }
    out.sort_by_key(|p| std::cmp::Reverse(p.size));
    out
}

/// Purity of the discovered clustering against a reference labeling: the
/// fraction of traces whose cluster's majority reference label matches
/// their own. 1.0 = every cluster is label-homogeneous.
pub fn purity(clustering: &Clustering<FEATURE_DIM>, labels: &[String]) -> f64 {
    assert_eq!(clustering.labels.len(), labels.len());
    if labels.is_empty() {
        return 1.0;
    }
    let mut majority_hits = 0usize;
    for c in 0..clustering.n_clusters() {
        let members = clustering.members(c);
        if members.is_empty() {
            continue;
        }
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for label in members.iter().filter_map(|&m| labels.get(m)) {
            *counts.entry(label.as_str()).or_insert(0) += 1;
        }
        majority_hits += counts.values().copied().max().unwrap_or(0);
    }
    majority_hits as f64 / labels.len() as f64
}

/// A coarse reference label for purity scoring: the joint
/// `read-temporality × write-temporality` class of a trace.
pub fn reference_label(report: &TraceReport) -> String {
    format!(
        "r_{}+w_{}",
        report.read.temporality.label.suffix(),
        report.write.temporality.label.suffix()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Categorizer, CategorizerConfig};
    use mosaic_darshan::ops::{OpKind, Operation, OperationView};
    use rand::SeedableRng;

    const MB: u64 = 1 << 20;

    fn report(reads: Vec<Operation>, writes: Vec<Operation>) -> TraceReport {
        let view = OperationView { runtime: 1000.0, nprocs: 8, reads, writes, meta: vec![] };
        Categorizer::new(CategorizerConfig::default()).categorize(&view)
    }

    fn op(kind: OpKind, start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind, start, end, bytes, ranks: 8 }
    }

    fn population() -> Vec<TraceReport> {
        let mut reports = Vec::new();
        for i in 0..12 {
            let b = (400 + i * 10) * MB;
            // Read-on-start apps.
            reports.push(report(vec![op(OpKind::Read, 1.0, 30.0, b)], vec![]));
            // Write-on-end apps.
            reports.push(report(vec![], vec![op(OpKind::Write, 960.0, 990.0, b)]));
            // Quiet apps.
            reports.push(report(vec![op(OpKind::Read, 1.0, 2.0, MB)], vec![]));
        }
        reports
    }

    #[test]
    fn features_distinguish_behaviours() {
        let reports = population();
        let f_start = features(&reports[0]);
        let f_end = features(&reports[1]);
        let f_quiet = features(&reports[2]);
        // Read-on-start: first read-chunk axis loaded.
        assert!(f_start[2] > 1.5, "{f_start:?}");
        // Write-on-end: last write-chunk axis loaded.
        assert!(f_end[9] > 1.5, "{f_end:?}");
        // Quiet: tiny volumes.
        assert!(f_quiet[0] < f_start[0]);
    }

    #[test]
    fn discovery_recovers_the_three_behaviours() {
        let reports = population();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let clustering = discover(&reports, 3, &mut rng);
        let labels: Vec<String> = reports.iter().map(reference_label).collect();
        let p = purity(&clustering, &labels);
        assert!(p > 0.9, "purity {p}");
    }

    #[test]
    fn profiles_surface_dominant_categories() {
        let reports = population();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let clustering = discover(&reports, 3, &mut rng);
        let profiles = profiles(&reports, &clustering, 0.5);
        assert_eq!(profiles.len(), 3);
        // Some cluster must be dominated by read_on_start.
        let names: Vec<String> =
            profiles.iter().flat_map(|p| p.dominant.iter().map(|(c, _)| c.name())).collect();
        assert!(names.iter().any(|n| n == "read_on_start"), "{names:?}");
        assert!(names.iter().any(|n| n == "write_on_end"), "{names:?}");
    }

    /// A random clustering of `n` points over `k` clusters, some noise.
    fn random_clustering(seed: u64, n: usize, k: usize) -> Clustering<FEATURE_DIM> {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labels = (0..n)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    Clustering::<FEATURE_DIM>::NOISE
                } else {
                    rng.gen_range(0..k)
                }
            })
            .collect();
        Clustering { labels, centers: vec![[0.0; FEATURE_DIM]; k] }
    }

    #[test]
    fn purity_equals_the_indexed_majority_count() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for seed in 0..200 {
            let n = rng.gen_range(0..50usize);
            let c = random_clustering(seed, n, rng.gen_range(1..6));
            let labels: Vec<String> =
                (0..n).map(|_| String::from(["a", "b", "c"][rng.gen_range(0..3usize)])).collect();
            let mut hits = 0usize;
            for k in 0..c.n_clusters() {
                let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                for m in c.members(k) {
                    *counts.entry(labels[m].as_str()).or_insert(0) += 1;
                }
                hits += counts.values().copied().max().unwrap_or(0);
            }
            let want = if n == 0 { 1.0 } else { hits as f64 / n as f64 };
            assert_eq!(purity(&c, &labels).to_bits(), want.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn profiles_count_each_member_report_once() {
        let reports = population();
        let c = random_clustering(9, reports.len(), 4);
        let profiles = profiles(&reports, &c, 0.0);
        let sizes = c.cluster_sizes();
        for p in &profiles {
            assert_eq!(p.size, sizes[p.cluster]);
            for &(cat, fraction) in &p.dominant {
                let carriers = c
                    .members(p.cluster)
                    .iter()
                    .filter(|&&m| reports[m].categories.contains(&cat))
                    .count();
                assert_eq!(fraction, carriers as f64 / p.size as f64, "{cat:?}");
            }
        }
        assert_eq!(profiles.len(), sizes.iter().filter(|&&s| s > 0).count());
        assert!(profiles.windows(2).all(|w| w[0].size >= w[1].size));
    }

    #[test]
    fn purity_degenerate_cases() {
        let c = Clustering::<FEATURE_DIM> { labels: vec![], centers: vec![] };
        assert_eq!(purity(&c, &[]), 1.0);
        let c = Clustering::<FEATURE_DIM> { labels: vec![0, 0], centers: vec![[0.0; FEATURE_DIM]] };
        assert_eq!(purity(&c, &["a".into(), "b".into()]), 0.5);
    }

    #[test]
    fn reference_labels_are_joint() {
        let r = report(vec![op(OpKind::Read, 1.0, 30.0, 500 * MB)], vec![]);
        assert_eq!(reference_label(&r), "r_on_start+w_insignificant");
    }
}
