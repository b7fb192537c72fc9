//! Jaccard co-occurrence analysis (§III-B4, Fig 5).
//!
//! For every pair of categories `(a, b)`, the Jaccard index
//! `J = |Tₐ ∩ T_b| / |Tₐ ∪ T_b|` over the sets of traces carrying each
//! category measures how systematically the two behaviours co-occur. The
//! paper uses the resulting heatmap to surface scheduler-relevant
//! correlations (e.g. *read on start* ∧ *write on end* — the classic
//! read-compute-write motif).

use crate::category::Category;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A symmetric category × category Jaccard matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JaccardMatrix {
    /// Categories present in at least one input set, sorted.
    pub categories: Vec<Category>,
    /// Row-major `categories.len()²` matrix of Jaccard indices.
    pub values: Vec<f64>,
    /// Number of traces carrying each category (diagonal support).
    pub support: Vec<usize>,
    /// Number of trace sets analyzed.
    pub n_traces: usize,
}

impl JaccardMatrix {
    /// Compute the matrix from one category set per trace.
    ///
    /// One pass counts, for every pair of categories, the sets holding
    /// both — O(Σ|set|²) — and the union follows as `|Tₐ| + |T_b| − |Tₐ ∩ T_b|`.
    pub fn compute<'a, I>(sets: I) -> JaccardMatrix
    where
        I: IntoIterator<Item = &'a BTreeSet<Category>>,
    {
        // `both[a][b]`: sets holding categories `a` and `b` (dense indices);
        // the diagonal is each category's support.
        let mut both = [[0usize; Category::COUNT]; Category::COUNT];
        let mut seen: [Option<Category>; Category::COUNT] = [None; Category::COUNT];
        let mut n_traces = 0;
        let mut members: Vec<usize> = Vec::with_capacity(Category::COUNT);
        for set in sets {
            n_traces += 1;
            members.clear();
            for &c in set {
                let i = c.index();
                if let Some(slot) = seen.get_mut(i) {
                    *slot = Some(c);
                    members.push(i);
                }
            }
            for &a in &members {
                if let Some(row) = both.get_mut(a) {
                    for &b in &members {
                        if let Some(n) = row.get_mut(b) {
                            *n += 1;
                        }
                    }
                }
            }
        }
        let present: Vec<(Category, &[usize; Category::COUNT])> =
            seen.iter().zip(&both).filter_map(|(c, row)| c.map(|c| (c, row))).collect();
        let categories: Vec<Category> = present.iter().map(|&(c, _)| c).collect();
        let support: Vec<usize> =
            present.iter().map(|&(c, row)| row.get(c.index()).copied().unwrap_or(0)).collect();
        let mut values = Vec::with_capacity(present.len() * present.len());
        for (&(_, row), &sa) in present.iter().zip(&support) {
            for (&b, &sb) in categories.iter().zip(&support) {
                let inter = row.get(b.index()).copied().unwrap_or(0);
                let union = sa + sb - inter;
                values.push(if union == 0 { 0.0 } else { inter as f64 / union as f64 });
            }
        }
        JaccardMatrix { categories, values, support, n_traces }
    }

    /// Jaccard index of a pair, `None` if either category never occurred.
    pub fn get(&self, a: Category, b: Category) -> Option<f64> {
        let i = self.categories.iter().position(|&c| c == a)?;
        let j = self.categories.iter().position(|&c| c == b)?;
        self.values.get(i * self.categories.len() + j).copied()
    }

    /// Conditional co-occurrence `P(b | a) = |Tₐ ∩ T_b| / |Tₐ|` — the form
    /// behind statements like "66 % of applications reading on start write
    /// on end". `None` if `a` never occurred.
    pub fn conditional(
        &self,
        sets: &[BTreeSet<Category>],
        a: Category,
        b: Category,
    ) -> Option<f64> {
        let with_a: Vec<&BTreeSet<Category>> = sets.iter().filter(|s| s.contains(&a)).collect();
        if with_a.is_empty() {
            return None;
        }
        let both = with_a.iter().filter(|s| s.contains(&b)).count();
        Some(both as f64 / with_a.len() as f64)
    }

    /// Pairs with an index of at least `threshold`, excluding the diagonal,
    /// sorted by descending index. This is the "relevant correlations" view
    /// Fig 5 plots (the paper shows values above 1 %).
    pub fn relevant_pairs(&self, threshold: f64) -> Vec<(Category, Category, f64)> {
        let n = self.categories.len();
        let mut out = Vec::new();
        for (i, &a) in self.categories.iter().enumerate() {
            for (j, &b) in self.categories.iter().enumerate().skip(i + 1) {
                let v = self.values.get(i * n + j).copied().unwrap_or(0.0);
                if v >= threshold {
                    out.push((a, b, v));
                }
            }
        }
        out.sort_by(|a, b| b.2.total_cmp(&a.2));
        out
    }

    /// Render the matrix as an aligned text heatmap (category names down the
    /// side, percentages in the cells), the terminal stand-in for Fig 5.
    pub fn render_text(&self) -> String {
        let n = self.categories.len();
        let names: Vec<String> = self.categories.iter().map(Category::name).collect();
        let width = names.iter().map(String::len).max().unwrap_or(8).max(6);
        let mut out = String::new();
        out.push_str(&format!("{:width$}  ", "", width = width));
        for j in 0..n {
            out.push_str(&format!("{:>6}", format!("[{j}]")));
        }
        out.push('\n');
        for (i, name) in names.iter().enumerate() {
            out.push_str(&format!("{name:width$}  "));
            for j in 0..n {
                let v = self.values.get(i * n + j).copied().unwrap_or(0.0);
                if v < 0.01 && i != j {
                    out.push_str(&format!("{:>6}", "."));
                } else {
                    out.push_str(&format!("{:>6.0}", v * 100.0));
                }
            }
            out.push_str(&format!("  [{i}]\n"));
        }
        out
    }
}

/// The set-intersection form [`JaccardMatrix::compute`] replaced: one trace
/// set per category, every pair intersected and unioned. The independent
/// reference for the differential test below.
#[cfg(test)]
fn reference_compute(sets: &[BTreeSet<Category>]) -> JaccardMatrix {
    use std::collections::BTreeMap;
    let mut members: BTreeMap<Category, BTreeSet<usize>> = BTreeMap::new();
    for (i, set) in sets.iter().enumerate() {
        for &c in set {
            members.entry(c).or_default().insert(i);
        }
    }
    let categories: Vec<Category> = members.keys().copied().collect();
    let n = categories.len();
    let support: Vec<usize> = members.values().map(BTreeSet::len).collect();
    let mut values = Vec::with_capacity(n * n);
    for ta in members.values() {
        for tb in members.values() {
            let inter = ta.intersection(tb).count();
            let union = ta.union(tb).count();
            values.push(if union == 0 { 0.0 } else { inter as f64 / union as f64 });
        }
    }
    JaccardMatrix { categories, values, support, n_traces: sets.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{MetadataLabel, OpKindTag, TemporalityLabel};

    fn read_on_start() -> Category {
        Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart }
    }
    fn write_on_end() -> Category {
        Category::Temporality { kind: OpKindTag::Write, label: TemporalityLabel::OnEnd }
    }
    fn meta_spike() -> Category {
        Category::Metadata(MetadataLabel::HighSpike)
    }

    fn sets() -> Vec<BTreeSet<Category>> {
        vec![
            [read_on_start(), write_on_end()].into_iter().collect(),
            [read_on_start(), write_on_end()].into_iter().collect(),
            [read_on_start()].into_iter().collect(),
            [meta_spike()].into_iter().collect(),
        ]
    }

    #[test]
    fn jaccard_values() {
        let m = JaccardMatrix::compute(&sets());
        // read_on_start: {0,1,2}; write_on_end: {0,1} → J = 2/3.
        assert!((m.get(read_on_start(), write_on_end()).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        // Disjoint pair.
        assert_eq!(m.get(read_on_start(), meta_spike()).unwrap(), 0.0);
        // Diagonal is 1.
        assert_eq!(m.get(meta_spike(), meta_spike()).unwrap(), 1.0);
        assert_eq!(m.n_traces, 4);
    }

    #[test]
    fn symmetry() {
        let m = JaccardMatrix::compute(&sets());
        let n = m.categories.len();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(m.values[i * n + j], m.values[j * n + i]);
            }
        }
    }

    #[test]
    fn conditional_probability() {
        let m = JaccardMatrix::compute(&sets());
        let s = sets();
        // P(write_on_end | read_on_start) = 2/3.
        assert!(
            (m.conditional(&s, read_on_start(), write_on_end()).unwrap() - 2.0 / 3.0).abs() < 1e-12
        );
        // P(read_on_start | write_on_end) = 1.
        assert_eq!(m.conditional(&s, write_on_end(), read_on_start()).unwrap(), 1.0);
        let absent = Category::Metadata(MetadataLabel::HighDensity);
        assert_eq!(m.conditional(&s, absent, read_on_start()), None);
    }

    #[test]
    fn relevant_pairs_sorted_and_thresholded() {
        let m = JaccardMatrix::compute(&sets());
        let pairs = m.relevant_pairs(0.5);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (read_on_start(), write_on_end()));
        let all = m.relevant_pairs(0.0);
        assert!(all.len() >= pairs.len());
        assert!(all.windows(2).all(|w| w[0].2 >= w[1].2));
    }

    #[test]
    fn support_counts() {
        let m = JaccardMatrix::compute(&sets());
        let i = m.categories.iter().position(|&c| c == read_on_start()).unwrap();
        assert_eq!(m.support[i], 3);
    }

    #[test]
    fn empty_input() {
        let m = JaccardMatrix::compute(&[]);
        assert!(m.categories.is_empty());
        assert!(m.relevant_pairs(0.0).is_empty());
        assert_eq!(m.get(read_on_start(), write_on_end()), None);
    }

    #[test]
    fn pair_counting_equals_the_set_intersection_reference() {
        assert_eq!(JaccardMatrix::compute(&[]), reference_compute(&[]));
        for seed in 0..300 {
            let sets = crate::category::testutil::random_sets(seed);
            let got = JaccardMatrix::compute(&sets);
            let want = reference_compute(&sets);
            assert_eq!(got.categories, want.categories, "seed {seed}");
            assert_eq!(got.support, want.support, "seed {seed}");
            assert_eq!(got.n_traces, want.n_traces, "seed {seed}");
            let bits = |m: &JaccardMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
        }
    }

    #[test]
    fn every_category_in_every_set_is_all_ones() {
        let all: BTreeSet<Category> =
            crate::category::testutil::every_category().into_iter().collect();
        let sets = vec![all.clone(), BTreeSet::new(), all];
        let m = JaccardMatrix::compute(&sets);
        assert_eq!(m, reference_compute(&sets));
        assert_eq!(m.categories.len(), Category::COUNT);
        assert!(m.values.iter().all(|&v| v == 1.0));
        assert!(m.support.iter().all(|&n| n == 2));
        assert_eq!(m.n_traces, 3);
    }

    #[test]
    fn text_rendering_contains_names_and_percentages() {
        let m = JaccardMatrix::compute(&sets());
        let text = m.render_text();
        assert!(text.contains("read_on_start"));
        assert!(text.contains("metadata_high_spike"));
        assert!(text.contains("100")); // diagonal
    }
}
