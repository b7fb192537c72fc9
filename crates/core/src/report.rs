//! Aggregate statistics over many trace reports (§III-B4's "statistics
//! about the global behavior").
//!
//! MOSAIC reports every distribution twice: over the **deduplicated**
//! single-run set (application behaviour) and over **all runs** (load on
//! the parallel file system). [`CategoryCounts`] is the building block for
//! both views; the pipeline crate owns the dedup bookkeeping.

use crate::category::Category;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How many traces carry each category, with the population size for
/// percentage math.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CategoryCounts {
    counts: BTreeMap<Category, usize>,
    /// Number of trace category-sets aggregated.
    pub total: usize,
}

impl CategoryCounts {
    /// Aggregate a collection of category sets: count into a dense array
    /// over the categories, then build the map once.
    pub fn from_sets<'a, I: IntoIterator<Item = &'a BTreeSet<Category>>>(sets: I) -> Self {
        let mut dense: [(Option<Category>, usize); Category::COUNT] = [(None, 0); Category::COUNT];
        let mut total = 0;
        for set in sets {
            total += 1;
            for &c in set {
                if let Some((seen, n)) = dense.get_mut(c.index()) {
                    *seen = Some(c);
                    *n += 1;
                }
            }
        }
        let counts = dense.into_iter().filter_map(|(c, n)| Some((c?, n))).collect();
        CategoryCounts { counts, total }
    }

    /// Fold one more trace in.
    pub fn add(&mut self, set: &BTreeSet<Category>) {
        self.total += 1;
        for &c in set {
            *self.counts.entry(c).or_insert(0) += 1;
        }
    }

    /// Count for one category.
    pub fn count(&self, c: Category) -> usize {
        self.counts.get(&c).copied().unwrap_or(0)
    }

    /// Fraction of traces carrying `c`, in `[0, 1]`.
    pub fn fraction(&self, c: Category) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(c) as f64 / self.total as f64
        }
    }

    /// All `(category, count)` pairs, sorted by descending count.
    pub fn ranked(&self) -> Vec<(Category, usize)> {
        let mut v: Vec<(Category, usize)> = self.counts.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Iterate `(category, count)` in category order.
    pub fn iter(&self) -> impl Iterator<Item = (Category, usize)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    /// CSV export (`category,count,fraction`), for downstream plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("category,count,fraction\n");
        for (c, n) in self.ranked() {
            out.push_str(&format!("{},{},{:.6}\n", c.name(), n, self.fraction(c)));
        }
        out
    }

    /// Render a `name  count  percent` table, the terminal stand-in for the
    /// paper's distribution tables.
    pub fn render_table(&self, title: &str) -> String {
        let mut out = format!("{title} ({} traces)\n", self.total);
        let width = self.counts.keys().map(|c| c.name().len()).max().unwrap_or(8).max(8);
        for (c, n) in self.ranked() {
            out.push_str(&format!(
                "  {:width$}  {:>8}  {:>5.1}%\n",
                c.name(),
                n,
                100.0 * self.fraction(c),
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{MetadataLabel, OpKindTag, TemporalityLabel};

    fn c_read_start() -> Category {
        Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart }
    }
    fn c_spike() -> Category {
        Category::Metadata(MetadataLabel::HighSpike)
    }

    #[test]
    fn counting_and_fractions() {
        let sets: Vec<BTreeSet<Category>> = vec![
            [c_read_start(), c_spike()].into_iter().collect(),
            [c_read_start()].into_iter().collect(),
            BTreeSet::new(),
            [c_spike()].into_iter().collect(),
        ];
        let counts = CategoryCounts::from_sets(&sets);
        assert_eq!(counts.total, 4);
        assert_eq!(counts.count(c_read_start()), 2);
        assert_eq!(counts.fraction(c_read_start()), 0.5);
        assert_eq!(counts.fraction(c_spike()), 0.5);
        let absent = Category::Metadata(MetadataLabel::HighDensity);
        assert_eq!(counts.count(absent), 0);
        assert_eq!(counts.fraction(absent), 0.0);
    }

    #[test]
    fn ranked_is_descending() {
        let sets: Vec<BTreeSet<Category>> = vec![
            [c_read_start(), c_spike()].into_iter().collect(),
            [c_read_start()].into_iter().collect(),
        ];
        let ranked = CategoryCounts::from_sets(&sets).ranked();
        assert_eq!(ranked[0], (c_read_start(), 2));
        assert_eq!(ranked[1], (c_spike(), 1));
    }

    #[test]
    fn empty_population() {
        let counts = CategoryCounts::default();
        assert_eq!(counts.fraction(c_spike()), 0.0);
        assert!(counts.ranked().is_empty());
    }

    #[test]
    fn table_rendering() {
        let sets: Vec<BTreeSet<Category>> =
            vec![[c_read_start()].into_iter().collect(), [c_read_start()].into_iter().collect()];
        let t = CategoryCounts::from_sets(&sets).render_table("Temporality");
        assert!(t.contains("Temporality (2 traces)"));
        assert!(t.contains("read_on_start"));
        assert!(t.contains("100.0%"));
    }

    #[test]
    fn csv_export() {
        let sets: Vec<BTreeSet<Category>> =
            vec![[c_read_start()].into_iter().collect(), BTreeSet::new()];
        let csv = CategoryCounts::from_sets(&sets).to_csv();
        assert!(csv.starts_with("category,count,fraction\n"));
        assert!(csv.contains("read_on_start,1,0.500000"));
    }

    #[test]
    fn dense_count_equals_the_map_fold() {
        for seed in 0..300 {
            let sets = crate::category::testutil::random_sets(seed);
            let mut folded = CategoryCounts::default();
            for set in &sets {
                folded.add(set);
            }
            let dense = CategoryCounts::from_sets(&sets);
            assert_eq!(dense, folded, "seed {seed}");
            let bits = |c: &CategoryCounts| {
                c.iter().map(|(cat, _)| c.fraction(cat).to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&dense), bits(&folded), "seed {seed}");
        }
        assert_eq!(CategoryCounts::from_sets(&[]), CategoryCounts::default());
    }

    #[test]
    fn serde_roundtrip() {
        let sets: Vec<BTreeSet<Category>> = vec![[c_spike()].into_iter().collect()];
        let counts = CategoryCounts::from_sets(&sets);
        let json = serde_json::to_string(&counts).unwrap();
        let back: CategoryCounts = serde_json::from_str(&json).unwrap();
        assert_eq!(back, counts);
    }
}
