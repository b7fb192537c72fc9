//! Per-application categorization stability (§III-B1).
//!
//! The paper justifies deduplication by measuring how consistently the runs
//! of one application categorize: ≈97 % of LAMMPS' ~12,000 runs and ≈80 %
//! of NEK5000's runs land in the same categories. This module computes that
//! statistic: for each application, the fraction of its runs whose category
//! set equals the application's *modal* (most common) category set.

use crate::dedup::{fold_apps, AppFold, AppKey};
use crate::executor::RunOutcome;
use mosaic_core::category::Category;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeSet;

/// Stability of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppStability {
    /// The application key.
    pub app: AppKey,
    /// Number of (valid) runs observed.
    pub runs: usize,
    /// Runs sharing the modal category set.
    pub modal_runs: usize,
    /// The modal category set itself.
    pub modal_categories: BTreeSet<Category>,
}

impl AppStability {
    /// The stability of one application's folded runs: its modal category
    /// set (ties go to the greatest set) and how many runs share it.
    pub fn of<S: Borrow<BTreeSet<Category>> + Ord + Clone>(app: AppKey, fold: &AppFold<S>) -> Self {
        let (modal_categories, modal_runs) =
            fold.modal().map_or_else(Default::default, |(set, n)| (set.borrow().clone(), n));
        AppStability { app, runs: fold.runs, modal_runs, modal_categories }
    }

    /// Fraction of runs in the modal set.
    pub fn stability(&self) -> f64 {
        if self.runs == 0 {
            1.0
        } else {
            self.modal_runs as f64 / self.runs as f64
        }
    }
}

/// Compute stability per application from pipeline outcomes. Only apps with
/// at least `min_runs` runs are reported (stability of a single run is
/// vacuous).
pub fn app_stability(outcomes: &[RunOutcome], min_runs: usize) -> Vec<AppStability> {
    let apps = fold_apps(outcomes.iter().map(|o| (&o.app_key, o.weight, &o.report.categories)));
    let mut out: Vec<AppStability> = apps
        .iter()
        .filter(|(_, fold)| fold.runs >= min_runs)
        .map(|(&app, fold)| AppStability::of(app.clone(), fold))
        .collect();
    // Most-run apps first, like the paper's LAMMPS/NEK5000 discussion.
    out.sort_by_key(|s| std::cmp::Reverse(s.runs));
    out
}

/// Weighted mean stability over a set of applications (weight = run count).
pub fn mean_stability(stats: &[AppStability]) -> f64 {
    let total: usize = stats.iter().map(|s| s.runs).sum();
    if total == 0 {
        return 1.0;
    }
    stats.iter().map(|s| s.modal_runs).sum::<usize>() as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::{Categorizer, CategorizerConfig};
    use mosaic_darshan::ops::{OpKind, Operation, OperationView};
    use std::collections::BTreeMap;

    fn outcome(index: usize, uid: u32, app: &str, read_bytes: u64) -> RunOutcome {
        let view = OperationView {
            runtime: 1000.0,
            nprocs: 4,
            reads: vec![Operation {
                kind: OpKind::Read,
                start: 1.0,
                end: 20.0,
                bytes: read_bytes,
                ranks: 4,
            }],
            writes: vec![],
            meta: vec![],
        };
        let report = Categorizer::new(CategorizerConfig::default()).categorize(&view);
        RunOutcome {
            index,
            app_key: (uid, app.to_owned()),
            weight: read_bytes as i64,
            sanitized_records: 0,
            start_time: 0,
            end_time: 1000,
            report,
        }
    }

    /// A grouping reference for [`app_stability`]'s fold: every key cloned
    /// into a map of run positions, runs looked up by index.
    fn reference_app_stability(outcomes: &[RunOutcome], min_runs: usize) -> Vec<AppStability> {
        let mut groups: BTreeMap<AppKey, Vec<usize>> = BTreeMap::new();
        for (pos, o) in outcomes.iter().enumerate() {
            groups.entry(o.app_key.clone()).or_default().push(pos);
        }
        let mut out = Vec::new();
        for (app, positions) in groups {
            if positions.len() < min_runs {
                continue;
            }
            let mut freq: BTreeMap<&BTreeSet<Category>, usize> = BTreeMap::new();
            for &p in &positions {
                *freq.entry(&outcomes[p].report.categories).or_insert(0) += 1;
            }
            let (modal_set, modal_runs) = freq
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1))
                .map(|(s, n)| (s.clone(), n))
                .expect("non-empty group");
            out.push(AppStability {
                app,
                runs: positions.len(),
                modal_runs,
                modal_categories: modal_set,
            });
        }
        out.sort_by_key(|s| std::cmp::Reverse(s.runs));
        out
    }

    #[test]
    fn borrowed_grouping_equals_the_owned_key_reference() {
        use mosaic_core::category::{MetadataLabel, OpKindTag};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let template = outcome(0, 0, "", 1);
        let spike = Category::Metadata(MetadataLabel::HighSpike);
        let periodic = Category::Periodic { kind: OpKindTag::Write };
        // Four candidate sets, so modal-set ties are common.
        let pool: [BTreeSet<Category>; 4] = [
            BTreeSet::new(),
            [spike].into_iter().collect(),
            [periodic].into_iter().collect(),
            [spike, periodic].into_iter().collect(),
        ];
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcomes: Vec<RunOutcome> = (0..rng.gen_range(0..60usize))
                .map(|index| {
                    let mut o = template.clone();
                    o.index = index;
                    o.app_key =
                        (rng.gen_range(0..3u32), ["x", "y"][rng.gen_range(0..2usize)].into());
                    o.report.categories = pool[rng.gen_range(0..pool.len())].clone();
                    o
                })
                .collect();
            for min_runs in [0, 1, 2, 5] {
                assert_eq!(
                    app_stability(&outcomes, min_runs),
                    reference_app_stability(&outcomes, min_runs),
                    "seed {seed}, min_runs {min_runs}"
                );
            }
        }
    }

    #[test]
    fn modal_ties_go_to_the_greatest_set() {
        use mosaic_core::category::MetadataLabel;
        let mut outcomes = vec![outcome(0, 1, "t", 100), outcome(1, 1, "t", 100)];
        outcomes[1].report.categories = [Category::Metadata(MetadataLabel::HighSpike)].into();
        let stats = app_stability(&outcomes, 1);
        assert_eq!(stats, reference_app_stability(&outcomes, 1));
        let greatest = outcomes.iter().map(|o| &o.report.categories).max().unwrap();
        assert_eq!(&stats[0].modal_categories, greatest);
        assert_eq!(stats[0].modal_runs, 1);
    }

    #[test]
    fn stable_app_scores_one() {
        let outcomes: Vec<RunOutcome> = (0..10).map(|i| outcome(i, 1, "lmp", 500 << 20)).collect();
        let stats = app_stability(&outcomes, 2);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].stability(), 1.0);
        assert_eq!(stats[0].runs, 10);
        assert_eq!(mean_stability(&stats), 1.0);
    }

    #[test]
    fn unstable_app_scores_fractionally() {
        // 7 significant runs, 3 quiet runs → modal = significant, 0.7.
        let mut outcomes: Vec<RunOutcome> =
            (0..7).map(|i| outcome(i, 1, "nek", 500 << 20)).collect();
        outcomes.extend((7..10).map(|i| outcome(i, 1, "nek", 1 << 20)));
        let stats = app_stability(&outcomes, 2);
        assert_eq!(stats[0].modal_runs, 7);
        assert!((stats[0].stability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn min_runs_filters_singletons() {
        let outcomes = vec![outcome(0, 1, "a", 100), outcome(1, 2, "b", 100)];
        assert!(app_stability(&outcomes, 2).is_empty());
        assert_eq!(app_stability(&outcomes, 1).len(), 2);
    }

    #[test]
    fn sorted_by_run_count() {
        let mut outcomes: Vec<RunOutcome> = (0..5).map(|i| outcome(i, 1, "big", 100)).collect();
        outcomes.extend((5..7).map(|i| outcome(i, 2, "small", 100)));
        let stats = app_stability(&outcomes, 1);
        assert_eq!(stats[0].app.1, "big");
        assert_eq!(stats[1].app.1, "small");
    }

    #[test]
    fn empty_outcomes() {
        assert!(app_stability(&[], 1).is_empty());
        assert_eq!(mean_stability(&[]), 1.0);
    }
}
