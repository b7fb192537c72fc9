//! Application deduplication (§III-B1).
//!
//! "Since we want to categorize application behavior, we assume that all
//! executions of an application from a given user will belong to the same
//! categories. [...] For a set of executions, MOSAIC only analyzes the
//! heaviest (i.e. the most I/O-intensive) trace."

use std::collections::BTreeMap;

/// The `(uid, application basename)` grouping key.
pub type AppKey = (u32, String);

/// One application's runs, folded in order: the run count, the heaviest
/// run and the number of runs per category set.
///
/// The one per-application state of both drivers. The batch side folds
/// borrowed sets (`S = &BTreeSet<Category>`, or `()` when only the heaviest
/// run matters), the streaming [`crate::IncrementalAnalyzer`] owned ones.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFold<S> {
    /// Runs folded.
    pub runs: usize,
    /// Fold position of the heaviest run: the first of the maximal weight.
    pub heaviest: usize,
    /// Weight of the heaviest run.
    pub weight: i64,
    /// Category set of the heaviest run (the single-run representative).
    pub representative: S,
    /// Runs per distinct category set, sorted by set. A sorted `Vec`, not a
    /// map: most applications see one or two sets, and a map's first node
    /// costs ≈200 bytes per application where this costs one small entry.
    pub sets: Vec<(S, usize)>,
}

impl<S: Ord + Clone> AppFold<S> {
    /// Fold in the application's next run. Only a strictly heavier run
    /// replaces the heaviest, so ties stay with the earliest.
    fn add(&mut self, pos: usize, weight: i64, set: S) {
        self.runs += 1;
        if weight > self.weight {
            self.heaviest = pos;
            self.weight = weight;
            self.representative = set.clone();
        }
        match self.sets.binary_search_by(|(seen, _)| seen.cmp(&set)) {
            Ok(i) => {
                if let Some((_, runs)) = self.sets.get_mut(i) {
                    *runs += 1;
                }
            }
            Err(i) => self.sets.insert(i, (set, 1)),
        }
    }

    /// The modal (most common) category set and its run count. Ties go to
    /// the greatest set: `max_by` keeps the last maximum.
    pub fn modal(&self) -> Option<(&S, usize)> {
        self.sets.iter().max_by(|a, b| a.1.cmp(&b.1)).map(|(set, runs)| (set, *runs))
    }
}

/// Fold one run, at fold position `pos`, into its application's state.
pub(crate) fn fold_run<K: Ord, S: Ord + Clone>(
    apps: &mut BTreeMap<K, AppFold<S>>,
    pos: usize,
    key: K,
    weight: i64,
    set: S,
) {
    // A new application starts as its first run with none counted yet.
    let new = || AppFold {
        runs: 0,
        heaviest: pos,
        weight,
        representative: set.clone(),
        sets: Vec::new(),
    };
    apps.entry(key).or_insert_with(new).add(pos, weight, set);
}

/// Fold `(app key, I/O weight, category set)` per run, in order. Keys and
/// sets may be borrowed, so the batch side clones nothing per run.
pub(crate) fn fold_apps<K, S, I>(runs: I) -> BTreeMap<K, AppFold<S>>
where
    K: Ord,
    S: Ord + Clone,
    I: IntoIterator<Item = (K, i64, S)>,
{
    let mut apps = BTreeMap::new();
    for (pos, (key, weight, set)) in runs.into_iter().enumerate() {
        fold_run(&mut apps, pos, key, weight, set);
    }
    apps
}

/// Pick, for every application group, the position of its heaviest trace.
///
/// `items` provides `(app key, I/O weight)` per trace; ties break toward the
/// earliest trace for determinism. Returns positions sorted ascending. The
/// key is generic so callers can group by `&AppKey` without cloning it.
pub fn heaviest_per_app<K, I>(items: I) -> Vec<usize>
where
    K: Ord,
    I: IntoIterator<Item = (K, i64)>,
{
    let apps = fold_apps(items.into_iter().map(|(key, weight)| (key, weight, ())));
    let mut positions: Vec<usize> = apps.into_values().map(|app| app.heaviest).collect();
    positions.sort_unstable();
    positions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(uid: u32, name: &str) -> AppKey {
        (uid, name.to_owned())
    }

    #[test]
    fn heaviest_wins_per_group() {
        let items = vec![
            (key(1, "lmp"), 100),
            (key(1, "lmp"), 500),
            (key(1, "lmp"), 300),
            (key(2, "vasp"), 50),
        ];
        assert_eq!(heaviest_per_app(items), vec![1, 3]);
    }

    #[test]
    fn ties_break_to_first() {
        let items = vec![(key(1, "a"), 100), (key(1, "a"), 100)];
        assert_eq!(heaviest_per_app(items), vec![0]);
    }

    #[test]
    fn same_name_different_user_stays_separate() {
        let items = vec![(key(1, "app"), 10), (key(2, "app"), 20)];
        assert_eq!(heaviest_per_app(items).len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(heaviest_per_app(Vec::<(AppKey, i64)>::new()).is_empty());
        assert!(fold_apps(Vec::<(AppKey, i64, ())>::new()).is_empty());
    }

    #[test]
    fn borrowed_keys_pick_what_owned_keys_pick() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few keys and few weights, so duplicates and weight ties abound;
            // uid and name both vary so the tuple order is exercised.
            let items: Vec<(AppKey, i64)> = (0..rng.gen_range(0..80usize))
                .map(|_| {
                    let name = ["a", "b", "ab", ""][rng.gen_range(0..4usize)];
                    (key(rng.gen_range(0..3u32), name), rng.gen_range(-2..4i64))
                })
                .collect();
            let owned = heaviest_per_app(items.iter().cloned());
            let borrowed = heaviest_per_app(items.iter().map(|(k, w)| (k, *w)));
            assert_eq!(borrowed, owned, "seed {seed}");
            // The same runs with a category set each (here a small
            // integer): owned and borrowed folds keep the same state.
            let runs: Vec<(AppKey, i64, u8)> =
                items.iter().map(|(k, w)| (k.clone(), *w, rng.gen_range(0..3u8))).collect();
            let owned = fold_apps(runs.iter().cloned());
            let borrowed = fold_apps(runs.iter().map(|(k, w, s)| (k, *w, s)));
            assert!(
                borrowed
                    .iter()
                    .map(|(k, f)| (*k, f.runs, f.heaviest, f.weight, *f.representative))
                    .eq(owned.iter().map(|(k, f)| (
                        k,
                        f.runs,
                        f.heaviest,
                        f.weight,
                        f.representative
                    ))),
                "seed {seed}"
            );
            for (key, fold) in &owned {
                let modal = fold.modal().map(|(s, n)| (*s, n));
                assert_eq!(borrowed[&key].modal().map(|(s, n)| (**s, n)), modal, "seed {seed}");
            }
        }
    }

    #[test]
    fn fold_counts_runs_and_sets_and_keeps_the_first_heaviest() {
        let runs = vec![
            (key(1, "a"), 5, "x"),
            (key(2, "b"), 1, "y"),
            (key(1, "a"), 9, "y"),
            (key(1, "a"), 9, "x"),
            (key(1, "a"), 2, "y"),
        ];
        let apps = fold_apps(runs);
        let a = &apps[&key(1, "a")];
        assert_eq!((a.runs, a.heaviest, a.weight, a.representative), (4, 2, 9, "y"));
        assert_eq!(a.sets, [("x", 2), ("y", 2)]);
        // Two sets with two runs each: the tie goes to the greatest set.
        assert_eq!(a.modal(), Some((&"y", 2)));
        let b = &apps[&key(2, "b")];
        assert_eq!((b.runs, b.heaviest, b.modal()), (1, 1, Some((&"y", 1))));
    }
}
