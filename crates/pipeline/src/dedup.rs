//! Application deduplication (§III-B1).
//!
//! "Since we want to categorize application behavior, we assume that all
//! executions of an application from a given user will belong to the same
//! categories. [...] For a set of executions, MOSAIC only analyzes the
//! heaviest (i.e. the most I/O-intensive) trace."

use std::collections::BTreeMap;

/// The `(uid, application basename)` grouping key.
pub type AppKey = (u32, String);

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
    let mut best: BTreeMap<K, (usize, i64)> = BTreeMap::new();
    for (pos, (key, weight)) in items.into_iter().enumerate() {
        match best.get_mut(&key) {
            Some(entry) => {
                if weight > entry.1 {
                    *entry = (pos, weight);
                }
            }
            None => {
                best.insert(key, (pos, weight));
            }
        }
    }
    let mut positions: Vec<usize> = best.into_values().map(|(pos, _)| pos).collect();
    positions.sort_unstable();
    positions
}

/// Group trace positions by application key (used by the stability
/// analysis, which needs *all* runs of each app). Generic over the key like
/// [`heaviest_per_app`].
pub fn group_by_app<K, I>(items: I) -> BTreeMap<K, Vec<usize>>
where
    K: Ord,
    I: IntoIterator<Item = K>,
{
    let mut groups: BTreeMap<K, Vec<usize>> = BTreeMap::new();
    for (pos, key) in items.into_iter().enumerate() {
        groups.entry(key).or_default().push(pos);
    }
    groups
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
        assert!(group_by_app(Vec::<AppKey>::new()).is_empty());
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
            let owned = group_by_app(items.iter().map(|(k, _)| k.clone()));
            let borrowed = group_by_app(items.iter().map(|(k, _)| k));
            assert!(
                borrowed.into_iter().eq(owned.iter().map(|(k, v)| (k, v.clone()))),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn grouping_collects_all_positions() {
        let keys = vec![key(1, "a"), key(2, "b"), key(1, "a"), key(1, "a")];
        let groups = group_by_app(keys);
        assert_eq!(groups[&key(1, "a")], vec![0, 2, 3]);
        assert_eq!(groups[&key(2, "b")], vec![1]);
    }
}
