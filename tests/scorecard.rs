//! The scorecard's row checks, one test per scorecard entry.
//!
//! Each test measures one entry of `mosaic_bench::FIGURES` at the canonical
//! scale (`--n 20000 --seed 42`), fails naming the first row outside its
//! check, and renders the entry so that a reading citing a missing row
//! fails too. The canonical pipeline run is built once and shared.
//!
//! The checks are the paper's claims that a synthetic year must keep:
//! §IV-D's three conditional shares and its metadata skew, the Fig 5 motif,
//! Table II's minute and hour write periods, §III-A's axis labels on every
//! valid trace, and §IV-E's accuracy floor. The extensions keep the claims
//! their EXPERIMENTS paragraphs state: §II-B's MOSAIC-vs-FFT split, §IV-A's
//! DXT majority, §V discovery's purity, §V interference's staggering gain
//! and the online verdict by half the runtime. Each ablation checks the
//! choice DESIGN.md states, as a margin over its alternatives: 4 chunks,
//! Mean Shift on log features, both merges, the spectral detector's edge
//! under volume jitter, and the one-way move of each threshold sweep. Each
//! extension's and ablation's test of its checked rows' presence fails when
//! the entry stops measuring one.

use mosaic_bench::scorecard::render_text;
use mosaic_bench::{figure, Inputs, Scale, FIGURES};
use std::sync::OnceLock;

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| Inputs::new(Scale::default()))
}

fn check(key: &str) {
    let rows = figure(key, inputs());
    assert!(!rows.is_empty(), "{key} has no rows");
    if let Some(row) = rows.iter().find(|r| !r.passes()) {
        panic!(
            "{key}: row {:?} measures {}, outside its check {}",
            row.quantity,
            row.measured,
            row.rule().unwrap_or_default()
        );
    }
    assert!(render_text(&rows).contains(key));
}

/// Fail unless `key` still measures each of `quantities` under a check: a
/// checked row that an entry stops emitting can no longer fail.
fn keeps_checked(key: &str, quantities: &[&str]) {
    let rows = figure(key, inputs());
    for quantity in quantities {
        let row = rows.iter().find(|r| r.quantity == *quantity);
        let row = row.unwrap_or_else(|| panic!("{key} no longer measures {quantity:?}"));
        assert!(row.check.is_some(), "{key}: {quantity:?} lost its check");
    }
}

#[test]
fn sec2b_keeps_both_separation_checks() {
    keeps_checked(
        "§II-B",
        &["ratios where MOSAIC separates both", "ratios where the FFT separates both"],
    );
}

#[test]
fn sec4a_keeps_the_dxt_majority_check() {
    keeps_checked("§IV-A", &["of those, share periodic under DXT"]);
}

#[test]
fn discovery_keeps_a_purity_check_at_every_k() {
    let at = [4, 6, 8, 10, 12].map(|k| format!("k = {k}: purity"));
    keeps_checked("§V discovery", &at.each_ref().map(String::as_str));
}

#[test]
fn interference_keeps_both_staggering_checks() {
    keeps_checked(
        "§V interference",
        &["batch: K = 8 at once, contention removed", "batch: K = 4 at once, contention removed"],
    );
}

#[test]
fn online_keeps_the_half_runtime_check() {
    keeps_checked("online", &["final verdict by half the runtime"]);
}

#[test]
fn ablation_chunks_keeps_the_four_chunk_margin() {
    keeps_checked("ablation: chunks", &["4 chunks − best other count, temporality accuracy"]);
}

#[test]
fn ablation_clustering_keeps_both_margins_at_two_and_three_behaviours() {
    keeps_checked(
        "ablation: clustering",
        &[
            "mean shift (log) − best other method: 2 behaviours",
            "log − linear features: 2 behaviours",
            "mean shift (log) − best other method: 3 behaviours",
            "log − linear features: 3 behaviours",
        ],
    );
}

#[test]
fn ablation_merging_keeps_both_merge_margins() {
    keeps_checked(
        "ablation: merging",
        &[
            "both merges − no merge, smallest over desyncs",
            "both merges − concurrent only, smallest over desyncs",
        ],
    );
}

#[test]
fn ablation_periodicity_method_keeps_the_spectral_margins() {
    keeps_checked(
        "ablation: periodicity method",
        &[
            "spectral − meanshift: periodic found, share",
            "spectral − meanshift: magnitude correct",
            "meanshift − spectral: false alarms",
            "spectral − meanshift, stress, 0% timing and 200% volume jitter",
        ],
    );
}

#[test]
fn ablation_thresholds_keeps_a_monotone_check_per_sweep() {
    keeps_checked(
        "ablation: thresholds",
        &[
            "significance rising: smallest step of an insignificant share",
            "high-spike bar falling: smallest step of high_spike",
            "steady CV rising: smallest step of a steady share",
        ],
    );
}

macro_rules! entries {
    ($($test:ident => $key:literal,)*) => {
        $(
            #[test]
            fn $test() {
                check($key);
            }
        )*

        #[test]
        fn every_scorecard_entry_has_a_test() {
            let tested = [$($key),*];
            for entry in FIGURES {
                assert!(tested.contains(&entry.key), "no test for {}", entry.key);
            }
            assert_eq!(tested.len(), FIGURES.len());
        }
    };
}

entries! {
    fig3_funnel => "Fig 3",
    fig4_metadata => "Fig 4",
    fig5_jaccard_motif => "Fig 5",
    sec3b1_stability => "§III-B1",
    table2_minute_and_hour_write_periods => "Table II",
    table3_every_valid_trace_has_its_axis_labels => "Table III",
    sec4d_correlations => "§IV-D",
    sec4e_accuracy_floor => "§IV-E",
    sec2b_mosaic_vs_fft => "§II-B",
    sec4a_dxt_aggregation_gap => "§IV-A",
    discovery => "§V discovery",
    interference => "§V interference",
    online_categorization => "online",
    ablation_chunks => "ablation: chunks",
    ablation_clustering => "ablation: clustering",
    ablation_merging => "ablation: merging",
    ablation_periodicity_method => "ablation: periodicity method",
    ablation_thresholds => "ablation: thresholds",
}
