//! Golden test: the OpenMetrics text exposition of a deterministically
//! populated recorder must match the committed fixture byte for byte.
//!
//! `Recorder::export_metrics` deliberately excludes wall-clock, so the
//! same recorded workload always exports the same bytes; any drift here
//! means the exposition format (ordering, mangling, type lines) changed
//! and downstream scrapers would see it too. To re-bless after an
//! intentional format change:
//!
//! ```sh
//! BLESS_GOLDEN=1 cargo test -p mosaic-obs --test golden
//! ```

use mosaic_obs::{Recorder, Stage};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("openmetrics.txt")
}

/// A fixed workload touching every family the pipeline exports: all five
/// stages, both worker lanes, every standard gauge, and two eviction
/// reasons (so label ordering inside a family is exercised).
fn deterministic_recorder() -> Recorder {
    let recorder = Recorder::new().with_worker_lanes(2);
    let metrics = recorder.pipeline_metrics();
    metrics.inflight().add(3);
    metrics.arena_resident().set(4_096);
    metrics.arena_peak().set_max(81_920);
    metrics.dedup_apps().set(7);
    metrics.count_eviction("truncated");
    metrics.count_eviction("truncated");
    metrics.count_eviction("io_error");
    if let Some(w) = metrics.worker_busy(0) {
        w.add(1_000);
    }
    if let Some(w) = metrics.worker_busy(1) {
        w.add(2_500);
    }
    recorder.record_nanos(Stage::Fetch, 100, 64);
    recorder.record_nanos(Stage::Fetch, 250, 64);
    recorder.record_nanos(Stage::Parse, 3_000, 512);
    recorder.record_nanos(Stage::Parse, 40_000, 2_048);
    recorder.record_nanos(Stage::Validate, 450, 0);
    recorder.record_nanos(Stage::Merge, 120, 0);
    recorder.record_nanos(Stage::Categorize, 50_000, 0);
    recorder
}

#[test]
fn openmetrics_exposition_matches_the_committed_golden() {
    let text = deterministic_recorder().export_metrics().to_openmetrics();
    let path = golden_path();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("blessing {path:?}: {e}"));
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read {path:?}: {e}\nbless it: BLESS_GOLDEN=1 cargo test -p mosaic-obs --test golden")
    });
    assert_eq!(
        text, committed,
        "OpenMetrics exposition drifted from the committed golden; if intentional, \
         re-bless with BLESS_GOLDEN=1 cargo test -p mosaic-obs --test golden"
    );
}

#[test]
fn exposition_is_deterministic_across_identical_workloads() {
    let a = deterministic_recorder().export_metrics();
    let b = deterministic_recorder().export_metrics();
    assert_eq!(a.to_openmetrics(), b.to_openmetrics());
    assert_eq!(a.to_json(), b.to_json());
}
