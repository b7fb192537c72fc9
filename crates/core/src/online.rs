//! Online categorization of partially observed traces.
//!
//! §IV-E: "beyond analysis on a large set of traces, MOSAIC can also be
//! used for application-by-application categorization to provide
//! information to a job scheduler". A scheduler does not want to wait for
//! the job to finish — it wants the category as soon as the evidence
//! supports it. This module categorizes the *prefix* of a trace observed up
//! to time `t` and measures when the verdict stabilizes.
//!
//! Prefix semantics: operations that started after `t` are invisible;
//! operations spanning `t` are clipped with their bytes prorated (the
//! tracer would only have seen the data moved so far); the runtime becomes
//! `t`, so chunk analysis reflects the observed window — exactly what an
//! in-flight Darshan snapshot would deliver.

use crate::categorize::{Categorizer, TraceReport};
use mosaic_darshan::ops::{Operation, OperationView};

/// The observable prefix of a view at time `t`.
pub fn truncate_view(view: &OperationView, t: f64) -> OperationView {
    let t = t.clamp(0.0, view.runtime);
    let clip = |ops: &[Operation]| -> Vec<Operation> {
        ops.iter()
            .filter(|o| o.start < t)
            .map(|o| {
                if o.end <= t {
                    *o
                } else {
                    let full = (o.end - o.start).max(1e-12);
                    let frac = (t - o.start) / full;
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "f64-to-u64 `as` saturates; frac is in [0, 1] so the product stays within o.bytes"
                    )]
                    let bytes = (o.bytes as f64 * frac) as u64;
                    Operation { end: t, bytes, ..*o }
                }
            })
            .collect()
    };
    OperationView {
        runtime: t,
        nprocs: view.nprocs,
        reads: clip(&view.reads),
        writes: clip(&view.writes),
        meta: view.meta.iter().filter(|e| e.time <= t).copied().collect(),
    }
}

/// Categorize the prefix observed up to `t`.
pub fn categorize_at(categorizer: &Categorizer, view: &OperationView, t: f64) -> TraceReport {
    categorizer.categorize(&truncate_view(view, t))
}

/// Sweep observation fractions and report, for each, whether the prefix
/// verdict already matches the final verdict on every axis a scheduler
/// would act on (both temporality labels and write periodicity presence).
pub fn stabilization_profile(
    categorizer: &Categorizer,
    view: &OperationView,
    fractions: &[f64],
) -> Vec<(f64, bool)> {
    let final_report = categorizer.categorize(view);
    fractions
        .iter()
        .map(|&f| {
            let report = categorize_at(categorizer, view, view.runtime * f);
            (f, verdicts_match(&report, &final_report))
        })
        .collect()
}

/// Earliest fraction (from `fractions`, ascending) at which the verdict
/// matches the final one *and stays matching* for all later fractions.
/// `None` if only the full trace suffices.
pub fn decision_fraction(
    categorizer: &Categorizer,
    view: &OperationView,
    fractions: &[f64],
) -> Option<f64> {
    let profile = stabilization_profile(categorizer, view, fractions);
    let mut earliest = None;
    for &(f, stable) in &profile {
        if stable {
            earliest.get_or_insert(f);
        } else {
            earliest = None;
        }
    }
    earliest
}

fn verdicts_match(a: &TraceReport, b: &TraceReport) -> bool {
    a.read.temporality.label == b.read.temporality.label
        && a.write.temporality.label == b.write.temporality.label
        && a.write.periodic.is_empty() == b.write.periodic.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::TemporalityLabel;
    use mosaic_darshan::ops::OpKind;

    const MB: u64 = 1 << 20;

    fn op(kind: OpKind, start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind, start, end, bytes, ranks: 8 }
    }

    fn categorizer() -> Categorizer {
        Categorizer::default()
    }

    #[test]
    fn truncation_clips_and_prorates() {
        let view = OperationView {
            runtime: 100.0,
            nprocs: 8,
            reads: vec![op(OpKind::Read, 10.0, 30.0, 1000 * MB), op(OpKind::Read, 60.0, 70.0, MB)],
            writes: vec![],
            meta: vec![],
        };
        let half = truncate_view(&view, 20.0);
        assert_eq!(half.runtime, 20.0);
        assert_eq!(half.reads.len(), 1);
        assert_eq!(half.reads[0].end, 20.0);
        assert_eq!(half.reads[0].bytes, 500 * MB); // half the interval seen
    }

    #[test]
    fn read_on_start_is_decidable_early() {
        // Big read in the first 5 %, nothing after: by 40 % of runtime the
        // verdict matches the final one.
        let view = OperationView {
            runtime: 1000.0,
            nprocs: 8,
            reads: vec![op(OpKind::Read, 5.0, 40.0, 900 * MB)],
            writes: vec![],
            meta: vec![],
        };
        let c = categorizer();
        let fractions = [0.25, 0.5, 0.75, 1.0];
        let d = decision_fraction(&c, &view, &fractions);
        assert!(d.is_some() && d.unwrap() <= 0.5, "decision at {d:?}");
    }

    #[test]
    fn write_on_end_needs_the_end() {
        let view = OperationView {
            runtime: 1000.0,
            nprocs: 8,
            reads: vec![],
            writes: vec![op(OpKind::Write, 950.0, 990.0, 900 * MB)],
            meta: vec![],
        };
        let c = categorizer();
        // At half time nothing has happened: verdict is write-insignificant,
        // not write_on_end.
        let half = categorize_at(&c, &view, 500.0);
        assert_eq!(half.write.temporality.label, TemporalityLabel::Insignificant);
        let d = decision_fraction(&c, &view, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(d, Some(1.0));
    }

    #[test]
    fn periodic_writes_detectable_midway() {
        let writes: Vec<Operation> = (0..10)
            .map(|i| op(OpKind::Write, 100.0 * i as f64 + 30.0, 100.0 * i as f64 + 38.0, 400 * MB))
            .collect();
        let view =
            OperationView { runtime: 1000.0, nprocs: 8, reads: vec![], writes, meta: vec![] };
        let c = categorizer();
        let half = categorize_at(&c, &view, 500.0);
        assert!(!half.write.periodic.is_empty(), "five checkpoints are enough to call the pattern");
    }

    #[test]
    fn full_fraction_always_matches() {
        let view = OperationView {
            runtime: 500.0,
            nprocs: 4,
            reads: vec![op(OpKind::Read, 1.0, 10.0, 200 * MB)],
            writes: vec![op(OpKind::Write, 480.0, 490.0, 200 * MB)],
            meta: vec![],
        };
        let profile = stabilization_profile(&categorizer(), &view, &[1.0]);
        assert_eq!(profile, vec![(1.0, true)]);
    }

    #[test]
    fn truncation_edge_cases() {
        let view = OperationView {
            runtime: 100.0,
            nprocs: 1,
            reads: vec![op(OpKind::Read, 0.0, 100.0, 100)],
            writes: vec![],
            meta: vec![],
        };
        let zero = truncate_view(&view, 0.0);
        assert!(zero.reads.is_empty());
        let over = truncate_view(&view, 500.0); // clamps to runtime
        assert_eq!(over.runtime, 100.0);
        assert_eq!(over.reads[0].bytes, 100);
    }
}
