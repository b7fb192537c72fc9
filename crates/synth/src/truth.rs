//! Ground-truth labels and accuracy scoring (§IV-E).
//!
//! The paper validated MOSAIC by manually labeling a random sample of 512
//! traces and comparing; we have the luxury of machine ground truth — every
//! generated trace carries the labels its builder intended. A trace counts
//! as *correctly classified* when every axis matches: both temporality
//! labels, both periodicity verdicts (presence and magnitude), and the
//! metadata label set.

use mosaic_core::category::{MetadataLabel, PeriodMagnitude, TemporalityLabel};
use mosaic_core::TraceReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The axes a trace is scored on, in the order [`GroundTruth::mismatches`]
/// reports them.
pub const AXES: [&str; 5] =
    ["read_temporality", "write_temporality", "read_periodicity", "write_periodicity", "metadata"];

/// The labels a generated trace is supposed to receive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Expected read temporality.
    pub read_temporality: TemporalityLabel,
    /// Expected write temporality.
    pub write_temporality: TemporalityLabel,
    /// Expected read periodicity (None = not periodic).
    pub read_periodic: Option<PeriodMagnitude>,
    /// Expected write periodicity.
    pub write_periodic: Option<PeriodMagnitude>,
    /// Expected metadata labels.
    pub metadata: BTreeSet<MetadataLabel>,
}

impl GroundTruth {
    /// A fully quiet truth (both directions insignificant, no periodicity,
    /// insignificant metadata) — the baseline most builders start from.
    pub fn quiet() -> GroundTruth {
        GroundTruth {
            read_temporality: TemporalityLabel::Insignificant,
            write_temporality: TemporalityLabel::Insignificant,
            read_periodic: None,
            write_periodic: None,
            metadata: [MetadataLabel::InsignificantLoad].into_iter().collect(),
        }
    }

    /// Compare against a MOSAIC report; returns the axes that disagree, in
    /// [`AXES`] order (empty = correctly classified).
    pub fn mismatches(&self, report: &TraceReport) -> Vec<&'static str> {
        let detected_read = report.read.periodic.first().map(|p| p.magnitude);
        let detected_write = report.write.periodic.first().map(|p| p.magnitude);
        let detected_meta: BTreeSet<MetadataLabel> =
            report.metadata.labels.iter().copied().collect();
        let wrong = [
            report.read.temporality.label != self.read_temporality,
            report.write.temporality.label != self.write_temporality,
            detected_read != self.read_periodic,
            detected_write != self.write_periodic,
            detected_meta != self.metadata,
        ];
        AXES.into_iter().zip(wrong).filter_map(|(axis, wrong)| wrong.then_some(axis)).collect()
    }

    /// `true` when the report matches on every axis.
    pub fn matches(&self, report: &TraceReport) -> bool {
        self.mismatches(report).is_empty()
    }
}

/// Accuracy summary over a sample of `(truth, report)` pairs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Sample size.
    pub total: usize,
    /// Traces matching on every axis.
    pub correct: usize,
    /// Per-axis error counts, as `(axis, count)`.
    pub errors_by_axis: Vec<(String, usize)>,
}

impl AccuracyReport {
    /// Score a sample.
    pub fn score<'a, I>(pairs: I) -> AccuracyReport
    where
        I: IntoIterator<Item = (&'a GroundTruth, &'a TraceReport)>,
    {
        let mut total = 0;
        let mut correct = 0;
        let mut errs: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for (truth, report) in pairs {
            total += 1;
            let mismatches = truth.mismatches(report);
            if mismatches.is_empty() {
                correct += 1;
            }
            for m in mismatches {
                *errs.entry(m).or_insert(0) += 1;
            }
        }
        AccuracyReport {
            total,
            correct,
            errors_by_axis: errs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        }
    }

    /// Fraction correct, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::{Categorizer, CategorizerConfig};
    use mosaic_darshan::ops::{OpKind, Operation, OperationView};

    fn report_for(reads: Vec<Operation>, writes: Vec<Operation>) -> TraceReport {
        let view = OperationView { runtime: 1000.0, nprocs: 8, reads, writes, meta: vec![] };
        Categorizer::new(CategorizerConfig::default()).categorize(&view)
    }

    fn op(kind: OpKind, start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind, start, end, bytes, ranks: 8 }
    }

    #[test]
    fn quiet_truth_matches_quiet_trace() {
        let report = report_for(vec![], vec![]);
        assert!(GroundTruth::quiet().matches(&report));
    }

    #[test]
    fn mismatch_axes_are_reported() {
        // Truth expects read on start, trace is quiet.
        let mut truth = GroundTruth::quiet();
        truth.read_temporality = TemporalityLabel::OnStart;
        let report = report_for(vec![], vec![]);
        assert_eq!(truth.mismatches(&report), vec!["read_temporality"]);
    }

    #[test]
    fn a_report_wrong_on_every_axis_names_every_axis_in_order() {
        let truth = GroundTruth {
            read_temporality: TemporalityLabel::OnStart,
            write_temporality: TemporalityLabel::OnEnd,
            read_periodic: Some(PeriodMagnitude::Minute),
            write_periodic: Some(PeriodMagnitude::Hour),
            metadata: BTreeSet::new(),
        };
        let report = report_for(vec![], vec![]);
        assert_eq!(truth.mismatches(&report), AXES);
    }

    #[test]
    fn each_axis_alone_is_named_alone() {
        let report = report_for(vec![], vec![]);
        let wrong_on: [fn(&mut GroundTruth); 5] = [
            |t| t.read_temporality = TemporalityLabel::OnStart,
            |t| t.write_temporality = TemporalityLabel::OnEnd,
            |t| t.read_periodic = Some(PeriodMagnitude::Minute),
            |t| t.write_periodic = Some(PeriodMagnitude::Hour),
            |t| t.metadata = [MetadataLabel::HighSpike].into_iter().collect(),
        ];
        for (axis, spoil) in AXES.into_iter().zip(wrong_on) {
            let mut truth = GroundTruth::quiet();
            spoil(&mut truth);
            assert_eq!(truth.mismatches(&report), [axis]);
        }
    }

    #[test]
    fn accuracy_counts_one_error_per_axis_of_a_wholly_wrong_trace() {
        let truth = GroundTruth {
            read_temporality: TemporalityLabel::Steady,
            write_temporality: TemporalityLabel::Steady,
            read_periodic: Some(PeriodMagnitude::Hour),
            write_periodic: Some(PeriodMagnitude::Minute),
            metadata: BTreeSet::new(),
        };
        let report = report_for(vec![], vec![]);
        let acc = AccuracyReport::score([(&truth, &report)]);
        assert_eq!((acc.total, acc.correct), (1, 0));
        let axes: Vec<&str> = acc.errors_by_axis.iter().map(|(axis, _)| axis.as_str()).collect();
        let mut expected = AXES.to_vec();
        expected.sort_unstable();
        assert_eq!(axes, expected, "errors_by_axis is keyed by axis name");
        assert!(acc.errors_by_axis.iter().all(|&(_, n)| n == 1));
    }

    #[test]
    fn periodic_axis_checks_magnitude() {
        let writes: Vec<Operation> = (0..8)
            .map(|i| op(OpKind::Write, 100.0 * i as f64, 100.0 * i as f64 + 5.0, 200 << 20))
            .collect();
        let report = report_for(vec![], writes);
        let mut truth = GroundTruth::quiet();
        truth.write_temporality = report.write.temporality.label;
        truth.write_periodic = Some(PeriodMagnitude::Minute);
        assert!(truth.matches(&report), "{:?}", truth.mismatches(&report));
        truth.write_periodic = Some(PeriodMagnitude::Hour);
        assert_eq!(truth.mismatches(&report), vec!["write_periodicity"]);
    }

    #[test]
    fn accuracy_scoring() {
        let quiet_report = report_for(vec![], vec![]);
        let truth_ok = GroundTruth::quiet();
        let mut truth_bad = GroundTruth::quiet();
        truth_bad.write_temporality = TemporalityLabel::OnEnd;
        let pairs = vec![(&truth_ok, &quiet_report), (&truth_bad, &quiet_report)];
        let acc = AccuracyReport::score(pairs);
        assert_eq!(acc.total, 2);
        assert_eq!(acc.correct, 1);
        assert_eq!(acc.accuracy(), 0.5);
        assert_eq!(acc.errors_by_axis, vec![("write_temporality".to_owned(), 1)]);
    }

    #[test]
    fn empty_sample_is_vacuously_accurate() {
        let acc = AccuracyReport::score(std::iter::empty());
        assert_eq!(acc.accuracy(), 1.0);
    }
}
