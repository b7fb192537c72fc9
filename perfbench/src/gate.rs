//! The output gate every run passes through.
//!
//! A run fails when any trace's funnel fate differs from the fate its
//! generator knows, when any input could not be read, or when any other
//! check (digest equality, replay fidelity, streaming-versus-batch counts)
//! does not hold. Failures are counted against the traces attempted over
//! every pass of the run.

use crate::corpus::Fate;
use mosaic_pipeline::{FunnelStats, RunOutcome};

/// Accumulated checks of one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Traces attempted, summed over passes.
    pub attempted: u64,
    /// Traces whose fate was wrong or whose input could not be read.
    pub failed: u64,
    /// Every other check that did not hold, in words.
    pub problems: Vec<String>,
}

impl Gate {
    /// Account one pass over the corpus. `valid[i]` says whether trace `i`
    /// survived the funnel; `io_errors` is the funnel's unreadable count.
    pub fn pass(&mut self, expected: &[Fate], valid: &[bool], io_errors: usize) {
        self.attempted += expected.len() as u64;
        let wrong = expected
            .iter()
            .zip(valid)
            .filter(|&(fate, &valid)| (*fate == Fate::Valid) != valid)
            .count();
        let unmatched = expected.len().abs_diff(valid.len());
        self.failed += (wrong + unmatched + io_errors) as u64;
    }

    /// Account one batch pass from its funnel and outcomes, also checking
    /// the funnel's per-class eviction counts.
    pub fn batch_pass(&mut self, expected: &[Fate], funnel: &FunnelStats, outcomes: &[RunOutcome]) {
        self.pass(expected, &valid_mask(expected.len(), outcomes), funnel.io_error);
        self.funnel_classes(expected, funnel);
    }

    /// Check the funnel's per-class eviction counts against the fates.
    pub fn funnel_classes(&mut self, expected: &[Fate], funnel: &FunnelStats) {
        let count = |fate| expected.iter().filter(|&&f| f == fate).count();
        let want = (count(Fate::Valid), count(Fate::FormatCorrupt), count(Fate::Invalid));
        let got = (funnel.valid, funnel.format_corrupt, funnel.invalid);
        self.check(want == got, || {
            format!("funnel (valid, format-corrupt, invalid) is {got:?}, generator says {want:?}")
        });
    }

    /// Record `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Share of attempted traces that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `true` when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// `mask[i]` is true when trace `i` of an `n`-trace corpus is among the
/// valid outcomes.
pub fn valid_mask(n: usize, outcomes: &[RunOutcome]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for o in outcomes {
        if let Some(slot) = mask.get_mut(o.index) {
            *slot = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use Fate::{FormatCorrupt as F, Invalid as I, Valid as V};

    #[test]
    fn failed_frac_counts_against_every_attempt_of_every_pass() {
        let mut gate = Gate::default();
        assert_eq!(gate.failed_frac(), 0.0);
        assert!(!gate.correct(), "a run that attempted nothing is not correct");
        let expected = [V, F, I, V];
        gate.pass(&expected, &[true, false, false, true], 0);
        assert!(gate.correct());
        // Second pass: trace 3 evicted although valid, plus one unreadable.
        gate.pass(&expected, &[true, false, false, false], 1);
        assert_eq!(gate.attempted, 8);
        assert_eq!(gate.failed, 2);
        assert_eq!(gate.failed_frac(), 0.25);
        assert!(!gate.correct());
    }

    #[test]
    fn a_corrupt_trace_that_survives_is_a_failure() {
        let mut gate = Gate::default();
        gate.pass(&[F, I], &[true, false], 0);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn missing_fates_count_as_failures() {
        let mut gate = Gate::default();
        gate.pass(&[V, V, V], &[true, true], 0);
        assert_eq!((gate.attempted, gate.failed), (3, 1));
    }

    #[test]
    fn funnel_classes_must_match_the_generator() {
        let mut gate = Gate::default();
        let wrong =
            FunnelStats { total: 3, valid: 1, format_corrupt: 2, invalid: 0, ..Default::default() };
        gate.funnel_classes(&[V, F, I], &wrong);
        assert_eq!(gate.problems.len(), 1);
        let right =
            FunnelStats { total: 3, valid: 1, format_corrupt: 1, invalid: 1, ..Default::default() };
        let mut gate = Gate::default();
        gate.funnel_classes(&[V, F, I], &right);
        assert!(gate.problems.is_empty());
    }
}
