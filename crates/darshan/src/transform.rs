//! Semantics-preserving trace transformations.
//!
//! The verification harness (`mosaic-verify`) checks *metamorphic
//! invariants*: transformations of a trace that MOSAIC's categorization
//! must be blind to. The transformations live here, next to the trace
//! container, because they need to know which fields carry wallclock
//! placement (the header's Unix timestamps) and which carry job-relative
//! time (every floating-point counter).
//!
//! * [`shift_time`] moves a job along the wallclock without touching its
//!   internal timeline — categorization reads only job-relative time, so
//!   the report must be bit-identical;
//! * [`scale_time`] dilates the job's internal timeline uniformly —
//!   temporality is defined on *fractions* of the runtime, so its labels
//!   must survive any power-of-two dilation exactly (absolute-time
//!   categories such as the period magnitude legitimately change).

use crate::counter::PosixFCounter;
use crate::log::TraceLog;

/// Shift a trace `delta` seconds along the wallclock.
///
/// Only the header's `start_time`/`end_time` move; every per-record
/// timestamp is job-relative and stays put. The runtime — and therefore the
/// operation view and the full category set — is unchanged.
pub fn shift_time(log: &TraceLog, delta: i64) -> TraceLog {
    let mut header = log.header().clone();
    header.start_time += delta;
    header.end_time += delta;
    TraceLog::from_parts(header, log.records().to_vec(), log.names().clone())
}

/// Dilate a trace's internal timeline by `factor`.
///
/// The runtime stretches to `runtime × factor` and every floating-point
/// counter — all eleven are time quantities: eight job-relative timestamps
/// and three cumulative durations — is multiplied by `factor`. Darshan's
/// `0.0 == never happened` sentinel is preserved (zero scales to zero).
///
/// Use power-of-two factors when asserting exact invariants: they keep
/// every float product exact, so decisions sitting on a threshold boundary
/// cannot flip through rounding.
pub fn scale_time(log: &TraceLog, factor: f64) -> TraceLog {
    assert!(factor > 0.0, "time scale factor must be positive");
    let mut header = log.header().clone();
    let runtime = header.end_time - header.start_time;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "f64-to-i64 `as` saturates; a scaled runtime beyond i64 clamps to the extreme"
    )]
    let scaled = (runtime as f64 * factor).round() as i64;
    header.end_time = header.start_time + scaled;
    let mut records = log.records().to_vec();
    for rec in &mut records {
        for c in PosixFCounter::ALL {
            let v = rec.getf(c);
            rec.setf(c, v * factor);
        }
    }
    TraceLog::from_parts(header, records, log.names().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PosixCounter as C;
    use crate::counter::PosixFCounter as F;
    use crate::job::JobHeader;
    use crate::log::TraceLogBuilder;
    use crate::ops::OperationView;

    fn sample() -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(9, 77, 8, 1000, 2000).with_exe("/bin/a"));
        let r = b.begin_record("/in", -1);
        b.record_mut(r)
            .set(C::Reads, 4)
            .set(C::BytesRead, 1 << 30)
            .set(C::Opens, 8)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 2.0)
            .setf(F::ReadEndTimestamp, 50.0);
        b.finish()
    }

    #[test]
    fn shift_moves_only_the_wallclock() {
        let log = sample();
        let shifted = shift_time(&log, 86_400);
        assert_eq!(shifted.header().start_time, 1000 + 86_400);
        assert_eq!(shifted.header().end_time, 2000 + 86_400);
        assert_eq!(shifted.header().runtime(), log.header().runtime());
        assert_eq!(shifted.records(), log.records());
        // The operation view — MOSAIC's input — is bit-identical.
        assert_eq!(OperationView::from_log(&shifted), OperationView::from_log(&log));
        // Negative shifts work too.
        let back = shift_time(&shifted, -86_400);
        assert_eq!(back, log);
    }

    #[test]
    fn scale_dilates_runtime_and_every_fcounter() {
        let log = sample();
        let scaled = scale_time(&log, 4.0);
        assert_eq!(scaled.header().runtime(), 4000.0);
        let rec = &scaled.records()[0];
        assert_eq!(rec.getf(F::OpenStartTimestamp), 4.0);
        assert_eq!(rec.getf(F::ReadStartTimestamp), 8.0);
        assert_eq!(rec.getf(F::ReadEndTimestamp), 200.0);
        // Integer counters and the name table are untouched.
        assert_eq!(rec.get(C::BytesRead), 1 << 30);
        assert_eq!(scaled.names(), log.names());
    }

    #[test]
    fn scale_preserves_the_never_happened_sentinel() {
        let log = sample();
        let scaled = scale_time(&log, 8.0);
        // WriteStartTimestamp was never set: it must stay exactly 0.0.
        assert_eq!(scaled.records()[0].getf(F::WriteStartTimestamp), 0.0);
    }

    #[test]
    fn power_of_two_scales_compose_exactly() {
        let log = sample();
        let there = scale_time(&log, 2.0);
        let back = scale_time(&there, 0.5);
        assert_eq!(back, log);
    }
}
