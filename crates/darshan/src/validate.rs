//! Trace validity checking — MOSAIC pre-processing step ①.
//!
//! The paper: *"MOSAIC begins by opening each Darshan trace file to check its
//! validity. The corrupted entries (when a deallocation happens before the
//! end of the application's execution for instance) are deleted."* On the
//! Blue Waters dataset this evicted 32 % of traces (Fig 3).
//!
//! Two levels are distinguished here:
//!
//! * **format corruption** — the bytes do not decode ([`crate::mdf`] /
//!   [`crate::text`] errors); nothing can be salvaged, the trace is evicted;
//! * **semantic corruption** — the trace decodes, but individual records
//!   violate invariants ([`ValidityError`]). [`sanitize`] deletes the
//!   offending records; if nothing survives (or the job header itself is
//!   broken) the whole trace is evicted.

use crate::counter::{PosixCounter as C, PosixFCounter as F};
use crate::error::{EvictReason, ValidityError};
use crate::log::TraceLog;
use crate::record::{PosixRecord, RecordFields, SHARED_RANK};

/// Tolerance for timestamps slightly beyond the (integer-second) job
/// runtime: Darshan's job times are whole seconds while record timestamps
/// are not, so sub-second overhang is legitimate.
const RUNTIME_SLACK: f64 = 1.0;

/// Every rule one record breaks, in report order: the counter rules, then
/// [`ValidityError::MissingName`] when the record has no name-table entry
/// (`named` is false).
///
/// Generic over [`RecordFields`], so an owned [`crate::PosixRecord`] and a
/// [`crate::view::RecordView`] over the wire bytes are checked by this one
/// function.
pub fn check_record<R: RecordFields>(
    rec: &R,
    runtime: f64,
    nprocs: u32,
    named: bool,
) -> Vec<ValidityError> {
    let mut errs = Vec::new();

    let rank = rec.rank();
    if rank < SHARED_RANK || u32::try_from(rank).is_ok_and(|r| r >= nprocs.max(1)) {
        errs.push(ValidityError::RankOutOfRange);
    }
    let (bytes_read, bytes_written) = (rec.bytes_read(), rec.bytes_written());
    if bytes_read < 0 || bytes_written < 0 {
        errs.push(ValidityError::NegativeBytes);
    }
    if (bytes_read > 0 && rec.get(C::Reads) == 0) || (bytes_written > 0 && rec.get(C::Writes) == 0)
    {
        errs.push(ValidityError::BytesWithoutOps);
    }
    // One pass over the float counters decides both timestamp rules. NaN
    // fails every comparison, so it is tested for by name: a NaN time
    // cannot be placed within the runtime.
    let (mut negative, mut beyond) = (false, false);
    for c in F::ALL {
        let v = rec.getf(c);
        negative |= v < 0.0;
        beyond |= v.is_nan() || v > runtime + RUNTIME_SLACK;
    }
    if negative {
        errs.push(ValidityError::NegativeTimestamp);
    }

    for (start, end) in [
        (F::OpenStartTimestamp, F::OpenEndTimestamp),
        (F::ReadStartTimestamp, F::ReadEndTimestamp),
        (F::WriteStartTimestamp, F::WriteEndTimestamp),
        (F::CloseStartTimestamp, F::CloseEndTimestamp),
    ] {
        let (s, e) = (rec.getf(start), rec.getf(end));
        // 0.0 means "never happened": only check populated intervals.
        if s > 0.0 && e > 0.0 && e < s {
            errs.push(ValidityError::InvertedInterval);
            break;
        }
    }

    if beyond {
        errs.push(ValidityError::TimestampBeyondRuntime);
    }

    // The paper's canonical corruption: the record was deallocated (its
    // bookkeeping closed out) before the application ended, leaving I/O
    // attributed to it but a zeroed close timestamp despite closes counted.
    if rec.get(C::Closes) > 0
        && rec.getf(F::CloseEndTimestamp) == 0.0
        && (rec.has_reads() || rec.has_writes())
    {
        errs.push(ValidityError::DeallocatedBeforeEnd);
    }

    if !named {
        errs.push(ValidityError::MissingName);
    }
    errs
}

/// Read access to one whole trace: its job fields and its records, each
/// paired with whether the name table has an entry for it.
///
/// A decoded [`TraceLog`] and a borrowed [`crate::view::TraceView`] over
/// the wire bytes both implement it, so [`check_trace`] and the columnar
/// record walk run on either input without converting one into the other.
pub trait TraceFields {
    /// One record as the walk reads it.
    type Record<'r>: RecordFields
    where
        Self: 'r;

    /// Number of MPI processes (ranks).
    fn nprocs(&self) -> u32;

    /// Job start and end, Unix seconds.
    fn span(&self) -> (i64, i64);

    /// The `(uid, application name)` dedup key.
    fn app_key(&self) -> (u32, String);

    /// Every record, in record order, with whether the name table has an
    /// entry for it.
    fn named_records(&self) -> impl ExactSizeIterator<Item = (Self::Record<'_>, bool)>;

    /// Wallclock runtime in seconds (mirrors [`crate::JobHeader::runtime`]).
    #[inline]
    fn runtime(&self) -> f64 {
        let (start, end) = self.span();
        crate::job::runtime_of(start, end)
    }
}

impl TraceFields for TraceLog {
    type Record<'r> = &'r PosixRecord;

    fn nprocs(&self) -> u32 {
        self.header().nprocs
    }

    fn span(&self) -> (i64, i64) {
        (self.header().start_time, self.header().end_time)
    }

    fn app_key(&self) -> (u32, String) {
        self.header().app_key()
    }

    fn named_records(&self) -> impl ExactSizeIterator<Item = (&PosixRecord, bool)> {
        self.records().iter().map(|rec| (rec, self.names().contains_key(&rec.record_id)))
    }
}

/// Check a whole trace: the header rules, then [`check_record`] on every
/// `(record, named)` pair in record order. A record that breaks no rule is
/// handed to `keep`; a broken one lands in the report as
/// `(index, errors)` instead.
///
/// The one record loop of validation: [`validate`] runs it over a log,
/// [`crate::view::validate_view`] over wire bytes, and the columnar load
/// over either with `keep` extracting each valid record.
pub fn check_trace<'t, T: TraceFields>(
    trace: &'t T,
    mut keep: impl FnMut(T::Record<'t>),
) -> ValidityReport {
    let (runtime, nprocs) = (trace.runtime(), trace.nprocs());
    let header_errors = check_header_fields(runtime, nprocs);
    let records = trace.named_records();
    let records_checked = records.len();
    let mut record_errors = Vec::new();
    for (i, (rec, named)) in records.enumerate() {
        let errs = check_record(&rec, runtime, nprocs, named);
        if errs.is_empty() {
            keep(rec);
        } else {
            record_errors.push((i, errs));
        }
    }
    ValidityReport { header_errors, record_errors, records_checked }
}

/// Job-level invariants, on the header's bare fields.
fn check_header_fields(runtime: f64, nprocs: u32) -> Vec<ValidityError> {
    let mut errs = Vec::new();
    if runtime <= 0.0 {
        errs.push(ValidityError::NonPositiveRuntime);
    }
    if nprocs == 0 {
        errs.push(ValidityError::ZeroProcs);
    }
    errs
}

/// Full-trace report: header errors plus `(record index, errors)` for every
/// invalid record, plus name-table consistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidityReport {
    /// Violations of job-level invariants (fatal for the whole trace).
    pub header_errors: Vec<ValidityError>,
    /// Per-record violations, as `(record index, violated rules)`.
    pub record_errors: Vec<(usize, Vec<ValidityError>)>,
    /// Number of records checked.
    pub records_checked: usize,
}

impl ValidityReport {
    /// `true` when nothing at all is wrong.
    pub fn is_clean(&self) -> bool {
        self.header_errors.is_empty() && self.record_errors.is_empty()
    }

    /// `true` when the trace must be evicted outright: broken header, or no
    /// record survives sanitization.
    pub fn is_fatal(&self) -> bool {
        !self.header_errors.is_empty()
            || (self.records_checked > 0 && self.record_errors.len() == self.records_checked)
    }

    /// The typed funnel reason for a fatal report: the first violated
    /// header rule, or [`EvictReason::AllRecordsInvalid`] when the header is
    /// fine but nothing survived sanitization. Only meaningful when
    /// [`ValidityReport::is_fatal`] holds.
    pub fn evict_reason(&self) -> EvictReason {
        match self.header_errors.first() {
            Some(&rule) => EvictReason::ValidationFatal(rule),
            None => EvictReason::AllRecordsInvalid,
        }
    }
}

/// Validate a decoded trace.
pub fn validate(log: &TraceLog) -> ValidityReport {
    check_trace(log, |_| {})
}

/// Delete the records `report` flagged invalid, in place. Returns the number
/// of deleted records. The report must come from [`validate`] on this same
/// log (indices are positional).
pub fn delete_invalid(log: &mut TraceLog, report: &ValidityReport) -> usize {
    let bad: std::collections::BTreeSet<usize> =
        report.record_errors.iter().map(|(i, _)| *i).collect();
    if bad.is_empty() {
        return 0;
    }
    let mut idx = 0;
    log.records_mut().retain(|_| {
        let keep = !bad.contains(&idx);
        idx += 1;
        keep
    });
    bad.len()
}

/// Delete corrupted records in place (the paper's behaviour). Returns the
/// number of deleted records, or `Err` with the report when the trace as a
/// whole is unusable.
pub fn sanitize(log: &mut TraceLog) -> Result<usize, ValidityReport> {
    let report = validate(log);
    if report.is_fatal() {
        return Err(report);
    }
    Ok(delete_invalid(log, &report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobHeader;
    use crate::log::TraceLogBuilder;

    fn valid_log() -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/a"));
        let r = b.begin_record("/f", 0);
        b.record_mut(r)
            .set(C::Reads, 1)
            .set(C::BytesRead, 10)
            .set(C::Opens, 1)
            .set(C::Closes, 1)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 1.0)
            .setf(F::ReadEndTimestamp, 2.0)
            .setf(F::CloseEndTimestamp, 3.0);
        b.finish()
    }

    #[test]
    fn valid_trace_is_clean() {
        let report = validate(&valid_log());
        assert!(report.is_clean(), "{report:?}");
        assert!(!report.is_fatal());
    }

    #[test]
    fn dealloc_before_end_is_flagged() {
        let mut log = valid_log();
        log.records_mut()[0].setf(F::CloseEndTimestamp, 0.0);
        let report = validate(&log);
        assert_eq!(report.record_errors.len(), 1);
        assert!(report.record_errors[0].1.contains(&ValidityError::DeallocatedBeforeEnd));
    }

    #[test]
    fn inverted_interval_is_flagged() {
        let mut log = valid_log();
        log.records_mut()[0].setf(F::ReadEndTimestamp, 0.5); // < start 1.0
        let report = validate(&log);
        assert!(report.record_errors[0].1.contains(&ValidityError::InvertedInterval));
    }

    #[test]
    fn timestamp_beyond_runtime_is_flagged_with_slack() {
        let mut log = valid_log();
        log.records_mut()[0].setf(F::CloseEndTimestamp, 100.5); // within 1s slack
        assert!(validate(&log).is_clean());
        log.records_mut()[0].setf(F::CloseEndTimestamp, 150.0);
        let report = validate(&log);
        assert!(report.record_errors[0].1.contains(&ValidityError::TimestampBeyondRuntime));
    }

    #[test]
    fn header_errors_are_fatal() {
        let log = TraceLogBuilder::new(JobHeader::new(1, 1, 0, 100, 100)).finish();
        let report = validate(&log);
        assert!(report.header_errors.contains(&ValidityError::NonPositiveRuntime));
        assert!(report.header_errors.contains(&ValidityError::ZeroProcs));
        assert!(report.is_fatal());
    }

    #[test]
    fn sanitize_deletes_only_corrupted_records() {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100));
        let good = b.begin_record("/good", 0);
        b.record_mut(good)
            .set(C::Writes, 1)
            .set(C::BytesWritten, 5)
            .setf(F::WriteStartTimestamp, 1.0)
            .setf(F::WriteEndTimestamp, 2.0);
        let bad = b.begin_record("/bad", 1);
        b.record_mut(bad).set(C::BytesRead, -5);
        let mut log = b.finish();
        let deleted = sanitize(&mut log).unwrap();
        assert_eq!(deleted, 1);
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.path_of(log.records()[0].record_id), Some("/good"));
    }

    #[test]
    fn sanitize_fails_when_everything_is_corrupt() {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100));
        let r = b.begin_record("/only", 9); // rank out of range
        b.record_mut(r).set(C::Opens, 1);
        let mut log = b.finish();
        assert!(sanitize(&mut log).is_err());
    }

    #[test]
    fn fatal_reports_carry_typed_evict_reasons() {
        let log = TraceLogBuilder::new(JobHeader::new(1, 1, 0, 100, 100)).finish();
        let report = validate(&log);
        assert_eq!(
            report.evict_reason(),
            EvictReason::ValidationFatal(ValidityError::NonPositiveRuntime)
        );

        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100));
        let r = b.begin_record("/only", 9); // rank out of range
        b.record_mut(r).set(C::Opens, 1);
        let report = validate(&b.finish());
        assert!(report.is_fatal());
        assert_eq!(report.evict_reason(), EvictReason::AllRecordsInvalid);
    }

    #[test]
    fn rank_out_of_range_detected() {
        let mut log = valid_log();
        log.records_mut()[0].rank = 4; // nprocs = 4 → valid ranks 0..=3
        let report = validate(&log);
        assert!(report.record_errors[0].1.contains(&ValidityError::RankOutOfRange));
        let mut log = valid_log();
        log.records_mut()[0].rank = -2;
        let report = validate(&log);
        assert!(report.record_errors[0].1.contains(&ValidityError::RankOutOfRange));
    }

    #[test]
    fn bytes_without_ops_detected() {
        let mut log = valid_log();
        log.records_mut()[0].set(C::Reads, 0); // bytes stay positive
        let report = validate(&log);
        assert!(report.record_errors[0].1.contains(&ValidityError::BytesWithoutOps));
    }
}
