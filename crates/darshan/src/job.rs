//! Job-level trace header.

use serde::{Deserialize, Serialize};

/// Job-level metadata carried by every trace, mirroring the header of a
/// Darshan log (`jobid`, `uid`, `nprocs`, start/end time, executable line).
///
/// Timestamps are Unix seconds; all per-record timestamps elsewhere in the
/// trace are seconds **relative to** [`JobHeader::start_time`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobHeader {
    /// Scheduler job identifier.
    pub job_id: u64,
    /// Numeric user id that ran the job.
    pub uid: u32,
    /// Number of MPI processes (ranks).
    pub nprocs: u32,
    /// Job start, Unix seconds.
    pub start_time: i64,
    /// Job end, Unix seconds.
    pub end_time: i64,
    /// Executable command line as recorded by the tracer.
    pub exe: String,
}

/// Application name of an executable line: basename of its first
/// whitespace-separated token. Shared by [`JobHeader::app_name`] and the
/// borrowed [`crate::view::TraceView`], so both paths group applications
/// identically.
pub fn app_name_of(exe: &str) -> &str {
    let first = exe.split_whitespace().next().unwrap_or("");
    first.rsplit('/').next().unwrap_or(first)
}

/// Wallclock runtime in seconds of a job that ran from `start_time` to
/// `end_time`. The difference is taken in `i128`, so wire-supplied extremes
/// (`-1` to `i64::MAX`) cannot overflow; wherever the `i64` difference fits,
/// the result is that difference rounded to `f64` as before. Shared by
/// [`JobHeader::runtime`] and the borrowed [`crate::view::TraceView`].
pub fn runtime_of(start_time: i64, end_time: i64) -> f64 {
    (i128::from(end_time) - i128::from(start_time)) as f64
}

impl JobHeader {
    /// Create a header. `exe` defaults to empty; see [`JobHeader::with_exe`].
    pub fn new(job_id: u64, uid: u32, nprocs: u32, start_time: i64, end_time: i64) -> Self {
        JobHeader { job_id, uid, nprocs, start_time, end_time, exe: String::new() }
    }

    /// Builder-style executable line setter.
    pub fn with_exe(mut self, exe: impl Into<String>) -> Self {
        self.exe = exe.into();
        self
    }

    /// Wallclock runtime in seconds. Zero or negative runtimes are a
    /// validity violation but are representable so the validator can see
    /// them.
    #[inline]
    pub fn runtime(&self) -> f64 {
        runtime_of(self.start_time, self.end_time)
    }

    /// Application name: basename of the first token of the executable line.
    ///
    /// MOSAIC groups traces into "same application from a given user" sets by
    /// this name (pre-processing step ①); Blue Waters traces encode it in the
    /// log file name.
    pub fn app_name(&self) -> &str {
        app_name_of(&self.exe)
    }

    /// The `(uid, app_name)` pair used for application deduplication.
    pub fn app_key(&self) -> (u32, String) {
        (self.uid, self.app_name().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_is_end_minus_start() {
        let h = JobHeader::new(1, 2, 3, 100, 400);
        assert_eq!(h.runtime(), 300.0);
    }

    #[test]
    fn runtime_of_wire_extremes_does_not_overflow() {
        // The i64 difference overflows here: a debug panic, or a negative
        // runtime in release.
        assert_eq!(JobHeader::new(1, 2, 3, -1, i64::MAX).runtime(), 9_223_372_036_854_775_808.0);
        assert_eq!(
            JobHeader::new(1, 2, 3, i64::MAX, i64::MIN).runtime(),
            -18_446_744_073_709_551_615.0
        );
        // Where it fits, the old `(end - start) as f64` result.
        for (start, end) in [(0, i64::MAX), (i64::MIN, -1), (5, -7), (1 << 53, (1 << 54) + 1)] {
            assert_eq!(runtime_of(start, end), (end - start) as f64, "{start}..{end}");
        }
    }

    #[test]
    fn app_name_strips_path_and_args() {
        let h = JobHeader::new(1, 2, 3, 0, 1).with_exe("/sw/apps/lammps/lmp_bw -in in.lj");
        assert_eq!(h.app_name(), "lmp_bw");
        let h = JobHeader::new(1, 2, 3, 0, 1).with_exe("nek5000");
        assert_eq!(h.app_name(), "nek5000");
        let h = JobHeader::new(1, 2, 3, 0, 1);
        assert_eq!(h.app_name(), "");
    }

    #[test]
    fn app_key_distinguishes_users() {
        let a = JobHeader::new(1, 10, 3, 0, 1).with_exe("/bin/app");
        let b = JobHeader::new(2, 11, 3, 0, 1).with_exe("/bin/app");
        assert_ne!(a.app_key(), b.app_key());
        let c = JobHeader::new(3, 10, 64, 5, 9).with_exe("/other/path/app --flag");
        assert_eq!(a.app_key(), c.app_key());
    }
}
