//! Canonical, comparable snapshots of a pipeline run.
//!
//! The verification harness needs to ask "did these two runs produce the
//! same answer?" across thread counts, tracing on and off, and
//! serialization roundtrips — and to pin answers down in committed golden
//! files. [`ResultSnapshot`] is the comparison currency: a deterministic
//! projection of a [`PipelineResult`] that keeps everything categorization
//! promises (funnel accounting, category distributions, representative
//! choices) and drops everything environmental (stage timings, throughput).
//!
//! Determinism contract: every collection inside is ordered (`BTreeMap`
//! under [`CategoryCounts`], representatives sorted by app key), so equal
//! results serialize to byte-identical JSON and a stable [`digest`].
//! The structured span timeline (`PipelineResult::timeline`) is
//! environmental by nature — wall-clock offsets, worker lanes, ring
//! truncation — and is therefore excluded by construction: [`of`] never
//! reads it, so a traced and an untraced run of the same inputs snapshot
//! byte-identically.
//!
//! [`digest`]: ResultSnapshot::digest
//! [`of`]: ResultSnapshot::of

use crate::executor::PipelineResult;
use crate::funnel::FunnelStats;
use mosaic_core::report::CategoryCounts;
use mosaic_darshan::synthutil::fnv1a64;
use serde::{Deserialize, Serialize};

/// One single-run representative, reduced to its stable identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepSnapshot {
    /// Owning user id (first half of the dedup key).
    pub uid: u32,
    /// Application name (second half of the dedup key).
    pub app: String,
    /// I/O weight that won the dedup contest.
    pub weight: i64,
    /// Canonical category names, sorted.
    pub categories: Vec<String>,
}

/// The deterministic projection of a [`PipelineResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSnapshot {
    /// Funnel accounting, including the typed eviction breakdown.
    pub funnel: FunnelStats,
    /// Category distribution over all valid runs.
    pub all_runs: CategoryCounts,
    /// Category distribution over the deduplicated single-run set.
    pub single_run: CategoryCounts,
    /// The single-run representatives, sorted by `(uid, app)`.
    pub representatives: Vec<RepSnapshot>,
}

impl ResultSnapshot {
    /// Project a pipeline result down to its comparable core.
    pub fn of(result: &PipelineResult) -> ResultSnapshot {
        let mut representatives: Vec<RepSnapshot> = result
            .representatives()
            .map(|o| RepSnapshot {
                uid: o.app_key.0,
                app: o.app_key.1.clone(),
                weight: o.weight,
                categories: o.report.names(),
            })
            .collect();
        representatives.sort_by(|a, b| (a.uid, &a.app).cmp(&(b.uid, &b.app)));
        ResultSnapshot {
            funnel: result.funnel.clone(),
            all_runs: result.all_runs_counts(),
            single_run: result.single_run_counts(),
            representatives,
        }
    }

    /// Canonical JSON: pretty-printed, with every map ordered. Equal
    /// snapshots always render to byte-identical strings.
    #[expect(clippy::expect_used, reason = "maps, strings and integers always serialize")]
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Parse a snapshot back from its canonical JSON.
    pub fn from_json(json: &str) -> Result<ResultSnapshot, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Stable 64-bit fingerprint of the canonical JSON, for terse diffs.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_canonical_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{process, PipelineConfig};
    use crate::source::{TraceInput, VecSource};
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;
    use mosaic_darshan::TraceLog;

    fn log_for(uid: u32, exe: &str, bytes: i64) -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, uid, 4, 0, 1000).with_exe(exe));
        let r = b.begin_record("/in", -1);
        b.record_mut(r)
            .set(C::Reads, 4)
            .set(C::BytesRead, bytes)
            .set(C::Opens, 4)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 1.0)
            .setf(F::ReadEndTimestamp, 50.0);
        b.finish()
    }

    fn run() -> PipelineResult {
        let inputs = vec![
            TraceInput::log(log_for(2, "/bin/b", 500 << 20)),
            TraceInput::log(log_for(1, "/bin/a x", 600 << 20)),
            TraceInput::log(log_for(1, "/bin/a y", 900 << 20)),
            TraceInput::bytes(vec![7u8; 40]),
        ];
        process(&VecSource::new(inputs), &PipelineConfig::default())
    }

    #[test]
    fn snapshot_is_sorted_and_roundtrips() {
        let snap = ResultSnapshot::of(&run());
        assert_eq!(snap.funnel.total, 4);
        assert_eq!(snap.representatives.len(), 2);
        assert!(snap
            .representatives
            .windows(2)
            .all(|w| (w[0].uid, &w[0].app) <= (w[1].uid, &w[1].app)));
        // uid 1's winner is the heavier of the two "/bin/a" runs.
        assert_eq!(snap.representatives[0].weight, 900 << 20);
        let back = ResultSnapshot::from_json(&snap.to_canonical_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn equal_runs_have_equal_digests() {
        let a = ResultSnapshot::of(&run());
        let b = ResultSnapshot::of(&run());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.to_canonical_json(), b.to_canonical_json());
    }

    #[test]
    fn snapshot_ignores_the_timeline() {
        let inputs = vec![
            TraceInput::log(log_for(2, "/bin/b", 500 << 20)),
            TraceInput::log(log_for(1, "/bin/a x", 600 << 20)),
            TraceInput::bytes(vec![7u8; 40]),
        ];
        let plain = process(&VecSource::new(inputs.clone()), &PipelineConfig::default());
        let traced_cfg = PipelineConfig { trace_capacity: Some(128), ..Default::default() };
        let traced = process(&VecSource::new(inputs), &traced_cfg);
        assert!(plain.timeline.is_none());
        assert!(traced.timeline.is_some());
        // Byte-identical canonical JSON: the determinism oracles are blind
        // to whether tracing was on.
        assert_eq!(
            ResultSnapshot::of(&plain).to_canonical_json(),
            ResultSnapshot::of(&traced).to_canonical_json()
        );
    }

    #[test]
    fn digest_moves_when_the_answer_moves() {
        let a = ResultSnapshot::of(&run());
        let inputs = vec![TraceInput::log(log_for(9, "/bin/z", 100))];
        let b = ResultSnapshot::of(&process(&VecSource::new(inputs), &PipelineConfig::default()));
        assert_ne!(a.digest(), b.digest());
    }
}
