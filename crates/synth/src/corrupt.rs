//! Corruption injectors for the pre-processing funnel (Fig 3: 32 % of Blue
//! Waters traces were corrupted and evicted).
//!
//! Two families, matching the two eviction paths in
//! [`mosaic_darshan::validate`]:
//!
//! * **format corruption** — the MDF bytes no longer decode (truncation,
//!   bit-rot, clobbered magic);
//! * **semantic corruption** — the log decodes but is fatally invalid
//!   (every record deallocated before the application's end — the paper's
//!   canonical example — or a zero-runtime header).

use mosaic_darshan::counter::PosixCounter as C;
use mosaic_darshan::counter::PosixFCounter as F;
use mosaic_darshan::{mdf, TraceLog};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What was done to the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// MDF bytes cut short.
    Truncated,
    /// A bit flipped in the payload (checksum failure).
    BitFlip,
    /// Magic bytes clobbered.
    BadMagic,
    /// Every record deallocated before the end of execution.
    DeallocatedRecords,
    /// Header claims a zero-length run.
    ZeroRuntime,
}

impl CorruptionKind {
    /// All kinds, for sampling.
    pub const ALL: [CorruptionKind; 5] = [
        CorruptionKind::Truncated,
        CorruptionKind::BitFlip,
        CorruptionKind::BadMagic,
        CorruptionKind::DeallocatedRecords,
        CorruptionKind::ZeroRuntime,
    ];

    /// `true` when the corruption destroys the serialization itself (the
    /// parser rejects it); `false` when it survives parsing but fails
    /// validation.
    pub fn is_format_level(self) -> bool {
        matches!(
            self,
            CorruptionKind::Truncated | CorruptionKind::BitFlip | CorruptionKind::BadMagic
        )
    }
}

/// A corrupted trace artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum CorruptArtifact {
    /// Raw bytes that fail MDF parsing.
    Bytes(Vec<u8>),
    /// A decodable but fatally invalid log.
    Log(TraceLog),
}

/// Corrupt a valid trace with a random corruption kind.
pub fn corrupt<R: Rng>(log: TraceLog, rng: &mut R) -> (CorruptionKind, CorruptArtifact) {
    let kind = CorruptionKind::ALL[rng.gen_range(0..CorruptionKind::ALL.len())];
    (kind, corrupt_as(log, kind, rng))
}

/// Corrupt a valid trace with a specific kind.
pub fn corrupt_as<R: Rng>(mut log: TraceLog, kind: CorruptionKind, rng: &mut R) -> CorruptArtifact {
    match kind {
        CorruptionKind::Truncated => {
            let bytes = mdf::to_bytes(&log);
            let cut = rng.gen_range(12..bytes.len().max(13));
            CorruptArtifact::Bytes(bytes[..cut.min(bytes.len() - 1)].to_vec())
        }
        CorruptionKind::BitFlip => {
            let mut bytes = mdf::to_bytes(&log);
            // Flip a payload bit (never the magic, never the CRC itself —
            // flipping the CRC also fails, but the payload case is the
            // interesting one).
            let idx = rng.gen_range(8..bytes.len() - 4);
            bytes[idx] ^= 1u8 << rng.gen_range(0..8);
            CorruptArtifact::Bytes(bytes)
        }
        CorruptionKind::BadMagic => {
            let mut bytes = mdf::to_bytes(&log);
            bytes[rng.gen_range(0..8usize)] ^= 0xff;
            CorruptArtifact::Bytes(bytes)
        }
        CorruptionKind::DeallocatedRecords => {
            for rec in log.records_mut() {
                if rec.has_reads() || rec.has_writes() {
                    // The paper's example: deallocated before the end — the
                    // close was counted but its timestamp zeroed.
                    rec.set(C::Closes, rec.get(C::Closes).max(1));
                    rec.setf(F::CloseEndTimestamp, 0.0);
                } else {
                    // Metadata-only records get an impossible rank instead.
                    rec.rank = -7;
                }
            }
            CorruptArtifact::Log(log)
        }
        CorruptionKind::ZeroRuntime => {
            let header = log.header().clone();
            let records = log.records().to_vec();
            let names = log.names().clone();
            let mut broken = header;
            broken.end_time = broken.start_time;
            CorruptArtifact::Log(TraceLog::from_parts(broken, records, names))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;
    use mosaic_darshan::validate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn valid_log() -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/a"));
        let r = b.begin_record("/f", -1);
        b.record_mut(r)
            .set(C::Reads, 4)
            .set(C::BytesRead, 100)
            .set(C::Opens, 4)
            .set(C::Closes, 4)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 1.0)
            .setf(F::ReadEndTimestamp, 2.0)
            .setf(F::CloseEndTimestamp, 3.0);
        let m = b.begin_record("/meta", 0);
        b.record_mut(m).set(C::Opens, 1).setf(F::OpenStartTimestamp, 5.0);
        b.finish()
    }

    #[test]
    fn every_kind_is_evicted_by_the_funnel() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for kind in CorruptionKind::ALL {
            for _ in 0..10 {
                match corrupt_as(valid_log(), kind, &mut rng) {
                    CorruptArtifact::Bytes(bytes) => {
                        assert!(
                            mdf::from_bytes(&bytes).is_err(),
                            "{kind:?} produced parseable bytes"
                        );
                        assert!(kind.is_format_level());
                    }
                    CorruptArtifact::Log(mut log) => {
                        assert!(
                            validate::sanitize(&mut log).is_err(),
                            "{kind:?} produced salvageable log"
                        );
                        assert!(!kind.is_format_level());
                    }
                }
            }
        }
    }

    #[test]
    fn random_kind_sampling_covers_all() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let (kind, _) = corrupt(valid_log(), &mut rng);
            seen.insert(kind);
        }
        assert_eq!(seen.len(), CorruptionKind::ALL.len());
    }

    #[test]
    fn valid_log_baseline_is_clean() {
        // Sanity: the fixture really is valid before corruption.
        assert!(validate::validate(&valid_log()).is_clean());
    }
}
