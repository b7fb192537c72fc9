//! Seed-addressed inputs, with what their generators know about them.
//!
//! * The Blue-Waters mix comes from [`mosaic_synth::Dataset`] at the paper's
//!   32 % corruption: every trace carries its funnel fate, and every valid
//!   one the generator's ground-truth labels.
//! * The dense periodic traces are built here with [`TraceLogBuilder`]: long
//!   trains of a few hundred to ~900 evenly spaced operations per
//!   direction, some directions interleaving a second, larger behaviour.
//!   All are valid; their truth is the period magnitude of each direction's
//!   most frequent behaviour.
//!
//! The same seed always gives the same bytes; [`Fnv`] digests them.

use mosaic_core::category::{Category, PeriodMagnitude};
use mosaic_core::TraceReport;
use mosaic_darshan::counter::PosixCounter as C;
use mosaic_darshan::counter::PosixFCounter as F;
use mosaic_darshan::record::SHARED_RANK;
use mosaic_darshan::{mdf, JobHeader, TraceLog, TraceLogBuilder};
use mosaic_pipeline::RunOutcome;
use mosaic_synth::{Dataset, DatasetConfig, GroundTruth, Payload};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Share of Blue-Waters traces corrupted (the paper's funnel: 32 %).
pub const BLUE_WATERS_CORRUPTION: f64 = 0.32;
/// The Blue-Waters corpus samples one trace in this many of its population.
pub const BLUE_WATERS_POPULATION: usize = 8;

/// Fewest operations in a dense trace's main train.
pub const DENSE_MIN_OPS: usize = 300;
/// Most operations in a dense trace's main train. Neighbour merging fuses
/// operations whose gap is under 0.1 % of the runtime, so a train of `n`
/// evenly spaced operations survives only while `n` stays below ~1000
/// times the idle share of its period.
pub const DENSE_MAX_OPS: usize = 900;
/// Main-train length cap when a second behaviour interleaves: its
/// operations sit mid-period and halve the gaps the merge rule sees.
const INTERLEAVED_MAX_OPS: usize = 300;
/// The interleaved behaviour runs once every this many main periods.
const BIG_EVERY: usize = 10;
const DENSE_NPROCS: u32 = 64;
const DENSE_EPOCH: i64 = 1_560_000_000;
/// Distinct applications among the dense traces (dedup groups).
const DENSE_APPS: usize = 12;
const MB: f64 = (1u64 << 20) as f64;

/// 64-bit FNV-1a: the digest of corpora and of category sets.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in one valid trace's category set, keyed by its index.
    pub fn categories(&mut self, index: usize, set: &BTreeSet<Category>) {
        self.u64(index as u64);
        for c in set {
            self.bytes(c.name().as_bytes());
            self.bytes(b";");
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of the category sets of a run's valid traces.
pub fn outcome_digest(outcomes: &[RunOutcome]) -> u64 {
    let mut h = Fnv::default();
    for o in outcomes {
        h.categories(o.index, &o.report.categories);
    }
    h.finish()
}

/// What the funnel must do with a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Survives parsing and validation.
    Valid,
    /// Rejected by the parser.
    FormatCorrupt,
    /// Parses, then fails validation fatally.
    Invalid,
}

/// What the categorizer should say about a valid trace.
#[derive(Debug, Clone)]
pub enum Truth {
    /// Every axis, from the synthetic generator.
    Labels(GroundTruth),
    /// Period magnitude of each direction's most frequent behaviour
    /// (`None`: the direction has no periodic train).
    Periodic {
        /// Read direction.
        read: Option<PeriodMagnitude>,
        /// Write direction.
        write: Option<PeriodMagnitude>,
    },
    /// Corrupt traces have none.
    Nothing,
}

impl Truth {
    /// `true` when `report` agrees with the truth.
    pub fn matches(&self, report: &TraceReport) -> bool {
        match self {
            Truth::Labels(truth) => truth.matches(report),
            Truth::Periodic { read, write } => {
                report.read.periodic.first().map(|p| p.magnitude) == *read
                    && report.write.periodic.first().map(|p| p.magnitude) == *write
            }
            Truth::Nothing => false,
        }
    }
}

/// One generated trace.
pub struct Trace {
    /// Its MDF bytes.
    pub bytes: Vec<u8>,
    /// Its known funnel fate.
    pub fate: Fate,
    /// Its known categorization.
    pub truth: Truth,
}

/// A corpus written to a directory as `t000000.mdf`, `t000001.mdf`, ...
/// (so [`mosaic_pipeline::DirSource`]'s sorted scan keeps generator order).
pub struct Corpus {
    /// Where the files are.
    pub dir: PathBuf,
    /// Fate of trace `i`.
    pub fates: Vec<Fate>,
    /// Truth of trace `i`.
    pub truths: Vec<Truth>,
    /// Digest over every file name and its bytes.
    pub digest: u64,
    /// Total bytes written.
    pub bytes: u64,
}

/// File name of trace `i`.
fn file_name(i: usize) -> String {
    format!("t{i:06}.mdf")
}

impl Corpus {
    /// Generate `traces` into `dir`.
    pub fn write(dir: &Path, traces: impl Iterator<Item = Trace>) -> io::Result<Corpus> {
        std::fs::create_dir_all(dir)?;
        let mut corpus = Corpus {
            dir: dir.to_path_buf(),
            fates: Vec::new(),
            truths: Vec::new(),
            digest: 0,
            bytes: 0,
        };
        let mut h = Fnv::default();
        for (i, trace) in traces.enumerate() {
            let name = file_name(i);
            h.bytes(name.as_bytes());
            h.bytes(&trace.bytes);
            std::fs::write(dir.join(&name), &trace.bytes)?;
            corpus.bytes += trace.bytes.len() as u64;
            corpus.fates.push(trace.fate);
            corpus.truths.push(trace.truth);
        }
        corpus.digest = h.finish();
        Ok(corpus)
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// Share of the valid traces whose report agrees with the truth, in
    /// percent.
    pub fn accuracy_pct(&self, outcomes: &[RunOutcome]) -> f64 {
        let valid = self.fates.iter().filter(|&&f| f == Fate::Valid).count();
        let hits = outcomes
            .iter()
            .filter(|o| self.truths.get(o.index).is_some_and(|t| t.matches(&o.report)))
            .count();
        100.0 * hits as f64 / valid.max(1) as f64
    }
}

/// Digest [`Corpus::write`] would compute, without writing anything.
#[cfg(test)]
pub fn digest_of(traces: impl Iterator<Item = Trace>) -> u64 {
    let mut h = Fnv::default();
    for (i, trace) in traces.enumerate() {
        h.bytes(file_name(i).as_bytes());
        h.bytes(&trace.bytes);
    }
    h.finish()
}

/// `n` traces of the calibrated Blue-Waters mix: a seeded uniform sample,
/// in archive order, of a [`BLUE_WATERS_POPULATION`]-times larger
/// population. A year's archive holds a few applications rerun hundreds of
/// times; in a corpus that *is* the population, which applications those
/// are moves the per-trace cost by tens of percent from seed to seed.
/// Sampling traces rather than applications keeps the per-trace mix (and
/// its 32 % corruption) while the cost stays put.
pub fn blue_waters(seed: u64, n: usize) -> impl Iterator<Item = Trace> {
    let population = n * BLUE_WATERS_POPULATION;
    let ds = Dataset::new(DatasetConfig {
        n_traces: population,
        corruption_rate: BLUE_WATERS_CORRUPTION,
        seed,
    });
    let mut picks: Vec<usize> = (0..population).collect();
    picks.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    picks.truncate(n);
    picks.sort_unstable();
    picks.into_iter().map(move |i| {
        let run = ds.generate(i);
        match run.payload {
            Payload::Bytes(bytes) => {
                Trace { bytes, fate: Fate::FormatCorrupt, truth: Truth::Nothing }
            }
            Payload::Log(log) => {
                let bytes = mdf::to_bytes(&log);
                match run.truth {
                    Some(truth) => Trace { bytes, fate: Fate::Valid, truth: Truth::Labels(truth) },
                    None => Trace { bytes, fate: Fate::Invalid, truth: Truth::Nothing },
                }
            }
        }
    })
}

/// `n` dense periodic traces. Main-train lengths are spread evenly over
/// [`DENSE_MIN_OPS`]..=[`DENSE_MAX_OPS`], each paired with a shape, and the
/// pairs are dealt out in seeded order: every seed carries the same number
/// of operations in a different arrangement, with different periods,
/// sizes and jitter.
pub fn dense_periodic(seed: u64, n: usize) -> impl Iterator<Item = Trace> {
    let span = DENSE_MAX_OPS - DENSE_MIN_OPS;
    let mut plan: Vec<(usize, usize)> =
        (0..n).map(|k| (DENSE_MIN_OPS + span * k / n.saturating_sub(1).max(1), k % 4)).collect();
    plan.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    plan.into_iter().enumerate().map(move |(i, (ops, shape))| {
        let (log, truth) = dense_trace(seed, i, ops, shape);
        Trace { bytes: mdf::to_bytes(&log), fate: Fate::Valid, truth }
    })
}

#[derive(Clone, Copy)]
enum Dir {
    Read,
    Write,
}

/// A train of evenly spaced operations of one direction.
struct Train {
    dir: Dir,
    /// Operations in the train (one every `every` periods).
    count: usize,
    period: f64,
    /// Start of the first operation, in periods.
    offset: f64,
    /// Share of the period each operation lasts.
    busy: f64,
    bytes: f64,
    tag: char,
}

impl Train {
    /// Add one shared-file record per operation. Start, duration and size
    /// jitter slightly, as real runs do, well inside the clustering
    /// bandwidth and the regularity gate.
    fn emit(&self, b: &mut TraceLogBuilder, rng: &mut ChaCha8Rng, every: usize) {
        let n = i64::from(DENSE_NPROCS);
        for k in (0..self.count).step_by(every) {
            let start = self.period * (k as f64 + self.offset + rng.gen_range(-0.01..0.01));
            let end = start + self.period * self.busy * rng.gen_range(0.95..1.05);
            let bytes = (self.bytes * rng.gen_range(0.95..1.05)) as i64;
            let h = b.begin_record(&format!("/scratch/dense/{}{k}", self.tag), SHARED_RANK);
            let rec = b
                .record_mut(h)
                .set(C::Opens, n)
                .set(C::Closes, n)
                .setf(F::OpenStartTimestamp, start)
                .setf(F::CloseEndTimestamp, end);
            match self.dir {
                Dir::Read => rec
                    .set(C::Reads, n * 8)
                    .set(C::BytesRead, bytes)
                    .setf(F::ReadStartTimestamp, start)
                    .setf(F::ReadEndTimestamp, end),
                Dir::Write => rec
                    .set(C::Writes, n * 8)
                    .set(C::BytesWritten, bytes)
                    .setf(F::WriteStartTimestamp, start)
                    .setf(F::WriteEndTimestamp, end),
            };
        }
    }
}

/// Dense trace `i` of a corpus, whose main train has `ops` operations.
///
/// Four shapes: 0 a write-only checkpointer, 1 a read-only periodic
/// reader, 2 both directions periodic, 3 a checkpointer whose small
/// frequent writes interleave with a large write every [`BIG_EVERY`]
/// periods (plus periodic reads). A second train has half the main
/// train's operations spread over the same runtime, so its period is about
/// twice as long. Periods stay well inside one magnitude bucket.
fn dense_trace(seed: u64, i: usize, ops: usize, shape: usize) -> (TraceLog, Truth) {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let main_ops = if shape == 3 { ops.min(INTERLEAVED_MAX_OPS) } else { ops };
    let period: f64 =
        if rng.gen_bool(0.5) { rng.gen_range(6.0..24.0) } else { rng.gen_range(90.0..600.0) };
    let runtime = period * (main_ops as f64 + 1.0);
    let app = i % DENSE_APPS;
    let header = JobHeader::new(
        i as u64,
        3000 + app as u32,
        DENSE_NPROCS,
        DENSE_EPOCH,
        DENSE_EPOCH + runtime.ceil() as i64,
    )
    .with_exe(format!("/sw/dense/app{app} --case {i}"));
    let mut b = TraceLogBuilder::new(header);

    let busy = rng.gen_range(0.01..0.04);
    let bytes = MB * 16.0 * (16f64).powf(rng.gen_range(0.0..1.0));
    let main_dir = if shape == 1 { Dir::Read } else { Dir::Write };
    let main = Train { dir: main_dir, count: main_ops, period, offset: 0.3, busy, bytes, tag: 'm' };
    main.emit(&mut b, &mut rng, 1);
    if shape == 3 {
        let big = Train { offset: 0.8, busy: 2.0 * busy, bytes: 20.0 * bytes, tag: 'b', ..main };
        big.emit(&mut b, &mut rng, BIG_EVERY);
    }
    let mut read = None;
    let write;
    if shape >= 2 {
        let count = main_ops / 2;
        let second = Train {
            dir: Dir::Read,
            count,
            period: runtime / (count as f64 + 1.0),
            offset: 0.3,
            busy,
            bytes,
            tag: 'r',
        };
        second.emit(&mut b, &mut rng, 1);
        read = Some(PeriodMagnitude::of(second.period));
        write = Some(PeriodMagnitude::of(period));
    } else if shape == 1 {
        read = Some(PeriodMagnitude::of(period));
        write = None;
    } else {
        write = Some(PeriodMagnitude::of(period));
    }
    (b.finish(), Truth::Periodic { read, write })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::merge::merge_all;
    use mosaic_core::CategorizerConfig;
    use mosaic_darshan::validate::validate;
    use mosaic_darshan::OperationView;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let bw = |seed| digest_of(blue_waters(seed, 300));
        assert_eq!(bw(1), bw(1));
        assert_ne!(bw(1), bw(2));
        let dense = |seed| digest_of(dense_periodic(seed, 8));
        assert_eq!(dense(1), dense(1));
        assert_ne!(dense(1), dense(2));
    }

    #[test]
    fn blue_waters_fates_follow_the_corruption_rate() {
        let fates: Vec<Fate> = blue_waters(5, 600).map(|t| t.fate).collect();
        let corrupt = fates.iter().filter(|&&f| f != Fate::Valid).count() as f64 / 600.0;
        assert!((0.25..0.40).contains(&corrupt), "corrupt share {corrupt}");
        assert!(fates.contains(&Fate::FormatCorrupt));
        assert!(fates.contains(&Fate::Invalid));
    }

    /// Every dense trace must validate cleanly and keep at least 95 % of
    /// each direction's operations through both merge passes; a generator
    /// change that lets neighbour merging collapse the trains would
    /// otherwise silently turn the workload into a trivial one.
    #[test]
    fn dense_traces_validate_and_survive_merging() {
        let config = CategorizerConfig::default();
        for seed in [1, 2] {
            for (i, trace) in dense_periodic(seed, crate::workloads::DENSE_TRACES).enumerate() {
                let log = mdf::from_bytes(&trace.bytes).unwrap();
                assert!(validate(&log).is_clean(), "trace {i} of seed {seed} does not validate");
                let view = OperationView::from_log(&log);
                for (dir, raw) in [("read", &view.reads), ("write", &view.writes)] {
                    let merged = merge_all(raw, view.runtime, &config).len();
                    assert!(
                        merged * 100 >= raw.len() * 95,
                        "trace {i} of seed {seed}: {dir} kept {merged} of {} ops",
                        raw.len()
                    );
                }
                let main = view.reads.len().max(view.writes.len());
                assert!(main >= DENSE_MIN_OPS.min(INTERLEAVED_MAX_OPS), "trace {i}: {main} ops");
            }
        }
    }

    #[test]
    fn dense_work_is_the_same_for_every_seed() {
        let ops = |seed| -> usize {
            dense_periodic(seed, 16)
                .map(|t| mdf::from_bytes(&t.bytes).unwrap().records().len())
                .sum()
        };
        assert_eq!(ops(3), ops(4));
    }
}
