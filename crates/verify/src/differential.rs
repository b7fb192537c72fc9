//! Differential oracles: independent implementations of the same contract
//! must produce bit-identical results.
//!
//! The pairings, each run over every standard mini-corpus:
//!
//! * **serial vs parallel** — the batch executor on a 1-thread pool vs
//!   2- and 4-thread pools vs Rayon's global default. Categorization is a
//!   pure per-trace function and aggregation is order-normalized, so the
//!   [`ResultSnapshot`]s must match byte-for-byte;
//! * **MDF roundtrip** — `write → parse → re-write` must be byte-stable for
//!   every parseable trace;
//! * **traced vs untraced** — a run with structured span tracing enabled
//!   must snapshot byte-identically to one without: the timeline is
//!   observability, never part of the answer;
//! * **columnar vs reference** — every trace that parses is checked and
//!   extracted by the executor's one record walk
//!   ([`ColumnarTrace::load_checked`]), whose validity report must equal
//!   [`validate::validate`] on the materialized log. The same walk over
//!   that decoded log — a log input's whole extraction — must give the
//!   wire walk's report, columns, weight, app key and job span. For every
//!   valid trace, its metadata events and dedup weight must equal the
//!   sanitized log's
//!   ([`validate::delete_invalid`], [`OperationView::from_log`]), the
//!   columnar merge ([`merge_all_columnar`], materialized) must equal the
//!   row reference [`merge::merge_all`] over the log's operation view, and
//!   [`chunk_volumes_columnar`] must equal [`chunk_volumes`] on the merged
//!   operations: per corpus, and once over a 2 000-trace mixed-corruption
//!   synthetic sweep. Log and byte inputs differ only in their parse
//!   step, which the MDF roundtrip covers;
//! * **Mean Shift vs reference** — for every significant direction of every
//!   valid trace, the grid-indexed [`MeanShift::fit`] on the segments'
//!   [`op_feature`]s must return the labels and center bits of the
//!   linear-scan [`reference::fit`]: per corpus, over the same sweep, and
//!   over six dense periodic traces. A fit reaches the grid only if it has
//!   at least [`GRID_MIN_POINTS`] points spread wider than the bandwidth,
//!   so that its whole-input certificate can fail. Only the write
//!   directions of the dense traces do, and their check fails if none
//!   does;
//! * **metadata vs reference** — for every valid trace of the sweep and of
//!   the dense traces, [`metadata::characterize`]'s occupied-seconds scan
//!   must return the peak, spike count and labels of the dense per-second
//!   histogram in [`metadata::reference`].
//!
//! The streaming [`mosaic_pipeline::IncrementalAnalyzer`] runs the batch
//! executor's per-trace step and its per-application fold
//! ([`mosaic_pipeline::dedup::AppFold`]), so no oracle here keeps the two
//! drivers in step; the pipeline's unit tests compare their aggregates.

use crate::VerifyReport;
use mosaic_clustering::meanshift::{reference, MeanShift, GRID_MIN_POINTS};
use mosaic_core::columnar::{
    chunk_volumes_columnar, merge_all_columnar, ColumnarTrace, TraceArena,
};
use mosaic_core::periodicity::op_feature;
use mosaic_core::segment::segment;
use mosaic_core::temporality::{characterize_columnar, chunk_volumes};
use mosaic_core::{merge, metadata, CategorizerConfig, TemporalityLabel};
use mosaic_darshan::counter::PosixCounter as C;
use mosaic_darshan::counter::PosixFCounter as F;
use mosaic_darshan::record::SHARED_RANK;
use mosaic_darshan::{
    mdf, validate, JobHeader, OpKind, OperationView, TraceFields, TraceLogBuilder, TraceView,
};
use mosaic_pipeline::executor::{process, PipelineConfig};
use mosaic_pipeline::source::{TraceInput, VecSource};
use mosaic_pipeline::ResultSnapshot;
use mosaic_synth::{Dataset, DatasetConfig, MiniCorpus, Payload};

/// A corpus as pipeline inputs, decoded logs passed as logs and corrupt
/// bytes as bytes (the cheapest, most direct representation).
pub fn inputs_of(corpus: &MiniCorpus) -> Vec<TraceInput> {
    (0..corpus.len())
        .map(|i| match corpus.payload(i) {
            Payload::Log(log) => TraceInput::log(log),
            Payload::Bytes(bytes) => TraceInput::bytes(bytes),
        })
        .collect()
}

fn config(threads: Option<usize>) -> PipelineConfig {
    PipelineConfig { threads, ..Default::default() }
}

fn compare(report: &mut VerifyReport, name: String, a: &ResultSnapshot, b: &ResultSnapshot) {
    if a == b {
        report.check(name, true, format!("identical snapshots, digest {:016x}", a.digest()));
    } else {
        report.check(
            name,
            false,
            format!(
                "snapshots diverge: digest {:016x} vs {:016x}\n\
                 funnel lhs {:?}\nfunnel rhs {:?}",
                a.digest(),
                b.digest(),
                a.funnel,
                b.funnel
            ),
        );
    }
}

/// The traces of `wires` that parse, with their index. Callers check and
/// extract each one into their arena with the production walk
/// ([`mosaic_core::columnar::ColumnarTrace::load_checked`]) and skip the fatally invalid ones.
fn parsed(wires: &[Vec<u8>]) -> impl Iterator<Item = (usize, TraceView<'_>)> + '_ {
    wires.iter().enumerate().filter_map(|(i, wire)| Some((i, TraceView::parse(wire).ok()?)))
}

/// The columnar-vs-reference check over one set of wire buffers: every
/// valid trace is extracted twice — into the production arena straight
/// from the wire, and as a sanitized log's [`OperationView`] — and each
/// direction's columnar merge and chunk volumes must equal the row
/// reference's, bit for bit.
fn columnar_vs_reference(report: &mut VerifyReport, name: String, wires: &[Vec<u8>]) {
    let config = CategorizerConfig::default();
    let mut arena = TraceArena::default();
    let mut merged = Vec::new();
    let (mut checked, mut valid) = (0usize, 0usize);
    let mut diverged = Vec::new();
    let mut log_walk = ColumnarTrace::default();
    for (i, view) in parsed(wires) {
        checked += 1;
        let validity = arena.trace.load_checked(&view);
        let mut log = view.to_log();
        let log_validity = validate::validate(&log);
        if validity != log_validity {
            diverged.push(format!("trace {i}: validity {validity:?}, reference {log_validity:?}"));
        }
        // The same walk over the decoded log: a log input's whole extraction.
        let walked_log = log_walk.load_checked(&log);
        if walked_log != validity
            || log_walk != arena.trace
            || (log.app_key(), log.span()) != (view.app_key(), view.span())
        {
            diverged
                .push(format!("trace {i}: the walk over the decoded log differs from the wire's"));
        }
        if validity.is_fatal() {
            continue;
        }
        valid += 1;
        validate::delete_invalid(&mut log, &log_validity);
        let rows = OperationView::from_log(&log);
        if arena.trace.meta != rows.meta || arena.trace.weight != log.io_weight() {
            diverged.push(format!(
                "trace {i}: {} meta events and weight {}, reference {} and {}",
                arena.trace.meta.len(),
                arena.trace.weight,
                rows.meta.len(),
                log.io_weight()
            ));
        }
        let runtime = arena.trace.runtime;
        for (kind, cols, raw) in [
            (OpKind::Read, &arena.trace.reads, &rows.reads),
            (OpKind::Write, &arena.trace.writes, &rows.writes),
        ] {
            merge_all_columnar(cols, runtime, &config, &mut arena.scratch);
            arena.scratch.merged.materialize(kind, &mut merged);
            let reference = merge::merge_all(raw, rows.runtime, &config);
            if merged != reference {
                diverged.push(format!(
                    "trace {i} {kind:?}: columnar merge kept {} ops, reference {}",
                    merged.len(),
                    reference.len()
                ));
            }
            let columnar = chunk_volumes_columnar(&arena.scratch.merged, runtime, config.chunks);
            let row = chunk_volumes(&reference, rows.runtime, config.chunks);
            if columnar != row {
                diverged.push(format!(
                    "trace {i} {kind:?}: chunk volumes {columnar:?} vs reference {row:?}"
                ));
            }
        }
    }
    report.check(
        name,
        diverged.is_empty(),
        if diverged.is_empty() {
            format!(
                "{checked} parsed traces: validity reports equal the reference; {valid} valid \
                 traces: metadata, weight, columnar merge and chunk volumes equal the reference; \
                 the walk over each decoded log equals the walk over its wire bytes"
            )
        } else {
            diverged.join("\n")
        },
    );
}

/// The Mean-Shift-vs-reference check over one set of wire buffers: every
/// valid trace goes through the categorizer's own steps up to clustering
/// (columnar merge, temporality, segmentation) and each significant
/// direction's [`op_feature`]s are fitted twice. The grid-indexed fit must
/// return the reference's labels and center bits. With `need_grid`, at
/// least one fit must also be able to reach the grid.
fn meanshift_vs_reference(
    report: &mut VerifyReport,
    name: String,
    wires: &[Vec<u8>],
    need_grid: bool,
) {
    let config = CategorizerConfig::default();
    let ms = MeanShift::new(config.meanshift_bandwidth);
    let mut arena = TraceArena::default();
    let mut merged = Vec::new();
    let (mut fits, mut grid_fits, mut points) = (0usize, 0usize, 0usize);
    let mut diverged = Vec::new();
    for (i, view) in parsed(wires) {
        if arena.trace.load_checked(&view).is_fatal() {
            continue;
        }
        let runtime = arena.trace.runtime;
        for (kind, cols) in
            [(OpKind::Read, &arena.trace.reads), (OpKind::Write, &arena.trace.writes)]
        {
            merge_all_columnar(cols, runtime, &config, &mut arena.scratch);
            let temporality = characterize_columnar(&arena.scratch.merged, runtime, &config);
            if temporality.label == TemporalityLabel::Insignificant {
                continue;
            }
            arena.scratch.merged.materialize(kind, &mut merged);
            let features: Vec<[f64; 2]> =
                segment(&merged, runtime).iter().map(op_feature).collect();
            let grid = ms.fit(&features);
            let scan = reference::fit(&ms, &features);
            let bits = |c: &[[f64; 2]]| c.iter().map(|p| p.map(f64::to_bits)).collect::<Vec<_>>();
            if grid.labels != scan.labels || bits(&grid.centers) != bits(&scan.centers) {
                diverged.push(format!(
                    "trace {i} {kind:?}: {} points, grid fit {} clusters, reference {}",
                    features.len(),
                    grid.n_clusters(),
                    scan.n_clusters()
                ));
            }
            fits += 1;
            grid_fits += usize::from(
                features.len() >= GRID_MIN_POINTS && wider_than(&features, ms.bandwidth),
            );
            points += features.len();
        }
    }
    let covered = !need_grid || grid_fits > 0;
    report.check(
        name,
        diverged.is_empty() && covered,
        if !diverged.is_empty() {
            diverged.join("\n")
        } else if covered {
            format!(
                "{fits} fits ({grid_fits} on the grid) over {points} points: \
                 labels and center bits equal the reference"
            )
        } else {
            format!("{fits} fits over {points} points, none of them on the grid")
        },
    );
}

/// Whether the bounding-box diagonal of `points` exceeds `h`: only then
/// can a step fail the whole-input certificate. Every position is a mean
/// of the points, so up to rounding it lies inside their box, and no box
/// corner is farther from it than the diagonal.
fn wider_than(points: &[[f64; 2]], h: f64) -> bool {
    let (lo, hi) =
        points.iter().fold(([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]), |(lo, hi), p| {
            ([lo[0].min(p[0]), lo[1].min(p[1])], [hi[0].max(p[0]), hi[1].max(p[1])])
        });
    (hi[0] - lo[0]).powi(2) + (hi[1] - lo[1]).powi(2) > h * h
}

/// The metadata-vs-reference check over one set of wire buffers: every
/// valid trace's metadata events, extracted into the production arena, are
/// characterized twice — over the occupied seconds only, and by a full scan
/// of the dense histogram. Peak, spike count and labels must agree.
fn metadata_vs_reference(report: &mut VerifyReport, name: String, wires: &[Vec<u8>]) {
    let config = CategorizerConfig::default();
    let mut arena = TraceArena::default();
    let (mut traces, mut events, mut spiky) = (0usize, 0usize, 0usize);
    let mut diverged = Vec::new();
    for (i, view) in parsed(wires) {
        if arena.trace.load_checked(&view).is_fatal() {
            continue;
        }
        let trace = &arena.trace;
        let sparse = metadata::characterize(&trace.meta, trace.runtime, trace.nprocs, &config);
        let dense =
            metadata::reference::characterize(&trace.meta, trace.runtime, trace.nprocs, &config);
        if (sparse.peak_rps, sparse.spike_count, &sparse.labels)
            != (dense.peak_rps, dense.spike_count, &dense.labels)
        {
            diverged.push(format!(
                "trace {i}: peak {} / {} spikes / {:?}, reference peak {} / {} spikes / {:?}",
                sparse.peak_rps,
                sparse.spike_count,
                sparse.labels,
                dense.peak_rps,
                dense.spike_count,
                dense.labels
            ));
        }
        traces += 1;
        events += trace.meta.len();
        spiky += usize::from(sparse.spike_count > 0);
    }
    report.check(
        name,
        diverged.is_empty(),
        if diverged.is_empty() {
            format!(
                "{traces} traces ({spiky} with spikes) over {events} metadata events: \
                 peak, spike count and labels equal the reference"
            )
        } else {
            diverged.join("\n")
        },
    );
}

/// Large periodic traces for the Mean Shift oracle. The mini corpora and
/// the sweep carry tens of operations per direction, below
/// [`GRID_MIN_POINTS`], so only these traces reach the grid: their write
/// directions, whose one-off writes spread the points wider than the
/// bandwidth. Each read train is one tight cluster that the whole-input
/// certificate settles. Trace `t` writes a checkpoint train of
/// `GRID_MIN_POINTS + 90·t` operations and reads a train half as long,
/// each jittered by a fixed hash, plus 24 one-off writes of scattered
/// sizes and durations.
fn dense_wires() -> Vec<Vec<u8>> {
    const NPROCS: u32 = 64;
    let jitter = |k: usize, salt: usize| ((k * 7919 + salt * 104_729) % 1000) as f64 / 1000.0 - 0.5;
    (0..6)
        .map(|t| {
            let ops = GRID_MIN_POINTS + 90 * t;
            let period = 10.0 + 7.0 * t as f64;
            let runtime = period * (ops as f64 + 1.0);
            let header = JobHeader::new(t as u64 + 1, 1, NPROCS, 0, runtime.ceil() as i64)
                .with_exe("/bin/dense");
            let mut b = TraceLogBuilder::new(header);
            let mut op = |kind: OpKind, k: usize, start: f64, secs: f64, bytes: f64| {
                let r = b.begin_record(&format!("/dense/{kind:?}{k}"), SHARED_RANK);
                let (n, bytes, end) = (i64::from(NPROCS), bytes as i64, start + secs);
                let rec = b
                    .record_mut(r)
                    .set(C::Opens, n)
                    .set(C::Closes, n)
                    .setf(F::OpenStartTimestamp, start)
                    .setf(F::CloseEndTimestamp, end);
                match kind {
                    OpKind::Read => rec
                        .set(C::Reads, n)
                        .set(C::BytesRead, bytes)
                        .setf(F::ReadStartTimestamp, start)
                        .setf(F::ReadEndTimestamp, end),
                    OpKind::Write => rec
                        .set(C::Writes, n)
                        .set(C::BytesWritten, bytes)
                        .setf(F::WriteStartTimestamp, start)
                        .setf(F::WriteEndTimestamp, end),
                };
            };
            for k in 0..ops {
                let start = period * (k as f64 + 0.3 + 0.02 * jitter(k, 1));
                let secs = period * 0.02 * (1.0 + 0.1 * jitter(k, 2));
                op(OpKind::Write, k, start, secs, 64e6 * (1.0 + 0.1 * jitter(k, 3)));
            }
            for k in 0..ops / 2 {
                let start = period * (2.0 * k as f64 + 0.6 + 0.02 * jitter(k, 4));
                let secs = period * 0.05 * (1.0 + 0.1 * jitter(k, 5));
                op(OpKind::Read, k, start, secs, 8e6 * (1.0 + 0.1 * jitter(k, 6)));
            }
            for k in 0..24 {
                let start = period * (k as f64 * ops as f64 / 24.0 + 0.75);
                let secs = period * 0.001 * (1 + k % 7) as f64;
                op(OpKind::Write, ops + k, start, secs, 1e3 * 4f64.powi(k as i32 % 9));
            }
            mdf::to_bytes(&b.finish())
        })
        .collect()
}

/// Run every differential oracle, appending one check per comparison.
pub fn run(report: &mut VerifyReport) {
    for corpus in MiniCorpus::standard() {
        let inputs = inputs_of(&corpus);
        let serial =
            ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(Some(1))));

        // Serial vs explicit pools vs the global default.
        for threads in [Some(2), Some(4), None] {
            let parallel =
                ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(threads)));
            let label = match threads {
                Some(n) => format!("{n}-threads"),
                None => "default-pool".to_owned(),
            };
            compare(
                report,
                format!("differential/serial-vs-{label}/{}", corpus.name()),
                &serial,
                &parallel,
            );
        }

        // MDF write → parse → re-write byte stability.
        let mut unstable = Vec::new();
        for (i, log) in corpus.logs() {
            let first = mdf::to_bytes(&log);
            match mdf::from_bytes(&first) {
                Ok(parsed) if parsed == log && mdf::to_bytes(&parsed) == first => {}
                Ok(_) => unstable.push(format!("trace {i}: re-write not byte-identical")),
                Err(err) => unstable.push(format!("trace {i}: own output rejected: {err:?}")),
            }
        }
        report.check(
            format!("differential/mdf-roundtrip-bytes/{}", corpus.name()),
            unstable.is_empty(),
            if unstable.is_empty() {
                format!("{} logs write→parse→re-write byte-stable", corpus.logs().len())
            } else {
                unstable.join("\n")
            },
        );

        // Tracing on vs off: the snapshot may not move by a byte, and the
        // traced run must actually have produced a timeline.
        let traced_config = PipelineConfig { trace_capacity: Some(4096), ..config(Some(2)) };
        let traced_result = process(&VecSource::new(inputs.clone()), &traced_config);
        let has_timeline = traced_result.timeline.is_some();
        let traced = ResultSnapshot::of(&traced_result);
        let untraced =
            ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(Some(2))));
        let identical = traced.to_canonical_json() == untraced.to_canonical_json();
        report.check(
            format!("differential/traced-vs-untraced/{}", corpus.name()),
            identical && has_timeline,
            if identical && has_timeline {
                format!(
                    "snapshots byte-identical with tracing on, digest {:016x}; timeline attached",
                    traced.digest()
                )
            } else if !has_timeline {
                "tracing was requested but no timeline was attached".to_owned()
            } else {
                format!(
                    "tracing perturbed the snapshot: digest {:016x} vs {:016x}",
                    traced.digest(),
                    untraced.digest()
                )
            },
        );

        let wires: Vec<Vec<u8>> = (0..corpus.len()).map(|i| corpus.mdf_bytes(i)).collect();
        columnar_vs_reference(
            report,
            format!("differential/columnar-vs-reference/{}", corpus.name()),
            &wires,
        );
        meanshift_vs_reference(
            report,
            format!("differential/meanshift-vs-reference/{}", corpus.name()),
            &wires,
            false,
        );
    }

    // Columnar vs reference over a 2 000-trace synthetic sweep (mixed
    // corruption) — the at-scale pin the mini-corpora cannot give.
    let sweep =
        Dataset::new(DatasetConfig { n_traces: 2000, corruption_rate: 0.32, seed: 0xC011A9E });
    let sweep_wires: Vec<Vec<u8>> = (0..sweep.len())
        .map(|i| match sweep.generate(i).payload {
            Payload::Log(log) => mdf::to_bytes(&log),
            Payload::Bytes(bytes) => bytes,
        })
        .collect();
    columnar_vs_reference(
        report,
        "differential/columnar-vs-reference/synthetic-2k".to_owned(),
        &sweep_wires,
    );
    meanshift_vs_reference(
        report,
        "differential/meanshift-vs-reference/synthetic-2k".to_owned(),
        &sweep_wires,
        false,
    );
    metadata_vs_reference(
        report,
        "differential/metadata-vs-reference/synthetic-2k".to_owned(),
        &sweep_wires,
    );
    let dense = dense_wires();
    meanshift_vs_reference(
        report,
        "differential/meanshift-vs-reference/dense-periodic".to_owned(),
        &dense,
        true,
    );
    metadata_vs_reference(
        report,
        "differential/metadata-vs-reference/dense-periodic".to_owned(),
        &dense,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_differential_oracles_pass() {
        let mut report = VerifyReport::default();
        run(&mut report);
        assert!(report.passed(), "{}", report.render());
        // 7 checks per corpus (3 pool comparisons, roundtrip,
        // traced-vs-untraced, columnar-vs-reference,
        // meanshift-vs-reference) × 3 corpora, plus the 2k-sweep
        // columnar-vs-reference, meanshift-vs-reference and
        // metadata-vs-reference checks and the dense-periodic
        // meanshift-vs-reference and metadata-vs-reference checks.
        assert_eq!(report.checks.len(), 26);
    }

    #[test]
    fn columnar_vs_reference_compares_only_valid_traces() {
        use mosaic_darshan::counter::PosixCounter as C;
        use mosaic_darshan::counter::PosixFCounter as F;
        use mosaic_darshan::job::JobHeader;
        use mosaic_darshan::log::TraceLogBuilder;
        // A valid trace carrying one invalid record (sanitized away on both
        // sides), a trace whose every record is invalid (fatal), and bytes
        // that do not parse: the reports of the two that parse are
        // compared, and only the first one's extraction.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/a"));
        for rank in 0..3 {
            let r = b.begin_record(&format!("/in.{rank}"), rank);
            b.record_mut(r)
                .set(C::Reads, 2)
                .set(C::BytesRead, 4096)
                .setf(F::ReadStartTimestamp, f64::from(rank) * 10.0)
                .setf(F::ReadEndTimestamp, f64::from(rank) * 10.0 + 5.0);
        }
        let bad = b.begin_record("/bad", 9); // rank out of range
        b.record_mut(bad).set(C::BytesWritten, 7);
        let valid = b.finish();
        let mut b = TraceLogBuilder::new(JobHeader::new(2, 1, 4, 0, 100).with_exe("/bin/b"));
        let bad = b.begin_record("/bad", 9);
        b.record_mut(bad).set(C::BytesRead, 7);
        let fatal = b.finish();
        let wires = vec![mdf::to_bytes(&valid), mdf::to_bytes(&fatal), vec![7u8; 32]];

        let mut report = VerifyReport::default();
        columnar_vs_reference(&mut report, "columnar".to_owned(), &wires);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checks.len(), 1);
        assert!(
            report.checks[0].detail.starts_with(
                "2 parsed traces: validity reports equal the reference; 1 valid traces"
            ),
            "{}",
            report.render()
        );
    }

    #[test]
    fn meanshift_vs_reference_fits_real_directions() {
        // Not vacuous: the corpus's significant directions reach the fit,
        // and the dense traces reach the grid. All six write directions
        // hold at least GRID_MIN_POINTS operations, spread wider than the
        // bandwidth by their one-off writes. The read trains (ops / 2)
        // hold that many from the fourth trace on, but each is one tight
        // cluster that the whole-input certificate settles.
        let corpus = MiniCorpus::standard().remove(0);
        let mut wires: Vec<Vec<u8>> = (0..corpus.len()).map(|i| corpus.mdf_bytes(i)).collect();
        wires.push(vec![7u8; 32]);
        let mut report = VerifyReport::default();
        meanshift_vs_reference(&mut report, "meanshift".to_owned(), &wires, false);
        meanshift_vs_reference(&mut report, "dense".to_owned(), &dense_wires(), true);
        assert!(report.passed(), "{}", report.render());
        let counts = |detail: &str| -> (usize, usize) {
            let words: Vec<&str> = detail.split(['(', ' ']).collect();
            (words[0].parse().unwrap(), words[3].parse().unwrap())
        };
        assert!(counts(&report.checks[0].detail).0 > 0, "{}", report.render());
        assert_eq!(counts(&report.checks[1].detail), (12, 6), "{}", report.render());
    }

    #[test]
    fn meanshift_vs_reference_fails_when_the_grid_is_not_exercised() {
        // The mini corpus agrees with the reference everywhere, but none
        // of its fits can reach the grid.
        let corpus = MiniCorpus::standard().remove(0);
        let wires: Vec<Vec<u8>> = (0..corpus.len()).map(|i| corpus.mdf_bytes(i)).collect();
        let mut report = VerifyReport::default();
        meanshift_vs_reference(&mut report, "meanshift".to_owned(), &wires, true);
        assert!(!report.passed(), "{}", report.render());
        assert!(
            report.checks[0].detail.ends_with("none of them on the grid"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn wider_than_compares_the_bounding_box_diagonal() {
        // A 3-4-5 box: diagonal 5.
        let points = [[1.0, 2.0], [4.0, 6.0], [2.0, 3.0]];
        assert!(wider_than(&points, 4.99));
        assert!(!wider_than(&points, 5.0));
        assert!(!wider_than(&[[1.0, 2.0]; 3], 1e-9));
    }

    #[test]
    fn metadata_vs_reference_sees_spikes() {
        // Not vacuous: every dense trace is valid and carries metadata,
        // and its opens and closes reach the spike threshold.
        let mut report = VerifyReport::default();
        metadata_vs_reference(&mut report, "metadata".to_owned(), &dense_wires());
        assert!(report.passed(), "{}", report.render());
        assert!(
            report.checks[0].detail.starts_with("6 traces (6 with spikes)"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn inputs_match_corpus_length() {
        let corpus = MiniCorpus::standard().remove(0);
        assert_eq!(inputs_of(&corpus).len(), corpus.len());
    }
}
