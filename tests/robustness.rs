//! Robustness properties: parsers never panic on hostile input, and the
//! categorizer satisfies its algebraic invariants on arbitrary views.

use mosaic_core::category::{OpKindTag, TemporalityLabel};
use mosaic_core::merge::{merge_all, merge_concurrent};
use mosaic_core::{Categorizer, CategorizerConfig};
use mosaic_darshan::limits::{MAX_ACCESSES, MAX_EXE_LEN, MAX_NAMES, MAX_RECORDS};
use mosaic_darshan::ops::{OpKind, Operation, OperationView};
use mosaic_darshan::{dxt, mdf, text, FormatError};
use proptest::prelude::*;

// ---- parsers must reject, never panic --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mdf_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = mdf::from_bytes(&bytes);
    }

    #[test]
    fn mdx_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = dxt::from_bytes(&bytes);
    }

    #[test]
    fn text_parser_never_panics(input in "\\PC{0,2000}") {
        let _ = text::parse(&input);
    }

    #[test]
    fn mdf_parser_never_panics_on_mutated_valid_prefix(
        cut in 0usize..1000,
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A valid header followed by garbage exercises the structured
        // decoding paths rather than just the magic check.
        let log = mosaic_darshan::log::TraceLogBuilder::new(
            mosaic_darshan::job::JobHeader::new(1, 2, 3, 0, 100).with_exe("/bin/x"),
        )
        .finish();
        let mut bytes = mdf::to_bytes(&log);
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        bytes.extend(junk);
        let _ = mdf::from_bytes(&bytes);
    }
}

/// An MDX whose header is valid and whose body is `body`, sealed with a
/// correct CRC-32 footer so the parser gets past the checksum.
fn sealed_mdx(body: &[u8]) -> Vec<u8> {
    let mut bytes = dxt::DXT_MAGIC.to_vec();
    bytes.extend_from_slice(&dxt::DXT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes()); // flags
    bytes.extend_from_slice(&1u64.to_le_bytes()); // job id
    bytes.extend_from_slice(&2u32.to_le_bytes()); // uid
    bytes.extend_from_slice(&4u32.to_le_bytes()); // nprocs
    bytes.extend_from_slice(&0i64.to_le_bytes()); // start
    bytes.extend_from_slice(&100i64.to_le_bytes()); // end
    bytes.extend_from_slice(&0u32.to_le_bytes()); // exe length
    bytes.extend_from_slice(body);
    let crc = mosaic_darshan::synthutil::Crc32::checksum(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// The counts either side of a `MAX_*` cap, and the largest a `u32` holds.
fn hostile_counts(max: u32) -> [u32; 4] {
    [max - 1, max, max + 1, u32::MAX]
}

/// The error a parser must return for a header claiming `count` entries
/// it does not carry: a count above `max` is implausible (`context`), one
/// at or below it runs out of input at the field named `truncated`.
/// Either way the claim must size no allocation: `MAX_RECORDS` MDX
/// records would take 5.9 GB, and a failed allocation aborts the process
/// instead of returning an error.
fn hostile_count_error(
    count: u32,
    max: u32,
    context: &'static str,
    truncated: &'static str,
) -> FormatError {
    if count > max {
        FormatError::ImplausibleLength { context, len: u64::from(count) }
    } else {
        FormatError::Truncated { context: truncated }
    }
}

#[test]
fn hostile_mdx_record_counts_are_typed_errors_without_a_huge_allocation() {
    for n in hostile_counts(MAX_RECORDS) {
        let bytes = sealed_mdx(&n.to_le_bytes());
        let expected = hostile_count_error(n, MAX_RECORDS, "record count", "record id");
        assert_eq!(dxt::from_bytes(&bytes).err(), Some(expected), "record count {n}");
    }
}

/// One MDX record `7` on rank 0, up to (not including) its access count.
fn mdx_record_head() -> Vec<u8> {
    let mut body = 1u32.to_le_bytes().to_vec(); // one record
    body.extend_from_slice(&7u64.to_le_bytes()); // record id
    body.extend_from_slice(&0i32.to_le_bytes()); // rank
    body
}

#[test]
fn hostile_mdx_access_counts_are_typed_errors_without_a_huge_allocation() {
    for n in hostile_counts(MAX_ACCESSES) {
        let mut body = mdx_record_head();
        body.extend_from_slice(&n.to_le_bytes());
        let bytes = sealed_mdx(&body);
        let expected = hostile_count_error(n, MAX_ACCESSES, "access count", "access kind");
        assert_eq!(dxt::from_bytes(&bytes).err(), Some(expected), "access count {n}");
    }
}

/// The open, close and name counts size no allocation, but a count past
/// its `MAX_*` is still implausible rather than a long read.
#[test]
fn hostile_mdx_open_close_and_name_counts_are_typed_errors() {
    for n in hostile_counts(MAX_ACCESSES) {
        let mut opens = mdx_record_head();
        opens.extend_from_slice(&0u32.to_le_bytes()); // no accesses
        opens.extend_from_slice(&n.to_le_bytes());
        let expected = hostile_count_error(n, MAX_ACCESSES, "open count", "open ts");
        assert_eq!(dxt::from_bytes(&sealed_mdx(&opens)).err(), Some(expected), "open count {n}");

        let mut closes = mdx_record_head();
        closes.extend_from_slice(&0u32.to_le_bytes()); // no accesses
        closes.extend_from_slice(&0u32.to_le_bytes()); // no opens
        closes.extend_from_slice(&n.to_le_bytes());
        let expected = hostile_count_error(n, MAX_ACCESSES, "close count", "close ts");
        assert_eq!(dxt::from_bytes(&sealed_mdx(&closes)).err(), Some(expected), "close count {n}");
    }
    for n in hostile_counts(MAX_RECORDS) {
        let mut names = 0u32.to_le_bytes().to_vec(); // no records
        names.extend_from_slice(&n.to_le_bytes());
        let expected = hostile_count_error(n, MAX_RECORDS, "name count", "name id");
        assert_eq!(dxt::from_bytes(&sealed_mdx(&names)).err(), Some(expected), "name count {n}");
    }
}

/// An MDF whose header is valid up to the exe length and whose body is
/// `body`, sealed with a correct CRC-32 footer so the parser gets past the
/// checksum.
fn sealed_mdf(body: &[u8]) -> Vec<u8> {
    let mut bytes = mdf::MAGIC.to_vec();
    bytes.extend_from_slice(&mdf::VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes()); // flags
    bytes.extend_from_slice(&1u64.to_le_bytes()); // job id
    bytes.extend_from_slice(&2u32.to_le_bytes()); // uid
    bytes.extend_from_slice(&4u32.to_le_bytes()); // nprocs
    bytes.extend_from_slice(&0i64.to_le_bytes()); // start
    bytes.extend_from_slice(&100i64.to_le_bytes()); // end
    bytes.extend_from_slice(body);
    let crc = mosaic_darshan::synthutil::Crc32::checksum(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn hostile_mdf_exe_lengths_are_typed_errors() {
    for n in hostile_counts(MAX_EXE_LEN) {
        let bytes = sealed_mdf(&n.to_le_bytes());
        let expected = hostile_count_error(n, MAX_EXE_LEN, "exe", "exe");
        assert_eq!(mdf::from_bytes(&bytes).err(), Some(expected), "exe length {n}");
    }
}

#[test]
fn hostile_mdf_record_counts_are_typed_errors_without_a_huge_allocation() {
    for n in hostile_counts(MAX_RECORDS) {
        let mut body = 0u32.to_le_bytes().to_vec(); // empty exe
        body.extend_from_slice(&n.to_le_bytes());
        let bytes = sealed_mdf(&body);
        let expected = hostile_count_error(n, MAX_RECORDS, "record count", "record array");
        assert_eq!(mdf::from_bytes(&bytes).err(), Some(expected), "record count {n}");
    }
}

#[test]
fn hostile_mdf_name_counts_are_typed_errors_without_a_huge_allocation() {
    for n in hostile_counts(MAX_NAMES) {
        let mut body = 0u32.to_le_bytes().to_vec(); // empty exe
        body.extend_from_slice(&0u32.to_le_bytes()); // no records
        body.extend_from_slice(&n.to_le_bytes());
        let bytes = sealed_mdf(&body);
        let expected = hostile_count_error(n, MAX_NAMES, "name count", "name table");
        assert_eq!(mdf::from_bytes(&bytes).err(), Some(expected), "name count {n}");
    }
}

// ---- merge invariants --------------------------------------------------

fn arb_ops() -> impl Strategy<Value = Vec<Operation>> {
    prop::collection::vec((0.0f64..10_000.0, 0.0f64..500.0, 0u64..1 << 32, 1u32..128), 0..120)
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(start, len, bytes, ranks)| Operation {
                    kind: OpKind::Write,
                    start,
                    end: start + len,
                    bytes,
                    ranks,
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn concurrent_merge_output_is_sorted_and_disjoint(ops in arb_ops()) {
        let merged = merge_concurrent(&ops);
        for w in merged.windows(2) {
            prop_assert!(w[0].start <= w[1].start);
            prop_assert!(w[0].end < w[1].start, "overlap survived: {w:?}");
        }
    }

    #[test]
    fn concurrent_merge_is_idempotent(ops in arb_ops()) {
        let once = merge_concurrent(&ops);
        let twice = merge_concurrent(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn merging_conserves_bytes_and_ranks(ops in arb_ops()) {
        let bytes: u64 = ops.iter().map(|o| o.bytes).sum();
        let ranks: u64 = ops.iter().map(|o| o.ranks as u64).sum();
        let merged = merge_all(&ops, 10_500.0, &CategorizerConfig::default());
        prop_assert_eq!(merged.iter().map(|o| o.bytes).sum::<u64>(), bytes);
        prop_assert_eq!(merged.iter().map(|o| o.ranks as u64).sum::<u64>(), ranks);
    }

    #[test]
    fn merging_preserves_time_hull(ops in arb_ops()) {
        prop_assume!(!ops.is_empty());
        let lo = ops.iter().map(|o| o.start).fold(f64::INFINITY, f64::min);
        let hi = ops.iter().map(|o| o.end).fold(0.0f64, f64::max);
        let merged = merge_all(&ops, 10_500.0, &CategorizerConfig::default());
        prop_assert!((merged.first().unwrap().start - lo).abs() < 1e-9);
        prop_assert!((merged.last().unwrap().end - hi).abs() < 1e-9);
    }
}

// ---- categorizer invariants ---------------------------------------------

fn arb_view() -> impl Strategy<Value = OperationView> {
    (
        100.0f64..100_000.0,
        1u32..2048,
        prop::collection::vec((0.0f64..1.0, 0.0f64..0.2, 0u64..1 << 34), 0..40),
        prop::collection::vec((0.0f64..1.0, 0.0f64..0.2, 0u64..1 << 34), 0..40),
    )
        .prop_map(|(runtime, nprocs, raw_reads, raw_writes)| {
            let mk = |kind: OpKind, raw: Vec<(f64, f64, u64)>| {
                let mut ops: Vec<Operation> = raw
                    .into_iter()
                    .map(|(s, l, bytes)| Operation {
                        kind,
                        start: s * runtime,
                        end: (s + l).min(1.0) * runtime,
                        bytes,
                        ranks: nprocs,
                    })
                    .collect();
                ops.sort_by(|a, b| a.start.total_cmp(&b.start));
                ops
            };
            OperationView {
                runtime,
                nprocs,
                reads: mk(OpKind::Read, raw_reads),
                writes: mk(OpKind::Write, raw_writes),
                meta: vec![],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn categorizer_never_panics_and_is_total(view in arb_view()) {
        let report = Categorizer::default().categorize(&view);
        // Exactly one temporality label per direction, always.
        for kind in [OpKindTag::Read, OpKindTag::Write] {
            let labels = TemporalityLabel::ALL
                .iter()
                .filter(|&&label| {
                    report.has(mosaic_core::Category::Temporality { kind, label })
                })
                .count();
            prop_assert_eq!(labels, 1, "direction {:?}", kind);
        }
    }

    #[test]
    fn significance_threshold_is_respected(view in arb_view()) {
        let config = CategorizerConfig::default();
        let threshold = config.insignificant_bytes;
        let report = Categorizer::new(config).categorize(&view);
        for (kind, ops) in [(OpKindTag::Read, &view.reads), (OpKindTag::Write, &view.writes)] {
            let total: u64 = ops.iter().map(|o| o.bytes).sum();
            let insig = report.has(mosaic_core::Category::Temporality {
                kind,
                label: TemporalityLabel::Insignificant,
            });
            prop_assert_eq!(total < threshold, insig, "kind {:?} total {}", kind, total);
        }
    }

    #[test]
    fn temporality_is_time_scale_invariant(view in arb_view(), scale_exp in -3i32..8) {
        // Powers of two keep every float product exact, so the property is
        // strict; arbitrary scales could flip decisions that sit exactly on
        // the 2x-dominance boundary through rounding.
        let scale = (2.0f64).powi(scale_exp);
        let scaled = OperationView {
            runtime: view.runtime * scale,
            nprocs: view.nprocs,
            reads: view
                .reads
                .iter()
                .map(|o| Operation { start: o.start * scale, end: o.end * scale, ..*o })
                .collect(),
            writes: view
                .writes
                .iter()
                .map(|o| Operation { start: o.start * scale, end: o.end * scale, ..*o })
                .collect(),
            meta: vec![],
        };
        let categorizer = Categorizer::default();
        let a = categorizer.categorize(&view);
        let b = categorizer.categorize(&scaled);
        prop_assert_eq!(a.read.temporality.label, b.read.temporality.label);
        prop_assert_eq!(a.write.temporality.label, b.write.temporality.label);
    }

    #[test]
    fn reports_always_roundtrip_json(view in arb_view()) {
        let report = Categorizer::default().categorize(&view);
        let parsed = mosaic_core::TraceReport::from_json(&report.to_json()).unwrap();
        prop_assert_eq!(parsed, report);
    }
}

/// Named regression for the committed proptest seed `bb844bc1…` (see
/// `tests/robustness.proptest-regressions`). The shrunk case is a chain of
/// six overlapping reads where only one carries bytes, scaled by the
/// decidedly non-power-of-two factor `59.38165539475814`. At that scale the
/// merged read interval's fraction-of-runtime lands exactly on the
/// 2×-dominance boundary between temporality labels, and f64 rounding can
/// push it to either side — which is why the live property
/// (`temporality_is_time_scale_invariant`) now restricts itself to
/// power-of-two scales, where every product is exact. This test pins the
/// weaker guarantees that must hold even at the hostile scale: the
/// categorizer stays total (exactly one temporality label per direction)
/// and power-of-two scaling of this exact view remains strictly invariant.
#[test]
fn regression_non_power_of_two_scale_on_boundary_view() {
    let raw = [
        (40.180_654_076_512_894, 56.981_909_748_251_05, 0u64),
        (54.551_798_380_312_974, 69.179_056_891_784_43, 104_857_600),
        (67.226_972_903_747_95, 83.212_590_262_719_33, 0),
        (81.309_842_379_837_16, 85.727_400_500_151_49, 0),
        (83.705_708_641_753_13, 96.441_578_417_198_81, 0),
        (90.759_335_358_299_62, 100.0, 0),
    ];
    let view = OperationView {
        runtime: 100.0,
        nprocs: 1,
        reads: raw
            .iter()
            .map(|&(start, end, bytes)| Operation {
                kind: OpKind::Read,
                start,
                end,
                bytes,
                ranks: 1,
            })
            .collect(),
        writes: vec![],
        meta: vec![],
    };
    let categorizer = Categorizer::default();
    let rescale = |view: &OperationView, scale: f64| OperationView {
        runtime: view.runtime * scale,
        nprocs: view.nprocs,
        reads: view
            .reads
            .iter()
            .map(|o| Operation { start: o.start * scale, end: o.end * scale, ..*o })
            .collect(),
        writes: vec![],
        meta: vec![],
    };

    let base = categorizer.categorize(&view);
    // Totality holds at the historical hostile scale — no panic, exactly one
    // temporality label per direction (whichever side of the boundary the
    // rounding picks).
    let hostile = categorizer.categorize(&rescale(&view, 59.381_655_394_758_14));
    for report in [&base, &hostile] {
        for kind in [OpKindTag::Read, OpKindTag::Write] {
            let labels = TemporalityLabel::ALL
                .iter()
                .filter(|&&label| report.has(mosaic_core::Category::Temporality { kind, label }))
                .count();
            assert_eq!(labels, 1, "direction {kind:?}");
        }
    }
    // Power-of-two scales stay exact even on this boundary-sitting view.
    for exp in [-3i32, -1, 1, 4, 8] {
        let scaled = categorizer.categorize(&rescale(&view, (2.0f64).powi(exp)));
        assert_eq!(scaled.read.temporality.label, base.read.temporality.label, "2^{exp}");
        assert_eq!(scaled.write.temporality.label, base.write.temporality.label, "2^{exp}");
    }
}

// ---- pipeline resilience -------------------------------------------------

#[test]
fn pipeline_survives_a_source_of_pure_garbage() {
    use mosaic_pipeline::executor::{process, PipelineConfig};
    use mosaic_pipeline::source::{ClosureSource, TraceInput};
    let source = ClosureSource::new(200, |i| TraceInput::bytes(vec![i as u8; i % 97]));
    let result = process(&source, &PipelineConfig::default());
    assert_eq!(result.funnel.total, 200);
    assert_eq!(result.funnel.format_corrupt, 200);
    assert!(result.outcomes.is_empty());
}

#[test]
fn hostile_byte_volumes_saturate_the_dedup_weight() {
    // A trace that passes validation yet carries two records of 2^62 bytes
    // read: their sum overflows `i64`. The dedup weight must saturate at
    // `i64::MAX` on both input kinds instead of panicking (debug) or
    // wrapping negative (release).
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    use mosaic_pipeline::executor::{process, PipelineConfig};
    use mosaic_pipeline::source::{TraceInput, VecSource};
    let mut b = mosaic_darshan::log::TraceLogBuilder::new(
        mosaic_darshan::job::JobHeader::new(1, 1, 4, 0, 1000).with_exe("/bin/huge"),
    );
    for rank in 0..2 {
        let r = b.begin_record(&format!("/huge.{rank}"), rank);
        b.record_mut(r)
            .set(C::Reads, 1)
            .set(C::BytesRead, 1 << 62)
            .setf(F::ReadStartTimestamp, 10.0)
            .setf(F::ReadEndTimestamp, 20.0);
    }
    let log = b.finish();
    assert!(mosaic_darshan::validate::validate(&log).is_clean());

    let run = |input: TraceInput| process(&VecSource::new(vec![input]), &PipelineConfig::default());
    let from_bytes = run(TraceInput::bytes(mdf::to_bytes(&log)));
    let from_log = run(TraceInput::log(log));
    for result in [&from_bytes, &from_log] {
        assert_eq!(result.funnel.valid, 1, "{:?}", result.funnel);
        assert_eq!(result.outcomes[0].weight, i64::MAX);
    }
    assert_eq!(from_bytes.outcomes, from_log.outcomes);
}

#[test]
fn hostile_mixed_volumes_saturate_the_dedup_weight() {
    // Reads and writes that each fit in `i64` but whose total does not:
    // the weight saturates identically whether the trace arrives as bytes
    // or as a log, and the categorization is unaffected by the clamp.
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    use mosaic_pipeline::executor::{process, PipelineConfig};
    use mosaic_pipeline::source::{TraceInput, VecSource};
    let mut b = mosaic_darshan::log::TraceLogBuilder::new(
        mosaic_darshan::job::JobHeader::new(1, 1, 4, 0, 1000).with_exe("/bin/mixed"),
    );
    let r = b.begin_record("/in", 0);
    b.record_mut(r)
        .set(C::Reads, 1)
        .set(C::BytesRead, 3 << 61)
        .setf(F::ReadStartTimestamp, 10.0)
        .setf(F::ReadEndTimestamp, 20.0);
    let w = b.begin_record("/out", 1);
    b.record_mut(w)
        .set(C::Writes, 1)
        .set(C::BytesWritten, 3 << 61)
        .setf(F::WriteStartTimestamp, 900.0)
        .setf(F::WriteEndTimestamp, 950.0);
    let log = b.finish();
    assert!(mosaic_darshan::validate::validate(&log).is_clean());

    let run = |input: TraceInput| process(&VecSource::new(vec![input]), &PipelineConfig::default());
    let from_bytes = run(TraceInput::bytes(mdf::to_bytes(&log)));
    let from_log = run(TraceInput::log(log));
    for result in [&from_bytes, &from_log] {
        assert_eq!(result.funnel.valid, 1, "{:?}", result.funnel);
        assert_eq!(result.outcomes[0].weight, i64::MAX);
    }
    assert_eq!(from_bytes.outcomes, from_log.outcomes);
}

// ---- hostile runtimes and metadata counts --------------------------------

/// One MDF trace whose header spans `start..end` seconds: three records,
/// each reading and opening then closing 300 times, at seconds 3, 10^6 and
/// 5·10^10 (within the claimed runtime, and where `f64` still resolves a
/// second).
fn long_running_trace(start: i64, end: i64) -> Vec<u8> {
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    let mut b = mosaic_darshan::log::TraceLogBuilder::new(
        mosaic_darshan::job::JobHeader::new(1, 1, 4, start, end).with_exe("/bin/forever"),
    );
    for (rank, at) in [(0, 3.0), (1, 1e6), (2, 5e10)] {
        let r = b.begin_record(&format!("/long.{rank}"), rank);
        b.record_mut(r)
            .set(C::Opens, 300)
            .set(C::Closes, 300)
            .set(C::Reads, 1)
            .set(C::BytesRead, 1 << 30)
            .setf(F::OpenStartTimestamp, at)
            .setf(F::ReadStartTimestamp, at)
            .setf(F::ReadEndTimestamp, at + 1.0)
            .setf(F::CloseEndTimestamp, at + 2.0);
    }
    mdf::to_bytes(&b.finish())
}

#[test]
fn hostile_header_runtimes_categorize_without_aborting() {
    // A header runtime of 1e11 s used to make the metadata stage allocate
    // an 800 GB per-second histogram and abort the run; `-1..i64::MAX`
    // also overflowed the runtime subtraction. The metadata stage now
    // touches only the occupied seconds, so both categorize in full.
    use mosaic_core::category::MetadataLabel;
    use mosaic_pipeline::executor::{process, PipelineConfig};
    use mosaic_pipeline::source::{TraceInput, VecSource};
    for (start, end) in [(0, 100_000_000_000), (0, i64::MAX), (-1, i64::MAX)] {
        let input = TraceInput::bytes(long_running_trace(start, end));
        let result = process(&VecSource::new(vec![input]), &PipelineConfig::default());
        assert_eq!(result.funnel.valid, 1, "{start}..{end}: {:?}", result.funnel);
        let report = &result.outcomes[0].report;
        assert_eq!(report.runtime, mosaic_darshan::job::runtime_of(start, end));
        // 300 opens in one second and 300 closes two seconds later, per
        // record: six spikes of the same size.
        assert_eq!(report.metadata.peak_rps, 300, "{start}..{end}");
        assert_eq!(report.metadata.spike_count, 6, "{start}..{end}");
        assert!(report.metadata.has(MetadataLabel::HighSpike));
    }
}

#[test]
fn hostile_metadata_counts_saturate_the_request_sums() {
    // Three records of `i64::MAX` opens in the same second: the total and
    // the per-second sum overflow `u64`. Both must saturate instead of
    // panicking (debug) or wrapping (release).
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    use mosaic_pipeline::executor::{process, PipelineConfig};
    use mosaic_pipeline::source::{TraceInput, VecSource};
    let mut b = mosaic_darshan::log::TraceLogBuilder::new(
        mosaic_darshan::job::JobHeader::new(1, 1, 4, 0, 1000).with_exe("/bin/opener"),
    );
    for rank in 0..3 {
        let r = b.begin_record(&format!("/opened.{rank}"), rank);
        b.record_mut(r).set(C::Opens, i64::MAX).setf(F::OpenStartTimestamp, 10.5);
    }
    let log = b.finish();
    assert!(mosaic_darshan::validate::validate(&log).is_clean());
    let result = process(
        &VecSource::new(vec![TraceInput::bytes(mdf::to_bytes(&log))]),
        &PipelineConfig::default(),
    );
    assert_eq!(result.funnel.valid, 1, "{:?}", result.funnel);
    let metadata = &result.outcomes[0].report.metadata;
    assert_eq!(metadata.total_requests, u64::MAX);
    assert_eq!(metadata.peak_rps, u64::MAX);
    assert_eq!(metadata.spike_count, 1);
}

fn arb_meta_view() -> impl Strategy<Value = OperationView> {
    use mosaic_darshan::ops::{MetaEvent, MetaKind};
    const SPECIAL: [f64; 5] = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    (
        0.0f64..1e15,
        1u32..2048,
        prop::collection::vec((0usize..12, -0.1f64..1.1, 0u64..i64::MAX as u64), 0..64),
    )
        .prop_map(|(runtime, nprocs, raw)| OperationView {
            runtime,
            nprocs,
            reads: vec![],
            writes: vec![],
            meta: raw
                .into_iter()
                .map(|(pick, frac, count)| MetaEvent {
                    time: SPECIAL.get(pick).copied().unwrap_or(frac * runtime),
                    kind: MetaKind::Open,
                    count,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metadata_stage_never_panics_on_hostile_events(view in arb_meta_view()) {
        let report = Categorizer::default().categorize(&view);
        let metadata = &report.metadata;
        prop_assert!(metadata.peak_rps <= metadata.total_requests);
        prop_assert!(metadata.spike_count <= view.meta.len());
    }
}
