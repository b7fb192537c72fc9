//! Property pin for the one MDF parser, [`TraceView::parse`], and the one
//! record walk, [`ColumnarTrace::load_checked`]. Parsing must never panic on
//! any input — arbitrary garbage, mutated real traces, and structurally
//! valid logs with hostile counter values. On every accepted input the walk
//! must agree with the staged byte path and with the row reference:
//!
//! * its validity report equals the borrowed [`validate_view`]'s and
//!   [`validate::validate`]'s on the materialized log;
//! * its columns, metadata events and weight equal what
//!   [`ColumnarTrace::load`] extracts with that report, bit for bit;
//! * and what the row reference extracts: `delete_invalid` +
//!   [`OperationView::from_log`], whose reads and writes are start-sorted
//!   (stably) where the columns keep extraction order.
//!
//! Arbitrary `i64` counters are free to be absurd here; the contract under
//! test is parsing, validation and extraction, not downstream arithmetic.

use mosaic_core::columnar::{ColumnarTrace, OpColumns};
use mosaic_darshan::error::FormatError;
use mosaic_darshan::job::JobHeader;
use mosaic_darshan::log::TraceLog;
use mosaic_darshan::record::PosixRecord;
use mosaic_darshan::synthutil::Crc32;
use mosaic_darshan::validate;
use mosaic_darshan::view::{validate_view, TraceView};
use mosaic_darshan::{mdf, MetaEvent, Operation, OperationView, TraceLogBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

type OpBits = Vec<(u64, u64, u64, u32)>;
type MetaBits = Vec<(u64, u64, u64)>;
/// Runtime, nprocs, reads, writes, metadata events and weight, by bits.
type LoadedBits = (u64, u32, OpBits, OpBits, MetaBits, i64);

/// Column rows, stably sorted by start as the row reference sorts them.
fn start_sorted(cols: &OpColumns) -> OpBits {
    let mut rows: Vec<(f64, f64, u64, u32)> = (0..cols.len())
        .map(|i| (cols.starts[i], cols.ends[i], cols.bytes[i], cols.ranks[i]))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rows.into_iter().map(|(s, e, b, r)| (s.to_bits(), e.to_bits(), b, r)).collect()
}

fn op_bits(ops: &[Operation]) -> OpBits {
    ops.iter().map(|o| (o.start.to_bits(), o.end.to_bits(), o.bytes, o.ranks)).collect()
}

fn meta_bits(meta: &[MetaEvent]) -> MetaBits {
    meta.iter().map(|e| (e.time.to_bits(), e.kind as u64, e.count)).collect()
}

/// Everything a loaded trace holds, by bits; reads and writes start-sorted.
fn loaded_bits(t: &ColumnarTrace) -> LoadedBits {
    let (reads, writes) = (start_sorted(&t.reads), start_sorted(&t.writes));
    (t.runtime.to_bits(), t.nprocs, reads, writes, meta_bits(&t.meta), t.weight)
}

/// The contract, applied to one byte buffer: parsing returns instead of
/// panicking, and an accepted view is checked and extracted by the one
/// walk exactly as by the staged pair and by the row reference.
fn assert_walk_agrees(bytes: &[u8]) -> TestCaseResult {
    if let Ok(view) = TraceView::parse(bytes) {
        let log = view.to_log();
        let mut walked = ColumnarTrace::default();
        let report = walked.load_checked(&view);
        prop_assert_eq!(&report, &validate_view(&view), "walk vs validate_view");
        prop_assert_eq!(&report, &validate::validate(&log), "walk vs validate");
        prop_assert_eq!(view.n_records(), log.records().len());
        prop_assert_eq!(view.exe, log.header().exe.as_str());
        prop_assert_eq!(view.app_key(), log.header().app_key());

        let mut staged = ColumnarTrace::default();
        staged.load(&view, &report);
        let walked_bits = loaded_bits(&walked);
        prop_assert_eq!(&walked_bits, &loaded_bits(&staged), "walk vs load");
        // Extraction order, not only its sorted image, must match too.
        prop_assert_eq!(&walked.reads, &staged.reads);
        prop_assert_eq!(&walked.writes, &staged.writes);

        let mut sanitized = log.clone();
        validate::delete_invalid(&mut sanitized, &report);
        let rows = OperationView::from_log(&sanitized);
        let reference = (
            rows.runtime.to_bits(),
            rows.nprocs,
            op_bits(&rows.reads),
            op_bits(&rows.writes),
            meta_bits(&rows.meta),
            sanitized.io_weight(),
        );
        prop_assert_eq!(walked_bits, reference, "walk vs row reference");
    }
    Ok(())
}

/// A small but real trace to mutate: mixed ranks, read activity, meta ops.
fn seed_trace_bytes() -> Vec<u8> {
    let mut b = TraceLogBuilder::new(
        JobHeader::new(7, 99, 16, 1_600_000_000, 1_600_003_600).with_exe("/apps/ior/ior -a POSIX"),
    );
    for i in 0..4i64 {
        let r = b.begin_record(&format!("/scratch/out.{i}"), i as i32 - 1);
        b.record_mut(r)
            .set(mosaic_darshan::counter::PosixCounter::Reads, 8 * (i + 1))
            .set(mosaic_darshan::counter::PosixCounter::BytesRead, 4096 * (i + 1))
            .set(mosaic_darshan::counter::PosixCounter::Opens, 2)
            .setf(mosaic_darshan::counter::PosixFCounter::ReadStartTimestamp, i as f64)
            .setf(mosaic_darshan::counter::PosixFCounter::ReadEndTimestamp, i as f64 + 0.25);
    }
    mdf::to_bytes(&b.finish())
}

/// A multi-record trace of at least 64 KB whose checksummed payload (all
/// but the 4-byte footer) ends in a tail of 1..16 bytes, so the CRC runs
/// its 16-byte blocks and then its byte-wise tail.
fn large_trace_bytes() -> Vec<u8> {
    for pad in 0..16 {
        let exe = format!("/apps/wide/app{}", "x".repeat(pad));
        let mut b = TraceLogBuilder::new(
            JobHeader::new(11, 5, 512, 1_600_000_000, 1_600_007_200).with_exe(&exe),
        );
        for i in 0..256i64 {
            let r = b.begin_record(&format!("/scratch/wide/part.{i:04}"), (i % 64) as i32 - 1);
            b.record_mut(r)
                .set(mosaic_darshan::counter::PosixCounter::Writes, 16 * (i + 1))
                .set(mosaic_darshan::counter::PosixCounter::BytesWritten, 1 << 20)
                .set(mosaic_darshan::counter::PosixCounter::Opens, 1)
                .setf(mosaic_darshan::counter::PosixFCounter::WriteStartTimestamp, i as f64)
                .setf(mosaic_darshan::counter::PosixFCounter::WriteEndTimestamp, i as f64 + 0.5);
        }
        let bytes = mdf::to_bytes(&b.finish());
        if !(bytes.len() - 4).is_multiple_of(16) {
            return bytes;
        }
    }
    unreachable!("some exe padding leaves a CRC tail")
}

/// Structurally valid logs with adversarial contents: arbitrary counters
/// (including negatives and near-overflow magnitudes), arbitrary ranks,
/// records with and without name-table entries.
fn arb_log() -> impl Strategy<Value = TraceLog> {
    let arb_record = (
        any::<u64>(),
        -3i32..70,
        prop::collection::vec(any::<i64>(), mosaic_darshan::counter::N_POSIX_COUNTERS),
        prop::collection::vec(-1.0e9f64..1.0e9, mosaic_darshan::counter::N_POSIX_FCOUNTERS),
        any::<bool>(),
    );
    (
        any::<u64>(),
        any::<u32>(),
        0u32..2048,
        -1000i64..2_000_000_000,
        0i64..2_000_000_000,
        prop::collection::vec(arb_record, 0..12),
    )
        .prop_map(|(job_id, uid, nprocs, start, end, recs)| {
            let header = JobHeader::new(job_id, uid, nprocs, start, end).with_exe("/bin/prop");
            let mut names = BTreeMap::new();
            let records: Vec<PosixRecord> = recs
                .into_iter()
                .map(|(id, rank, counters, fcounters, named)| {
                    let mut rec = PosixRecord::new(id, rank);
                    rec.counters.copy_from_slice(&counters);
                    rec.fcounters.copy_from_slice(&fcounters);
                    if named {
                        names.insert(id, format!("/prop/{id}"));
                    }
                    rec
                })
                .collect();
            TraceLog::from_parts(header, records, names)
        })
}

#[test]
fn bit_flips_across_a_large_trace_fail_the_checksum() {
    let clean = large_trace_bytes();
    assert!(clean.len() >= 64 * 1024, "trace is only {} bytes", clean.len());
    assert!(TraceView::parse(&clean).is_ok());
    let payload = clean.len() - 4;
    let tail = payload % 16;
    assert!(tail > 0);
    let sites = [
        ("first byte after the magic", mdf::MAGIC.len()),
        ("first block after the magic", 16 + 5),
        ("a middle block", (payload / 2) / 16 * 16 + 9),
        ("first byte of the tail", payload - tail),
        ("last byte before the footer", payload - 1),
    ];
    for (site, pos) in sites {
        for bit in [0u8, 7] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 1 << bit;
            assert!(
                matches!(TraceView::parse(&bytes), Err(FormatError::ChecksumMismatch { .. })),
                "{site} (byte {pos}, bit {bit}) was not caught by the checksum"
            );
            // Repair the footer: the same bytes now get past the checksum.
            let crc = Crc32::checksum(&bytes[..payload]);
            bytes[payload..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                !matches!(TraceView::parse(&bytes), Err(FormatError::ChecksumMismatch { .. })),
                "{site} (byte {pos}, bit {bit}) failed the checksum after repair"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic_and_agree(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        assert_walk_agrees(&bytes)?;
    }

    #[test]
    fn magic_prefixed_garbage_agrees(
        tail in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        // Forcing the magic past the first check exercises the checksum and
        // header decoding paths instead of bailing at byte 0.
        let mut bytes = mdf::MAGIC.to_vec();
        bytes.extend(tail);
        assert_walk_agrees(&bytes)?;
    }

    #[test]
    fn truncated_and_extended_real_traces_agree(
        cut in 0usize..2000,
        junk in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut bytes = seed_trace_bytes();
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        bytes.extend(junk);
        assert_walk_agrees(&bytes)?;
    }

    #[test]
    fn bit_flipped_real_traces_agree(pos in 0usize..2000, mask in 1u8..=255) {
        let mut bytes = seed_trace_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        assert_walk_agrees(&bytes)?;
    }

    #[test]
    fn recrced_corruptions_reach_structural_checks_and_agree(
        pos in 0usize..2000,
        mask in 1u8..=255,
    ) {
        // Flip a payload byte, then repair the CRC footer: the parser gets
        // past the checksum and must reach a *structural* verdict (record
        // counts, module tags, name-table shape, trailing bytes).
        let mut bytes = seed_trace_bytes();
        let pos = pos % (bytes.len() - 4);
        bytes[pos] ^= mask;
        let crc = Crc32::checksum(&bytes[..bytes.len() - 4]);
        let footer = bytes.len() - 4;
        bytes[footer..].copy_from_slice(&crc.to_le_bytes());
        assert_walk_agrees(&bytes)?;
    }

    #[test]
    fn adversarial_valid_logs_decode_and_validate_identically(log in arb_log()) {
        let bytes = mdf::to_bytes(&log);
        assert_walk_agrees(&bytes)?;
        // The parser must *accept* a well-formed serialization, however
        // hostile the counter values are, and decode it losslessly.
        let view = TraceView::parse(&bytes);
        prop_assert!(view.is_ok());
        if let Ok(view) = view {
            prop_assert_eq!(view.to_log(), log);
        }
    }
}
