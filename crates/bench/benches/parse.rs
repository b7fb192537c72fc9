//! Criterion: MDF encode/decode and text parse throughput — the paper's
//! Python implementation was bottlenecked on trace loading (2 files "take
//! too long to load"; 300 GB RAM), so format cost matters. `checksum/crc32`
//! times the MDF CRC-32 kernel on its own, at 1 KiB, 6 KiB and 1 MiB.
//! `ingest` times what the byte path does to a parsed trace before
//! categorizing it: `walk` is the executor's one record walk
//! (`ColumnarTrace::load_checked`), `staged` the same work as
//! `validate_view` followed by `load`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_core::columnar::ColumnarTrace;
use mosaic_darshan::counter::PosixCounter as C;
use mosaic_darshan::counter::PosixFCounter as F;
use mosaic_darshan::job::JobHeader;
use mosaic_darshan::log::TraceLogBuilder;
use mosaic_darshan::synthutil::Crc32;
use mosaic_darshan::view::{validate_view, TraceView};
use mosaic_darshan::{mdf, text, validate};
use std::hint::black_box;

/// A trace with exactly `n_records` populated records.
fn traces(n_records: u32) -> mosaic_darshan::TraceLog {
    let mut b =
        TraceLogBuilder::new(JobHeader::new(1, 1, 128, 0, 100_000).with_exe("/apps/bench/app"));
    for i in 0..n_records {
        let h = b.begin_record(&format!("/scratch/ref/chunk.{i:05}"), -1);
        b.record_mut(h)
            .set(C::Opens, 128)
            .set(C::Closes, 128)
            .set(C::Reads, 1024)
            .set(C::BytesRead, 32 << 20)
            .setf(F::OpenStartTimestamp, i as f64 + 0.1)
            .setf(F::ReadStartTimestamp, i as f64 + 0.2)
            .setf(F::ReadEndTimestamp, i as f64 + 0.9)
            .setf(F::CloseEndTimestamp, i as f64 + 1.0);
    }
    b.finish()
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("formats");
    for n_records in [10u32, 100, 1000] {
        let log = traces(n_records);
        let bytes = mdf::to_bytes(&log);
        let rendered = text::to_text(&log);
        let tag = format!("{n_records}rec");
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("mdf_encode", &tag), &log, |b, log| {
            b.iter(|| mdf::to_bytes(black_box(log)))
        });
        group.bench_with_input(BenchmarkId::new("mdf_decode", &tag), &bytes, |b, bytes| {
            b.iter(|| mdf::from_bytes(black_box(bytes)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("text_parse", &tag), &rendered, |b, rendered| {
            b.iter(|| text::parse(black_box(rendered)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("validate", &tag), &log, |b, log| {
            b.iter(|| validate::validate(black_box(log)))
        });
    }
    group.finish();
}

/// Validation and columnar extraction of one parsed trace. 640 records is
/// about a `dense_periodic` trace (61,685 records over 96 traces).
fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    for n_records in [10u32, 640] {
        let bytes = mdf::to_bytes(&traces(n_records));
        let view = TraceView::parse(&bytes).unwrap();
        let tag = format!("{n_records}rec");
        let mut trace = ColumnarTrace::default();
        group.throughput(Throughput::Elements(u64::from(n_records)));
        group.bench_with_input(BenchmarkId::new("walk", &tag), &view, |b, view| {
            b.iter(|| trace.load_checked(black_box(view)))
        });
        group.bench_with_input(BenchmarkId::new("staged", &tag), &view, |b, view| {
            b.iter(|| {
                let report = validate_view(black_box(view));
                trace.load(view, &report);
                report
            })
        });
    }
    group.finish();
}

/// The MDF checksum kernel alone: every parse runs it over the whole buffer.
/// 1 KiB and 6 KiB are about the median and p90 `bluewaters_dir` file
/// sizes, where the remainder after the last three-lane block weighs most.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    let data: Vec<u8> =
        (0..1u32 << 20).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for (label, len) in [("1KiB", 1 << 10), ("6KiB", 6 << 10), ("1MiB", 1 << 20)] {
        let data = &data[..len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("crc32", label), data, |b, data| {
            b.iter(|| Crc32::checksum(black_box(data)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parse, bench_ingest, bench_crc32);
criterion_main!(benches);
