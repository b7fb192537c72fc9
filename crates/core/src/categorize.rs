//! The categorization pipeline: merging → segmentation → the three
//! characterizations → a category set (Fig 1 of the paper).

use crate::category::{Category, OpKindTag};
use crate::columnar;
use crate::config::{CategorizerConfig, PeriodicityMethod};
use crate::metadata::{self, MetadataResult};
use crate::periodicity::{detect_periodic, PeriodicPattern};
use crate::segment::segment;
use crate::temporality::{self, TemporalityResult};
use mosaic_darshan::ops::{OpKind, Operation, OperationView};
use mosaic_darshan::TraceLog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Per-direction analysis detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectionReport {
    /// Operations surviving the two merge passes.
    pub merged_ops: usize,
    /// Operations before merging.
    pub raw_ops: usize,
    /// Temporality verdict.
    pub temporality: TemporalityResult,
    /// Detected periodic patterns (possibly several).
    pub periodic: Vec<PeriodicPattern>,
}

/// The complete MOSAIC output for one trace (§III-B4's JSON payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// The assigned non-exclusive category set.
    pub categories: BTreeSet<Category>,
    /// Read-direction detail.
    pub read: DirectionReport,
    /// Write-direction detail.
    pub write: DirectionReport,
    /// Metadata detail.
    pub metadata: MetadataResult,
    /// Job runtime (seconds), echoed for downstream consumers.
    pub runtime: f64,
    /// Rank count, echoed for downstream consumers.
    pub nprocs: u32,
}

impl TraceReport {
    /// Canonical category names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.categories.iter().map(Category::name).collect()
    }

    /// `true` if the trace carries the category.
    pub fn has(&self, category: Category) -> bool {
        self.categories.contains(&category)
    }

    /// Project the category set onto one characterization axis.
    ///
    /// Metamorphic invariants are often per-axis: uniform time scaling must
    /// preserve the temporality axis exactly, while period-magnitude buckets
    /// (periodicity axis) legitimately move with absolute time.
    pub fn categories_on(&self, axis: crate::category::CategoryAxis) -> BTreeSet<Category> {
        self.categories.iter().filter(|c| c.axis() == axis).copied().collect()
    }

    /// Direction detail by kind.
    pub fn direction(&self, kind: OpKind) -> &DirectionReport {
        match kind {
            OpKind::Read => &self.read,
            OpKind::Write => &self.write,
        }
    }

    /// Serialize to the JSON document MOSAIC writes per trace.
    #[expect(clippy::expect_used, reason = "maps, strings and numbers always serialize")]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parse a JSON report back.
    pub fn from_json(json: &str) -> Result<TraceReport, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Wall-clock split of one categorization call, for pipeline observability.
///
/// The merge passes and the rest of the categorization (segmentation,
/// temporality, periodicity, metadata) are timed separately so the pipeline
/// can report them as distinct stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategorizeTimings {
    /// Nanoseconds spent in the merge passes (both directions).
    pub merge_nanos: u64,
    /// Nanoseconds for the whole categorization, merging included.
    pub total_nanos: u64,
}

/// The MOSAIC categorizer. Cheap to clone; holds only configuration.
#[derive(Debug, Clone, Default)]
pub struct Categorizer {
    config: CategorizerConfig,
}

impl Categorizer {
    /// Build with the given thresholds.
    pub fn new(config: CategorizerConfig) -> Self {
        Categorizer { config: config.validated() }
    }

    /// Access the configuration.
    pub fn config(&self) -> &CategorizerConfig {
        &self.config
    }

    /// Categorize a full trace log (extracts the operation view first).
    pub fn categorize_log(&self, log: &TraceLog) -> TraceReport {
        self.categorize(&OperationView::from_log(log))
    }

    /// Categorize an operation view: load it into a fresh
    /// [`columnar::TraceArena`] and run [`Categorizer::categorize_arena_timed`].
    pub fn categorize(&self, view: &OperationView) -> TraceReport {
        let mut arena = columnar::TraceArena::default();
        arena.trace.load_view(view);
        self.categorize_arena_timed(&mut arena).0
    }

    /// Categorize a loaded [`columnar::TraceArena`] — the core entry point.
    /// Reuses the arena's buffers for merging and materialization, and
    /// reports the wall-clock split between merging and the rest.
    pub fn categorize_arena_timed(
        &self,
        arena: &mut columnar::TraceArena,
    ) -> (TraceReport, CategorizeTimings) {
        #[expect(
            clippy::disallowed_methods,
            reason = "timings feed MetricsReport telemetry only, never ResultSnapshot digests"
        )]
        let started = std::time::Instant::now();
        let mut merge_nanos = 0u64;
        let mut categories = BTreeSet::new();
        let trace = &arena.trace;
        let scratch = &mut arena.scratch;

        let read = self.direction_columnar(
            &trace.reads,
            trace.runtime,
            OpKind::Read,
            &mut categories,
            &mut merge_nanos,
            scratch,
        );
        let write = self.direction_columnar(
            &trace.writes,
            trace.runtime,
            OpKind::Write,
            &mut categories,
            &mut merge_nanos,
            scratch,
        );

        let metadata =
            metadata::characterize(&trace.meta, trace.runtime, trace.nprocs, &self.config);
        for label in &metadata.labels {
            categories.insert(Category::Metadata(*label));
        }

        let report = TraceReport {
            categories,
            read,
            write,
            metadata,
            runtime: trace.runtime,
            nprocs: trace.nprocs,
        };
        #[expect(
            clippy::disallowed_methods,
            clippy::cast_possible_truncation,
            reason = "telemetry only, never ResultSnapshot digests; elapsed nanoseconds \
                      exceed u64 only after ~584 years"
        )]
        let total_nanos = started.elapsed().as_nanos() as u64;
        (report, CategorizeTimings { merge_nanos, total_nanos })
    }

    /// One direction of the arena path: columnar merge, columnar temporality,
    /// then segmentation/periodicity on the materialized (short) merged list.
    fn direction_columnar(
        &self,
        raw: &columnar::OpColumns,
        runtime: f64,
        kind: OpKind,
        categories: &mut BTreeSet<Category>,
        merge_nanos: &mut u64,
        scratch: &mut columnar::MergeScratch,
    ) -> DirectionReport {
        let tag = OpKindTag::from(kind);
        #[expect(
            clippy::disallowed_methods,
            reason = "timings feed MetricsReport telemetry only, never ResultSnapshot digests"
        )]
        let merge_started = std::time::Instant::now();
        columnar::merge_all_columnar(raw, runtime, &self.config, scratch);
        #[expect(
            clippy::disallowed_methods,
            clippy::cast_possible_truncation,
            reason = "telemetry only, never ResultSnapshot digests; elapsed nanoseconds \
                      exceed u64 only after ~584 years"
        )]
        let merge_elapsed = merge_started.elapsed().as_nanos() as u64;
        *merge_nanos += merge_elapsed;
        let temporality =
            temporality::characterize_columnar(&scratch.merged, runtime, &self.config);
        categories.insert(Category::Temporality { kind: tag, label: temporality.label });

        // Periodicity is only meaningful for significant directions: an
        // insignificant direction contributes no periodic categories even if
        // its few tiny operations happen to be evenly spaced.
        let significant = temporality.label != crate::category::TemporalityLabel::Insignificant;
        let periodic = if significant {
            scratch.merged.materialize(kind, &mut scratch.ops);
            self.detect_periodicity(&scratch.ops, runtime)
        } else {
            Vec::new()
        };

        insert_periodic_categories(tag, &periodic, categories, self.config.busy_time_split);

        DirectionReport {
            merged_ops: scratch.merged.len(),
            raw_ops: raw.len(),
            temporality,
            periodic,
        }
    }

    /// Periodicity detection on one direction's merged operations.
    fn detect_periodicity(&self, merged: &[Operation], runtime: f64) -> Vec<PeriodicPattern> {
        let segments = segment(merged, runtime);
        match self.config.periodicity_method {
            PeriodicityMethod::MeanShift => detect_periodic(&segments, &self.config),
            PeriodicityMethod::Spectral => {
                crate::spectral::detect_periodic_spectral(&segments, runtime, &self.config)
            }
        }
    }
}

/// Insert the periodicity categories a direction's detected patterns imply.
fn insert_periodic_categories(
    tag: OpKindTag,
    periodic: &[PeriodicPattern],
    categories: &mut BTreeSet<Category>,
    busy_time_split: f64,
) {
    if !periodic.is_empty() {
        categories.insert(Category::Periodic { kind: tag });
        for p in periodic {
            categories.insert(Category::PeriodicMagnitude { kind: tag, magnitude: p.magnitude });
            if p.is_low_busy(busy_time_split) {
                categories.insert(Category::PeriodicLowBusyTime { kind: tag });
            } else {
                categories.insert(Category::PeriodicHighBusyTime { kind: tag });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{MetadataLabel, PeriodMagnitude, TemporalityLabel};
    use mosaic_darshan::ops::{MetaEvent, MetaKind};

    const MB: u64 = 1 << 20;

    fn op(kind: OpKind, start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind, start, end, bytes, ranks: 8 }
    }

    fn view(reads: Vec<Operation>, writes: Vec<Operation>, meta: Vec<MetaEvent>) -> OperationView {
        OperationView { runtime: 1000.0, nprocs: 8, reads, writes, meta }
    }

    fn categorizer() -> Categorizer {
        Categorizer::new(CategorizerConfig::default())
    }

    #[test]
    fn read_compute_write_pattern() {
        // The classic: read input on start, write result on end.
        let v = view(
            vec![op(OpKind::Read, 5.0, 30.0, 800 * MB)],
            vec![op(OpKind::Write, 950.0, 990.0, 500 * MB)],
            vec![],
        );
        let r = categorizer().categorize(&v);
        assert!(r.has(Category::Temporality {
            kind: OpKindTag::Read,
            label: TemporalityLabel::OnStart
        }));
        assert!(
            r.has(Category::Temporality { kind: OpKindTag::Write, label: TemporalityLabel::OnEnd })
        );
        assert!(r.has(Category::Metadata(MetadataLabel::InsignificantLoad)));
    }

    #[test]
    fn periodic_checkpointing_detected_with_final_write() {
        // Numerical simulation: checkpoints every ~100 s plus a final
        // result — the paper's introduction example ("periodic" and
        // "write on end" both).
        let mut writes: Vec<Operation> = (0..9)
            .map(|i| op(OpKind::Write, 50.0 + 100.0 * i as f64, 58.0 + 100.0 * i as f64, 300 * MB))
            .collect();
        writes.push(op(OpKind::Write, 995.0, 999.0, 64 * MB));
        let r = categorizer().categorize(&view(vec![], writes, vec![]));
        assert!(r.has(Category::Periodic { kind: OpKindTag::Write }));
        assert!(r.has(Category::PeriodicMagnitude {
            kind: OpKindTag::Write,
            magnitude: PeriodMagnitude::Minute
        }));
        assert!(r.has(Category::PeriodicLowBusyTime { kind: OpKindTag::Write }));
        // The 9th checkpoint's segment stretches to the final write, which
        // may fall just outside the cluster window; at least 8 of the 9
        // checkpoint segments must group.
        assert!(r.write.periodic[0].occurrences >= 8);
        assert!(r.has(Category::Temporality {
            kind: OpKindTag::Read,
            label: TemporalityLabel::Insignificant
        }));
    }

    #[test]
    fn insignificant_direction_has_no_periodicity() {
        // Tiny, regular writes: insignificant volume suppresses periodic
        // labels.
        let writes: Vec<Operation> = (0..10)
            .map(|i| op(OpKind::Write, 100.0 * i as f64, 100.0 * i as f64 + 1.0, MB))
            .collect();
        let r = categorizer().categorize(&view(vec![], writes, vec![]));
        assert!(!r.has(Category::Periodic { kind: OpKindTag::Write }));
        assert!(r.write.periodic.is_empty());
    }

    #[test]
    fn desynchronized_ranks_merge_before_detection() {
        // 8 ranks × 6 checkpoints, ranks staggered 0.2 s: raw 48 ops,
        // merged 6, periodic.
        let mut writes = Vec::new();
        for round in 0..6 {
            for rank in 0..8 {
                let t = 100.0 * round as f64 + rank as f64 * 0.2;
                writes.push(op(OpKind::Write, t, t + 4.0, 100 * MB));
            }
        }
        let r = categorizer().categorize(&view(vec![], writes, vec![]));
        assert_eq!(r.write.raw_ops, 48);
        assert_eq!(r.write.merged_ops, 6);
        assert!(r.has(Category::Periodic { kind: OpKindTag::Write }));
    }

    #[test]
    fn metadata_categories_flow_through() {
        let meta: Vec<MetaEvent> = (0..10)
            .map(|i| MetaEvent { time: 100.0 * i as f64, kind: MetaKind::Open, count: 300 })
            .collect();
        let r = categorizer().categorize(&view(vec![], vec![], meta));
        assert!(r.has(Category::Metadata(MetadataLabel::HighSpike)));
        assert!(r.has(Category::Metadata(MetadataLabel::MultipleSpikes)));
        assert_eq!(r.metadata.peak_rps, 300);
    }

    #[test]
    fn json_roundtrip() {
        let v = view(
            vec![op(OpKind::Read, 5.0, 30.0, 800 * MB)],
            vec![op(OpKind::Write, 950.0, 990.0, 500 * MB)],
            vec![MetaEvent { time: 1.0, kind: MetaKind::Open, count: 16 }],
        );
        let r = categorizer().categorize(&v);
        let json = r.to_json();
        let back = TraceReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert!(json.contains("read_on_start"));
    }

    #[test]
    fn empty_view_is_doubly_insignificant() {
        let r = categorizer().categorize(&view(vec![], vec![], vec![]));
        assert!(r.has(Category::Temporality {
            kind: OpKindTag::Read,
            label: TemporalityLabel::Insignificant
        }));
        assert!(r.has(Category::Temporality {
            kind: OpKindTag::Write,
            label: TemporalityLabel::Insignificant
        }));
        assert!(r.has(Category::Metadata(MetadataLabel::InsignificantLoad)));
        assert_eq!(r.categories.len(), 3);
    }

    #[test]
    fn category_names_are_exposed() {
        let v = view(vec![op(OpKind::Read, 5.0, 30.0, 800 * MB)], vec![], vec![]);
        let names = categorizer().categorize(&v).names();
        assert!(names.iter().any(|n| n == "read_on_start"));
        assert!(names.iter().any(|n| n == "write_insignificant"));
    }

    #[test]
    fn timed_variant_matches_untimed_and_splits_sanely() {
        let v = view(
            vec![op(OpKind::Read, 5.0, 30.0, 800 * MB)],
            vec![op(OpKind::Write, 950.0, 990.0, 500 * MB)],
            vec![],
        );
        let c = categorizer();
        let mut arena = columnar::TraceArena::default();
        arena.trace.load_view(&v);
        let (timed, t) = c.categorize_arena_timed(&mut arena);
        assert_eq!(timed, c.categorize(&v));
        assert!(t.total_nanos >= t.merge_nanos, "{t:?}");
    }

    #[test]
    fn arena_path_matches_view_path() {
        // Build a log whose reads are periodic and whose writes end-load,
        // load it into the arena both as a log (validate, delete, extract a
        // view) and as wire bytes, and demand identical reports — including
        // the periodicity sub-structure.
        use mosaic_darshan::counter::PosixCounter as C;
        use mosaic_darshan::counter::PosixFCounter as F;
        use mosaic_darshan::job::JobHeader;
        use mosaic_darshan::log::TraceLogBuilder;
        use mosaic_darshan::mdf;
        use mosaic_darshan::validate;
        use mosaic_darshan::view::{validate_view, TraceView};

        let mut b = TraceLogBuilder::new(JobHeader::new(9, 2, 8, 0, 1000).with_exe("/bin/sim"));
        for i in 0..9 {
            let r = b.begin_record(&format!("/ckpt{i}"), -1);
            b.record_mut(r)
                .set(C::Reads, 8)
                .set(C::BytesRead, (300 * MB) as i64)
                .set(C::Opens, 8)
                .set(C::Closes, 8)
                .setf(F::OpenStartTimestamp, 49.0 + 100.0 * i as f64)
                .setf(F::ReadStartTimestamp, 50.0 + 100.0 * i as f64)
                .setf(F::ReadEndTimestamp, 58.0 + 100.0 * i as f64)
                .setf(F::CloseEndTimestamp, 59.0 + 100.0 * i as f64);
        }
        let w = b.begin_record("/result", 0);
        b.record_mut(w)
            .set(C::Writes, 64)
            .set(C::BytesWritten, (500 * MB) as i64)
            .setf(F::WriteStartTimestamp, 950.0)
            .setf(F::WriteEndTimestamp, 990.0);
        let bad = b.begin_record("/corrupt", 0);
        b.record_mut(bad).set(C::BytesRead, -1);
        let log = b.finish();
        let bytes = mdf::to_bytes(&log);

        // Log input.
        let report = validate::validate(&log);
        let mut sanitized = log.clone();
        validate::delete_invalid(&mut sanitized, &report);
        let from_log = categorizer().categorize_log(&sanitized);

        // Byte input.
        let tv = TraceView::parse(&bytes).unwrap();
        let mut arena = columnar::TraceArena::default();
        arena.trace.load(&tv, &validate_view(&tv));
        let (columnar_report, t) = categorizer().categorize_arena_timed(&mut arena);

        assert_eq!(columnar_report, from_log);
        assert!(columnar_report.has(Category::Periodic { kind: OpKindTag::Read }));
        assert!(t.total_nanos >= t.merge_nanos, "{t:?}");

        // And again on the same arena: reuse must not perturb results.
        let tv = TraceView::parse(&bytes).unwrap();
        arena.trace.load(&tv, &validate_view(&tv));
        let (again, _) = categorizer().categorize_arena_timed(&mut arena);
        assert_eq!(again, from_log);
    }

    #[test]
    fn categorize_log_matches_categorize_view() {
        use mosaic_darshan::counter::PosixCounter as C;
        use mosaic_darshan::counter::PosixFCounter as F;
        use mosaic_darshan::job::JobHeader;
        use mosaic_darshan::log::TraceLogBuilder;
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 8, 0, 1000));
        let h = b.begin_record("/in", -1);
        b.record_mut(h)
            .set(C::Reads, 8)
            .set(C::BytesRead, (800 * MB) as i64)
            .set(C::Opens, 8)
            .setf(F::OpenStartTimestamp, 4.0)
            .setf(F::ReadStartTimestamp, 5.0)
            .setf(F::ReadEndTimestamp, 30.0);
        let log = b.finish();
        let a = categorizer().categorize_log(&log);
        let b = categorizer().categorize(&OperationView::from_log(&log));
        assert_eq!(a, b);
    }
}
