//! The benchmark's contract: every `mosaic_*` path that `perfbench/src`
//! names, used here the way perfbench uses it.
//!
//! perfbench builds against these crates by path and is frozen: it is not
//! edited alongside them. The `use` lines below name each path its sources
//! name (their `use` lines and doc links), and the tests call each item as
//! perfbench does. Deleting or reshaping one of them therefore fails this
//! file's build, and `PipelineResult` and `RunOutcome` are built by struct
//! literal, as perfbench's traced replay builds them, so a new field fails
//! it too. `perfbench_names_only_paths_this_file_names` reads perfbench's
//! sources and fails when they name a path that these `use` lines do not.

use mosaic_clustering::meanshift::MeanShift;
use mosaic_core::categorize::DirectionReport;
use mosaic_core::category::{Category, OpKindTag, PeriodMagnitude, TemporalityLabel};
use mosaic_core::columnar::{merge_all_columnar, MergeScratch, OpColumns, TraceArena};
use mosaic_core::merge::merge_all;
use mosaic_core::periodicity::detect_periodic;
use mosaic_core::segment::{segment, Segment};
use mosaic_core::{metadata, temporality};
use mosaic_core::{Categorizer, CategorizerConfig, PeriodicityMethod, TraceReport};
use mosaic_darshan::counter::PosixCounter as C;
use mosaic_darshan::counter::PosixFCounter as F;
use mosaic_darshan::record::SHARED_RANK;
use mosaic_darshan::validate::validate;
use mosaic_darshan::view::validate_view;
use mosaic_darshan::{mdf, JobHeader, OpKind, OperationView, TraceLog, TraceLogBuilder};
use mosaic_darshan::{EvictReason, TraceView};
use mosaic_obs::Recorder;
use mosaic_pipeline::dedup::heaviest_per_app;
use mosaic_pipeline::{
    process, report_md, DirSource, FunnelStats, IncrementalAnalyzer, PipelineConfig,
    PipelineResult, RunOutcome, TraceInput, TraceSource,
};
use mosaic_synth::{Dataset, DatasetConfig, GroundTruth, Payload};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A 12-operation checkpoint writer, built record by record as perfbench's
/// dense corpus builds its traces.
fn checkpoint_writer() -> TraceLog {
    let header = JobHeader::new(7, 3000, 16, 1_500_000_000, 1_500_007_200)
        .with_exe("/sw/dense/app0 --case 7".to_owned());
    let mut b = TraceLogBuilder::new(header);
    for k in 0..12 {
        let start = 600.0 * (k as f64 + 0.3);
        let end = start + 20.0;
        let h = b.begin_record(&format!("/scratch/dense/m{k}"), SHARED_RANK);
        b.record_mut(h)
            .set(C::Opens, 16)
            .set(C::Closes, 16)
            .setf(F::OpenStartTimestamp, start)
            .setf(F::CloseEndTimestamp, end)
            .set(C::Writes, 128)
            .set(C::BytesWritten, 1 << 30)
            .setf(F::WriteStartTimestamp, start)
            .setf(F::WriteEndTimestamp, end);
    }
    b.finish()
}

/// One direction of the categorizer, layer by layer, as perfbench's traced
/// replay runs it.
fn replay_direction(
    raw: &OpColumns,
    runtime: f64,
    kind: OpKind,
    config: &CategorizerConfig,
    scratch: &mut MergeScratch,
    categories: &mut BTreeSet<Category>,
    multi_clusters: &mut usize,
) -> DirectionReport {
    let tag = OpKindTag::from(kind);
    merge_all_columnar(raw, runtime, config, scratch);
    let temporality = temporality::characterize_columnar(&scratch.merged, runtime, config);
    categories.insert(Category::Temporality { kind: tag, label: temporality.label });
    let mut periodic = Vec::new();
    if temporality.label != TemporalityLabel::Insignificant {
        scratch.merged.materialize(kind, &mut scratch.ops);
        let segments: Vec<Segment> = segment(&scratch.ops, runtime);
        if segments.len() >= config.min_periodic_occurrences {
            let features: Vec<[f64; 2]> = segments
                .iter()
                .map(|s| [(1.0 + s.op_duration.max(0.0)).log10(), (1.0 + s.bytes as f64).log10()])
                .collect();
            let clustering = MeanShift::new(config.meanshift_bandwidth).fit(&features);
            *multi_clusters += clustering.clusters().filter(|(_, m)| m.len() >= 2).count();
        }
        periodic = detect_periodic(&segments, config);
    }
    if !periodic.is_empty() {
        categories.insert(Category::Periodic { kind: tag });
        for p in &periodic {
            categories.insert(Category::PeriodicMagnitude { kind: tag, magnitude: p.magnitude });
            categories.insert(if p.is_low_busy(config.busy_time_split) {
                Category::PeriodicLowBusyTime { kind: tag }
            } else {
                Category::PeriodicHighBusyTime { kind: tag }
            });
        }
    }
    DirectionReport { merged_ops: scratch.merged.len(), raw_ops: raw.len(), temporality, periodic }
}

/// The categorizer on a loaded arena, layer by layer; counts the Mean Shift
/// clusters of two or more segments in `multi_clusters`.
fn replay_categorize(
    arena: &mut TraceArena,
    config: &CategorizerConfig,
    multi_clusters: &mut usize,
) -> TraceReport {
    let TraceArena { trace, scratch } = arena;
    let mut categories = BTreeSet::new();
    let (runtime, nprocs) = (trace.runtime, trace.nprocs);
    let c = &mut categories;
    let read =
        replay_direction(&trace.reads, runtime, OpKind::Read, config, scratch, c, multi_clusters);
    let write =
        replay_direction(&trace.writes, runtime, OpKind::Write, config, scratch, c, multi_clusters);
    let metadata = metadata::characterize(&trace.meta, runtime, nprocs, config);
    categories.extend(metadata.labels.iter().map(|&l| Category::Metadata(l)));
    TraceReport { categories, read, write, metadata, runtime, nprocs }
}

/// A scratch corpus directory of `.mdf` files, removed on drop.
struct Corpus(PathBuf);

impl Corpus {
    fn new(name: &str, traces: &[Vec<u8>]) -> Corpus {
        let dir =
            std::env::temp_dir().join(format!("perfbench-contract-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("corpus directory");
        for (i, bytes) in traces.iter().enumerate() {
            std::fs::write(dir.join(format!("trace_{i:07}.mdf")), bytes).expect("corpus file");
        }
        Corpus(dir)
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first traces of a small synthetic year, as MDF bytes, with their
/// ground truth where the trace is valid.
fn blue_waters(n: usize) -> Vec<(Vec<u8>, Option<GroundTruth>)> {
    let ds = Dataset::new(DatasetConfig { n_traces: n, corruption_rate: 0.32, seed: 1 });
    (0..ds.len())
        .map(|i| {
            let run = ds.generate(i);
            match run.payload {
                Payload::Bytes(bytes) => (bytes, None),
                Payload::Log(log) => (mdf::to_bytes(&log), run.truth),
            }
        })
        .collect()
}

#[test]
fn the_traced_replay_builds_a_result_by_struct_literal() {
    let mut traces: Vec<Vec<u8>> = blue_waters(40).into_iter().map(|(bytes, _)| bytes).collect();
    traces.push(mdf::to_bytes(&checkpoint_writer()));
    let corpus = Corpus::new("replay", &traces);
    let categorizer = Categorizer::new(CategorizerConfig::default());
    let config = categorizer.config();
    assert_eq!(config.periodicity_method, PeriodicityMethod::MeanShift);

    let source = DirSource::scan(&corpus.0).expect("scan");
    let mut arena = TraceArena::default();
    let mut funnel = FunnelStats { total: source.len(), ..Default::default() };
    let mut outcomes = Vec::new();
    let mut multi_clusters = 0;
    for i in 0..source.len() {
        let bytes = match source.fetch(i) {
            Ok(TraceInput::Bytes(bytes)) => bytes,
            Ok(TraceInput::Log(_)) | Err(_) => {
                funnel.record_eviction(EvictReason::IoError);
                continue;
            }
        };
        let view = match TraceView::parse(&bytes) {
            Ok(view) => view,
            Err(err) => {
                funnel.record_eviction(EvictReason::from(&err));
                continue;
            }
        };
        let validity = validate_view(&view);
        if validity.is_fatal() {
            funnel.record_eviction(validity.evict_reason());
            continue;
        }
        arena.trace.load(&view, &validity);
        assert!(arena.resident_bytes() > 0);
        let report = replay_categorize(&mut arena, config, &mut multi_clusters);
        let (expected, _) = categorizer.categorize_arena_timed(&mut arena);
        assert_eq!(expected, report, "trace {i}");
        outcomes.push(RunOutcome {
            index: i,
            app_key: view.app_key(),
            weight: arena.trace.weight,
            sanitized_records: validity.record_errors.len(),
            start_time: view.start_time,
            end_time: view.end_time,
            report,
        });
    }
    funnel.valid = outcomes.len();
    assert!(multi_clusters > 0, "no Mean Shift fit found a periodic cluster");
    let representatives = heaviest_per_app(outcomes.iter().map(|o| (o.app_key.clone(), o.weight)));
    funnel.unique_apps = representatives.len();
    let metrics = Recorder::new().finish(funnel.total as u64, 1);
    let replayed = PipelineResult {
        funnel,
        outcomes,
        representatives,
        metrics,
        timeline: None,
        registry: None,
    };
    let checkpointer = replayed.outcomes.last().expect("the checkpointer is valid");
    assert!(checkpointer.report.categories.contains(&Category::PeriodicMagnitude {
        kind: OpKindTag::Write,
        magnitude: PeriodMagnitude::of(600.0),
    }));

    let reference = process(&source, &PipelineConfig { threads: Some(1), ..Default::default() });
    assert_eq!(replayed.funnel.valid, reference.funnel.valid);
    assert_eq!(replayed.single_run_counts(), reference.single_run_counts());
    let title = "contract";
    assert!(report_md::render(&replayed, title).contains(title));
}

/// A source that forwards to another, as perfbench's timestamping source
/// does.
struct Forwarding<'a>(&'a DirSource);

impl TraceSource for Forwarding<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&self, i: usize) -> std::io::Result<TraceInput> {
        self.0.fetch(i)
    }
}

#[test]
fn the_batch_and_streaming_passes_agree_with_the_ground_truth_gate() {
    let traces = blue_waters(60);
    let bytes: Vec<Vec<u8>> = traces.iter().map(|(bytes, _)| bytes.clone()).collect();
    let corpus = Corpus::new("passes", &bytes);
    let source = DirSource::scan(&corpus.0).expect("scan");
    let result =
        process(&Forwarding(&source), &PipelineConfig { threads: Some(2), ..Default::default() });
    let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
    for i in 0..source.len() {
        let input = source.fetch(i).expect("fetch");
        let _ = analyzer.ingest(input.clone());
    }
    assert_eq!(analyzer.single_run_counts(), result.single_run_counts());
    assert_eq!(analyzer.all_runs_counts(), &result.all_runs_counts());
    assert_eq!(analyzer.funnel().io_error, result.funnel.io_error);
    assert!(!analyzer.apps().is_empty());
    for outcome in &result.outcomes {
        let truth = traces[outcome.index].1.as_ref().expect("a valid trace has ground truth");
        let _ = truth.matches(&outcome.report);
    }
}

#[test]
fn the_corpus_checks_decode_validate_and_merge_a_log() {
    let log = checkpoint_writer();
    let decoded = mdf::from_bytes(&mdf::to_bytes(&log)).expect("decodes");
    assert_eq!(decoded.records().len(), 12);
    assert!(validate(&decoded).is_clean());
    let view = OperationView::from_log(&decoded);
    let config = CategorizerConfig::default();
    assert!(!merge_all(&view.writes, view.runtime, &config).is_empty());
}

/// Every `mosaic_*` path named in `source`: use groups are expanded
/// (`a::{b, c::d}` names `a::b` and `a::c::d`) and renames dropped.
fn mosaic_paths(source: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut rest = source;
    while let Some(at) = rest.find("mosaic_") {
        let boundary = rest[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let (path, tail) = take_path(&rest[at..]);
        if boundary {
            expand("", &path, &mut found);
        }
        rest = tail;
    }
    found
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The path at the start of `s` (identifiers joined by `::`, with brace
/// groups kept whole) and what follows it.
fn take_path(s: &str) -> (String, &str) {
    let mut end = 0;
    let bytes = s.as_bytes();
    loop {
        while end < s.len() && is_ident(char::from(bytes[end])) {
            end += 1;
        }
        if !s[end..].starts_with("::") {
            break;
        }
        end += 2;
        if s[end..].starts_with('{') {
            let mut depth = 0;
            for (i, c) in s[end..].char_indices() {
                depth += match c {
                    '{' => 1,
                    '}' => -1,
                    _ => 0,
                };
                if depth == 0 {
                    end += i + 1;
                    break;
                }
            }
            break;
        }
    }
    (s[..end].to_owned(), &s[end..])
}

/// The top-level `use` declarations of `source`, one or more lines each.
fn use_declarations(source: &str) -> String {
    let mut out = String::new();
    let mut open = false;
    for line in source.lines() {
        open |= line.starts_with("use ");
        if open {
            out.push_str(line);
            out.push('\n');
            open = !line.trim_end().ends_with(';');
        }
    }
    out
}

/// Add `prefix` + `path` to `found`, expanding a trailing use group.
fn expand(prefix: &str, path: &str, found: &mut BTreeSet<String>) {
    let Some((head, group)) = path.split_once("::{") else {
        let renamed = path.split(" as ").next().unwrap_or_default();
        found.insert(format!("{prefix}{}", renamed.trim()));
        return;
    };
    let group = group.strip_suffix('}').unwrap_or(group);
    let prefix = format!("{prefix}{head}::");
    let (mut depth, mut start) = (0, 0);
    for (i, c) in group.char_indices().chain([(group.len(), ',')]) {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                let item = group[start..i].trim();
                if !item.is_empty() {
                    expand(&prefix, item, found);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
}

#[test]
fn the_path_reader_expands_groups_and_drops_renames() {
    let source = "use mosaic_a::{b, c::{d, e as f}};\nuse mosaic_g::H as I;\n/// [`mosaic_j::K`]\nlet x_mosaic_l = 1;";
    let found: Vec<String> = mosaic_paths(source).into_iter().collect();
    assert_eq!(
        found,
        ["mosaic_a::b", "mosaic_a::c::d", "mosaic_a::c::e", "mosaic_g::H", "mosaic_j::K"]
    );
}

#[test]
fn perfbench_names_only_paths_this_file_names() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let listed = mosaic_paths(&use_declarations(include_str!("perfbench_contract.rs")));
    assert!(listed.contains("mosaic_pipeline::PipelineResult"), "the multi-line group is read");
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("perfbench/src"))
        .expect("perfbench/src")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "perfbench/src holds {} files", files.len());
    let mut named = BTreeSet::new();
    for file in &files {
        named.extend(mosaic_paths(&std::fs::read_to_string(file).expect("readable")));
    }
    assert!(named.len() >= 40, "only {} paths found in perfbench/src", named.len());
    let unlisted: Vec<&String> = named.difference(&listed).collect();
    assert!(unlisted.is_empty(), "perfbench names paths this contract does not: {unlisted:?}");
}
