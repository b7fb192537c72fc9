//! `mosaic` — command-line front end for the MOSAIC reproduction.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic Blue Waters-like dataset as `.mdf`
//!   files (plus a `truth.jsonl` sidecar);
//! * `categorize` — run MOSAIC on `.mdf` files and print one JSON report
//!   per trace;
//! * `analyze` — run the full pipeline on an in-memory dataset and print
//!   the funnel, the category distribution tables, and the Jaccard matrix;
//! * `stability`, `discover` — per-application stability (§III-B1) and
//!   category discovery (§V) over a generated dataset;
//! * `watch` — incremental analysis of a growing directory;
//! * `verify` — the differential, metamorphic and golden conformance checks.
//!
//! The scorecard's protocols (§IV-E accuracy, interference, every ablation)
//! run only in `reproduce`; `reproduce --seed S` measures them at another
//! seed.
//!
//! Run `mosaic help` for usage.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "CLI presentation: timings and lookup tables never reach a ResultSnapshot digest"
)]

use mosaic_core::CategorizerConfig;
use mosaic_pipeline::executor::{process, PipelineConfig};
use mosaic_pipeline::source::{ClosureSource, TraceInput};
use mosaic_synth::{Dataset, DatasetConfig, Payload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", &args[..]),
    };
    match dispatch(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mosaic: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Run the subcommand `cmd` with its arguments `rest`.
fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    match cmd {
        "generate" => generate(rest),
        "categorize" => categorize(rest),
        // `run` is the production-flavoured alias for `analyze`.
        "analyze" | "run" => analyze(rest),
        "stability" => stability(rest),
        "discover" => discover_cmd(rest),
        "watch" => watch(rest),
        "verify" => verify(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}; see `mosaic help`")),
    }
}

const USAGE: &str = "\
mosaic — detection and categorization of I/O patterns in HPC traces

USAGE:
  mosaic generate  --out DIR [--n N] [--seed S] [--corruption F]
  mosaic categorize FILE.mdf|FILE.txt [...]
  mosaic analyze   [--n N | --dir DIR] [--seed S] [--threads T] [--json]
                   [--metrics FILE] [--markdown FILE] [--progress]
                   [--trace-out FILE.json] [--trace-md FILE.md]
                   [--trace-capacity N]
                   [--metrics-out FILE] [--metrics-format prom|json]
                                                        (alias: mosaic run)
  mosaic stability [--n N] [--seed S] [--min-runs R]
  mosaic discover  [--n N] [--seed S] [--k K]
  mosaic watch     --dir DIR [--interval SECS] [--rounds R]
  mosaic verify    [--all | --differential --metamorphic --golden]
                   [--bless] [--golden-dir DIR] [--json]
  mosaic help

SUBCOMMANDS:
  generate      write a synthetic dataset as .mdf files (+ truth.jsonl)
  categorize    run MOSAIC on .mdf files, one JSON report per trace
  analyze       funnel + category tables + Jaccard heatmap (alias: run)
  stability     per-application categorization stability (§III-B1)
  discover      automatic category discovery by clustering (§V future work)
  watch         incrementally analyze a growing directory of .mdf files
  verify        differential / metamorphic / golden-snapshot conformance

OPTIONS:
  --n N            dataset size in traces          (default 10000)
  --seed S         RNG seed                        (default 42)
  --corruption F   corrupted-trace fraction        (default 0.32)
  --threads T      worker threads                  (default: all cores)
  --out DIR        output directory for generate
  --dir DIR        analyze .mdf files from a directory instead of generating
  --json           machine-readable analyze output
  --markdown FILE  write the analysis as a Markdown document
  --metrics FILE   dump per-stage timings, throughput and the typed funnel
                   breakdown as JSON
  --progress       live stderr line: traces/s, per-stage EWMA, evictions
  --trace-out FILE write a Chrome trace-event JSON span timeline (open in
                   Perfetto or chrome://tracing; one track per worker)
  --trace-md FILE  write the slowest-traces-per-stage table as Markdown
  --trace-capacity N
                   span ring size for --trace-out/--trace-md; older spans
                   beyond it are dropped and counted  (default 65536)
  --metrics-out FILE
                   write the run's metrics registry (sketch-backed stage
                   latency summaries, stage bytes, gauges, eviction
                   reasons, per-worker utilization) after the run
  --metrics-format F
                   exposition format for --metrics-out: `prom`
                   (Prometheus/OpenMetrics text, the default) or `json`
  --all            verify: run every suite (the default when none is named)
  --differential   verify: serial/parallel, MDF roundtrip, traced/untraced,
                   and columnar, Mean Shift and metadata vs their references
  --metamorphic    verify: time-shift/scale, permutation, corrupt-monotone
  --golden         verify: compare against committed tests/golden snapshots
  --bless          verify: regenerate the golden snapshots instead of checking
  --golden-dir DIR verify: override the golden snapshot directory
";

/// Tiny flag parser: `--key value` pairs only.
fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if matches!(
                key,
                "json" | "all" | "differential" | "metamorphic" | "golden" | "bless" | "progress"
            ) {
                flags.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_owned(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((flags, positional))
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        None => Ok(default),
    }
}

fn dataset_from(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let config = DatasetConfig {
        n_traces: flag(flags, "n", 10_000usize)?,
        corruption_rate: flag(flags, "corruption", 0.32f64)?,
        seed: flag(flags, "seed", 42u64)?,
    };
    Ok(Dataset::new(config))
}

fn generate(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let out = PathBuf::from(flags.get("out").ok_or("generate requires --out DIR")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out:?}: {e}"))?;
    let ds = dataset_from(&flags)?;
    let mut truth_lines = String::new();
    for i in 0..ds.len() {
        let run = ds.generate(i);
        let bytes = match &run.payload {
            Payload::Log(log) => mosaic_darshan::mdf::to_bytes(log),
            Payload::Bytes(b) => b.clone(),
        };
        let path = out.join(format!("trace_{i:07}.mdf"));
        std::fs::write(&path, bytes).map_err(|e| format!("writing {path:?}: {e}"))?;
        if let Some(truth) = &run.truth {
            truth_lines.push_str(&format!(
                "{{\"index\":{i},\"truth\":{}}}\n",
                serde_json::to_string(truth).expect("truth serializes")
            ));
        }
    }
    std::fs::write(out.join("truth.jsonl"), truth_lines)
        .map_err(|e| format!("writing truth.jsonl: {e}"))?;
    eprintln!("wrote {} traces to {}", ds.len(), out.display());
    Ok(())
}

fn categorize(args: &[String]) -> Result<(), String> {
    let (_, files) = parse_flags(args)?;
    if files.is_empty() {
        return Err("categorize requires at least one .mdf file".into());
    }
    let categorizer = mosaic_core::Categorizer::new(CategorizerConfig::default());
    for file in &files {
        let bytes = std::fs::read(Path::new(file)).map_err(|e| format!("reading {file}: {e}"))?;
        // .txt files are darshan-parser-style text dumps; everything else is
        // binary MDF.
        let parsed = if file.ends_with(".txt") {
            String::from_utf8(bytes)
                .map_err(|_| "invalid UTF-8".to_owned())
                .and_then(|text| mosaic_darshan::text::parse(&text).map_err(|e| e.to_string()))
        } else {
            mosaic_darshan::mdf::from_bytes(&bytes).map_err(|e| e.to_string())
        };
        let mut log = match parsed {
            Ok(log) => log,
            Err(e) => {
                eprintln!("{file}: corrupted ({e}) — evicted");
                continue;
            }
        };
        match mosaic_darshan::validate::sanitize(&mut log) {
            Ok(_) => {}
            Err(_) => {
                eprintln!("{file}: fatally invalid — evicted");
                continue;
            }
        }
        let report = categorizer.categorize_log(&log);
        println!("{}", report.to_json());
    }
    Ok(())
}

/// Exposition format for `--metrics-out`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    /// Prometheus/OpenMetrics text (the default).
    Prom,
    /// Byte-stable pretty JSON.
    Json,
}

fn analyze(args: &[String]) -> Result<(), String> {
    use std::io::Write as _;

    let (flags, _) = parse_flags(args)?;
    let threads: usize = flag(&flags, "threads", 0usize)?;
    // --trace-out / --trace-md turn on structured span tracing; the ring
    // capacity bounds timeline memory (spans beyond it are counted, not kept).
    let trace_out = flags.get("trace-out").cloned();
    let trace_md = flags.get("trace-md").cloned();
    let tracing = trace_out.is_some() || trace_md.is_some();
    let trace_capacity: usize = flag(&flags, "trace-capacity", 65_536usize)?;
    let progress_on = flags.contains_key("progress");
    // --metrics-out writes the run's registry export; the format is
    // validated up front so a bad flag fails before a long run, not after.
    let metrics_out = flags.get("metrics-out").cloned();
    let metrics_format = match flags.get("metrics-format").map(String::as_str) {
        None | Some("prom") => MetricsFormat::Prom,
        Some("json") => MetricsFormat::Json,
        Some(other) => return Err(format!("--metrics-format must be prom or json, got {other:?}")),
    };
    let config = PipelineConfig {
        threads: if threads == 0 { None } else { Some(threads) },
        categorizer: CategorizerConfig::default(),
        progress: progress_on.then(|| {
            let line = mosaic_obs::ProgressLine::new(std::time::Duration::from_millis(200));
            std::sync::Arc::new(
                move |done: usize, total: usize, recorder: &mosaic_obs::Recorder| {
                    if let Some(rendered) = line.tick(done, total, recorder) {
                        eprint!("\r{rendered}");
                        let _ = std::io::stderr().flush();
                    }
                },
            ) as mosaic_pipeline::executor::ProgressFn
        }),
        trace_capacity: tracing.then_some(trace_capacity),
    };
    let started = std::time::Instant::now();
    let result = if let Some(dir) = flags.get("dir") {
        // Ingest .mdf files from disk — the production path.
        let source = mosaic_pipeline::source::DirSource::scan(Path::new(dir))
            .map_err(|e| format!("scanning {dir}: {e}"))?;
        if source.paths().is_empty() {
            return Err(format!("no .mdf files found in {dir}"));
        }
        process(&source, &config)
    } else {
        let ds = dataset_from(&flags)?;
        let source = ClosureSource::new(ds.len(), |i| match ds.generate(i).payload {
            Payload::Log(log) => TraceInput::log(log),
            Payload::Bytes(bytes) => TraceInput::bytes(bytes),
        });
        process(&source, &config)
    };
    let elapsed = started.elapsed();
    if progress_on {
        eprintln!(); // finish the \r-redrawn progress line
    }

    if let Some(timeline) = &result.timeline {
        if let Some(path) = &trace_out {
            std::fs::write(Path::new(path), timeline.to_chrome_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {path} ({} spans kept, {} dropped) — open in https://ui.perfetto.dev",
                timeline.events.len(),
                timeline.dropped
            );
        }
        if let Some(path) = &trace_md {
            std::fs::write(Path::new(path), timeline.render_slow_md())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }

    if let (Some(path), Some(registry)) = (&metrics_out, &result.registry) {
        let rendered = match metrics_format {
            MetricsFormat::Prom => registry.to_openmetrics(),
            MetricsFormat::Json => registry.to_json(),
        };
        std::fs::write(Path::new(path), rendered).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} metric families)", registry.families.len());
    }

    if let Some(metrics_path) = flags.get("metrics") {
        let doc = serde_json::json!({
            "funnel": result.funnel,
            "metrics": result.metrics,
        });
        std::fs::write(
            Path::new(metrics_path),
            serde_json::to_string_pretty(&doc).expect("metrics json"),
        )
        .map_err(|e| format!("writing {metrics_path}: {e}"))?;
        eprintln!("wrote {metrics_path}");
    }
    if let Some(md_path) = flags.get("markdown") {
        let md = mosaic_pipeline::report_md::render(&result, "MOSAIC analysis");
        std::fs::write(Path::new(md_path), md).map_err(|e| format!("writing {md_path}: {e}"))?;
        eprintln!("wrote {md_path}");
        return Ok(());
    }
    if flags.contains_key("json") {
        let doc = serde_json::json!({
            "funnel": result.funnel,
            "metrics": result.metrics,
            "single_run": result.single_run_counts(),
            "all_runs": result.all_runs_counts(),
            "elapsed_seconds": elapsed.as_secs_f64(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("json"));
        return Ok(());
    }

    println!("== Pre-processing funnel (cf. Fig 3) ==");
    println!("{}", result.funnel.render());
    println!();
    println!("{}", result.single_run_counts().render_table("== Single-run categories =="));
    println!("{}", result.all_runs_counts().render_table("== All-runs categories =="));
    println!("== Jaccard matrix, single-run set (cf. Fig 5) ==");
    println!("{}", result.jaccard_single_run().render_text());
    println!("== Pipeline stage metrics ==");
    println!("{}", result.metrics.render_table());
    if let Some(timeline) = &result.timeline {
        println!("{}", timeline.render_slow_md());
    }
    println!(
        "processed {} traces in {:.2}s ({:.0} traces/s)",
        result.funnel.total,
        elapsed.as_secs_f64(),
        result.funnel.total as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    Ok(())
}

fn pipeline_over(
    flags: &HashMap<String, String>,
) -> Result<mosaic_pipeline::PipelineResult, String> {
    let ds = dataset_from(flags)?;
    let source = ClosureSource::new(ds.len(), move |i| match ds.generate(i).payload {
        Payload::Log(log) => TraceInput::log(log),
        Payload::Bytes(bytes) => TraceInput::bytes(bytes),
    });
    Ok(process(&source, &PipelineConfig::default()))
}

fn stability(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let min_runs: usize = flag(&flags, "min-runs", 10)?;
    let result = pipeline_over(&flags)?;
    let stats = mosaic_pipeline::stability::app_stability(&result.outcomes, min_runs);
    println!(
        "per-application categorization stability ({} apps with >= {min_runs} runs):",
        stats.len()
    );
    for s in stats.iter().take(20) {
        println!(
            "  {:>6.1}%  {} (uid {}, {} runs) — modal categories: {}",
            100.0 * s.stability(),
            s.app.1,
            s.app.0,
            s.runs,
            s.modal_categories.iter().map(|c| c.name()).collect::<Vec<_>>().join(", "),
        );
    }
    println!(
        "run-weighted mean stability: {:.1}%",
        100.0 * mosaic_pipeline::stability::mean_stability(&stats)
    );
    Ok(())
}

fn discover_cmd(args: &[String]) -> Result<(), String> {
    use rand::SeedableRng;
    let (flags, _) = parse_flags(args)?;
    let k: usize = flag(&flags, "k", 8)?;
    let seed: u64 = flag(&flags, "seed", 42)?;
    let result = pipeline_over(&flags)?;
    let reports: Vec<_> = result.representatives().map(|o| o.report.clone()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let clustering = mosaic_core::discovery::discover(&reports, k, &mut rng);
    let labels: Vec<String> = reports.iter().map(mosaic_core::discovery::reference_label).collect();
    println!(
        "discovered {k} clusters over {} traces; purity vs hand categories: {:.1}%\n",
        reports.len(),
        100.0 * mosaic_core::discovery::purity(&clustering, &labels)
    );
    for profile in mosaic_core::discovery::profiles(&reports, &clustering, 0.6) {
        let cats: Vec<String> = profile
            .dominant
            .iter()
            .map(|(c, f)| format!("{} {:.0}%", c.name(), 100.0 * f))
            .collect();
        println!(
            "  cluster {:>2} ({:>5} traces): {}",
            profile.cluster,
            profile.size,
            cats.join(", ")
        );
    }
    Ok(())
}

/// Watch a directory of .mdf logs (the live-monitoring deployment): poll,
/// ingest new files incrementally, and print the updated statistics after
/// each round. `--rounds 1` (the default) makes it a one-shot incremental
/// scan suitable for cron.
fn watch(args: &[String]) -> Result<(), String> {
    use mosaic_pipeline::incremental::IncrementalAnalyzer;
    use mosaic_pipeline::source::{DirSource, TraceSource};

    let (flags, _) = parse_flags(args)?;
    let dir = PathBuf::from(flags.get("dir").ok_or("watch requires --dir DIR")?);
    let interval: u64 = flag(&flags, "interval", 5)?;
    let rounds: usize = flag(&flags, "rounds", 1)?;

    let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
    let mut seen: std::collections::BTreeSet<PathBuf> = Default::default();

    for round in 0..rounds {
        let source = DirSource::scan(&dir).map_err(|e| format!("scanning {dir:?}: {e}"))?;
        let mut new_files = 0usize;
        for (i, path) in source.paths().iter().enumerate() {
            if seen.insert(path.clone()) {
                // An unreadable file is accounted as an io_error eviction.
                analyzer.ingest_fetched(source.fetch(i));
                new_files += 1;
            }
        }
        let f = analyzer.funnel();
        eprintln!(
            "round {}: +{} files (total {}: {} valid, {} evicted of which {} io-errors, {} apps)",
            round + 1,
            new_files,
            f.total,
            f.valid,
            f.evicted(),
            f.io_error,
            f.unique_apps,
        );
        if round + 1 < rounds {
            std::thread::sleep(std::time::Duration::from_secs(interval));
        }
    }

    println!("{}", analyzer.single_run_counts().render_table("single-run categories"));
    println!("{}", analyzer.all_runs_counts().render_table("all-runs categories"));
    Ok(())
}

/// Run the conformance harness: differential oracles, metamorphic
/// invariants, and the golden-snapshot suite. Naming any suite flag runs
/// only the named suites; `--all` (or no suite flag) runs everything.
/// Exits nonzero when any check fails, so CI can gate on it directly.
fn verify(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let named =
        ["differential", "metamorphic", "golden"].iter().any(|suite| flags.contains_key(*suite));
    let everything = flags.contains_key("all") || !named;
    let options = mosaic_verify::VerifyOptions {
        differential: everything || flags.contains_key("differential"),
        metamorphic: everything || flags.contains_key("metamorphic"),
        golden: everything || flags.contains_key("golden"),
        bless: flags.contains_key("bless"),
        golden_dir: flags
            .get("golden-dir")
            .map(PathBuf::from)
            .unwrap_or_else(mosaic_verify::golden::default_dir),
    };

    let report = mosaic_verify::run(&options);
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} conformance check(s) failed", report.failures().len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_handles_pairs_and_positionals() {
        let args: Vec<String> =
            ["--n", "50", "file.mdf", "--seed", "7"].iter().map(|s| s.to_string()).collect();
        let (flags, pos) = parse_flags(&args).unwrap();
        assert_eq!(flags.get("n").unwrap(), "50");
        assert_eq!(flags.get("seed").unwrap(), "7");
        assert_eq!(pos, vec!["file.mdf".to_string()]);
    }

    #[test]
    fn parse_flags_rejects_dangling_key() {
        let args = vec!["--n".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn typed_flag_defaults_and_errors() {
        let (flags, _) = parse_flags(&["--n".to_string(), "12".to_string()]).unwrap();
        assert_eq!(flag(&flags, "n", 5usize).unwrap(), 12);
        assert_eq!(flag(&flags, "missing", 5usize).unwrap(), 5);
        let (flags, _) = parse_flags(&["--n".to_string(), "xyz".to_string()]).unwrap();
        assert!(flag(&flags, "n", 5usize).is_err());
    }

    #[test]
    fn unlisted_subcommands_are_refused_before_reading_flags() {
        for cmd in ["render", "figures", "evaluate", "interference", "diff", "bogus"] {
            let err = dispatch(cmd, &["--out".to_string(), "x.svg".to_string()]).unwrap_err();
            assert_eq!(err, format!("unknown subcommand {cmd:?}; see `mosaic help`"));
            assert!(!USAGE.contains(&format!("mosaic {cmd}")), "USAGE lists {cmd}");
        }
    }

    #[test]
    fn json_flag_is_boolean() {
        let (flags, _) = parse_flags(&["--json".to_string()]).unwrap();
        assert_eq!(flags.get("json").unwrap(), "true");
    }
}
