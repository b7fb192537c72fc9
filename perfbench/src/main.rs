//! End-to-end and per-layer benchmark of the Mosaic pipeline.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bluewaters_dir --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates the workload's corpus from `--seed` into a scratch
//! directory under the working directory, measures for `--seconds`, gates
//! the outputs, prints every metric by name with its unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` gives the end-to-end metrics of untraced runs, `--trace 1`
//! the per-layer metrics of the traced replay. See `README.md`.

#![forbid(unsafe_code)]

mod corpus;
mod gate;
mod procfs;
mod stats;
mod traced;
mod workloads;

use corpus::Corpus;
use gate::Gate;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One named measurement.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    BlueWatersDir,
    DensePeriodic,
    OnlineIngest,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("bluewaters_dir", Workload::BlueWatersDir),
        ("dense_periodic", Workload::DensePeriodic),
        ("online_ingest", Workload::OnlineIngest),
    ];

    fn name(self) -> &'static str {
        Workload::ALL.iter().find(|(_, w)| *w == self).map_or("?", |(n, _)| n)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload bluewaters_dir|dense_periodic|online_ingest \
                     --seed N --seconds S --trace 0|1";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    let found = Workload::ALL.iter().find(|(name, _)| *name == value);
                    workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?.1);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(String::new())),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The scratch directory of one run; removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result line: one JSON object.
fn result_json(gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.correct(),
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(Gate, Vec<Metric>), String> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let name = args.workload.name();
    println!(
        "perfbench: workload {name}, seed {}, {} s, trace {}, {workers} workers \
         (available_parallelism)",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let root = PathBuf::from(".perfbench-work");
    let work = WorkDir(root.join(format!("{name}-{}-{}", args.seed, std::process::id())));
    let corpus_dir = work.0.join("corpus");

    let t = Instant::now();
    let corpus = match args.workload {
        Workload::BlueWatersDir => Corpus::write(
            &corpus_dir,
            corpus::blue_waters(args.seed, workloads::BLUE_WATERS_DIR_TRACES),
        ),
        Workload::DensePeriodic => {
            Corpus::write(&corpus_dir, corpus::dense_periodic(args.seed, workloads::DENSE_TRACES))
        }
        Workload::OnlineIngest => {
            Corpus::write(&corpus_dir, corpus::blue_waters(args.seed, workloads::ONLINE_TRACES))
        }
    }
    .map_err(workloads::io("corpus"))?;
    println!(
        "corpus: {} traces, {:.1} MB, digest {:#018x}, generated in {:.2} s (not measured)",
        corpus.len(),
        corpus.bytes as f64 / 1e6,
        corpus.digest,
        t.elapsed().as_secs_f64()
    );

    let mut gate = Gate::default();
    let (metrics, notes) = if args.trace {
        traced::run(&corpus, args.seconds, workers, &work.0, &mut gate)?
    } else {
        let measured = match args.workload {
            Workload::OnlineIngest => workloads::online(&corpus, args.seconds, &mut gate)?,
            _ => workloads::batch(&corpus, args.seconds, workers, &work.0, &mut gate)?,
        };
        (measured.metrics, measured.notes)
    };
    for note in notes {
        println!("{note}");
    }
    println!(
        "gate: {} attempted, {} failed (failed_frac {}), {} other problems",
        gate.attempted,
        gate.failed,
        gate.failed_frac(),
        gate.problems.len()
    );
    for problem in &gate.problems {
        println!("gate problem: {problem}");
    }
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    drop(work);
    let _ = std::fs::remove_dir(&root);
    Ok((gate, metrics))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((gate, metrics)) => {
            println!("{}", result_json(&gate, &metrics));
            if gate.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: the output gate failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
