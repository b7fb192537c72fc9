//! **§IV-E (performance)** — processing throughput and thread scaling.
//!
//! Paper: the Python/Dispy implementation processes the full 462k-trace
//! year in 165 minutes on a 64-core EPYC 7702 (≈47 traces/s) and needs
//! ~300 GB of RAM. This binary measures the Rust pipeline's throughput at
//! several thread counts on the synthetic dataset (generation cost is
//! *included*, so the numbers are conservative).
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin sec4e_performance [-- --n 20000]
//! ```
//!
//! With `--trace-out FILE.json` the widest run records a structured span
//! timeline: the Chrome trace-event JSON goes to `FILE.json` (open it in
//! Perfetto) and the slowest-traces-per-stage table to `FILE.json.slow.md`.
//!
//! Every run also benchmarks the wire-fed parse→merge hot path over
//! pre-serialized MDF bytes and writes the machine-readable result to
//! `--bench-out` (default `BENCH_sec4e.json`). CI's `bench_gate` compares
//! that file against the committed baseline.

#![allow(
    clippy::disallowed_methods,
    reason = "a throughput benchmark measures wall-clock by definition"
)]

use mosaic_bench::{dataset, perf, run_pipeline_inputs, run_pipeline_traced, wire_inputs, Flags};
use std::time::Instant;

fn main() {
    let flags = Flags::from_args();
    let ds = dataset(&flags);
    let trace_out = flags.has("trace-out").then(|| flags.get("trace-out", String::new()));
    let trace_capacity = flags.get("trace-capacity", 65_536usize);
    println!("§IV-E — performance (n = {} traces, {} applications)", ds.len(), ds.apps().len());
    println!("paper reference: 462,502 traces in 165 min on 64 cores ≈ 47 traces/s (Python)\n");

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut candidates = vec![1usize, 2, 4, 8, 16, 32, 64];
    candidates.retain(|&t| t <= cores);
    if !candidates.contains(&cores) {
        candidates.push(cores);
    }

    println!("{:>8} {:>12} {:>14} {:>10}", "threads", "seconds", "traces/s", "speedup");
    let mut base = None;
    let mut last = None;
    let widest = candidates.last().copied().unwrap_or(1);
    for threads in candidates {
        let started = Instant::now();
        // Only the widest run pays for tracing, so the scaling numbers of
        // the narrower runs stay untouched.
        let capacity = (threads == widest && trace_out.is_some()).then_some(trace_capacity);
        let result = run_pipeline_traced(&ds, Some(threads), capacity);
        let secs = started.elapsed().as_secs_f64();
        let rate = ds.len() as f64 / secs;
        let speedup = base.map(|b: f64| b / secs).unwrap_or(1.0);
        if base.is_none() {
            base = Some(secs);
        }
        println!(
            "{threads:>8} {secs:>12.2} {rate:>14.0} {speedup:>9.1}x   (valid {})",
            result.funnel.valid
        );
        last = Some(result);
    }

    if let Some(result) = last {
        // Where the time actually goes, from the widest run: cumulative CPU
        // seconds per stage across all workers.
        let stages: Vec<String> = result
            .metrics
            .stages
            .iter()
            .map(|s| format!("{} {:.2}s", s.stage, s.total_seconds))
            .collect();
        println!("\nstage breakdown (cumulative worker seconds): {}", stages.join(", "));

        if let (Some(path), Some(timeline)) = (&trace_out, &result.timeline) {
            std::fs::write(path, timeline.to_chrome_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            let md_path = format!("{path}.slow.md");
            std::fs::write(&md_path, timeline.render_slow_md())
                .unwrap_or_else(|e| panic!("writing {md_path}: {e}"));
            println!(
                "wrote {path} ({} spans kept, {} dropped by ring wrap) and {md_path}",
                timeline.events.len(),
                timeline.dropped
            );
        }
    }

    // Wire-fed hot-path benchmark: serialize everything to MDF bytes first
    // (outside the timed region), then run the identical inputs repeatedly.
    // This isolates parse→validate→merge→categorize.
    let bench_out = flags.get("bench-out", "BENCH_sec4e.json".to_owned());
    let reps = flags.get("reps", 3usize).max(1);
    println!("\nwire-fed parse→merge benchmark (pre-serialized MDF bytes, best of {reps}):");
    let inputs = wire_inputs(&ds);
    // Best-of-N: single passes over a small corpus finish in tens of
    // milliseconds, where scheduler and frequency noise would dominate a
    // one-shot measurement.
    let timed = || {
        let started = Instant::now();
        let run = run_pipeline_inputs(inputs.clone(), None);
        (started.elapsed().as_secs_f64(), run)
    };
    let (mut secs, mut run) = timed();
    for _ in 1..reps {
        let (s, r) = timed();
        if s < secs {
            (secs, run) = (s, r);
        }
    }
    println!(
        "  {:>10.0} traces/s ({secs:.2}s)   (valid {})",
        ds.len() as f64 / secs,
        run.funnel.valid
    );

    let report = perf::report(ds.len(), secs, &run);
    perf::validate(&report).unwrap_or_else(|e| panic!("emitted report fails own schema: {e}"));
    let json = serde_json::to_string_pretty(&report).expect("report serialization");
    std::fs::write(&bench_out, json).unwrap_or_else(|e| panic!("writing {bench_out}: {e}"));
    println!("  wrote {bench_out}");

    println!(
        "\nextrapolation: at the single-core rate above, the paper's full year \
         (462,502 traces) would take the Rust pipeline a small fraction of the \
         165-minute Python figure; memory stays O(apps + reports), not O(dataset)."
    );
}
