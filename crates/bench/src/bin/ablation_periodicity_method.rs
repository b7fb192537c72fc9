//! **Ablation / future work** — clustering vs spectral vs hybrid
//! periodicity detection (§V: "we plan to implement [signal-processing]
//! techniques to improve the detection of this type of pattern").
//!
//! Scores all three [`PeriodicityMethod`]s against ground truth on the
//! synthetic dataset (periodicity axes only), and times them.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin ablation_periodicity_method [-- --n 6000]
//! ```

#![allow(clippy::disallowed_methods, reason = "the ablation reports each method's wall-clock cost")]

use mosaic_bench::{pct, Flags};
use mosaic_core::{Categorizer, CategorizerConfig, PeriodicityMethod};
use mosaic_synth::{Dataset, DatasetConfig, Payload};
use std::time::Instant;

fn main() {
    let flags = Flags::from_args();
    let ds = Dataset::new(DatasetConfig {
        n_traces: flags.get("n", 6000usize),
        corruption_rate: 0.0, // evaluation wants ground truth for every run
        seed: flags.get("seed", 42u64),
    });

    println!("Ablation — periodicity detection method (n = {})\n", ds.len());
    println!(
        "{:>10} {:>16} {:>16} {:>14}",
        "method", "periodic found", "magnitude ok", "false alarms"
    );

    for (name, method) in [
        ("meanshift", PeriodicityMethod::MeanShift),
        ("spectral", PeriodicityMethod::Spectral),
        ("hybrid", PeriodicityMethod::Hybrid),
    ] {
        let config = CategorizerConfig { periodicity_method: method, ..Default::default() };
        let categorizer = Categorizer::new(config);

        let mut truly_periodic = 0usize;
        let mut found = 0usize;
        let mut magnitude_ok = 0usize;
        let mut false_alarms = 0usize;
        let started = Instant::now();
        for i in 0..ds.len() {
            let run = ds.generate(i);
            let (Some(truth), Payload::Log(log)) = (run.truth, &run.payload) else { continue };
            let report = categorizer.categorize_log(log);
            for (expected, detected) in [
                (truth.read_periodic, report.read.periodic.first()),
                (truth.write_periodic, report.write.periodic.first()),
            ] {
                match (expected, detected) {
                    (Some(mag), Some(p)) => {
                        truly_periodic += 1;
                        found += 1;
                        if p.magnitude == mag {
                            magnitude_ok += 1;
                        }
                    }
                    (Some(_), None) => truly_periodic += 1,
                    (None, Some(_)) => false_alarms += 1,
                    (None, None) => {}
                }
            }
        }
        // Wall time varies run to run, so it goes to stderr and the table
        // on stdout stays reproducible.
        eprintln!("{name}: {:.2} s", started.elapsed().as_secs_f64());
        println!(
            "{name:>10} {:>16} {:>16} {:>14}",
            format!(
                "{}/{} ({})",
                found,
                truly_periodic,
                pct(found as f64 / truly_periodic.max(1) as f64)
            ),
            pct(magnitude_ok as f64 / truly_periodic.max(1) as f64),
            false_alarms,
        );
    }

    stress_sweep();

    println!(
        "\nreading: on the calibrated dataset all methods saturate; the stress\n\
         sweep separates them. Heavy volume jitter breaks the clustering\n\
         features (volume is a feature axis) while the spectral lattice only\n\
         looks at timing, so it keeps detecting — the concrete payoff of the\n\
         paper's §V plan. Hybrid sits between: when clustering *partially*\n\
         succeeds it claims fragments, leaving the spectral pass a broken\n\
         train, so fixing fragmentation (not adding detectors) is the lever."
    );
}

/// Jittered checkpoint trains: timing jitter stresses the spectral lattice,
/// volume jitter stresses the Mean Shift feature space.
fn stress_sweep() {
    use mosaic_darshan::ops::{OpKind, Operation, OperationView};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    println!("\nstress sweep — detection rate over 40 jittered checkpoint trains");
    println!(
        "{:>14} {:>14} {:>12} {:>12} {:>12}",
        "timing jitter", "volume jitter", "meanshift", "spectral", "hybrid"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for (tj, vj) in [(0.0, 0.0), (0.1, 0.0), (0.25, 0.0), (0.0, 0.5), (0.0, 2.0), (0.15, 1.0)] {
        let mut rates = Vec::new();
        for method in
            [PeriodicityMethod::MeanShift, PeriodicityMethod::Spectral, PeriodicityMethod::Hybrid]
        {
            let config = CategorizerConfig { periodicity_method: method, ..Default::default() };
            let categorizer = Categorizer::new(config);
            let mut hits = 0;
            const TRIALS: usize = 40;
            for _ in 0..TRIALS {
                let period = 300.0;
                let runtime = 300.0 * 20.0;
                let writes: Vec<Operation> = (0..20)
                    .map(|i| {
                        let t = period * (i as f64 + 0.3) + period * tj * (rng.gen::<f64>() - 0.5);
                        let bytes = ((512u64 << 20) as f64 * (1.0 + vj * rng.gen::<f64>())) as u64;
                        Operation { kind: OpKind::Write, start: t, end: t + 8.0, bytes, ranks: 16 }
                    })
                    .collect();
                let view =
                    OperationView { runtime, nprocs: 16, reads: vec![], writes, meta: vec![] };
                let report = categorizer.categorize(&view);
                if report
                    .write
                    .periodic
                    .iter()
                    .any(|p| (p.period - period).abs() < period * 0.2 && p.occurrences >= 10)
                {
                    hits += 1;
                }
            }
            rates.push(hits as f64 / TRIALS as f64);
        }
        println!(
            "{:>13}% {:>13}% {:>12} {:>12} {:>12}",
            (tj * 100.0) as u32,
            (vj * 100.0) as u32,
            pct(rates[0]),
            pct(rates[1]),
            pct(rates[2]),
        );
    }
}
