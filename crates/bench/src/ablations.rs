//! Ablations of the design choices DESIGN.md lists: chunk count, clustering
//! algorithm and scaling, the merge passes, the periodicity detector, and
//! the §III-A thresholds. Each entry ends with derived margin rows, the
//! chosen setting's value minus its best alternative's (or a sweep's
//! smallest step), whose checks state the choice.

use crate::scorecard::{shown, value};
use crate::{dataset, run, Check, Inputs, Measured, Row, Rows};
use mosaic_clustering::kmeans::KMeans;
use mosaic_clustering::metrics::rand_index;
use mosaic_clustering::MeanShift;
use mosaic_core::category::{Category, MetadataLabel, OpKindTag, TemporalityLabel};
use mosaic_core::merge::{merge_all, merge_concurrent};
use mosaic_core::periodicity::detect_periodic;
use mosaic_core::report::CategoryCounts;
use mosaic_core::segment::segment;
use mosaic_core::{Categorizer, CategorizerConfig, PeriodicityMethod};
use mosaic_darshan::ops::{OpKind, Operation, OperationView};
use mosaic_synth::Payload;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn pct0(fraction: f64) -> String {
    Measured::Pct(fraction, 0).to_string()
}

/// The row `a` minus the row `b`.
fn gap(rows: &Rows, a: &str, b: &str) -> f64 {
    value(&rows.rows, a) - value(&rows.rows, b)
}

fn smallest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The smallest step from one row to the next along `quantities`.
fn smallest_step(rows: &Rows, quantities: impl IntoIterator<Item = String>) -> f64 {
    let values: Vec<f64> = quantities.into_iter().map(|q| value(&rows.rows, &q)).collect();
    smallest(values.iter().zip(values.iter().skip(1)).map(|(a, b)| b - a))
}

const CHUNK_COUNTS: [usize; 4] = [2, 4, 8, 16];

pub(crate) fn chunks(_: &Inputs) -> Rows {
    let ds = dataset(6000, 0.32, 42);
    let mut rows = Rows::new("ablation: chunks");
    rows.add("traces", Measured::Count(ds.len()));
    for chunks in CHUNK_COUNTS {
        let categorizer = Categorizer::new(CategorizerConfig { chunks, ..Default::default() });
        let (mut total, mut correct, mut fallbacks) = (0usize, 0usize, 0usize);
        for i in 0..ds.len() {
            let run = ds.generate(i);
            let (Some(truth), Payload::Log(log)) = (run.truth, &run.payload) else { continue };
            let report = categorizer.categorize_log(log);
            total += 2;
            correct += usize::from(report.read.temporality.label == truth.read_temporality);
            correct += usize::from(report.write.temporality.label == truth.write_temporality);
            fallbacks +=
                [&report.read, &report.write].iter().filter(|d| !d.temporality.confident).count();
        }
        let accuracy = correct as f64 / total.max(1) as f64;
        rows.add(format!("{chunks} chunks: temporality accuracy"), Measured::pct(accuracy));
        rows.add(format!("{chunks} chunks: unconfident fallbacks"), Measured::Count(fallbacks));
    }
    let accuracy = |c: usize| value(&rows.rows, &format!("{c} chunks: temporality accuracy"));
    let others = CHUNK_COUNTS.into_iter().filter(|&c| c != 4).map(accuracy);
    let margin = accuracy(4) - others.fold(f64::NEG_INFINITY, f64::max);
    rows.add("4 chunks − best other count, temporality accuracy", Measured::pct(margin))
        .check(Check::AtLeast(0.0))
        .deviation("2 chunks score higher at dataset seeds 4 and 6 of 0–9");
    rows
}

pub(crate) fn chunks_reading(rows: &[Row]) -> Vec<String> {
    let accuracy = |c: usize| value(rows, &format!("{c} chunks: temporality accuracy"));
    let by_accuracy = |pick: fn(f64, f64) -> bool| {
        CHUNK_COUNTS.into_iter().fold(CHUNK_COUNTS[0], |a, c| {
            if pick(accuracy(c), accuracy(a)) {
                c
            } else {
                a
            }
        })
    };
    let (best, worst) = (by_accuracy(|c, a| c > a), by_accuracy(|c, a| c < a));
    let paper = if best == 4 { ", the paper's choice," } else { "" };
    let fallbacks: Vec<String> = CHUNK_COUNTS
        .iter()
        .map(|c| format!("{c} → {}", shown(rows, &format!("{c} chunks: unconfident fallbacks"))))
        .collect();
    vec![
        format!(
            "{best} chunks{paper} give the highest temporality accuracy ({}); {worst} chunks \
             give the lowest ({}).",
            shown(rows, &format!("{best} chunks: temporality accuracy")),
            shown(rows, &format!("{worst} chunks: temporality accuracy")),
        ),
        format!("Unconfident fallbacks by chunk count: {}.", fallbacks.join(", ")),
    ]
}

const METHODS: [&str; 4] = [
    "mean shift (log features)",
    "mean shift (linear features)",
    "k-means k=2 (log)",
    "k-means k=4 (log)",
];

fn behaviours(b: usize) -> String {
    if b == 0 {
        "1 behaviour".to_owned()
    } else {
        format!("{} behaviours", b + 1)
    }
}

/// A labeled segment bank: (duration s, volume bytes) with ground-truth
/// cluster ids, mimicking 1–3 periodic behaviours plus one-off noise.
fn make_bank(rng: &mut ChaCha8Rng, behaviours: usize) -> (Vec<[f64; 2]>, Vec<usize>) {
    let mut points = Vec::new();
    let mut labels = Vec::new();
    for b in 0..behaviours {
        let period = 10.0_f64 * 8.0_f64.powi(b as i32);
        let volume = 1e6_f64 * 30.0_f64.powi(b as i32);
        for _ in 0..30 / (b + 1) {
            let j = rng.gen_range(0.9..1.1);
            points.push([period * j, volume * (2.0 - j)]);
            labels.push(b);
        }
    }
    for n in 0..3 {
        points.push([rng.gen_range(1.0..1e5), rng.gen_range(1e3..1e11)]);
        labels.push(behaviours + n);
    }
    (points, labels)
}

pub(crate) fn clustering(_: &Inputs) -> Rows {
    const DRAWS: usize = 20;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let mut scores = [[0.0; 3]; METHODS.len()];
    for behaviours in 1..=3 {
        for _ in 0..DRAWS {
            let (points, truth) = make_bank(&mut rng, behaviours);
            let logp: Vec<[f64; 2]> =
                points.iter().map(|p| [(1.0 + p[0]).log10(), (1.0 + p[1]).log10()]).collect();
            let labels = [
                MeanShift::new(0.15).fit(&logp).labels,
                // Linear features need a huge bandwidth.
                MeanShift::new(0.15 * 1e7).fit(&points).labels,
                KMeans::new(2).fit(&logp, &mut rng).labels,
                KMeans::new(4).fit(&logp, &mut rng).labels,
            ];
            for (score, labels) in scores.iter_mut().zip(&labels) {
                score[behaviours - 1] += rand_index(labels, &truth) / DRAWS as f64;
            }
        }
    }
    let mut rows = Rows::new("ablation: clustering");
    for (method, scores) in METHODS.iter().zip(scores) {
        for (b, score) in scores.into_iter().enumerate() {
            rows.add(format!("{method}: {}", behaviours(b)), Measured::Num(score, 3, ""));
        }
    }
    // With one behaviour every method scores about 1; the choice shows from
    // two behaviours on.
    for b in 1..3 {
        let [log, linear, others @ ..] = scores.map(|s| s[b]);
        let best_other = others.into_iter().fold(linear, f64::max);
        let at = behaviours(b);
        rows.add(
            format!("mean shift (log) − best other method: {at}"),
            Measured::Num(log - best_other, 3, ""),
        )
        .check(Check::AtLeast(0.0));
        rows.add(format!("log − linear features: {at}"), Measured::Num(log - linear, 3, ""))
            .check(Check::Above(0.0));
    }
    rows
}

const DESYNCS: [f64; 6] = [0.0, 0.5, 2.0, 5.0, 10.0, 20.0];
const MERGE_MODES: [&str; 3] = ["both merges", "concurrent only", "no merge"];

/// 32 ranks × 12 checkpoints 300 s apart, each rank's write staggered by up
/// to `desync` seconds.
fn desynced_checkpoints(rng: &mut ChaCha8Rng, desync: f64) -> (Vec<Operation>, f64) {
    let period = 300.0;
    let rounds = 12;
    let mut ops = Vec::new();
    for round in 0..rounds {
        let t0 = period * (round as f64 + 0.3);
        for _ in 0..32 {
            let offset = rng.gen_range(0.0..=desync.max(1e-9));
            let (start, end) = (t0 + offset, t0 + offset + 8.0);
            ops.push(Operation { kind: OpKind::Write, start, end, bytes: 64 << 20, ranks: 1 });
        }
    }
    ops.sort_by(|a, b| a.start.total_cmp(&b.start));
    (ops, period * rounds as f64)
}

pub(crate) fn merging(_: &Inputs) -> Rows {
    const TRIALS: usize = 25;
    let config = CategorizerConfig::default();
    let detects = |ops: &[Operation], runtime: f64| {
        let periodic = detect_periodic(&segment(ops, runtime), &config);
        periodic.iter().any(|p| (p.period - 300.0).abs() < 45.0)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut rows = Rows::new("ablation: merging");
    rows.add("trials per desync", Measured::Count(TRIALS));
    for desync in DESYNCS {
        let mut hits = [0usize; 3];
        for _ in 0..TRIALS {
            let (ops, runtime) = desynced_checkpoints(&mut rng, desync);
            hits[0] += usize::from(detects(&merge_all(&ops, runtime, &config), runtime));
            hits[1] += usize::from(detects(&merge_concurrent(&ops), runtime));
            hits[2] += usize::from(detects(&ops, runtime));
        }
        for (mode, hits) in MERGE_MODES.iter().zip(hits) {
            let share = hits as f64 / TRIALS as f64;
            rows.add(format!("desync {desync} s: {mode}"), Measured::Pct(share, 0));
        }
    }
    for (other, check) in
        [("no merge", Check::Above(0.5)), ("concurrent only", Check::AtLeast(0.0))]
    {
        let margins = DESYNCS.map(|d| {
            gap(&rows, &format!("desync {d} s: both merges"), &format!("desync {d} s: {other}"))
        });
        let quantity = format!("both merges − {other}, smallest over desyncs");
        rows.add(quantity, Measured::Pct(smallest(margins), 0)).check(check);
    }
    rows
}

pub(crate) fn merging_reading(rows: &[Row]) -> Vec<String> {
    let column = |mode: &str| DESYNCS.map(|d| value(rows, &format!("desync {d} s: {mode}")));
    let [both, concurrent, none] = MERGE_MODES.map(column);
    let span = |v: [f64; 6]| {
        let (lo, hi) =
            v.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        if lo == hi {
            pct0(lo)
        } else {
            format!("{}–{}", pct0(lo), pct0(hi))
        }
    };
    let gain = DESYNCS.iter().zip(both.iter().zip(concurrent)).find(|(_, (b, c))| **b > *c);
    let neighbor = match gain {
        None => "adding the neighbor merge changes no outcome at any of these desyncs".to_owned(),
        Some((d, _)) => format!("the neighbor merge recovers more from a desync of {d} s"),
    };
    vec![format!(
        "Without merging the period is recovered in {} of trials at 0–20 s of desync; the \
         concurrent merge alone recovers {}, and {neighbor}.",
        span(none),
        span(concurrent),
    )]
}

const DETECTORS: [(&str, PeriodicityMethod); 2] =
    [("meanshift", PeriodicityMethod::MeanShift), ("spectral", PeriodicityMethod::Spectral)];

/// Timing jitter stresses the spectral lattice; volume jitter stresses the
/// Mean Shift feature space.
const JITTERS: [(f64, f64); 6] =
    [(0.0, 0.0), (0.1, 0.0), (0.25, 0.0), (0.0, 0.5), (0.0, 2.0), (0.15, 1.0)];

fn detector(method: PeriodicityMethod) -> Categorizer {
    Categorizer::new(CategorizerConfig { periodicity_method: method, ..Default::default() })
}

fn stress_setting(timing: f64, volume: f64) -> String {
    format!("stress, {:.0}% timing and {:.0}% volume jitter", timing * 100.0, volume * 100.0)
}

pub(crate) fn periodicity_method(_: &Inputs) -> Rows {
    // Every run of an uncorrupted dataset carries ground truth.
    let ds = dataset(6000, 0.0, 42);
    let mut rows = Rows::new("ablation: periodicity method");
    rows.add("traces", Measured::Count(ds.len()));
    for (name, method) in DETECTORS {
        let categorizer = detector(method);
        let (mut periodic, mut found, mut magnitude_ok, mut false_alarms) = (0, 0, 0, 0);
        for i in 0..ds.len() {
            let run = ds.generate(i);
            let (Some(truth), Payload::Log(log)) = (run.truth, &run.payload) else { continue };
            let report = categorizer.categorize_log(log);
            for (expected, detected) in [
                (truth.read_periodic, report.read.periodic.first()),
                (truth.write_periodic, report.write.periodic.first()),
            ] {
                periodic += usize::from(expected.is_some());
                match (expected, detected) {
                    (Some(magnitude), Some(p)) => {
                        found += 1;
                        magnitude_ok += usize::from(p.magnitude == magnitude);
                    }
                    (None, Some(_)) => false_alarms += 1,
                    _ => {}
                }
            }
        }
        let share = |n: usize| Measured::pct(n as f64 / periodic.max(1) as f64);
        rows.add(format!("{name}: truly periodic directions"), Measured::Count(periodic));
        rows.add(format!("{name}: periodic found"), Measured::Count(found));
        rows.add(format!("{name}: periodic found, share"), share(found));
        rows.add(format!("{name}: magnitude correct"), share(magnitude_ok));
        rows.add(format!("{name}: false alarms"), Measured::Count(false_alarms));
    }

    let mut rng = ChaCha8Rng::seed_from_u64(77);
    rows.add("stress: trains per setting", Measured::Count(STRESS_TRIALS));
    for (timing, volume) in JITTERS {
        let setting = stress_setting(timing, volume);
        let trains: Vec<OperationView> =
            (0..STRESS_TRIALS).map(|_| jittered_train(&mut rng, timing, volume)).collect();
        for (name, method) in DETECTORS {
            let categorizer = detector(method);
            let hits = trains
                .iter()
                .filter(|train| {
                    let report = categorizer.categorize(train);
                    report
                        .write
                        .periodic
                        .iter()
                        .any(|p| (p.period - 300.0).abs() < 60.0 && p.occurrences >= 10)
                })
                .count();
            rows.add(
                format!("{setting}: {name}"),
                Measured::pct(hits as f64 / STRESS_TRIALS as f64),
            );
        }
    }

    // §V's claim: the spectral detector does at least as well everywhere,
    // and better where volume jitter scatters Mean Shift's features.
    for quantity in ["periodic found, share", "magnitude correct"] {
        let margin =
            gap(&rows, &format!("spectral: {quantity}"), &format!("meanshift: {quantity}"));
        rows.add(format!("spectral − meanshift: {quantity}"), Measured::pct(margin))
            .check(Check::AtLeast(0.0));
    }
    let fewer_alarms = gap(&rows, "meanshift: false alarms", "spectral: false alarms");
    rows.add("meanshift − spectral: false alarms", Measured::Num(fewer_alarms, 0, ""))
        .check(Check::AtLeast(0.0));
    let hardest = stress_setting(0.0, 2.0);
    let margin = gap(&rows, &format!("{hardest}: spectral"), &format!("{hardest}: meanshift"));
    rows.add(format!("spectral − meanshift, {hardest}"), Measured::pct(margin))
        .check(Check::Above(0.0));
    rows
}

/// Jittered trains per stress setting; every detector runs on the same
/// trains.
const STRESS_TRIALS: usize = 40;

/// 20 checkpoint writes 300 s apart, each start shifted by up to ±`timing`/2
/// of the period and each volume scaled by up to 1 + `volume`.
fn jittered_train(rng: &mut ChaCha8Rng, timing: f64, volume: f64) -> OperationView {
    let writes = (0..20)
        .map(|i| {
            let t = 300.0 * (i as f64 + 0.3) + 300.0 * timing * (rng.gen::<f64>() - 0.5);
            let bytes = ((512u64 << 20) as f64 * (1.0 + volume * rng.gen::<f64>())) as u64;
            Operation { kind: OpKind::Write, start: t, end: t + 8.0, bytes, ranks: 16 }
        })
        .collect();
    OperationView { runtime: 300.0 * 20.0, nprocs: 16, reads: vec![], writes, meta: vec![] }
}

const MB: u64 = 1 << 20;
const SIGNIFICANCE_MB: [u64; 5] = [10, 50, 100, 500, 2000];
const SPIKE_REQUESTS: [u64; 5] = [50, 100, 250, 1000, 3000];
const STEADY_CVS: [f64; 4] = [0.10, 0.25, 0.50, 0.75];

pub(crate) fn thresholds(_: &Inputs) -> Rows {
    let ds = dataset(8000, 0.32, 42);
    let default = CategorizerConfig::default();
    // The paper's own value of each threshold is the default configuration:
    // run it once and share it between the three sweeps.
    let base = run(&ds, default.clone()).all_runs_counts();
    let counts = |config: CategorizerConfig, is_default: bool| -> Option<CategoryCounts> {
        (!is_default).then(|| run(&ds, config).all_runs_counts())
    };
    let temporality = |kind, label| Category::Temporality { kind, label };
    let mut rows = Rows::new("ablation: thresholds");
    rows.add("traces", Measured::Count(ds.len()));
    for mb in SIGNIFICANCE_MB {
        let config = CategorizerConfig { insignificant_bytes: mb * MB, ..default.clone() };
        let own = counts(config, mb * MB == default.insignificant_bytes);
        let all = own.as_ref().unwrap_or(&base);
        let at = format!("significance {mb} MB");
        let read = all.fraction(temporality(OpKindTag::Read, TemporalityLabel::Insignificant));
        let write = all.fraction(temporality(OpKindTag::Write, TemporalityLabel::Insignificant));
        let periodic = all.fraction(Category::Periodic { kind: OpKindTag::Write });
        rows.add(format!("{at}: read insignificant"), Measured::pct(read));
        rows.add(format!("{at}: write insignificant"), Measured::pct(write));
        rows.add(format!("{at}: write periodic"), Measured::pct(periodic));
    }
    for req in SPIKE_REQUESTS {
        let config = CategorizerConfig { high_spike_requests: req, ..default.clone() };
        let own = counts(config, req == default.high_spike_requests);
        let all = own.as_ref().unwrap_or(&base);
        let share = all.fraction(Category::Metadata(MetadataLabel::HighSpike));
        rows.add(format!("high-spike threshold {req} req/s: high_spike"), Measured::pct(share));
    }
    for cv in STEADY_CVS {
        let config = CategorizerConfig { steady_cv: cv, ..default.clone() };
        let own = counts(config, cv == default.steady_cv);
        let all = own.as_ref().unwrap_or(&base);
        let at = format!("steady CV {}", Measured::pct(cv));
        for (kind, name) in [(OpKindTag::Read, "read"), (OpKindTag::Write, "write")] {
            let share = all.fraction(temporality(kind, TemporalityLabel::Steady));
            rows.add(format!("{at}: {name} steady"), Measured::pct(share));
        }
    }

    // A share on one side of a `<` / `>` threshold can only move one way as
    // the threshold moves, so each sweep's smallest step that way is ≥ 0.
    let insignificant = smallest(["read", "write"].map(|name| {
        let at = |mb| format!("significance {mb} MB: {name} insignificant");
        smallest_step(&rows, SIGNIFICANCE_MB.map(at))
    }));
    // From the highest bar down, high_spike can only rise.
    let at = |r: &u64| format!("high-spike threshold {r} req/s: high_spike");
    let spike = smallest_step(&rows, SPIKE_REQUESTS.iter().rev().map(at));
    let steady = smallest(["read", "write"].map(|name| {
        let at = |cv| format!("steady CV {}: {name} steady", Measured::pct(cv));
        smallest_step(&rows, STEADY_CVS.map(at))
    }));
    for (quantity, step) in [
        ("significance rising: smallest step of an insignificant share", insignificant),
        ("high-spike bar falling: smallest step of high_spike", spike),
        ("steady CV rising: smallest step of a steady share", steady),
    ] {
        rows.add(quantity, Measured::pct(step)).check(Check::AtLeast(0.0));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[(&str, f64)]) -> Rows {
        let mut rows = Rows::new("t");
        for &(quantity, v) in values {
            rows.add(quantity, Measured::pct(v));
        }
        rows
    }

    #[test]
    fn a_margin_is_one_row_minus_another() {
        let rows = rows(&[("a", 0.975), ("b", 0.972)]);
        assert!((gap(&rows, "a", "b") - 0.003).abs() < 1e-12);
        assert!(gap(&rows, "b", "a") < 0.0);
    }

    #[test]
    fn the_smallest_step_follows_the_given_order() {
        let rows = rows(&[("10", 0.275), ("50", 0.408), ("100", 0.408), ("500", 0.503)]);
        let up = ["10", "50", "100", "500"].map(String::from);
        assert_eq!(smallest_step(&rows, up.clone()), 0.0);
        let down = up.into_iter().rev();
        assert!((smallest_step(&rows, down) + 0.133).abs() < 1e-12, "a fall is a negative step");
        assert_eq!(smallest_step(&rows, ["10".to_owned()]), f64::INFINITY, "one setting, no step");
    }
}
