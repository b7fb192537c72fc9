//! The paired perf gate: a base and a head perfbench binary, run alternately
//! on one runner.
//!
//! ```sh
//! ./target/release/bench_gate --base <base perfbench> --head perfbench/target/release/perfbench
//! ```
//!
//! For each `BENCHMARK.json` workload it runs [`PAIRS`] untraced pairs at
//! seeds `1..=PAIRS`, base first in odd pairs and head first in even ones,
//! then one traced pair at seed 1, each run in a working directory of its
//! own; [`decide`] says when the workload fails. The last line of output is a
//! JSON summary; the exit code is 0 only when every workload passed.

use serde::Deserialize;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{absolute, Path};
use std::process::{Command, ExitCode};

/// Pairs of untraced runs per workload, at seeds `1..=PAIRS`.
const PAIRS: u64 = 7;
/// `--seconds` of every run. At 3 s, a planted ≈15 % slowdown still won one
/// of seven `bluewaters_dir` pairs on a shared 2-vCPU host.
const SECONDS: &str = "10";
/// The highest multiple of base's layer p99 that head may reach.
const P99_CEILING: f64 = 3.0;
/// The end-to-end metric that gates; the others are reported.
const GATED: &str = "traces_per_s";
/// The end-to-end metric that must agree within each pair.
const ACCURACY: &str = "accuracy_pct";
const SIDES: [&str; 2] = ["base", "head"];

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    /// `"higher"` or `"lower"`.
    better: String,
    bound: f64,
}

/// What the gate reads from `BENCHMARK.json`.
#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<Named>,
}

fn spec() -> Spec {
    serde_json::from_str(include_str!("../../../../BENCHMARK.json"))
        .expect("BENCHMARK.json declares workloads, end_to_end and per_layer")
}

#[derive(Deserialize)]
struct Measured {
    value: f64,
}

/// The result line perfbench prints last.
#[derive(Deserialize)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

impl Run {
    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |m| m.value)
    }
}

/// One run's result, or why it has none.
type Outcome = Result<Run, String>;

/// Read a run from its exit status and standard output. Which metrics its
/// result line must carry is [`decide`]'s business.
fn parse_run(success: bool, stdout: &str) -> Outcome {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    let run: Run = match (success, serde_json::from_str(last)) {
        (false, _) => return Err("exited non-zero".to_owned()),
        (true, Err(_)) => return Err(format!("last line is not a result: {last:?}")),
        (true, Ok(run)) => run,
    };
    if !run.correct {
        return Err("printed \"correct\": false".to_owned());
    }
    Ok(run)
}

/// Base's and head's run at one seed; pair `i` of a workload runs at seed
/// `i + 1`, its traced pair at seed 1.
type Pair = [Outcome; 2];

/// Both runs of a pair, when both have a result.
fn both([base, head]: &Pair) -> Option<[&Run; 2]> {
    Some([base.as_ref().ok()?, head.as_ref().ok()?])
}

/// A workload's failures, one report line per end-to-end metric, and its
/// part of the JSON summary.
struct Verdict {
    failures: Vec<String>,
    report: Vec<String>,
    summary: Value,
}

/// Linearly interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * sorted.len().saturating_sub(1) as f64;
    let at = |i: f64| sorted.get(i as usize).copied().unwrap_or(f64::NAN);
    at(pos.floor()) + pos.fract() * (at(pos.ceil()) - at(pos.floor()))
}

/// Decide one workload. It fails when a run has no correct result line,
/// when a run lacks a declared metric (end-to-end ones untraced, per-layer
/// ones traced), when head fails a larger share of its operations, when
/// `accuracy_pct` differs within a pair, when head's `traces_per_s` is
/// worse in every pair *and* its median by more than
/// `min(base IQR, bound × base median)`, or when a layer p99 of the traced
/// pair is above [`P99_CEILING`] × base's.
///
/// A declared metric that no base run prints is new: the base predates it.
/// Head must still print it in every run; it is listed under `new_metrics`
/// and not compared. A metric that some base runs print and others omit
/// still fails.
fn decide(spec: &Spec, pairs: &[Pair], traced: &Pair) -> Verdict {
    let mut failures = Vec::new();
    let runs: Vec<(u64, u8, &Pair)> =
        (1..).zip(pairs).map(|(seed, pair)| (seed, 0, pair)).chain([(1, 1, traced)]).collect();
    for &(seed, trace, pair) in &runs {
        for (side, run) in SIDES.iter().zip(pair) {
            if let Err(e) = run {
                failures.push(format!("{side} run at seed {seed} (trace {trace}): {e}"));
            }
        }
    }
    let declared = [
        (0, spec.end_to_end.iter().map(|m| &m.name).collect::<Vec<_>>()),
        (1, spec.per_layer.iter().map(|l| &l.name).collect()),
    ];
    let mut new_metrics = Vec::new();
    for (trace, names) in declared {
        let mode_runs = || runs.iter().filter(move |r| r.1 == trace);
        for name in names {
            let prints = |run: &Outcome| run.as_ref().is_ok_and(|r| r.metrics.contains_key(name));
            let new = !mode_runs().any(|(_, _, pair)| prints(&pair[0]));
            if new {
                new_metrics.push(name);
            }
            for (seed, _, pair) in mode_runs() {
                for (side, run) in SIDES.iter().zip(pair.iter()).skip(usize::from(new)) {
                    if run.is_ok() && !prints(run) {
                        failures.push(format!(
                            "{side} run at seed {seed} (trace {trace}): result has no metric {name}"
                        ));
                    }
                }
            }
        }
    }
    let ok: Vec<(u64, [&Run; 2])> =
        (1..).zip(pairs).filter_map(|(seed, pair)| Some((seed, both(pair)?))).collect();
    let complete = ok.len() == pairs.len() && failures.is_empty();
    let (Some([traced_base, traced_head]), true) = (both(traced), complete) else {
        let summary =
            json!({ "verdict": "fail", "failures": failures, "new_metrics": new_metrics });
        return Verdict { failures, report: Vec::new(), summary };
    };

    let shares = [0, 1].map(|side| {
        let (failed, attempted) =
            ok.iter().fold((0, 0), |(f, a), (_, r)| (f + r[side].failed, a + r[side].attempted));
        failed as f64 / attempted.max(1) as f64
    });
    if shares[1] > shares[0] {
        failures.push(format!("head fails {} of its operations, base {}", shares[1], shares[0]));
    }
    let accuracy_is_new = new_metrics.iter().any(|name| *name == ACCURACY);
    for (seed, [base, head]) in ok.iter().filter(|_| !accuracy_is_new) {
        let (b, h) = (base.get(ACCURACY), head.get(ACCURACY));
        if b != h {
            failures.push(format!("{ACCURACY} differs at seed {seed}: base {b}, head {h}"));
        }
    }
    let (mut metrics, mut report) = (BTreeMap::new(), Vec::new());
    for m in spec.end_to_end.iter().filter(|m| !new_metrics.contains(&&m.name)) {
        let [base, head] =
            [0, 1].map(|side| ok.iter().map(|(_, r)| r[side].get(&m.name)).collect::<Vec<_>>());
        let (base_median, head_median) = (quantile(&base, 0.5), quantile(&head, 0.5));
        let base_iqr = quantile(&base, 0.75) - quantile(&base, 0.25);
        let sign = if m.better == "higher" { 1.0 } else { -1.0 };
        let worse = base.iter().zip(&head).filter(|&(b, h)| sign * (b - h) > 0.0).count();
        let (gap, ratio) = (sign * (base_median - head_median), head_median / base_median);
        if m.name == GATED && worse == ok.len() && gap > base_iqr.min(m.bound * base_median) {
            failures.push(format!(
                "{GATED} is worse in all {worse} pairs and its median by {gap:.1} ({head_median:.1} \
                 vs {base_median:.1}), more than min(base IQR {base_iqr:.1}, {} x base median)",
                m.bound
            ));
        }
        let (name, bound, n) = (&m.name, m.bound, ok.len());
        report.push(format!(
            "{name}: median {base_median:.4e} -> {head_median:.4e} (ratio {ratio:.3}, bound {bound}), \
             head worse in {worse} of {n} pairs"
        ));
        let entry = json!({ "base_median": base_median, "head_median": head_median,
            "ratio": ratio, "base_iqr": base_iqr, "bound": m.bound, "head_worse_pairs": worse });
        metrics.insert(&m.name, entry);
    }
    let layers = spec.per_layer.iter().map(|l| &l.name);
    for name in layers.filter(|n| n.ends_with("p99_us") && !new_metrics.contains(n)) {
        let (base, head) = (traced_base.get(name), traced_head.get(name));
        if head > P99_CEILING * base {
            failures
                .push(format!("{name} of head is {head} us, over {P99_CEILING} x base's {base}"));
        }
        metrics.insert(name, json!({ "base": base, "head": head, "ratio": head / base }));
    }
    let verdict = if failures.is_empty() { "pass" } else { "fail" };
    let summary = json!({ "verdict": verdict, "failures": failures, "failed_share": shares,
        "metrics": metrics, "new_metrics": new_metrics });
    Verdict { failures, report, summary }
}

/// Run one perfbench binary in a working directory of its own.
fn run(binary: &Path, workload: &str, seed: u64, trace: u8) -> Outcome {
    let dir = std::env::temp_dir()
        .join(format!("bench-gate-{}-{workload}-{seed}-{trace}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let output = Command::new(binary)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", SECONDS])
        .args(["--trace", &trace.to_string()])
        .current_dir(&dir)
        .output();
    let _ = std::fs::remove_dir_all(&dir);
    let output = output.map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    parse_run(output.status.success(), &String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{e} (stderr: {})", stderr.lines().last().unwrap_or_default()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = match args.as_slice() {
        [b, base, h, head] if b == "--base" && h == "--head" => Some([base, head].map(absolute)),
        _ => None,
    };
    let (spec, Some([Ok(base), Ok(head)])) = (spec(), bins) else {
        eprintln!("usage: bench_gate --base <perfbench binary> --head <perfbench binary>");
        return ExitCode::from(2);
    };
    let bins = [base, head];
    println!("bench gate: base {}, head {}", bins[0].display(), bins[1].display());
    let (mut summary, mut passed) = (BTreeMap::new(), true);
    for workload in spec.workloads.iter().map(|w| w.name.as_str()) {
        let pair = |seed: u64, trace: u8| {
            let mut runs = [Err(String::new()), Err(String::new())];
            for side in if seed % 2 == 1 { [0, 1] } else { [1, 0] } {
                runs[side] = run(&bins[side], workload, seed, trace);
                let shown = match &runs[side] {
                    Ok(r) => r.metrics.get(GATED).map_or("ok".to_owned(), |m| m.value.to_string()),
                    Err(e) => e.clone(),
                };
                println!("{workload} seed {seed} trace {trace} {}: {shown}", SIDES[side]);
            }
            runs
        };
        let pairs: Vec<Pair> = (1..=PAIRS).map(|seed| pair(seed, 0)).collect();
        let verdict = decide(&spec, &pairs, &pair(1, 1));
        let fails = verdict.failures.iter().map(|f| format!("FAIL {f}"));
        let pass = verdict.failures.is_empty().then(|| "PASS".to_owned());
        for line in verdict.report.iter().cloned().chain(fails).chain(pass) {
            println!("{workload} {line}");
        }
        passed &= verdict.failures.is_empty();
        summary.insert(workload, verdict.summary);
    }
    let verdict = if passed { "pass" } else { "fail" };
    let summary =
        json!({ "verdict": verdict, "pairs": PAIRS, "seconds": SECONDS, "workloads": summary });
    println!("{summary}");
    ExitCode::from(u8::from(!passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correct run with every declared metric at 1, except `traces_per_s`.
    fn run(traces_per_s: f64) -> Run {
        let spec = spec();
        let names =
            spec.end_to_end.iter().map(|m| &m.name).chain(spec.per_layer.iter().map(|l| &l.name));
        let mut metrics: BTreeMap<_, _> =
            names.map(|n| (n.clone(), Measured { value: 1.0 })).collect();
        metrics.insert(GATED.to_owned(), Measured { value: traces_per_s });
        Run { correct: true, attempted: 1_000, failed: 0, metrics }
    }

    fn pairs(base: &[f64], head: &[f64]) -> Vec<Pair> {
        base.iter().zip(head).map(|(b, h)| [Ok(run(*b)), Ok(run(*h))]).collect()
    }

    /// The failures of `pairs` beside a traced pair whose head is `traced`.
    fn failures(pairs: &[Pair], traced: Outcome) -> String {
        decide(&spec(), pairs, &[Ok(run(1.0)), traced]).failures.join("; ")
    }

    /// Median 100, IQR 3.
    const BASE: [f64; 7] = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0];

    #[test]
    fn head_slower_in_every_pair_by_more_than_the_spread_fails() {
        let failed = failures(&pairs(&BASE, &BASE.map(|b| b * 0.9)), Ok(run(1.0)));
        assert!(failed.contains("worse in all 7 pairs"), "{failed}");
    }

    #[test]
    fn one_pair_where_head_wins_passes() {
        let mut head = BASE.map(|b| b * 0.9);
        head[3] = BASE[3] + 1.0;
        assert_eq!(failures(&pairs(&BASE, &head), Ok(run(1.0))), "");
    }

    #[test]
    fn head_slower_in_every_pair_inside_the_base_iqr_passes() {
        assert_eq!(quantile(&BASE, 0.75) - quantile(&BASE, 0.25), 3.0);
        assert_eq!(failures(&pairs(&BASE, &BASE.map(|b| b - 2.0)), Ok(run(1.0))), "");
    }

    #[test]
    fn a_base_spread_wider_than_the_bound_does_not_hide_a_gap_past_the_bound() {
        // IQR 60 > 0.25 x median 100; head is 30 lower in every pair.
        let base = [40.0, 160.0, 70.0, 100.0, 120.0, 60.0, 130.0];
        assert_eq!(quantile(&base, 0.75) - quantile(&base, 0.25), 60.0);
        let failed = failures(&pairs(&base, &base.map(|b| b - 30.0)), Ok(run(1.0)));
        assert!(failed.contains("worse in all 7 pairs"), "{failed}");
    }

    #[test]
    fn a_run_without_a_correct_result_is_a_gate_error() {
        let names: Vec<String> = spec().end_to_end.into_iter().map(|m| m.name).collect();
        let line = |correct: bool| {
            let metrics: BTreeMap<_, _> =
                names.iter().map(|n| (n, json!({ "value": 100 }))).collect();
            json!({ "correct": correct, "attempted": 9, "failed": 0, "metrics": metrics })
                .to_string()
        };
        let good = parse_run(true, &format!("table\n{}\n", line(true))).unwrap();
        assert_eq!((good.attempted, good.get(GATED)), (9, 100.0));
        let cases = [
            (parse_run(false, &line(true)), "exited non-zero"),
            (parse_run(true, "gate: 9 attempted\n"), "not a result"),
            (parse_run(true, "{\"correct\": true}"), "not a result"),
            (parse_run(true, &line(false)), "\"correct\": false"),
        ];
        for (outcome, want) in cases {
            let err = outcome.err().unwrap();
            assert!(err.contains(want), "{err}");
            let mut runs = pairs(&BASE, &BASE);
            runs[2][1] = Err(err.clone());
            assert!(failures(&runs, Ok(run(1.0))).contains("head run at seed 3"));
            assert!(
                failures(&pairs(&BASE, &BASE), Err(err)).contains("head run at seed 1 (trace 1)")
            );
        }
    }

    /// `runs` with `metric` dropped from the runs of `side` that `at` picks
    /// by pair index.
    fn without(
        mut runs: Vec<Pair>,
        side: usize,
        metric: &str,
        at: impl Fn(usize) -> bool,
    ) -> Vec<Pair> {
        for (_, pair) in runs.iter_mut().enumerate().filter(|(i, _)| at(*i)) {
            pair[side].as_mut().unwrap().metrics.remove(metric);
        }
        runs
    }

    #[test]
    fn a_metric_no_base_run_prints_is_new_and_not_compared() {
        // Head is 10 % slower in every pair, but base never printed the
        // gated metric, so there is nothing to compare it with.
        let runs = without(pairs(&BASE, &BASE.map(|b| b * 0.9)), 0, GATED, |_| true);
        let mut base = run(1.0);
        base.metrics.remove("core.categorize.p99_us");
        let mut head = run(1.0);
        head.metrics.insert("core.categorize.p99_us".to_owned(), Measured { value: 100.0 });
        let verdict = decide(&spec(), &runs, &[Ok(base), Ok(head)]);
        assert_eq!(verdict.failures, Vec::<String>::new());
        assert_eq!(verdict.summary["new_metrics"], json!([GATED, "core.categorize.p99_us"]));
        assert!(verdict.summary["metrics"].get(GATED).is_none());
        assert!(!verdict.report.iter().any(|line| line.starts_with(GATED)));
        // Metrics both sides print are still compared.
        assert!(verdict.summary["metrics"].get(ACCURACY).is_some());
        // A new accuracy_pct is not compared within the pairs either.
        let runs = without(pairs(&BASE, &BASE), 0, ACCURACY, |_| true);
        assert_eq!(failures(&runs, Ok(run(1.0))), "");
    }

    #[test]
    fn a_metric_some_base_runs_omit_fails() {
        let runs = without(pairs(&BASE, &BASE), 0, "setup_s", |i| i == 2);
        let failed = failures(&runs, Ok(run(1.0)));
        assert_eq!(failed, "base run at seed 3 (trace 0): result has no metric setup_s");
    }

    #[test]
    fn head_omitting_a_metric_fails_whether_or_not_it_is_new() {
        let runs = without(pairs(&BASE, &BASE), 1, "setup_s", |i| i == 1);
        let failed = failures(&runs, Ok(run(1.0)));
        assert_eq!(failed, "head run at seed 2 (trace 0): result has no metric setup_s");
        // New on base, and missing from one head run.
        let runs =
            without(without(pairs(&BASE, &BASE), 0, "setup_s", |_| true), 1, "setup_s", |i| i == 4);
        let verdict = decide(&spec(), &runs, &[Ok(run(1.0)), Ok(run(1.0))]);
        assert_eq!(
            verdict.failures,
            ["head run at seed 5 (trace 0): result has no metric setup_s"]
        );
        assert_eq!(verdict.summary["new_metrics"], json!(["setup_s"]));
        // A per-layer metric the traced head run omits.
        let mut head = run(1.0);
        head.metrics.remove("core.categorize.p99_us");
        let failed = failures(&pairs(&BASE, &BASE), Ok(head));
        assert_eq!(
            failed,
            "head run at seed 1 (trace 1): result has no metric core.categorize.p99_us"
        );
    }

    #[test]
    fn a_higher_failed_share_or_a_changed_answer_on_head_fails() {
        let mut runs = pairs(&BASE, &BASE);
        runs[4][1].as_mut().unwrap().failed = 1;
        assert!(failures(&runs, Ok(run(1.0))).contains("head fails 0.0001"));
        let mut runs = pairs(&BASE, &BASE);
        runs[0][1].as_mut().unwrap().metrics.insert(ACCURACY.to_owned(), Measured { value: 0.5 });
        assert!(failures(&runs, Ok(run(1.0))).contains("accuracy_pct differs at seed 1"));
    }

    #[test]
    fn a_layer_p99_of_exactly_the_ceiling_passes_and_above_it_fails() {
        let with_p99 = |p99: f64| {
            let mut head = run(1.0);
            head.metrics.insert("core.categorize.p99_us".to_owned(), Measured { value: p99 });
            failures(&pairs(&BASE, &BASE), Ok(head))
        };
        assert_eq!(with_p99(P99_CEILING), "");
        assert!(with_p99(P99_CEILING * (1.0 + 1e-9)).contains("core.categorize.p99_us of head"));
    }

    #[test]
    fn the_gate_runs_the_declared_workloads() {
        let names: Vec<String> = spec().workloads.into_iter().map(|w| w.name).collect();
        assert_eq!(names, ["bluewaters_dir", "dense_periodic"]);
    }
}
