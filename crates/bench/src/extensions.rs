//! Claims beyond the paper's evaluation tables: §II-B's frequency-technique
//! claim, §IV-A's aggregation-gap conjecture, the §V future-work analyses,
//! and the scheduler use case.

use crate::scorecard::{get, shown, value};
use crate::{dataset, Check, Inputs, Measured, Row, Rows};
use mosaic_baselines::FftDetector;
use mosaic_core::categorize::DirectionReport;
use mosaic_core::category::{Category, OpKindTag, TemporalityLabel};
use mosaic_core::discovery::{discover, profiles, purity, reference_label};
use mosaic_core::online::decision_fraction;
use mosaic_core::{Categorizer, TraceReport};
use mosaic_darshan::ops::{OpKind, Operation, OperationView};
use mosaic_iosim::{MachineConfig, Simulation};
use mosaic_pipeline::interference::{analyze, stagger_what_if};
use mosaic_synth::dataset::YEAR_EPOCH;
use mosaic_synth::{programs, Payload};
use rand::SeedableRng;
use std::collections::BTreeMap;

const RUNTIME: f64 = 7200.0;
const FAST_PERIOD: f64 = 60.0;
const RATIOS: [f64; 6] = [3.0, 5.0, 8.0, 12.0, 20.0, 30.0];

/// A write train of `bytes` lasting `length` s every `period` s from `first`.
fn train(first: f64, period: f64, length: f64, bytes: u64) -> Vec<Operation> {
    let starts = (0..).map(|i| first + period * f64::from(i)).take_while(|t| t + length < RUNTIME);
    starts
        .map(|t| Operation { kind: OpKind::Write, start: t, end: t + length, bytes, ranks: 32 })
        .collect()
}

fn yes(found: bool) -> Measured {
    Measured::Text(if found { "yes" } else { "no" }.into())
}

pub(crate) fn baseline_fft(_: &Inputs) -> Rows {
    let categorizer = Categorizer::default();
    let det = FftDetector::default();
    let near = |p: f64, target: f64| (p - target).abs() < target * 0.1;
    let mut rows = Rows::new("§II-B");
    rows.add("fast period", Measured::Num(FAST_PERIOD, 0, " s"));
    let (mut mosaic_wins, mut fft_wins, mut fft_fast_misses) = (0, 0, 0);
    for ratio in RATIOS {
        let slow_period = FAST_PERIOD * ratio;
        // The fast train writes 100 MiB at second 10 of every minute; the
        // slow one 2 GiB at second 40 of every ratio-th minute, 28 s clear of
        // every fast write, so the neighbor merge never fuses the two.
        let mut writes = train(10.0, FAST_PERIOD, 2.0, 100 << 20);
        writes.extend(train(40.0, slow_period, 5.0, 2 << 30));
        writes.sort_by(|a, b| a.start.total_cmp(&b.start));
        let view =
            OperationView { runtime: RUNTIME, nprocs: 32, reads: vec![], writes, meta: vec![] };
        let report = categorizer.categorize(&view);
        let periods: Vec<f64> = report.write.periodic.iter().map(|p| p.period).collect();
        let fast = periods.iter().any(|&p| near(p, FAST_PERIOD));
        let slow = periods.iter().any(|&p| near(p, slow_period));
        let peaks = det.detect(&view.writes, RUNTIME);
        let fft_fast = peaks.iter().any(|d| near(d.period, FAST_PERIOD));
        let fft_slow = peaks.iter().any(|d| near(d.period, slow_period));
        mosaic_wins += usize::from(fast && slow);
        fft_wins += usize::from(fft_fast && fft_slow);
        fft_fast_misses += usize::from(!fft_fast);
        let at = format!("ratio {ratio}");
        rows.add(format!("{at}: MOSAIC periodic patterns"), Measured::Count(periods.len()));
        rows.add(format!("{at}: MOSAIC finds the fast period"), yes(fast));
        rows.add(format!("{at}: MOSAIC finds the slow period"), yes(slow));
        rows.add(format!("{at}: FFT finds the fast period"), yes(fft_fast));
        rows.add(format!("{at}: FFT finds the slow period"), yes(fft_slow));
    }
    rows.add("period ratios", Measured::Count(RATIOS.len()));
    rows.paper("ratios where MOSAIC separates both", "all", Measured::Count(mosaic_wins))
        .check(Check::AtLeast(RATIOS.len() as f64));
    rows.paper("ratios where the FFT separates both", "fails", Measured::Count(fft_wins))
        .check(Check::Within(0.0, 1.0));
    rows.add("ratios where the FFT misses the fast period", Measured::Count(fft_fast_misses));
    rows
}

/// The write verdict of one report, e.g. `Steady + periodic`.
fn write_verdict(write: &DirectionReport) -> Measured {
    let periodic = if write.periodic.is_empty() { "" } else { " + periodic" };
    Measured::Text(format!("{:?}{periodic}", write.temporality.label))
}

/// The checked §IV-A row: the share of steady-looking streams that DXT shows
/// to be periodic.
const DXT_SHARE: &str = "of those, share periodic under DXT";

pub(crate) fn dxt_gap(inputs: &Inputs) -> Rows {
    let categorizer = Categorizer::default();
    let mut rows = Rows::new("§IV-A");
    let (mut steady, mut periodic_under_dxt) = (0, 0);
    // Streaming writers keep one file open for the whole run (aggregated
    // `steady`) and write truly periodic slabs inside it. The fine-grained
    // dribble is the scale reference: DXT finds its cadence at the seconds
    // scale of library buffering, not the minutes-to-hours of checkpoints.
    for (label, slabs, slab_bytes, compute, seed, exe) in [
        ("stream, 30 s cadence", 60u32, 256u64 << 20, 30.0, 11, "/apps/stream"),
        ("stream, 2 min cadence", 30, 1 << 30, 120.0, 11, "/apps/stream"),
        ("stream, 10 min cadence", 12, 4 << 30, 600.0, 11, "/apps/stream"),
        ("stream, irregular cadence", 25, 512 << 20, 77.0, 11, "/apps/stream"),
        ("reference: fine-grained dribble", 400, 16 << 20, 4.5, 13, "/apps/dribble"),
    ] {
        let program = programs::steady_writer(slabs, slab_bytes, compute);
        let outcome = Simulation::new(MachineConfig::default(), 16, seed)
            .with_dxt()
            .run_detailed(&program, exe);
        let aggregated = categorizer.categorize_log(&outcome.trace).write;
        let dxt = outcome.dxt.expect("dxt enabled").operation_view();
        let dxt = categorizer.categorize(&dxt).write;
        let hidden = dxt
            .periodic
            .first()
            .map_or(Measured::Text("—".into()), |p| Measured::Num(p.period, 0, " s"));
        rows.add(format!("{label}: aggregated view"), write_verdict(&aggregated));
        rows.add(format!("{label}: DXT view"), write_verdict(&dxt));
        rows.add(format!("{label}: hidden period"), hidden);
        let looks_steady = aggregated.temporality.label == TemporalityLabel::Steady
            && aggregated.periodic.is_empty();
        if exe == "/apps/stream" && looks_steady {
            steady += 1;
            periodic_under_dxt += usize::from(!dxt.periodic.is_empty());
        }
    }
    rows.add("streams that look steady aggregated", Measured::Count(steady));
    rows.add("of those, periodic under DXT", Measured::Count(periodic_under_dxt));
    // The conjecture's "most": a majority of the steady-looking streams.
    let share = periodic_under_dxt as f64 / steady.max(1) as f64;
    rows.add(DXT_SHARE, Measured::pct(share)).check(Check::Above(0.5));
    let all = inputs.canonical().result.all_runs_counts();
    let write_steady = all.fraction(Category::Temporality {
        kind: OpKindTag::Write,
        label: TemporalityLabel::Steady,
    });
    rows.paper("all runs: write_steady (Table III)", "37%", Measured::pct(write_steady));
    rows
}

pub(crate) fn dxt_gap_reading(rows: &[Row]) -> Vec<String> {
    let steady = value(rows, "streams that look steady aggregated");
    let periodic = value(rows, "of those, periodic under DXT");
    let verdict = if get(rows, DXT_SHARE).passes() {
        "consistent with the paper's conjecture that most"
    } else {
        "which does not support the paper's conjecture that most"
    };
    let cited = get(rows, "all runs: write_steady (Table III)");
    vec![format!(
        "{periodic} of {steady} streaming workloads that look steady when aggregated are \
         periodic under DXT, {verdict} write_steady runs ({} of all-runs writes in the paper, \
         {} here) hide checkpoint-style periodicity.",
        cited.paper.unwrap_or("—"),
        cited.measured,
    )]
}

/// The k whose cluster profiles the scorecard lists.
const PROFILE_K: usize = 8;

pub(crate) fn discovery(inputs: &Inputs) -> Rows {
    let canonical = inputs.canonical();
    let reports: Vec<TraceReport> =
        canonical.result.representatives().map(|o| o.report.clone()).collect();
    let labels: Vec<String> = reports.iter().map(reference_label).collect();
    let cluster =
        |k| discover(&reports, k, &mut rand::rngs::StdRng::seed_from_u64(inputs.scale.seed));
    let mut rows = Rows::new("§V discovery");
    rows.add("single-run traces", Measured::Count(reports.len()));
    for k in [4, 6, 8, 10, 12] {
        let row = rows.add(format!("k = {k}: purity"), Measured::pct(purity(&cluster(k), &labels)));
        row.check(Check::Above(0.8));
        if k == 4 {
            row.deviation(
                "fewer clusters than joint-temporality labels: seed 5 of 0–9 gives 78.0%",
            );
        }
    }
    let k = PROFILE_K;
    let (mut quiet, mut quiet_traces, mut motif, mut steady, mut spiky) = (0, 0, 0, 0, 0);
    for profile in profiles(&reports, &cluster(k), 0.6) {
        let at = format!("k = {k}, cluster {}", profile.cluster);
        rows.add(format!("{at}: traces"), Measured::Count(profile.size));
        let names: Vec<String> = profile.dominant.iter().map(|(c, _)| c.name()).collect();
        for ((_, share), name) in profile.dominant.iter().zip(&names) {
            rows.add(format!("{at}: {name}"), Measured::Pct(*share, 0));
        }
        let has = |name: &str| names.iter().any(|n| n == name);
        if names.len() == 3
            && has("read_insignificant")
            && has("write_insignificant")
            && has("metadata_insignificant_load")
        {
            quiet += 1;
            quiet_traces += profile.size;
        }
        motif += usize::from(has("read_on_start") && has("write_on_end"));
        steady += usize::from(names.iter().any(|n| n.ends_with("_steady")));
        spiky += usize::from(has("metadata_high_spike"));
    }
    rows.add(
        format!("k = {k}: clusters with the all-insignificant profile"),
        Measured::Count(quiet),
    );
    rows.add(format!("k = {k}: traces in those clusters"), Measured::Count(quiet_traces));
    rows.add(
        format!("k = {k}: clusters showing read_on_start ∧ write_on_end"),
        Measured::Count(motif),
    );
    rows.add(format!("k = {k}: clusters showing a steady category"), Measured::Count(steady));
    rows.add(format!("k = {k}: clusters showing metadata_high_spike"), Measured::Count(spiky));
    rows
}

pub(crate) fn discovery_reading(rows: &[Row]) -> Vec<String> {
    let k = PROFILE_K;
    let at = |what: &str| shown(rows, &format!("k = {k}: {what}"));
    let steady = at("clusters showing a steady category");
    let mut sentence = format!(
        "Of the {k} cluster profiles at k = {k} (purity {}), {} ({} traces) are \
         all-insignificant; the read-compute-write motif is in {}, metadata_high_spike in {} \
         and a steady category in {steady}",
        at("purity"),
        at("clusters with the all-insignificant profile"),
        at("traces in those clusters"),
        at("clusters showing read_on_start ∧ write_on_end"),
        at("clusters showing metadata_high_spike"),
    );
    if steady == "0" {
        sentence.push_str(", so steady behaviour forms no cluster of its own");
    }
    vec![sentence + "."]
}

const GB: f64 = (1u64 << 30) as f64;
const TB: f64 = GB * 1024.0;
/// The canonical sample is far sparser than Blue Waters' concurrent load;
/// compressing its year-long timeline restores production-like overlap.
const COMPRESS: f64 = 50.0;
const PFS_BANDWIDTH: f64 = 1.0 * GB;
const BIN_SECONDS: f64 = 600.0;
/// The batch-release what-if's island bandwidth: small enough that
/// synchronized heavy starts visibly collide.
const ISLAND_BANDWIDTH: f64 = 0.2 * GB;
/// How long the staggering what-if may delay a window, in seconds.
const MAX_DELAY: f64 = 86_400.0;
const STAGGER_KS: [usize; 3] = [8, 4, 2];

pub(crate) fn interference(inputs: &Inputs) -> Rows {
    let result = &inputs.canonical().result;
    let mut outcomes = result.outcomes.clone();
    for o in &mut outcomes {
        let offset = (o.start_time - YEAR_EPOCH) as f64 / COMPRESS;
        let runtime = o.end_time - o.start_time;
        o.start_time = YEAR_EPOCH + offset as i64;
        o.end_time = o.start_time + runtime;
    }
    let report = analyze(&outcomes, PFS_BANDWIDTH, BIN_SECONDS);
    let mut rows = Rows::new("§V interference");
    rows.add("valid jobs", Measured::Count(outcomes.len()));
    rows.add("timeline compression", Measured::Num(COMPRESS, 0, "x"));
    rows.add("PFS bandwidth", Measured::Num(PFS_BANDWIDTH / GB, 1, " GB/s"));
    rows.add("bin width", Measured::Num(BIN_SECONDS, 0, " s"));
    rows.add("peak demand", Measured::Num(report.peak_demand / GB, 2, " GB/s"));
    rows.add("mean demand", Measured::Num(report.mean_demand / GB, 2, " GB/s"));
    rows.add("active bins", Measured::Count(report.active_bins));
    rows.add("contended bins", Measured::Count(report.contended_bins));
    let contended = report.contended_bins as f64 / report.active_bins.max(1) as f64;
    rows.add("contended share of active bins", Measured::pct(contended));
    let excess = report.contended_byte_seconds / (TB * 1024.0);
    rows.add("excess demand", Measured::Num(excess, 1, " PB·s"));
    // The per-category attribution exists only where some bin is contended.
    for (cat, score) in report.category_scores.iter().take(8) {
        rows.add(format!("participation: {}", cat.name()), Measured::Num(score / TB, 1, " TB·s"));
    }
    for (a, b, score) in report.pair_scores.iter().take(8) {
        let pair = format!("conflicting pair: {} × {}", a.name(), b.name());
        rows.add(pair, Measured::Num(score / TB, 1, " TB·s"));
    }
    if let Some((top, score)) = report.category_scores.first() {
        let total: f64 = report.category_scores.iter().map(|(_, s)| s).sum();
        rows.add(
            format!("largest participation share: {}", top.name()),
            Measured::pct(score / total),
        );
    }

    // The introduction's scenario: a scheduler releases the heaviest
    // read-on-start applications at one instant (after a maintenance
    // window, say). Only bursty categories can be staggered: delaying a
    // steady job moves its load rather than removing it.
    let read_start =
        Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart };
    let mut batch: Vec<_> =
        result.representatives().filter(|o| o.report.has(read_start)).cloned().collect();
    batch.sort_by_key(|o| std::cmp::Reverse(o.weight));
    batch.truncate(48);
    for o in &mut batch {
        let runtime = o.end_time - o.start_time;
        o.start_time = 0;
        o.end_time = runtime;
    }
    rows.add("batch: heavy read_on_start jobs released together", Measured::Count(batch.len()));
    if batch.len() < 4 {
        return rows;
    }
    let naive = analyze(&batch, ISLAND_BANDWIDTH, 60.0);
    rows.add("batch: island bandwidth", Measured::Num(ISLAND_BANDWIDTH / GB, 1, " GB/s"));
    rows.add("batch: co-start peak demand", Measured::Num(naive.peak_demand / GB, 1, " GB/s"));
    let volume = naive.contended_byte_seconds / TB;
    rows.add("batch: co-start contended volume", Measured::Num(volume, 1, " TB·s"));
    for k in STAGGER_KS {
        let (report, removed) =
            stagger_what_if(&batch, ISLAND_BANDWIDTH, 60.0, read_start, k, MAX_DELAY);
        let at = format!("batch: K = {k} at once");
        rows.add(format!("{at}, peak demand"), Measured::Num(report.peak_demand / GB, 1, " GB/s"));
        let row = rows.add(format!("{at}, contention removed"), Measured::pct(removed.max(0.0)));
        // Staggering must remove most of the co-start contention; K = 2
        // waits past the delay budget (see the reading).
        if k != 2 {
            row.check(Check::Above(0.5));
        }
    }
    rows
}

pub(crate) fn interference_reading(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    let top = rows.iter().find(|r| r.quantity.starts_with("largest participation share: "));
    out.push(match top {
        Some(row) => format!(
            "{} has the largest share of the year's contention participation ({}).",
            row.quantity.trim_start_matches("largest participation share: "),
            row.measured
        ),
        None => format!(
            "{} of {} active bins exceed the PFS bandwidth, so there is no year-scale \
             contention to attribute to a category.",
            shown(rows, "contended bins"),
            shown(rows, "active bins"),
        ),
    });
    if !rows.iter().any(|r| r.quantity == "batch: co-start contended volume") {
        return out;
    }
    if value(rows, "batch: co-start contended volume") == 0.0 {
        out.push("The co-started batch causes no contention to remove.".to_owned());
        return out;
    }
    let removed = |k: usize| get(rows, &format!("batch: K = {k} at once, contention removed"));
    let best = STAGGER_KS.into_iter().fold(STAGGER_KS[0], |a, k| {
        if removed(k).measured.value() > removed(a).measured.value() {
            k
        } else {
            a
        }
    });
    out.push(format!(
        "Admitting the batch a few jobs at a time removes up to {} of its contention \
         (K = {best}). A window delayed past the {:.0}-day budget runs at its original start, \
         beside the co-starting rest.",
        removed(best).measured,
        MAX_DELAY / 86_400.0
    ));
    // The fewer the slots, the more windows wait past the budget.
    if removed(2).measured.value() < removed(4).measured.value() {
        out.push(format!(
            "That is why K = 2 removes only {} where K = 4 removes {}.",
            removed(2).measured,
            removed(4).measured
        ));
    }
    out
}

/// Observation fractions, and how each decision bucket is named.
const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const BUCKETS: [&str; 4] =
    ["first final at 25%", "first final at 50%", "first final at 75%", "final only at 100%"];

/// A compact label for the trace's scheduler-relevant behaviour.
fn dominant_label(report: &TraceReport) -> String {
    let sig = |label: TemporalityLabel| label != TemporalityLabel::Insignificant;
    if report.has(Category::Periodic { kind: OpKindTag::Write }) {
        return "write_periodic".into();
    }
    let (read, write) = (report.read.temporality.label, report.write.temporality.label);
    match (sig(read), sig(write)) {
        (false, false) => "quiet".into(),
        (true, false) => format!("read_{}", read.suffix()),
        (false, true) => format!("write_{}", write.suffix()),
        (true, true) => format!("read_{}+write_{}", read.suffix(), write.suffix()),
    }
}

pub(crate) fn online(inputs: &Inputs) -> Rows {
    let ds = dataset(5000, 0.0, inputs.scale.seed);
    let categorizer = Categorizer::default();
    let mut per_category: BTreeMap<String, [usize; 4]> = BTreeMap::new();
    let (mut by_half, mut total) = (0, 0);
    for i in 0..ds.len() {
        let Payload::Log(log) = ds.generate(i).payload else { continue };
        let view = OperationView::from_log(&log);
        let key = dominant_label(&categorizer.categorize(&view));
        let bucket = match decision_fraction(&categorizer, &view, &FRACTIONS) {
            Some(f) if f <= 0.25 => 0,
            Some(f) if f <= 0.5 => 1,
            Some(f) if f <= 0.75 => 2,
            _ => 3,
        };
        per_category.entry(key).or_default()[bucket] += 1;
        by_half += usize::from(bucket <= 1);
        total += 1;
    }
    let mut rows = Rows::new("online");
    rows.add("traces", Measured::Count(total));
    for (category, hist) in &per_category {
        let n: usize = hist.iter().sum();
        rows.add(format!("{category}: traces"), Measured::Count(n));
        for (bucket, count) in BUCKETS.iter().zip(hist) {
            rows.add(format!("{category}: {bucket}"), Measured::pct(*count as f64 / n as f64));
        }
    }
    rows.add(
        "final verdict by half the runtime",
        Measured::pct(by_half as f64 / total.max(1) as f64),
    )
    .check(Check::Above(0.5));
    rows
}

pub(crate) fn online_reading(rows: &[Row]) -> Vec<String> {
    // Categories whose rows in `bucket` meet `keep`.
    let categories = |bucket: &str, keep: fn(f64) -> bool| -> String {
        let suffix = format!(": {bucket}");
        let names: Vec<&str> = rows
            .iter()
            .filter(|r| r.measured.value().is_some_and(keep))
            .filter_map(|r| r.quantity.strip_suffix(&suffix))
            .collect();
        if names.is_empty() {
            "none".to_owned()
        } else {
            names.join(", ")
        }
    };
    vec![
        format!(
            "{} of traces have their final verdict by half the runtime.",
            shown(rows, "final verdict by half the runtime")
        ),
        format!(
            "Settled at a quarter of the runtime in at least 90% of their traces: {}.",
            categories(BUCKETS[0], |v| v >= 0.9)
        ),
        format!(
            "Settled only at the end in every trace: {}. A scheduler should take those from \
             the application's previous runs (§III-B1 stability) rather than from live \
             observation.",
            categories(BUCKETS[3], |v| v >= 1.0)
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_train_keeps_its_cadence_inside_the_runtime() {
        let writes = train(10.0, FAST_PERIOD, 2.0, 100 << 20);
        // Starts 10, 70, …, 7150: the next, 7210, would end past the run.
        assert_eq!(writes.len(), 120);
        assert!(writes.iter().all(|w| w.end < RUNTIME && w.end - w.start == 2.0));
        assert!(writes.windows(2).all(|p| (p[1].start - p[0].start - FAST_PERIOD).abs() < 1e-9));
        assert_eq!(writes[0].start, 10.0);
    }

    fn dxt_rows(steady: usize, periodic: usize) -> Vec<Row> {
        let mut rows = Rows::new("§IV-A");
        rows.add("streams that look steady aggregated", Measured::Count(steady));
        rows.add("of those, periodic under DXT", Measured::Count(periodic));
        rows.add(DXT_SHARE, Measured::pct(periodic as f64 / steady as f64))
            .check(Check::Above(0.5));
        rows.paper("all runs: write_steady (Table III)", "37%", Measured::pct(0.3));
        rows.rows
    }

    #[test]
    fn the_dxt_reading_follows_the_majority_check() {
        let [majority] = &dxt_gap_reading(&dxt_rows(4, 3))[..] else { panic!("one sentence") };
        assert!(majority.starts_with("3 of 4 ") && majority.contains("consistent with"));
        assert!(majority.contains("(37% of all-runs writes in the paper, 30.0% here)"));
        // Half is not a majority.
        let [half] = &dxt_gap_reading(&dxt_rows(4, 2))[..] else { panic!("one sentence") };
        assert!(half.contains("does not support"), "{half}");
    }

    fn batch_rows(removed: [f64; 3]) -> Vec<Row> {
        let mut rows = Rows::new("§V interference");
        rows.add("largest participation share: read_on_start", Measured::pct(0.4));
        rows.add("batch: co-start contended volume", Measured::Num(2.0, 1, " TB·s"));
        for (k, share) in STAGGER_KS.into_iter().zip(removed) {
            rows.add(format!("batch: K = {k} at once, contention removed"), Measured::pct(share));
        }
        rows.rows
    }

    #[test]
    fn the_interference_reading_names_the_best_k_and_explains_a_trailing_k2() {
        let reading = interference_reading(&batch_rows([0.9, 0.95, 0.3]));
        assert_eq!(reading.len(), 3, "{reading:?}");
        assert!(reading[0].starts_with("read_on_start has the largest share"));
        assert!(reading[1].contains("up to 95.0% of its contention (K = 4)"), "{}", reading[1]);
        assert_eq!(reading[2], "That is why K = 2 removes only 30.0% where K = 4 removes 95.0%.");
        // K = 2 ahead of K = 4 needs no explanation.
        assert_eq!(interference_reading(&batch_rows([0.9, 0.5, 0.6])).len(), 2);
    }

    #[test]
    fn the_interference_reading_without_a_batch_reports_only_the_year() {
        let mut rows = Rows::new("§V interference");
        rows.add("active bins", Measured::Count(40));
        rows.add("contended bins", Measured::Count(0));
        let reading = interference_reading(&rows.rows);
        assert_eq!(reading.len(), 1);
        assert!(reading[0].starts_with("0 of 40 active bins exceed"), "{}", reading[0]);
    }

    #[test]
    fn the_online_reading_lists_categories_by_when_they_settle() {
        let mut rows = Rows::new("online");
        let hists = [("quiet", [1.0, 0.0, 0.0, 0.0]), ("write_periodic", [0.0, 0.0, 0.0, 1.0])];
        for (category, hist) in hists {
            for (bucket, share) in BUCKETS.iter().zip(hist) {
                rows.add(format!("{category}: {bucket}"), Measured::pct(share));
            }
        }
        rows.add("final verdict by half the runtime", Measured::pct(0.5));
        let reading = online_reading(&rows.rows);
        assert!(reading[0].starts_with("50.0% of traces"));
        assert!(reading[1].ends_with("runtime in at least 90% of their traces: quiet."));
        assert!(reading[2].starts_with("Settled only at the end in every trace: write_periodic."));
    }
}
