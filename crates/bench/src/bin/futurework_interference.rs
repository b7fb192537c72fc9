//! **§V future work** — concurrency-aware interference analysis.
//!
//! The paper closes with the goal of identifying "whether some categories
//! are more conflicting than others" and using that for job scheduling
//! (intro example: "two jobs categorized as reading large volumes of data
//! at the start of execution could be scheduled so as not to overlap").
//!
//! This binary runs the interference analysis over the synthetic year:
//! contention participation per category, the most conflicting category
//! pairs, and the category-aware staggering what-if.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin futurework_interference [-- --n 20000]
//! ```

use mosaic_bench::{dataset, pct, run_pipeline, Flags};
use mosaic_core::category::{Category, OpKindTag, TemporalityLabel};
use mosaic_pipeline::interference::{analyze, stagger_what_if};
use mosaic_synth::dataset::YEAR_EPOCH;

const GB: f64 = (1u64 << 30) as f64;
/// How long the staggering what-if may delay a window, in seconds.
const MAX_DELAY: f64 = 86_400.0;

fn main() {
    let flags = Flags::from_args();
    let ds = dataset(&flags);
    let result = run_pipeline(&ds, None);
    // The scaled-down sample (tens of thousands of jobs vs Blue Waters'
    // hundreds of concurrent jobs) is too sparse to collide on a year-long
    // timeline; compressing the timeline restores production-like
    // concurrency. A modest PFS bandwidth plays the same role.
    let compress = flags.get("compress", 50.0f64);
    let pfs_bandwidth = flags.get("bandwidth-gbs", 1.0f64) * GB;
    let bin = 600.0;

    let mut outcomes = result.outcomes.clone();
    for o in &mut outcomes {
        let offset = (o.start_time - YEAR_EPOCH) as f64 / compress;
        let runtime = o.end_time - o.start_time;
        o.start_time = YEAR_EPOCH + offset as i64;
        o.end_time = o.start_time + runtime;
    }

    let report = analyze(&outcomes, pfs_bandwidth, bin);
    println!(
        "§V — interference over {} valid jobs (timeline ÷{compress}), PFS {:.1} GB/s, {}-s bins\n",
        outcomes.len(),
        pfs_bandwidth / GB,
        bin
    );
    println!(
        "aggregate demand: peak {:.2} GB/s, mean {:.2} GB/s",
        report.peak_demand / GB,
        report.mean_demand / GB
    );
    println!(
        "contended bins: {} of {} active ({})",
        report.contended_bins,
        report.active_bins,
        pct(report.contended_bins as f64 / report.active_bins.max(1) as f64)
    );
    println!(
        "contended volume: {:.1} PB·s of excess demand",
        report.contended_byte_seconds / (GB * 1024.0 * 1024.0)
    );

    // The per-category attribution only exists where some bin is contended.
    if let Some((top, score)) = report.category_scores.first() {
        println!("\ncontention participation by category:");
        for (cat, score) in report.category_scores.iter().take(8) {
            println!("  {:>10.1} TB·s  {}", score / (GB * 1024.0), cat.name());
        }

        println!("\nmost conflicting category pairs:");
        for (a, b, score) in report.pair_scores.iter().take(8) {
            println!("  {:>10.1} TB·s  {}  ×  {}", score / (GB * 1024.0), a.name(), b.name());
        }
        let total: f64 = report.category_scores.iter().map(|(_, s)| s).sum();
        println!(
            "\nreading: {} has the largest share of the year's contention\nparticipation ({}).",
            top.name(),
            pct(score / total)
        );
    } else {
        println!(
            "\nreading: no bin exceeds the PFS bandwidth, so there is no year-scale\n\
             contention to attribute to a category."
        );
    }

    // The intro's scheduling example, quantified — per category, because
    // only *bursty* categories can be staggered (a steady job occupies the
    // machine for its whole life; delaying it moves, not removes, its load).
    batch_release_what_if(&result);
}

/// The introduction's scenario, controlled: a scheduler releases a batch of
/// heavy read-on-start jobs at the same instant (what happens after a
/// maintenance window or a queue flush). Compare the contention of the
/// naive co-start against K-slot category-aware staggering.
fn batch_release_what_if(result: &mosaic_pipeline::PipelineResult) {
    let read_start =
        Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart };
    // The 24 heaviest read-on-start applications, forced to co-start.
    let mut batch: Vec<_> =
        result.representatives().filter(|o| o.report.has(read_start)).cloned().collect();
    batch.sort_by_key(|o| std::cmp::Reverse(o.weight));
    batch.truncate(48);
    for o in &mut batch {
        let runtime = o.end_time - o.start_time;
        o.start_time = 0;
        o.end_time = runtime;
    }
    if batch.len() < 4 {
        println!("\n(not enough read_on_start jobs for the batch-release what-if)");
        return;
    }

    // Sized like a shared I/O island / burst-buffer partition: small enough
    // that synchronized heavy starts visibly collide.
    let bw = 0.2 * GB;
    let naive = analyze(&batch, bw, 60.0);
    println!(
        "\nwhat-if — batch release of {} heavy read_on_start jobs on a {:.1} GB/s PFS:",
        batch.len(),
        bw / GB
    );
    println!(
        "  naive co-start:          peak demand {:.1} GB/s, contended volume {:.1} TB·s",
        naive.peak_demand / GB,
        naive.contended_byte_seconds / (GB * 1024.0)
    );
    let removed = [8usize, 4, 2].map(|k| {
        let (report, removed) = stagger_what_if(&batch, bw, 60.0, read_start, k, MAX_DELAY);
        println!(
            "  staggered, K={k:>2} at once: peak demand {:.1} GB/s, contention removed {}",
            report.peak_demand / GB,
            pct(removed.max(0.0))
        );
        (k, removed.max(0.0))
    });
    // A window that would wait past the delay budget runs at its original
    // start instead, beside the co-starting rest. The fewer the slots, the
    // more windows wait that long, so fewer slots can remove less.
    let [_, (_, four), (_, two)] = removed;
    let (best_k, best) = removed.into_iter().fold((0, 0.0), |a, r| if r.1 > a.1 { r } else { a });
    if naive.contended_byte_seconds == 0.0 {
        println!("\nreading: the co-started batch causes no contention to remove.");
        return;
    }
    println!(
        "\nreading: admitting the batch a few jobs at a time removes up to {} of its\n\
         contention (K = {best_k}). A window delayed past the {:.0}-day budget runs at its\n\
         original start, beside the co-starting rest.",
        pct(best),
        MAX_DELAY / 86_400.0
    );
    if two < four {
        println!("That is why K = 2 removes only {} where K = 4 removes {}.", pct(two), pct(four));
    }
}
