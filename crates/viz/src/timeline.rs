//! The Fig 2-style trace-processing timeline.
//!
//! Four stacked lanes over a shared time axis:
//!
//! 1. **raw operations** — the per-record intervals as extracted from the
//!    trace (reads above the midline, writes below);
//! 2. **after pre-processing** — the merged operations, with detected
//!    periodic patterns tinted per pattern;
//! 3. **temporal chunks** — the four quartiles shaded by their byte share
//!    (the temporality evidence);
//! 4. **metadata requests** — the per-second request histogram with the
//!    spike threshold marked.

use crate::svg::{ramp, Svg, PALETTE};
use mosaic_core::merge::merge_all;
use mosaic_core::TraceReport;
use mosaic_darshan::ops::{OpKind, Operation, OperationView};

const WIDTH: f64 = 900.0;
const LANE_H: f64 = 70.0;
const MARGIN_L: f64 = 120.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 30.0;
const GAP: f64 = 18.0;

/// Render the timeline for a view plus its categorization report.
pub fn render(view: &OperationView, report: &TraceReport) -> String {
    let lanes = 4;
    let height = MARGIN_T + lanes as f64 * (LANE_H + GAP) + 30.0;
    let mut svg = Svg::new(WIDTH, height);
    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let runtime = view.runtime.max(1e-9);
    let x_of = |t: f64| MARGIN_L + (t / runtime).clamp(0.0, 1.0) * plot_w;

    svg.text(
        MARGIN_L,
        18.0,
        12.0,
        "start",
        "black",
        &format!(
            "trace timeline — runtime {:.0} s, {} ranks, categories: {}",
            view.runtime,
            view.nprocs,
            report.names().join(", ")
        ),
    );

    // Lane 1: raw operations.
    let y0 = MARGIN_T + 10.0;
    svg.text(8.0, y0 + LANE_H / 2.0, 10.0, "start", "black", "raw operations");
    draw_ops(&mut svg, &view.reads, x_of, y0, LANE_H / 2.0 - 2.0, PALETTE[0]);
    draw_ops(&mut svg, &view.writes, x_of, y0 + LANE_H / 2.0 + 2.0, LANE_H / 2.0 - 2.0, PALETTE[1]);

    // Lane 2: merged operations with periodic tinting.
    let y1 = y0 + LANE_H + GAP;
    svg.text(8.0, y1 + LANE_H / 2.0, 10.0, "start", "black", "after merging");
    let config = mosaic_core::CategorizerConfig::default();
    let merged_reads = merge_all(&view.reads, view.runtime, &config);
    let merged_writes = merge_all(&view.writes, view.runtime, &config);
    draw_merged(&mut svg, &merged_reads, report, OpKind::Read, x_of, y1, LANE_H / 2.0 - 2.0);
    draw_merged(
        &mut svg,
        &merged_writes,
        report,
        OpKind::Write,
        x_of,
        y1 + LANE_H / 2.0 + 2.0,
        LANE_H / 2.0 - 2.0,
    );

    // Lane 3: temporal chunks.
    let y2 = y1 + LANE_H + GAP;
    svg.text(8.0, y2 + LANE_H / 2.0, 10.0, "start", "black", "temporal chunks");
    draw_chunks(
        &mut svg,
        &report.read.temporality.chunk_bytes,
        x_of,
        y2,
        LANE_H / 2.0 - 2.0,
        runtime,
    );
    draw_chunks(
        &mut svg,
        &report.write.temporality.chunk_bytes,
        x_of,
        y2 + LANE_H / 2.0 + 2.0,
        LANE_H / 2.0 - 2.0,
        runtime,
    );

    // Lane 4: metadata histogram.
    let y3 = y2 + LANE_H + GAP;
    svg.text(8.0, y3 + LANE_H / 2.0, 10.0, "start", "black", "metadata req/s");
    draw_meta(&mut svg, view, x_of, y3, LANE_H, &config);

    // Time axis.
    let axis_y = y3 + LANE_H + 14.0;
    svg.line(MARGIN_L, axis_y, WIDTH - MARGIN_R, axis_y, "black", 1.0);
    for i in 0..=4 {
        let t = runtime * i as f64 / 4.0;
        let x = x_of(t);
        svg.line(x, axis_y - 3.0, x, axis_y + 3.0, "black", 1.0);
        svg.text(x, axis_y + 12.0, 9.0, "middle", "black", &format!("{t:.0} s"));
        if i > 0 && i < 4 {
            svg.guide(x, MARGIN_T + 10.0, axis_y, "#bbbbbb");
        }
    }
    svg.finish()
}

fn draw_ops(
    svg: &mut Svg,
    ops: &[Operation],
    x_of: impl Fn(f64) -> f64,
    y: f64,
    h: f64,
    fill: &str,
) {
    for op in ops {
        let x = x_of(op.start);
        let w = (x_of(op.end) - x).max(1.0);
        svg.rect(x, y, w, h, fill, None);
    }
}

fn draw_merged(
    svg: &mut Svg,
    merged: &[Operation],
    report: &TraceReport,
    kind: OpKind,
    x_of: impl Fn(f64) -> f64,
    y: f64,
    h: f64,
) {
    let patterns = &report.direction(kind).periodic;
    for (i, op) in merged.iter().enumerate() {
        // Color by owning periodic pattern, grey for one-offs.
        let color = patterns
            .iter()
            .enumerate()
            .find(|(_, p)| p.members.contains(&i))
            .map(|(pi, _)| PALETTE[(2 + pi) % PALETTE.len()])
            .unwrap_or("#999999");
        let x = x_of(op.start);
        let w = (x_of(op.end) - x).max(1.5);
        svg.rect(x, y, w, h, color, Some("black"));
    }
    for (pi, p) in patterns.iter().enumerate() {
        let label = format!("{} periodic: {} × {:.0} s", kind.label(), p.occurrences, p.period);
        svg.text(x_of(0.0), y - 2.0, 8.0, "start", PALETTE[(2 + pi) % PALETTE.len()], &label);
    }
}

fn draw_chunks(
    svg: &mut Svg,
    chunk_bytes: &[f64],
    x_of: impl Fn(f64) -> f64,
    y: f64,
    h: f64,
    runtime: f64,
) {
    let max = chunk_bytes.iter().cloned().fold(0.0f64, f64::max);
    let n = chunk_bytes.len().max(1);
    for (i, &bytes) in chunk_bytes.iter().enumerate() {
        let t0 = runtime * i as f64 / n as f64;
        let t1 = runtime * (i + 1) as f64 / n as f64;
        let share = if max > 0.0 { bytes / max } else { 0.0 };
        svg.rect(x_of(t0), y, x_of(t1) - x_of(t0) - 1.0, h, &ramp(share), Some("#888888"));
    }
}

fn draw_meta(
    svg: &mut Svg,
    view: &OperationView,
    x_of: impl Fn(f64) -> f64,
    y: f64,
    h: f64,
    config: &mosaic_core::CategorizerConfig,
) {
    let seconds = mosaic_core::metadata::occupied_seconds(&view.meta, view.runtime);
    let peak =
        seconds.iter().map(|&(_, n)| n).max().unwrap_or(0).max(config.high_spike_requests) as f64;
    for &(sec, count) in &seconds {
        if count == 0 {
            continue;
        }
        let x = x_of(sec as f64);
        let w = (x_of(sec as f64 + 1.0) - x).max(0.8);
        let bar = h * count as f64 / peak;
        svg.rect(x, y + h - bar, w, bar, PALETTE[3], None);
    }
    // Spike threshold line.
    let thresh_y = y + h - h * config.high_spike_requests as f64 / peak;
    svg.line(x_of(0.0), thresh_y, x_of(view.runtime), thresh_y, "#c45a5a", 0.75);
    svg.text(
        x_of(view.runtime),
        thresh_y - 2.0,
        8.0,
        "end",
        "#c45a5a",
        &format!("high spike ({})", config.high_spike_requests),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::Categorizer;
    use mosaic_darshan::ops::{MetaEvent, MetaKind};

    fn sample_view() -> OperationView {
        let writes: Vec<Operation> = (0..5)
            .map(|i| Operation {
                kind: OpKind::Write,
                start: 50.0 + 100.0 * i as f64,
                end: 60.0 + 100.0 * i as f64,
                bytes: 300 << 20,
                ranks: 16,
            })
            .collect();
        let meta: Vec<MetaEvent> = (0..5)
            .map(|i| MetaEvent { time: 50.0 + 100.0 * i as f64, kind: MetaKind::Open, count: 300 })
            .collect();
        OperationView {
            runtime: 550.0,
            nprocs: 16,
            reads: vec![Operation {
                kind: OpKind::Read,
                start: 2.0,
                end: 20.0,
                bytes: 500 << 20,
                ranks: 16,
            }],
            writes,
            meta,
        }
    }

    #[test]
    fn renders_all_lanes() {
        let view = sample_view();
        let report = Categorizer::default().categorize(&view);
        let svg = render(&view, &report);
        assert!(svg.starts_with("<svg"));
        for label in ["raw operations", "after merging", "temporal chunks", "metadata req/s"] {
            assert!(svg.contains(label), "missing lane {label}");
        }
        assert!(svg.contains("periodic"), "periodic annotation missing");
        assert!(svg.contains("high spike"));
    }

    #[test]
    fn empty_view_still_renders() {
        let view = OperationView {
            runtime: 100.0,
            nprocs: 1,
            reads: vec![],
            writes: vec![],
            meta: vec![],
        };
        let report = Categorizer::default().categorize(&view);
        let svg = render(&view, &report);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn output_is_deterministic() {
        let view = sample_view();
        let report = Categorizer::default().categorize(&view);
        assert_eq!(render(&view, &report), render(&view, &report));
    }
}
