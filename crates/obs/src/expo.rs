//! Metric exposition: serializable registry snapshots and their rendering
//! as Prometheus/OpenMetrics text or JSON.
//!
//! A [`MetricsSnapshot`] is the frozen, ordering-stable view of everything
//! the run is measuring: families sorted by name, samples inside a family
//! sorted by their label sets, quantiles ascending. Because the ordering is
//! fixed at snapshot time, both renderings are byte-stable — the same
//! counters always produce the same file, which is what the committed
//! OpenMetrics golden and the CI `metrics-export` artifact rely on.
//!
//! The text rendering follows the OpenMetrics conventions a Prometheus
//! scrape expects: dotted registry names are mangled to `snake_case`
//! (`mosaic.arena.resident_bytes` → `mosaic_arena_resident_bytes`),
//! counters gain the `_total` suffix, summaries expand to
//! `{quantile="…"}` series plus `_sum`/`_count`, label values are escaped,
//! and the output ends with `# EOF`.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The three metric shapes the registry understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MetricKind {
    /// Monotonically increasing count (`_total` in OpenMetrics).
    Counter,
    /// Instantaneous level that can move both ways (or a watermark).
    Gauge,
    /// A quantile sketch exposed as `{quantile=…}` series + sum + count.
    Summary,
}

impl MetricKind {
    /// OpenMetrics `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// One exported series: its sorted labels and value. Summaries additionally
/// carry `(q, estimate)` pairs and an observation count; for counters and
/// gauges those stay empty/zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Label pairs, sorted by key (empty for unlabelled series).
    pub labels: Vec<(String, String)>,
    /// Counter total, gauge level, or summary sum.
    pub value: f64,
    /// Summary quantile estimates as `(q, value)`, ascending in `q`.
    #[serde(default)]
    pub quantiles: Vec<(f64, f64)>,
    /// Summary observation count (0 for counters/gauges).
    #[serde(default)]
    pub count: u64,
}

/// One metric family: a stable dotted name, its kind, a help line, and the
/// samples sharing the name (distinguished by labels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricFamily {
    /// Dotted lowercase registry name, e.g. `mosaic.arena.resident_bytes`.
    pub name: String,
    /// Counter, gauge, or summary.
    pub kind: MetricKind,
    /// One-line description, emitted as `# HELP`.
    pub help: String,
    /// Samples, sorted by label set.
    pub samples: Vec<Sample>,
}

/// A frozen, ordering-stable view of every registered metric — the unit of
/// exposition and of the `--metrics-out` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<MetricFamily>,
}

/// Mangle a dotted registry name into an OpenMetrics identifier.
fn om_name(name: &str) -> String {
    name.chars().map(|c| if c == '.' { '_' } else { c }).collect()
}

/// Escape a label value per the OpenMetrics text format.
fn om_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render a sample value: integers without a trailing `.0`, everything else
/// via Rust's shortest-roundtrip float formatting (deterministic).
fn om_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a label set as `{k="v",…}`, or nothing when empty. `extra` lets
/// summary quantile series append their `quantile` label last.
fn om_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", om_escape(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", om_escape(v));
    }
    out.push('}');
    out
}

impl MetricsSnapshot {
    /// Render as OpenMetrics/Prometheus text. Byte-stable for a given
    /// snapshot; ends with `# EOF`.
    pub fn to_openmetrics(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let name = om_name(&family.name);
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for sample in &family.samples {
                match family.kind {
                    MetricKind::Counter => {
                        let _ = writeln!(
                            out,
                            "{name}_total{} {}",
                            om_labels(&sample.labels, None),
                            om_value(sample.value)
                        );
                    }
                    MetricKind::Gauge => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            om_labels(&sample.labels, None),
                            om_value(sample.value)
                        );
                    }
                    MetricKind::Summary => {
                        for (q, est) in &sample.quantiles {
                            let q_str = format!("{q}");
                            let _ = writeln!(
                                out,
                                "{name}{} {}",
                                om_labels(&sample.labels, Some(("quantile", &q_str))),
                                om_value(*est)
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            om_labels(&sample.labels, None),
                            om_value(sample.value)
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            om_labels(&sample.labels, None),
                            sample.count
                        );
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Render as pretty JSON (sorted object keys — byte-stable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> MetricsSnapshot {
        MetricsSnapshot {
            families: vec![
                MetricFamily {
                    name: "mosaic.arena.resident_bytes".to_owned(),
                    kind: MetricKind::Gauge,
                    help: "Bytes resident in thread-local trace arenas".to_owned(),
                    samples: vec![Sample {
                        labels: vec![],
                        value: 4096.0,
                        quantiles: vec![],
                        count: 0,
                    }],
                },
                MetricFamily {
                    name: "mosaic.pipeline.evictions".to_owned(),
                    kind: MetricKind::Counter,
                    help: "Funnel evictions by reason".to_owned(),
                    samples: vec![
                        Sample {
                            labels: vec![("reason".to_owned(), "io-error".to_owned())],
                            value: 2.0,
                            quantiles: vec![],
                            count: 0,
                        },
                        Sample {
                            labels: vec![("reason".to_owned(), "parse-error".to_owned())],
                            value: 1.0,
                            quantiles: vec![],
                            count: 0,
                        },
                    ],
                },
                MetricFamily {
                    name: "mosaic.stage.latency_ns".to_owned(),
                    kind: MetricKind::Summary,
                    help: "Stage call latency".to_owned(),
                    samples: vec![Sample {
                        labels: vec![("stage".to_owned(), "parse".to_owned())],
                        value: 5000.0,
                        quantiles: vec![(0.5, 1056.0), (0.99, 4224.0)],
                        count: 4,
                    }],
                },
            ],
        }
    }

    #[test]
    fn openmetrics_text_has_types_suffixes_and_eof() {
        let text = snap().to_openmetrics();
        assert!(text.contains("# TYPE mosaic_arena_resident_bytes gauge"));
        assert!(text.contains("mosaic_arena_resident_bytes 4096\n"));
        assert!(text.contains("# TYPE mosaic_pipeline_evictions counter"));
        assert!(text.contains("mosaic_pipeline_evictions_total{reason=\"io-error\"} 2\n"));
        assert!(text.contains("# TYPE mosaic_stage_latency_ns summary"));
        assert!(text.contains("mosaic_stage_latency_ns{stage=\"parse\",quantile=\"0.5\"} 1056\n"));
        assert!(text.contains("mosaic_stage_latency_ns_sum{stage=\"parse\"} 5000\n"));
        assert!(text.contains("mosaic_stage_latency_ns_count{stage=\"parse\"} 4\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let labels = vec![("reason".to_owned(), "a\"b\\c\nd".to_owned())];
        assert_eq!(om_labels(&labels, None), "{reason=\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn rendering_is_byte_stable() {
        assert_eq!(snap().to_openmetrics(), snap().to_openmetrics());
        assert_eq!(snap().to_json(), snap().to_json());
    }

    #[test]
    fn json_roundtrips() {
        let s = snap();
        let back: MetricsSnapshot = serde_json::from_str(&s.to_json()).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn integer_values_drop_the_point_and_floats_keep_it() {
        assert_eq!(om_value(4096.0), "4096");
        assert_eq!(om_value(0.0), "0");
        assert_eq!(om_value(1056.5), "1056.5");
    }
}
