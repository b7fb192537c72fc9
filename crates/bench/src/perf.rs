//! The recorded performance trajectory: the `BENCH_sec4e.json` schema, its
//! writer, and the throughput-regression gate CI enforces.
//!
//! `sec4e_performance` emits one report per run. The repository commits a
//! baseline (`BENCH_sec4e.json` at the workspace root); `bench_gate`
//! compares a fresh run against it and fails when throughput regresses by
//! more than the configured fraction.

use mosaic_obs::RELATIVE_ERROR;
use mosaic_pipeline::PipelineResult;
use serde_json::{json, Value};

/// Schema version of the report; bump on breaking layout changes.
///
/// v2: per-stage `p50_ns`/`p99_ns` come from the log-linear
/// [`mosaic_obs::QuantileSketch`] (no longer power-of-two bucket
/// midpoints) and the report carries `quantile_error_bound` — the
/// sketch's advertised relative error — so validators know how much
/// slack the percentile invariants are owed.
pub const SCHEMA_VERSION: u64 = 2;

/// Top-level keys every report must carry.
pub const REQUIRED_KEYS: [&str; 7] = [
    "schema_version",
    "n_traces",
    "valid",
    "traces_per_sec",
    "workers",
    "quantile_error_bound",
    "stages",
];

/// Per-stage keys every `stages[]` entry must carry.
pub const STAGE_KEYS: [&str; 5] = ["stage", "calls", "p50_ns", "p99_ns", "max_ns"];

/// Build the report for one wire-fed benchmark run. `secs` is the run's
/// wall-clock seconds over pre-serialized inputs; per-stage percentiles
/// come from the run's quantile sketches (relative error ≤
/// `quantile_error_bound`, exported as nanoseconds).
pub fn report(n_traces: usize, secs: f64, run: &PipelineResult) -> Value {
    let traces_per_sec = if secs > 0.0 { n_traces as f64 / secs } else { 0.0 };
    let stages: Vec<Value> = run
        .metrics
        .stages
        .iter()
        .map(|s| {
            json!({
                "stage": s.stage,
                "calls": s.calls,
                "total_seconds": s.total_seconds,
                "p50_ns": s.p50_micros * 1_000.0,
                "p99_ns": s.p99_micros * 1_000.0,
                "max_ns": s.max_micros * 1_000.0,
            })
        })
        .collect();
    json!({
        "schema_version": SCHEMA_VERSION,
        "n_traces": n_traces,
        "valid": run.funnel.valid,
        "traces_per_sec": traces_per_sec,
        "workers": run.metrics.workers,
        "quantile_error_bound": RELATIVE_ERROR,
        "stages": stages,
    })
}

fn f64_of(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing numeric key {key:?}"))
}

/// Validate a report against the schema: all required keys present, a
/// plausible `quantile_error_bound`, every stage entry complete with
/// monotone percentiles (`p50 ≤ p99`, and `p99` within the quantile
/// tolerance band of the exact `max_ns` sample), and nonzero throughput.
pub fn validate(v: &Value) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if v.get(key).is_none() {
            return Err(format!("missing required key {key:?}"));
        }
    }
    let version = f64_of(v, "schema_version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("schema_version {version} != supported {SCHEMA_VERSION}"));
    }
    let band = f64_of(v, "quantile_error_bound")?;
    if !(band > 0.0 && band < 1.0) {
        return Err(format!("quantile_error_bound {band} outside (0, 1)"));
    }
    if f64_of(v, "traces_per_sec")? <= 0.0 {
        return Err("traces_per_sec must be > 0".to_owned());
    }
    let stages = v
        .get("stages")
        .and_then(Value::as_array)
        .ok_or_else(|| "stages must be an array".to_owned())?;
    if stages.is_empty() {
        return Err("stages must be non-empty".to_owned());
    }
    for (i, s) in stages.iter().enumerate() {
        for key in STAGE_KEYS {
            if s.get(key).is_none() {
                return Err(format!("stage entry {i} missing key {key:?}"));
            }
        }
        // p50/p99 come from the same monotone sketch scan, so ordering must
        // hold exactly. `max_ns` is an exact sample while the percentiles
        // are sketch estimates: p99 may sit below max (usual) or above it by
        // at most the sketch's relative error (p99 estimates the true p99,
        // which is ≤ max).
        let (p50, p99, max) = (f64_of(s, "p50_ns")?, f64_of(s, "p99_ns")?, f64_of(s, "max_ns")?);
        if p50 > p99 {
            return Err(format!(
                "stage entry {i}: percentiles not monotone: p50 {p50} > p99 {p99}"
            ));
        }
        if p99 > max * (1.0 + band) {
            return Err(format!(
                "stage entry {i}: p99 {p99} exceeds max {max} beyond the \
                 quantile tolerance band ({band})"
            ));
        }
        if p50 < 0.0 || max < 0.0 {
            return Err(format!("stage entry {i}: negative duration"));
        }
    }
    Ok(())
}

/// The regression gate: both reports must validate, the current throughput
/// may not fall more than `max_regression` (a fraction, e.g. `0.10`) below
/// the baseline's, and no stage's p99 latency may grow past `max_p99_ratio`
/// times its baseline value (a deliberately loose multiple — sub-µs stage
/// percentiles are noisy across machines, so this catches order-of-magnitude
/// blowups, not jitter). Returns a human-readable verdict either way; `Err`
/// means the gate fails.
pub fn gate(
    baseline: &Value,
    current: &Value,
    max_regression: f64,
    max_p99_ratio: f64,
) -> Result<String, String> {
    validate(baseline).map_err(|e| format!("baseline report invalid: {e}"))?;
    validate(current).map_err(|e| format!("current report invalid: {e}"))?;
    let base = f64_of(baseline, "traces_per_sec")?;
    let cur = f64_of(current, "traces_per_sec")?;
    let floor = base * (1.0 - max_regression);
    let delta = (cur - base) / base;
    if cur < floor {
        return Err(format!(
            "throughput regression: {cur:.0} traces/s vs baseline {base:.0} \
             ({:+.1}%, allowed floor {floor:.0})",
            100.0 * delta
        ));
    }
    // Per-stage p99 gate, matched by stage name: stages present in only one
    // report are skipped (schema evolution must not hard-fail the gate).
    let stage_p99s = |v: &Value| -> Vec<(String, f64)> {
        v.get("stages")
            .and_then(Value::as_array)
            .map(|stages| {
                stages
                    .iter()
                    .filter_map(|s| {
                        let name = s.get("stage").and_then(Value::as_str)?;
                        let p99 = s.get("p99_ns").and_then(Value::as_f64)?;
                        Some((name.to_owned(), p99))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_stages = stage_p99s(baseline);
    for (name, cur_p99) in stage_p99s(current) {
        let Some((_, base_p99)) = base_stages.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        // Floor the baseline at 1 µs: ratios on tens-of-nanoseconds stages
        // are pure measurement noise.
        let ceiling = base_p99.max(1_000.0) * max_p99_ratio;
        if cur_p99 > ceiling {
            return Err(format!(
                "stage {name:?} p99 regression: {cur_p99:.0} ns vs baseline {base_p99:.0} ns \
                 (ceiling {ceiling:.0} ns at {max_p99_ratio}x)"
            ));
        }
    }
    Ok(format!(
        "throughput ok: {cur:.0} traces/s vs baseline {base:.0} ({:+.1}%, floor {floor:.0}); \
         all stage p99s within {max_p99_ratio}x of baseline",
        100.0 * delta
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_pipeline_inputs, wire_inputs};
    use mosaic_synth::{Dataset, DatasetConfig};

    fn sample_report() -> Value {
        let ds = Dataset::new(DatasetConfig { n_traces: 40, corruption_rate: 0.3, seed: 7 });
        let inputs = wire_inputs(&ds);
        let run = run_pipeline_inputs(inputs, Some(1));
        report(ds.len(), 0.5, &run)
    }

    /// Return the report with `key` replaced (the shim `Value` has no
    /// mutation API, so tests rebuild via the public enum variants).
    fn with_key(mut r: Value, key: &str, val: Value) -> Value {
        if let Value::Object(map) = &mut r {
            map.insert(key.to_owned(), val);
        }
        r
    }

    fn without_key(mut r: Value, key: &str) -> Value {
        if let Value::Object(map) = &mut r {
            map.remove(key);
        }
        r
    }

    fn with_stage0_key(mut r: Value, key: &str, val: Value) -> Value {
        if let Value::Object(map) = &mut r {
            if let Some(Value::Array(stages)) = map.get_mut("stages") {
                if let Some(Value::Object(stage)) = stages.first_mut() {
                    stage.insert(key.to_owned(), val);
                }
            }
        }
        r
    }

    #[test]
    fn emitted_report_satisfies_its_own_schema() {
        let r = sample_report();
        validate(&r).unwrap();
        // Spot-check the advertised values.
        assert_eq!(r["schema_version"].as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(r["n_traces"].as_u64(), Some(40));
        assert!(r["valid"].as_u64().unwrap() > 0);
        assert!((r["traces_per_sec"].as_f64().unwrap() - 80.0).abs() < 1e-9);
        assert_eq!(r["stages"].as_array().unwrap().len(), 5);
    }

    #[test]
    fn schema_rejects_missing_keys_and_degenerate_values() {
        let r = without_key(sample_report(), "workers");
        assert!(validate(&r).unwrap_err().contains("workers"));

        let r = with_key(sample_report(), "traces_per_sec", json!(0.0));
        assert!(validate(&r).unwrap_err().contains("traces_per_sec"));

        let r = with_key(sample_report(), "stages", json!([]));
        assert!(validate(&r).unwrap_err().contains("non-empty"));

        let r = with_key(sample_report(), "schema_version", json!(99));
        assert!(validate(&r).unwrap_err().contains("schema_version"));

        let r = with_key(sample_report(), "quantile_error_bound", json!(1.5));
        assert!(validate(&r).unwrap_err().contains("quantile_error_bound"));

        let r = without_key(sample_report(), "quantile_error_bound");
        assert!(validate(&r).unwrap_err().contains("quantile_error_bound"));
    }

    #[test]
    fn schema_rejects_p99_outside_the_tolerance_band() {
        // p99 above max × (1 + band) cannot come from a sound sketch: the
        // true p99 is ≤ max, and the estimate errs by at most the band.
        let r = with_stage0_key(sample_report(), "p50_ns", json!(1.0));
        let r = with_stage0_key(r, "p99_ns", json!(2_000.0));
        let r = with_stage0_key(r, "max_ns", json!(1_000.0));
        let err = validate(&r).unwrap_err();
        assert!(err.contains("tolerance band"), "{err}");

        // ...but p99 slightly above max — within the band — is legitimate
        // (midpoint estimate of the bucket holding the max sample).
        let r = with_stage0_key(sample_report(), "p50_ns", json!(1.0));
        let r = with_stage0_key(r, "p99_ns", json!(1_030.0));
        let r = with_stage0_key(r, "max_ns", json!(1_000.0));
        validate(&r).unwrap();
    }

    #[test]
    fn schema_rejects_non_monotone_percentiles() {
        let r = with_stage0_key(sample_report(), "p50_ns", json!(10_000.0));
        let r = with_stage0_key(r, "p99_ns", json!(1.0));
        let err = validate(&r).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn gate_passes_small_dips_and_fails_large_ones() {
        let base = sample_report();
        let base_rate = base["traces_per_sec"].as_f64().unwrap();

        // 5% below: within the 10% allowance.
        let current = with_key(base.clone(), "traces_per_sec", json!(base_rate * 0.95));
        gate(&base, &current, 0.10, 3.0).unwrap();

        // 15% below: gate fails.
        let current = with_key(base.clone(), "traces_per_sec", json!(base_rate * 0.85));
        let err = gate(&base, &current, 0.10, 3.0).unwrap_err();
        assert!(err.contains("regression"), "{err}");

        // Faster than baseline always passes.
        let current = with_key(base.clone(), "traces_per_sec", json!(base_rate * 2.0));
        gate(&base, &current, 0.10, 3.0).unwrap();
    }

    #[test]
    fn gate_catches_stage_p99_blowups_but_tolerates_noise() {
        let base = sample_report();
        // Pin a baseline stage p99 above the 1 µs noise floor so the ratio
        // is meaningful, keeping max within the tolerance band.
        let base = with_stage0_key(base, "p50_ns", json!(1_000.0));
        let base = with_stage0_key(base, "p99_ns", json!(10_000.0));
        let base = with_stage0_key(base, "max_ns", json!(20_000.0));

        // 2x the baseline p99: inside the 3x ceiling.
        let current = with_stage0_key(base.clone(), "p99_ns", json!(20_000.0));
        gate(&base, &current, 0.10, 3.0).unwrap();

        // 5x the baseline p99: the gate fails and names the stage.
        let current = with_stage0_key(base.clone(), "p99_ns", json!(50_000.0));
        let current = with_stage0_key(current, "max_ns", json!(60_000.0));
        let err = gate(&base, &current, 0.10, 3.0).unwrap_err();
        assert!(err.contains("p99 regression"), "{err}");
    }

    #[test]
    fn gate_refuses_invalid_reports() {
        let base = sample_report();
        let err = gate(&base, &json!({}), 0.10, 3.0).unwrap_err();
        assert!(err.contains("current report invalid"), "{err}");
        let err = gate(&json!({"schema_version": 2}), &base, 0.10, 3.0).unwrap_err();
        assert!(err.contains("baseline report invalid"), "{err}");
    }
}
