//! Offline shim for the `criterion` crate.
//!
//! Keeps the `criterion_group!`/`criterion_main!` + `benchmark_group` +
//! `bench_with_input` surface so the workspace's benches compile and run
//! offline, but replaces the statistics engine with a plain
//! warmup-then-measure loop that prints mean wall-clock time per iteration.
//! Numbers are indicative, not rigorous.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall-clock by definition"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// The entry point handed to each `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _criterion: self, name: name.into(), sample_size: 100, throughput: None }
    }
}

/// Units for derived rates; recorded and echoed alongside timings.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A named benchmark within a group, e.g. `concurrent/10000`.
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId { function: function.into(), parameter: parameter.to_string() }
    }
}

pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher { sample_size: self.sample_size, mean_ns: 0.0, iters: 0 };
        routine(&mut bencher, input);
        let label = format!("{}/{}/{}", self.name, id.function, id.parameter);
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if bencher.mean_ns > 0.0 => {
                format!("  {:.1} Melem/s", n as f64 / bencher.mean_ns * 1e3)
            }
            Some(Throughput::Bytes(n)) if bencher.mean_ns > 0.0 => {
                format!("  {:.1} MiB/s", n as f64 / bencher.mean_ns * 1e9 / (1 << 20) as f64)
            }
            _ => String::new(),
        };
        println!("bench {label}: {:.1} ns/iter ({} iters){rate}", bencher.mean_ns, bencher.iters);
        println!("{}", machine_line(&label, bencher.mean_ns, bencher.iters));
        self
    }

    pub fn finish(self) {}
}

/// The stable machine-readable result line emitted after the human one:
/// a `BENCH_RESULT ` prefix followed by a single-line JSON object with
/// fixed keys (`name`, `ns_per_iter`, `iters`). Scripts grep the prefix and
/// parse the rest; the human line above it stays free to change.
pub fn machine_line(label: &str, mean_ns: f64, iters: u64) -> String {
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    format!(
        "BENCH_RESULT {{\"name\":\"{escaped}\",\"ns_per_iter\":{mean_ns:.1},\"iters\":{iters}}}"
    )
}

/// Runs and times one benchmark routine.
pub struct Bencher {
    sample_size: usize,
    mean_ns: f64,
    iters: u64,
}

/// Per-routine wall-clock budget; keeps full bench runs in CI-friendly time.
const TIME_BUDGET: Duration = Duration::from_millis(200);

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup: one untimed pass to populate caches and allocators.
        std::hint::black_box(routine());
        let budget_start = Instant::now();
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        while iters < self.sample_size as u64 && budget_start.elapsed() < TIME_BUDGET {
            let start = Instant::now();
            std::hint::black_box(routine());
            total += start.elapsed();
            iters += 1;
        }
        self.iters = iters;
        self.mean_ns = if iters == 0 { 0.0 } else { total.as_nanos() as f64 / iters as f64 };
    }
}

/// `black_box` is re-exported so both import styles used in the wild work;
/// this workspace's benches import it from `std::hint` directly.
pub use std::hint::black_box;

/// Declares a group function that runs each target against a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_with_input_runs_the_routine_and_counts_iters() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim");
        group.sample_size(10);
        group.throughput(Throughput::Elements(4));
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::new("count", 4), &4u64, |b, n| {
            b.iter(|| {
                calls += 1;
                *n * 2
            })
        });
        group.finish();
        // one warmup + at least one timed iteration
        assert!(calls >= 2);
    }

    #[test]
    fn machine_line_is_stable_single_line_json() {
        assert_eq!(
            machine_line("merge/concurrent/10000", 1234.56, 42),
            r#"BENCH_RESULT {"name":"merge/concurrent/10000","ns_per_iter":1234.6,"iters":42}"#
        );
        // Quotes and backslashes in labels stay valid JSON.
        assert_eq!(
            machine_line(r#"odd"\label"#, 0.0, 0),
            r#"BENCH_RESULT {"name":"odd\"\\label","ns_per_iter":0.0,"iters":0}"#
        );
        assert!(!machine_line("x", 1.0, 1).contains('\n'));
    }

    #[test]
    fn benchmark_id_formats_function_and_parameter() {
        let id = BenchmarkId::new("parse", 128usize);
        assert_eq!(id.function, "parse");
        assert_eq!(id.parameter, "128");
    }
}
