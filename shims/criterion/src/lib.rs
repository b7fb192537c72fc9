//! Offline shim for the `criterion` crate.
//!
//! Keeps the `criterion_group!`/`criterion_main!` + `benchmark_group` +
//! `bench_with_input` surface so the workspace's benches compile and run
//! offline, but replaces the statistics engine with a plain
//! warmup-then-measure loop that prints the median wall-clock time of the
//! timed iterations. The median, unlike a mean, is not dragged by the odd
//! iteration a scheduler hiccup slows down. Numbers are indicative, not
//! rigorous.

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
        let mut bencher = Bencher { sample_size: self.sample_size, median_ns: 0.0, iters: 0 };
        routine(&mut bencher, input);
        let label = format!("{}/{}/{}", self.name, id.function, id.parameter);
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if bencher.median_ns > 0.0 => {
                format!("  {:.1} Melem/s", n as f64 / bencher.median_ns * 1e3)
            }
            Some(Throughput::Bytes(n)) if bencher.median_ns > 0.0 => {
                format!("  {:.1} MiB/s", n as f64 / bencher.median_ns * 1e9 / (1 << 20) as f64)
            }
            _ => String::new(),
        };
        println!(
            "bench {label}: {:.1} ns/iter median ({} iters){rate}",
            bencher.median_ns, bencher.iters
        );
        println!("{}", machine_line(&label, bencher.median_ns, bencher.iters));
        self
    }

    pub fn finish(self) {}
}

/// The stable machine-readable result line emitted after the human one:
/// a `BENCH_RESULT ` prefix followed by a single-line JSON object with
/// fixed keys (`name`, `ns_per_iter`, `iters`); `ns_per_iter` is the median
/// iteration time. Scripts grep the prefix and parse the rest; the human
/// line above it stays free to change.
pub fn machine_line(label: &str, ns_per_iter: f64, iters: u64) -> String {
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    format!(
        "BENCH_RESULT {{\"name\":\"{escaped}\",\"ns_per_iter\":{ns_per_iter:.1},\"iters\":{iters}}}"
    )
}

/// Runs and times one benchmark routine.
pub struct Bencher {
    sample_size: usize,
    median_ns: f64,
    iters: u64,
}

/// Per-routine wall-clock budget; keeps full bench runs in CI-friendly time.
const TIME_BUDGET: Duration = Duration::from_millis(200);

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup: one untimed pass to populate caches and allocators.
        std::hint::black_box(routine());
        let budget_start = Instant::now();
        let mut samples = Vec::with_capacity(self.sample_size);
        while samples.len() < self.sample_size && budget_start.elapsed() < TIME_BUDGET {
            let start = Instant::now();
            std::hint::black_box(routine());
            samples.push(start.elapsed().as_nanos() as f64);
        }
        self.iters = samples.len() as u64;
        self.median_ns = median(&mut samples);
    }
}

/// The median of `samples` (the mean of the middle two for an even count),
/// 0 for none. Reorders `samples`.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[mid],
        _ => (samples[mid - 1] + samples[mid]) / 2.0,
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
    fn median_picks_the_middle_sample() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn one_slow_iteration_does_not_move_the_figure() {
        // Nine fast iterations and one 50 ms stall: a mean would report at
        // least 5 ms per iteration, the median a fast one.
        let mut bencher = Bencher { sample_size: 10, median_ns: 0.0, iters: 0 };
        let mut calls = 0u32;
        bencher.iter(|| {
            calls += 1;
            if calls == 4 {
                std::thread::sleep(Duration::from_millis(50));
            }
            calls
        });
        assert_eq!(bencher.iters, 10);
        assert!(bencher.median_ns < 1e6, "median {} ns", bencher.median_ns);
    }

    #[test]
    fn fast_routines_fill_the_sample_size() {
        let mut bencher = Bencher { sample_size: 25, median_ns: 0.0, iters: 0 };
        bencher.iter(|| 1 + 1);
        assert_eq!(bencher.iters, 25);
        assert!(bencher.median_ns >= 0.0);
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
