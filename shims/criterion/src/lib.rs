//! Offline shim for the subset of the [`criterion`](https://docs.rs/criterion)
//! API used by `crates/bench`.
//!
//! The build environment cannot reach crates.io, so this crate provides a
//! small wall-clock benchmarking harness with the same surface: `Criterion`,
//! `BenchmarkGroup`, `Bencher::iter`, `BenchmarkId`, `Throughput`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Methodology: each benchmark runs a short calibration pass to pick an
//! iteration count targeting ~`measurement_ms` of work, performs a warm-up,
//! then takes several timed samples and reports the median ns/iter. This is
//! far simpler than real criterion (no outlier rejection, no statistical
//! regression) but is stable enough for the relative comparisons the
//! workspace's benches make.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value barrier re-exported for convenience (benches may import it
/// from either `std::hint` or `criterion`).
pub use std::hint::black_box;

/// Identifies one benchmark within a group, e.g. `ducb/16`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and an input parameter into an id.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id without a parameter component.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

/// Units processed per iteration; used to report throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to the closure under test; drives the timed loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the harness-chosen iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// One recorded benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id (`group/function/param`).
    pub id: String,
    /// Median nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
}

/// The harness entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    results: Vec<BenchResult>,
    /// Target duration for one sample, in milliseconds.
    measurement_ms: u64,
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            results: Vec::new(),
            // Keep the harness quick: the workspace's benches iterate many
            // configurations and CI time matters more than tight confidence
            // intervals here.
            measurement_ms: 60,
            samples: 7,
        }
    }
}

impl Criterion {
    /// Overrides the per-sample measurement time.
    pub fn measurement_time(mut self, time: Duration) -> Self {
        self.measurement_ms = time.as_millis().max(1) as u64;
        self
    }

    /// Overrides the number of timed samples per benchmark (for
    /// [`Criterion::bench_pair`], the number of A/B rounds).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run_one(id.to_string(), None, f);
        self
    }

    /// Runs two benchmarks with interleaved samples (shim extension, not
    /// part of the real criterion API).
    ///
    /// A/B comparisons whose arms run back to back as separate
    /// `bench_function` calls are exposed to slow drift — frequency
    /// scaling, a noisy neighbor — landing on one arm's whole measurement
    /// window and biasing the ratio. Here each sample round times arm A
    /// then arm B, so drift hits both arms alike and the medians stay
    /// comparable. Results are recorded under `id_a` / `id_b` exactly as
    /// if each arm had run through [`Criterion::bench_function`].
    ///
    /// Returns the median over rounds of the per-round ratio B/A. Drift
    /// slower than one round cancels out of every ratio, so this is the
    /// steadier estimate of B's relative cost (an overhead gate reads
    /// `(ratio - 1) * 100` as percent); the two medians can come from
    /// different rounds.
    pub fn bench_pair<FA, FB>(&mut self, id_a: &str, id_b: &str, mut fa: FA, mut fb: FB) -> f64
    where
        FA: FnMut(&mut Bencher),
        FB: FnMut(&mut Bencher),
    {
        let iters_a = self.calibrate(&mut fa);
        let iters_b = self.calibrate(&mut fb);
        let mut samples_a = Vec::with_capacity(self.samples);
        let mut samples_b = Vec::with_capacity(self.samples);
        // Round 0 warms both arms and is discarded.
        for i in 0..=self.samples {
            for (f, iters, samples) in [
                (
                    &mut fa as &mut dyn FnMut(&mut Bencher),
                    iters_a,
                    &mut samples_a,
                ),
                (&mut fb, iters_b, &mut samples_b),
            ] {
                let mut b = Bencher {
                    iters,
                    elapsed: Duration::ZERO,
                };
                f(&mut b);
                if i > 0 {
                    samples.push(b.elapsed.as_secs_f64() * 1e9 / iters as f64);
                }
            }
        }
        let ratios: Vec<f64> = samples_a
            .iter()
            .zip(&samples_b)
            .map(|(a, b)| b / a)
            .collect();
        for (id, samples) in [(id_a, samples_a), (id_b, samples_b)] {
            let ns = median(samples);
            println!("{id:<50} {ns:>14.1} ns/iter");
            self.results.push(BenchResult {
                id: id.to_string(),
                ns_per_iter: ns,
            });
        }
        median(ratios)
    }

    /// All results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Median ns/iter for the benchmark whose id matches `id` exactly.
    pub fn result_ns(&self, id: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.ns_per_iter)
    }

    /// Grows the iteration count until one sample takes at least
    /// ~`measurement_ms`.
    fn calibrate<F: FnMut(&mut Bencher)>(&self, f: &mut F) -> u64 {
        let target = Duration::from_millis(self.measurement_ms);
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= target || iters >= 1 << 40 {
                return iters;
            }
            let grow = if b.elapsed.is_zero() {
                16.0
            } else {
                (target.as_secs_f64() / b.elapsed.as_secs_f64()).clamp(1.2, 16.0)
            };
            iters = ((iters as f64 * grow).ceil() as u64).max(iters + 1);
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        id: String,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let iters = self.calibrate(&mut f);

        // Warm-up sample, then timed samples.
        let mut samples = Vec::with_capacity(self.samples);
        for i in 0..=self.samples {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if i > 0 {
                samples.push(b.elapsed.as_secs_f64() * 1e9 / iters as f64);
            }
        }
        let ns = median(samples);

        let thr = match throughput {
            Some(Throughput::Elements(n)) if ns > 0.0 => {
                format!("  ({:.1} Melem/s)", n as f64 / ns * 1e3)
            }
            Some(Throughput::Bytes(n)) if ns > 0.0 => {
                format!("  ({:.1} MiB/s)", n as f64 / ns * 1e9 / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!("{id:<50} {ns:>14.1} ns/iter{thr}");
        self.results.push(BenchResult {
            id,
            ns_per_iter: ns,
        });
    }
}

/// The upper median of `samples` (which must be non-empty).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A named set of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim picks its own sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _time: Duration) -> &mut Self {
        self
    }

    /// Sets the units-per-iteration used in throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark identified by name only.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(full, self.throughput, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(full, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (consumes it, matching the real API).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            let _ = $config;
            $( $target(c); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
///
/// Cargo passes `--bench` (and possibly filter args) to the binary; the shim
/// ignores them and runs every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_a_result() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.results().len(), 1);
        assert!(c.result_ns("noop").unwrap() >= 0.0);
    }

    #[test]
    fn bench_pair_records_both_arms() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.bench_pair(
            "pair/a",
            "pair/b",
            |b| b.iter(|| black_box(1 + 1)),
            |b| b.iter(|| black_box(2 + 2)),
        );
        assert!(c.result_ns("pair/a").is_some());
        assert!(c.result_ns("pair/b").is_some());
    }

    #[test]
    fn bench_pair_returns_the_median_round_ratio() {
        // Simulated clocks: arm A costs 100 ns/iter, arm B 300 ns/iter
        // except in one outlier round, which the median ignores.
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(1))
            .sample_size(5);
        let mut round = 0;
        let ratio = c.bench_pair(
            "sim/a",
            "sim/b",
            |b| b.elapsed = Duration::from_nanos(100 * b.iters),
            |b| {
                round += 1;
                let ns = if round == 4 { 3_000 } else { 300 };
                b.elapsed = Duration::from_nanos(ns * b.iters);
            },
        );
        assert!((ratio - 3.0).abs() < 1e-9, "ratio {ratio}");
        assert!((c.result_ns("sim/a").unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn group_ids_are_namespaced() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(10));
            g.bench_with_input(BenchmarkId::new("f", 4), &4u64, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert!(c.result_ns("g/f/4").is_some());
    }
}
