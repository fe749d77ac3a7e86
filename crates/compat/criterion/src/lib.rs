//! In-tree stand-in for the subset of the `criterion` benchmarking API
//! this workspace uses: benchmark groups with
//! `sample_size`/`warm_up_time`/`measurement_time`,
//! `bench_function`/`bench_with_input`, `Bencher::iter`, `BenchmarkId`,
//! [`black_box`], and the `criterion_group!`/`criterion_main!` macros.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim as a path dependency. Measurement is deliberately
//! simple — median wall-clock time per iteration over a handful of
//! samples — and every run appends its results to a
//! `BENCH_<bench target>.json` file at the workspace root so benchmark
//! history can be tracked without the real criterion's estimator
//! machinery. The name is the bench target's crate name, fixed at
//! compile time, so a copied or renamed binary writes the same file.
//!
//! Like the real criterion, passing `--test` (as in
//! `cargo bench --bench foo -- --test`) runs every benchmark closure
//! exactly once without timing loops and writes no report — the CI
//! `bench-smoke` mode that keeps benches from bit-rotting cheaply.

#![warn(missing_docs)]

pub use std::hint::black_box;

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded measurement.
#[derive(Debug, Clone)]
struct BenchResult {
    id: String,
    ns_per_iter: f64,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// The benchmark driver handed to every `criterion_group!` target.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let (sample_size, warm_up, measurement) =
            (self.sample_size, self.warm_up, self.measurement);
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            sample_size,
            warm_up,
            measurement,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (sample_size, warm_up, measurement) =
            (self.sample_size, self.warm_up, self.measurement);
        run_benchmark(id.into(), sample_size, warm_up, measurement, f);
        self
    }
}

/// A named collection of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().0);
        run_benchmark(
            full,
            self.sample_size,
            self.warm_up,
            self.measurement,
            |b| f(b),
        );
        self
    }

    /// Benchmarks `f` with a borrowed input under `id` within this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        run_benchmark(
            full,
            self.sample_size,
            self.warm_up,
            self.measurement,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// A benchmark identifier: a function name plus a parameter rendering.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id of the form `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// An id rendering the parameter only.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Runs timed iterations of one benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    ns_per_iter: Option<f64>,
    test_only: bool,
}

/// `true` when the binary was invoked with `--test` (smoke mode).
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

impl Bencher {
    /// Measures `f`, recording the median wall-clock time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_only {
            // Smoke mode: run once, record nothing.
            black_box(f());
            return;
        }
        // Warm-up: at least one run, at most the budget (capped for very
        // slow closures).
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        let mut per_iter = Duration::from_nanos(1);
        while warm_iters == 0 || (warm_start.elapsed() < self.warm_up && warm_iters < 5) {
            let t0 = Instant::now();
            black_box(f());
            per_iter = t0.elapsed().max(Duration::from_nanos(1));
            warm_iters += 1;
        }
        // Choose samples and iterations per sample to roughly fit the
        // measurement budget.
        let budget = self.measurement.max(Duration::from_millis(10));
        let fit = (budget.as_nanos() / per_iter.as_nanos().max(1)).max(1) as usize;
        let samples = self.sample_size.min(fit).clamp(3, 25);
        let iters = (fit / samples).max(1);
        let mut per_sample_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_sample_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_sample_ns.sort_by(f64::total_cmp);
        self.ns_per_iter = Some(per_sample_ns[per_sample_ns.len() / 2]);
    }
}

/// Records an externally measured value (nanoseconds) under `id` —
/// for custom `harness = false` benches whose metric is not a closure's
/// wall-clock median (e.g. a latency percentile over fan-out rounds).
/// The value joins the same report [`criterion_main!`] writes; in
/// `--test` smoke mode it prints an `ok` line and records nothing.
/// Not part of the real criterion API.
pub fn report_ns(id: impl Into<String>, ns: f64) {
    let id = id.into();
    if test_mode() {
        println!("test  {id:<60} ok");
        return;
    }
    println!("bench {id:<60} {}", format_ns(ns));
    RESULTS.lock().unwrap().push(BenchResult {
        id,
        ns_per_iter: ns,
    });
}

/// Writes the report for a custom `fn main()` bench that cannot use
/// [`criterion_main!`]. Pass `env!("CARGO_MANIFEST_DIR")` and
/// `env!("CARGO_CRATE_NAME")`.
pub fn write_report(manifest_dir: &str, crate_name: &str) {
    __write_report(manifest_dir, crate_name);
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    mut f: F,
) {
    let test_only = test_mode();
    let mut b = Bencher {
        warm_up,
        measurement,
        sample_size,
        ns_per_iter: None,
        test_only,
    };
    f(&mut b);
    if test_only {
        println!("test  {id:<60} ok");
        return;
    }
    let ns = b.ns_per_iter.unwrap_or(f64::NAN);
    println!("bench {id:<60} {}", format_ns(ns));
    RESULTS.lock().unwrap().push(BenchResult {
        id,
        ns_per_iter: ns,
    });
}

fn format_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "no measurement".to_string()
    } else if ns < 1_000.0 {
        format!("{ns:10.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:10.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:10.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:10.3}  s/iter", ns / 1_000_000_000.0)
    }
}

/// The report of bench target `crate_name`: `BENCH_<crate_name>.json`
/// two directories above `manifest_dir` (the workspace root for member
/// crates).
fn report_path(manifest_dir: &str, crate_name: &str) -> std::path::PathBuf {
    let mut root = std::path::PathBuf::from(manifest_dir);
    root.pop();
    root.pop();
    root.join(format!("BENCH_{crate_name}.json"))
}

/// Writes the collected results to [`report_path`]. Called by
/// `criterion_main!`; not part of the real criterion API.
#[doc(hidden)]
pub fn __write_report(manifest_dir: &str, crate_name: &str) {
    let results = RESULTS.lock().unwrap();
    if results.is_empty() {
        return;
    }
    let path = report_path(manifest_dir, crate_name);
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"id\": \"{}\", \"ns_per_iter\": {:.1} }}{comma}\n",
            r.id.replace('"', "'"),
            r.ns_per_iter
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Declares a function running the listed benchmark targets in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                {
                    let mut c = $crate::Criterion::default();
                    $target(&mut c);
                }
            )+
        }
    };
}

/// Declares `main`, running the listed groups then writing the report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::__write_report(env!("CARGO_MANIFEST_DIR"), env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_report_is_named_after_the_bench_target() {
        assert_eq!(
            report_path("/ws/crates/bench", "probability_kernels"),
            std::path::Path::new("/ws/BENCH_probability_kernels.json")
        );
        // What a bench target passes: its crate name, whatever the
        // binary on disk is called (this one has a `-<hash>` suffix).
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest.parent().and_then(|p| p.parent()).unwrap();
        assert_eq!(
            report_path(env!("CARGO_MANIFEST_DIR"), env!("CARGO_CRATE_NAME")),
            root.join("BENCH_criterion.json")
        );
    }

    #[test]
    fn bencher_records_a_measurement() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        g.bench_with_input(BenchmarkId::new("sum", 100), &100u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
        let results = RESULTS.lock().unwrap();
        let r = results.iter().find(|r| r.id == "smoke/sum/100").unwrap();
        assert!(r.ns_per_iter.is_finite() && r.ns_per_iter > 0.0);
    }
}
