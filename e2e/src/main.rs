//! `unn-e2e`: the repository's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! unn-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON result line
//! unn-e2e run [--seed <n>] [--seconds <s>] [--smoke] [--workload <name>]
//! unn-e2e compare --sets <k> [--seed <n>] [--seconds <s>]
//! unn-e2e catalogue | benchmark-json
//! ```

mod catalogue;
mod child;
mod loopback;
mod oracle;
mod replay;
mod report;
mod script;
mod span;
mod stats;

use catalogue::{Workload, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use loopback::{Deadline, Effort, Observed};
use replay::Replayed;
use report::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A workload's generated inputs.
enum Script {
    Churn(script::ChurnScript),
    Mix(script::MixScript),
    Ingest(script::IngestScript),
}

impl Script {
    fn generate(workload: Workload, seed: u64, ops: usize, smoke: bool) -> Script {
        let warmup = workload.warmup(smoke);
        match workload {
            Workload::NearChurn => Script::Churn(script::churn_script(seed, true, warmup, ops)),
            Workload::FarChurn => Script::Churn(script::churn_script(seed, false, warmup, ops)),
            Workload::QueryMix => Script::Mix(script::mix_script(seed, warmup, ops)),
            Workload::IngestRecover => Script::Ingest(script::ingest_script(seed, ops)),
        }
    }

    fn untraced(&self, bin: &Path, effort: Effort) -> Result<Observed, String> {
        match self {
            Script::Churn(s) => loopback::run_churn(bin, s, effort),
            Script::Mix(s) => loopback::run_mix(bin, s, effort),
            Script::Ingest(s) => loopback::run_ingest(bin, s, effort),
        }
    }

    fn replay(&self, ops: usize, effort: Effort, spans: bool) -> Result<Replayed, String> {
        match self {
            Script::Churn(s) => replay::replay_churn(s, ops, spans),
            Script::Mix(s) => replay::replay_mix(s, ops, spans),
            Script::Ingest(s) => replay::replay_ingest(s, ops, effort.recover_cycles, spans),
        }
    }
}

/// Everything one workload produced.
struct Outcome {
    obs: Observed,
    e2e: Metrics,
    /// Present when the traced replay ran.
    layers: Option<Metrics>,
    traced: Option<Replayed>,
    /// Failed checks of the replay and of the workload's own shape.
    extra_failures: Vec<String>,
    extra_checks: u64,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.obs.attempted + self.extra_checks
    }

    fn failed(&self) -> u64 {
        self.obs.failed + self.extra_failures.len() as u64
    }

    fn failures(&self) -> impl Iterator<Item = &String> {
        self.obs.failures.iter().chain(&self.extra_failures)
    }
}

/// Each workload must demonstrably exercise the layer it was built for
/// and bypass the one it was built to bypass.
fn shape_failures(workload: Workload, layers: &Metrics, smoke: bool) -> (u64, Vec<String>) {
    let get = |name: &str| report::metric(layers, name);
    let mut checks = 0;
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: String| {
        checks += 1;
        if !ok {
            failures.push(format!("{}: {what}", workload.name()));
        }
    };
    match workload {
        Workload::NearChurn => {
            let patched = get("subscription.patched_per_commit");
            require(
                patched >= 1.0,
                format!("{patched} shares patched per commit, want ≥ 1"),
            );
            let rows = get("core.kernel.rows_patched");
            require(rows > 0.0, "no probability row was patched".to_string());
        }
        Workload::FarChurn => {
            let frames = get("net.wire.frames") + get("net.wire.frames_received");
            require(
                frames == 0.0,
                format!("{frames} frames pushed by far updates"),
            );
            let patched = get("subscription.ladder_patched");
            require(
                patched == 0.0,
                format!("{patched} shares patched by far updates"),
            );
        }
        Workload::QueryMix => {
            let ratio = get("cache.hit_ratio");
            require(
                (0.6..=0.9).contains(&ratio),
                format!("cache hit ratio {ratio:.3} outside [0.6, 0.9]"),
            );
        }
        Workload::IngestRecover => {
            let checkpoints = get("durability.checkpoints");
            require(
                smoke || checkpoints >= 3.0,
                format!("{checkpoints} checkpoints crossed, want ≥ 3"),
            );
        }
    }
    (checks, failures)
}

fn run_workload(
    bin: &Path,
    workload: Workload,
    seed: u64,
    ops: usize,
    effort: Effort,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let script = Script::generate(workload, seed, ops, smoke);
    let obs = script.untraced(bin, effort)?;
    let e2e = report::end_to_end(workload, &obs);
    let mut outcome = Outcome {
        obs,
        e2e,
        layers: None,
        traced: None,
        extra_failures: Vec::new(),
        extra_checks: 0,
    };
    if trace {
        // The span-less twin only feeds `trace.overhead_ratio`; a smoke
        // run checks answers, not the harness's own cost.
        let bare_wall_s = if smoke {
            0.0
        } else {
            script.replay(ops, effort, false)?.wall_s
        };
        let traced = script.replay(ops, effort, true)?;
        let layers = report::per_layer(workload, &outcome.obs, &traced, bare_wall_s);
        let (checks, failures) = shape_failures(workload, &layers, smoke);
        outcome.extra_checks = traced.checks + checks;
        outcome.extra_failures = traced.failures.iter().cloned().chain(failures).collect();
        outcome.layers = Some(layers);
        outcome.traced = Some(traced);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    sets: Option<usize>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                out.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")? {
                    "0" => 0,
                    "1" => 1,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                })
            }
            "--sets" => {
                out.sets = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--sets: {e}"))?,
                )
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

fn workloads_of(args: &Args) -> Result<Vec<Workload>, String> {
    match &args.workload {
        None => Ok(WORKLOADS.to_vec()),
        Some(name) => Workload::parse(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload '{name}'")),
    }
}

/// Builds the server with every core, then pins this process and the
/// children it is about to spawn to one (see [`child::pin_to_one_cpu`]).
fn build_then_pin() -> Result<(PathBuf, Option<usize>), String> {
    let bin = child::build_server()?;
    Ok((bin, child::pin_to_one_cpu()))
}

/// One run for the harness: a single JSON object as the last line of
/// stdout, everything else on stderr.
fn harness_run(args: &Args) -> Result<ExitCode, String> {
    let workload = workloads_of(args)?[0];
    let seed = args.seed.ok_or("--seed is required")?;
    let seconds = args.seconds.ok_or("--seconds is required")?;
    let trace = args.trace.ok_or("--trace is required")? == 1;
    let (bin, cpu) = build_then_pin()?;
    if cpu.is_none() {
        eprintln!("unn-e2e: could not pin to one CPU; expect scheduler noise");
    }
    // A traced run measures the loopback side for half the time and
    // replays the same ops twice (with and without spans).
    let sized_for = if trace { seconds / 2.0 } else { seconds };
    let effort = Effort {
        // Far beyond what any healthy run needs, far inside the harness
        // limit of 180 s for the whole process.
        deadline: Deadline(Some(
            Instant::now() + Duration::from_secs_f64(60.0 + 3.0 * seconds),
        )),
        ..Effort::FULL
    };
    let outcome = run_workload(
        &bin,
        workload,
        seed,
        workload.ops_for(sized_for),
        effort,
        trace,
        false,
    )?;
    for failure in outcome.failures() {
        eprintln!("FAILED: {failure}");
    }
    let metrics = outcome.layers.as_ref().unwrap_or(&outcome.e2e);
    println!(
        "{}",
        report::result_line(outcome.attempted(), outcome.failed(), metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload, untraced then traced; every metric by name with its
/// unit; `report.json` unless `--smoke`; non-zero exit on any failure.
fn full_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let mut stamp = report::Stamp::collect(seed, seconds, &child::data_dir());
    let bin;
    (bin, stamp.pinned_cpu) = build_then_pin()?;
    stamp.print();
    let mut sections = Vec::new();
    let mut failed = 0;
    for workload in workloads_of(args)? {
        let (ops, effort) = if args.smoke {
            (workload.smoke_ops(), Effort::SMOKE)
        } else {
            (workload.ops_for(seconds), Effort::FULL)
        };
        let started = Instant::now();
        let outcome = run_workload(&bin, workload, seed, ops, effort, true, args.smoke)?;
        let layers = outcome.layers.as_ref().expect("traced");
        println!(
            "\n{} — {} ops ({}), fsync {}, {} checks, {} failed, {:.1} s",
            workload.name(),
            ops,
            workload.op(),
            outcome.obs.fsync,
            outcome.attempted(),
            outcome.failed(),
            started.elapsed().as_secs_f64()
        );
        report::print_table("end to end (untraced run)", &outcome.e2e);
        report::print_table(
            "per layer (traced replay + registry of the untraced run)",
            layers,
        );
        for failure in outcome.failures() {
            println!("  FAILED: {failure}");
        }
        failed += outcome.failed();
        let spans = &outcome.traced.as_ref().expect("traced").spans;
        sections.push(report::workload_json(
            workload,
            &outcome.obs,
            &outcome.e2e,
            layers,
            spans,
        ));
    }
    if !args.smoke {
        let path = child::data_dir().join("report.json");
        let body = format!(
            "{{\"stamp\": {}, \"workloads\": [\n{}\n]}}\n",
            stamp.json(),
            sections.join(",\n")
        );
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nreport written to {}", path.display());
    }
    if failed > 0 {
        println!("\n{failed} checks FAILED");
        return Ok(ExitCode::FAILURE);
    }
    println!("\nall checks passed");
    Ok(ExitCode::SUCCESS)
}

/// The counts that must repeat exactly, set after set, on the workloads
/// driven by a single generator thread.
const EXACT_COUNTS: [&str; 7] = [
    "store.commits",
    "subscription.ladder_patched",
    "subscription.ladder_skipped",
    "subscription.ladder_rebuilt",
    "core.kernel.rows_patched",
    "net.wire.frames",
    "durability.fsyncs",
];

/// The whole benchmark `--sets` times on one seed: counts identical,
/// spreads within bounds, median and quartiles per metric.
fn compare(args: &Args) -> Result<ExitCode, String> {
    let sets = args.sets.ok_or("compare needs --sets <k>")?;
    if sets < 2 {
        return Err("compare needs at least two sets".to_string());
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let mut stamp = report::Stamp::collect(seed, seconds, &child::data_dir());
    let bin;
    (bin, stamp.pinned_cpu) = build_then_pin()?;
    stamp.print();
    let mut problems = Vec::new();
    for workload in workloads_of(args)? {
        let ops = if args.smoke {
            workload.smoke_ops()
        } else {
            workload.ops_for(seconds)
        };
        let effort = if args.smoke {
            Effort::SMOKE
        } else {
            Effort::FULL
        };
        let mut outcomes = Vec::new();
        for set in 0..sets {
            let outcome = run_workload(&bin, workload, seed, ops, effort, true, args.smoke)?;
            for failure in outcome.failures() {
                problems.push(format!("set {set}: {failure}"));
            }
            outcomes.push(outcome);
        }
        println!(
            "\n{} — {sets} sets of {ops} ops on seed {seed}",
            workload.name()
        );
        println!(
            "    {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for m in END_TO_END {
            let values: Vec<f64> = outcomes
                .iter()
                .map(|o| report::metric(&o.e2e, m.name))
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            let spread = stats::spread(&values);
            println!(
                "    {:<14} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>5.0}%  {}",
                m.name,
                stats::median(&values),
                q1,
                q3,
                spread * 100.0,
                m.bound * 100.0,
                m.unit
            );
            if spread > m.bound && m.name != "setup_s" {
                problems.push(format!(
                    "{}: {} spread {:.1}% exceeds its bound {:.0}%",
                    workload.name(),
                    m.name,
                    spread * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        if workload != Workload::IngestRecover {
            for name in EXACT_COUNTS {
                let values: Vec<f64> = outcomes
                    .iter()
                    .map(|o| report::metric(o.layers.as_ref().expect("traced"), name))
                    .collect();
                println!("    {name:<34} {values:?}");
                if values.iter().any(|v| *v != values[0]) {
                    problems.push(format!(
                        "{}: {name} differs across sets: {values:?}",
                        workload.name()
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("\nsets agree");
        return Ok(ExitCode::SUCCESS);
    }
    println!();
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "catalogue" | "benchmark-json")) => (c, &argv[1..]),
        _ => ("harness", &argv[..]),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "run" => full_run(&args),
        "compare" => compare(&args),
        "catalogue" => {
            print!("{}", catalogue::catalogue_json());
            Ok(ExitCode::SUCCESS)
        }
        "benchmark-json" => {
            print!("{}", catalogue::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => harness_run(&args),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("unn-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
