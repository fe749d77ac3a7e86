//! From observations to named metrics, and their rendering: the result
//! line the harness reads, the human table, and `report.json`.

use crate::catalogue::{self, quote, Workload, END_TO_END};
use crate::loopback::Observed;
use crate::replay::Replayed;
use crate::span::{self, Span};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::path::Path;

/// `(name, value, unit)` rows in catalogue order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The value of the metric called `name` (0 when it is not listed).
pub fn metric(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

/// The latency series behind `op_per_s` / `op_ms_*` for a workload.
fn op_series(workload: Workload, obs: &Observed) -> &[f64] {
    match workload {
        Workload::NearChurn => &obs.push_ms,
        Workload::FarChurn => &obs.commit_ack_ms,
        Workload::QueryMix => &obs.query_ms,
        Workload::IngestRecover => &obs.recover_ms,
    }
}

/// The end-to-end metrics of one untraced run, each taken where the run
/// was quietest (see [`stats::quietest`] and the README's **Quietest
/// segment**): the pooled figures stay in the per-layer section.
pub fn end_to_end(workload: Workload, obs: &Observed) -> Metrics {
    let quiet = stats::quietest(
        op_series(workload, obs),
        &obs.done_s,
        workload.segment_ops(),
    );
    let value = |name: &str| match name {
        "op_per_s" => quiet.rate,
        "op_ms_p50" => quiet.median,
        "setup_s" => obs.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        other => unreachable!("no such end-to-end metric: {other}"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), value(m.name), m.unit))
        .collect()
}

/// The per-layer metrics: client-side tails and registry counts of the
/// untraced run, span roll-ups and plan counts of the traced replay,
/// and the replay's wall without spans for the overhead ratio.
pub fn per_layer(
    workload: Workload,
    obs: &Observed,
    traced: &Replayed,
    bare_wall_s: f64,
) -> Metrics {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), if v.is_finite() { v } else { 0.0 });
    };
    let reg = |name: &str| obs.registry.get(name).copied().unwrap_or(0.0);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };

    for (name, s) in span::roll_up(&traced.spans) {
        set(&format!("{name}.calls"), s.calls as f64);
        set(&format!("{name}.self_ms"), s.self_ms);
        set(&format!("{name}.ms_p95"), s.ms_p95);
    }
    set("store.commits", reg("store_commits_total"));
    set("durability.fsyncs", reg("wal_fsyncs_total"));
    set("durability.checkpoints", reg("wal_checkpoints_total"));
    set(
        "durability.disk_bytes_per_commit",
        per(obs.wal_dir_bytes as f64, reg("store_epoch")),
    );
    set(
        "durability.wal_append_ms_sum",
        reg("wal_append_ns.sum") / 1e6,
    );
    set("durability.wal_fsync_ms_sum", reg("wal_fsync_ns.sum") / 1e6);
    let (patches, rebuilds) = (
        reg("snapshot_patch_ns.count"),
        reg("snapshot_rebuild_ns.count"),
    );
    set("snapshot.patch_ratio", per(patches, patches + rebuilds));
    set(
        "plan.examined_per_query",
        per(traced.examined as f64, traced.plans as f64),
    );
    set(
        "plan.candidates_per_query",
        per(traced.candidates as f64, traced.plans as f64),
    );
    let (hits, misses) = (reg("cache_hits_total"), reg("cache_misses_total"));
    set("cache.hit_ratio", per(hits, hits + misses));
    set("cache.carries", reg("cache_carried_total"));
    set(
        "core.kernel.columns",
        reg("kernel_columns_refined_total") + reg("kernel_columns_coarse_total"),
    );
    set("core.kernel.rows_patched", reg("subs_rows_patched_total"));
    let commits = reg("store_commits_total");
    let (patched, skipped, rebuilt) = (
        reg("ladder_patched_total"),
        reg("ladder_skipped_total"),
        reg("ladder_rebuilt_total"),
    );
    set("subscription.patched_per_commit", per(patched, commits));
    // Rounds the guard index pruned are folded into a share's counters
    // only at its next visit, so the registry's own unvisited tally lags;
    // what was not patched or rebuilt in a round was skipped.
    let shares = match workload {
        Workload::NearChurn | Workload::FarChurn => crate::script::STANDING_QUERIES as f64,
        Workload::QueryMix | Workload::IngestRecover => 0.0,
    };
    let share_rounds = shares * reg("maintenance_rounds_total");
    set(
        "subscription.skip_ratio",
        per(share_rounds - patched - rebuilt, share_rounds),
    );
    set("subscription.ladder_patched", patched);
    set("subscription.ladder_skipped", skipped);
    set("subscription.ladder_rebuilt", rebuilt);
    set("net.wire.frames", reg("frames_encoded_total"));
    set("net.wire.frames_received", obs.frames_received as f64);
    let carried = if workload == Workload::QueryMix {
        traced.queries
    } else {
        traced.commits
    };
    set(
        "net.wire.bytes_per_commit",
        per(traced.wire_bytes as f64, carried as f64),
    );
    set("server.peak_rss_mb", obs.peak_rss_mb);
    set(
        "server.commit_to_push_ms_p50",
        reg("commit_to_push_ns.p50") / 1e6,
    );
    set(
        "server.maintenance_round_ms_sum",
        reg("maintenance_round_ns.sum") / 1e6,
    );

    for (prefix, series) in [
        ("client.commit_ack_ms", &obs.commit_ack_ms),
        ("client.push_ms", &obs.push_ms),
        ("client.query_ms", &obs.query_ms),
    ] {
        let s = Summary::of(series);
        set(&format!("{prefix}_p50"), s.p50);
        set(&format!("{prefix}_p95"), s.p95);
        set(&format!("{prefix}_p99"), s.p99);
        set(&format!("{prefix}_max"), s.max);
    }
    set(
        "client.commit_per_s",
        per(obs.commits as f64, obs.commit_wall_s),
    );
    set("client.query_per_s", per(obs.queries as f64, obs.wall_s));
    let restarts = Summary::of(&obs.recover_ms);
    set("client.recover_ms_p50", restarts.p50);
    set("client.recover_ms_p95", restarts.p95);
    set("client.recover_ms_max", restarts.max);
    let ops = Summary::of(op_series(workload, obs));
    set("client.op_samples", ops.count as f64);

    // The chain: the root `op` spans — the workload's op; secondary ops
    // (`op.write`, `op.insert`) and reference spans hang off roots of
    // their own and are left out. Medians on both sides, like with like.
    let chain: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let chain_p50 = stats::median(&chain);
    set("client.unattributed_ms", ops.p50 - chain_p50);
    set("trace.coverage", per(chain_p50, ops.p50));
    set("trace.overhead_ratio", per(traced.wall_s, bare_wall_s));

    catalogue::per_layer()
        .into_iter()
        .map(|m| {
            let v = values.get(&*m.name).copied().unwrap_or(0.0);
            (m.name.into_owned(), v, m.unit)
        })
        .collect()
}

fn number(v: f64) -> String {
    // Full digits; JSON has no NaN or infinity.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn metrics_json(metrics: &Metrics) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*v),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The one line the harness reads.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics_json(metrics)
    )
}

pub fn print_table(title: &str, metrics: &Metrics) {
    println!("  {title}");
    for (name, v, unit) in metrics {
        println!("    {name:<40} {v:>16.4} {unit}");
    }
}

/// Who ran what on which machine: stamped on every report.
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    /// The one CPU everything ran on, once pinning worked.
    pub pinned_cpu: Option<usize>,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub filesystem: String,
}

impl Stamp {
    /// Call before pinning: `nproc` is what the process may use.
    pub fn collect(seed: u64, seconds: f64, data_dir: &Path) -> Stamp {
        let run = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .current_dir(crate::child::repo_root())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Stamp {
            commit: run("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned_cpu: None,
            rustc: run("rustc", &["--version"]),
            seed,
            seconds,
            filesystem: crate::child::filesystem_of(data_dir),
        }
    }

    pub fn print(&self) {
        let pinned = match self.pinned_cpu {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "NOT PINNED (affinity call failed)".to_string(),
        };
        println!(
            "commit {} · nproc {} · {pinned} · {} · seed {} · sized for {} s · data dir on {}",
            self.commit, self.nproc, self.rustc, self.seed, self.seconds, self.filesystem
        );
        if self.filesystem == "tmpfs" || self.filesystem == "ramfs" {
            println!(
                "!!! THE DATA DIRECTORY IS ON {}: fsync costs nothing here, every durability \
                 number below is meaningless !!!",
                self.filesystem.to_uppercase()
            );
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"rustc\": {}, \"seed\": {}, \"sized_for_seconds\": {}, \"data_dir_filesystem\": {}, \"tmpfs\": {}}}",
            quote(&self.commit),
            self.nproc,
            self.pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
            quote(&self.rustc),
            self.seed,
            number(self.seconds),
            quote(&self.filesystem),
            self.filesystem == "tmpfs" || self.filesystem == "ramfs"
        )
    }
}

/// One workload's section of `report.json`.
pub fn workload_json(
    workload: Workload,
    obs: &Observed,
    e2e: &Metrics,
    layers: &Metrics,
    spans: &[Span],
) -> String {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let index = |name: &str| names.iter().position(|n| *n == name).expect("listed");
    let dump: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = if s.parent == span::NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            format!(
                "[{},{},{},{},{}]",
                index(s.name),
                s.op,
                parent,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    let failures: Vec<String> = obs.failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"name\": {}, \"fsync\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \
         \"samples\": {{\"commit_ack\": {}, \"push\": {}, \"query\": {}, \"recover\": {}, \"setup\": {}}}, \
         \"end_to_end\": {}, \"per_layer\": {}, \
         \"span_names\": [{}], \"span_fields\": [\"name\", \"op\", \"parent\", \"start_ns\", \"end_ns\"], \"spans\": [{}]}}",
        quote(workload.name()),
        quote(obs.fsync),
        obs.attempted,
        obs.failed,
        failures.join(", "),
        obs.commit_ack_ms.len(),
        obs.push_ms.len(),
        obs.query_ms.len(),
        obs.recover_ms.len(),
        obs.setup_s.len(),
        metrics_json(e2e),
        metrics_json(layers),
        names.iter().map(|n| quote(n)).collect::<Vec<_>>().join(", "),
        dump.join(",")
    )
}
