//! The benchmark's contract as data: workloads, metrics, bounds, and —
//! written down before measuring — which end-to-end metric each
//! per-layer metric should move on which workload. `BENCHMARK.json` at
//! the repository root is generated from these tables (a unit test holds
//! the file to them).

use std::borrow::Cow;

/// Seconds one run is sized for.
pub const RUN_SECONDS: u32 = 12;
/// The seed of `run` / `compare` when none is given, and the seed kept
/// aside for checking a claim on inputs it was not developed against.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 20_090_324;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NearChurn,
    FarChurn,
    QueryMix,
    IngestRecover,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::NearChurn,
    Workload::FarChurn,
    Workload::QueryMix,
    Workload::IngestRecover,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::NearChurn => "near_churn",
            Workload::FarChurn => "far_churn",
            Workload::QueryMix => "query_mix",
            Workload::IngestRecover => "ingest_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One line: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::NearChurn => {
                "every update flips a watched answer: patch rung, kernel, encode and push do the work; cache and recovery none"
            }
            Workload::FarChurn => {
                "same 64 subscriptions, updates beyond every guard box: store, WAL append and round trip only, no frame pushed"
            }
            Workload::QueryMix => {
                "one-shot queries, 80 % on a hot set that fits the engine cache, beside far writes: snapshot, plan, cache"
            }
            Workload::IngestRecover => {
                "two committers insert under fsync always across 8 checkpoints, then 60 SIGKILL and restart cycles: durability, persist"
            }
        }
    }

    /// What the workload's op is — the thing `op_per_s` counts and
    /// `op_ms_*` times.
    pub fn op(self) -> &'static str {
        match self {
            Workload::NearChurn => "update sent → last expected pushed frame decoded",
            Workload::FarChurn => "update sent → ack",
            Workload::QueryMix => "one-shot query sent → response decoded",
            Workload::IngestRecover => "SIGKILL → spawn on the same directory → Welcome frame",
        }
    }

    /// Ops per second of `--seconds`, and the quantum the op count is
    /// rounded down to. Calibrated on the reference box (one pinned CPU)
    /// for steadiness, not for equal length: at 12 s the measured phases
    /// last about 26 s (near), 6 s (far), 15 s (mix) and 6 s of inserts
    /// plus 10 s of restarts (ingest). Op counts are fixed by `--seconds`
    /// alone, so a given seed always does the same work and the
    /// registry's counts repeat exactly.
    fn sizing(self) -> (f64, usize) {
        match self {
            // Whole cycles: each (query, direction) pair once per cycle.
            Workload::NearChurn => (22.0, crate::script::NEAR_CYCLE),
            Workload::FarChurn => (20_000.0, 1000),
            // Whole rhythms: eight reads, one write.
            Workload::QueryMix => (160.0, crate::script::READS_PER_WRITE + 1),
            // Whole checkpoint intervals.
            Workload::IngestRecover => (2731.0, 4096),
        }
    }

    pub fn ops_for(self, seconds: f64) -> usize {
        let (rate, quantum) = self.sizing();
        let whole = (rate * seconds / quantum as f64).floor() as usize;
        whole.max(1) * quantum
    }

    /// Ops per segment of the measured phase; `op_per_s` and `op_ms_p50`
    /// are taken from the quietest segment. Long enough that a segment's
    /// rate and median are steady (and, where ops differ, that every
    /// segment holds the same mix: a near cycle, 20 cold reads in 100), short
    /// enough to fit between two of the host's slow spells: 0.25 to 3 s.
    pub fn segment_ops(self) -> usize {
        match self {
            Workload::NearChurn => crate::script::NEAR_CYCLE,
            Workload::FarChurn => 10_000,
            Workload::QueryMix => 100,
            Workload::IngestRecover => 5,
        }
    }

    /// Warm-up ops at the end of set-up (the near warm-up is one pass:
    /// every churn object enters once; near ops cost ~100 ms each).
    pub fn warmup(self, smoke: bool) -> usize {
        match self {
            Workload::NearChurn if smoke => 4,
            Workload::NearChurn => crate::script::STANDING_QUERIES,
            // The op is the restart; nothing to warm, and warm-up inserts
            // would put fifty fsyncs into `setup_s`.
            Workload::IngestRecover => 0,
            _ if smoke => 18,
            Workload::QueryMix => 54,
            Workload::FarChurn => 50,
        }
    }

    /// Op counts of `--smoke`: every code path, seconds in total.
    pub fn smoke_ops(self) -> usize {
        match self {
            Workload::NearChurn => 8,
            Workload::FarChurn => 300,
            Workload::QueryMix => 45,
            Workload::IngestRecover => 600,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see. Every
/// workload reports every one of them, for its own op.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "op_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "ops ÷ wall of the fastest segment of the measured phase (segments of equal op count)",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "lowest of the segments' median latencies of the workload's op",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "spawn → fleet loaded, queries registered, watcher attached, warm-up done (fastest of the set-ups in a run)",
    },
];

/// A per-layer metric and the prediction made for it before measuring.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: Cow<'static, str>,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub source: &'static str,
    /// `end-to-end metric @ workload` pairs it should move.
    pub moves: &'static str,
    /// Workloads on which it should stay put.
    pub stays: &'static str,
}

/// The span names of the traced replay, with their layer, the public
/// function timed, and the prediction. Each yields `<name>.calls`,
/// `<name>.self_ms` and `<name>.ms_p95`.
pub const SPANS: [(&str, &str, &str, &str, &str); 16] = [
    (
        "ql.parse",
        "ql",
        "ql::parser::parse_statement",
        "op_ms_p50 @ query_mix",
        "churn workloads, ingest_recover",
    ),
    (
        "store.commit",
        "store+delta",
        "ModStore::insert / ModStore::update on a bare store",
        "op_per_s @ far_churn, client.commit_per_s @ ingest_recover",
        "query_mix reads",
    ),
    (
        "durability.append",
        "durability",
        "Wal::append of the encoded commit body",
        "client.commit_per_s, client.commit_ack_ms_p50 @ ingest_recover; op_per_s @ far_churn",
        "query_mix reads",
    ),
    (
        "durability.checkpoint",
        "durability+persist",
        "Wal::checkpoint every 4096 commits",
        "client.commit_ack_ms_max @ ingest_recover, far_churn",
        "near_churn, query_mix (neither reaches 4096 commits)",
    ),
    (
        "durability.recover",
        "durability+persist",
        "durability::recover(dir)",
        "op_ms_p50, op_per_s, client.recover_ms_p95 @ ingest_recover",
        "every other workload",
    ),
    (
        "durability.wal_open",
        "durability+persist",
        "Wal::open(dir) after recover, as open_store does (it parses the checkpoint image again for its epoch)",
        "op_ms_p50, op_per_s, client.recover_ms_p95 @ ingest_recover",
        "every other workload",
    ),
    (
        "snapshot.refresh",
        "snapshot",
        "ModStore::snapshot after a commit",
        "op_per_s, client.query_ms_p95 @ query_mix; op_ms_p50 @ near_churn",
        "far_churn (a skipped round takes no snapshot)",
    ),
    (
        "subscription.sync",
        "subscription",
        "SubscriptionRegistry::sync(&store), unattached registry",
        "op_ms_p50, op_per_s, client.push_ms_p95 @ near_churn",
        "far_churn beyond its ~10 µs floor; query_mix, ingest_recover",
    ),
    (
        "subscription.drain",
        "subscription",
        "DeltaSink::try_recv loop",
        "op_ms_p50 @ near_churn",
        "far_churn (nothing queued)",
    ),
    (
        "net.wire.encode",
        "net.wire",
        "wire::encode_frame_bytes per pushed event / response",
        "op_ms_p50 @ near_churn (≥ 4 frames per commit)",
        "far_churn (0 frames)",
    ),
    (
        "net.wire.decode",
        "net.wire",
        "wire::decode_payload",
        "op_ms_p50 @ near_churn",
        "far_churn",
    ),
    (
        "cache.engine",
        "cache+plan+core",
        "ModServer::engine: engine cache hit, carry proof, or plan + build",
        "op_ms_p50 (hits), op_per_s and client.query_ms_p95 (misses) @ query_mix",
        "all others",
    ),
    (
        "plan.plan",
        "plan+prefilter+index",
        "QueryPlanner::plan (reference: cold plan of the affected query / missed key)",
        "op_per_s, client.query_ms_p95 @ query_mix; op_ms_p50 @ near_churn (patch re-plans)",
        "far_churn, ingest_recover",
    ),
    (
        "core.engine_build",
        "core",
        "QueryPlan::build_engine (reference: difference functions + envelope + 4r band)",
        "op_per_s, client.query_ms_p95 @ query_mix; op_ms_p50 @ near_churn",
        "far_churn",
    ),
    (
        "core.answer_set",
        "core",
        "QueryEngine::answer_set (reference) / uq31_all (query_mix chain)",
        "op_ms_p50 @ query_mix; op_ms_p50 @ near_churn",
        "far_churn",
    ),
    (
        "core.kernel_rows",
        "core.kernel",
        "QueryEngine::prob_row_set_kernel (reference: threshold shares)",
        "op_per_s, client.push_ms_p95 @ near_churn (threshold shares are the slow commits)",
        "every other workload",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: &'static str,
    moves: &'static str,
    stays: &'static str,
) -> PerLayer {
    PerLayer {
        name: Cow::Borrowed(name),
        unit,
        better,
        layer,
        source,
        moves,
        stays,
    }
}

/// Counts, ratios and client-side tails that are not span roll-ups.
pub const COUNTS: [PerLayer; 45] = [
    layer("store.commits", "count", Better::Lower, "store", "store_commits_total (registry, measured phase)", "— (work count; must repeat exactly)", "—"),
    layer("durability.fsyncs", "count", Better::Lower, "durability", "wal_fsyncs_total", "client.commit_per_s @ ingest_recover (group commit lowers it)", "near_churn, far_churn, query_mix (0: --fsync os)"),
    layer("durability.checkpoints", "count", Better::Lower, "durability", "wal_checkpoints_total", "client.commit_ack_ms_max @ ingest_recover, far_churn", "near_churn, query_mix (0)"),
    layer("durability.disk_bytes_per_commit", "B", Better::Lower, "durability", "WAL directory bytes ÷ commits since spawn", "op_ms_p50 @ ingest_recover", "—"),
    layer("durability.wal_append_ms_sum", "ms", Better::Lower, "durability", "wal_append_ns sum (cross-checks durability.append)", "client.commit_per_s @ ingest_recover", "—"),
    layer("durability.wal_fsync_ms_sum", "ms", Better::Lower, "durability", "wal_fsync_ns sum", "client.commit_per_s, client.commit_ack_ms_p50 @ ingest_recover", "the --fsync os workloads (0)"),
    layer("snapshot.patch_ratio", "ratio", Better::Higher, "snapshot", "patches ÷ (patches + rebuilds), snapshot_patch_ns / snapshot_rebuild_ns counts", "op_per_s, client.query_ms_p95 @ query_mix", "far_churn"),
    layer("plan.examined_per_query", "count", Better::Lower, "plan+prefilter", "QueryPlan::examined, mean over the replay's plans", "op_per_s, client.query_ms_p95 @ query_mix", "far_churn, ingest_recover"),
    layer("plan.candidates_per_query", "count", Better::Lower, "plan+prefilter", "QueryPlan::candidate_count, mean over the replay's plans", "op_per_s, client.query_ms_p95 @ query_mix; op_ms_p50 @ near_churn", "far_churn, ingest_recover"),
    layer("cache.hit_ratio", "ratio", Better::Higher, "cache", "cache_hits_total ÷ (hits + misses)", "op_ms_p50 @ query_mix", "all others (0 lookups)"),
    layer("cache.carries", "count", Better::Higher, "cache", "cache_carried_total", "op_ms_p50 @ query_mix (each far write forces one carry proof per hot key)", "all others"),
    layer("core.kernel.columns", "count", Better::Lower, "core.kernel", "kernel_columns_refined_total + kernel_columns_coarse_total (0 while the adaptive ladder is off, the default)", "op_per_s, client.push_ms_p95 @ near_churn once a tolerance is set", "every other workload"),
    layer("core.kernel.rows_patched", "count", Better::Lower, "core.kernel", "subs_rows_patched_total: probability rows that touched a dirty column", "op_per_s, client.push_ms_p95 @ near_churn", "every other workload"),
    layer("subscription.patched_per_commit", "count", Better::Lower, "subscription", "ladder_patched_total ÷ commits", "op_ms_p50, op_per_s @ near_churn", "far_churn (0)"),
    layer("subscription.skip_ratio", "ratio", Better::Higher, "subscription", "1 − (ladder_patched + ladder_rebuilt) ÷ (16 shares × maintenance_rounds_total)", "op_per_s @ near_churn", "far_churn (1)"),
    layer("subscription.ladder_patched", "count", Better::Lower, "subscription", "ladder_patched_total", "—", "far_churn (0)"),
    layer("subscription.ladder_skipped", "count", Better::Higher, "subscription", "ladder_skipped_total", "—", "—"),
    layer("subscription.ladder_rebuilt", "count", Better::Lower, "subscription", "ladder_rebuilt_total", "—", "all (0: the query objects never move)"),
    layer("net.wire.frames", "count", Better::Lower, "net.wire", "frames_encoded_total", "op_ms_p50 @ near_churn", "far_churn (0)"),
    layer("net.wire.frames_received", "count", Better::Lower, "net.wire", "frames the watcher decoded in the measured phase", "—", "far_churn (0, asserted)"),
    layer("net.wire.bytes_per_commit", "B", Better::Lower, "net.wire", "replay: encoded frame bytes ÷ commits (÷ queries on query_mix)", "op_ms_p50 @ near_churn", "far_churn (0)"),
    layer("server.peak_rss_mb", "MB", Better::Lower, "server's own view", "the child's VmHWM at the end of the measured phase (ungated: on ingest_recover it moves 30 % run to run with the allocator's arenas)", "—", "—"),
    layer("server.commit_to_push_ms_p50", "ms", Better::Lower, "server's own view", "commit_to_push_ns p50 (bucket resolution)", "—", "—"),
    layer("server.maintenance_round_ms_sum", "ms", Better::Lower, "server's own view", "maintenance_round_ns sum (cross-checks subscription.sync)", "—", "—"),
    layer("client.commit_per_s", "1/s", Better::Higher, "client", "acknowledged commits ÷ wall", "—", "—"),
    layer("client.commit_ack_ms_p50", "ms", Better::Lower, "client", "writer send → ack", "—", "—"),
    layer("client.commit_ack_ms_p95", "ms", Better::Lower, "client", "writer send → ack", "—", "—"),
    layer("client.commit_ack_ms_p99", "ms", Better::Lower, "client", "writer send → ack", "—", "—"),
    layer("client.commit_ack_ms_max", "ms", Better::Lower, "client", "writer send → ack (a checkpoint stalls one commit)", "—", "—"),
    layer("client.push_ms_p50", "ms", Better::Lower, "client", "writer send → last expected frame decoded", "—", "—"),
    layer("client.push_ms_p95", "ms", Better::Lower, "client", "as above", "—", "—"),
    layer("client.push_ms_p99", "ms", Better::Lower, "client", "as above", "—", "—"),
    layer("client.push_ms_max", "ms", Better::Lower, "client", "as above", "—", "—"),
    layer("client.query_per_s", "1/s", Better::Higher, "client", "answered queries ÷ wall", "—", "—"),
    layer("client.query_ms_p50", "ms", Better::Lower, "client", "reader send → response decoded", "—", "—"),
    layer("client.query_ms_p95", "ms", Better::Lower, "client", "as above", "—", "—"),
    layer("client.query_ms_p99", "ms", Better::Lower, "client", "as above", "—", "—"),
    layer("client.query_ms_max", "ms", Better::Lower, "client", "as above", "—", "—"),
    layer("client.recover_ms_p50", "ms", Better::Lower, "client", "median over the cycles of SIGKILL → spawn → Welcome frame (= op_ms_p50 on ingest_recover)", "—", "—"),
    layer("client.recover_ms_p95", "ms", Better::Lower, "client", "57th of the 60 cycles: three samples beyond it, and the host's slow spells decide it (27 % spread over ten runs in a noisy quarter of an hour)", "—", "—"),
    layer("client.recover_ms_max", "ms", Better::Lower, "client", "slowest cycle", "—", "—"),
    layer("client.op_samples", "count", Better::Higher, "client", "latency samples of the op in the measured phase", "—", "—"),
    layer("client.unattributed_ms", "ms", Better::Lower, "net.server + OS", "the untraced run's whole-run median op latency − median per-op total of the replay's chain spans", "op_per_s @ far_churn; op_ms_p50 @ query_mix", "—"),
    layer("trace.coverage", "ratio", Better::Higher, "harness", "median per-op total of the replay's chain spans ÷ the untraced run's whole-run median op latency", "—", "—"),
    layer("trace.overhead_ratio", "ratio", Better::Lower, "harness", "replay wall with spans ÷ replay wall without", "—", "—"),
];

/// Every per-layer metric in print order: span roll-ups, then counts.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for (name, layer_name, source, moves, stays) in SPANS {
        for (suffix, unit) in [("calls", "count"), ("self_ms", "ms"), ("ms_p95", "ms")] {
            out.push(PerLayer {
                name: Cow::Owned(format!("{name}.{suffix}")),
                unit,
                better: Better::Lower,
                layer: layer_name,
                source,
                moves,
                stays,
            });
        }
    }
    out.extend(COUNTS);
    out
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `  "key": [` + one row per line + `]`, the layout both documents use.
fn array(key: &str, rows: impl Iterator<Item = String>) -> String {
    let rows: Vec<String> = rows.map(|row| format!("    {row}")).collect();
    format!("  {}: [\n{}\n  ]", quote(key), rows.join(",\n"))
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let fields = [
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"]".to_string(),
        "  \"paths\": [\"e2e\"]".to_string(),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        array(
            "workloads",
            WORKLOADS.iter().map(|w| {
                format!("{{\"name\": {}, \"why\": {}}}", quote(w.name()), quote(w.why()))
            }),
        ),
        array(
            "end_to_end",
            END_TO_END.iter().map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                    m.bound
                )
            }),
        ),
        array(
            "per_layer",
            per_layer().iter().map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(&m.name),
                    quote(m.unit),
                    quote(m.better.as_str())
                )
            }),
        ),
    ];
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// The machine-readable catalogue: seeds, sizing, and for every
/// per-layer metric the end-to-end metric and workload it should move.
pub fn catalogue_json() -> String {
    let fields = [
        format!("  \"default_seed\": {DEFAULT_SEED}"),
        format!("  \"holdout_seed\": {HOLDOUT_SEED}"),
        format!("  \"dataset_seed\": {}", crate::script::DATASET_SEED),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        array(
            "workloads",
            WORKLOADS.iter().map(|w| {
                format!(
                    "{{\"name\": {}, \"op\": {}, \"ops\": {}, \"warmup_ops\": {}, \"smoke_ops\": {}, \"why\": {}}}",
                    quote(w.name()),
                    quote(w.op()),
                    w.ops_for(RUN_SECONDS as f64),
                    w.warmup(false),
                    w.smoke_ops(),
                    quote(w.why())
                )
            }),
        ),
        array(
            "end_to_end",
            END_TO_END.iter().map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"meaning\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                    m.bound,
                    quote(m.meaning)
                )
            }),
        ),
        array(
            "per_layer",
            per_layer().iter().map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"layer\": {}, \"source\": {}, \"should_move\": {}, \"should_not_move\": {}}}",
                    quote(&m.name),
                    quote(m.unit),
                    quote(m.layer),
                    quote(m.source),
                    quote(m.moves),
                    quote(m.stays)
                )
            }),
        ),
    ];
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_is_generated_from_the_catalogue() {
        let path = crate::child::repo_root().join("BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path e2e/Cargo.toml -- benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn catalogue_stays_inside_the_schema_limits() {
        let layers = per_layer();
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!(benchmark_json().len() <= 64 * 1024);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(layers.iter().map(|m| &*m.name))
            .chain(WORKLOADS.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for w in WORKLOADS {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        for m in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit))
        {
            assert!(
                m.len() <= 16
                    && m.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn op_counts_are_whole_quanta() {
        assert_eq!(Workload::NearChurn.ops_for(12.0), 256);
        assert_eq!(Workload::NearChurn.ops_for(1.0), 32);
        assert_eq!(Workload::QueryMix.ops_for(12.0) % 9, 0);
        assert_eq!(Workload::IngestRecover.ops_for(12.0), 32768);
        assert_eq!(Workload::parse("far_churn"), Some(Workload::FarChurn));
        assert_eq!(Workload::parse("nope"), None);
    }
}
