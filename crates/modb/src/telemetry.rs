//! The unified telemetry core: one home for every operational number.
//!
//! Three pieces, mirroring the issue that introduced it:
//!
//! 1. A **lock-free metrics registry** ([`Telemetry`]): named counters,
//!    gauges, and log-bucketed latency histograms behind plain atomics,
//!    instrumented at every hot boundary of the seven-stage pipeline —
//!    commit latency, snapshot patch-vs-rebuild time, WAL append and
//!    fsync time, maintenance-round duration, per-ladder-rung counts,
//!    frame encode time, outbox push-to-drain lag, and follower
//!    replication lag, and one-shot engine-cache lookups (hits,
//!    carries, misses). [`crate::server::ModServer::metrics_snapshot`]
//!    adds the counters kept elsewhere ([`crate::store::DeltaStats`],
//!    [`crate::durability::WalStatus`],
//!    [`crate::subscription::SubscriptionStats`]) as rows of the same
//!    [`MetricsSnapshot`].
//!
//! 2. **Epoch-scoped tracing** ([`TraceRing`]): a bounded ring of
//!    structured [`TraceEvent`]s (epoch, stage, share id, ladder
//!    decision, duration) recorded per commit when enabled, so `TRACE
//!    EPOCH <e>` reconstructs exactly what one commit caused across the
//!    store, WAL, subscription index, and push fan-out. Disabled
//!    tracing compiles to a branch on a relaxed atomic ([`trace_on`]);
//!    the overhead of both switches is gated by `benches/telemetry.rs`.
//!
//! 3. **Exposition**: `SHOW METRICS [PREFIX <p>]` / `TRACE EPOCH <e>`
//!    statements (see [`crate::ql`]), wire-v5 Metrics/Trace frames
//!    (`docs/WIRE.md`), Prometheus-style text via
//!    [`MetricsSnapshot::render_prometheus`], and a JSON dump via
//!    [`MetricsSnapshot::to_json`] for `unn-cli serve --metrics-dump`.
//!
//! The full metric catalog lives in `docs/OBSERVABILITY.md`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global enablement switches
// ---------------------------------------------------------------------

/// Metrics are recorded by default; the bare-path bench flips this off.
static METRICS_ON: AtomicBool = AtomicBool::new(true);

/// Tracing is off by default — it costs a ring-buffer push per event.
static TRACE_ON: AtomicBool = AtomicBool::new(false);

/// `true` when metric recording is enabled (one relaxed load — the
/// entire cost of the disabled path at every instrumentation site).
#[inline]
pub fn metrics_on() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Enables or disables metric recording process-wide.
pub fn set_metrics(on: bool) {
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// `true` when epoch-scoped tracing is enabled (one relaxed load).
#[inline]
pub fn trace_on() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Enables or disables epoch-scoped tracing process-wide.
pub fn set_trace(on: bool) {
    TRACE_ON.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the process-wide monotonic base — a compact
/// timestamp for queue-lag measurements (enqueue stamps `now_ns`, the
/// drain subtracts).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Primitives: counters, gauges, histograms
// ---------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` (a relaxed fetch-add; skipped when metrics are off).
    #[inline]
    pub fn add(&self, n: u64) {
        if metrics_on() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that moves both ways (queue depths, lags).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge (skipped when metrics are off).
    #[inline]
    pub fn set(&self, v: u64) {
        if metrics_on() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to at least `v`.
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        if metrics_on() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets per histogram: bucket `i > 0` holds samples
/// whose bit length is `i` (the range `[2^(i-1), 2^i - 1]`), bucket `0`
/// holds exact zeros, and the last bucket absorbs everything above
/// `2^62`. 64 buckets cover the full `u64` nanosecond range — from
/// single nanoseconds past five centuries.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed latency histogram. Recording is one
/// relaxed fetch-add per of bucket/count/sum plus a fetch-max; reading
/// produces a [`HistogramSnapshot`] with p50/p90/p99/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: its bit length, clamped to the last
/// bucket (zero lands in bucket 0).
#[inline]
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Records one sample (skipped when metrics are off).
    #[inline]
    pub fn record(&self, v: u64) {
        if !metrics_on() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy (buckets sparse, zero buckets elided).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u8, c));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time histogram: sparse `(bucket, count)` pairs plus the
/// running count/sum/max. Snapshots merge ([`HistogramSnapshot::merge`])
/// and answer quantile queries ([`HistogramSnapshot::quantile`]); both
/// travel bit-exact over the wire (`docs/WIRE.md` § Metrics payload).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (nanoseconds for the latency histograms).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
    /// Sparse non-empty buckets, ascending by index; bucket `i > 0`
    /// covers `[2^(i-1), 2^i - 1]`, bucket 0 covers exact zeros.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The inclusive upper bound of bucket `idx`.
    fn bucket_upper(idx: u8) -> u64 {
        match idx {
            0 => 0,
            i if i as usize >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// The value at quantile `q` in `[0, 1]` — the upper bound of the
    /// bucket containing the `ceil(q·count)`-th sample, clamped to the
    /// observed maximum. Empty histograms answer 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= target {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket-resolution).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into `self`: counts and sums add, maxima take the
    /// larger, buckets merge index-wise (still sparse and ascending).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u8, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia == ib {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else {
                        merged.push((ib, cb));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

// ---------------------------------------------------------------------
// Epoch-scoped tracing
// ---------------------------------------------------------------------

/// Which pipeline stage a [`TraceEvent`] was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceStage {
    /// The store commit itself (duration = commit latency).
    Commit = 0,
    /// One WAL record appended (duration = write + any fsync).
    WalAppend = 1,
    /// A query snapshot refreshed by patching deltas.
    SnapshotPatch = 2,
    /// A query snapshot rebuilt from scratch.
    SnapshotRebuild = 3,
    /// The subscription index visited one share (`share` = share id,
    /// `detail` = the ladder decision, see [`ladder_decision_name`]).
    Visit = 4,
    /// One maintenance round completed (duration = round wall-clock,
    /// `detail` = shares visited).
    Round = 5,
    /// One pushed frame encoded (`share` = share id).
    FrameEncode = 6,
    /// One commit replicated to followers (`detail` = payload bytes).
    Replicate = 7,
}

impl TraceStage {
    /// The stage for wire tag `v`, if valid.
    pub fn from_u8(v: u8) -> Option<TraceStage> {
        Some(match v {
            0 => TraceStage::Commit,
            1 => TraceStage::WalAppend,
            2 => TraceStage::SnapshotPatch,
            3 => TraceStage::SnapshotRebuild,
            4 => TraceStage::Visit,
            5 => TraceStage::Round,
            6 => TraceStage::FrameEncode,
            7 => TraceStage::Replicate,
            _ => return None,
        })
    }

    /// Human-readable stage name (stable — rendered by the CLI).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Commit => "commit",
            TraceStage::WalAppend => "wal-append",
            TraceStage::SnapshotPatch => "snapshot-patch",
            TraceStage::SnapshotRebuild => "snapshot-rebuild",
            TraceStage::Visit => "visit",
            TraceStage::Round => "round",
            TraceStage::FrameEncode => "frame-encode",
            TraceStage::Replicate => "replicate",
        }
    }
}

/// Ladder decision codes carried in a [`TraceStage::Visit`] event's
/// `detail` field.
pub const LADDER_SKIPPED: u64 = 0;
/// The share's engine was patched in place.
pub const LADDER_PATCHED: u64 = 1;
/// The share's engine was rebuilt from scratch.
pub const LADDER_REBUILT: u64 = 2;
/// The commit carried no ops relevant to the share's watermark.
pub const LADDER_EMPTY: u64 = 3;

/// Renders a ladder decision code (the `detail` of a visit event).
pub fn ladder_decision_name(detail: u64) -> &'static str {
    match detail {
        LADDER_SKIPPED => "skipped",
        LADDER_PATCHED => "patched",
        LADDER_REBUILT => "rebuilt",
        LADDER_EMPTY => "empty",
        _ => "?",
    }
}

/// One structured trace event: which epoch, which stage, which share
/// (0 when not share-scoped), a stage-specific detail code, and the
/// stage's duration in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The store epoch this event belongs to.
    pub epoch: u64,
    /// The pipeline stage.
    pub stage: TraceStage,
    /// The share id for share-scoped stages, 0 otherwise.
    pub share: u64,
    /// Stage-specific detail (ladder decision, bytes, share count…).
    pub detail: u64,
    /// Stage duration in nanoseconds (0 when not timed).
    pub dur_ns: u64,
}

/// How many trace events the ring retains before evicting the oldest.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// A bounded ring of [`TraceEvent`]s. Pushes are gated on [`trace_on`]
/// *by the caller* (so disabled tracing never constructs an event); the
/// ring itself is a short critical section over a `VecDeque`.
#[derive(Debug, Default)]
pub struct TraceRing {
    events: Mutex<VecDeque<TraceEvent>>,
}

impl TraceRing {
    /// Appends one event, evicting the oldest past capacity.
    pub fn record(&self, ev: TraceEvent) {
        let mut ring = self.events.lock().unwrap();
        if ring.len() >= TRACE_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Every retained event of `epoch`, in recording order.
    pub fn events_for(&self, epoch: u64) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.epoch == epoch)
            .copied()
            .collect()
    }

    /// Number of retained events (bounded by [`TRACE_RING_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// The per-store metrics registry: every hot-path counter, gauge, and
/// histogram as a plain struct field (no name lookups on the hot path —
/// names are attached only when a [`MetricsSnapshot`] is taken).
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Commits applied (every mutator path).
    pub commits: Counter,
    /// Maintenance rounds completed by the subscription registry.
    pub maintenance_rounds: Counter,
    /// Ladder rung: shares skipped with an untouched-proof.
    pub ladder_skipped: Counter,
    /// Ladder rung: shares patched in place.
    pub ladder_patched: Counter,
    /// Ladder rung: patches whose answer diff emitted no delta.
    pub ladder_patched_quiet: Counter,
    /// Ladder rung: shares rebuilt from scratch.
    pub ladder_rebuilt: Counter,
    /// Ladder rung: rounds absorbed without visiting (spatial index).
    pub ladder_unvisited: Counter,
    /// Pushed frames encoded (encode-once, fan-out shared).
    pub frames_encoded: Counter,
    /// Commits replicated to the follower hub.
    pub repl_frames: Counter,
    /// Replication payload bytes published.
    pub repl_bytes: Counter,
    /// Worst follower lag at last publish, in queued epochs.
    pub repl_lag_epochs: Gauge,
    /// Worst follower lag at last publish, in queued bytes.
    pub repl_lag_bytes: Gauge,
    /// Commit latency (mutator entry to delta published).
    pub commit_ns: Histogram,
    /// Snapshot refresh time when deltas were patched in.
    pub snapshot_patch_ns: Histogram,
    /// Snapshot refresh time when rebuilt from scratch.
    pub snapshot_rebuild_ns: Histogram,
    /// WAL record append time (write path, excluding fsync).
    pub wal_append_ns: Histogram,
    /// WAL fsync time (policy-dependent; empty under `os`).
    pub wal_fsync_ns: Histogram,
    /// Maintenance round wall-clock.
    pub maintenance_round_ns: Histogram,
    /// Pushed frame encode time.
    pub frame_encode_ns: Histogram,
    /// Outbox lag: event enqueued to event drained onto a socket.
    pub push_drain_lag_ns: Histogram,
    /// Commit start to pushed frame handed to a socket.
    pub commit_to_push_ns: Histogram,
    /// `now_ns` at the start of the most recent commit (the anchor the
    /// push path subtracts to sample `commit_to_push_ns`).
    pub last_commit_start: AtomicU64,
    /// The epoch-scoped trace ring.
    pub trace: TraceRing,
    /// One-shot engine lookups served from the cache (carries included).
    pub cache_hits: Counter,
    /// One-shot engine lookups served by carrying an older engine.
    pub cache_carried: Counter,
    /// One-shot engine lookups that built the engine.
    pub cache_misses: Counter,
    /// Network requests whose worker job panicked (each answered with an error).
    pub server_panics: Counter,
    /// Times a connection's reads paused with its response queue past
    /// the loop's high watermark.
    pub net_read_paused: Counter,
}

impl Telemetry {
    /// A fresh registry with every number at zero.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Records a trace event if tracing is enabled (the disabled path
    /// is one relaxed load).
    #[inline]
    pub fn trace_event(&self, ev: TraceEvent) {
        if trace_on() {
            self.trace.record(ev);
        }
    }

    /// The registry's own counters/gauges/histograms as a snapshot
    /// ([`crate::server::ModServer::metrics_snapshot`] adds the rows it
    /// reads from the cache, the store, the WAL and the subscriptions).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = vec![
            ("store_commits_total", &self.commits),
            ("maintenance_rounds_total", &self.maintenance_rounds),
            ("ladder_skipped_total", &self.ladder_skipped),
            ("ladder_patched_total", &self.ladder_patched),
            ("ladder_rebuilt_total", &self.ladder_rebuilt),
            (
                "subs_ladder_patched_quiet_total",
                &self.ladder_patched_quiet,
            ),
            ("ladder_unvisited_total", &self.ladder_unvisited),
            ("frames_encoded_total", &self.frames_encoded),
            ("repl_frames_total", &self.repl_frames),
            ("repl_bytes_total", &self.repl_bytes),
            ("cache_hits_total", &self.cache_hits),
            ("cache_carried_total", &self.cache_carried),
            ("cache_misses_total", &self.cache_misses),
            ("server_panics_total", &self.server_panics),
            ("net_read_paused_total", &self.net_read_paused),
        ]
        .into_iter()
        .map(|(n, c)| (n.to_string(), c.get()))
        .collect();
        let gauges = vec![
            ("repl_lag_epochs".to_string(), self.repl_lag_epochs.get()),
            ("repl_lag_bytes".to_string(), self.repl_lag_bytes.get()),
        ];
        let histograms = vec![
            ("commit_ns", &self.commit_ns),
            ("snapshot_patch_ns", &self.snapshot_patch_ns),
            ("snapshot_rebuild_ns", &self.snapshot_rebuild_ns),
            ("wal_append_ns", &self.wal_append_ns),
            ("wal_fsync_ns", &self.wal_fsync_ns),
            ("maintenance_round_ns", &self.maintenance_round_ns),
            ("frame_encode_ns", &self.frame_encode_ns),
            ("push_drain_lag_ns", &self.push_drain_lag_ns),
            ("commit_to_push_ns", &self.commit_to_push_ns),
        ]
        .into_iter()
        .map(|(n, h)| (n.to_string(), h.snapshot()))
        .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots and rendering
// ---------------------------------------------------------------------

/// A point-in-time view of every metric: plain `(name, value)` rows for
/// counters and gauges plus named [`HistogramSnapshot`]s. This is the
/// payload of the wire `Metrics` output and the unit the CLI renders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// Latency histograms, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Drops every row whose name does not start with `prefix` (the
    /// `SHOW METRICS PREFIX <p>` filter).
    pub fn retain_prefix(&mut self, prefix: &str) {
        self.counters.retain(|(n, _)| n.starts_with(prefix));
        self.gauges.retain(|(n, _)| n.starts_with(prefix));
        self.histograms.retain(|(n, _)| n.starts_with(prefix));
    }

    /// Sorts every section by name (canonical order for rendering and
    /// deterministic wire payloads).
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// The value of the counter or gauge named `name`.
    pub fn value(&self, name: &str) -> Option<u64> {
        let mut rows = self.counters.iter().chain(&self.gauges);
        rows.find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Total number of rows across all three sections.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// `true` when no rows survived (e.g. an unmatched prefix).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prometheus-style text exposition: counters and gauges as plain
    /// samples, histograms as summaries with p50/p90/p99 quantile rows
    /// plus `_sum`, `_count`, and `_max`. Every family is prefixed
    /// `unn_`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE unn_{name} counter");
            let _ = writeln!(out, "unn_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE unn_{name} gauge");
            let _ = writeln!(out, "unn_{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE unn_{name} summary");
            for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                let _ = writeln!(out, "unn_{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "unn_{name}_sum {}", h.sum);
            let _ = writeln!(out, "unn_{name}_count {}", h.count);
            let _ = writeln!(out, "unn_{name}_max {}", h.max);
        }
        out
    }

    /// A JSON rendering of the snapshot (the `--metrics-dump` format):
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`,
    /// histogram objects carrying count/sum/max, the three quantiles,
    /// and the sparse buckets. Metric names are ASCII identifiers, so
    /// no string escaping is required.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            );
            for (j, (idx, c)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[{idx}, {c}]");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::default().snapshot();
        assert_eq!(h.count, 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn single_bucket_quantiles_collapse_to_max() {
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(100);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 1000);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets.len(), 1);
        // Every quantile sits in the one bucket, clamped to max.
        assert_eq!(s.p50(), 100);
        assert_eq!(s.p90(), 100);
        assert_eq!(s.p99(), 100);
        assert_eq!(s.mean(), 100);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(0, 2)]);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn quantiles_are_bucket_resolution_and_monotone() {
        let h = Histogram::default();
        // 90 fast samples (~1µs) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 resolves within the fast bucket [512, 1023]... 1000 has
        // bit length 10, so its bucket upper bound is 1023.
        assert_eq!(s.p50(), 1023);
        assert_eq!(s.p90(), 1023);
        // p99 falls among the slow samples, clamped to the observed max.
        assert_eq!(s.p99(), 1_000_000);
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max);
    }

    #[test]
    fn merge_combines_counts_sums_and_buckets() {
        let (a, b) = (Histogram::default(), Histogram::default());
        a.record(10);
        a.record(1_000);
        b.record(10);
        b.record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 10 + 1_000 + 10 + 1_000_000);
        assert_eq!(m.max, 1_000_000);
        // Shared bucket (the two 10s) merged; each index at most once.
        let idx10 = super::bucket_of(10) as u8;
        assert_eq!(
            m.buckets.iter().find(|(i, _)| *i == idx10),
            Some(&(idx10, 2))
        );
        let indices: Vec<u8> = m.buckets.iter().map(|(i, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(indices, sorted, "buckets ascending and unique");
        // Merging an empty snapshot is the identity.
        let before = m.clone();
        m.merge(&HistogramSnapshot::default());
        assert_eq!(m, before);
        // Merging *into* an empty snapshot copies.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn metrics_switch_gates_recording() {
        let h = Histogram::default();
        let c = Counter::default();
        set_metrics(false);
        h.record(42);
        c.inc();
        set_metrics(true);
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(c.get(), 0);
        h.record(42);
        c.inc();
        assert_eq!(h.snapshot().count, 1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn trace_ring_bounds_and_filters() {
        let ring = TraceRing::default();
        for epoch in 0..(TRACE_RING_CAPACITY as u64 + 100) {
            ring.record(TraceEvent {
                epoch,
                stage: TraceStage::Commit,
                share: 0,
                detail: 0,
                dur_ns: epoch,
            });
        }
        assert_eq!(ring.len(), TRACE_RING_CAPACITY);
        // The oldest 100 epochs were evicted.
        assert!(ring.events_for(50).is_empty());
        let newest = ring.events_for(TRACE_RING_CAPACITY as u64 + 99);
        assert_eq!(newest.len(), 1);
        assert_eq!(newest[0].stage, TraceStage::Commit);
    }

    #[test]
    fn trace_event_gated_by_switch() {
        let t = Telemetry::new();
        let ev = TraceEvent {
            epoch: 7,
            stage: TraceStage::Visit,
            share: 3,
            detail: LADDER_PATCHED,
            dur_ns: 10,
        };
        t.trace_event(ev); // tracing off by default
        assert!(t.trace.events_for(7).is_empty());
        set_trace(true);
        t.trace_event(ev);
        set_trace(false);
        assert_eq!(t.trace.events_for(7), vec![ev]);
    }

    #[test]
    fn stage_codes_round_trip() {
        for code in 0..8u8 {
            let stage = TraceStage::from_u8(code).expect("valid stage");
            assert_eq!(stage as u8, code);
            assert!(!stage.name().is_empty());
        }
        assert_eq!(TraceStage::from_u8(99), None);
        assert_eq!(ladder_decision_name(LADDER_REBUILT), "rebuilt");
        assert_eq!(ladder_decision_name(42), "?");
    }

    #[test]
    fn snapshot_prefix_filter_and_render() {
        let t = Telemetry::new();
        t.commits.add(3);
        t.commit_ns.record(1_000);
        t.repl_lag_epochs.set(2);
        let mut snap = t.snapshot();
        snap.sort();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "store_commits_total" && *v == 3));
        let text = snap.render_prometheus();
        assert!(text.contains("unn_store_commits_total 3"), "{text}");
        assert!(text.contains("unn_repl_lag_epochs 2"), "{text}");
        assert!(text.contains("unn_commit_ns{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("unn_commit_ns_count 1"), "{text}");
        let json = snap.to_json();
        assert!(json.contains("\"store_commits_total\": 3"), "{json}");
        assert!(json.contains("\"commit_ns\""), "{json}");
        // Prefix filtering keeps only matching families.
        snap.retain_prefix("wal_");
        assert!(snap.counters.is_empty());
        assert_eq!(snap.histograms.len(), 2, "{:?}", snap.histograms);
        let mut none = t.snapshot();
        none.retain_prefix("no_such_prefix");
        assert!(none.is_empty());
    }
}
