//! The framed binary wire protocol: length-prefixed, versioned frames
//! carrying requests, responses, and pushed subscription events.
//!
//! The normative byte-layout specification — every frame body, field by
//! field, plus the lagged-resync contract — lives in `docs/WIRE.md` at
//! the repository root; `tests/net_wire.rs` asserts the spec's
//! constants table matches the `pub const` items below, so the two
//! cannot drift silently.
//!
//! ## Framing
//!
//! ```text
//! frame   := length:u32le payload
//! payload := tag:u8 body            (length = |payload|, bounded)
//! ```
//!
//! Every multi-byte integer is little-endian; floats travel as their
//! exact IEEE-754 bit patterns ([`f64::to_bits`]), so a decoded
//! [`AnswerSet`] is **bit-identical** to the encoded one, and so is a
//! decoded trajectory (the checkpoint image's body is the same
//! trajectory encoding). Strings are UTF-8 with a `u32` byte-length
//! prefix; options are a presence byte; sequences a `u32` count.
//!
//! ## Versioning
//!
//! A connection opens with [`Frame::Hello`] (magic + protocol version)
//! answered by [`Frame::Welcome`]; either side closes with
//! [`Frame::Bye`]. The magic rejects non-protocol peers immediately, and
//! [`WIRE_VERSION`] gates incompatible evolutions of the frame bodies —
//! a server refuses mismatched versions during the handshake rather
//! than mis-decoding mid-stream. Decoding is defensive throughout:
//! frames above [`MAX_FRAME_LEN`], counts that overrun the payload,
//! malformed UTF-8, unknown tags, and non-finite interval bounds are all
//! [`WireError::Format`] (the connection is then dropped; the stream
//! cannot be trusted to re-synchronize).
//!
//! Round-trip coverage for every frame type lives in
//! `tests/net_wire.rs` (property-style) and the unit tests below.

use crate::delta::ReplOp;
use crate::server::QueryOutput;
use crate::subscription::{SubscriptionInfo, SubscriptionStats};
use crate::telemetry::{HistogramSnapshot, MetricsSnapshot, TraceEvent, TraceStage};
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;
use unn_core::answer::{AnswerDelta, AnswerEntry, AnswerSet};
use unn_core::keyed::Keyed;
use unn_core::probrows::{ProbRow, ProbRowDelta, ProbRowSet, RowPerspective};
use unn_geom::interval::{IntervalSet, TimeInterval};
use unn_prob::pdf::PdfKind;
use unn_traj::trajectory::{Oid, Trajectory, TrajectorySample};
use unn_traj::uncertain::UncertainTrajectory;

/// Protocol magic opening every [`Frame::Hello`] (`b"UNN1"`).
pub const WIRE_MAGIC: u32 = 0x554E_4E31;

/// Current protocol version; bumped on any incompatible frame change.
/// Version 2 added the probability-row payloads ([`Frame::RowEvent`]
/// and [`WireOutput::RowAnswer`]) pushed for threshold / reverse
/// standing queries. Version 3 extended the subscription-info stats
/// block with the maintenance-index counters (`visited`,
/// `skipped_unvisited`, `batched_commits`). Version 4 added follower
/// replication: the [`WireRequest::Follow`] exchange, its
/// [`WireOutput::FollowOk`] / [`WireOutput::Resync`] outputs, and the
/// pushed [`Frame::ReplDelta`] / [`Frame::ReplLagged`] stream.
/// Version 5 added the telemetry outputs: [`WireOutput::Metrics`]
/// (the `SHOW METRICS` snapshot) and [`WireOutput::Trace`] (the
/// `TRACE EPOCH` event list). Version 6 dropped the two adaptive-kernel
/// column counters from the subscription-info stats block (twelve
/// `u64`s).
pub const WIRE_VERSION: u16 = 6;

/// Upper bound on one frame's payload (a defense against hostile or
/// corrupt length prefixes, not a practical limit — a 64 MiB answer
/// delta would be millions of entries).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Frame tag for [`Frame::Hello`] — the first payload byte after the
/// length prefix. The full byte layout is specified in `docs/WIRE.md`.
pub const TAG_HELLO: u8 = 1;
/// Frame tag for [`Frame::Welcome`].
pub const TAG_WELCOME: u8 = 2;
/// Frame tag for [`Frame::Request`].
pub const TAG_REQUEST: u8 = 3;
/// Frame tag for [`Frame::Response`].
pub const TAG_RESPONSE: u8 = 4;
/// Frame tag for [`Frame::Event`] (interval-answer push).
pub const TAG_EVENT: u8 = 5;
/// Frame tag for [`Frame::Bye`].
pub const TAG_BYE: u8 = 6;
/// Frame tag for [`Frame::RowEvent`] (probability-row push).
pub const TAG_ROW_EVENT: u8 = 7;
/// Frame tag for [`Frame::ReplDelta`] (replicated commit push).
pub const TAG_REPL_DELTA: u8 = 8;
/// Frame tag for [`Frame::ReplLagged`] (follower fell behind notice).
pub const TAG_REPL_LAGGED: u8 = 9;

/// Errors raised while encoding, decoding, or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure (includes clean EOF mid-frame).
    Io(io::Error),
    /// Structurally invalid bytes: bad magic, unknown tag, overrun
    /// count, malformed UTF-8, non-finite interval…
    Format(String),
    /// The peer speaks an incompatible protocol version.
    Version {
        /// The version the peer announced.
        got: u16,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Format(m) => write!(f, "malformed frame: {m}"),
            WireError::Version { got } => {
                write!(f, "incompatible wire version {got} (want {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A client request body.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Execute a query-language statement (`SELECT …`, `REGISTER
    /// CONTINUOUS … AS name`, `UNREGISTER name`, `SHOW SUBSCRIPTIONS`).
    Statement(String),
    /// Register a trajectory (fails on duplicate ids).
    Insert(UncertainTrajectory),
    /// Register-or-replace under one commit (the GPS correction op).
    Update(UncertainTrajectory),
    /// Unregister an object.
    Remove(Oid),
    /// Fetch a subscription's full maintained answer with its epoch (the
    /// resync a `lagged` push stream recovers from).
    SubscriptionAnswer(String),
    /// Attach this connection as a replication follower whose store is
    /// current at `from_epoch`. The server answers
    /// [`WireOutput::FollowOk`] when its delta history still covers
    /// `from_epoch` (every later commit then arrives as a
    /// [`Frame::ReplDelta`]), or [`WireOutput::Resync`] with a full
    /// snapshot when the follower lags past the retained horizon —
    /// snapshot-then-replay, exactly like a lagged subscriber.
    Follow {
        /// The follower's current store epoch (`0` for a cold start).
        from_epoch: u64,
    },
}

/// A successful response body.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutput {
    /// Category 1/2 answer for a single target.
    Boolean(bool),
    /// Category 3/4 answer: qualifying objects with window fractions.
    Objects(Vec<(Oid, f64)>),
    /// `REGISTER CONTINUOUS` installed the standing query (and attached
    /// this connection's outbox to it).
    Registered(SubscriptionInfo),
    /// `UNREGISTER` dropped the standing query.
    Unregistered(String),
    /// `SHOW SUBSCRIPTIONS` listing.
    Subscriptions(Vec<SubscriptionInfo>),
    /// An interval subscription's full answer at the epoch it is
    /// current at.
    Answer {
        /// The store epoch the answer is current at.
        epoch: u64,
        /// The maintained answer.
        answer: AnswerSet,
    },
    /// A mutation applied cleanly.
    Done,
    /// A threshold/reverse subscription's full probability rows at the
    /// epoch they are current at (the row analogue of
    /// [`WireOutput::Answer`]).
    RowAnswer {
        /// The store epoch the rows are current at.
        epoch: u64,
        /// The maintained probability rows.
        rows: ProbRowSet,
    },
    /// [`WireRequest::Follow`] accepted at the follower's own epoch: the
    /// delta history covers it, and every commit after `epoch` streams
    /// as a [`Frame::ReplDelta`].
    FollowOk {
        /// The epoch the stream continues from (the follower's
        /// `from_epoch`, echoed).
        epoch: u64,
    },
    /// [`WireRequest::Follow`] answered with a full store snapshot: the
    /// follower's epoch predates the retained delta horizon, so it must
    /// replace its contents wholesale and fold the streamed deltas on
    /// top (snapshot-then-replay).
    Resync {
        /// The store epoch the snapshot is current at.
        epoch: u64,
        /// Every stored trajectory, ascending by id, bit-exact.
        objects: Vec<UncertainTrajectory>,
    },
    /// `SHOW METRICS [PREFIX p]` answered with a point-in-time
    /// telemetry snapshot: counters, gauges, and sparse-bucket latency
    /// histograms, each as `(name, value)` rows ascending by name.
    Metrics(MetricsSnapshot),
    /// `TRACE EPOCH e` answered with the retained pipeline trace of
    /// that epoch (empty when tracing is off or the ring evicted it).
    Trace {
        /// The requested epoch, echoed.
        epoch: u64,
        /// The retained events in recording order.
        events: Vec<TraceEvent>,
    },
}

/// A statement's answer as it travels: each [`QueryOutput`] variant has
/// its same-named wire variant.
impl From<QueryOutput> for WireOutput {
    fn from(out: QueryOutput) -> Self {
        match out {
            QueryOutput::Boolean(b) => WireOutput::Boolean(b),
            QueryOutput::Objects(rows) => WireOutput::Objects(rows),
            QueryOutput::Registered(info) => WireOutput::Registered(info),
            QueryOutput::Unregistered(name) => WireOutput::Unregistered(name),
            QueryOutput::Subscriptions(infos) => WireOutput::Subscriptions(infos),
            QueryOutput::Metrics(snapshot) => WireOutput::Metrics(snapshot),
            QueryOutput::Trace { epoch, events } => WireOutput::Trace { epoch, events },
        }
    }
}

/// One wire frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server greeting: magic + version.
    Hello {
        /// The client's protocol version.
        version: u16,
    },
    /// Server → client greeting: accepted version + current store epoch.
    Welcome {
        /// The server's protocol version.
        version: u16,
        /// The store epoch at accept time.
        epoch: u64,
    },
    /// A client request, answered by exactly one `Response` with the
    /// same id.
    Request {
        /// Client-chosen correlation id.
        id: u64,
        /// The request body.
        body: WireRequest,
    },
    /// The server's answer to the `Request` with the same id.
    Response {
        /// The correlated request id.
        id: u64,
        /// The outcome (`Err` carries the server's error rendering).
        result: Result<WireOutput, String>,
    },
    /// A pushed interval-subscription delta (server → client,
    /// unsolicited).
    Event {
        /// The subscription name.
        subscription: String,
        /// The epoch-tagged answer delta.
        delta: AnswerDelta,
        /// `true` when backpressure squashed older deltas into this one
        /// (fold stays exact; per-epoch granularity was lost — resync
        /// via [`WireRequest::SubscriptionAnswer`] if that matters).
        lagged: bool,
    },
    /// Clean shutdown notice, either direction.
    Bye,
    /// A pushed probability-row delta of a threshold/reverse
    /// subscription (server → client, unsolicited) — the row analogue of
    /// [`Frame::Event`], same backpressure contract.
    RowEvent {
        /// The subscription name.
        subscription: String,
        /// The epoch-tagged row delta.
        delta: ProbRowDelta,
        /// `true` when backpressure squashed older deltas into this one.
        lagged: bool,
    },
    /// One replicated commit, pushed to following connections
    /// (server → client, unsolicited). The body after the tag byte is
    /// byte-identical to the WAL record payload of the same commit
    /// ([`crate::durability`]): `epoch:u64le count:u32le op*` — encoded
    /// once per commit and fanned out as shared bytes.
    ReplDelta {
        /// The store epoch this commit created.
        epoch: u64,
        /// The commit's mutations, in commit order.
        ops: Vec<ReplOp>,
    },
    /// The follower's replication outbox overflowed and older
    /// [`Frame::ReplDelta`]s were dropped (server → client,
    /// unsolicited). Deltas cannot be squashed like answer deltas —
    /// a gap breaks the epoch chain — so the follower must re-issue
    /// [`WireRequest::Follow`] at its current epoch.
    ReplLagged {
        /// The leader's epoch when the overflow happened.
        epoch: u64,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_intervals(buf: &mut Vec<u8>, iv: &IntervalSet) {
    put_u32(buf, iv.spans().len() as u32);
    for span in iv.spans() {
        put_f64(buf, span.start());
        put_f64(buf, span.end());
    }
}

fn put_entry(buf: &mut Vec<u8>, e: &AnswerEntry) {
    put_u64(buf, e.oid.0);
    put_intervals(buf, &e.intervals);
}

fn put_answer_set(buf: &mut Vec<u8>, a: &AnswerSet) {
    put_u64(buf, a.query().0);
    put_f64(buf, a.window().start());
    put_f64(buf, a.window().end());
    match a.rank() {
        Some(k) => {
            put_u8(buf, 1);
            put_u64(buf, k as u64);
        }
        None => put_u8(buf, 0),
    }
    put_u32(buf, a.entries().len() as u32);
    for e in a.entries() {
        put_entry(buf, e);
    }
}

/// The one delta body encoder, shared by [`Frame::Event`] and
/// [`Frame::RowEvent`]: `count:u32le row* count:u32le oid:u64le*` —
/// upserts through the representation's row codec, then removals.
fn put_keyed_delta<R>(
    buf: &mut Vec<u8>,
    upserts: &[R],
    removed: &[Oid],
    put_row: fn(&mut Vec<u8>, &R),
) {
    put_u32(buf, upserts.len() as u32);
    for row in upserts {
        put_row(buf, row);
    }
    put_u32(buf, removed.len() as u32);
    for oid in removed {
        put_u64(buf, oid.0);
    }
}

fn put_prob_row(buf: &mut Vec<u8>, r: &ProbRow) {
    put_u64(buf, r.oid.0);
    put_u32(buf, r.points.len() as u32);
    for (k, p) in &r.points {
        put_u32(buf, *k);
        put_f64(buf, *p);
    }
}

fn put_prob_rows(buf: &mut Vec<u8>, rows: &ProbRowSet) {
    put_u64(buf, rows.query().0);
    put_f64(buf, rows.window().start());
    put_f64(buf, rows.window().end());
    put_u8(
        buf,
        match rows.perspective() {
            RowPerspective::Forward => 0,
            RowPerspective::Reverse => 1,
        },
    );
    put_u32(buf, rows.samples());
    put_u32(buf, rows.rows().len() as u32);
    for r in rows.rows() {
        put_prob_row(buf, r);
    }
}

fn put_info(buf: &mut Vec<u8>, info: &SubscriptionInfo) {
    put_str(buf, &info.name);
    put_str(buf, &info.statement);
    put_u64(buf, info.last_epoch);
    put_u64(buf, info.entries as u64);
    put_u64(buf, info.pending_deltas as u64);
    match &info.error {
        Some(e) => {
            put_u8(buf, 1);
            put_str(buf, e);
        }
        None => put_u8(buf, 0),
    }
    let s = &info.stats;
    for v in [
        s.skipped,
        s.skipped_ops,
        s.patched,
        s.rebuilt,
        s.envelopes_carried,
        s.functions_reused,
        s.functions_built,
        s.rows_patched,
        s.perspectives_skipped,
        s.visited,
        s.skipped_unvisited,
        s.batched_commits,
    ] {
        put_u64(buf, v);
    }
}

/// The `Metrics` output payload: three `(count, rows…)` sections —
/// counters and gauges as `(name, u64)`, histograms as
/// `(name, count, sum, max, sparse (bucket:u8, count:u64) pairs)`.
/// Rows travel in snapshot order (ascending by name), bit-exact.
fn put_metrics(buf: &mut Vec<u8>, snap: &MetricsSnapshot) {
    put_u32(buf, snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        put_str(buf, name);
        put_u64(buf, *v);
    }
    put_u32(buf, snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        put_str(buf, name);
        put_u64(buf, *v);
    }
    put_u32(buf, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        put_str(buf, name);
        put_u64(buf, h.count);
        put_u64(buf, h.sum);
        put_u64(buf, h.max);
        put_u32(buf, h.buckets.len() as u32);
        for (idx, n) in &h.buckets {
            put_u8(buf, *idx);
            put_u64(buf, *n);
        }
    }
}

/// The shortest trajectory encoding (`oid radius pdf-tag sample-count`,
/// no samples) — what bounds a trajectory count against its payload.
pub(crate) const MIN_TRAJECTORY_LEN: usize = 8 + 8 + 1 + 4;

/// Appends one trajectory in the wire's bit-exact encoding — the element
/// of a [`WireOutput::Resync`] object list, of a commit body's insert
/// op, and (via [`crate::durability`]) of a checkpoint image's body.
pub(crate) fn put_trajectory(buf: &mut Vec<u8>, tr: &UncertainTrajectory) {
    put_u64(buf, tr.oid().0);
    put_f64(buf, tr.radius());
    match tr.pdf() {
        PdfKind::Uniform { .. } => put_u8(buf, 0),
        PdfKind::TruncatedGaussian { sigma, .. } => {
            put_u8(buf, 1);
            put_f64(buf, sigma);
        }
    }
    let samples = tr.trajectory().samples();
    put_u32(buf, samples.len() as u32);
    for s in samples {
        put_f64(buf, s.position.x);
        put_f64(buf, s.position.y);
        put_f64(buf, s.time);
    }
}

/// Serializes one commit's replication body: `epoch:u64le count:u32le`
/// then each op (`0` + trajectory, `1` + oid, `2` for a whole-store
/// clear). This exact byte sequence is **shared verbatim** between the
/// WAL record payload ([`crate::durability`]) and the body of a
/// [`Frame::ReplDelta`] after its tag byte — one encoding, checked by
/// one checksum on disk and one frame length on the wire — so replayed
/// and replicated commits are bit-identical by construction.
pub(crate) fn encode_commit_body(buf: &mut Vec<u8>, epoch: u64, ops: &[ReplOp]) {
    put_u64(buf, epoch);
    put_u32(buf, ops.len() as u32);
    for op in ops {
        match op {
            ReplOp::Insert(tr) => {
                put_u8(buf, 0);
                put_trajectory(buf, tr);
            }
            ReplOp::Remove(oid) => {
                put_u8(buf, 1);
                put_u64(buf, oid.0);
            }
            ReplOp::Clear => put_u8(buf, 2),
        }
    }
}

/// Decodes one commit's replication body (the exact inverse of
/// [`encode_commit_body`]), rejecting trailing bytes — the shape WAL
/// replay reads after verifying the record checksum.
pub(crate) fn decode_commit_body(payload: &[u8]) -> Result<(u64, Vec<ReplOp>), WireError> {
    let mut c = Cursor::new(payload);
    let out = c.commit_body()?;
    c.finish()?;
    Ok(out)
}

/// The byte length of the trajectory encoded at the front of `bytes`,
/// read from its fixed fields alone — `Ok(None)` while `bytes` is too
/// short to hold them. This is how a reader streaming a list of
/// [`put_trajectory`] encodings (a checkpoint image's body) knows whether
/// the next one is whole in its buffer before decoding it.
pub(crate) fn trajectory_len(bytes: &[u8]) -> Result<Option<usize>, WireError> {
    let head = match bytes.get(16) {
        None => return Ok(None),
        Some(0) => MIN_TRAJECTORY_LEN,
        Some(1) => MIN_TRAJECTORY_LEN + 8,
        Some(t) => return Err(WireError::Format(format!("unknown pdf tag {t} at byte 16"))),
    };
    let Some(count) = bytes.get(head - 4..head) else {
        return Ok(None);
    };
    let samples = u32::from_le_bytes(count.try_into().unwrap()) as usize;
    Ok(Some(samples.saturating_mul(24).saturating_add(head)))
}

/// Decodes the one trajectory `bytes` holds (the inverse of
/// [`put_trajectory`]), rejecting trailing bytes.
pub(crate) fn decode_trajectory(bytes: &[u8]) -> Result<UncertainTrajectory, WireError> {
    let mut c = Cursor::new(bytes);
    let tr = c.trajectory()?;
    c.finish()?;
    Ok(tr)
}

/// Serializes one frame's payload (tag + body, no length prefix).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match frame {
        Frame::Hello { version } => {
            put_u8(&mut buf, TAG_HELLO);
            put_u32(&mut buf, WIRE_MAGIC);
            put_u16(&mut buf, *version);
        }
        Frame::Welcome { version, epoch } => {
            put_u8(&mut buf, TAG_WELCOME);
            put_u16(&mut buf, *version);
            put_u64(&mut buf, *epoch);
        }
        Frame::Request { id, body } => {
            put_u8(&mut buf, TAG_REQUEST);
            put_u64(&mut buf, *id);
            match body {
                WireRequest::Statement(s) => {
                    put_u8(&mut buf, 0);
                    put_str(&mut buf, s);
                }
                WireRequest::Insert(tr) => {
                    put_u8(&mut buf, 1);
                    put_trajectory(&mut buf, tr);
                }
                WireRequest::Update(tr) => {
                    put_u8(&mut buf, 2);
                    put_trajectory(&mut buf, tr);
                }
                WireRequest::Remove(oid) => {
                    put_u8(&mut buf, 3);
                    put_u64(&mut buf, oid.0);
                }
                WireRequest::SubscriptionAnswer(name) => {
                    put_u8(&mut buf, 4);
                    put_str(&mut buf, name);
                }
                WireRequest::Follow { from_epoch } => {
                    put_u8(&mut buf, 5);
                    put_u64(&mut buf, *from_epoch);
                }
            }
        }
        Frame::Response { id, result } => {
            put_u8(&mut buf, TAG_RESPONSE);
            put_u64(&mut buf, *id);
            match result {
                Err(message) => {
                    put_u8(&mut buf, 0);
                    put_str(&mut buf, message);
                }
                Ok(out) => {
                    put_u8(&mut buf, 1);
                    match out {
                        WireOutput::Boolean(b) => {
                            put_u8(&mut buf, 0);
                            put_u8(&mut buf, *b as u8);
                        }
                        WireOutput::Objects(rows) => {
                            put_u8(&mut buf, 1);
                            put_u32(&mut buf, rows.len() as u32);
                            for (oid, frac) in rows {
                                put_u64(&mut buf, oid.0);
                                put_f64(&mut buf, *frac);
                            }
                        }
                        WireOutput::Registered(info) => {
                            put_u8(&mut buf, 2);
                            put_info(&mut buf, info);
                        }
                        WireOutput::Unregistered(name) => {
                            put_u8(&mut buf, 3);
                            put_str(&mut buf, name);
                        }
                        WireOutput::Subscriptions(infos) => {
                            put_u8(&mut buf, 4);
                            put_u32(&mut buf, infos.len() as u32);
                            for info in infos {
                                put_info(&mut buf, info);
                            }
                        }
                        WireOutput::Answer { epoch, answer } => {
                            put_u8(&mut buf, 5);
                            put_u64(&mut buf, *epoch);
                            put_answer_set(&mut buf, answer);
                        }
                        WireOutput::Done => put_u8(&mut buf, 6),
                        WireOutput::RowAnswer { epoch, rows } => {
                            put_u8(&mut buf, 7);
                            put_u64(&mut buf, *epoch);
                            put_prob_rows(&mut buf, rows);
                        }
                        WireOutput::FollowOk { epoch } => {
                            put_u8(&mut buf, 8);
                            put_u64(&mut buf, *epoch);
                        }
                        WireOutput::Resync { epoch, objects } => {
                            put_u8(&mut buf, 9);
                            put_u64(&mut buf, *epoch);
                            put_u32(&mut buf, objects.len() as u32);
                            for tr in objects {
                                put_trajectory(&mut buf, tr);
                            }
                        }
                        WireOutput::Metrics(snapshot) => {
                            put_u8(&mut buf, 10);
                            put_metrics(&mut buf, snapshot);
                        }
                        WireOutput::Trace { epoch, events } => {
                            put_u8(&mut buf, 11);
                            put_u64(&mut buf, *epoch);
                            put_u32(&mut buf, events.len() as u32);
                            for ev in events {
                                put_u64(&mut buf, ev.epoch);
                                put_u8(&mut buf, ev.stage as u8);
                                put_u64(&mut buf, ev.share);
                                put_u64(&mut buf, ev.detail);
                                put_u64(&mut buf, ev.dur_ns);
                            }
                        }
                    }
                }
            }
        }
        Frame::Event {
            subscription,
            delta,
            lagged,
        } => {
            put_u8(&mut buf, TAG_EVENT);
            put_str(&mut buf, subscription);
            put_u8(&mut buf, *lagged as u8);
            put_u64(&mut buf, delta.epoch);
            put_keyed_delta(&mut buf, &delta.upserts, &delta.removed, put_entry);
        }
        Frame::Bye => put_u8(&mut buf, TAG_BYE),
        Frame::RowEvent {
            subscription,
            delta,
            lagged,
        } => {
            put_u8(&mut buf, TAG_ROW_EVENT);
            put_str(&mut buf, subscription);
            put_u8(&mut buf, *lagged as u8);
            put_u64(&mut buf, delta.epoch);
            put_u32(&mut buf, delta.samples);
            put_keyed_delta(&mut buf, &delta.upserts, &delta.removed, put_prob_row);
        }
        Frame::ReplDelta { epoch, ops } => {
            put_u8(&mut buf, TAG_REPL_DELTA);
            encode_commit_body(&mut buf, *epoch, ops);
        }
        Frame::ReplLagged { epoch } => {
            put_u8(&mut buf, TAG_REPL_LAGGED);
            put_u64(&mut buf, *epoch);
        }
    }
    buf
}

/// Writes one length-prefixed frame. Payloads above [`MAX_FRAME_LEN`]
/// are refused with an error **before** any byte hits the wire — the
/// peer would reject the length prefix and tear the connection down,
/// and a length above `u32::MAX` would silently desynchronize the
/// stream (the encoder enforces the same bound the decoder does).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame_bytes(frame)?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Encodes one frame as its complete wire image — the `u32le` length
/// prefix followed by the payload — as shareable bytes. This is the
/// **encode-once broadcast** primitive: the server serializes a pushed
/// `Event`/`RowEvent` once, publishes the `Arc<[u8]>` through the
/// event's [`crate::subscription::FrameCache`], and every connection
/// watching the same subscription enqueues the same allocation instead
/// of re-encoding (see `docs/WIRE.md` § Push delivery). Payloads above
/// [`MAX_FRAME_LEN`] are refused before touching any socket.
pub fn encode_frame_bytes(frame: &Frame) -> io::Result<Arc<[u8]>> {
    let payload = encode_payload(frame);
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_LEN} byte bound",
                payload.len()
            ),
        ));
    }
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    Ok(bytes.into())
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bad(&self, what: &str) -> WireError {
        WireError::Format(format!("{what} at byte {}", self.pos))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.bad("truncated payload"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A sequence count, sanity-bounded by the bytes actually remaining
    /// (`min_size` per element) so a corrupt count cannot drive a huge
    /// allocation.
    fn count(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_size.max(1)) > self.buf.len() - self.pos {
            return Err(self.bad("count overruns payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Format("invalid UTF-8 string".to_string()))
    }

    fn interval(&mut self) -> Result<TimeInterval, WireError> {
        let (a, b) = (self.f64()?, self.f64()?);
        TimeInterval::try_new(a, b).ok_or_else(|| self.bad("invalid interval"))
    }

    fn intervals(&mut self) -> Result<IntervalSet, WireError> {
        let n = self.count(16)?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            spans.push(self.interval()?);
        }
        Ok(IntervalSet::from_intervals(spans))
    }

    fn entry(&mut self) -> Result<AnswerEntry, WireError> {
        Ok(AnswerEntry {
            oid: Oid(self.u64()?),
            intervals: self.intervals()?,
        })
    }

    fn answer_set(&mut self) -> Result<AnswerSet, WireError> {
        let query = Oid(self.u64()?);
        let window = self.interval()?;
        let rank = match self.u8()? {
            0 => None,
            1 => Some(self.u64()? as usize),
            _ => return Err(self.bad("invalid rank flag")),
        };
        let n = self.count(12)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(self.entry()?);
        }
        Ok(AnswerSet::new(query, window, rank, entries))
    }

    /// A sequence whose items must be strictly ascending by object id
    /// (`min_size` = the smallest item encoding, for the count bound).
    fn ascending<T>(
        &mut self,
        what: &str,
        min_size: usize,
        key: impl Fn(&T) -> Oid,
        item: impl Fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_size)?;
        let mut items: Vec<T> = Vec::with_capacity(n);
        for _ in 0..n {
            let next = item(self)?;
            if items.last().is_some_and(|prev| key(&next) <= key(prev)) {
                return Err(self.bad(&format!("{what} not ascending")));
            }
            items.push(next);
        }
        Ok(items)
    }

    /// The one delta body decoder (see [`put_keyed_delta`]): upserts
    /// through the representation's row codec, then removals. Both lists
    /// must be strictly ascending by object id: the fold algebra
    /// ([`unn_core::keyed`]) merges and binary-searches them, so a
    /// mis-ordered or duplicated frame would silently corrupt the
    /// client's folded answer instead of failing loudly.
    fn keyed_delta<R: Keyed>(
        &mut self,
        min_row: usize,
        row: impl Fn(&mut Self) -> Result<R, WireError>,
    ) -> Result<(Vec<R>, Vec<Oid>), WireError> {
        let upserts = self.ascending("delta upsert owners", min_row, R::key, row)?;
        let removed = self.ascending("delta removals", 8, |oid| *oid, |c| Ok(Oid(c.u64()?)))?;
        Ok((upserts, removed))
    }

    fn prob_row(&mut self, samples: u32) -> Result<ProbRow, WireError> {
        let oid = Oid(self.u64()?);
        let n = self.count(12)?;
        let mut points = Vec::with_capacity(n);
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let k = self.u32()?;
            if prev.map(|p| k <= p).unwrap_or(false) {
                return Err(self.bad("row sample indices not ascending"));
            }
            if k >= samples {
                return Err(self.bad("row sample index out of range"));
            }
            prev = Some(k);
            points.push((k, self.f64()?));
        }
        if points.is_empty() {
            return Err(self.bad("empty probability row"));
        }
        Ok(ProbRow { oid, points })
    }

    fn prob_rows(&mut self) -> Result<ProbRowSet, WireError> {
        let query = Oid(self.u64()?);
        let window = self.interval()?;
        let perspective = match self.u8()? {
            0 => RowPerspective::Forward,
            1 => RowPerspective::Reverse,
            t => return Err(self.bad(&format!("unknown row perspective {t}"))),
        };
        let samples = self.u32()?;
        if samples == 0 {
            return Err(self.bad("row set with zero samples"));
        }
        let rows = self.ascending("row owners", 16, ProbRow::key, |c| c.prob_row(samples))?;
        Ok(ProbRowSet::new(query, window, perspective, samples, rows))
    }

    fn info(&mut self) -> Result<SubscriptionInfo, WireError> {
        let name = self.str()?;
        let statement = self.str()?;
        let last_epoch = self.u64()?;
        let entries = self.u64()? as usize;
        let pending_deltas = self.u64()? as usize;
        let error = match self.u8()? {
            0 => None,
            1 => Some(self.str()?),
            _ => return Err(self.bad("invalid error flag")),
        };
        let stats = SubscriptionStats {
            skipped: self.u64()?,
            skipped_ops: self.u64()?,
            patched: self.u64()?,
            rebuilt: self.u64()?,
            envelopes_carried: self.u64()?,
            functions_reused: self.u64()?,
            functions_built: self.u64()?,
            rows_patched: self.u64()?,
            perspectives_skipped: self.u64()?,
            visited: self.u64()?,
            skipped_unvisited: self.u64()?,
            batched_commits: self.u64()?,
        };
        Ok(SubscriptionInfo {
            name,
            statement,
            last_epoch,
            entries,
            pending_deltas,
            error,
            stats,
        })
    }

    /// The `Metrics` output payload (see [`put_metrics`]). Bucket
    /// indices are checked ascending and in histogram range so a
    /// decoded snapshot upholds the same invariants a local one does.
    fn metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
        let n = self.count(12)?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            counters.push((self.str()?, self.u64()?));
        }
        let n = self.count(12)?;
        let mut gauges = Vec::with_capacity(n);
        for _ in 0..n {
            gauges.push((self.str()?, self.u64()?));
        }
        let n = self.count(32)?;
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let (count, sum, max) = (self.u64()?, self.u64()?, self.u64()?);
            let nb = self.count(9)?;
            let mut buckets = Vec::with_capacity(nb);
            let mut prev: Option<u8> = None;
            for _ in 0..nb {
                let idx = self.u8()?;
                if idx as usize >= crate::telemetry::HISTOGRAM_BUCKETS {
                    return Err(self.bad(&format!("histogram bucket {idx} out of range")));
                }
                if prev.map(|p| idx <= p).unwrap_or(false) {
                    return Err(self.bad("histogram buckets not ascending"));
                }
                prev = Some(idx);
                buckets.push((idx, self.u64()?));
            }
            histograms.push((
                name,
                HistogramSnapshot {
                    count,
                    sum,
                    max,
                    buckets,
                },
            ));
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    fn trajectory(&mut self) -> Result<UncertainTrajectory, WireError> {
        let oid = Oid(self.u64()?);
        let radius = self.f64()?;
        let pdf = match self.u8()? {
            0 => PdfKind::Uniform { radius },
            1 => PdfKind::TruncatedGaussian {
                radius,
                sigma: self.f64()?,
            },
            t => return Err(self.bad(&format!("unknown pdf tag {t}"))),
        };
        let n = self.count(24)?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let (x, y, t) = (self.f64()?, self.f64()?, self.f64()?);
            samples.push(TrajectorySample::new(x, y, t));
        }
        let tr = Trajectory::new(oid, samples)
            .map_err(|e| WireError::Format(format!("invalid trajectory {oid}: {e}")))?;
        UncertainTrajectory::new(tr, radius, pdf)
            .map_err(|e| WireError::Format(format!("invalid uncertainty for {oid}: {e}")))
    }

    /// One commit's replication body (see [`encode_commit_body`]).
    fn commit_body(&mut self) -> Result<(u64, Vec<ReplOp>), WireError> {
        let epoch = self.u64()?;
        let n = self.count(1)?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(match self.u8()? {
                0 => ReplOp::Insert(Arc::new(self.trajectory()?)),
                1 => ReplOp::Remove(Oid(self.u64()?)),
                2 => ReplOp::Clear,
                t => return Err(self.bad(&format!("unknown replication op tag {t}"))),
            });
        }
        Ok((epoch, ops))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Format(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decodes one frame payload (tag + body, no length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(payload);
    let frame = match c.u8()? {
        TAG_HELLO => {
            let magic = c.u32()?;
            if magic != WIRE_MAGIC {
                return Err(WireError::Format(format!("bad magic {magic:#010x}")));
            }
            Frame::Hello { version: c.u16()? }
        }
        TAG_WELCOME => Frame::Welcome {
            version: c.u16()?,
            epoch: c.u64()?,
        },
        TAG_REQUEST => {
            let id = c.u64()?;
            let body = match c.u8()? {
                0 => WireRequest::Statement(c.str()?),
                1 => WireRequest::Insert(c.trajectory()?),
                2 => WireRequest::Update(c.trajectory()?),
                3 => WireRequest::Remove(Oid(c.u64()?)),
                4 => WireRequest::SubscriptionAnswer(c.str()?),
                5 => WireRequest::Follow {
                    from_epoch: c.u64()?,
                },
                t => return Err(c.bad(&format!("unknown request tag {t}"))),
            };
            Frame::Request { id, body }
        }
        TAG_RESPONSE => {
            let id = c.u64()?;
            let result = match c.u8()? {
                0 => Err(c.str()?),
                1 => Ok(match c.u8()? {
                    0 => WireOutput::Boolean(c.u8()? != 0),
                    1 => {
                        let n = c.count(16)?;
                        let mut rows = Vec::with_capacity(n);
                        for _ in 0..n {
                            rows.push((Oid(c.u64()?), c.f64()?));
                        }
                        WireOutput::Objects(rows)
                    }
                    2 => WireOutput::Registered(c.info()?),
                    3 => WireOutput::Unregistered(c.str()?),
                    4 => {
                        let n = c.count(1)?;
                        let mut infos = Vec::with_capacity(n);
                        for _ in 0..n {
                            infos.push(c.info()?);
                        }
                        WireOutput::Subscriptions(infos)
                    }
                    5 => WireOutput::Answer {
                        epoch: c.u64()?,
                        answer: c.answer_set()?,
                    },
                    6 => WireOutput::Done,
                    7 => WireOutput::RowAnswer {
                        epoch: c.u64()?,
                        rows: c.prob_rows()?,
                    },
                    8 => WireOutput::FollowOk { epoch: c.u64()? },
                    // Ascending ids make the payload canonical: a resync
                    // is the follower's new ground truth, so it must be
                    // bit-comparable to a snapshot dump.
                    9 => WireOutput::Resync {
                        epoch: c.u64()?,
                        objects: c.ascending(
                            "resync objects",
                            1,
                            UncertainTrajectory::oid,
                            Cursor::trajectory,
                        )?,
                    },
                    10 => WireOutput::Metrics(c.metrics()?),
                    11 => {
                        let epoch = c.u64()?;
                        let n = c.count(33)?;
                        let mut events = Vec::with_capacity(n);
                        for _ in 0..n {
                            let ev_epoch = c.u64()?;
                            let code = c.u8()?;
                            let stage = match TraceStage::from_u8(code) {
                                Some(stage) => stage,
                                None => return Err(c.bad(&format!("unknown trace stage {code}"))),
                            };
                            events.push(TraceEvent {
                                epoch: ev_epoch,
                                stage,
                                share: c.u64()?,
                                detail: c.u64()?,
                                dur_ns: c.u64()?,
                            });
                        }
                        WireOutput::Trace { epoch, events }
                    }
                    t => return Err(c.bad(&format!("unknown output tag {t}"))),
                }),
                t => return Err(c.bad(&format!("invalid result flag {t}"))),
            };
            Frame::Response { id, result }
        }
        TAG_EVENT => {
            let (subscription, lagged, epoch) = (c.str()?, c.u8()? != 0, c.u64()?);
            let (upserts, removed) = c.keyed_delta(12, Cursor::entry)?;
            Frame::Event {
                subscription,
                lagged,
                delta: AnswerDelta {
                    epoch,
                    upserts,
                    removed,
                },
            }
        }
        TAG_BYE => Frame::Bye,
        TAG_ROW_EVENT => {
            let (subscription, lagged, epoch) = (c.str()?, c.u8()? != 0, c.u64()?);
            let samples = c.u32()?;
            if samples == 0 {
                return Err(c.bad("row delta with zero samples"));
            }
            // Sample indices are checked ascending and in range against
            // the delta's own probe count.
            let (upserts, removed) = c.keyed_delta(16, |c| c.prob_row(samples))?;
            Frame::RowEvent {
                subscription,
                lagged,
                delta: ProbRowDelta {
                    epoch,
                    samples,
                    upserts,
                    removed,
                },
            }
        }
        TAG_REPL_DELTA => {
            let (epoch, ops) = c.commit_body()?;
            Frame::ReplDelta { epoch, ops }
        }
        TAG_REPL_LAGGED => Frame::ReplLagged { epoch: c.u64()? },
        t => return Err(c.bad(&format!("unknown frame tag {t}"))),
    };
    c.finish()?;
    Ok(frame)
}

/// Pops the next complete length-prefixed frame off the front of `buf`,
/// the bytes a connection has received so far: `Ok(None)` while the
/// frame is still incomplete. A length prefix above [`MAX_FRAME_LEN`] is
/// refused before its payload arrives, and a complete frame leaves
/// `buf` whether or not it decodes. The server and the client split
/// their byte streams with it.
pub fn pop_frame(buf: &mut Vec<u8>) -> Result<Option<Frame>, WireError> {
    let Some(len) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(len.try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(WireError::Format(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN} byte bound"
        )));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let frame = decode_payload(&buf[4..total]);
    buf.drain(..total);
    frame.map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let payload = encode_payload(&frame);
        assert_eq!(decode_payload(&payload).unwrap(), frame);
        // Via a stream with the length prefix, split as the two ends
        // split theirs: nothing until the last byte arrives.
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        let mut buf = stream[..stream.len() - 1].to_vec();
        assert!(pop_frame(&mut buf).unwrap().is_none());
        buf.push(*stream.last().unwrap());
        assert_eq!(pop_frame(&mut buf).unwrap(), Some(frame));
        assert!(buf.is_empty());
    }

    fn sample_delta() -> AnswerDelta {
        AnswerDelta {
            epoch: 42,
            upserts: vec![AnswerEntry {
                oid: Oid(7),
                intervals: IntervalSet::from_intervals([
                    TimeInterval::new(0.0, 1.5),
                    TimeInterval::new(3.0, 4.25),
                ]),
            }],
            removed: vec![Oid(1), Oid(9)],
        }
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello {
            version: WIRE_VERSION,
        });
        round_trip(Frame::Welcome {
            version: WIRE_VERSION,
            epoch: 99,
        });
        round_trip(Frame::Request {
            id: 5,
            body: WireRequest::Statement("SHOW SUBSCRIPTIONS".to_string()),
        });
        round_trip(Frame::Request {
            id: 6,
            body: WireRequest::Remove(Oid(12)),
        });
        round_trip(Frame::Request {
            id: 7,
            body: WireRequest::SubscriptionAnswer("near0".to_string()),
        });
        round_trip(Frame::Response {
            id: 5,
            result: Err("unknown object 'Tr9'".to_string()),
        });
        round_trip(Frame::Response {
            id: 8,
            result: Ok(WireOutput::Objects(vec![(Oid(1), 0.5), (Oid(2), 1.0)])),
        });
        round_trip(Frame::Response {
            id: 9,
            result: Ok(WireOutput::Answer {
                epoch: 17,
                answer: AnswerSet::new(
                    Oid(0),
                    TimeInterval::new(0.0, 60.0),
                    Some(2),
                    vec![AnswerEntry {
                        oid: Oid(3),
                        intervals: IntervalSet::from_intervals([TimeInterval::new(1.0, 2.0)]),
                    }],
                ),
            }),
        });
        round_trip(Frame::Event {
            subscription: "near0".to_string(),
            delta: sample_delta(),
            lagged: true,
        });
        round_trip(Frame::Bye);
    }

    #[test]
    fn trajectories_round_trip_bit_exact() {
        let tr = UncertainTrajectory::new(
            Trajectory::from_triples(Oid(4), &[(0.5, 1.5, 0.0), (2.0, 3.0, 5.0)]).unwrap(),
            0.75,
            PdfKind::TruncatedGaussian {
                radius: 0.75,
                sigma: 0.3,
            },
        )
        .unwrap();
        round_trip(Frame::Request {
            id: 1,
            body: WireRequest::Insert(tr.clone()),
        });
        round_trip(Frame::Request {
            id: 2,
            body: WireRequest::Update(tr),
        });
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Unknown tag.
        assert!(matches!(decode_payload(&[99]), Err(WireError::Format(_))));
        // Bad magic.
        let mut hello = encode_payload(&Frame::Hello {
            version: WIRE_VERSION,
        });
        hello[1] ^= 0xFF;
        assert!(matches!(decode_payload(&hello), Err(WireError::Format(_))));
        // Truncation at every prefix length of a composite frame.
        let full = encode_payload(&Frame::Event {
            subscription: "s".to_string(),
            delta: sample_delta(),
            lagged: false,
        });
        for cut in 0..full.len() {
            assert!(
                decode_payload(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage.
        let mut padded = full.clone();
        padded.push(0);
        assert!(matches!(decode_payload(&padded), Err(WireError::Format(_))));
        // Hostile length prefix.
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(pop_frame(&mut stream), Err(WireError::Format(_))));
        // Hostile count inside an otherwise valid frame: claims 2^31
        // entries with 10 bytes of payload.
        let mut evil = vec![5u8]; // Event tag
        evil.extend_from_slice(&1u32.to_le_bytes());
        evil.push(b's');
        evil.push(0); // lagged
        evil.extend_from_slice(&7u64.to_le_bytes()); // epoch
        evil.extend_from_slice(&0x8000_0000u32.to_le_bytes()); // upsert count
        assert!(matches!(decode_payload(&evil), Err(WireError::Format(_))));
    }

    #[test]
    fn version_constants_are_sane() {
        assert_eq!(&WIRE_MAGIC.to_be_bytes(), b"UNN1");
        assert_eq!(
            WIRE_VERSION, 6,
            "bump deliberately with the frame bodies: edit this literal \
             alongside WIRE_VERSION and the docs/WIRE.md constants row"
        );
        assert!(include_str!("../../../../docs/WIRE.md").contains("| `WIRE_VERSION` | `6` |"));
    }

    #[test]
    fn replication_frames_round_trip() {
        let tr = UncertainTrajectory::new(
            Trajectory::from_triples(Oid(4), &[(0.5, 1.5, 0.0), (2.0, 3.0, 5.0)]).unwrap(),
            0.75,
            PdfKind::TruncatedGaussian {
                radius: 0.75,
                sigma: 0.3,
            },
        )
        .unwrap();
        round_trip(Frame::Request {
            id: 3,
            body: WireRequest::Follow { from_epoch: 41 },
        });
        round_trip(Frame::Response {
            id: 3,
            result: Ok(WireOutput::FollowOk { epoch: 41 }),
        });
        round_trip(Frame::Response {
            id: 4,
            result: Ok(WireOutput::Resync {
                epoch: 99,
                objects: vec![tr.clone()],
            }),
        });
        round_trip(Frame::ReplDelta {
            epoch: 42,
            ops: vec![
                ReplOp::Remove(Oid(4)),
                ReplOp::Insert(Arc::new(tr)),
                ReplOp::Clear,
            ],
        });
        round_trip(Frame::ReplDelta {
            epoch: 1,
            ops: Vec::new(),
        });
        round_trip(Frame::ReplLagged { epoch: 7 });
    }

    #[test]
    fn repl_delta_body_matches_commit_body_bytes() {
        // The frame payload after the tag byte IS the WAL record
        // payload: one encoding shared by disk and wire.
        let ops = vec![ReplOp::Remove(Oid(9)), ReplOp::Clear];
        let frame = encode_payload(&Frame::ReplDelta {
            epoch: 12,
            ops: ops.clone(),
        });
        let mut body = Vec::new();
        encode_commit_body(&mut body, 12, &ops);
        assert_eq!(&frame[1..], &body[..]);
        assert_eq!(decode_commit_body(&body).unwrap(), (12, ops));
        // Trailing bytes after a complete body are refused.
        body.push(0);
        assert!(decode_commit_body(&body).is_err());
    }

    #[test]
    fn resync_objects_must_ascend() {
        let tr = |oid: u64| {
            UncertainTrajectory::with_uniform_pdf(
                Trajectory::from_triples(Oid(oid), &[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]).unwrap(),
                0.5,
            )
            .unwrap()
        };
        let payload = encode_payload(&Frame::Response {
            id: 1,
            result: Ok(WireOutput::Resync {
                epoch: 5,
                objects: vec![tr(9), tr(2)],
            }),
        });
        assert!(matches!(
            decode_payload(&payload),
            Err(WireError::Format(_))
        ));
    }

    fn sample_rows() -> ProbRowSet {
        ProbRowSet::new(
            Oid(0),
            TimeInterval::new(0.0, 60.0),
            RowPerspective::Reverse,
            128,
            vec![
                ProbRow {
                    oid: Oid(3),
                    points: vec![(0, 0.25), (7, 0.75)],
                },
                ProbRow {
                    oid: Oid(9),
                    points: vec![(127, 1.0)],
                },
            ],
        )
    }

    #[test]
    fn row_frames_round_trip() {
        round_trip(Frame::Response {
            id: 11,
            result: Ok(WireOutput::RowAnswer {
                epoch: 17,
                rows: sample_rows(),
            }),
        });
        round_trip(Frame::RowEvent {
            subscription: "hot0".to_string(),
            delta: ProbRowDelta {
                epoch: 42,
                samples: 128,
                upserts: vec![ProbRow {
                    oid: Oid(7),
                    points: vec![(1, 0.5), (2, 0.625)],
                }],
                removed: vec![Oid(1), Oid(9)],
            },
            lagged: true,
        });
    }

    #[test]
    fn malformed_row_payloads_are_rejected() {
        // Truncation at every prefix length of a row frame.
        let full = encode_payload(&Frame::Response {
            id: 1,
            result: Ok(WireOutput::RowAnswer {
                epoch: 2,
                rows: sample_rows(),
            }),
        });
        for cut in 0..full.len() {
            assert!(
                decode_payload(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A sample index at/above the declared sample count is refused:
        // a raw payload claiming samples = 4 with a point at index 9.
        let mut buf = vec![4u8]; // Response tag
        buf.extend_from_slice(&1u64.to_le_bytes()); // id
        buf.push(1); // Ok
        buf.push(7); // RowAnswer
        buf.extend_from_slice(&2u64.to_le_bytes()); // epoch
        buf.extend_from_slice(&0u64.to_le_bytes()); // query oid
        buf.extend_from_slice(&0.0f64.to_bits().to_le_bytes());
        buf.extend_from_slice(&60.0f64.to_bits().to_le_bytes());
        buf.push(0); // Forward
        buf.extend_from_slice(&4u32.to_le_bytes()); // samples
        buf.extend_from_slice(&1u32.to_le_bytes()); // one row
        buf.extend_from_slice(&7u64.to_le_bytes()); // row oid
        buf.extend_from_slice(&1u32.to_le_bytes()); // one point
        buf.extend_from_slice(&9u32.to_le_bytes()); // index 9 >= samples 4
        buf.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        assert!(matches!(decode_payload(&buf), Err(WireError::Format(_))));
    }
}
