//! The network service layer: a std-only framed TCP protocol serving
//! the MOD to remote clients, with **push delivery** of standing-query
//! deltas.
//!
//! Four pieces, layered bottom-up:
//!
//! * [`wire`] — the length-prefixed binary frame codec: versioned
//!   handshake, requests/responses, and pushed `Event` frames, with
//!   bit-exact [`unn_core::answer::AnswerSet`] / `AnswerDelta`
//!   round-trips and defensive decoding (byte layout specified in
//!   `docs/WIRE.md`);
//! * [`poll`] — the minimal `poll(2)` binding and self-pipe [`poll::Waker`]
//!   the event loop multiplexes on (std-only, no mio);
//! * [`server`] — the multiplexed [`NetServer`] wrapping a
//!   [`crate::server::ModServer`]: one event-loop thread owns every
//!   connection via nonblocking sockets and `poll(2)`, commits the
//!   writes, parses every statement and answers the hot reads (a
//!   `SELECT` whose engine is cached or carries), a small worker pool
//!   executes the statements that need an engine build or more and the
//!   maintenance rounds that visit a share, and each connection's
//!   bounded [`crate::subscription::DeltaSink`] outbox receives answer
//!   deltas as commits land — serialized **once** per delta and shared
//!   across every subscriber of the same name as an `Arc<[u8]>`;
//! * [`client`] — the blocking [`NetClient`] behind `unn-cli connect`,
//!   the loopback tests, and the push-fan-out bench.
//!
//! ## Request routing
//!
//! ```text
//! Request ─▶ event loop ─┬─ write, idle round ─────── commit + ack
//!                        ├─ Statement: parse ─┬─ parse error ─ answer
//!                        │                    ├─ hot read ──── lookup,
//!                        │                    │   (hit/carry)  render,
//!                        │                    │                encode
//!                        │                    └─ else ─┐
//!                        └─ anything else ─────────────┴─▶ worker pool
//! ```
//!
//! Anything of a connection already on the pool sends its later
//! requests there too, so one connection's responses keep request order.
//!
//! ## Push lifecycle
//!
//! ```text
//! writer conn A ──Insert──▶ ModStore commit (epoch e, event loop)
//!                               │ guard-index lookup (event loop)
//!                               ▼
//!                   maintenance round (a worker)
//!                   (one shared engine per distinct query;
//!                    skip │ patch │ rebuild)
//!                               │ AnswerDelta @e
//!                ┌──────────────┴──────────────┐
//!                ▼                             ▼
//!     ModServer pull sinks        DeltaSinks of conns B, C, … (bounded)
//!     (sub poll, in-process)                   │ wake event loop
//!                                              ▼
//!                                 encode once (FrameCache) ─▶ Arc<[u8]>
//!                                              │ queued per outbox
//!                                              ▼
//!                                    Event frame ──▶ clients fold
//!                                    (lagged ⇒ resync via
//!                                     SubscriptionAnswer)
//! ```
//!
//! Folding pushed deltas over the subscriber's base answer reproduces
//! the maintained answer **bit-for-bit**, even across backpressure
//! squashes — `tests/net_push.rs` drives two writer clients and a
//! subscriber over a loopback socket and asserts exactly that, lagged
//! resync included.
//!
//! ## Follower replication (wire v4)
//!
//! A `FOLLOW <epoch>` request turns a connection into a **follower**:
//! the server streams every subsequent commit as a `ReplDelta` frame —
//! the same encode-once bytes the leader's WAL journals (see
//! [`crate::durability`]) — and the [`Follower`] driver applies them to
//! a local [`crate::server::ModServer`] mirror that serves reads and
//! standing-query registrations of its own. Followers that lag past
//! the leader's outbox bound (or its delta-log horizon) resync via a
//! full snapshot, exactly like a lagged subscriber;
//! `tests/replication.rs` asserts leader/follower answers bit-identical
//! at equal epochs, forced resync included.

pub mod client;
pub mod poll;
pub mod server;
pub mod wire;

pub use client::{FollowStart, Follower, NetClient, NetError, ReplEvent};
pub use server::{NetServer, NetServerConfig};
pub use wire::{
    Frame, WireError, WireOutput, WireRequest, TAG_REPL_DELTA, TAG_REPL_LAGGED, WIRE_VERSION,
};
