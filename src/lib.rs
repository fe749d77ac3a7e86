//! # uncertain-nn
//!
//! A Rust implementation of **"Continuous Probabilistic Nearest-Neighbor
//! Queries for Uncertain Trajectories"** (Goce Trajcevski, Roberto
//! Tamassia, Hui Ding, Peter Scheuermann, Isabel F. Cruz — EDBT 2009).
//!
//! The crate is an umbrella over the workspace:
//!
//! * [`geom`] — geometry & numerics (hyperbolas, heap-free quartic root
//!   isolation, …);
//! * [`prob`] — rotationally symmetric pdfs, convolution, `P^WD`/`P^NN`;
//! * [`traj`] — trajectories, difference transforms, workload generator;
//! * [`core`] — lower envelopes, `4r` pruning, IPAC-NN tree, query
//!   variants (the paper's contribution);
//! * [`modb`] — the MOD engine: store, snapshots, planner, engine cache,
//!   query language, server.
//!
//! ## Architecture: the query pipeline
//!
//! Every [`modb::server::ModServer`] query — the §4 categories, the §7
//! reverse / heterogeneous / k-NN extensions, and the query language —
//! flows through one shared four-stage pipeline:
//!
//! 1. **Snapshot** — [`modb::store::ModStore::snapshot`] returns an
//!    `Arc`-shared, epoch-stamped [`modb::snapshot::QuerySnapshot`]. The
//!    same snapshot is reused until a mutation bumps the store epoch; no
//!    trajectory is cloned per query. After a mutation, the refresh is
//!    **incremental**: the store logs every op in a
//!    [`modb::delta::DeltaLog`] and small deltas patch the previous
//!    snapshot instead of rebuilding it (see the `unn-modb` crate docs
//!    for the delta-epoch lifecycle).
//! 2. **Plan / prefilter** — [`modb::plan::QueryPlanner`] validates the
//!    window, query object, and radius invariants once, then narrows the
//!    candidate population with the analytic epoch-box scan
//!    ([`modb::plan::PrefilterPolicy`]; `Exhaustive` is the oracle). The
//!    scan keeps a provable superset of the exact `4r`-band survivors,
//!    so answers are identical to the exhaustive path.
//! 3. **Envelope** — [`core::candidates::CandidateSet`] builds the
//!    difference-trajectory distance functions zero-copy (and in
//!    parallel) and feeds the `O(N log N)` lower-envelope / IPAC
//!    preprocessing of Claims 1–3.
//! 4. **Execute** — the engines answer the query variants; built engines
//!    are memoized in the shape-keyed [`modb::cache::EngineCache`], so
//!    repeated queries against an unchanged MOD skip stages 2–3
//!    entirely. **Invalidation contract:** any store mutation
//!    (register/unregister/clear) bumps the epoch, so stale engines are
//!    never served blindly; a prefiltered forward engine may be
//!    **carried** across a mutation when the delta log proves the ops
//!    cannot touch its `4r` band, and everything else transparently
//!    rebuilds on the next query.
//!
//! ## Standing queries
//!
//! The request/response pipeline above answers one-shot statements; the
//! paper's queries are *continuous*, so the server also supports
//! registering them as **standing queries** (`REGISTER CONTINUOUS
//! <query> AS <name>` in the query language, `sub add` in the CLI).
//! A standing query maintains one of two diffable answers, chosen by
//! its statement shape:
//!
//! * forward `PROB_NN(…) > 0` (any quantifier, optional `RANK`) —
//!   a [`core::answer::AnswerSet`]: stable object ids with per-object
//!   qualification intervals;
//! * threshold `PROB_NN(…) > p` and reverse `PROB_RNN(…)` — a
//!   [`core::probrows::ProbRowSet`]: sampled `P^NN(t)` probability
//!   rows with per-sample provenance back to the difference functions
//!   that produced them.
//!
//! After every store commit the
//! [`modb::subscription::SubscriptionRegistry`] routes the epoch's delta
//! to the affected subscriptions only: provably untouched answers are
//! skipped via the same band-bound carry proof, the rest are patched by
//! incremental re-evaluation — difference functions, the lower
//! envelope, untouched qualification intervals, clean probability
//! columns, and (for reverse queries) whole untouched *perspectives*
//! are reused whenever the delta provably leaves them unchanged — and
//! truncated delta history forces a full re-plan. Changes stream to
//! consumers as [`core::answer::AnswerDelta`]s /
//! [`core::probrows::ProbRowDelta`]s through a per-subscription feed
//! (`sub poll` / `watch` in the CLI), with answers bit-identical to
//! fresh evaluation at every step.
//!
//! ## The network service layer
//!
//! [`modb::net`] fronts the whole engine with a std-only framed TCP
//! protocol — the serving shape of a real trajectory service (byte
//! layout in `docs/WIRE.md`). A [`modb::net::NetServer`] wraps the
//! [`modb::server::ModServer`] with one `poll(2)`-multiplexed event
//! loop owning every connection (it commits writes and answers hot
//! reads) and a small worker pool executing the statements that need an
//! engine build; the [`modb::net::NetClient`] behind `unn-cli connect
//! <addr>` executes statements and mutations remotely. The continuous
//! queries become genuinely *continuous* over the wire:
//!
//! ```text
//!  client A ──Insert/Update/Remove──▶ NetServer ──▶ ModStore commit
//!                                                        │   ⏱ commit_ns,
//!                                                        │     wal_append_ns
//!                                      SubscriptionRegistry::sync
//!                                      (one shared engine per distinct
//!                                       query; shared ops fetch,
//!                                       cached skip proofs, scoped-
//!                                       thread fan-out of patches)
//!                                                        │   ⏱ maintenance_round_ns,
//!                                                        │     ladder_*_total
//!                                               │ AnswerDelta │ ProbRowDelta
//!                                      encode once ─▶ one Arc<[u8]> frame
//!                                                        │   ⏱ frame_encode_ns
//!  clients B, C, … ◀─pushed Event/RowEvent── bounded outboxes ◀──┘
//!            (fold deltas; `lagged` ⇒ resync       ⏱ push_drain_lag_ns,
//!             from the full AnswerSet / ProbRowSet)  commit_to_push_ns
//! ```
//!
//! `REGISTER CONTINUOUS` over a connection attaches that connection's
//! bounded outbox to the subscription — `WATCH name` joins an existing
//! one — so answer deltas are **pushed** with commit latency instead of
//! polled: interval deltas as `Event` frames, probability-row deltas as
//! `RowEvent` frames, both IEEE-bit-exact. Same-query subscriptions
//! coalesce onto one maintenance engine, and each pushed delta is
//! serialized once and broadcast to every watcher as a shared
//! `Arc<[u8]>` — `crates/bench/benches/fanout.rs` measures the combined
//! effect at 1k loopback subscribers. Backpressure never drops a
//! delta: an overflowing outbox squashes its oldest same-subscription
//! events via [`modb::subscription::SubDelta::then`] (folds stay
//! bit-exact) and flags the stream `lagged` so the client can resync
//! from a full answer fetch. `tests/net_push.rs` and
//! `tests/net_fanout.rs` prove the end-to-end property over real
//! sockets: pushed deltas folded client-side equal a fresh exhaustive
//! evaluation bit-for-bit, induced lag included, and same-name watchers
//! receive byte-identical frames.
//!
//! ## Observability
//!
//! Every `⏱` in the diagram is a row in [`modb::telemetry`]'s lock-free
//! registry: atomic counters, gauges, and log₂-bucketed latency
//! histograms recorded at the hot boundaries (commit, WAL append/fsync,
//! snapshot patch vs rebuild, maintenance rounds and their ladder
//! decisions, row-kernel patches, frame encode, outbox drain lag,
//! follower replication lag). `SHOW METRICS [PREFIX p]` exposes the
//! merged snapshot through the query language and the wire protocol,
//! `unn-cli store metrics [--watch]` renders it as Prometheus-style
//! text or live rates, and `TRACE EPOCH e` replays one commit's path
//! through the pipeline from a bounded ring of trace events. Both
//! switches are runtime-togglable and, when off, cost one relaxed
//! atomic load per boundary; the full catalog, the bucket scheme, and
//! the measured overhead live in `docs/OBSERVABILITY.md`.
//!
//! ## Quickstart
//!
//! ```
//! use uncertain_nn::prelude::*;
//!
//! // A tiny MOD: the query object and two candidates.
//! let server = ModServer::new();
//! for (oid, pts) in [
//!     (0u64, vec![(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]),
//!     (1, vec![(0.0, 1.0, 0.0), (10.0, 1.0, 10.0)]),
//!     (2, vec![(10.0, 9.0, 0.0), (0.0, 2.0, 10.0)]),
//! ] {
//!     let tr = Trajectory::from_triples(Oid(oid), &pts).unwrap();
//!     server
//!         .register(UncertainTrajectory::with_uniform_pdf(tr, 0.5).unwrap())
//!         .unwrap();
//! }
//!
//! // Continuous NN of Tr0 over [0, 10] (time-parameterized answer).
//! let answer = server
//!     .continuous_nn(Oid(0), TimeInterval::new(0.0, 10.0))
//!     .unwrap();
//! assert!(!answer.sequence.is_empty());
//!
//! // The probabilistic variants via the §4 query language.
//! let out = server
//!     .execute(
//!         "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 10] \
//!          AND PROB_NN(*, Tr0, TIME) > 0",
//!     )
//!     .unwrap();
//! assert!(matches!(out, QueryOutput::Objects(_)));
//! ```

pub use unn_core as core;
pub use unn_geom as geom;
pub use unn_modb as modb;
pub use unn_prob as prob;
pub use unn_traj as traj;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use unn_core::answer::{AnswerDelta, AnswerEntry, AnswerSet};
    pub use unn_core::candidates::CandidateSet;
    pub use unn_core::envelope::Envelope;
    pub use unn_core::hetero::{HeteroCandidate, HeteroEngine};
    pub use unn_core::ipac::{IpacConfig, IpacTree};
    pub use unn_core::probrows::{ProbRow, ProbRowDelta, ProbRowSet, RowPerspective};
    pub use unn_core::query::{window_fraction, Quantifier, QueryEngine};
    pub use unn_core::reverse::{all_pairs_nn, ReverseNnEngine};
    pub use unn_core::topk::{continuous_knn, probabilistic_topk_at, KnnAnswer};
    pub use unn_core::{
        build_ipac_tree, inside_band_intervals, lower_envelope, lower_envelope_naive,
        prune_by_band, ColumnKernel,
    };
    pub use unn_geom::interval::{IntervalSet, TimeInterval};
    pub use unn_geom::point::{Point2, Vec2};
    pub use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
    pub use unn_modb::server::{ModServer, QueryOutput};
    pub use unn_modb::snapshot::QuerySnapshot;
    pub use unn_modb::store::ModStore;
    pub use unn_modb::subscription::{SubAnswer, SubDelta, SubscriptionInfo, SubscriptionRegistry};
    pub use unn_prob::pdf::{PdfKind, RadialPdf};
    pub use unn_traj::generator::{generate, generate_uncertain, WorkloadConfig};
    pub use unn_traj::trajectory::{Oid, Trajectory};
    pub use unn_traj::uncertain::UncertainTrajectory;
    pub use unn_traj::{difference_distance, difference_distances};
}
