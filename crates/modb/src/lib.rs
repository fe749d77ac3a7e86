//! # unn-modb
//!
//! Moving Objects Database engine for the `uncertain-nn` workspace — the
//! Rust reproduction of *"Continuous Probabilistic Nearest-Neighbor
//! Queries for Uncertain Trajectories"* (Trajcevski et al., EDBT 2009).
//!
//! * [`store`] — the thread-safe trajectory store (the MOD of §1): one
//!   ordered object map beside the delta log behind one lock, with
//!   epoch-stamped `Arc`-shared snapshots;
//! * [`delta`] — the delta-epoch layer: the bounded mutation log, net
//!   deltas, and the engine carry proof;
//! * [`snapshot`] — the shared, **incrementally maintained**
//!   [`snapshot::QuerySnapshot`] view, with its carried epoch-box tables;
//! * [`plan`] — the query planner: one-shot invariant resolution plus the
//!   snapshot-carried epoch-box prefilter ([`plan::PrefilterPolicy`]);
//! * [`cache`] — the shape-keyed engine cache amortizing envelope/IPAC
//!   preprocessing across queries, with delta carry-forward;
//! * [`prefilter`] — the conservative epoch-box prefilter (§2.2-I's
//!   R_min/R_max rule at box granularity) and the crate's `(x, y, t)`
//!   box type, [`prefilter::Aabb3`];
//!
//! ## The query pipeline
//!
//! Every server query runs **snapshot → plan/prefilter → envelope →
//! execute**: [`store::ModStore::snapshot`] hands out the shared
//! epoch-stamped view; [`plan::QueryPlanner`] validates invariants once
//! and narrows candidates conservatively (answers are provably identical
//! to the exhaustive path); [`cache::EngineCache`] reuses the built
//! engine for repeated queries until a store mutation bumps the epoch.
//!
//! ## The delta-epoch lifecycle
//!
//! The paper assumes a mostly-static MOD; the production goal is heavy
//! write traffic. Mutations therefore no longer discard derived state —
//! they *log* themselves, and every derived structure is *maintained*
//! from the logged delta:
//!
//! ```text
//!                 commit (epoch e → e+1)
//!  insert/remove/update/bulk_load ──▶ DeltaLog ──────────────┐
//!        │ (one write lock)            (bounded; truncation   │
//!        ▼                             ⇒ consumers rebuild)   │
//!   object map                                                ▼
//!        │              ┌───────────────── routed to ─────────────────┐
//!        ▼              ▼                      ▼                      ▼
//!  QuerySnapshot   EngineCache          SubscriptionRegistry   (next query)
//!  apply_delta     ForwardProof         skip → patch → rebuild
//!  (merge objects) (restamp engine)     (AnswerDelta → DeltaSinks)
//! ```
//!
//! 1. **Mutate** — `insert`/`remove`/`update`/`bulk_load` takes the
//!    store's write lock, changes the object map, bumps the epoch, and
//!    appends the op to the bounded [`delta::DeltaLog`] under that same
//!    lock ([`store::ModStore::update`] is the single-commit GPS
//!    correction: one epoch, one maintenance round).
//! 2. **Refresh** — the next [`store::ModStore::snapshot`] collapses the
//!    pending ops into a [`delta::NetDelta`] under the read lock and,
//!    when its size is within a quarter of the population, derives the
//!    new snapshot from the previous one via
//!    [`snapshot::QuerySnapshot::apply_delta`]: the object list is merged
//!    in one pass, which also carries every epoch-box table the last
//!    snapshot's plans read (only the changed objects' rows are
//!    recomputed). Oversized deltas, cold starts, and history gaps (log
//!    overflow, [`store::ModStore::clear`]) rebuild from scratch, in
//!    one walk of the ordered object map.
//! 3. **Carry** — a one-shot lookup at the new epoch finds its shape's
//!    newest engine in the [`cache::EngineCache`]; a forward engine from
//!    an older epoch carries the [`delta::ForwardProof`] it was built
//!    with (the proof the subscription skip rung uses): if every logged
//!    op since its epoch is provably outside its reach (removals it never
//!    considered, insertions whose corridor stays beyond
//!    `max LE₁ + 4r`), the entry is stamped with the new epoch and served
//!    without rebuilding.
//! 4. **Maintain** — after the commit returns, the epoch's delta is
//!    routed to the [`subscription::SubscriptionRegistry`] attached to
//!    the store: each standing query absorbs it through the cheapest
//!    sound path — *skip* (the carry proof shows the answer cannot
//!    change), *patch* (re-plan, reuse every unchanged candidate's
//!    difference function, carry the envelope when the delta provably
//!    leaves it untouched, and recompute only the touched intervals —
//!    or, for threshold/reverse standing queries maintaining sampled
//!    probability rows, only the *dirty probe columns* and touched
//!    *perspectives*), or *rebuild* (the log was truncated past the
//!    subscriber's epoch, or the query object itself changed). Answer
//!    changes stream to consumers as [`unn_core::answer::AnswerDelta`]s
//!    / [`unn_core::probrows::ProbRowDelta`]s into the
//!    [`subscription::DeltaSink`]s their consumers own.
//!
//! Row recomputation — maintained patches and one-shot threshold /
//! reverse executions alike — runs through the batched column kernel
//! ([`unn_core::kernel::ColumnKernel`]): dirty probe columns are
//! gathered into flat arrays and evaluated against the **store-wide
//! difference-model cache** ([`store::ModStore::difference_model`]
//! interns one convolved + profiled pdf per [`unn_prob::pdf::PdfKind`],
//! shared by every subscription, sweep, and perspective engine), always
//! at full quadrature density — so every path stays bit-identical to a
//! cold rebuild:
//!
//! ```text
//!  commit ──▶ dirty columns ──gather──▶ ColumnBatch (flat SoA)
//!                                          │ evaluate
//!                 ModStore.difference_model │ (PdfKind → ProfiledPdf,
//!                                          │  interned store-wide)
//!                                          ▼ scatter
//!                                   ProbRowSet columns
//! ```
//!
//! ## Standing-query ladders by statement shape
//!
//! ```text
//!  REGISTER CONTINUOUS …
//!   ├── PROB_NN(…) > 0 [RANK k]  ──▶ AnswerSet (banded intervals)
//!   │     skip:   ForwardProof::ops_unaffected_exact (band survivors,
//!   │             the patch's band test on refused insertions);
//!   │             RANK k: ForwardProof::ops_unaffected (candidate set)
//!   │     patch:  reuse functions + carry_envelope
//!   │             + answer_set_reusing (touched intervals only)
//!   ├── PROB_NN(…) > p, p > 0    ──▶ ProbRowSet (sampled P^NN rows;
//!   │                                 one share for every p)
//!   │     skip:   ForwardProof::ops_unaffected_exact (band survivors,
//!   │             band test and probe columns on refused insertions)
//!   │     patch:  reuse functions + carry_envelope
//!   │             + prob_row_set_reusing_kernel (dirty columns only)
//!   └── PROB_RNN(…) > p          ──▶ ProbRowSet (one row/perspective)
//!         patch:  per-perspective ForwardProof — untouched
//!                 perspectives carry their envelope AND row wholesale
//!                 (`perspectives_skipped`); touched/new ones rebuild
//!  (RANK + positive threshold remains refused, with a SourceSpan caret)
//! ```
//!
//! Every path — patched, carried, maintained, or rebuilt — produces
//! **bit-identical answers** to a cold exhaustive rebuild;
//! `tests/delta_consistency.rs` and `tests/continuous_queries.rs` assert
//! this property-style across random mutation interleavings and all
//! prefilter backends (for subscriptions: the maintained answer, *and*
//! the fold of the emitted deltas over the initial answer, both equal a
//! fresh exhaustive evaluation).
//! ## The network service layer
//!
//! [`net`] fronts the engine with a std-only framed TCP protocol
//! (`unn-cli connect <addr>` is the stock client; `docs/WIRE.md`
//! specifies the byte layout). One event-loop thread multiplexes every
//! connection over nonblocking sockets and `poll(2)`, commits writes and
//! answers hot reads (a `SELECT` whose engine is cached or carries);
//! other statements execute on a small worker pool. `REGISTER
//! CONTINUOUS` over a connection additionally attaches that
//! connection's bounded outbox ([`subscription::DeltaSink`]) to the new
//! subscription — and `WATCH name` attaches to an existing one — so
//! every commit's answer delta is **pushed** as a wire event the moment
//! maintenance emits it:
//!
//! ```text
//! conn A ──Insert──▶ commit (epoch e) ──▶ SubscriptionRegistry::sync
//!                                          (one shared engine per distinct
//!                                           query; skip/patch/rebuild)
//!                                         │ AnswerDelta / ProbRowDelta @e
//!                                   ┌──────────────┴─────────────┐
//!                                   ▼                            ▼
//!                            pull sinks (poll)     outboxes of conns B, C, …
//!                                                  │ encode once (FrameCache)
//!                                                  ▼
//!                                                  Event / RowEvent frame,
//!                                                  one Arc<[u8]> shared by
//!                                                  every same-name watcher
//!                                                  (overflow ⇒ squash via
//!                                                   `SubDelta::then`, flag
//!                                                   `lagged`, client resyncs
//!                                                   from the full AnswerSet /
//!                                                   ProbRowSet)
//! ```
//!
//! Each commit owes one maintenance round: one cheap pass classifies
//! every visited share with a single ops fetch and cached band-bound
//! proofs (a burst of far commits costs one proof derivation), then the
//! shares needing patch/rebuild work fan out across scoped threads on
//! multi-core hosts. Subscriptions on the same query object, window,
//! kind, and parameters coalesce onto **one shared engine** — one
//! maintenance round serves all of them
//! ([`subscription::SubscriptionRegistry::share_count`]), and the
//! `fanout` bench measures the combined effect at 1k subscribers.
//! Folded pushed deltas equal a fresh exhaustive evaluation
//! bit-for-bit, `lagged` resyncs included (`tests/net_push.rs`,
//! `tests/net_fanout.rs`).
//!
//! * [`instantaneous`] — the §2.2 snapshot NN query: Figure 4's
//!   `R_min/R_max` pruning + Eq. 5 ranking at one instant;
//! * [`ql`] — the §4 SQL-ish query language (lexer, AST, parser) with the
//!   `PROB_RNN` reverse-NN extension of §7 and the standing-query verbs
//!   (`REGISTER CONTINUOUS … AS name`, `UNREGISTER`, `SHOW
//!   SUBSCRIPTIONS`); parse errors carry line/column source spans;
//! * [`server`] — the query-execution facade mapping parsed statements
//!   onto the `unn-core` engine (forward, reverse, heterogeneous-radii,
//!   and k-NN paths), with execution statistics;
//! * [`subscription`] — standing queries: the registry of registered
//!   continuous queries whose answers —
//!   [`unn_core::answer::AnswerSet`]s for forward `> 0` statements,
//!   [`unn_core::probrows::ProbRowSet`]s for threshold / reverse ones —
//!   are incrementally maintained after every commit and streamed as
//!   [`subscription::SubDelta`]s. Its private submodules are `registry`
//!   (names, shares, the maintenance round), `index` (the guard index and
//!   its grid), `ladder` (the skip / patch / rebuild rungs), `sink` (push
//!   delivery) and `render` (the quantifier / target rules every
//!   `SELECT`, one-shot or standing, is rendered through);
//! * [`net`] — the framed TCP service layer: wire codec, multiplexed
//!   event-loop server with encode-once push delivery, and the blocking
//!   client;
//! * [`durability`] — the write-ahead delta log: checksummed segment
//!   files journaling every commit, checksummed binary checkpoint
//!   images in the wire's trajectory encoding (also the file format of
//!   a saved MOD: [`durability::save_image`] /
//!   [`durability::load_image`]), crash recovery by image
//!   load + replay (torn tails truncated loudly, damaged images
//!   refused), and the
//!   replication hub fanning the same encode-once commit frames to
//!   socket-attached follower stores (`FOLLOW` in `docs/WIRE.md`).

#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod durability;
pub mod instantaneous;
pub mod net;
pub mod plan;
pub mod prefilter;
pub mod ql;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod subscription;
pub mod telemetry;

pub use cache::EngineCache;
pub use delta::{DeltaLog, DeltaOp, DeltaRecord, ForwardProof, NetDelta, ReplOp};
pub use durability::{
    open_store, recover, FsyncPolicy, RecoveryReport, ReplicationHub, Wal, WalError, WalOptions,
    WalStatus,
};
pub use net::{NetClient, NetError, NetServer, NetServerConfig};
pub use plan::{PlanError, PrefilterPolicy, QueryPlan, QueryPlanner};
pub use server::{ContinuousAnswer, ExecutionStats, ModServer, QueryOutput, ServerError};
pub use snapshot::QuerySnapshot;
pub use store::{DeltaStats, DifferenceModel, ModStore, StoreError};
pub use subscription::{
    DeltaSink, FeedEvent, FrameCache, SubAnswer, SubDelta, SubscriptionError, SubscriptionInfo,
    SubscriptionRegistry, SubscriptionStats, PROB_ROW_SAMPLES,
};
pub use telemetry::{
    HistogramSnapshot, MetricsSnapshot, Telemetry, TraceEvent, TraceRing, TraceStage,
};
