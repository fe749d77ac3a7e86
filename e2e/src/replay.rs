//! The traced replay: the same op script against an in-process stack the
//! driver assembles from the layers' public functions, one span around
//! each call.
//!
//! The subscription registry is *not* attached to the store and the WAL
//! is not either, so a commit, its journal record, the snapshot refresh,
//! the maintenance round, the outbox drain and the frame encode are six
//! separate timed calls instead of one opaque `update`. What happens
//! inside a call (the ladder inside `sync`, the build inside an engine
//! cache miss) carries no spans — those would have to live in the
//! program — so the stages a later optimisation aims at are timed
//! beside the chain as **reference** spans: a cold plan → engine build →
//! answer of the affected query, under a `reference` root that the
//! coverage arithmetic leaves out.

use crate::child::fresh_dir;
use crate::oracle::{self, window};
use crate::script::{ChurnOp, ChurnScript, IngestScript, MixOp, MixScript};
use crate::span::{Span, Tracer};
use std::sync::Arc;
use std::time::Instant;
use unn_modb::delta::ReplOp;
use unn_modb::durability::{self, FsyncPolicy, Wal, WalOptions};
use unn_modb::net::wire::{decode_payload, encode_frame_bytes, encode_payload, Frame, WireOutput};
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::ql::ast::Statement;
use unn_modb::ql::parser::{parse, parse_statement};
use unn_modb::server::ModServer;
use unn_modb::store::ModStore;
use unn_modb::subscription::{DeltaSink, FeedEvent, SubDelta, SubscriptionRegistry};
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

/// One near op in this many also runs the cold reference pipeline of its
/// target query (it costs about as much as the op itself).
const REFERENCE_EVERY: usize = 4;

/// What a replay hands back besides its spans.
#[derive(Debug, Default)]
pub struct Replayed {
    pub spans: Vec<Span>,
    /// Wall time of the replayed ops (set-up excluded), seconds.
    pub wall_s: f64,
    pub ops: u64,
    pub commits: u64,
    pub queries: u64,
    /// Bytes of the frames encoded (pushed events, or responses).
    pub wire_bytes: u64,
    /// Σ `QueryPlan::examined` / `candidate_count` over the plans made.
    pub plans: u64,
    pub examined: u64,
    pub candidates: u64,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Replayed {
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(message());
        }
    }
}

/// The write-ahead log as the driver operates it: the store is not
/// attached, so the driver appends each commit's record itself and takes
/// a checkpoint at the WAL's own cadence, each under its own span.
struct Journal {
    wal: Arc<Wal>,
    dir: std::path::PathBuf,
    checkpoint_every: u64,
    appended: u64,
}

impl Journal {
    fn open(fsync: FsyncPolicy) -> Result<Journal, String> {
        let dir = fresh_dir("replay-wal")?;
        let options = WalOptions {
            fsync,
            ..WalOptions::default()
        };
        let checkpoint_every = options.checkpoint_every;
        let wal = Wal::open(&dir, options).map_err(|e| format!("wal open: {e}"))?;
        Ok(Journal {
            wal,
            dir,
            checkpoint_every,
            appended: 0,
        })
    }

    /// Journals the commit that just created `store.epoch()`: the record
    /// is the body of a `ReplDelta` frame minus its tag byte, which is
    /// what the store hands an attached WAL.
    fn record(
        &mut self,
        tracer: &mut Tracer,
        store: &ModStore,
        ops: Vec<ReplOp>,
    ) -> Result<(), String> {
        let epoch = store.epoch();
        tracer.span("durability.append", |_| {
            let payload = encode_payload(&Frame::ReplDelta { epoch, ops });
            self.wal
                .append(epoch, &payload[1..])
                .map_err(|e| format!("wal append at epoch {epoch}: {e}"))
        })?;
        self.appended += 1;
        if self.appended % self.checkpoint_every == 0 {
            tracer
                .span("durability.checkpoint", |_| self.wal.checkpoint(store))
                .map_err(|e| format!("checkpoint at epoch {epoch}: {e}"))?;
        }
        Ok(())
    }
}

/// The policy the loopback run starts its server with.
fn churn_fsync() -> FsyncPolicy {
    FsyncPolicy::parse(crate::loopback::CHURN_FSYNC).expect("a policy the CLI accepts")
}

fn update_ops(tr: &UncertainTrajectory, replaced: bool) -> Vec<ReplOp> {
    let insert = ReplOp::Insert(Arc::new(tr.clone()));
    if replaced {
        vec![ReplOp::Remove(tr.oid()), insert]
    } else {
        vec![insert]
    }
}

fn event_frame(event: &FeedEvent) -> Frame {
    match &event.delta {
        SubDelta::Intervals(delta) => Frame::Event {
            subscription: event.subscription.clone(),
            delta: delta.clone(),
            lagged: event.lagged,
        },
        SubDelta::Rows(delta) => Frame::RowEvent {
            subscription: event.subscription.clone(),
            delta: delta.clone(),
            lagged: event.lagged,
        },
    }
}

/// Encode → decode of one frame, as the socket's two ends would.
fn through_the_wire(tracer: &mut Tracer, frame: &Frame, out: &mut Replayed) -> Result<(), String> {
    let bytes = tracer
        .span("net.wire.encode", |_| encode_frame_bytes(frame))
        .map_err(|e| format!("encode: {e}"))?;
    out.wire_bytes += bytes.len() as u64;
    let decoded = tracer
        .span("net.wire.decode", |_| decode_payload(&bytes[4..]))
        .map_err(|e| format!("decode: {e}"))?;
    out.check(decoded == *frame, || "a frame changed on the wire".into());
    Ok(())
}

// ---------------------------------------------------------------------
// near_churn / far_churn
// ---------------------------------------------------------------------

pub fn replay_churn(script: &ChurnScript, ops: usize, spans: bool) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let store = ModStore::new();
    for tr in &script.fleet {
        store.insert(tr.clone()).map_err(|e| format!("load: {e}"))?;
    }
    let registry = SubscriptionRegistry::new();
    let sink = Arc::new(DeltaSink::bounded(unn_modb::store::DEFAULT_FEED_BOUND));
    for query in &script.standing {
        for name in &query.names {
            let parsed = parse(&query.statement).map_err(|e| format!("{name}: {e}"))?;
            registry
                .register_with_sink(
                    &store,
                    name,
                    parsed,
                    PrefilterPolicy::default(),
                    Some(&sink),
                )
                .map_err(|e| format!("register {name}: {e}"))?;
        }
    }
    let mut journal = Journal::open(churn_fsync())?;
    // The fleet load is not journaled op by op: a checkpoint image stands
    // in for it, so that the journal written below recovers on its own.
    journal
        .wal
        .checkpoint(&store)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let dir = journal.dir.clone();

    let mut tracer = Tracer::new(false);
    let mut run = |tracer: &mut Tracer, out: &mut Replayed, i: usize, op: &ChurnOp| {
        tracer.set_op(i as u32);
        tracer.span("op", |tracer| -> Result<(), String> {
            let replaced = tracer.span("store.commit", |_| store.update(op.tr.clone()));
            out.commits += 1;
            journal.record(tracer, &store, update_ops(&op.tr, replaced.is_some()))?;
            if op.target.is_some() {
                // A far round proves its skip on the delta log alone and
                // takes no snapshot; a near one refreshes it first.
                tracer.span("snapshot.refresh", |_| store.snapshot());
            }
            tracer.span("subscription.sync", |_| registry.sync(&store));
            let events: Vec<FeedEvent> = tracer.span("subscription.drain", |_| {
                std::iter::from_fn(|| sink.try_recv()).collect()
            });
            for event in &events {
                through_the_wire(tracer, &event_frame(event), out)?;
            }
            if let Some(k) = op.target {
                let pushed = |name: &String| events.iter().any(|e| &e.subscription == name);
                out.check(script.standing[k].names.iter().all(pushed), || {
                    format!("op {i}: no frame for some name of query {k}")
                });
            } else {
                out.check(events.is_empty(), || {
                    format!("op {i}: a far update pushed frames")
                });
            }
            Ok(())
        })?;
        if let Some(k) = op.target.filter(|_| i % REFERENCE_EVERY == 0) {
            let query = &script.standing[k];
            let cold = tracer.span("reference", |tracer| {
                oracle::cold_answer(tracer, &store, query, PrefilterPolicy::default())
            })?;
            out.plans += 1;
            out.examined += cold.examined as u64;
            out.candidates += cold.candidates as u64;
            out.check(
                registry.answer(&query.names[0]).as_ref() == Some(&cold.answer),
                || format!("op {i}: maintained answer of query {k} differs from a cold one"),
            );
        }
        Ok::<(), String>(())
    };
    for (i, op) in script.warmup.iter().enumerate() {
        run(&mut tracer, &mut Replayed::default(), i, op)?;
    }
    tracer = Tracer::new(spans);
    let started = Instant::now();
    for (i, op) in script.ops.iter().take(ops).enumerate() {
        run(&mut tracer, &mut out, i, op)?;
        out.ops += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();

    // The journal the driver wrote recovers to the store it mirrors.
    let (recovered, _) = durability::recover(&dir).map_err(|e| format!("recover: {e}"))?;
    out.check(
        recovered.epoch() == store.epoch() && recovered.len() == store.len(),
        || "the replay's journal does not recover to the replay's store".into(),
    );
    out.spans = tracer.spans().to_vec();
    Ok(out)
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

pub fn replay_mix(script: &MixScript, ops: usize, spans: bool) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let server = ModServer::new();
    for tr in &script.fleet {
        server
            .register(tr.clone())
            .map_err(|e| format!("load: {e}"))?;
    }
    let store = server.store();
    let mut journal = Journal::open(churn_fsync())?;
    let mirror = oracle::exhaustive_server(&script.fleet)?;

    let mut tracer = Tracer::new(false);
    let mut run = |tracer: &mut Tracer, out: &mut Replayed, i: usize, op: &MixOp| {
        tracer.set_op(i as u32);
        match op {
            MixOp::Write(tr) => tracer.span("op.write", |tracer| {
                let replaced = tracer.span("store.commit", |_| store.update(tr.clone()));
                mirror.store().update(tr.clone());
                out.commits += 1;
                journal.record(tracer, store, update_ops(tr, replaced.is_some()))
            }),
            MixOp::Read {
                object,
                statement,
                check,
            } => {
                let mut missed = false;
                let rows = tracer.span("op", |tracer| -> Result<Vec<(Oid, f64)>, String> {
                    let parsed = tracer
                        .span("ql.parse", |_| parse_statement(statement))
                        .map_err(|e| format!("parse: {e}"))?;
                    let Statement::Select(_) = parsed else {
                        return Err(format!("not a SELECT: {statement}"));
                    };
                    tracer.span("snapshot.refresh", |_| store.snapshot());
                    let (engine, stats) = tracer
                        .span("cache.engine", |_| server.engine(*object, window()))
                        .map_err(|e| format!("engine Tr{}: {e}", object.0))?;
                    missed = !stats.cache_hit;
                    let rows: Vec<(Oid, f64)> = tracer.span("core.answer_set", |_| {
                        engine
                            .uq31_all()
                            .into_iter()
                            .map(|(oid, iv)| (oid, iv.total_len() / window().len()))
                            .collect()
                    });
                    let frame = Frame::Response {
                        id: i as u64,
                        result: Ok(WireOutput::Objects(rows.clone())),
                    };
                    through_the_wire(tracer, &frame, out)?;
                    Ok(rows)
                })?;
                out.queries += 1;
                if missed {
                    // What the miss paid for inside `cache.engine`.
                    tracer.span("reference", |tracer| -> Result<(), String> {
                        let plan = tracer
                            .span("plan.plan", |_| {
                                QueryPlanner::new(PrefilterPolicy::default()).plan(
                                    store.snapshot(),
                                    *object,
                                    window(),
                                )
                            })
                            .map_err(|e| format!("plan Tr{}: {e}", object.0))?;
                        out.plans += 1;
                        out.examined += plan.examined() as u64;
                        out.candidates += plan.candidate_count() as u64;
                        tracer
                            .span("core.engine_build", |_| plan.build_engine())
                            .map(|_| ())
                            .map_err(|e| format!("engine Tr{}: {e}", object.0))
                    })?;
                }
                if *check {
                    let cold = oracle::select_rows(&mirror, statement)?;
                    out.check(oracle::same_rows(&rows, &cold), || {
                        format!("op {i}: answer differs from the exhaustive one: {statement}")
                    });
                }
                Ok(())
            }
        }
    };
    for (i, op) in script.warmup.iter().enumerate() {
        run(&mut tracer, &mut Replayed::default(), i, op)?;
    }
    tracer = Tracer::new(spans);
    let started = Instant::now();
    for (i, op) in script.ops.iter().take(ops).enumerate() {
        run(&mut tracer, &mut out, i, op)?;
        out.ops += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.spans = tracer.spans().to_vec();
    Ok(out)
}

// ---------------------------------------------------------------------
// ingest_recover
// ---------------------------------------------------------------------

/// One committer (the loopback run has two): inserts in the order the
/// two generator threads would interleave them, then the recovery
/// cycles.
pub fn replay_ingest(
    script: &IngestScript,
    ops: usize,
    recover_cycles: usize,
    spans: bool,
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let store = ModStore::new();
    let mut journal = Journal::open(FsyncPolicy::Always)?;
    let dir = journal.dir.clone();

    let mut tracer = Tracer::new(spans);
    let mut run = |tracer: &mut Tracer, out: &mut Replayed, i: usize, tr: &UncertainTrajectory| {
        tracer.set_op(i as u32);
        tracer.span("op.insert", |tracer| -> Result<(), String> {
            tracer
                .span("store.commit", |_| store.insert(tr.clone()))
                .map_err(|e| format!("insert Tr{}: {e}", tr.oid().0))?;
            out.commits += 1;
            journal.record(tracer, &store, update_ops(tr, false))
        })
    };
    let [even, odd] = &script.per_thread;
    let interleaved = even
        .iter()
        .zip(odd.iter().map(Some).chain(std::iter::repeat(None)))
        .flat_map(|(a, b)| std::iter::once(a).chain(b));
    let started = Instant::now();
    for (i, tr) in interleaved.take(ops).enumerate() {
        run(&mut tracer, &mut out, i, tr)?;
        out.ops += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();

    // The op: what `unn-cli serve --wal` does before it can answer —
    // recover the store, then reopen the log for appending.
    for cycle in 0..recover_cycles {
        tracer.set_op((out.ops + cycle as u64) as u32);
        let (recovered, report) = tracer.span("op", |tracer| -> Result<_, String> {
            let recovered = tracer
                .span("durability.recover", |_| durability::recover(&dir))
                .map_err(|e| format!("recover: {e}"))?;
            tracer
                .span("durability.wal_open", |_| {
                    Wal::open(&dir, WalOptions::default())
                })
                .map_err(|e| format!("wal reopen: {e}"))?;
            Ok(recovered)
        })?;
        let mut oids = (recovered.oids(), store.oids());
        oids.0.sort_unstable();
        oids.1.sort_unstable();
        out.check(
            report.recovered_epoch == store.epoch() && oids.0 == oids.1,
            || format!("recovery {cycle} differs from the store that was journaled"),
        );
    }
    out.spans = tracer.spans().to_vec();
    Ok(out)
}
