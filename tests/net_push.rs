//! Loopback integration of the network service layer: real sockets,
//! multiple concurrent clients, pushed subscription deltas.
//!
//! The acceptance property: a subscriber folding the deltas **pushed**
//! to it over TCP reproduces a fresh exhaustive evaluation of the final
//! store contents bit-for-bit — including after an induced `lagged`
//! resync, where server-side backpressure squashed deltas and the
//! client recovered from a full answer fetch.

use std::sync::Arc;
use std::time::Duration;
use uncertain_nn::core::answer::AnswerSet;
use uncertain_nn::core::probrows::ProbRowSet;
use uncertain_nn::modb::net::{NetClient, NetServer, NetServerConfig, WireOutput};
use uncertain_nn::modb::store::DEFAULT_FEED_BOUND;
use uncertain_nn::modb::subscription::{DeltaSink, SubAnswer, SubDelta};
use uncertain_nn::modb::{PrefilterPolicy, QueryPlanner};
use uncertain_nn::prelude::*;
use unn_traj::uncertain::common_pdf_kind;

const WINDOW: (f64, f64) = (0.0, 60.0);
const RADIUS: f64 = 0.5;
const EVENT_TIMEOUT: Duration = Duration::from_secs(10);

fn straight(oid: u64, y: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(0.0, y, WINDOW.0), (30.0, y, WINDOW.1)]).unwrap(),
        RADIUS,
    )
    .unwrap()
}

fn populated_server() -> Arc<ModServer> {
    let server = ModServer::new();
    server
        .register_all([
            straight(0, 0.0),
            straight(1, 1.0),
            straight(2, 3.0),
            straight(3, 9.0),
        ])
        .unwrap();
    Arc::new(server)
}

/// Fresh exhaustive evaluation of the interval standing query against
/// the server's current contents — the bit-for-bit ground truth.
fn fresh_answer(server: &ModServer) -> AnswerSet {
    QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(
            server.store().snapshot(),
            Oid(0),
            TimeInterval::new(WINDOW.0, WINDOW.1),
        )
        .expect("plans")
        .build_engine()
        .expect("builds")
        .answer_set()
}

/// Row sampling density of the loopback row tests: sparse enough to
/// keep the P^WD quadrature cheap, dense enough to exercise real rows.
const ROW_TEST_SAMPLES: u32 = 24;

/// Fresh exhaustive probability-row evaluation (forward threshold or
/// reverse) — the row subscriptions' ground truth.
fn fresh_rows(server: &ModServer, reverse: bool) -> ProbRowSet {
    let snapshot = server.store().snapshot();
    let kind = common_pdf_kind(&snapshot)
        .expect("shared pdf")
        .expect("populated");
    let kernel = ColumnKernel::new(kind.convolve_with(&kind).as_ref());
    let plan = QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(snapshot, Oid(0), TimeInterval::new(WINDOW.0, WINDOW.1))
        .expect("plans");
    if reverse {
        plan.build_reverse_engine()
            .expect("builds")
            .prob_row_set_kernel(&kernel, ROW_TEST_SAMPLES)
    } else {
        plan.build_engine()
            .expect("builds")
            .prob_row_set_kernel(&kernel, ROW_TEST_SAMPLES)
    }
}

const REGISTER: &str = "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                        AND PROB_NN(*, Tr0, TIME) > 0 AS pushed";

/// Registers a standing query over `subscriber`'s connection and
/// returns the base answer + epoch to fold from.
fn subscribe_stmt(subscriber: &mut NetClient, stmt: &str, name: &str) -> (SubAnswer, u64) {
    match subscriber.execute(stmt).expect("registers") {
        WireOutput::Registered(info) => assert_eq!(info.name, name),
        other => panic!("expected Registered, got {other:?}"),
    }
    subscriber.subscription_answer(name).expect("answer fetch")
}

/// An in-process observer of `name`'s deltas: a sink attached after
/// the subscriber's registration returns and before the first write, so
/// it records exactly the deltas pushed to the subscriber.
fn observe(server: &ModServer, name: &str) -> Arc<DeltaSink> {
    let sink = Arc::new(DeltaSink::bounded(DEFAULT_FEED_BOUND));
    assert!(server.subscription_registry().attach_sink(name, &sink));
    sink
}

/// The deltas queued in `sink`, oldest first.
fn drain(sink: &DeltaSink) -> Vec<SubDelta> {
    std::iter::from_fn(|| sink.try_recv())
        .map(|event| event.delta)
        .collect()
}

/// Registers the interval standing query (the original test surface).
fn subscribe(subscriber: &mut NetClient) -> (SubAnswer, u64) {
    subscribe_stmt(subscriber, REGISTER, "pushed")
}

/// Folds pushed events for `name` into `folded` until it reaches
/// `target_epoch` (events for other subscriptions are ignored; lagged
/// events trigger a resync through the full answer). Returns how many
/// lagged events were seen.
fn fold_until_named(
    subscriber: &mut NetClient,
    name: &str,
    folded: &mut SubAnswer,
    folded_epoch: &mut u64,
    target_epoch: u64,
) -> usize {
    let mut lagged_seen = 0;
    while *folded_epoch < target_epoch {
        let ev = subscriber
            .next_event(Some(EVENT_TIMEOUT))
            .expect("event stream healthy")
            .unwrap_or_else(|| panic!("no event within {EVENT_TIMEOUT:?} (at epoch {folded_epoch}, want {target_epoch})"));
        if ev.subscription != name {
            continue;
        }
        if ev.lagged {
            lagged_seen += 1;
            // Resync: the full answer subsumes every delta at or before
            // its epoch (including this squashed one).
            let (answer, epoch) = subscriber.subscription_answer(name).expect("resync fetch");
            *folded = answer;
            *folded_epoch = epoch;
        } else if ev.delta.epoch() > *folded_epoch {
            *folded = folded.apply(&ev.delta);
            *folded_epoch = ev.delta.epoch();
        }
        // else: an in-flight delta a resync already subsumed — discard,
        // exactly as the documented client recovery protocol says.
    }
    lagged_seen
}

/// [`fold_until_named`] for the original "pushed" subscription.
fn fold_until(
    subscriber: &mut NetClient,
    folded: &mut SubAnswer,
    folded_epoch: &mut u64,
    target_epoch: u64,
) -> usize {
    fold_until_named(subscriber, "pushed", folded, folded_epoch, target_epoch)
}

/// Two writer clients mutate the MOD over the wire while a third holds a
/// subscription; the pushed deltas, folded client-side, equal a fresh
/// exhaustive evaluation bit-for-bit.
#[test]
fn pushed_deltas_fold_to_fresh_evaluation() {
    let server = populated_server();
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let addr = net.local_addr();

    let mut subscriber = NetClient::connect(addr).expect("subscriber connects");
    let subscribe_base = subscribe(&mut subscriber);
    let (mut folded, mut folded_epoch) = subscribe_base.clone();
    let observer = observe(&server, "pushed");

    let mut writer_a = NetClient::connect(addr).expect("writer A connects");
    let mut writer_b = NetClient::connect(addr).expect("writer B connects");
    // The accept loop registers entries asynchronously; give it a beat.
    for _ in 0..200 {
        if net.active_connections() == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(net.active_connections(), 3);

    // Interleaved mutations from both writers: insertions inside the
    // band, a GPS correction, removals, and far churn (which must push
    // nothing).
    writer_a.insert(straight(10, 0.4)).expect("insert");
    writer_b.insert(straight(11, 0.7)).expect("insert");
    writer_a.update(straight(10, 0.2)).expect("update");
    writer_b.insert(straight(90, 70_000.0)).expect("far insert");
    writer_a.remove(Oid(11)).expect("remove");
    writer_b.update(straight(2, 2.5)).expect("update");
    writer_a.remove(Oid(90)).expect("far remove");

    // Ground truth and termination point, read server-side: the
    // maintained answer, and the epoch of the last *emitted* delta (the
    // observer sink records exactly the deltas that were pushed;
    // trailing skipped commits advance the watermark without emitting).
    let (target, target_epoch) = server
        .subscription_answer_with_epoch("pushed")
        .expect("server-side answer");
    // The watermark may trail the store epoch: the trailing far remove
    // is pruned by the registry's guard index without touching the
    // share (it used to be proof-skipped, which advanced the
    // watermark). Resync stays sound — nothing was pushed after it.
    assert!(target_epoch <= server.store().epoch());
    let observed = drain(&observer);
    let last_emitted = observed.last().expect("deltas were emitted").epoch();
    let lagged = fold_until(
        &mut subscriber,
        &mut folded,
        &mut folded_epoch,
        last_emitted,
    );
    assert_eq!(lagged, 0, "no backpressure expected at default bounds");
    // The folded pushed deltas equal a fresh exhaustive evaluation…
    assert_eq!(folded, target);
    assert_eq!(folded, SubAnswer::Intervals(fresh_answer(&server)));
    // …and the observer (same deltas, in-process sink) folds identically.
    let (observer_base, _) = subscribe_base.clone();
    let observer_folded = observed.iter().fold(observer_base, |acc, d| acc.apply(d));
    assert_eq!(observer_folded, folded);
    // No further events are in flight (far churn pushed nothing).
    assert!(subscriber
        .next_event(Some(Duration::from_millis(200)))
        .expect("stream healthy")
        .is_none());

    writer_a.close().expect("clean close");
    writer_b.close().expect("clean close");
    subscriber.close().expect("clean close");
    net.shutdown();
}

/// With a capacity-1 outbox and a paced pusher, a burst of commits
/// forces server-side squashing: the client sees `lagged`, resyncs from
/// the full answer, and still lands bit-identically on the fresh
/// evaluation.
#[test]
fn lagged_stream_resyncs_bit_identically() {
    let server = populated_server();
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        NetServerConfig {
            outbox_capacity: 1,
            // Far above one commit's round trip (debug builds included):
            // while the pusher paces one write, the remaining commits
            // pile into the capacity-1 outbox and must squash.
            event_pacing: Duration::from_millis(600),
        },
    )
    .expect("binds");
    let addr = net.local_addr();

    let mut subscriber = NetClient::connect(addr).expect("subscriber connects");
    let (mut folded, mut folded_epoch) = subscribe(&mut subscriber);
    let observer = observe(&server, "pushed");

    // A rapid burst of answer-changing commits: the pusher is paced at
    // 40 ms/event with a 1-event outbox, so consecutive deltas *must*
    // squash while the first write sleeps.
    let mut writer = NetClient::connect(addr).expect("writer connects");
    for k in 0..8u64 {
        writer
            .insert(straight(20 + k, 0.2 + 0.05 * k as f64))
            .expect("insert");
    }
    let (target, _) = server
        .subscription_answer_with_epoch("pushed")
        .expect("server-side answer");
    let last_emitted = drain(&observer)
        .last()
        .expect("deltas were emitted")
        .epoch();
    let lagged = fold_until(
        &mut subscriber,
        &mut folded,
        &mut folded_epoch,
        last_emitted,
    );
    assert!(lagged >= 1, "the burst must have squashed at least once");
    assert_eq!(folded, target);
    assert_eq!(
        folded,
        SubAnswer::Intervals(fresh_answer(&server)),
        "lagged resync diverged from fresh evaluation"
    );

    writer.close().expect("clean close");
    subscriber.close().expect("clean close");
    net.shutdown();
}

/// Subscriptions outlive their connection: the registry keeps
/// maintaining them server-side after the socket dies, and a fresh
/// client can still read the maintained answer. Server shutdown is
/// clean with clients attached.
#[test]
fn subscriptions_survive_disconnect_and_shutdown_is_clean() {
    let server = populated_server();
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let addr = net.local_addr();

    let mut subscriber = NetClient::connect(addr).expect("connects");
    subscribe(&mut subscriber);
    subscriber.close().expect("clean close");

    // The subscription still maintains after the connection died.
    server.store().insert(straight(30, 0.5)).unwrap();
    let mut reader = NetClient::connect(addr).expect("reconnects");
    let (answer, epoch) = reader
        .subscription_intervals("pushed")
        .expect("still there");
    assert_eq!(epoch, server.store().epoch());
    assert_eq!(answer, fresh_answer(&server));

    // Statements over the wire work end-to-end (errors render too).
    match reader.execute("SHOW SUBSCRIPTIONS").expect("lists") {
        WireOutput::Subscriptions(subs) => {
            assert_eq!(subs.len(), 1);
            assert_eq!(subs[0].name, "pushed");
        }
        other => panic!("expected Subscriptions, got {other:?}"),
    }
    assert!(reader.execute("SELECT bogus").is_err());

    // Shutdown with a live, idle connection attached: everything joins.
    net.shutdown();
    // The abandoned client now sees a dead socket.
    assert!(reader.next_event(Some(Duration::from_millis(500))).is_err());
}

const REGISTER_THRESHOLD: &str = "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN \
                                  [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.3 AS hot";
const REGISTER_RNN: &str = "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN \
                            [0, 60] AND PROB_RNN(*, Tr0, TIME) > 0 AS rev";

/// Threshold and reverse standing queries over loopback TCP: the pushed
/// [`uncertain_nn::core::probrows::ProbRowDelta`] frames, folded
/// client-side, equal fresh exhaustive row evaluations bit-for-bit.
#[test]
fn row_subscription_deltas_fold_to_fresh_evaluation() {
    let server = populated_server();
    server
        .subscription_registry()
        .set_row_samples(ROW_TEST_SAMPLES);
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let addr = net.local_addr();

    let mut subscriber = NetClient::connect(addr).expect("subscriber connects");
    let (mut hot, mut hot_epoch) = subscribe_stmt(&mut subscriber, REGISTER_THRESHOLD, "hot");
    let (mut rev, mut rev_epoch) = subscribe_stmt(&mut subscriber, REGISTER_RNN, "rev");
    assert!(hot.as_rows().is_some(), "threshold subs answer with rows");
    assert!(rev.as_rows().is_some(), "reverse subs answer with rows");
    let observers = [observe(&server, "hot"), observe(&server, "rev")];

    let mut writer = NetClient::connect(addr).expect("writer connects");
    writer.insert(straight(10, 0.4)).expect("insert");
    writer.update(straight(10, 0.2)).expect("update");
    writer.insert(straight(90, 70_000.0)).expect("far insert");
    writer.update(straight(2, 2.5)).expect("update");
    writer.remove(Oid(90)).expect("far remove");

    // Both subscriptions share one connection, so their pushed events
    // interleave: fold them in a single pass, dispatching each event to
    // its subscription's accumulator.
    let mut slots = [
        ("hot", &mut hot, &mut hot_epoch),
        ("rev", &mut rev, &mut rev_epoch),
    ];
    let mut targets = Vec::new();
    for ((name, _, folded_epoch), observer) in slots.iter().zip(&observers) {
        let (target, _) = server
            .subscription_answer_with_epoch(name)
            .expect("server-side answer");
        let last_emitted = drain(observer)
            .last()
            .map(|d| d.epoch())
            .unwrap_or(**folded_epoch);
        targets.push((target, last_emitted));
    }
    while slots
        .iter()
        .zip(&targets)
        .any(|((_, _, epoch), (_, last))| **epoch < *last)
    {
        let ev = subscriber
            .next_event(Some(EVENT_TIMEOUT))
            .expect("event stream healthy")
            .expect("an event before the watermark");
        assert!(!ev.lagged, "no backpressure at default bounds");
        let (_, folded, folded_epoch) = slots
            .iter_mut()
            .find(|(name, _, _)| *name == ev.subscription)
            .expect("event for a registered subscription");
        if ev.delta.epoch() > **folded_epoch {
            **folded = folded.apply(&ev.delta);
            **folded_epoch = ev.delta.epoch();
        }
    }
    for ((name, folded, _), (target, _)) in slots.iter().zip(&targets) {
        assert_eq!(*folded, target, "{name}: folded != maintained");
    }
    assert_eq!(hot, SubAnswer::Rows(fresh_rows(&server, false)));
    assert_eq!(rev, SubAnswer::Rows(fresh_rows(&server, true)));

    writer.close().expect("clean close");
    subscriber.close().expect("clean close");
    net.shutdown();
}

/// The lagged-resync path for row subscriptions: a capacity-1 paced
/// outbox squashes a burst of row deltas; the client resyncs from the
/// full [`WireOutput::RowAnswer`] and still lands bit-identically on
/// the fresh evaluation.
#[test]
fn lagged_row_stream_resyncs_bit_identically() {
    let server = populated_server();
    server
        .subscription_registry()
        .set_row_samples(ROW_TEST_SAMPLES);
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&server),
        NetServerConfig {
            outbox_capacity: 1,
            // The pacing must dominate the commit cadence for deltas to
            // provably pile up and squash while the pusher sleeps. The
            // batched column kernel keeps a maintenance round well under
            // 100ms per commit, so a sub-second pace suffices.
            event_pacing: Duration::from_millis(800),
        },
    )
    .expect("binds");
    let addr = net.local_addr();

    let mut subscriber = NetClient::connect(addr).expect("subscriber connects");
    let (mut folded, mut folded_epoch) = subscribe_stmt(&mut subscriber, REGISTER_THRESHOLD, "hot");
    let observer = observe(&server, "hot");

    let mut writer = NetClient::connect(addr).expect("writer connects");
    for k in 0..8u64 {
        writer
            .insert(straight(20 + k, 0.2 + 0.05 * k as f64))
            .expect("insert");
    }
    let (target, _) = server
        .subscription_answer_with_epoch("hot")
        .expect("server-side answer");
    let last_emitted = drain(&observer)
        .last()
        .expect("deltas were emitted")
        .epoch();
    let lagged = fold_until_named(
        &mut subscriber,
        "hot",
        &mut folded,
        &mut folded_epoch,
        last_emitted,
    );
    assert!(lagged >= 1, "the burst must have squashed at least once");
    assert_eq!(folded, target);
    assert_eq!(
        folded,
        SubAnswer::Rows(fresh_rows(&server, false)),
        "lagged row resync diverged from fresh evaluation"
    );

    writer.close().expect("clean close");
    subscriber.close().expect("clean close");
    net.shutdown();
}
