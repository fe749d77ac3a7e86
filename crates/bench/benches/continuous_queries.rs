//! Standing-query maintenance cost per mutation vs naive re-execution.
//!
//! A fleet of standing `PROB_NN` queries is registered against a
//! populated MOD; each iteration performs one single-object mutation.
//! With subscriptions attached, the commit itself routes the delta
//! through the registry's skip → patch → rebuild ladder, so the timed
//! closure *is* "mutation + keeping every standing answer fresh". The
//! naive baseline performs the identical mutation and then re-executes
//! every standing query from scratch (plan → difference construction →
//! envelope → answer) — what a request/response server pays to give the
//! same freshness.
//!
//! Groups (the acceptance number is `maintain_far` vs `naive` at
//! `N = 600`, one subscription):
//!
//! * `maintain_far/<subs>`  — far-object churn: every subscription's
//!   band-bound proof skips the delta (the steady-state fast path).
//! * `maintain_near/<subs>` — churn of an in-band object: the patch path
//!   re-plans and rebuilds envelopes but reuses every unchanged
//!   candidate's difference function.
//! * `naive/<subs>`         — the same far churn with re-execution from
//!   scratch for every standing query.
//! * `maintain_threshold/<subs>` / `naive_threshold/<subs>` — the same
//!   far churn under **threshold** standing queries (`PROB_NN > p`,
//!   maintained as sampled probability rows at `ROW_BENCH_SAMPLES`
//!   probes): the maintained side is absorbed by the band-survivor skip
//!   proof, the naive side re-plans and re-sweeps the rows from scratch
//!   per commit (the acceptance number is ≥ 10x at one subscription).
//! * `maintain_rnn/1` / `naive_rnn/1` — far churn under a **reverse**
//!   (`PROB_RNN`) standing query at `N = 60`: maintenance carries every
//!   perspective the commit cannot reach and re-derives the rest (the
//!   churn object's own and those of its two lattice neighbours, whose
//!   nearest neighbour it is), naive rebuilds all `N` perspective
//!   envelopes and re-samples.
//! * `push_fanout/32`       — full network path: one answer-changing
//!   commit, then every one of 32 subscribers connected over loopback
//!   TCP receives its pushed `AnswerDelta` frame.
//!
//! Before anything is timed, the maintained answers are asserted
//! bit-identical to fresh exhaustive evaluations after a mixed mutation
//! stream.
//!
//! The `naive*` baselines cost seconds per iteration (a full
//! re-execution per commit at full row density) and are **opt-in**: set
//! `UNN_BENCH_NAIVE=1` to include them — required when regenerating the
//! committed `BENCH_continuous_queries.json`, since the JSON checker
//! expects their groups; leave unset for quick maintained-path runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;
use unn_core::kernel::ColumnKernel;
use unn_core::probrows::ProbRowSet;
use unn_geom::interval::TimeInterval;
use unn_modb::net::{NetClient, NetServer, WireOutput};
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::server::ModServer;
use unn_modb::subscription::SubAnswer;
use unn_traj::generator::{generate_uncertain, WorkloadConfig};
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::{common_pdf_kind, UncertainTrajectory};

const RADIUS: f64 = 0.5;
const N: usize = 600;
const SUB_COUNTS: [usize; 3] = [1, 8, 32];
/// Ids of the churn objects (kept clear of the generated fleet).
const CHURN_BASE: u64 = 1_000_000;

fn window() -> TimeInterval {
    TimeInterval::new(0.0, 60.0)
}

fn statement(query: u64) -> String {
    format!("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{query}, TIME) > 0")
}

fn threshold_statement(query: u64) -> String {
    format!("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{query}, TIME) > 0.3")
}

fn rnn_statement(query: u64) -> String {
    format!("SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_RNN(*, Tr{query}, TIME) > 0")
}

/// A far-away churn object: outside every query's band, so its updates
/// are provably skippable.
fn far(k: u64, shift: f64) -> UncertainTrajectory {
    let y = 50_000.0 + (k % 32) as f64;
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(
            Oid(CHURN_BASE + k % 32),
            &[(shift, y, 0.0), (shift + 30.0, y, 60.0)],
        )
        .expect("valid"),
        RADIUS,
    )
    .expect("valid")
}

/// The RNN groups' churn object: like [`far`], but the churn fleet is
/// spread out (500 mi between objects) so a churn insertion lands
/// outside every *other* churn object's band too. Each far commit then
/// re-derives the new object's perspective and its two lattice
/// neighbours' (it is their nearest neighbour, 500 mi away, so their
/// envelopes move with it) and carries the rest — the per-perspective
/// incrementality the group measures — while [`far`]'s dense cluster
/// would force its 32 mutual neighbors to recompute on every commit.
fn far_sparse(k: u64, shift: f64) -> UncertainTrajectory {
    let y = 50_000.0 + (k % 32) as f64 * 500.0;
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(
            Oid(CHURN_BASE + k % 32),
            &[(shift, y, 0.0), (shift + 30.0, y, 60.0)],
        )
        .expect("valid"),
        RADIUS,
    )
    .expect("valid")
}

/// A populated server with the churn objects pre-registered and `subs`
/// standing queries installed (query objects Tr0..Tr<subs>).
fn server_with_subs(subs: usize) -> ModServer {
    server_with(N, subs, statement)
}

/// Like [`server_with_subs`] with a custom population and statement
/// shape (threshold/RNN groups reuse it; row subscriptions sample at
/// [`ROW_BENCH_SAMPLES`]).
fn server_with(n: usize, subs: usize, stmt: fn(u64) -> String) -> ModServer {
    server_with_churn(n, subs, stmt, far)
}

/// [`server_with`] with an explicit churn-fleet shape.
fn server_with_churn(
    n: usize,
    subs: usize,
    stmt: fn(u64) -> String,
    churn: fn(u64, f64) -> UncertainTrajectory,
) -> ModServer {
    let server = ModServer::new();
    server
        .subscription_registry()
        .set_row_samples(ROW_BENCH_SAMPLES);
    server
        .register_all(generate_uncertain(
            &WorkloadConfig::with_objects(n, 7),
            RADIUS,
        ))
        .expect("registers");
    for k in 0..32u64 {
        server.register(churn(k, 0.0)).expect("registers");
    }
    for q in 0..subs as u64 {
        server
            .subscribe(&format!("sub{q}"), &stmt(q))
            .expect("subscribes");
    }
    server
}

/// Row sampling density of the row-subscription groups — the production
/// default ([`unn_modb::subscription::PROB_ROW_SAMPLES`]): the profiled
/// column kernel makes a `P^WD` probe cheap enough to bench at full
/// density. Maintained and naive sides use the same density — the ratio
/// is what the acceptance number tracks.
const ROW_BENCH_SAMPLES: u32 = 128;

/// Whether the naive re-execution baselines run. At full density a
/// naive iteration costs whole seconds (a fresh exhaustive re-sweep per
/// commit), so they are opt-in: set `UNN_BENCH_NAIVE=1` when
/// regenerating the committed `BENCH_continuous_queries.json` (the JSON
/// checker requires the naive groups) and leave it unset for quick
/// maintained-path runs and CI smoke.
fn naive_enabled() -> bool {
    std::env::var_os("UNN_BENCH_NAIVE").is_some_and(|v| v != "0")
}

/// The convolved difference pdf of the bench fleet's location model.
fn diff_pdf(server: &ModServer) -> Box<dyn unn_prob::RadialPdf> {
    let kind = common_pdf_kind(&server.store().snapshot())
        .expect("uniform fleet")
        .expect("populated");
    kind.convolve_with(&kind)
}

/// A fresh exhaustive forward row evaluation (the naive-threshold work)
/// at the registry's current sampling density.
fn fresh_threshold_rows(server: &ModServer, query: Oid) -> ProbRowSet {
    let samples = server.subscription_registry().row_samples();
    QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(server.store().snapshot(), query, window())
        .expect("plans")
        .build_engine()
        .expect("builds")
        .prob_row_set_kernel(&ColumnKernel::new(diff_pdf(server).as_ref()), samples)
}

/// A fresh exhaustive reverse row evaluation (the naive-RNN work) at
/// the registry's current sampling density.
fn fresh_rnn_rows(server: &ModServer, query: Oid) -> ProbRowSet {
    let samples = server.subscription_registry().row_samples();
    QueryPlanner::new(PrefilterPolicy::Exhaustive)
        .plan(server.store().snapshot(), query, window())
        .expect("plans")
        .build_reverse_engine()
        .expect("builds")
        .prob_row_set_kernel(&ColumnKernel::new(diff_pdf(server).as_ref()), samples)
}

/// The maintained answer of `name`, unwrapped to its representation.
fn sub_rows(server: &ModServer, name: &str) -> ProbRowSet {
    match server.subscription_answer(name).expect("registered") {
        SubAnswer::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Shifts an existing fleet object slightly — an in-band GPS correction
/// that defeats the skip proof and exercises the patch path. Uses the
/// single-commit [`unn_modb::store::ModStore::update`], so one
/// maintenance round absorbs it.
fn nudge(server: &ModServer, victim: Oid, shift: f64) {
    let old = server.store().get(victim).expect("present");
    let revised: Vec<(f64, f64, f64)> = old
        .trajectory()
        .samples()
        .iter()
        .map(|p| (p.position.x + shift, p.position.y, p.time))
        .collect();
    let replaced = server.store().update(
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(victim, &revised).expect("valid"),
            RADIUS,
        )
        .expect("valid"),
    );
    assert!(replaced.is_some(), "victim was registered");
}

/// The acceptance property: after a mixed stream of far churn, in-band
/// nudges, insertions, and removals, every maintained answer equals a
/// fresh exhaustive evaluation of the final contents, and folding the
/// emitted deltas over the initial answers reproduces them.
fn assert_maintained_answers_match() {
    let server = server_with_subs(4);
    // A threshold standing query rides along on the full fleet: its
    // maintained rows must stay bit-identical too. (The reverse
    // subscription is asserted separately on the RNN bench fleet —
    // its per-perspective evaluation is quadratic in the population.)
    server
        .subscribe("rows0", &threshold_statement(0))
        .expect("subscribes");
    let names: Vec<String> = (0..4)
        .map(|q| format!("sub{q}"))
        .chain(["rows0".to_string()])
        .collect();
    let initial: Vec<SubAnswer> = names
        .iter()
        .map(|n| server.subscription_answer(n).unwrap())
        .collect();
    let mut folded = initial.clone();
    let drain_all = |folded: &mut Vec<SubAnswer>| {
        for (n, acc) in names.iter().zip(folded.iter_mut()) {
            for d in server.poll_subscription(n).unwrap() {
                *acc = acc.apply(&d);
            }
        }
    };
    for k in 0..24u64 {
        match k % 4 {
            0 => {
                server.store().remove(Oid(CHURN_BASE + k % 32)).unwrap();
                server.register(far(k, 0.25 * k as f64)).unwrap();
            }
            1 => nudge(&server, Oid(100 + k % 40), 0.01 * (k + 1) as f64),
            2 => {
                let _ = server.store().remove(Oid(500 + k));
            }
            _ => nudge(&server, Oid(200 + k % 40), -0.02),
        }
        drain_all(&mut folded);
    }
    let snapshot = server.store().snapshot();
    for q in 0..4u64 {
        let fresh = QueryPlanner::new(PrefilterPolicy::Exhaustive)
            .plan(snapshot.clone(), Oid(q), window())
            .expect("plans")
            .build_engine()
            .expect("builds")
            .answer_set();
        let maintained = server.subscription_answer(&format!("sub{q}")).unwrap();
        assert_eq!(
            maintained,
            SubAnswer::Intervals(fresh),
            "sub{q}: maintained answer diverged from fresh exhaustive evaluation"
        );
        assert_eq!(
            folded[q as usize], maintained,
            "sub{q}: folded deltas diverged from the maintained answer"
        );
    }
    // The threshold rows stayed bit-identical to a fresh exhaustive
    // sweep, and their folded deltas reproduce them.
    assert_eq!(
        sub_rows(&server, "rows0"),
        fresh_threshold_rows(&server, Oid(0)),
        "rows0: maintained threshold rows diverged"
    );
    assert_eq!(folded[4], SubAnswer::Rows(sub_rows(&server, "rows0")));
    let subs = server.subscriptions();
    assert!(
        subs.iter().any(|s| s.stats.skipped > 0),
        "the stream never exercised the skip path: {subs:?}"
    );
    assert!(
        subs.iter().any(|s| s.stats.patched > 0),
        "the stream never exercised the patch path: {subs:?}"
    );
}

/// The reverse-subscription acceptance property on the RNN bench fleet:
/// far churn carries every untouched perspective, and the maintained
/// rows (and their folded deltas) stay bit-identical to a fresh
/// exhaustive reverse evaluation.
fn assert_maintained_reverse_rows_match(n: usize) {
    let server = server_with_churn(n, 0, rnn_statement, far_sparse);
    server
        .subscribe("rev0", &rnn_statement(0))
        .expect("subscribes");
    let initial = server.subscription_answer("rev0").unwrap();
    let mut folded = initial;
    for k in 0..6u64 {
        server.store().remove(Oid(CHURN_BASE + k % 32)).unwrap();
        server.register(far_sparse(k, 0.25 * k as f64)).unwrap();
        for d in server.poll_subscription("rev0").unwrap() {
            folded = folded.apply(&d);
        }
    }
    assert_eq!(
        sub_rows(&server, "rev0"),
        fresh_rnn_rows(&server, Oid(0)),
        "rev0: maintained reverse rows diverged"
    );
    assert_eq!(folded, SubAnswer::Rows(sub_rows(&server, "rev0")));
    let info = server
        .subscriptions()
        .into_iter()
        .find(|s| s.name == "rev0")
        .unwrap();
    assert!(
        info.stats.perspectives_skipped > 0,
        "far churn never carried a perspective: {info:?}"
    );
}

fn continuous_queries(c: &mut Criterion) {
    assert_maintained_answers_match();
    let mut group = c.benchmark_group("continuous");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    for subs in SUB_COUNTS {
        // Maintained, far churn: the skip path absorbs the delta.
        let server = server_with_subs(subs);
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("maintain_far", subs), &subs, |b, _| {
            b.iter(|| {
                k += 1;
                server
                    .store()
                    .remove(Oid(CHURN_BASE + k % 32))
                    .expect("present");
                server
                    .register(far(k, 0.01 * (k % 100) as f64))
                    .expect("ok");
            })
        });
        // Maintained, in-band churn: the patch path re-evaluates
        // incrementally (difference functions reused).
        let server = server_with_subs(subs);
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("maintain_near", subs), &subs, |b, _| {
            b.iter(|| {
                k += 1;
                nudge(&server, Oid(100 + k % 40), 0.001);
            })
        });
        // Naive: the same far churn, every standing query re-executed
        // from scratch (bypassing the engine cache, like a cold server).
        // Opt-in: see [`naive_enabled`].
        if naive_enabled() {
            let server = server_with_subs(0);
            let planner = QueryPlanner::default();
            let mut k = 0u64;
            group.bench_with_input(BenchmarkId::new("naive", subs), &subs, |b, _| {
                b.iter(|| {
                    k += 1;
                    server
                        .store()
                        .remove(Oid(CHURN_BASE + k % 32))
                        .expect("present");
                    server
                        .register(far(k, 0.01 * (k % 100) as f64))
                        .expect("ok");
                    let snapshot = server.store().snapshot();
                    for q in 0..subs as u64 {
                        let plan = planner
                            .plan(snapshot.clone(), Oid(q), window())
                            .expect("plans");
                        let engine = plan.build_engine().expect("builds");
                        criterion::black_box(engine.answer_set());
                    }
                })
            });
        }
    }
    // ------------------------------------------------------------------
    // Threshold standing queries (sampled probability rows at
    // ROW_BENCH_SAMPLES probes): maintained far churn (band-survivor
    // skip) vs naive re-plan + full re-sweep. The acceptance number is
    // maintain vs naive at 1 sub.
    // ------------------------------------------------------------------
    {
        let subs = 1usize;
        let server = server_with(N, subs, threshold_statement);
        let mut k = 0u64;
        group.bench_with_input(
            BenchmarkId::new("maintain_threshold", subs),
            &subs,
            |b, _| {
                b.iter(|| {
                    k += 1;
                    server
                        .store()
                        .remove(Oid(CHURN_BASE + k % 32))
                        .expect("present");
                    server
                        .register(far(k, 0.01 * (k % 100) as f64))
                        .expect("ok");
                })
            },
        );
        if naive_enabled() {
            let server = server_with(N, 0, threshold_statement);
            let mut k = 0u64;
            group.bench_with_input(BenchmarkId::new("naive_threshold", subs), &subs, |b, _| {
                b.iter(|| {
                    k += 1;
                    server
                        .store()
                        .remove(Oid(CHURN_BASE + k % 32))
                        .expect("present");
                    server
                        .register(far(k, 0.01 * (k % 100) as f64))
                        .expect("ok");
                    let pdf = diff_pdf(&server);
                    let planner = QueryPlanner::default();
                    for q in 0..subs as u64 {
                        let rows = planner
                            .plan(server.store().snapshot(), Oid(q), window())
                            .expect("plans")
                            .build_engine()
                            .expect("builds")
                            .prob_row_set_kernel(
                                &ColumnKernel::new(pdf.as_ref()),
                                ROW_BENCH_SAMPLES,
                            );
                        criterion::black_box(rows);
                    }
                })
            });
        }
    }

    // ------------------------------------------------------------------
    // Reverse (PROB_RNN) standing queries at N_RNN: maintained far churn
    // (per-perspective carry; one new perspective per commit) vs a naive
    // full reverse rebuild + re-sweep.
    // ------------------------------------------------------------------
    const N_RNN: usize = 60;
    {
        assert_maintained_reverse_rows_match(N_RNN);
        let server = server_with_churn(N_RNN, 0, rnn_statement, far_sparse);
        server
            .subscribe("rnn0", &rnn_statement(0))
            .expect("subscribes");
        let mut k = 0u64;
        group.bench_with_input(BenchmarkId::new("maintain_rnn", 1), &1usize, |b, _| {
            b.iter(|| {
                k += 1;
                server
                    .store()
                    .remove(Oid(CHURN_BASE + k % 32))
                    .expect("present");
                server
                    .register(far_sparse(k, 0.01 * (k % 100) as f64))
                    .expect("ok");
            })
        });
        if naive_enabled() {
            let server = server_with_churn(N_RNN, 0, rnn_statement, far_sparse);
            let mut k = 0u64;
            group.bench_with_input(BenchmarkId::new("naive_rnn", 1), &1usize, |b, _| {
                b.iter(|| {
                    k += 1;
                    server
                        .store()
                        .remove(Oid(CHURN_BASE + k % 32))
                        .expect("present");
                    server
                        .register(far_sparse(k, 0.01 * (k % 100) as f64))
                        .expect("ok");
                    criterion::black_box(fresh_rnn_rows(&server, Oid(0)));
                })
            });
        }
    }

    // ------------------------------------------------------------------
    // Push fan-out over loopback TCP: commit → 32 pushed deltas.
    // ------------------------------------------------------------------
    let server = Arc::new(server_with_subs(0));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let addr = net.local_addr();
    let mut clients: Vec<NetClient> = (0..32)
        .map(|i| {
            let mut c = NetClient::connect(addr).expect("connects");
            let stmt = format!(
                "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
                 AND PROB_NN(*, Tr0, TIME) > 0 AS push{i}"
            );
            match c.execute(&stmt).expect("registers") {
                WireOutput::Registered(_) => c,
                other => panic!("expected Registered, got {other:?}"),
            }
        })
        .collect();
    // The toggle object: a near-copy of Tr0, offset into its band, so
    // every commit changes every subscription's answer and pushes one
    // event per client.
    let shadow_oid = Oid(CHURN_BASE + 100);
    let shadow = {
        let base = server.store().get(Oid(0)).expect("Tr0 present");
        let shifted: Vec<(f64, f64, f64)> = base
            .trajectory()
            .samples()
            .iter()
            .map(|p| (p.position.x + 0.05, p.position.y + 0.05, p.time))
            .collect();
        UncertainTrajectory::with_uniform_pdf(
            Trajectory::from_triples(shadow_oid, &shifted).expect("valid"),
            RADIUS,
        )
        .expect("valid")
    };
    let mut k = 0u64;
    group.bench_with_input(BenchmarkId::new("push_fanout", 32), &32usize, |b, _| {
        b.iter(|| {
            k += 1;
            if k % 2 == 1 {
                server.store().insert(shadow.clone()).expect("inserts");
            } else {
                server.store().remove(shadow_oid).expect("removes");
            }
            // The commit is not "done" until every connected subscriber
            // holds its pushed delta.
            for c in clients.iter_mut() {
                let ev = c
                    .next_event(Some(Duration::from_secs(30)))
                    .expect("stream healthy")
                    .expect("every commit pushes one delta per subscriber");
                criterion::black_box(ev);
            }
        })
    });
    drop(clients);
    net.shutdown();
    group.finish();
}

criterion_group!(benches, continuous_queries);
criterion_main!(benches);
