//! City-scale push fan-out: commit-to-push latency with 1k+ loopback
//! subscribers on one standing query.
//!
//! A custom `harness = false` main (the metric is a latency percentile
//! over fan-out rounds, not a closure median): an in-process
//! [`NetServer`] serves a populated MOD; `N` raw loopback clients
//! attach to the push stream; each round commits one answer-changing
//! mutation and measures the wall-clock from the commit call until the
//! **last** subscriber has received its pushed frame. Percentiles over
//! the rounds are reported via `criterion::report_ns` into
//! `BENCH_fanout.json`.
//!
//! Scenarios (fresh server each):
//!
//! * `fanout/watch_p50` / `fanout/watch_p99` — the full encode-once
//!   path: one registered standing query, `N` connections attached via
//!   `WATCH`; one engine maintains the answer, one serialization per
//!   delta is broadcast to every outbox.
//! * `fanout/register_shared_p99` — `N` distinct `REGISTER CONTINUOUS`
//!   names on the identical query: one shared engine, but per-name
//!   frames (each connection re-encodes). Isolates the engine-sharing
//!   layer from the encode-once layer.
//! * `fanout/city_maintain_100` / `fanout/city_maintain_10k` — the
//!   maintenance round itself across many *distinct* standing queries
//!   (mixed interval/row, in-process): p50 wall-clock of a far-churn
//!   commit whose delta region intersects no standing query's guard
//!   box. The registry's spatial index prunes every share, so the two
//!   must stay within 10x of each other (asserted in full mode, and
//!   held on the tracked report by `check_bench_json`'s ratio gates).
//! * `fanout/city_multiwriter_10k` — concurrent writer threads churning
//!   far objects, each commit running its own maintenance round; mean
//!   wall-clock per commit across the burst.
//!
//! Before any timing, the watch scenario asserts **bit-identity**: all
//! `N` subscribers' raw pushed frames are byte-for-byte equal, and the
//! delta they carry folds the base answer onto a fresh exhaustive
//! evaluation of the mutated store. (That the indexed maintenance the
//! city scenarios time answers bit-identically to a cold evaluation is
//! `tests/indexed_sync.rs`'s property.)
//!
//! Knobs: `UNN_FANOUT_SUBS` overrides the subscriber count (default
//! 1000; CI smoke uses a handful), `--test` runs a tiny smoke pass and
//! writes no report. Reader threads for event draining are derived
//! from `available_parallelism` so few-core CI hosts don't pile every
//! drain onto contended threads.

use std::io::{self, Read};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use unn_modb::net::poll::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN};

use unn_geom::interval::TimeInterval;
use unn_modb::net::wire::{
    decode_payload, write_frame, Frame, WireRequest, TAG_BYE, TAG_EVENT, TAG_ROW_EVENT,
    WIRE_VERSION,
};
use unn_modb::net::{NetServer, WireOutput};
use unn_modb::plan::{PrefilterPolicy, QueryPlanner};
use unn_modb::server::ModServer;
use unn_modb::subscription::SubAnswer;
use unn_traj::trajectory::{Oid, Trajectory};
use unn_traj::uncertain::UncertainTrajectory;

const RADIUS: f64 = 0.5;
const WINDOW: (f64, f64) = (0.0, 60.0);
/// Fleet size: a dense near band of NN candidates (so each engine
/// maintenance round does real probability work) plus far filler.
const FLEET: u64 = 80;
/// Near-band candidates: objects 1..=NEAR_BAND sit at overlapping
/// distances from the query object, so every membership flip
/// recomputes NN probabilities across the whole band.
const NEAR_BAND: u64 = 32;
/// Waypoints per near-band trajectory: city trajectories are not
/// two-sample straight lines, and the engine's per-candidate cost
/// (difference-function pieces, envelope rebuild) scales with them.
const WAYPOINTS: usize = 65;
/// The churned in-band object: alternately inserted and removed, so
/// membership in the NN answer flips and every round pushes a delta
/// to every subscriber.
const CHURN_OID: u64 = 900_000;
const QUERY: &str = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0";
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

fn straight(oid: u64, y: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(0.0, y, WINDOW.0), (30.0, y, WINDOW.1)])
            .expect("valid"),
        RADIUS,
    )
    .expect("valid")
}

/// A multi-waypoint in-band trajectory: `x` advances steadily while
/// `y` weaves ±0.06 around `y0`, staying inside the near band.
fn zigzag(oid: u64, y0: f64) -> UncertainTrajectory {
    let triples: Vec<(f64, f64, f64)> = (0..WAYPOINTS)
        .map(|i| {
            let frac = i as f64 / (WAYPOINTS - 1) as f64;
            let wobble = if i % 2 == 0 { 0.06 } else { -0.06 };
            (
                30.0 * frac,
                y0 + wobble,
                WINDOW.0 + (WINDOW.1 - WINDOW.0) * frac,
            )
        })
        .collect();
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &triples).expect("valid"),
        RADIUS,
    )
    .expect("valid")
}

/// The query object at y=0, a near neighbor band, and far filler.
fn populated_server() -> Arc<ModServer> {
    let server = ModServer::new();
    server
        .register_all((0..FLEET).map(|k| match k {
            0 => straight(0, 0.0),
            k if k <= NEAR_BAND => zigzag(k, 0.35 + 0.08 * (k - 1) as f64),
            _ => straight(k, 9.0 + k as f64 * 40.0),
        }))
        .expect("registers");
    Arc::new(server)
}

/// One churn commit: inserts the in-band churn object on even rounds,
/// removes it on odd ones — membership flips, so the maintained answer
/// (and the pushed delta) changes every time.
fn churn(server: &ModServer, round: usize) {
    // A two-sample straight line: the flip must change the answer, not
    // bloat the pushed delta — frame size is part of the measured path
    // and both scenarios pay it per subscriber.
    if round % 2 == 0 {
        server.register(straight(CHURN_OID, 0.4)).expect("inserts");
    } else {
        server.store().remove(Oid(CHURN_OID)).expect("removes");
    }
}

/// Fresh exhaustive evaluation — the bit-identity ground truth.
fn fresh_answer(server: &ModServer) -> SubAnswer {
    SubAnswer::Intervals(
        QueryPlanner::new(PrefilterPolicy::Exhaustive)
            .plan(
                server.store().snapshot(),
                Oid(0),
                TimeInterval::new(WINDOW.0, WINDOW.1),
            )
            .expect("plans")
            .build_engine()
            .expect("builds")
            .answer_set(),
    )
}

/// All subscribers' round completion latch: the last client to receive
/// its event for the round stamps `done_at` and wakes the driver.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    received: u64,
    target: u64,
    done_at: Option<Instant>,
}

impl Gate {
    fn on_event(&self) {
        let mut st = self.state.lock().unwrap();
        st.received += 1;
        if st.received == st.target {
            st.done_at = Some(Instant::now());
            self.cv.notify_all();
        }
    }

    /// Arms the latch for the next `n` events. Call before committing.
    fn arm(&self, n: u64) {
        let mut st = self.state.lock().unwrap();
        st.target = st.received + n;
        st.done_at = None;
    }

    /// Blocks until the armed count is reached, returning the stamp.
    fn wait(&self) -> Instant {
        let st = self.state.lock().unwrap();
        let (st, timeout) = self
            .cv
            .wait_timeout_while(st, EVENT_TIMEOUT, |st| st.done_at.is_none())
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "subscribers missed a pushed round ({}/{} events)",
            st.received,
            st.target
        );
        st.done_at.unwrap()
    }
}

/// One raw loopback subscriber. Avoids `NetClient` so the *bytes* of
/// each pushed frame are observable for the bit-identity assertion.
struct RawClient {
    stream: TcpStream,
}

fn read_raw_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    let mut buf = vec![0u8; 4 + n];
    buf[..4].copy_from_slice(&len);
    stream.read_exact(&mut buf[4..])?;
    Ok(buf)
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> RawClient {
        let mut stream = TcpStream::connect(addr).expect("connects");
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )
        .expect("hello");
        match decode_frame(&read_raw_frame(&mut stream).expect("welcome")) {
            Frame::Welcome { .. } => {}
            other => panic!("expected Welcome, got {other:?}"),
        }
        RawClient { stream }
    }

    /// Executes one statement, returning its output. Pushed events that
    /// overtake the response are impossible here (no commits run during
    /// setup), so the next frame is the response.
    fn execute(&mut self, statement: &str) -> WireOutput {
        write_frame(
            &mut self.stream,
            &Frame::Request {
                id: 1,
                body: WireRequest::Statement(statement.to_string()),
            },
        )
        .expect("request");
        match decode_frame(&read_raw_frame(&mut self.stream).expect("response")) {
            Frame::Response { result, .. } => result.expect("statement accepted"),
            other => panic!("expected Response, got {other:?}"),
        }
    }
}

/// One attached subscriber on the receive side: a nonblocking socket
/// plus its partial-frame buffer. A handful of poll-based reader
/// shards own all `N` of these — per-subscriber reader threads would
/// drown the measurement in scheduler overhead at 1k subscribers.
struct Sub {
    stream: TcpStream,
    inbuf: Vec<u8>,
    first: Arc<Mutex<Option<Vec<u8>>>>,
    captured: bool,
    alive: bool,
}

/// Reads everything available on one subscriber, counting pushed
/// events into `gate` and capturing the first raw frame.
fn drain_sub(sub: &mut Sub, gate: &Gate) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match sub.stream.read(&mut buf) {
            Ok(0) => {
                sub.alive = false;
                break;
            }
            Ok(n) => sub.inbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                sub.alive = false;
                break;
            }
        }
    }
    while sub.inbuf.len() >= 4 {
        let len = u32::from_le_bytes(sub.inbuf[..4].try_into().unwrap()) as usize;
        if sub.inbuf.len() < 4 + len {
            break;
        }
        let raw: Vec<u8> = sub.inbuf.drain(..4 + len).collect();
        // Classified by the frame tag byte alone: fully decoding every
        // pushed frame on 1k subscribers would charge both scenarios a
        // large common receive cost and mask the server-side delta. The
        // captured first frame per subscriber is decoded later, during
        // the bit-identity phase.
        match raw[4] {
            TAG_EVENT | TAG_ROW_EVENT => {
                if !sub.captured {
                    sub.captured = true;
                    *sub.first.lock().unwrap() = Some(raw);
                }
                gate.on_event();
            }
            TAG_BYE => sub.alive = false,
            _ => {}
        }
    }
}

/// One reader shard: polls its subscribers, draining whichever are
/// readable, until stopped or all sockets close.
fn reader_shard(mut subs: Vec<Sub>, gate: Arc<Gate>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) && !subs.is_empty() {
        let mut fds: Vec<PollFd> = subs
            .iter()
            .map(|s| PollFd::new(s.stream.as_raw_fd(), POLLIN))
            .collect();
        let ready = match poll_fds(&mut fds, 100) {
            Ok(ready) => ready,
            Err(_) => break,
        };
        if ready == 0 {
            continue;
        }
        for (i, sub) in subs.iter_mut().enumerate() {
            if fds[i].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                drain_sub(sub, &gate);
            }
        }
        subs.retain(|s| s.alive);
    }
}

/// Reader shards across the subscriber fleet: one per available core,
/// minus one reserved for the server's event loop, so few-core hosts
/// measure the server rather than reader starvation (the old fixed
/// count of 4 piled every drain onto one or two contended threads
/// there and the harness became the bottleneck).
fn reader_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .saturating_sub(1)
        .clamp(1, 8)
}

fn decode_frame(raw: &[u8]) -> Frame {
    decode_payload(&raw[4..]).expect("well-formed frame")
}

enum Mode {
    /// One registered standing query, every client `WATCH`es it.
    Watch,
    /// Distinct names on one shared engine (per-name frames).
    RegisterShared,
}

/// Runs one fan-out scenario: builds a fresh server, attaches `n`
/// subscribers per `mode`, optionally asserts bit-identity, then
/// measures `rounds` commit-to-last-push latencies.
fn run_scenario(mode: Mode, n: usize, rounds: usize, assert_identity: bool) -> Vec<Duration> {
    let server = populated_server();
    if matches!(mode, Mode::Watch) {
        server.subscribe("fan", QUERY).expect("registers");
    }
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let addr = net.local_addr();

    let gate = Arc::new(Gate::default());
    let stop = Arc::new(AtomicBool::new(false));
    let reader_shards = reader_shards();
    let mut firsts = Vec::with_capacity(n);
    let mut shards: Vec<Vec<Sub>> = (0..reader_shards).map(|_| Vec::new()).collect();
    for i in 0..n {
        let mut client = RawClient::connect(addr);
        let out = match mode {
            Mode::Watch => client.execute("WATCH fan"),
            Mode::RegisterShared => client.execute(&format!("REGISTER CONTINUOUS {QUERY} AS w{i}")),
        };
        assert!(matches!(out, WireOutput::Registered(_)), "attach failed");
        let first = Arc::new(Mutex::new(None));
        client.stream.set_nonblocking(true).expect("nonblocking");
        shards[i % reader_shards].push(Sub {
            stream: client.stream,
            inbuf: Vec::new(),
            first: Arc::clone(&first),
            captured: false,
            alive: true,
        });
        firsts.push(first);
    }
    let readers: Vec<_> = shards
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|subs| {
            let gate = Arc::clone(&gate);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || reader_shard(subs, gate, stop))
        })
        .collect();
    assert_eq!(server.subscription_registry().share_count(), 1);

    // Warm commit (churn object appears) — doubles as the bit-identity
    // probe for the watch scenario.
    let base = assert_identity.then(|| {
        server
            .subscription_answer_with_epoch("fan")
            .expect("base answer")
            .0
    });
    gate.arm(n as u64);
    churn(&server, 0);
    gate.wait();
    if let Some(base) = base {
        // Every subscriber's first raw frame must be byte-identical,
        // and its delta must fold the base onto a fresh exhaustive
        // evaluation.
        let reference = firsts[0].lock().unwrap().clone().expect("first frame");
        for first in &firsts {
            assert_eq!(
                first.lock().unwrap().as_deref(),
                Some(&reference[..]),
                "pushed frames must be bit-identical across subscribers"
            );
        }
        let folded = match decode_frame(&reference) {
            Frame::Event { delta, lagged, .. } => {
                assert!(!lagged);
                base.apply(&unn_modb::subscription::SubDelta::Intervals(delta))
            }
            other => panic!("expected Event, got {other:?}"),
        };
        assert_eq!(
            folded,
            fresh_answer(&server),
            "folded pushed delta must equal a fresh exhaustive evaluation"
        );
    }

    let mut latencies = Vec::with_capacity(rounds);
    // `round + 1`: the warm commit was round 0 (insert), so timing
    // starts with a remove and alternates from there.
    for round in 0..rounds {
        gate.arm(n as u64);
        let t0 = Instant::now();
        churn(&server, round + 1);
        let done = gate.wait();
        latencies.push(done.duration_since(t0));
    }

    stop.store(true, Ordering::Relaxed);
    net.shutdown();
    for reader in readers {
        let _ = reader.join();
    }
    latencies
}

fn percentile(sorted: &[Duration], pct: usize) -> f64 {
    let idx = ((sorted.len() * pct).div_ceil(100)).saturating_sub(1);
    sorted[idx].as_nanos() as f64
}

// ---------------------------------------------------------------------------
// City-scale maintenance: many standing queries, O(affected) rounds.
//
// The scenarios above measure push delivery to many *connections* on one
// query; these measure the maintenance round itself across many distinct
// *standing queries*. A far-churn commit provably affects none of them,
// so the registry's guard index should prune every share without
// touching it — the round's cost must stay flat as the registered
// population grows. Subscriptions are registered in-process (no sockets): the
// measured path is commit → index lookup → visit set, not transport.
// ---------------------------------------------------------------------------

/// Subscriptions per distinct query object: interval and row standing
/// queries coalesce onto shared engines per shape, so each query object
/// carries two shares however many names ride them.
const SUBS_PER_QUERY: usize = 8;
/// Query corridors sit on distinct lanes `CITY_BASE_Y + q * CITY_LANE`,
/// far above the churn district at y ~ 0: no guard box reaches it.
const CITY_BASE_Y: f64 = 1_000.0;
const CITY_LANE: f64 = 10.0;

fn city_interval_stmt(query_oid: u64) -> String {
    format!(
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{query_oid}, TIME) > 0"
    )
}

fn city_row_stmt(query_oid: u64) -> String {
    format!(
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr{query_oid}, TIME) > 0.3"
    )
}

/// A city server: `subs / SUBS_PER_QUERY` query objects on distinct
/// lanes, each with one in-band companion (so every shared engine
/// maintains a non-trivial answer), plus the mixed interval/row
/// subscription population riding them.
fn city_server(subs: usize) -> Arc<ModServer> {
    let queries = subs.div_ceil(SUBS_PER_QUERY).max(1) as u64;
    let server = ModServer::new();
    // Row shares pay a quadrature per dirty probe column; a moderate
    // density keeps 10k-name registration snappy without changing what
    // the far-churn rounds measure (they never touch a column).
    server.subscription_registry().set_row_samples(16);
    server
        .register_all((0..queries).flat_map(|q| {
            let lane = CITY_BASE_Y + CITY_LANE * q as f64;
            [straight(2 * q + 1, lane), straight(2 * q + 2, lane + 0.4)]
        }))
        .expect("registers");
    for i in 0..subs {
        let q = 2 * (i / SUBS_PER_QUERY) as u64 + 1;
        // Every fourth name is a probability-row subscription; the rest
        // maintain qualification intervals. Same-shape names share an
        // engine, so each query object carries at most two shares.
        let stmt = if i % 4 == 3 {
            city_row_stmt(q)
        } else {
            city_interval_stmt(q)
        };
        server
            .subscribe(&format!("c{i}"), &stmt)
            .expect("city subscription registers");
    }
    Arc::new(server)
}

/// Far churn for the city fleet: the churn object lives in the district
/// at y ~ 0, provably outside every standing query's guard region.
fn city_churn(server: &ModServer, round: usize) {
    if round % 2 == 0 {
        server.register(straight(CHURN_OID, 0.3)).expect("inserts");
    } else {
        server.store().remove(Oid(CHURN_OID)).expect("removes");
    }
}

/// Far-churn maintenance rounds, inline on the committing thread: the
/// returned samples time `commit + maintenance` wall-clock. One warm
/// pair first — the initial round after registration reconciles the
/// index's epoch backlog and is not steady-state.
fn city_far_rounds(server: &Arc<ModServer>, rounds: usize) -> Vec<Duration> {
    city_churn(server, 0);
    city_churn(server, 1);
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let t0 = Instant::now();
        city_churn(server, round);
        out.push(t0.elapsed());
    }
    // Leave the store churn-object-free for any later phase.
    if rounds % 2 == 1 {
        city_churn(server, rounds);
    }
    out
}

/// Multi-writer churn: `writers` threads commit far mutations on
/// distinct objects concurrently, each commit followed by its own
/// maintenance round; reported as mean wall-clock per commit across the
/// whole burst.
fn city_multiwriter(server: &Arc<ModServer>, writers: usize, commits_each: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let server = Arc::clone(server);
            scope.spawn(move || {
                let oid = CHURN_OID + 10 + w as u64;
                for round in 0..commits_each {
                    if round % 2 == 0 {
                        server
                            .register(straight(oid, 0.2 + w as f64 * 0.1))
                            .expect("inserts");
                    } else {
                        server.store().remove(Oid(oid)).expect("removes");
                    }
                }
            });
        }
    });
    t0.elapsed().as_nanos() as f64 / (writers * commits_each) as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let n: usize = std::env::var("UNN_FANOUT_SUBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8 } else { 1000 });
    let (watch_rounds, shared_rounds) = if smoke { (3, 2) } else { (50, 20) };

    eprintln!("fanout: {n} subscribers (watch {watch_rounds} / shared {shared_rounds} rounds)");

    let mut watch = run_scenario(Mode::Watch, n, watch_rounds, true);
    watch.sort();
    criterion::report_ns("fanout/watch_p50", percentile(&watch, 50));
    criterion::report_ns("fanout/watch_p99", percentile(&watch, 99));

    let mut shared = run_scenario(Mode::RegisterShared, n, shared_rounds, false);
    shared.sort();
    criterion::report_ns("fanout/register_shared_p99", percentile(&shared, 99));

    // City-scale maintenance: a far-churn round's cost must stay flat
    // as the standing-query population scales 100x.
    let (city_small, city_large, city_rounds) = if smoke {
        (12, 48, 4)
    } else {
        (100, 10_000, 30)
    };
    eprintln!("fanout: city far-churn rounds ({city_small} / {city_large} subscriptions)");
    let small = city_server(city_small);
    let mut small_rounds = city_far_rounds(&small, city_rounds);
    small_rounds.sort();
    criterion::report_ns("fanout/city_maintain_100", percentile(&small_rounds, 50));

    let large = city_server(city_large);
    let mut large_rounds = city_far_rounds(&large, city_rounds);
    large_rounds.sort();
    criterion::report_ns("fanout/city_maintain_10k", percentile(&large_rounds, 50));

    eprintln!("fanout: city multi-writer churn ({city_large} subscriptions)");
    let writers = if smoke { 2 } else { 4 };
    let commits_each = if smoke { 4 } else { 32 };
    criterion::report_ns(
        "fanout/city_multiwriter_10k",
        city_multiwriter(&large, writers, commits_each),
    );

    if smoke {
        println!("fanout smoke ok ({n} subscribers)");
        return;
    }
    let far_small = percentile(&small_rounds, 50);
    let far_large = percentile(&large_rounds, 50);
    let ratio = far_large / far_small;
    println!(
        "fanout city far-churn p50: {:.1}us @ {city_small} subs, {:.1}us @ {city_large} subs ({ratio:.2}x)",
        far_small / 1_000.0,
        far_large / 1_000.0,
    );
    assert!(
        ratio <= 10.0,
        "far-churn maintenance at {city_large} standing queries is {ratio:.2}x the \
         {city_small}-subscription round (must be <= 10x: the guard index should \
         make unaffected rounds population-independent)"
    );
    criterion::write_report(env!("CARGO_MANIFEST_DIR"));
}
