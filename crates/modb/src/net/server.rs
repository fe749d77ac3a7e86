//! The framed TCP service: a readiness-loop **multiplexed**
//! [`NetServer`] wrapping a [`ModServer`], executing query-language
//! statements over the wire and **pushing** subscription deltas to the
//! connections that registered (or [`WATCH`ed](crate::ql)) them.
//!
//! ## Architecture
//!
//! One event-loop thread owns the listener and every connection socket
//! (all nonblocking), multiplexed with [`super::poll::poll_fds`] — so
//! connection count costs file descriptors, not threads. A write
//! request (`Insert`, `Update`, `Remove`) is committed **on the loop**:
//! store, delta log, WAL record (its fsync included, under
//! `--fsync always`) and replication frame. The loop then looks the
//! commit's maintenance round up in each registry's guard index. When
//! that maintenance is idle — no checkpoint due, no share visited — the
//! loop counts the empty round and queues the ack in the same
//! iteration: a write that touches no standing query never leaves the
//! loop. Otherwise the owed work (the round's visit set, the
//! checkpoint, or both) ships to the connection's worker, which runs it
//! and then acks, so an ack still means the commit's round is complete
//! and its due checkpoint installed. The loop takes no share core lock
//! and runs no climb, snapshot rebuild or checkpoint.
//!
//! Every `Statement` request is parsed on the loop. A parse error is
//! answered there, and so is a hot read: a forward `PROB_NN` `SELECT`
//! with threshold 0 and no `RANK` whose engine the cache holds at the
//! store's epoch or carries to it ([`ModServer::execute_cached`]: one
//! lookup, a render from the engine's memoised answer, an encode). The
//! loop never plans or builds an engine. Every other statement — a
//! miss, `RANK`, a threshold, `PROB_RNN`, the standing-query verbs —
//! reaches a small worker pool already parsed, as do `SubscriptionAnswer`
//! requests; `FOLLOW` runs on the loop. Requests from one connection
//! always route to the same worker, and while a connection has a job on
//! the pool its later requests, writes, hot reads and parse errors
//! included, follow it there — so responses on one connection keep
//! request order. Completed responses come back through a completion
//! queue and a [`super::poll::Waker`] nudge. Subscription maintenance
//! wakes the loop the same way via each outbox's
//! [`DeltaSink::set_wake_hook`].
//!
//! ```text
//! poll ─▶ accept / readable / writable
//!   │  readable: buffer → frames ─┬─ idle write: commit + ack ───────┐
//!   │                             ├─ parse error, hot read: answer ──┤
//!   │                             └─ worker pool ─▶ Response bytes ┐ │
//!   │  outbox drain: FeedEvent → cached Arc<[u8]> ─▶ out queue ◀───┼─┘
//!   └──────────────── waker ◀── completions ◀──────────────────────┘
//! ```
//!
//! ## Encode-once broadcast
//!
//! Every pushed [`FeedEvent`] carries a
//! [`FrameCache`](crate::subscription::FrameCache) shared by all the
//! outboxes the event was fanned out to. The first connection to
//! deliver the event encodes the `Event`/`RowEvent` frame and primes
//! the cache; every other connection clones the `Arc<[u8]>` and writes
//! the same bytes — one serialization per commit delta regardless of
//! subscriber count, and bit-identical frames on every socket.
//!
//! ## Connection lifecycle
//!
//! ```text
//! accept ─▶ handshake (Hello/Welcome, version-gated)
//!        ─▶ Request → loop or worker → Response   (in request order)
//!        └▶ DeltaSink drain → Event frames (paced, watermark-gated)
//! ```
//!
//! Each connection owns one bounded [`DeltaSink`] outbox. A successful
//! `REGISTER CONTINUOUS … AS name` (or `WATCH name`) executed over the
//! connection attaches that outbox to the subscription, so every
//! subsequent commit's [`unn_core::answer::AnswerDelta`] is pushed as
//! an [`super::wire::Frame::Event`] the moment maintenance emits it —
//! no polling. Backpressure is per connection: events wait in the
//! outbox while the socket (or the pacing delay) is busy, and when the
//! outbox overflows the oldest same-subscription events are squashed
//! via `AnswerDelta::then` with the survivor flagged `lagged`; the
//! client resyncs from a full answer
//! ([`super::wire::WireRequest::SubscriptionAnswer`]) if it needs
//! per-epoch granularity back. Subscriptions outlive their connection
//! (they remain registered server-side; only the push attachment dies
//! with the socket).

use crate::delta::ReplOp;
use crate::durability::{FollowerFeed, ReplicationHub};
use crate::ql::ast::Statement;
use crate::ql::parser::{parse_statement, ParseError};
use crate::server::{ModServer, ServerError};
use crate::store::{Maintenance, ModStore};
use crate::subscription::{DeltaSink, FeedEvent, SubAnswer, SubDelta, SubscriptionError};
use crate::telemetry::{self, TraceEvent, TraceStage};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::poll::{poll_fds, PollFd, Waker, POLLERR, POLLHUP, POLLIN, POLLOUT};
use super::wire::{encode_frame_bytes, pop_frame, Frame, WireOutput, WireRequest, WIRE_VERSION};

/// Bytes of encoded-but-unsent frames a connection may queue before
/// the loop stops draining its outbox — past this, backpressure moves
/// into the [`DeltaSink`] where the squash-oldest/`lagged` contract
/// applies instead of buffering unboundedly — and stops reading its
/// requests: no `POLLIN`, no frame popped, so TCP pushes back on a peer
/// that sends without reading. Buffered frames run once a write brings
/// the queue back below it.
const OUT_HIGH_WATERMARK: usize = 1 << 20;

/// Tunables of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-connection outbox bound: undrained pushed events beyond this
    /// squash (see [`DeltaSink`]). [`crate::store::DEFAULT_FEED_BOUND`]
    /// by default, like a [`crate::server::ModServer`] pull sink.
    pub outbox_capacity: usize,
    /// Artificial delay before each pushed event write. Zero in
    /// production; tests and benches raise it to simulate a slow
    /// consumer and force the `lagged` path deterministically.
    pub event_pacing: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            outbox_capacity: crate::store::DEFAULT_FEED_BOUND,
            event_pacing: Duration::ZERO,
        }
    }
}

/// State shared between the event loop, the worker pool, and the
/// shutdown path.
#[derive(Debug)]
struct Shared {
    server: Arc<ModServer>,
    config: NetServerConfig,
    shutting_down: AtomicBool,
    active: AtomicUsize,
    waker: Waker,
    completions: Mutex<Vec<Completion>>,
    /// Replication fan-out: the store publishes each commit's encoded
    /// `ReplDelta` frame here; following connections drain their feeds
    /// on the event loop (see [`crate::durability::ReplicationHub`]).
    hub: Arc<ReplicationHub>,
}

/// One finished worker job: the encoded `Response` frame for a
/// connection, or `Err` if encoding failed (frame over the wire
/// bound) — which tears the connection down like a write error would.
#[derive(Debug)]
struct Completion {
    token: u64,
    bytes: Result<Arc<[u8]>, ()>,
}

#[derive(Debug)]
struct Job {
    token: u64,
    id: u64,
    work: Work,
    sink: Arc<DeltaSink>,
}

/// What a worker does for one request before it answers.
#[derive(Debug)]
enum Work {
    /// Execute the request whole: a write behind earlier pool work, or
    /// a `SubscriptionAnswer`.
    Request(WireRequest),
    /// A statement the loop parsed but did not answer: execute it, or
    /// answer its parse error in its turn. The text only renders errors.
    Statement {
        parsed: Result<Statement, ParseError>,
        text: String,
    },
    /// The loop committed the write; run the maintenance it owes, then
    /// ack it.
    Maintain(Maintenance),
}

/// A running framed-TCP MOD service. Bind with [`NetServer::bind`],
/// stop with [`NetServer::shutdown`] (dropping shuts down too).
///
/// Its event loop commits writes and answers parse errors and hot reads
/// (`SELECT`s whose engine is cached or carries); a worker pool runs
/// everything that needs more (see the module docs).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use unn_modb::net::{NetClient, NetServer, WireOutput};
/// use unn_modb::server::ModServer;
///
/// let server = NetServer::bind("127.0.0.1:0", Arc::new(ModServer::new()))?;
/// let mut client = NetClient::connect(server.local_addr())?;
/// let out = client.execute("SHOW SUBSCRIPTIONS")?;
/// assert!(matches!(out, WireOutput::Subscriptions(infos) if infos.is_empty()));
/// assert_eq!(server.active_connections(), 1);
/// client.close()?;
/// server.shutdown();
/// # Ok::<(), unn_modb::net::NetError>(())
/// ```
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds and starts serving `server` on `addr` (use port 0 for an
    /// ephemeral port; [`NetServer::local_addr`] reports the bound one).
    pub fn bind<A: ToSocketAddrs>(addr: A, server: Arc<ModServer>) -> io::Result<NetServer> {
        NetServer::bind_with(addr, server, NetServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit tunables.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        server: Arc<ModServer>,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let hub = ReplicationHub::new();
        server.store().attach_replication(&hub);
        let shared = Arc::new(Shared {
            server,
            config,
            shutting_down: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            hub,
        });
        // Publishes nudge the event loop like outbox pushes do. Weak,
        // or the hub ↔ shared cycle would leak the event-loop state.
        let wake_shared = Arc::downgrade(&shared);
        shared.hub.set_wake_hook(Arc::new(move || {
            if let Some(s) = wake_shared.upgrade() {
                s.waker.wake();
            }
        }));
        let loop_shared = Arc::clone(&shared);
        let event_loop = std::thread::Builder::new()
            .name("unn-net-loop".to_string())
            .spawn(move || event_loop(listener, loop_shared))?;
        Ok(NetServer {
            local_addr,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// The address the server actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of currently open connections.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Stops accepting, force-closes every connection, and joins all
    /// service threads. Idempotent with the `Drop` cleanup.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.event_loop.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Per-connection event-loop state. The socket is nonblocking; all
/// progress is driven by readiness plus the pacing/watermark gates.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    sink: Arc<DeltaSink>,
    /// Unparsed inbound bytes (at most one frame of backlog plus a
    /// partial read).
    inbuf: Vec<u8>,
    /// Encoded frames queued for the socket, plus how much of the
    /// front frame is already written.
    out: VecDeque<Arc<[u8]>>,
    front_written: usize,
    out_bytes: usize,
    handshaken: bool,
    /// `true` while the queue is past [`OUT_HIGH_WATERMARK`] and reads
    /// are paused (counted once per pause).
    read_paused: bool,
    /// `true` once the connection is logically done (Bye exchanged,
    /// EOF, or protocol error): flush `out`, then close.
    closing: bool,
    /// Earliest instant the next outbox event may be delivered
    /// (`event_pacing` gate).
    next_push: Instant,
    /// Set by a `FOLLOW` request: this connection is a follower, and
    /// the event loop drains the feed's pre-encoded `ReplDelta` frames
    /// into its write queue.
    repl: Option<Arc<FollowerFeed>>,
    /// Jobs on the worker pool whose responses are not queued yet. While
    /// non-zero, every request follows them to the worker, so responses
    /// stay in request order.
    on_pool: usize,
}

impl Conn {
    /// Encodes `frame` and queues its bytes. Oversize frames close
    /// the connection, like a transport error.
    fn queue_frame(&mut self, frame: &Frame) -> Result<(), ()> {
        match encode_frame_bytes(frame) {
            Ok(bytes) => {
                self.queue_bytes(bytes);
                Ok(())
            }
            Err(_) => Err(()),
        }
    }

    fn queue_bytes(&mut self, bytes: Arc<[u8]>) {
        self.out_bytes += bytes.len();
        self.out.push_back(bytes);
    }
}

fn event_loop(listener: TcpListener, shared: Arc<Shared>) {
    let workers = spawn_workers(&shared);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut dead: Vec<u64> = Vec::new();
    let pacing = shared.config.event_pacing;
    // The poll set (waker, listener, then one slot per connection in
    // iteration order, tokens recorded alongside), refilled in place
    // every iteration.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();

    while !shared.shutting_down.load(Ordering::SeqCst) {
        let now = Instant::now();
        // Apply finished worker jobs, then make as much progress as
        // possible on every connection before sleeping in poll.
        for completion in shared.completions.lock().unwrap().drain(..) {
            if let Some(conn) = conns.get_mut(&completion.token) {
                conn.on_pool -= 1;
                match completion.bytes {
                    Ok(bytes) => conn.queue_bytes(bytes),
                    Err(()) => conn.closing = true,
                }
            }
        }
        let store = shared.server.store();
        for (token, conn) in conns.iter_mut() {
            if !pump_outbox(conn, now, pacing, store)
                || !pump_follower(conn)
                || !pump_socket_write(conn)
            {
                conn.closing = true;
            }
            pump_frames(conn, *token, &shared, &workers.senders);
            if conn.closing && conn.out.is_empty() {
                dead.push(*token);
            }
        }
        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                conn.sink.close();
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        }

        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(shared.waker.fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        for (token, conn) in conns.iter_mut() {
            let mut events = 0i16;
            let paused = conn.out_bytes >= OUT_HIGH_WATERMARK;
            if paused && !conn.read_paused {
                store.telemetry().net_read_paused.inc();
            }
            conn.read_paused = paused;
            if !conn.closing && !paused {
                events |= POLLIN;
            }
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            tokens.push(*token);
        }
        let timeout = poll_timeout(&conns, Instant::now(), pacing);
        if poll_fds(&mut fds, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        if fds[0].revents & POLLIN != 0 {
            shared.waker.drain();
        }
        if fds[1].revents & POLLIN != 0 {
            accept_ready(&listener, &shared, &mut conns, &mut next_token, pacing);
        }
        for (slot, token) in tokens.iter().enumerate() {
            let revents = fds[2 + slot].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            if revents & (POLLIN | POLLERR | POLLHUP) != 0 && !conn.closing {
                pump_socket_read(conn, *token, &shared, &workers.senders);
            }
            if revents & POLLOUT != 0 && !pump_socket_write(conn) {
                conn.closing = true;
            }
        }
    }

    // Shutdown: tear every connection down, stop the workers, join.
    drop(listener);
    for (_, conn) in conns.drain() {
        conn.sink.close();
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
    drop(workers.senders);
    for handle in workers.handles {
        let _ = handle.join();
    }
}

struct WorkerPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

/// Spawns the statement-execution pool. Requests from one connection
/// always land on worker `token % n`, so per-client execution order is
/// preserved without any cross-worker coordination.
fn spawn_workers(shared: &Arc<Shared>) -> WorkerPool {
    let n = unn_traj::par::available_cores().min(8);
    let mut senders = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (tx, rx) = mpsc::channel::<Job>();
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("unn-net-work{i}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    // A panicking job fails its own request, not the worker.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| match job.work {
                        Work::Request(body) => handle_request(&shared, body),
                        Work::Statement { parsed, text } => match parsed {
                            Ok(statement) => {
                                execute_statement(&shared.server, statement, &text, &job.sink)
                            }
                            Err(pe) => Err(pe.render(&text)),
                        },
                        Work::Maintain(maintenance) => {
                            maintenance.run(shared.server.store());
                            Ok(WireOutput::Done)
                        }
                    }))
                    .unwrap_or_else(|_| {
                        shared.server.store().telemetry().server_panics.inc();
                        Err("internal error: the request panicked".to_string())
                    });
                    let bytes =
                        encode_frame_bytes(&Frame::Response { id: job.id, result }).map_err(|_| ());
                    shared.completions.lock().unwrap().push(Completion {
                        token: job.token,
                        bytes,
                    });
                    shared.waker.wake();
                }
            })
            .expect("spawn worker thread");
        senders.push(tx);
        handles.push(handle);
    }
    WorkerPool { senders, handles }
}

/// Accepts every pending connection (the listener is nonblocking).
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    pacing: Duration,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // A commit's push frames go out in back-to-back writes; with
        // Nagle on, the second and later ones could wait for the
        // watcher's delayed ACK.
        let _ = stream.set_nodelay(true);
        let sink = Arc::new(DeltaSink::bounded(shared.config.outbox_capacity));
        // Maintenance threads pushing into this outbox nudge the
        // event loop so delivery starts without waiting for a timeout.
        let waker_shared = Arc::clone(shared);
        sink.set_wake_hook(Some(Arc::new(move || waker_shared.waker.wake())));
        let token = *next_token;
        *next_token += 1;
        conns.insert(
            token,
            Conn {
                stream,
                sink,
                inbuf: Vec::new(),
                out: VecDeque::new(),
                front_written: 0,
                out_bytes: 0,
                handshaken: false,
                read_paused: false,
                closing: false,
                next_push: Instant::now() + pacing,
                repl: None,
                on_pool: 0,
            },
        );
        shared.active.fetch_add(1, Ordering::SeqCst);
    }
}

/// Drains the connection's outbox into its write queue, respecting the
/// pacing gate and the byte watermark. Returns `false` when an event
/// failed to encode (connection must close).
fn pump_outbox(conn: &mut Conn, now: Instant, pacing: Duration, store: &ModStore) -> bool {
    if !conn.handshaken || conn.closing {
        return true;
    }
    while conn.out_bytes < OUT_HIGH_WATERMARK {
        if !pacing.is_zero() && now < conn.next_push {
            break;
        }
        let Some(event) = conn.sink.try_recv() else {
            break;
        };
        let FeedEvent {
            subscription,
            delta,
            lagged,
            cache,
            enqueued_ns,
        } = event;
        let metrics_on = telemetry::metrics_on();
        if metrics_on && enqueued_ns != 0 {
            let drained = telemetry::now_ns();
            let t = store.telemetry();
            t.push_drain_lag_ns
                .record(drained.saturating_sub(enqueued_ns));
            // End-to-end commit-to-push latency, anchored at the start
            // of the most recent commit. An approximation under
            // pipelining (a later commit may restamp the anchor), but
            // within one order of magnitude — which is what the
            // acceptance gate checks against BENCH_fanout.
            let anchor = t.last_commit_start.load(Ordering::Relaxed);
            if anchor != 0 {
                t.commit_to_push_ns.record(drained.saturating_sub(anchor));
            }
        }
        // Encode-once: the first outbox to deliver this event primes
        // the shared cache; everyone else reuses the same bytes.
        let bytes = match cache.get() {
            Some(bytes) => bytes,
            None => {
                let encode_started = (metrics_on || telemetry::trace_on()).then(Instant::now);
                let frame = match delta {
                    SubDelta::Intervals(delta) => Frame::Event {
                        subscription,
                        delta,
                        lagged,
                    },
                    SubDelta::Rows(delta) => Frame::RowEvent {
                        subscription,
                        delta,
                        lagged,
                    },
                };
                match encode_frame_bytes(&frame) {
                    Ok(bytes) => {
                        if let Some(t0) = encode_started {
                            let t = store.telemetry();
                            let dur_ns = t0.elapsed().as_nanos() as u64;
                            t.frames_encoded.inc();
                            t.frame_encode_ns.record(dur_ns);
                            t.trace_event(TraceEvent {
                                epoch: store.epoch(),
                                stage: TraceStage::FrameEncode,
                                share: 0,
                                detail: bytes.len() as u64,
                                dur_ns,
                            });
                        }
                        cache.prime(Arc::clone(&bytes));
                        bytes
                    }
                    Err(_) => return false,
                }
            }
        };
        conn.queue_bytes(bytes);
        conn.next_push = now + pacing;
    }
    true
}

/// Writes queued bytes until the socket would block or the queue
/// empties. Returns `false` on a transport error.
fn pump_socket_write(conn: &mut Conn) -> bool {
    while let Some(front) = conn.out.front() {
        match conn.stream.write(&front[conn.front_written..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.front_written += n;
                if conn.front_written == front.len() {
                    conn.out_bytes -= front.len();
                    conn.front_written = 0;
                    conn.out.pop_front();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Reads what is available chunk by chunk, handling each chunk's
/// complete frames ([`pump_frames`]) before the next read, and stops
/// once the queue passes [`OUT_HIGH_WATERMARK`] (one read always runs,
/// so an error or EOF is seen while paused too). Any transport or
/// protocol error (the stream cannot re-synchronize) flags the
/// connection `closing`.
fn pump_socket_read(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<Shared>,
    workers: &[mpsc::Sender<Job>],
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                pump_frames(conn, token, shared, workers);
                if conn.closing || conn.out_bytes >= OUT_HIGH_WATERMARK {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.closing = true;
                conn.out.clear();
                conn.out_bytes = 0;
                conn.front_written = 0;
                return;
            }
        }
    }
}

/// Pops and handles the complete buffered frames while the queue is
/// below [`OUT_HIGH_WATERMARK`]; the rest wait in `inbuf` for a write
/// to drain it.
fn pump_frames(conn: &mut Conn, token: u64, shared: &Arc<Shared>, workers: &[mpsc::Sender<Job>]) {
    while !conn.closing && conn.out_bytes < OUT_HIGH_WATERMARK {
        match pop_frame(&mut conn.inbuf) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                if on_frame(conn, frame, token, shared, workers).is_err() {
                    conn.closing = true;
                    // Protocol violation: don't flush a half-broken
                    // conversation, just drop the connection.
                    conn.out.clear();
                    conn.out_bytes = 0;
                    conn.front_written = 0;
                }
            }
            Err(_) => {
                conn.closing = true;
                conn.out.clear();
                conn.out_bytes = 0;
                conn.front_written = 0;
            }
        }
    }
}

/// Handles one decoded inbound frame: the version-gated handshake,
/// writes committed on the loop, request dispatch to the worker pool,
/// and the Bye farewell.
fn on_frame(
    conn: &mut Conn,
    frame: Frame,
    token: u64,
    shared: &Arc<Shared>,
    workers: &[mpsc::Sender<Job>],
) -> Result<(), ()> {
    if !conn.handshaken {
        return match frame {
            Frame::Hello { version } if version == WIRE_VERSION => {
                conn.handshaken = true;
                conn.next_push = Instant::now() + shared.config.event_pacing;
                conn.queue_frame(&Frame::Welcome {
                    version: WIRE_VERSION,
                    epoch: shared.server.store().epoch(),
                })
            }
            Frame::Hello { .. } => {
                let _ = conn.queue_frame(&Frame::Bye);
                conn.closing = true;
                Ok(())
            }
            _ => Err(()),
        };
    }
    match frame {
        // FOLLOW runs inline on the event loop, not on a worker: the
        // feed must attach *before* the catch-up read so the two spans
        // (catch-up from the log, live frames from the feed) overlap
        // rather than gap — the follower dedupes the overlap by only
        // applying epoch `current + 1`.
        Frame::Request {
            id,
            body: WireRequest::Follow { from_epoch },
        } => handle_follow(conn, id, from_epoch, shared),
        Frame::Request { id, body } => {
            // With nothing of this connection ahead of it on the pool, a
            // write commits here, and a statement that needs no engine
            // build — a parse error, a hot read — is answered here.
            let server = &shared.server;
            let store = server.store();
            let ahead = conn.on_pool > 0;
            let reply = |conn: &mut Conn, result| conn.queue_frame(&Frame::Response { id, result });
            let work = match body {
                WireRequest::Statement(text) => {
                    let parsed = parse_statement(&text);
                    match &parsed {
                        Err(pe) if !ahead => return reply(conn, Err(pe.render(&text))),
                        Ok(Statement::Select(query)) if !ahead => {
                            if let Some(out) = server.execute_cached(query) {
                                return reply(conn, Ok(out.into()));
                            }
                        }
                        _ => {}
                    }
                    Ok(Work::Statement { parsed, text })
                }
                WireRequest::Insert(tr) if !ahead => store.commit_insert(tr).map(Work::Maintain),
                WireRequest::Update(tr) if !ahead => Ok(Work::Maintain(store.commit_update(tr).1)),
                WireRequest::Remove(oid) if !ahead => store
                    .commit_remove(oid)
                    .map(|(_, maintenance)| Work::Maintain(maintenance)),
                body => Ok(Work::Request(body)),
            };
            let work = match work {
                Err(refused) => return reply(conn, Err(refused.to_string())),
                Ok(Work::Maintain(maintenance)) if maintenance.is_idle() => {
                    maintenance.run(store);
                    return reply(conn, Ok(WireOutput::Done));
                }
                Ok(work) => work,
            };
            conn.on_pool += 1;
            let job = Job {
                token,
                id,
                work,
                sink: Arc::clone(&conn.sink),
            };
            // Send only fails once the worker is gone (shutdown
            // teardown); a committed write's maintenance still runs.
            if let Err(mpsc::SendError(job)) =
                workers[(token % workers.len() as u64) as usize].send(job)
            {
                if let Work::Maintain(maintenance) = job.work {
                    maintenance.run(store);
                }
            }
            Ok(())
        }
        Frame::Bye => {
            let _ = conn.queue_frame(&Frame::Bye);
            conn.closing = true;
            Ok(())
        }
        _ => Err(()),
    }
}

/// Answers a `FOLLOW <epoch>` request and turns the connection into a
/// follower.
///
/// The feed is registered on the hub **first**; only then is the delta
/// log (or a snapshot) read. Any commit racing in between lands in
/// both the catch-up and the feed, and the follower applies each epoch
/// exactly once, so the union is gapless and the overlap harmless.
/// When the log no longer reaches back to `from_epoch` (overflow,
/// `clear`, or a fresh follower at epoch 0 against a non-empty log
/// floor), the reply is a full-state `Resync` instead; the live feed
/// picks up from the snapshot's epoch.
fn handle_follow(
    conn: &mut Conn,
    id: u64,
    from_epoch: u64,
    shared: &Arc<Shared>,
) -> Result<(), ()> {
    let store = shared.server.store();
    let feed = shared.hub.register(shared.config.outbox_capacity);
    conn.repl = Some(feed);
    match store.ops_since_cloned(from_epoch) {
        Some(records) => {
            conn.queue_frame(&Frame::Response {
                id,
                result: Ok(WireOutput::FollowOk { epoch: from_epoch }),
            })?;
            // One ReplDelta frame per commit: group the log's
            // per-op records by epoch.
            let mut current: Option<(u64, Vec<ReplOp>)> = None;
            for record in records {
                match &mut current {
                    Some((epoch, ops)) if *epoch == record.epoch => {
                        ops.push(ReplOp::from(&record.op));
                    }
                    _ => {
                        if let Some((epoch, ops)) = current.take() {
                            conn.queue_frame(&Frame::ReplDelta { epoch, ops })?;
                        }
                        current = Some((record.epoch, vec![ReplOp::from(&record.op)]));
                    }
                }
            }
            if let Some((epoch, ops)) = current.take() {
                conn.queue_frame(&Frame::ReplDelta { epoch, ops })?;
            }
            Ok(())
        }
        None => {
            let snap = store.snapshot();
            conn.queue_frame(&Frame::Response {
                id,
                result: Ok(WireOutput::Resync {
                    epoch: snap.epoch(),
                    objects: snap.to_vec(),
                }),
            })
        }
    }
}

/// Drains a follower's feed of pre-encoded `ReplDelta` frames into the
/// write queue, up to the byte watermark, surfacing one `ReplLagged`
/// notice per overflow. Returns `false` when the notice failed to
/// encode (never in practice; mirrors the other pumps' contract).
fn pump_follower(conn: &mut Conn) -> bool {
    let Some(feed) = &conn.repl else {
        return true;
    };
    if conn.closing {
        return true;
    }
    let feed = Arc::clone(feed);
    if let Some(epoch) = feed.take_lagged() {
        if conn.queue_frame(&Frame::ReplLagged { epoch }).is_err() {
            return false;
        }
    }
    while conn.out_bytes < OUT_HIGH_WATERMARK {
        match feed.try_recv() {
            Some(bytes) => conn.queue_bytes(bytes),
            None => break,
        }
    }
    true
}

/// The poll timeout: infinite unless some connection has outbox events
/// waiting out a pacing deadline, in which case the nearest deadline
/// bounds the sleep. Readiness and waker nudges cover everything else.
fn poll_timeout(conns: &HashMap<u64, Conn>, now: Instant, pacing: Duration) -> i32 {
    if pacing.is_zero() {
        return -1;
    }
    let mut nearest: Option<Instant> = None;
    for conn in conns.values() {
        if !conn.handshaken
            || conn.closing
            || conn.out_bytes >= OUT_HIGH_WATERMARK
            || conn.sink.is_empty()
        {
            continue;
        }
        if nearest.map_or(true, |t| conn.next_push < t) {
            nearest = Some(conn.next_push);
        }
    }
    match nearest {
        // +1ms so the deadline has passed when poll returns, instead
        // of busy-spinning on a rounded-down remainder.
        Some(t) => {
            (t.saturating_duration_since(now).as_millis() as i64 + 1).min(i32::MAX as i64) as i32
        }
        None => -1,
    }
}

/// The statement the unit tests send to make a worker job panic.
const INJECTED_PANIC: &str = "UNREGISTER injected_panic";

/// Executes a parsed statement against the wrapped [`ModServer`]. A
/// successful `REGISTER CONTINUOUS` additionally attaches this
/// connection's outbox to the new subscription (and `WATCH` attaches it
/// to an existing one), turning its deltas into pushed frames. `text`
/// renders the errors that point into the statement.
fn execute_statement(
    server: &ModServer,
    statement: Statement,
    text: &str,
    sink: &Arc<DeltaSink>,
) -> Result<WireOutput, String> {
    if cfg!(test) && text == INJECTED_PANIC {
        panic!("injected panic");
    }
    // The sink rides along so `REGISTER CONTINUOUS` attaches it
    // atomically with the registration — a commit landing right after
    // the registry insert already pushes to this connection.
    match server.execute_statement(statement, Some(sink)) {
        Ok(out) => Ok(out.into()),
        // Registration refusals carrying a span render their caret
        // against the statement, like parse errors do.
        Err(ServerError::Subscription(se @ SubscriptionError::Unsupported { .. })) => {
            Err(se.render(text))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Executes one non-statement request against the wrapped
/// [`ModServer`].
fn handle_request(shared: &Shared, body: WireRequest) -> Result<WireOutput, String> {
    let server = &shared.server;
    match body {
        WireRequest::Insert(tr) => server
            .register(tr)
            .map(|()| WireOutput::Done)
            .map_err(|e| e.to_string()),
        WireRequest::Update(tr) => {
            server.store().update(tr);
            Ok(WireOutput::Done)
        }
        WireRequest::Remove(oid) => server
            .store()
            .remove(oid)
            .map(|_| WireOutput::Done)
            .map_err(|e| e.to_string()),
        WireRequest::SubscriptionAnswer(name) => {
            // A lagged client resyncs from this full answer. The answer
            // and its epoch are read together under the share's lock,
            // so a commit whose round has not run yet is not in the base
            // and its delta, pushed later, folds onto it.
            server
                .subscription_registry()
                .answer_with_epoch(&name)
                .map(|(answer, epoch)| match answer {
                    SubAnswer::Intervals(answer) => WireOutput::Answer { epoch, answer },
                    SubAnswer::Rows(rows) => WireOutput::RowAnswer { epoch, rows },
                })
                .ok_or_else(|| format!("no subscription named '{name}'"))
        }
        // `on_frame` parses every statement and answers every `FOLLOW`
        // itself; neither reaches a worker as a request.
        WireRequest::Statement(_) | WireRequest::Follow { .. } => {
            Err("handled on the event loop".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetClient, NetError};

    /// `client.execute(statement)` on a helper thread: a response that
    /// never comes fails the calling test after 30 s instead of hanging
    /// it.
    fn execute_within_deadline(
        mut client: NetClient,
        statement: &'static str,
    ) -> (NetClient, Result<WireOutput, NetError>) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = client.execute(statement);
            let _ = tx.send((client, out));
        });
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("no response to {statement} within 30 s"))
    }

    /// A statement that panics on its worker is answered with an error,
    /// counted, and the same connection's next request is served.
    #[test]
    fn a_worker_panic_fails_one_request() {
        let net = NetServer::bind("127.0.0.1:0", Arc::new(ModServer::new())).unwrap();
        let client = NetClient::connect(net.local_addr()).unwrap();
        let panics = || net.shared.server.store().telemetry().server_panics.get();
        let before = panics();
        let (client, out) = execute_within_deadline(client, INJECTED_PANIC);
        match out {
            Err(NetError::Server(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected an error response, got {other:?}"),
        }
        assert_eq!(panics(), before + 1);
        let (client, out) = execute_within_deadline(client, "SHOW SUBSCRIPTIONS");
        assert!(matches!(out.unwrap(), WireOutput::Subscriptions(infos) if infos.is_empty()));
        client.close().unwrap();
        net.shutdown();
    }
}
