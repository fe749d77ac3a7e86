//! The framed-TCP client: a blocking, single-threaded [`NetClient`]
//! used by `unn-cli connect`, the loopback tests, and the push-fan-out
//! bench.
//!
//! The client multiplexes two streams over one socket: request/response
//! pairs (correlated by id) and unsolicited [`Frame::Event`] pushes.
//! Events arriving while a response is awaited are buffered and handed
//! out later by [`NetClient::next_event`] — which **blocks on the
//! socket** (optionally with a timeout) instead of polling, so a
//! `watch` consumer wakes exactly when a delta lands. Timeouts never
//! desynchronize the stream: partially received frames are kept in an
//! internal buffer and completed by the next read.

use crate::delta::ReplOp;
use crate::server::ModServer;
use crate::subscription::{FeedEvent, FrameCache, SubAnswer, SubDelta};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unn_core::answer::AnswerSet;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

use super::wire::{
    pop_frame, write_frame, Frame, WireError, WireOutput, WireRequest, WIRE_VERSION,
};

/// Errors raised by [`NetClient`] operations.
#[derive(Debug)]
pub enum NetError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server executed the request and reported an error.
    Server(String),
    /// The peer closed the connection (clean `Bye` or EOF).
    Closed,
    /// The peer violated the protocol (unexpected frame).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::Server(m) => write!(f, "server error: {m}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Wire(WireError::Io(e))
    }
}

/// One replication notification received over a following connection.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplEvent {
    /// One leader commit, verbatim.
    Delta {
        /// The commit's epoch on the leader.
        epoch: u64,
        /// The commit's ops.
        ops: Vec<ReplOp>,
    },
    /// The leader dropped this follower's pending frames (feed
    /// overflow or an unshippable commit); the epoch chain has a gap
    /// and the follower must re-`FOLLOW` from its current epoch.
    Lagged {
        /// The leader's epoch when the overflow happened.
        epoch: u64,
    },
}

/// How the server answered a `FOLLOW <epoch>` request.
#[derive(Debug, Clone, PartialEq)]
pub enum FollowStart {
    /// The delta log reaches back to the requested epoch: every commit
    /// after it arrives as a [`ReplEvent::Delta`] — nothing to restore.
    Continue {
        /// The epoch the stream continues from (the requested one).
        epoch: u64,
    },
    /// The log does not reach back that far: full state at `epoch`,
    /// to restore before applying streamed deltas.
    Resync {
        /// The epoch of the transferred state.
        epoch: u64,
        /// The complete contents, ascending by oid.
        objects: Vec<UncertainTrajectory>,
    },
}

/// A connected client session.
///
/// The full loop — connect, register a standing query, commit a
/// mutation from a second connection, receive the pushed delta:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use unn_modb::net::{NetClient, NetServer, WireOutput};
/// use unn_modb::server::ModServer;
/// use unn_modb::subscription::FeedEvent;
/// use unn_traj::trajectory::{Oid, Trajectory};
/// use unn_traj::uncertain::UncertainTrajectory;
///
/// fn tr(oid: u64, y: f64) -> UncertainTrajectory {
///     UncertainTrajectory::with_uniform_pdf(
///         Trajectory::from_triples(Oid(oid), &[(0.0, y, 0.0), (10.0, y, 60.0)]).unwrap(),
///         0.5,
///     )
///     .unwrap()
/// }
///
/// let server = Arc::new(ModServer::new());
/// server.register_all([tr(0, 0.0), tr(1, 1.0)]).unwrap();
/// let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).unwrap();
///
/// let mut watcher = NetClient::connect(net.local_addr()).unwrap();
/// let out = watcher
///     .execute(
///         "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
///          AND PROB_NN(*, Tr0, TIME) > 0 AS near0",
///     )
///     .unwrap();
/// assert!(matches!(out, WireOutput::Registered(_)));
///
/// // A second connection commits an in-band object ...
/// let mut writer = NetClient::connect(net.local_addr()).unwrap();
/// writer.insert(tr(7, 0.4)).unwrap();
///
/// // ... and the watcher receives the answer delta as a pushed event.
/// let event: FeedEvent = watcher
///     .next_event(Some(Duration::from_secs(10)))
///     .unwrap()
///     .expect("a delta is pushed");
/// assert_eq!(event.subscription, "near0");
/// assert!(!event.lagged);
///
/// watcher.close().unwrap();
/// writer.close().unwrap();
/// net.shutdown();
/// ```
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    /// Bytes of a frame still in flight (partial reads under timeouts).
    partial: Vec<u8>,
    next_id: u64,
    /// Pushed events received while a response was being awaited.
    buffered: VecDeque<FeedEvent>,
    /// Replication frames received while something else was awaited.
    buffered_repl: VecDeque<ReplEvent>,
    server_epoch: u64,
}

impl NetClient {
    /// Connects and performs the version handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = NetClient {
            stream,
            partial: Vec::new(),
            next_id: 1,
            buffered: VecDeque::new(),
            buffered_repl: VecDeque::new(),
            server_epoch: 0,
        };
        write_frame(
            &mut client.stream,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )?;
        match client.recv_blocking()? {
            Frame::Welcome { version, epoch } if version == WIRE_VERSION => {
                client.server_epoch = epoch;
                Ok(client)
            }
            Frame::Welcome { version, .. } => {
                Err(NetError::Wire(WireError::Version { got: version }))
            }
            Frame::Bye => Err(NetError::Closed),
            other => Err(NetError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    }

    /// The store epoch the server reported at connect time.
    pub fn server_epoch(&self) -> u64 {
        self.server_epoch
    }

    /// Executes a query-language statement on the server. `REGISTER
    /// CONTINUOUS … AS name` additionally attaches this connection's
    /// outbox to the subscription: its deltas arrive as pushed events.
    pub fn execute(&mut self, statement: &str) -> Result<WireOutput, NetError> {
        self.request(WireRequest::Statement(statement.to_string()))
    }

    /// Registers a trajectory on the server.
    pub fn insert(&mut self, tr: UncertainTrajectory) -> Result<(), NetError> {
        self.request(WireRequest::Insert(tr)).map(|_| ())
    }

    /// Registers-or-replaces a trajectory under one commit.
    pub fn update(&mut self, tr: UncertainTrajectory) -> Result<(), NetError> {
        self.request(WireRequest::Update(tr)).map(|_| ())
    }

    /// Unregisters an object.
    pub fn remove(&mut self, oid: Oid) -> Result<(), NetError> {
        self.request(WireRequest::Remove(oid)).map(|_| ())
    }

    /// Fetches a subscription's full maintained answer and the epoch it
    /// is current at — the resync point after a `lagged` event: discard
    /// buffered deltas with `epoch <= answer epoch`, fold the rest.
    /// Interval subscriptions answer with [`SubAnswer::Intervals`],
    /// threshold/reverse ones with [`SubAnswer::Rows`].
    pub fn subscription_answer(&mut self, name: &str) -> Result<(SubAnswer, u64), NetError> {
        match self.request(WireRequest::SubscriptionAnswer(name.to_string()))? {
            WireOutput::Answer { epoch, answer } => Ok((SubAnswer::Intervals(answer), epoch)),
            WireOutput::RowAnswer { epoch, rows } => Ok((SubAnswer::Rows(rows), epoch)),
            other => Err(NetError::Protocol(format!(
                "expected Answer, got {other:?}"
            ))),
        }
    }

    /// [`NetClient::subscription_answer`] narrowed to an interval
    /// subscription (protocol error when the server answers with rows).
    pub fn subscription_intervals(&mut self, name: &str) -> Result<(AnswerSet, u64), NetError> {
        match self.subscription_answer(name)? {
            (SubAnswer::Intervals(answer), epoch) => Ok((answer, epoch)),
            (SubAnswer::Rows(_), _) => Err(NetError::Protocol(
                "expected an interval answer, got probability rows".to_string(),
            )),
        }
    }

    /// The next pushed event: a buffered one if any, otherwise **blocks
    /// on the socket** until an event lands, the timeout expires
    /// (`Ok(None)`), or the peer closes. `None` timeout blocks
    /// indefinitely. A timeout mid-frame keeps the partial bytes, so the
    /// stream stays synchronized.
    pub fn next_event(&mut self, timeout: Option<Duration>) -> Result<Option<FeedEvent>, NetError> {
        if let Some(ev) = self.buffered.pop_front() {
            return Ok(Some(ev));
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match self.recv_deadline(deadline)? {
                None => return Ok(None),
                Some(Frame::Event {
                    subscription,
                    delta,
                    lagged,
                }) => {
                    return Ok(Some(FeedEvent {
                        subscription,
                        delta: SubDelta::Intervals(delta),
                        lagged,
                        cache: FrameCache::default(),
                        // Client-side events have no local outbox enqueue
                        // stamp; drain-lag is a server-side measurement.
                        enqueued_ns: 0,
                    }));
                }
                Some(Frame::RowEvent {
                    subscription,
                    delta,
                    lagged,
                }) => {
                    return Ok(Some(FeedEvent {
                        subscription,
                        delta: SubDelta::Rows(delta),
                        lagged,
                        cache: FrameCache::default(),
                        // Client-side events have no local outbox enqueue
                        // stamp; drain-lag is a server-side measurement.
                        enqueued_ns: 0,
                    }));
                }
                // A following connection can interleave replication
                // frames with pushed events; hold them for
                // `next_replication`.
                Some(Frame::ReplDelta { epoch, ops }) => self
                    .buffered_repl
                    .push_back(ReplEvent::Delta { epoch, ops }),
                Some(Frame::ReplLagged { epoch }) => {
                    self.buffered_repl.push_back(ReplEvent::Lagged { epoch })
                }
                Some(Frame::Bye) => return Err(NetError::Closed),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected frame while idle: {other:?}"
                    )))
                }
            }
        }
    }

    /// The next replication notification on a following connection: a
    /// buffered one if any, otherwise blocks on the socket like
    /// [`NetClient::next_event`] (`Ok(None)` on timeout). Pushed
    /// subscription events arriving in between are buffered for
    /// [`NetClient::next_event`].
    pub fn next_replication(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<ReplEvent>, NetError> {
        if let Some(ev) = self.buffered_repl.pop_front() {
            return Ok(Some(ev));
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match self.recv_deadline(deadline)? {
                None => return Ok(None),
                Some(Frame::ReplDelta { epoch, ops }) => {
                    return Ok(Some(ReplEvent::Delta { epoch, ops }))
                }
                Some(Frame::ReplLagged { epoch }) => return Ok(Some(ReplEvent::Lagged { epoch })),
                Some(Frame::Event {
                    subscription,
                    delta,
                    lagged,
                }) => self.buffered.push_back(FeedEvent {
                    subscription,
                    delta: SubDelta::Intervals(delta),
                    lagged,
                    cache: FrameCache::default(),
                    // Client-side events have no local outbox enqueue
                    // stamp; drain-lag is a server-side measurement.
                    enqueued_ns: 0,
                }),
                Some(Frame::RowEvent {
                    subscription,
                    delta,
                    lagged,
                }) => self.buffered.push_back(FeedEvent {
                    subscription,
                    delta: SubDelta::Rows(delta),
                    lagged,
                    cache: FrameCache::default(),
                    // Client-side events have no local outbox enqueue
                    // stamp; drain-lag is a server-side measurement.
                    enqueued_ns: 0,
                }),
                Some(Frame::Bye) => return Err(NetError::Closed),
                Some(other) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected frame while following: {other:?}"
                    )))
                }
            }
        }
    }

    /// Starts (or restarts) replication on this connection: asks the
    /// server to stream every commit after `from_epoch`. The answer is
    /// either a confirmation that the stream continues from there, or
    /// a full-state resync when the leader's log no longer reaches
    /// back that far (see [`FollowStart`]); either way, subsequent
    /// commits arrive via [`NetClient::next_replication`].
    pub fn follow(&mut self, from_epoch: u64) -> Result<FollowStart, NetError> {
        match self.request(WireRequest::Follow { from_epoch })? {
            WireOutput::FollowOk { epoch } => Ok(FollowStart::Continue { epoch }),
            WireOutput::Resync { epoch, objects } => Ok(FollowStart::Resync { epoch, objects }),
            other => Err(NetError::Protocol(format!(
                "expected FollowOk or Resync, got {other:?}"
            ))),
        }
    }

    /// Closes the session cleanly: sends `Bye` and drains until the
    /// server acknowledges (or the socket closes).
    pub fn close(mut self) -> Result<(), NetError> {
        write_frame(&mut self.stream, &Frame::Bye)?;
        loop {
            match self.recv_blocking() {
                Ok(Frame::Bye) => break,
                // In-flight pushes and replication frames.
                Ok(Frame::Event { .. })
                | Ok(Frame::RowEvent { .. })
                | Ok(Frame::ReplDelta { .. })
                | Ok(Frame::ReplLagged { .. }) => continue,
                Ok(other) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected frame during close: {other:?}"
                    )))
                }
                Err(NetError::Wire(WireError::Io(_))) | Err(NetError::Closed) => break,
                Err(e) => return Err(e),
            }
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        Ok(())
    }

    /// Sends one request and blocks until its response arrives, buffering
    /// any events pushed in between.
    fn request(&mut self, body: WireRequest) -> Result<WireOutput, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &Frame::Request { id, body })?;
        loop {
            match self.recv_blocking()? {
                Frame::Response { id: rid, result } if rid == id => {
                    return result.map_err(NetError::Server)
                }
                Frame::Event {
                    subscription,
                    delta,
                    lagged,
                } => self.buffered.push_back(FeedEvent {
                    subscription,
                    delta: SubDelta::Intervals(delta),
                    lagged,
                    cache: FrameCache::default(),
                    // Client-side events have no local outbox enqueue
                    // stamp; drain-lag is a server-side measurement.
                    enqueued_ns: 0,
                }),
                Frame::RowEvent {
                    subscription,
                    delta,
                    lagged,
                } => self.buffered.push_back(FeedEvent {
                    subscription,
                    delta: SubDelta::Rows(delta),
                    lagged,
                    cache: FrameCache::default(),
                    // Client-side events have no local outbox enqueue
                    // stamp; drain-lag is a server-side measurement.
                    enqueued_ns: 0,
                }),
                Frame::ReplDelta { epoch, ops } => self
                    .buffered_repl
                    .push_back(ReplEvent::Delta { epoch, ops }),
                Frame::ReplLagged { epoch } => {
                    self.buffered_repl.push_back(ReplEvent::Lagged { epoch })
                }
                Frame::Bye => return Err(NetError::Closed),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected frame awaiting response {id}: {other:?}"
                    )))
                }
            }
        }
    }

    fn recv_blocking(&mut self) -> Result<Frame, NetError> {
        Ok(self
            .recv_deadline(None)?
            .expect("deadline-free receive always yields a frame"))
    }

    /// Reads one frame, accumulating partial bytes across timeouts.
    fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<Option<Frame>, NetError> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = pop_frame(&mut self.partial)? {
                return Ok(Some(frame));
            }
            match deadline {
                None => self.stream.set_read_timeout(None)?,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Ok(None);
                    }
                    // set_read_timeout(Some(ZERO)) is an error; the
                    // deadline check above keeps the remainder positive.
                    self.stream.set_read_timeout(Some(d - now))?;
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.partial.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// A live read replica: a [`NetClient`] following a leader plus a
/// local [`ModServer`] mirroring it commit for commit.
///
/// [`Follower::connect`] bootstraps the mirror (catch-up stream or
/// snapshot resync, the leader decides), and each [`Follower::pump`]
/// applies the next streamed commit through
/// [`crate::store::ModStore::apply_replicated`] — the normal commit
/// path, so standing queries registered on [`Follower::server`] are
/// maintained exactly as they would be on the leader, and one-shot
/// answers at a given epoch are bit-identical to the leader's at the
/// same epoch.
///
/// Lag is self-healing: on a [`ReplEvent::Lagged`] notice or an epoch
/// gap, the follower re-`FOLLOW`s from its current epoch; the leader
/// answers with the missing span when its log still covers it, or a
/// snapshot resync (applied via [`crate::store::ModStore::restore`],
/// which keeps local standing-query registrations alive) when not.
#[derive(Debug)]
pub struct Follower {
    client: NetClient,
    server: Arc<ModServer>,
}

impl Follower {
    /// Connects to a leader and bootstraps the local mirror from
    /// epoch 0 (catch-up when the leader's log covers its whole
    /// history, snapshot resync otherwise).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Follower, NetError> {
        let client = NetClient::connect(addr)?;
        let mut follower = Follower {
            client,
            server: Arc::new(ModServer::new()),
        };
        follower.refollow(0)?;
        Ok(follower)
    }

    /// The local mirror. Serve reads and register standing queries
    /// here; keep calling [`Follower::pump`] to track the leader.
    pub fn server(&self) -> &Arc<ModServer> {
        &self.server
    }

    /// The epoch the mirror has applied up to.
    pub fn epoch(&self) -> u64 {
        self.server.store().epoch()
    }

    fn refollow(&mut self, from: u64) -> Result<(), NetError> {
        match self.client.follow(from)? {
            FollowStart::Continue { .. } => {}
            FollowStart::Resync { epoch, objects } => {
                let objects = objects.into_iter().map(Arc::new).collect();
                self.server.store().restore(objects, epoch);
            }
        }
        Ok(())
    }

    /// Processes the next replication notification: applies a delta
    /// when it is exactly the mirror's next epoch, skips catch-up
    /// duplicates, and re-`FOLLOW`s on a gap or lag notice. Returns
    /// `Ok(false)` when the timeout passed with nothing to process.
    pub fn pump(&mut self, timeout: Option<Duration>) -> Result<bool, NetError> {
        match self.client.next_replication(timeout)? {
            None => Ok(false),
            Some(ReplEvent::Delta { epoch, ops }) => {
                let current = self.server.store().epoch();
                if epoch == current + 1 {
                    self.server.store().apply_replicated(&ops);
                } else if epoch > current + 1 {
                    // A gap means frames were lost (e.g. queued behind
                    // a lag drop); restart the stream from where the
                    // mirror actually is.
                    self.refollow(current)?;
                }
                // epoch <= current: overlap between catch-up and the
                // live feed — already applied.
                Ok(true)
            }
            Some(ReplEvent::Lagged { .. }) => {
                let current = self.server.store().epoch();
                self.refollow(current)?;
                Ok(true)
            }
        }
    }

    /// Pumps until the mirror reaches `epoch` (or the deadline runs
    /// out, a protocol error).
    pub fn sync_to(&mut self, epoch: u64, timeout: Duration) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        while self.epoch() < epoch {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Protocol(format!(
                    "follower stalled at epoch {} awaiting {epoch}",
                    self.epoch()
                )));
            }
            self.pump(Some(deadline - now))?;
        }
        Ok(())
    }

    /// Closes the replication session; the local mirror stays usable
    /// (frozen at its last applied epoch).
    pub fn close(self) -> Result<(), NetError> {
        self.client.close()
    }
}
