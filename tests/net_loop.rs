//! Where the network server runs a request, seen from its sockets: a
//! write whose maintenance is idle is committed and acknowledged on the
//! event loop, one that owes a share visit or a checkpoint is finished
//! on the connection's worker — and either way an ack means the
//! commit's round is counted and its due checkpoint installed, and one
//! connection's responses arrive in request order. A `SELECT` whose
//! engine is cached or carries is answered on the loop too: with the
//! same bits and the same cache counters as in-process execution.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uncertain_nn::modb::durability::{open_store, WalOptions};
use uncertain_nn::modb::net::wire::{encode_frame_bytes, pop_frame, WireError};
use uncertain_nn::modb::net::{Frame, NetClient, NetServer, WireOutput, WireRequest, WIRE_VERSION};
use uncertain_nn::modb::ql::parse_statement;
use uncertain_nn::modb::subscription::SubscriptionStats;
use uncertain_nn::prelude::*;

const WINDOW: (f64, f64) = (0.0, 60.0);
/// The far object: beyond every guard box, so moving it visits no share.
const FAR: u64 = 900;

fn straight(oid: u64, y: f64) -> UncertainTrajectory {
    UncertainTrajectory::with_uniform_pdf(
        Trajectory::from_triples(Oid(oid), &[(0.0, y, WINDOW.0), (30.0, y, WINDOW.1)]).unwrap(),
        0.5,
    )
    .unwrap()
}

/// A query object `Tr0` and `crowd` more objects strung out beside it
/// 0.02 mi apart, plus the far object.
fn crowded_server(crowd: u64) -> Arc<ModServer> {
    let server = ModServer::new();
    server
        .register_all(
            (0..=crowd)
                .map(|oid| straight(oid, oid as f64 * 0.02))
                .chain([straight(FAR, 70_000.0)]),
        )
        .unwrap();
    Arc::new(server)
}

/// A threshold standing query on `Tr0`: a commit moving a crowd member
/// re-evaluates probability rows — a slow round. One
/// far write follows: a fresh registry's first round re-checks the
/// whole logged history, the fleet load included, and visits.
fn register_rows(server: &ModServer, name: &str) {
    server
        .subscribe(
            name,
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0.3",
        )
        .expect("registers");
    server.store().update(far_update(0));
}

fn near_update(step: u64) -> UncertainTrajectory {
    straight(1, 0.25 + step as f64 * 0.01)
}

fn far_update(step: u64) -> UncertainTrajectory {
    straight(FAR, 70_000.0 + step as f64)
}

fn stats(server: &ModServer, name: &str) -> SubscriptionStats {
    server
        .subscription_registry()
        .info(name)
        .expect("registered")
        .stats
}

/// The next frame on a raw connection, blocking until it is whole: its
/// length prefix, then exactly its payload, split by the ends' own
/// splitter.
fn next_frame(stream: &mut TcpStream) -> Result<Frame, WireError> {
    let mut buf = vec![0; 4];
    stream.read_exact(&mut buf)?;
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    buf.resize(4 + len, 0);
    stream.read_exact(&mut buf[4..])?;
    Ok(pop_frame(&mut buf)?.expect("a whole frame"))
}

/// A raw handshaken connection, for pipelining requests without
/// waiting on their responses.
fn raw_connection(server: &NetServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .write_all(
            &encode_frame_bytes(&Frame::Hello {
                version: WIRE_VERSION,
            })
            .unwrap(),
        )
        .unwrap();
    match next_frame(&mut stream).expect("welcome") {
        Frame::Welcome { .. } => stream,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// A near write whose round is slow, then a far write and a `SELECT`,
/// sent back to back on one connection: the far write, which alone
/// would be acked on the loop, waits behind the near one, and the
/// three responses arrive in request order.
#[test]
fn pipelined_responses_keep_request_order() {
    let server = crowded_server(40);
    register_rows(&server, "rows");
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut stream = raw_connection(&net);
    let requests = [
        WireRequest::Update(near_update(1)),
        WireRequest::Update(far_update(1)),
        WireRequest::Statement(
            "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0"
                .to_string(),
        ),
    ];
    let mut bytes = Vec::new();
    for (id, body) in (1..).zip(requests) {
        bytes.extend_from_slice(&encode_frame_bytes(&Frame::Request { id, body }).unwrap());
    }
    stream.write_all(&bytes).unwrap();
    let mut answered = Vec::new();
    while answered.len() < 3 {
        match next_frame(&mut stream).expect("response") {
            Frame::Response { id, result } => answered.push((id, result)),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let ids: Vec<u64> = answered.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [1, 2, 3]);
    assert_eq!(answered[0].1, Ok(WireOutput::Done));
    assert_eq!(answered[1].1, Ok(WireOutput::Done));
    assert!(
        matches!(answered[2].1, Ok(WireOutput::Objects(_))),
        "{:?}",
        answered[2]
    );
    net.shutdown();
}

/// Connection A's near write owes a slow round; connection B's far
/// write, sent once A's commit is visible, is acked first — it never
/// queues behind A's round.
#[test]
fn a_far_ack_does_not_wait_for_another_connections_round() {
    let server = crowded_server(40);
    register_rows(&server, "rows");
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut a = NetClient::connect(net.local_addr()).expect("A connects");
    let mut b = NetClient::connect(net.local_addr()).expect("B connects");
    let before = server.store().epoch();
    let slow = std::thread::spawn(move || {
        a.update(near_update(1)).expect("near update");
        Instant::now()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.store().epoch() == before {
        assert!(Instant::now() < deadline, "A's commit never landed");
        std::thread::yield_now();
    }
    b.update(far_update(1)).expect("far update");
    let far_acked = Instant::now();
    let near_acked = slow.join().expect("A's writer");
    assert!(
        far_acked < near_acked,
        "B's far ack waited for A's round ({:?} after it)",
        far_acked - near_acked
    );
    net.shutdown();
}

/// After either kind of ack — an idle round finished on the loop, a
/// visiting round shipped to a worker — the registry already counts
/// the commit's round.
#[test]
fn an_ack_follows_its_counted_round() {
    let server = crowded_server(20);
    register_rows(&server, "rows");
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut client = NetClient::connect(net.local_addr()).expect("connects");
    for step in 1..=3 {
        let was = stats(&server, "rows");
        client.update(far_update(step)).expect("far update");
        let now = stats(&server, "rows");
        assert_eq!(now.skipped_unvisited, was.skipped_unvisited + 1, "{now:?}");
        assert_eq!(now.visited, was.visited, "{now:?}");

        let was = now;
        client.update(near_update(step)).expect("near update");
        let now = stats(&server, "rows");
        assert_eq!(now.skipped_unvisited, was.skipped_unvisited, "{now:?}");
        assert_eq!(
            now.skipped + now.patched + now.rebuilt,
            was.skipped + was.patched + was.rebuilt + 1,
            "{now:?}"
        );
        assert_eq!(
            server
                .subscription_registry()
                .info("rows")
                .unwrap()
                .last_epoch,
            server.store().epoch()
        );
    }
    client.close().unwrap();
    net.shutdown();
}

/// Under a checkpoint cadence of one commit, every write owes a
/// checkpoint: when its ack arrives, the image of its epoch is
/// installed.
#[test]
fn an_ack_follows_its_due_checkpoint() {
    let dir = std::env::temp_dir().join(format!("unn-net-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = WalOptions {
        checkpoint_every: 1,
        ..WalOptions::default()
    };
    let (store, _wal, _report) = open_store(&dir, options).expect("opens");
    let server = Arc::new(ModServer::with_store(store));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut client = NetClient::connect(net.local_addr()).expect("connects");
    let status = || server.store().wal_status().expect("a WAL is attached");
    for step in 0..4 {
        client.insert(straight(step, step as f64)).expect("insert");
        assert_eq!(status().checkpoint_epoch, server.store().epoch());
    }
    client.update(straight(0, 9.0)).expect("update");
    assert_eq!(status().checkpoint_epoch, server.store().epoch());
    client.remove(Oid(1)).expect("remove");
    assert_eq!(status().checkpoint_epoch, server.store().epoch());
    assert_eq!(status().checkpoints, 6);
    client.close().unwrap();
    net.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The whole-MOD `EXISTS` query on `Tr0`.
const HOT: &str = "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0";

/// The engine cache's `[hits, carried, misses]` counters.
fn cache_counts(server: &ModServer) -> [u64; 3] {
    let snap = server.metrics_snapshot(Some("cache_"));
    [
        "cache_hits_total",
        "cache_carried_total",
        "cache_misses_total",
    ]
    .map(|name| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    })
}

/// A `SELECT` answer with every fraction as its bits.
#[derive(Debug, PartialEq)]
enum Bits {
    Boolean(bool),
    Rows(Vec<(Oid, u64)>),
}

fn row_bits(rows: Vec<(Oid, f64)>) -> Bits {
    Bits::Rows(rows.into_iter().map(|(o, f)| (o, f.to_bits())).collect())
}

fn wire_bits(out: WireOutput) -> Bits {
    match out {
        WireOutput::Boolean(b) => Bits::Boolean(b),
        WireOutput::Objects(rows) => row_bits(rows),
        other => panic!("not a SELECT answer: {other:?}"),
    }
}

fn local_bits(out: QueryOutput) -> Bits {
    match out {
        QueryOutput::Boolean(b) => Bits::Boolean(b),
        QueryOutput::Objects(rows) => row_bits(rows),
        other => panic!("not a SELECT answer: {other:?}"),
    }
}

/// Every quantifier over every object and over one object — an answer
/// object in the band and the far one the prefilter drops — answered
/// on the loop at a hit and after a far write (a carry), each equal to
/// `ModServer::execute`'s on a mirror given the same writes, bit for
/// bit.
#[test]
fn loop_answers_equal_in_process_execution_bit_for_bit() {
    let server = crowded_server(20);
    let mirror = crowded_server(20);
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut client = NetClient::connect(net.local_addr()).expect("connects");
    let mut statements = Vec::new();
    for quantifier in ["EXISTS", "FORALL", "ATLEAST 0.5 OF", "AT 30"] {
        for target in ["*", "Tr3", "Tr900"] {
            statements.push(format!(
                "SELECT {target} FROM MOD WHERE {quantifier} TIME IN [0, 60] \
                 AND PROB_NN({target}, Tr0, TIME) > 0"
            ));
        }
    }
    // One engine serves them all; the first read builds it on a worker.
    client.execute(&statements[0]).expect("builds");
    for carry in [false, true] {
        if carry {
            client.update(far_update(1)).expect("far update");
            mirror.store().update(far_update(1));
        }
        let before = cache_counts(&server);
        for statement in &statements {
            let wire = wire_bits(client.execute(statement).expect("answers"));
            let local = local_bits(mirror.execute(statement).expect("executes"));
            assert_eq!(wire, local, "carry {carry}: {statement}");
        }
        let after = cache_counts(&server);
        let n = statements.len() as u64;
        assert_eq!(
            after,
            [before[0] + n, before[1] + u64::from(carry), before[2]],
            "carry {carry}"
        );
    }
    client.close().unwrap();
    net.shutdown();
}

/// One step of the cache-counter script.
enum Step {
    Read,
    Write(UncertainTrajectory),
}

/// Miss, hit, far write, carry, a near write that fails the carry
/// proof, miss — run over the wire and in process: the cache counters
/// end equal.
#[test]
fn loop_hits_count_like_in_process_execution() {
    let script = [
        Step::Read,
        Step::Read,
        Step::Write(far_update(1)),
        Step::Read,
        Step::Write(near_update(1)),
        Step::Read,
    ];
    let wired = crowded_server(20);
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&wired)).expect("binds");
    let mut client = NetClient::connect(net.local_addr()).expect("connects");
    let local = crowded_server(20);
    for step in &script {
        match step {
            Step::Read => {
                client.execute(HOT).expect("answers over the wire");
                local.execute(HOT).expect("executes");
            }
            Step::Write(tr) => {
                client.update(tr.clone()).expect("update over the wire");
                local.store().update(tr.clone());
            }
        }
    }
    assert_eq!(cache_counts(&local), [2, 1, 2]);
    assert_eq!(cache_counts(&wired), cache_counts(&local));
    client.close().unwrap();
    net.shutdown();
}

/// A hot `SELECT` and a statement that fails to parse, pipelined behind
/// a `REGISTER` of a threshold share on one connection: neither is
/// answered ahead of the registration, which runs on a worker.
#[test]
fn a_hot_select_behind_its_connections_pool_job_waits_for_it() {
    let server = crowded_server(40);
    server.execute(HOT).expect("warms the engine");
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut stream = raw_connection(&net);
    let bogus = "SELECT * FROM MOD WHERE SOMETIMES";
    let requests = [
        "REGISTER CONTINUOUS SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] \
         AND PROB_NN(*, Tr0, TIME) > 0.3 AS rows"
            .to_string(),
        HOT.to_string(),
        bogus.to_string(),
    ];
    let mut bytes = Vec::new();
    for (id, statement) in (1..).zip(requests) {
        let body = WireRequest::Statement(statement);
        bytes.extend_from_slice(&encode_frame_bytes(&Frame::Request { id, body }).unwrap());
    }
    let before = cache_counts(&server);
    stream.write_all(&bytes).unwrap();
    let mut answered = Vec::new();
    while answered.len() < 3 {
        match next_frame(&mut stream).expect("response") {
            Frame::Response { id, result } => answered.push((id, result)),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let ids: Vec<u64> = answered.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [1, 2, 3]);
    assert!(
        matches!(&answered[0].1, Ok(WireOutput::Registered(info)) if info.name == "rows"),
        "{:?}",
        answered[0]
    );
    assert!(
        matches!(answered[1].1, Ok(WireOutput::Objects(_))),
        "{:?}",
        answered[1]
    );
    let caret = parse_statement(bogus).unwrap_err().render(bogus);
    assert_eq!(answered[2].1, Err(caret));
    let after = cache_counts(&server);
    assert_eq!(after, [before[0] + 1, before[1], before[2]], "one hit");
    net.shutdown();
}

/// A statement that fails to parse is answered on the loop with the
/// caret rendering the worker gave it: the error line, the statement,
/// and a caret under the offending token.
#[test]
fn a_parse_error_over_the_wire_renders_its_caret() {
    let server = crowded_server(2);
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut client = NetClient::connect(net.local_addr()).expect("connects");
    for bogus in [
        "SELECT * FROM MOD WHERE SOMETIMES",
        "SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) >",
        "SELEKT * FROM MOD",
    ] {
        let caret = parse_statement(bogus).unwrap_err().render(bogus);
        assert!(caret.contains(bogus) && caret.contains('^'), "{caret}");
        match client.execute(bogus) {
            Err(uncertain_nn::modb::net::NetError::Server(message)) => {
                assert_eq!(message, caret)
            }
            other => panic!("{bogus}: expected a server error, got {other:?}"),
        }
    }
    // The connection stays usable.
    assert!(matches!(
        client.execute(HOT).expect("answers"),
        WireOutput::Objects(_)
    ));
    client.close().unwrap();
    net.shutdown();
}

/// The loop's count of read pauses (`net_read_paused_total`).
fn read_pauses(server: &ModServer) -> u64 {
    server
        .metrics_snapshot(Some("net_read_paused"))
        .counters
        .iter()
        .find(|(n, _)| n == "net_read_paused_total")
        .map_or(0, |(_, v)| *v)
}

/// Reads the responses to requests `ids`, in order, each equal to the
/// in-process answer `expected`.
fn read_answers(stream: &mut TcpStream, ids: std::ops::RangeInclusive<u64>, expected: &Bits) {
    for id in ids {
        match next_frame(stream).expect("response") {
            Frame::Response { id: got, result } => {
                assert_eq!(got, id, "responses in request order");
                assert_eq!(&wire_bits(result.expect("answers")), expected, "id {id}");
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// A peer that sends `SELECT`s and never reads: once its queued
/// responses pass the loop's watermark the loop stops reading it, so
/// the peer's own writes block instead of the server buffering without
/// bound. The pause is counted, and once the peer reads, every request
/// it sent is answered, in order, with the in-process answer. Then a
/// burst that one read takes whole: the loop stops with requests still
/// buffered and nothing more arriving, so only a write draining the
/// queue can resume them.
#[test]
fn a_peer_that_never_reads_is_paused_then_answered_in_order() {
    // Every object lies in Tr0's band, so each answer lists all 700
    // (about 11 KB).
    let server = ModServer::new();
    server
        .register_all((0..700).map(|oid| straight(oid, oid as f64 * 0.001)))
        .unwrap();
    let server = Arc::new(server);
    let expected = local_bits(server.execute(HOT).expect("warms the engine"));
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("binds");
    let mut stream = raw_connection(&net);
    let before = read_pauses(&server);
    // Padding fills the socket buffers after fewer requests.
    let statement = format!("{HOT}{}", " ".repeat(8 * 1024));
    let request = |id: u64, statement: &str| {
        let body = WireRequest::Statement(statement.to_string());
        encode_frame_bytes(&Frame::Request { id, body })
            .unwrap()
            .to_vec()
    };
    stream.set_nonblocking(true).unwrap();
    // The socket buffers on both ends hold a few thousand such requests
    // at most; past that the server would be buffering them.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut sent, mut pending) = (0u64, Vec::new());
    loop {
        if pending.is_empty() {
            assert!(sent < 16_000, "the loop never paused the peer");
            sent += 1;
            pending = request(sent, &statement);
        }
        match stream.write(&pending) {
            Ok(n) => drop(pending.drain(..n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if read_pauses(&server) > before {
                    break;
                }
                assert!(Instant::now() < deadline, "the loop never paused the peer");
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("write: {e}"),
        }
    }
    // Finish the frame the blocked write cut, then read everything.
    stream.set_nonblocking(false).unwrap();
    let timeout = Some(Duration::from_secs(60));
    stream.set_read_timeout(timeout).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let finish = std::thread::spawn(move || writer.write_all(&pending).unwrap());
    read_answers(&mut stream, 1..=sent, &expected);
    finish.join().unwrap();
    assert!(sent > 1, "sent {sent}");

    // 150 requests (14 KB) in one write, 1.7 MB of answers: one read
    // takes the burst whole and its answers pass the watermark, so the
    // loop stops popping with requests buffered and nothing more to
    // read. A loop that never resumed them times the reads out.
    let mut stream = raw_connection(&net);
    stream.set_read_timeout(timeout).unwrap();
    let burst: Vec<u8> = (1..=150).flat_map(|id| request(id, HOT)).collect();
    stream.write_all(&burst).unwrap();
    read_answers(&mut stream, 1..=150, &expected);
    net.shutdown();
}
