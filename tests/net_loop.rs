//! Where the network server runs a request, seen from its sockets: a
//! write whose maintenance is idle is committed and acknowledged on the
//! event loop, one that owes a share visit or a checkpoint is finished
//! on the connection's worker — and either way an ack means the
//! commit's round is counted and its due checkpoint installed, and one
//! connection's responses arrive in request order.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uncertain_nn::modb::durability::{open_store, WalOptions};
use uncertain_nn::modb::net::wire::{encode_frame_bytes, read_frame};
use uncertain_nn::modb::net::{Frame, NetClient, NetServer, WireOutput, WireRequest, WIRE_VERSION};
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
    match read_frame(&mut stream).expect("welcome") {
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
        match read_frame(&mut stream).expect("response") {
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
