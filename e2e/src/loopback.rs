//! The untraced end-to-end runs: a real `unn-cli serve` child over
//! loopback [`NetClient`] connections, closed loop, one request in
//! flight. Production-default switches: metrics registry on, trace ring
//! off.

use crate::child::{dir_bytes, fresh_dir, ServerProc};
use crate::oracle;
use crate::script::{ChurnOp, ChurnScript, IngestScript, MixOp, MixScript, Standing};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use unn_modb::net::{Follower, NetClient, WireOutput};
use unn_modb::subscription::{FeedEvent, SubAnswer};
use unn_modb::telemetry::MetricsSnapshot;
use unn_traj::trajectory::Oid;
use unn_traj::uncertain::UncertainTrajectory;

/// How long the watcher waits for a pushed frame before the op counts
/// as timed out.
const PUSH_TIMEOUT: Duration = Duration::from_secs(10);
/// WAL policy of the three workloads whose op is not a durability op.
/// Every commit is still journaled; the server just never calls fsync.
/// The default policy (`every-8`) would put the device inside the gated
/// numbers — one op in eight is then an fsync, so `far_churn`'s p95 *is*
/// the fsync latency — and this sandbox's disk drifts by a factor of
/// three within the hour (see the README's limits).
pub const CHURN_FSYNC: &str = "os";
/// Grace period in which a frame that must not exist would show up.
const QUIET_PERIOD: Duration = Duration::from_millis(150);
/// Kill → restart cycles of a full `ingest_recover` run: at 160 ms each,
/// as many as the run's time allows. The host has spells in which a
/// restart takes 210 ms, for a tenth to half of a run's cycles; the
/// median of 60 rides them out where the median of 20 did not.
pub const RECOVER_CYCLES: usize = 60;
/// Restarts before the timed ones: the first two to eight after the
/// ingest were measured 40 % slower than the rest.
const RECOVER_WARMUP: usize = 4;
/// `ingest_recover` sets up once more after every this-many restarts.
const SETUP_EVERY: usize = 4;
/// How much of the fixed-cost work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// How many times set-up runs; `setup_s` is the fastest. The first
    /// serves the measured phase, the others follow it, so that the
    /// samples are seconds apart and a slow spell of the host cannot
    /// cover them all.
    pub setup_repeats: usize,
    /// Kill → restart cycles of `ingest_recover`.
    pub recover_cycles: usize,
    pub deadline: Deadline,
}

impl Effort {
    pub const FULL: Effort = Effort {
        setup_repeats: 3,
        recover_cycles: RECOVER_CYCLES,
        deadline: Deadline(None),
    };
    pub const SMOKE: Effort = Effort {
        setup_repeats: 1,
        recover_cycles: 2,
        deadline: Deadline(None),
    };
}

/// Everything one untraced run observed.
#[derive(Debug, Default)]
pub struct Observed {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// One entry per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Time spent on the workload's op in the measured phase, seconds.
    pub wall_s: f64,
    /// Wall time of the phase the commits were sent in (the same phase,
    /// except on `ingest_recover`, whose op is the restart).
    pub commit_wall_s: f64,
    pub commits: u64,
    pub queries: u64,
    pub commit_ack_ms: Vec<f64>,
    pub push_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    /// When each op of the workload's own series was done, in seconds
    /// since the measured phase began.
    pub done_s: Vec<f64>,
    pub frames_received: u64,
    pub peak_rss_mb: f64,
    /// WAL directory bytes at the end of the measured phase.
    pub wal_dir_bytes: u64,
    /// Registry counters and histogram sums/counts, measured phase only
    /// (end snapshot minus the snapshot taken after warm-up).
    pub registry: BTreeMap<String, f64>,
    pub fsync: &'static str,
}

impl Observed {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// What is read off the server when the commits of the measured phase
    /// are done: the registry's movement since `before`, the child's
    /// memory high-water mark, the WAL directory's size.
    fn close_phase(
        &mut self,
        server: &ServerProc,
        client: &mut NetClient,
        before: &MetricsSnapshot,
        wal_dir: &Path,
    ) -> Result<(), String> {
        self.registry = registry_delta(before, &show_metrics(client)?);
        self.peak_rss_mb = server.peak_rss_mb()?;
        self.wal_dir_bytes = dir_bytes(wal_dir);
        Ok(())
    }
}

/// Stops measuring early when a run takes far longer than it was sized
/// for, so a slow host cannot push a run past the harness limits. The
/// ops done so far are reported; counts are then not comparable.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(pub Option<Instant>);

impl Deadline {
    fn passed(&self) -> bool {
        self.0.is_some_and(|d| Instant::now() >= d)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn connect(server: &ServerProc) -> Result<NetClient, String> {
    NetClient::connect(server.addr).map_err(|e| format!("connect {}: {e}", server.addr))
}

fn show_metrics(client: &mut NetClient) -> Result<MetricsSnapshot, String> {
    match client.execute("SHOW METRICS") {
        Ok(WireOutput::Metrics(snapshot)) => Ok(snapshot),
        Ok(other) => Err(format!("SHOW METRICS answered {other:?}")),
        Err(e) => Err(format!("SHOW METRICS: {e}")),
    }
}

/// Flattens a snapshot: counters and gauges by name, histograms as
/// `<name>.count`, `<name>.sum` and `<name>.p50`.
fn flatten(snapshot: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, v) in snapshot.counters.iter().chain(&snapshot.gauges) {
        out.insert(name.clone(), *v as f64);
    }
    for (name, h) in &snapshot.histograms {
        out.insert(format!("{name}.count"), h.count as f64);
        out.insert(format!("{name}.sum"), h.sum as f64);
        out.insert(format!("{name}.p50"), h.p50() as f64);
    }
    out
}

/// `after − before` for everything cumulative; gauges and quantiles are
/// taken from `after` as they are.
fn registry_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let base = flatten(before);
    let gauges: Vec<&String> = after.gauges.iter().map(|(n, _)| n).collect();
    flatten(after)
        .into_iter()
        .map(|(name, v)| {
            let cumulative = !gauges.contains(&&name) && !name.ends_with(".p50");
            let v = if cumulative {
                v - base.get(&name).copied().unwrap_or(0.0)
            } else {
                v
            };
            (name, v)
        })
        .collect()
}

// ---------------------------------------------------------------------
// near_churn / far_churn
// ---------------------------------------------------------------------

struct ChurnSession {
    server: ServerProc,
    writer: NetClient,
    watcher: NetClient,
    /// Base answer of every subscription name, and every event pushed
    /// since, in arrival order (folded after the measured phase).
    base: HashMap<String, SubAnswer>,
    events: Vec<FeedEvent>,
    dir: PathBuf,
}

/// Spawn → fleet loaded → 64 names registered on 16 shares → watcher
/// attached to all of them with its base answers → warm-up ops done.
fn churn_setup(
    bin: &Path,
    script: &ChurnScript,
    obs: &mut Observed,
) -> Result<ChurnSession, String> {
    // Clearing the last run's directory is the harness's chore, not set-up.
    let dir = fresh_dir("churn-wal")?;
    let started = Instant::now();
    let server = ServerProc::spawn(bin, &dir, CHURN_FSYNC)?;
    // The admin connection loads and registers, then leaves: REGISTER
    // attaches the registering connection's outbox, and the writer must
    // not receive pushes.
    let mut admin = connect(&server)?;
    for tr in &script.fleet {
        admin
            .insert(tr.clone())
            .map_err(|e| format!("loading the fleet: {e}"))?;
    }
    for query in &script.standing {
        for name in &query.names {
            let stmt = format!("REGISTER CONTINUOUS {} AS {name}", query.statement);
            match admin.execute(&stmt) {
                Ok(WireOutput::Registered(_)) => {}
                other => return Err(format!("REGISTER {name}: {other:?}")),
            }
        }
    }
    admin.close().map_err(|e| format!("admin close: {e}"))?;

    let writer = connect(&server)?;
    let mut watcher = connect(&server)?;
    let mut base = HashMap::new();
    for name in script.standing.iter().flat_map(|q| &q.names) {
        match watcher.execute(&format!("WATCH {name}")) {
            Ok(WireOutput::Registered(_)) => {}
            other => return Err(format!("WATCH {name}: {other:?}")),
        }
        let (answer, _epoch) = watcher
            .subscription_answer(name)
            .map_err(|e| format!("base answer of {name}: {e}"))?;
        base.insert(name.clone(), answer);
    }
    let mut session = ChurnSession {
        server,
        writer,
        watcher,
        base,
        events: Vec::new(),
        dir,
    };
    let mut scratch = Observed::default();
    for op in &script.warmup {
        churn_op(&mut session, &script.standing, op, &mut scratch);
    }
    if scratch.failed > 0 {
        return Err(format!("warm-up failed: {:?}", scratch.failures));
    }
    obs.setup_s.push(started.elapsed().as_secs_f64());
    Ok(session)
}

/// One closed-loop op: send the update, wait for the ack, then wait for
/// the last frame the commit must push.
fn churn_op(session: &mut ChurnSession, standing: &[Standing], op: &ChurnOp, obs: &mut Observed) {
    obs.attempted += 1;
    let sent = Instant::now();
    if let Err(e) = session.writer.update(op.tr.clone()) {
        return obs.fail(format!("update Tr{}: {e}", op.tr.oid().0));
    }
    obs.commit_ack_ms.push(ms(sent.elapsed()));
    obs.commits += 1;
    let Some(k) = op.target else { return };
    let mut waiting: Vec<&str> = standing[k].names.iter().map(String::as_str).collect();
    while !waiting.is_empty() {
        match session.watcher.next_event(Some(PUSH_TIMEOUT)) {
            Ok(Some(event)) => {
                if event.lagged {
                    obs.fail(format!("lagged frame on {}", event.subscription));
                }
                waiting.retain(|n| *n != event.subscription);
                session.events.push(event);
            }
            Ok(None) => return obs.fail(format!("no frame for {waiting:?} within 10 s")),
            Err(e) => return obs.fail(format!("watcher: {e}")),
        }
    }
    obs.push_ms.push(ms(sent.elapsed()));
}

/// Reads whatever else was pushed, then checks every name: base answer
/// folded with every pushed delta equals the cold exhaustive answer over
/// `fleet`.
fn churn_check(
    session: &mut ChurnSession,
    standing: &[Standing],
    fleet: &[UncertainTrajectory],
    obs: &mut Observed,
) -> Result<(), String> {
    loop {
        match session.watcher.next_event(Some(QUIET_PERIOD)) {
            Ok(Some(event)) => session.events.push(event),
            Ok(None) => break,
            Err(e) => return Err(format!("watcher: {e}")),
        }
    }
    let mut folded = session.base.clone();
    for event in &session.events {
        let answer = folded
            .get_mut(&event.subscription)
            .ok_or_else(|| format!("frame for unknown name {}", event.subscription))?;
        *answer = answer.apply(&event.delta);
    }
    let store = oracle::store_of(fleet)?;
    let cold: Vec<SubAnswer> = standing
        .iter()
        .map(|query| oracle::standing_answer(&store, query))
        .collect::<Result<_, String>>()?;
    for (query, cold) in standing.iter().zip(&cold) {
        for name in &query.names {
            obs.attempted += 1;
            if folded[name] != *cold {
                obs.fail(format!(
                    "{name}: folded answer differs from the cold evaluation"
                ));
            }
        }
    }
    Ok(())
}

/// The fleet after `ops` were applied in order (`update` = replace).
pub fn fleet_after<'a>(
    fleet: &[UncertainTrajectory],
    ops: impl Iterator<Item = &'a UncertainTrajectory>,
) -> Vec<UncertainTrajectory> {
    let mut by_oid: BTreeMap<Oid, UncertainTrajectory> =
        fleet.iter().map(|t| (t.oid(), t.clone())).collect();
    for tr in ops {
        by_oid.insert(tr.oid(), tr.clone());
    }
    by_oid.into_values().collect()
}

pub fn run_churn(bin: &Path, script: &ChurnScript, effort: Effort) -> Result<Observed, String> {
    let mut obs = Observed {
        fsync: CHURN_FSYNC,
        ..Observed::default()
    };
    let mut session = churn_setup(bin, script, &mut obs)?;

    // Before timing: what the watcher holds equals the cold answer.
    let warm = fleet_after(&script.fleet, script.warmup.iter().map(|op| &op.tr));
    churn_check(&mut session, &script.standing, &warm, &mut obs)?;

    let before = show_metrics(&mut session.writer)?;
    let frames_before = session.events.len();
    let started = Instant::now();
    let mut done = 0;
    for op in &script.ops {
        if effort.deadline.passed() {
            break;
        }
        churn_op(&mut session, &script.standing, op, &mut obs);
        obs.done_s.push(started.elapsed().as_secs_f64());
        done += 1;
    }
    obs.wall_s = started.elapsed().as_secs_f64();
    obs.commit_wall_s = obs.wall_s;
    obs.close_phase(&session.server, &mut session.writer, &before, &session.dir)?;

    let end = fleet_after(&warm, script.ops[..done].iter().map(|op| &op.tr));
    churn_check(&mut session, &script.standing, &end, &mut obs)?;
    obs.frames_received = (session.events.len() - frames_before) as u64;
    if script.ops.iter().all(|op| op.target.is_none()) && obs.frames_received > 0 {
        obs.fail(format!(
            "{} frames pushed by far updates",
            obs.frames_received
        ));
    }
    let ChurnSession {
        server,
        writer,
        watcher,
        ..
    } = session;
    let _ = writer.close();
    let _ = watcher.close();
    server.stop();
    for _ in 1..effort.setup_repeats {
        drop(churn_setup(bin, script, &mut obs)?);
    }
    Ok(obs)
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

struct MixSession {
    server: ServerProc,
    reader: NetClient,
    writer: NetClient,
    dir: PathBuf,
}

/// A checked read: the rows the server returned and how many measured
/// writes had been acknowledged before it was sent.
struct CheckedRead<'a> {
    statement: &'a str,
    writes_before: usize,
    rows: Vec<(Oid, f64)>,
}

fn mix_op<'a>(
    session: &mut MixSession,
    op: &'a MixOp,
    obs: &mut Observed,
    checked: &mut Vec<CheckedRead<'a>>,
) {
    obs.attempted += 1;
    let sent = Instant::now();
    match op {
        MixOp::Read {
            object,
            statement,
            check,
        } => match session.reader.execute(statement) {
            Ok(WireOutput::Objects(rows)) => {
                obs.query_ms.push(ms(sent.elapsed()));
                obs.queries += 1;
                if *check {
                    checked.push(CheckedRead {
                        statement,
                        writes_before: obs.commits as usize,
                        rows,
                    });
                }
            }
            Ok(other) => obs.fail(format!("query Tr{}: answered {other:?}", object.0)),
            Err(e) => obs.fail(format!("query Tr{}: {e}", object.0)),
        },
        MixOp::Write(tr) => match session.writer.update(tr.clone()) {
            Ok(()) => {
                obs.commit_ack_ms.push(ms(sent.elapsed()));
                obs.commits += 1;
            }
            Err(e) => obs.fail(format!("update Tr{}: {e}", tr.oid().0)),
        },
    }
}

/// Spawn → fleet loaded → reader and writer connected → warm-up ops done.
fn mix_setup(bin: &Path, script: &MixScript, obs: &mut Observed) -> Result<MixSession, String> {
    // Clearing the last run's directory is the harness's chore, not set-up.
    let dir = fresh_dir("mix-wal")?;
    let started = Instant::now();
    let server = ServerProc::spawn(bin, &dir, CHURN_FSYNC)?;
    let mut writer = connect(&server)?;
    for tr in &script.fleet {
        writer
            .insert(tr.clone())
            .map_err(|e| format!("loading the fleet: {e}"))?;
    }
    let reader = connect(&server)?;
    let mut session = MixSession {
        server,
        reader,
        writer,
        dir,
    };
    let mut scratch = Observed::default();
    for op in &script.warmup {
        mix_op(&mut session, op, &mut scratch, &mut Vec::new());
    }
    if scratch.failed > 0 {
        return Err(format!("warm-up failed: {:?}", scratch.failures));
    }
    obs.setup_s.push(started.elapsed().as_secs_f64());
    Ok(session)
}

fn writes(ops: &[MixOp]) -> impl Iterator<Item = &UncertainTrajectory> {
    ops.iter().filter_map(|op| match op {
        MixOp::Write(tr) => Some(tr),
        MixOp::Read { .. } => None,
    })
}

pub fn run_mix(bin: &Path, script: &MixScript, effort: Effort) -> Result<Observed, String> {
    let mut obs = Observed {
        fsync: CHURN_FSYNC,
        ..Observed::default()
    };
    let mut session = mix_setup(bin, script, &mut obs)?;

    let before = show_metrics(&mut session.writer)?;
    let mut checked = Vec::new();
    let started = Instant::now();
    for op in &script.ops {
        if effort.deadline.passed() {
            break;
        }
        mix_op(&mut session, op, &mut obs, &mut checked);
        if matches!(op, MixOp::Read { .. }) {
            obs.done_s.push(started.elapsed().as_secs_f64());
        }
    }
    obs.wall_s = started.elapsed().as_secs_f64();
    obs.commit_wall_s = obs.wall_s;
    obs.close_phase(&session.server, &mut session.writer, &before, &session.dir)?;

    // The sampled responses against an exhaustive server holding the
    // fleet as of the same epoch: the writes are replayed in order and
    // each checked read is evaluated when its turn comes.
    let warm = fleet_after(&script.fleet, writes(&script.warmup));
    let mirror = oracle::exhaustive_server(&warm)?;
    let mut pending = writes(&script.ops);
    let mut applied = 0;
    for read in &checked {
        while applied < read.writes_before {
            let tr = pending
                .next()
                .ok_or("more acknowledged writes than scripted")?;
            mirror.store().update(tr.clone());
            applied += 1;
        }
        obs.attempted += 1;
        let cold = oracle::select_rows(&mirror, read.statement)?;
        if !oracle::same_rows(&read.rows, &cold) {
            obs.fail(format!(
                "response differs from the exhaustive answer: {}",
                read.statement
            ));
        }
    }
    let MixSession {
        server,
        reader,
        writer,
        ..
    } = session;
    let _ = reader.close();
    let _ = writer.close();
    server.stop();
    for _ in 1..effort.setup_repeats {
        drop(mix_setup(bin, script, &mut obs)?);
    }
    Ok(obs)
}

// ---------------------------------------------------------------------
// ingest_recover
// ---------------------------------------------------------------------

/// The oids a server holds, read the way a replica would: a follower
/// bootstraps a mirror (catch-up stream or snapshot, the server decides)
/// and the mirror's contents are listed.
fn server_oids(server: &ServerProc, epoch: u64) -> Result<Vec<Oid>, String> {
    let mut follower =
        Follower::connect(server.addr).map_err(|e| format!("follower connect: {e}"))?;
    follower
        .sync_to(epoch, PUSH_TIMEOUT)
        .map_err(|e| format!("follower sync to epoch {epoch}: {e}"))?;
    let mut oids = follower.server().store().oids();
    oids.sort_unstable();
    follower
        .close()
        .map_err(|e| format!("follower close: {e}"))?;
    Ok(oids)
}

fn probe_answers(
    client: &mut NetClient,
    probes: &[String],
) -> Result<Vec<Vec<(Oid, f64)>>, String> {
    probes
        .iter()
        .map(|stmt| match client.execute(stmt) {
            Ok(WireOutput::Objects(rows)) => Ok(rows),
            other => Err(format!("probe {stmt}: {other:?}")),
        })
        .collect()
}

/// Spawn on an empty directory under `--fsync always` → both generator
/// connections established. No warm-up inserts: the op this workload
/// times is the restart, and fifty fsyncs would make `setup_s` a reading
/// of the sandbox's disk.
fn ingest_setup(
    bin: &Path,
    dir_name: &str,
    obs: &mut Observed,
) -> Result<(ServerProc, [NetClient; 2], PathBuf), String> {
    // Clearing the last run's directory is the harness's chore, not set-up.
    let dir = fresh_dir(dir_name)?;
    let started = Instant::now();
    let server = ServerProc::spawn(bin, &dir, "always")?;
    let first = connect(&server)?;
    let second = connect(&server)?;
    obs.setup_s.push(started.elapsed().as_secs_f64());
    Ok((server, [first, second], dir))
}

pub fn run_ingest(bin: &Path, script: &IngestScript, effort: Effort) -> Result<Observed, String> {
    let deadline = effort.deadline;
    let mut obs = Observed {
        fsync: "always",
        ..Observed::default()
    };
    let (mut server, mut clients, dir) = ingest_setup(bin, "ingest-wal", &mut obs)?;

    // Two generator threads, one connection each, closed loop.
    let before = show_metrics(&mut clients[0])?;
    let started = Instant::now();
    let results: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&script.per_thread)
            .map(|(client, list)| {
                scope.spawn(move || {
                    let mut acks = Vec::with_capacity(list.len());
                    let mut errors = Vec::new();
                    for tr in list {
                        if deadline.passed() {
                            break;
                        }
                        let sent = Instant::now();
                        match client.insert(tr.clone()) {
                            Ok(()) => acks.push(ms(sent.elapsed())),
                            Err(e) => errors.push(format!("insert Tr{}: {e}", tr.oid().0)),
                        }
                    }
                    (acks, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    obs.commit_wall_s = started.elapsed().as_secs_f64();
    for (acks, errors) in results {
        obs.attempted += (acks.len() + errors.len()) as u64;
        obs.commits += acks.len() as u64;
        obs.commit_ack_ms.extend(acks);
        for e in errors {
            obs.fail(e);
        }
    }
    obs.close_phase(&server, &mut clients[0], &before, &dir)?;

    // The op: SIGKILL → spawn on the same directory → `Welcome` frame.
    // Under `always` every acknowledged insert is on disk, so after each
    // restart the recovered epoch must equal the acknowledged commits and
    // the fixed probes must answer as before; the first and the last
    // restart also list the recovered objects, the way a replica would.
    let mut expected: Vec<Oid> = script
        .per_thread
        .iter()
        .flatten()
        .map(|tr| tr.oid())
        .collect();
    expected.sort_unstable();
    let acked_all = obs.commits as usize == expected.len();
    let epoch = obs.commits;
    let answers = probe_answers(&mut clients[0], &script.probes)?;
    drop(clients);
    for _ in 0..RECOVER_WARMUP.min(effort.recover_cycles) {
        server.kill();
        server = ServerProc::spawn(bin, &dir, "always")?;
    }
    for cycle in 0..effort.recover_cycles {
        server.kill();
        let killed = Instant::now();
        server = ServerProc::spawn(bin, &dir, "always")?;
        let mut client = connect(&server)?;
        obs.recover_ms.push(ms(killed.elapsed()));
        obs.attempted += 1;
        let list_objects = acked_all && (cycle == 0 || cycle + 1 == effort.recover_cycles);
        if client.server_epoch() != epoch {
            obs.fail(format!(
                "cycle {cycle}: recovered epoch {} but {epoch} commits were acknowledged",
                client.server_epoch()
            ));
        } else if list_objects && server_oids(&server, epoch)? != expected {
            obs.fail(format!(
                "cycle {cycle}: recovered objects differ from the acknowledged inserts"
            ));
        } else if probe_answers(&mut client, &script.probes)? != answers {
            obs.fail(format!(
                "cycle {cycle}: a probe answers differently after the restart"
            ));
        }
        let _ = client.close();
        // This workload's set-up is a process spawn and two handshakes,
        // two milliseconds: one more on a directory of its own every few
        // cycles costs nothing and spreads the samples over the run.
        if (cycle + 1) % SETUP_EVERY == 0 {
            drop(ingest_setup(bin, "ingest-spare", &mut obs)?);
        }
    }
    // Only the restarts count as the op's time, not the checks between.
    let mut elapsed = 0.0;
    for restart in &obs.recover_ms {
        elapsed += restart / 1e3;
        obs.done_s.push(elapsed);
    }
    obs.wall_s = elapsed;
    server.stop();
    Ok(obs)
}
