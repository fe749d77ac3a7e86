//! `unn-cli` — an interactive / scriptable shell over the MOD server.
//!
//! Reads commands from stdin (one per line), so it works both as a REPL
//! and in pipelines:
//!
//! ```text
//! printf 'gen 200 42 0.5\nnn Tr0 0 60\n' | cargo run --release --bin unn-cli
//! ```
//!
//! ## Serve, follow and connected sessions
//!
//! `unn-cli serve <addr> [--gen <n> <seed> <radius>] [--wal <dir>
//! [--fsync <policy>]]` binds a `NetServer` on `addr` (port 0 picks an
//! ephemeral port, printed on startup) over a fresh MOD — optionally
//! pre-populated with the §5 workload — and serves until stdin closes
//! or reads `quit`. With `--wal`, the store is first **recovered** from
//! the directory's checkpoint image + write-ahead log (the recovery
//! report is printed) and every subsequent commit is journaled there,
//! so a `kill -9` loses at most the unsynced fsync window.
//!
//! `unn-cli follow <addr> [deltas] [ms]` attaches a read replica: it
//! bootstraps a local mirror over the `FOLLOW` wire exchange, applies
//! up to `deltas` streamed commits (waiting at most `ms` for each), and
//! prints the mirrored epoch as it advances.
//!
//! `unn-cli connect <addr>` runs the same shell against a running
//! `NetServer`: statements, standing queries, object puts and deletes,
//! metrics and traces travel over the framed wire protocol, and `watch`
//! **blocks on the socket** until the server pushes the standing
//! query's deltas (a `lagged` event triggers a resync from the full
//! answer). Verbs the wire does not carry are refused with the list of
//! those it does.
//!
//! `help` prints the command table; in a connected session it lists the
//! commands the wire carries. `sub add` / `sub drop` / `sub list` and
//! `store metrics` / `store trace` are shorthand for the query-language
//! statements `REGISTER CONTINUOUS … AS name`, `UNREGISTER name`,
//! `SHOW SUBSCRIPTIONS`, `SHOW METRICS [PREFIX p]` and `TRACE EPOCH e`,
//! which `sql` accepts too. `gen`, `load` and `store wal-open` replace
//! the whole local server, dropping registered subscriptions.

use std::io::{self, BufRead, Write};
use std::path::Path;
use std::time::Duration;
use uncertain_nn::core::probrows::ProbRowSet;
use uncertain_nn::modb::durability::{load_image, save_image};
use uncertain_nn::modb::net::{Follower, NetClient, WireOutput};
use uncertain_nn::modb::subscription::{SubAnswer, SubDelta, SubscriptionError};
use uncertain_nn::modb::telemetry::{self, MetricsSnapshot, TraceEvent, TraceStage};
use uncertain_nn::modb::{
    open_store, FsyncPolicy, RecoveryReport, ServerError, SubscriptionInfo, WalOptions,
};
use uncertain_nn::prelude::*;

/// The command table: `(usage, description, carried over the wire)`.
/// `help` renders it per session; a connected session runs only the
/// carried rows.
#[rustfmt::skip]
const HELP: &[(&str, &str, bool)] = &[
    ("gen <n> <seed> <radius>",                    "generate the random-waypoint workload", false),
    ("load <path>",                                "load a MOD from a checkpoint image", false),
    ("save <path>",                                "save the current MOD as a checkpoint image", false),
    ("list",                                       "population summary", false),
    ("obj put <Tr> <x0> <y0> <x1> <y1> [r]",       "register a straight-line object", true),
    ("obj move <Tr> <dx> <dy>",                    "shift an object (single-commit replace)", false),
    ("obj del <Tr>",                               "unregister an object", true),
    ("nn <TrQ> <tb> <te>",                         "crisp continuous NN timeline", false),
    ("snapshot <TrQ> <t>",                         "instantaneous P^NN ranking at t", false),
    ("knn <TrQ> <k> <tb> <te>",                    "continuous k-NN cells", false),
    ("rnn <TrQ> <tb> <te>",                        "probabilistic reverse-NN answer", false),
    ("ipac <TrQ> <tb> <te> <d>",                   "render the IPAC-NN tree to depth d", false),
    ("stats <TrQ> <tb> <te>",                      "envelope size and pruning statistics", false),
    ("policy <kind> [epochs]",                     "set the prefilter (exhaustive|scan)", false),
    ("cache",                                      "engine-cache hit/miss/carry counters", false),
    ("store delta-stats",                          "delta-epoch machinery counters", false),
    ("store delta-capacity <n>",                   "cap the delta log (forces rebuilds past it)", false),
    ("store row-samples <n>",                      "probe density of future row subscriptions", false),
    ("store wal-open <dir> [fsync]",               "recover from a WAL dir and journal into it", false),
    ("store wal-status",                           "write-ahead log segment/fsync/checkpoint counters", false),
    ("store checkpoint",                           "force a WAL checkpoint (snapshot + prune) now", false),
    ("store metrics [p] [--watch <s> [n]]",        "telemetry registry (Prometheus text; --watch: rates)", true),
    ("store telemetry <metrics|trace> <on|off>",   "flip the telemetry switches", false),
    ("store trace <epoch>",                        "replay one commit's pipeline trace events", true),
    ("sql <statement>",                            "execute a query-language statement", true),
    ("sub add <name> <SELECT ...>",                "register a standing query", true),
    ("sub drop <name>",                            "unregister a standing query", true),
    ("sub list",                                   "list standing queries", true),
    ("sub stats",                                  "per-subscription maintenance counters", true),
    ("sub answer <name>",                          "a standing query's full answer and its epoch", true),
    ("sub poll <name>",                            "drain a standing query's change feed", false),
    ("watch <name> [n] [ms]",                      "local: n polls, ms apart; connected: wait for n pushed deltas", true),
    ("help",                                       "this text", true),
    ("quit",                                       "exit", true),
];

/// The usage's verb words (`"sub add <name> …"` → `"sub add"`).
fn verb(usage: &str) -> String {
    let words = usage.split(' ').take_while(|w| !w.starts_with(['<', '[']));
    words.collect::<Vec<_>>().join(" ")
}

/// A shell's backend: an in-process server, or a connection to one.
enum Session {
    Local(Box<ModServer>),
    Remote(NetClient),
}

impl Session {
    /// The in-process server the local-only verbs run on; a connected
    /// session refuses them with the verbs it does carry.
    fn local(&mut self) -> Result<&mut ModServer, String> {
        match self {
            Session::Local(server) => Ok(server.as_mut()),
            Session::Remote(_) => {
                let carried: Vec<String> = HELP.iter().filter(|r| r.2).map(|r| verb(r.0)).collect();
                Err(format!(
                    "not carried by a connected session, which runs: {}",
                    carried.join(", ")
                ))
            }
        }
    }

    /// Executes a query-language statement. Parse errors and refused
    /// registrations point at the offending token of `text`.
    fn execute(&mut self, text: &str) -> Result<WireOutput, String> {
        match self {
            Session::Local(server) => {
                server
                    .execute(text)
                    .map(WireOutput::from)
                    .map_err(|e| match e {
                        ServerError::Parse(pe) => pe.render(text),
                        ServerError::Subscription(se @ SubscriptionError::Unsupported { .. }) => {
                            se.render(text)
                        }
                        other => other.to_string(),
                    })
            }
            Session::Remote(client) => client.execute(text).map_err(|e| e.to_string()),
        }
    }

    fn insert(&mut self, tr: UncertainTrajectory) -> Result<(), String> {
        match self {
            Session::Local(server) => server.register(tr).map_err(|e| e.to_string()),
            Session::Remote(client) => client.insert(tr).map_err(|e| e.to_string()),
        }
    }

    /// Unregisters the named object, returning its id.
    fn remove(&mut self, name: &str) -> Result<Oid, String> {
        match self {
            Session::Local(server) => {
                let oid = resolve(server, name)?;
                server.store().remove(oid).map_err(|e| e.to_string())?;
                Ok(oid)
            }
            Session::Remote(client) => {
                let oid = parse_oid(name)?;
                client.remove(oid).map_err(|e| e.to_string())?;
                Ok(oid)
            }
        }
    }

    /// A standing query's full answer and the epoch it is current at.
    fn answer(&mut self, name: &str) -> Result<(SubAnswer, u64), String> {
        match self {
            Session::Local(server) => server
                .subscription_answer_with_epoch(name)
                .map_err(|e| e.to_string()),
            Session::Remote(client) => client.subscription_answer(name).map_err(|e| e.to_string()),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("connect") {
        let Some(addr) = args.get(2) else {
            eprintln!("usage: unn-cli connect <addr>");
            std::process::exit(2);
        };
        let result = NetClient::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|client| {
                let banner = format!(
                    "unn-cli connected to {addr} (server epoch {})",
                    client.server_epoch()
                );
                run_shell(Session::Remote(client), &banner, &format!("unn@{addr}> "))
            });
        match result {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.get(1).map(String::as_str) == Some("serve") {
        let Some(addr) = args.get(2) else {
            eprintln!("{SERVE_USAGE}");
            std::process::exit(2);
        };
        match run_serve(addr, &args[3..]) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.get(1).map(String::as_str) == Some("follow") {
        let Some(addr) = args.get(2) else {
            eprintln!("usage: unn-cli follow <addr> [deltas] [ms]");
            std::process::exit(2);
        };
        match run_follow(addr, &args[3..]) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    // An argument no mode takes (a removed one such as `store convert`
    // included) must fail, not start a shell that exits 0 on EOF.
    if let Some(mode) = args.get(1) {
        eprintln!("unknown mode '{mode}' (modes: serve, connect, follow; none runs the shell)");
        std::process::exit(2);
    }
    let banner = "unn-cli — continuous probabilistic NN queries over uncertain trajectories";
    if let Err(e) = run_shell(Session::Local(Box::default()), banner, "unn> ") {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The shell: one command per stdin line until EOF or `quit`. A failed
/// command prints its error and the session goes on.
fn run_shell(mut session: Session, banner: &str, prompt: &str) -> Result<(), String> {
    // Prompts are opt-in (`UNN_CLI_PROMPT=1`) so piped scripts stay clean;
    // TTY detection would need a platform dependency.
    let interactive = std::env::var_os("UNN_CLI_PROMPT").is_some();
    if interactive {
        println!("{banner}");
        println!("type 'help' for commands");
    }
    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        if interactive {
            print!("{prompt}");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        if let Err(msg) = dispatch(&mut session, line) {
            println!("error: {msg}");
        }
    }
    match session {
        Session::Local(_) => Ok(()),
        Session::Remote(client) => client.close().map_err(|e| e.to_string()),
    }
}

fn dispatch(session: &mut Session, line: &str) -> Result<(), String> {
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "help" => {
            let remote = matches!(session, Session::Remote(_));
            println!(
                "{}",
                if remote {
                    "connected-session commands (unn-cli connect <addr>):"
                } else {
                    "commands:"
                }
            );
            for (usage, description, carried) in HELP {
                if *carried || !remote {
                    println!("  {usage:<26}  {description}");
                }
            }
            Ok(())
        }
        "gen" => {
            let server = session.local()?;
            let [n, seed, radius]: [f64; 3] = parse_numbers(rest)?;
            let cfg = WorkloadConfig::with_objects(n as usize, seed as u64);
            let fleet = generate_uncertain(&cfg, radius);
            *server = ModServer::new();
            server.register_all(fleet).map_err(|e| e.to_string())?;
            println!(
                "generated {} objects (seed {}, r = {radius} mi, 40x40 mi^2, 60 min)",
                n as usize, seed as u64
            );
            Ok(())
        }
        "load" => {
            let server = session.local()?;
            let (_, trs) = load_image(Path::new(rest)).map_err(|e| e.to_string())?;
            let count = trs.len();
            *server = ModServer::new();
            server.register_all(trs).map_err(|e| e.to_string())?;
            println!("loaded {count} objects from {rest}");
            Ok(())
        }
        "save" => {
            let server = session.local()?;
            let snapshot = server.store().snapshot();
            save_image(Path::new(rest), &snapshot).map_err(|e| e.to_string())?;
            println!("saved {} objects to {rest}", snapshot.len());
            Ok(())
        }
        "list" => {
            let oids = session.local()?.store().oids();
            match (oids.first(), oids.last()) {
                (Some(a), Some(b)) => {
                    println!("{} objects, ids {a} .. {b}", oids.len())
                }
                _ => println!("empty MOD"),
            }
            Ok(())
        }
        "nn" => {
            let server = session.local()?;
            let (q, w) = parse_query_window(server, rest)?;
            let ans = server.continuous_nn(q, w).map_err(|e| e.to_string())?;
            println!(
                "A_nn({q}): {} entries ({} candidates, {} kept, {} envelope pieces)",
                ans.sequence.len(),
                ans.stats.candidates,
                ans.stats.kept,
                ans.stats.envelope_pieces
            );
            for (oid, iv) in &ans.sequence {
                println!("  {oid:>6} during [{:8.3}, {:8.3}]", iv.start(), iv.end());
            }
            Ok(())
        }
        "snapshot" => {
            let server = session.local()?;
            let mut parts = rest.split_whitespace();
            let q = resolve(server, parts.next().ok_or("usage: snapshot <TrQ> <t>")?)?;
            let t: f64 = parse(parts.next().ok_or("missing t")?)?;
            let ans = server.instantaneous_nn(q, t).map_err(|e| e.to_string())?;
            println!(
                "P^NN ranking at t = {t} ({} candidates, {} pruned by the R_min/R_max rule):",
                ans.examined, ans.pruned
            );
            for (oid, p) in &ans.rows {
                println!("  {oid:>6}: {p:.4}");
            }
            Ok(())
        }
        "knn" => {
            let server = session.local()?;
            let mut parts = rest.split_whitespace();
            let q = resolve(
                server,
                parts.next().ok_or("usage: knn <TrQ> <k> <tb> <te>")?,
            )?;
            let k: usize = parse(parts.next().ok_or("missing k")?)?;
            let tb: f64 = parse(parts.next().ok_or("missing tb")?)?;
            let te: f64 = parse(parts.next().ok_or("missing te")?)?;
            let w = TimeInterval::try_new(tb, te).ok_or("invalid window")?;
            let ans = server.knn_answer(q, w, k).map_err(|e| e.to_string())?;
            println!("continuous {k}-NN of {q}: {} cells", ans.cells().len());
            for c in ans.cells() {
                let names: Vec<String> = c.ranked.iter().map(|o| o.to_string()).collect();
                println!(
                    "  [{:8.3}, {:8.3}]: {}",
                    c.span.start(),
                    c.span.end(),
                    names.join(" < ")
                );
            }
            Ok(())
        }
        "rnn" => {
            let server = session.local()?;
            let (q, w) = parse_query_window(server, rest)?;
            let rev = server.reverse_engine(q, w).map_err(|e| e.to_string())?;
            let mut all = rev.answer_set().into_pairs();
            all.sort_by(|a, b| b.1.total_len().total_cmp(&a.1.total_len()));
            println!("objects that may have {q} as their NN: {}", all.len());
            for (oid, iv) in &all {
                println!(
                    "  {oid:>6}: {:8.3} time units ({:5.1}%)",
                    iv.total_len(),
                    100.0 * iv.total_len() / w.len()
                );
            }
            Ok(())
        }
        "ipac" => {
            let server = session.local()?;
            let mut parts = rest.split_whitespace();
            let q = resolve(
                server,
                parts.next().ok_or("usage: ipac <TrQ> <tb> <te> <depth>")?,
            )?;
            let tb: f64 = parse(parts.next().ok_or("missing tb")?)?;
            let te: f64 = parse(parts.next().ok_or("missing te")?)?;
            let d: usize = parse(parts.next().ok_or("missing depth")?)?;
            let w = TimeInterval::try_new(tb, te).ok_or("invalid window")?;
            let tree = server.ipac_tree(q, w, d).map_err(|e| e.to_string())?;
            print!("{}", tree.render());
            Ok(())
        }
        "stats" => {
            let server = session.local()?;
            let (q, w) = parse_query_window(server, rest)?;
            let (engine, stats) = server.engine(q, w).map_err(|e| e.to_string())?;
            println!(
                "query {q}: {} candidates, {} prefiltered, {} kept ({:.1}% pruned), \
                 {} envelope pieces, preprocess {:?}{}",
                stats.candidates,
                stats.prefiltered,
                stats.kept,
                100.0 * (1.0 - stats.kept as f64 / stats.candidates.max(1) as f64),
                stats.envelope_pieces,
                stats.preprocess,
                if stats.cache_hit { " (cache hit)" } else { "" }
            );
            let seq = engine.continuous_nn_answer();
            println!("answer has {} time-parameterized entries", seq.len());
            Ok(())
        }
        "policy" => {
            let server = session.local()?;
            let mut parts = rest.split_whitespace();
            let kind = parts.next().ok_or("usage: policy <kind> [epochs]")?;
            let epochs: usize = match parts.next() {
                Some(e) => parse(e)?,
                None => 8,
            };
            let policy = match kind {
                "exhaustive" | "none" => PrefilterPolicy::Exhaustive,
                "scan" => PrefilterPolicy::Scan { epochs },
                other => return Err(format!("unknown policy '{other}' (exhaustive|scan)")),
            };
            server.set_prefilter_policy(policy);
            println!("prefilter policy set to {policy}");
            Ok(())
        }
        "cache" => {
            let server = session.local()?;
            let m = server.metrics_snapshot(Some("cache_"));
            let get = |name| m.value(name).unwrap_or(0);
            println!(
                "engine cache: {} hits ({} carried across deltas), {} misses, {} entries (epoch {})",
                get("cache_hits_total"),
                get("cache_carried_total"),
                get("cache_misses_total"),
                get("cache_entries"),
                server.store().epoch()
            );
            Ok(())
        }
        "store" => {
            let mut parts = rest.split_whitespace();
            match parts.next().ok_or("usage: store <subcommand> (see help)")? {
                "delta-stats" => {
                    let store = session.local()?.store();
                    let d = store.delta_stats();
                    println!("store: epoch {}, {} objects", d.epoch, store.len());
                    println!(
                        "delta log: {} records retained (floor epoch {}), {} ops pending vs cached snapshot",
                        d.log_len, d.log_floor, d.pending_ops
                    );
                    println!(
                        "snapshot refreshes: {} delta-applied, {} full rebuilds",
                        d.snapshots_delta_applied, d.snapshots_rebuilt
                    );
                    Ok(())
                }
                "delta-capacity" => {
                    let server = session.local()?;
                    let n: usize = parse(parts.next().ok_or("usage: store delta-capacity <n>")?)?;
                    server.store().set_delta_log_capacity(n);
                    println!(
                        "delta log capped at {n} records (consumers falling off rebuild fully)"
                    );
                    Ok(())
                }
                "row-samples" => {
                    let registry = session.local()?.subscription_registry();
                    let n: u32 = parse(parts.next().ok_or("usage: store row-samples <n>")?)?;
                    registry.set_row_samples(n);
                    println!(
                        "row subscriptions registered from now on sample {} probe instants \
                         (existing ones keep their density)",
                        registry.row_samples()
                    );
                    Ok(())
                }
                "wal-open" => {
                    let server = session.local()?;
                    let dir = parts.next().ok_or("usage: store wal-open <dir> [fsync]")?;
                    let mut options = WalOptions::default();
                    if let Some(p) = parts.next() {
                        options.fsync = FsyncPolicy::parse(p).ok_or_else(|| {
                            format!("unknown fsync policy '{p}' (always|os|every-<n>)")
                        })?;
                    }
                    let (store, _wal, report) =
                        open_store(Path::new(dir), options).map_err(|e| e.to_string())?;
                    print_recovery(dir, &report);
                    // Like `gen`/`load`, this replaces the whole server
                    // (dropping registered subscriptions) — the recovered
                    // store journals every commit from here on.
                    *server = ModServer::with_store(store);
                    Ok(())
                }
                "wal-status" => {
                    let store = session.local()?.store();
                    match store.wal_status() {
                        Some(s) => {
                            println!(
                                "wal {}: {} segments, {} bytes, fsync {}",
                                s.dir.display(),
                                s.segments,
                                s.total_bytes,
                                s.fsync
                            );
                            println!(
                                "  last epoch {}, checkpoint epoch {}",
                                s.last_epoch, s.checkpoint_epoch
                            );
                            println!(
                                "  {} appended, {} syncs, {} checkpoints, {} io errors",
                                s.appended, s.syncs, s.checkpoints, s.io_errors
                            );
                            if let Some(e) = store.wal().and_then(|w| w.last_error()) {
                                println!("  last error: {e}");
                            }
                        }
                        None => {
                            println!("no WAL attached (serve --wal <dir> or store wal-open <dir>)")
                        }
                    }
                    Ok(())
                }
                "checkpoint" => {
                    let store = session.local()?.store();
                    let wal = store.wal().ok_or("no WAL attached")?;
                    let epoch = wal.checkpoint(store).map_err(|e| e.to_string())?;
                    println!("checkpoint written at epoch {epoch}");
                    Ok(())
                }
                "metrics" => {
                    let args: Vec<&str> = parts.collect();
                    let spec = MetricsArgs::parse(&args)?;
                    let statement = match &spec.prefix {
                        Some(p) => format!("SHOW METRICS PREFIX {p}"),
                        None => "SHOW METRICS".to_string(),
                    };
                    let mut fetch = || match session.execute(&statement)? {
                        WireOutput::Metrics(snap) => Ok(snap),
                        other => Err(format!("unexpected answer to SHOW METRICS: {other:?}")),
                    };
                    match spec.watch {
                        None => print!("{}", fetch()?.render_prometheus()),
                        Some((secs, rounds)) => {
                            // Rates over a connection watch a live server;
                            // the local shell is single-threaded, so nothing
                            // commits between its samples.
                            let mut before = fetch()?;
                            for _ in 0..rounds {
                                std::thread::sleep(Duration::from_secs_f64(secs));
                                let after = fetch()?;
                                print_metric_rates(&before, &after, secs);
                                before = after;
                            }
                        }
                    }
                    Ok(())
                }
                "telemetry" => {
                    session.local()?;
                    const USAGE: &str = "usage: store telemetry <metrics|trace> <on|off>";
                    let which = parts.next().ok_or(USAGE)?;
                    let on = match parts.next().ok_or(USAGE)? {
                        "on" => true,
                        "off" => false,
                        other => return Err(format!("expected on|off, got '{other}'")),
                    };
                    match which {
                        "metrics" => telemetry::set_metrics(on),
                        "trace" => telemetry::set_trace(on),
                        other => return Err(format!("expected metrics|trace, got '{other}'")),
                    }
                    println!(
                        "telemetry {which} {}",
                        if on {
                            "on"
                        } else {
                            "off (recording branches skipped)"
                        }
                    );
                    Ok(())
                }
                "trace" => {
                    let epoch: u64 = parse(parts.next().ok_or("usage: store trace <epoch>")?)?;
                    print_output(session.execute(&format!("TRACE EPOCH {epoch}"))?);
                    Ok(())
                }
                other => Err(format!("unknown store subcommand '{other}'")),
            }
        }
        "obj" => {
            let mut parts = rest.split_whitespace();
            match parts.next().ok_or("usage: obj <put|move|del> ...")? {
                "put" => {
                    let name = parts
                        .next()
                        .ok_or("usage: obj put <Tr> <x0> <y0> <x1> <y1> [r]")?;
                    let nums: Vec<f64> = parts.map(parse).collect::<Result<_, _>>()?;
                    let (coords, r) = match nums.len() {
                        4 => (&nums[..4], 0.5),
                        5 => (&nums[..4], nums[4]),
                        n => return Err(format!("expected 4 or 5 numbers, got {n}")),
                    };
                    let oid = parse_oid(name)?;
                    let tr = Trajectory::from_triples(
                        oid,
                        &[(coords[0], coords[1], 0.0), (coords[2], coords[3], 60.0)],
                    )
                    .map_err(|e| e.to_string())?;
                    let utr =
                        UncertainTrajectory::with_uniform_pdf(tr, r).map_err(|e| e.to_string())?;
                    session.insert(utr)?;
                    println!("registered {oid} (r = {r} mi, window [0, 60])");
                    Ok(())
                }
                "move" => {
                    let server = session.local()?;
                    let name = parts.next().ok_or("usage: obj move <Tr> <dx> <dy>")?;
                    let dx: f64 = parse(parts.next().ok_or("missing dx")?)?;
                    let dy: f64 = parse(parts.next().ok_or("missing dy")?)?;
                    let oid = resolve(server, name)?;
                    let old = server.store().get(oid).ok_or("object vanished")?;
                    let shifted: Vec<(f64, f64, f64)> = old
                        .trajectory()
                        .samples()
                        .iter()
                        .map(|p| (p.position.x + dx, p.position.y + dy, p.time))
                        .collect();
                    let tr = Trajectory::from_triples(oid, &shifted).map_err(|e| e.to_string())?;
                    // Preserve the object's uncertainty model — replacing
                    // a Gaussian object with a uniform one would poison
                    // the MOD's shared-pdf invariant.
                    let utr = UncertainTrajectory::new(tr, old.radius(), old.pdf())
                        .map_err(|e| e.to_string())?;
                    // A single-commit replace: subscriptions absorb the
                    // correction in one maintenance round.
                    server.store().update(utr);
                    println!("moved {oid} by ({dx}, {dy})");
                    Ok(())
                }
                "del" => {
                    let oid = session.remove(parts.next().ok_or("usage: obj del <Tr>")?)?;
                    println!("unregistered {oid}");
                    Ok(())
                }
                other => Err(format!("unknown obj subcommand '{other}'")),
            }
        }
        "sql" => {
            print_output(session.execute(rest)?);
            Ok(())
        }
        "sub" => {
            let (sub_cmd, sub_rest) = match rest.split_once(char::is_whitespace) {
                Some((c, r)) => (c, r.trim()),
                None => (rest, ""),
            };
            match sub_cmd {
                "add" => {
                    let (name, stmt) = sub_rest
                        .split_once(char::is_whitespace)
                        .ok_or("usage: sub add <name> <SELECT ...>")?;
                    let statement = format!("REGISTER CONTINUOUS {} AS {name}", stmt.trim());
                    print_output(session.execute(&statement)?);
                    Ok(())
                }
                "drop" => {
                    print_output(session.execute(&format!("UNREGISTER {sub_rest}"))?);
                    Ok(())
                }
                "list" | "stats" => {
                    let subs = match session.execute("SHOW SUBSCRIPTIONS")? {
                        WireOutput::Subscriptions(subs) => subs,
                        other => return Err(format!("unexpected answer: {other:?}")),
                    };
                    let mut header = format!("{} subscriptions", subs.len());
                    if let Session::Local(server) = session {
                        let registry = server.subscription_registry();
                        header += &format!(" on {} shared engines", registry.share_count());
                        if sub_cmd == "list" {
                            header += &format!(" (row samples {})", registry.row_samples());
                        }
                    }
                    println!("{header}");
                    for info in &subs {
                        match sub_cmd {
                            "list" => print_subscription(info),
                            _ => print_stats(info),
                        }
                    }
                    Ok(())
                }
                "answer" => {
                    let (answer, epoch) = session.answer(sub_rest)?;
                    print_answer(sub_rest, &answer, epoch);
                    Ok(())
                }
                "poll" => {
                    let server = session.local()?;
                    let deltas = server
                        .poll_subscription(sub_rest)
                        .map_err(|e| e.to_string())?;
                    print_deltas(sub_rest, &deltas);
                    Ok(())
                }
                other => Err(format!("unknown sub subcommand '{other}'")),
            }
        }
        "watch" => {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or("usage: watch <name> [n] [ms]")?;
            let n = parts.next().map_or(Ok(1), parse::<usize>)?.max(1);
            let ms: Option<u64> = parts.next().map(parse).transpose()?;
            match session {
                // The local shell is single-threaded, so nothing commits
                // while watch sleeps: one drain is the default, and more
                // only demo the pull cadence.
                Session::Local(server) => {
                    for i in 0..n {
                        if i > 0 {
                            std::thread::sleep(Duration::from_millis(ms.unwrap_or(200)));
                        }
                        let deltas = server.poll_subscription(name).map_err(|e| e.to_string())?;
                        print_deltas(name, &deltas);
                    }
                    println!("watch '{name}' finished after {n} polls");
                    Ok(())
                }
                Session::Remote(client) => watch_pushed(client, name, n, ms.unwrap_or(10_000)),
            }
        }
        other => Err(format!("unknown command '{other}' (try 'help')")),
    }
}

const SERVE_USAGE: &str = "usage: unn-cli serve <addr> [--gen <n> <seed> <radius>] \
     [--wal <dir>] [--fsync <policy>] [--metrics-dump <path>]";

/// Serve mode: bind a `NetServer` over a fresh (optionally generated,
/// optionally WAL-recovered and journaled) MOD and block until stdin
/// closes or reads `quit`. Pair with `unn-cli connect <addr>` or
/// `unn-cli follow <addr>` from other terminals.
fn run_serve(addr: &str, opts: &[String]) -> Result<(), String> {
    let mut gen: Option<(usize, u64, f64)> = None;
    let mut wal_dir: Option<&String> = None;
    let mut fsync: Option<FsyncPolicy> = None;
    let mut metrics_dump: Option<&String> = None;
    let mut it = opts.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--gen" => {
                let n: usize = parse(it.next().ok_or(SERVE_USAGE)?)?;
                let seed: u64 = parse(it.next().ok_or(SERVE_USAGE)?)?;
                let radius: f64 = parse(it.next().ok_or(SERVE_USAGE)?)?;
                gen = Some((n, seed, radius));
            }
            "--wal" => wal_dir = Some(it.next().ok_or(SERVE_USAGE)?),
            "--metrics-dump" => metrics_dump = Some(it.next().ok_or(SERVE_USAGE)?),
            "--fsync" => {
                let p = it.next().ok_or(SERVE_USAGE)?;
                fsync =
                    Some(FsyncPolicy::parse(p).ok_or_else(|| {
                        format!("unknown fsync policy '{p}' (always|os|every-<n>)")
                    })?);
            }
            other => return Err(format!("unknown serve option '{other}'\n{SERVE_USAGE}")),
        }
    }
    let server = match wal_dir {
        Some(dir) => {
            let mut options = WalOptions::default();
            if let Some(f) = fsync {
                options.fsync = f;
            }
            let (store, _wal, report) =
                open_store(Path::new(dir), options).map_err(|e| e.to_string())?;
            print_recovery(dir, &report);
            ModServer::with_store(store)
        }
        None => {
            if fsync.is_some() {
                return Err("--fsync requires --wal".to_string());
            }
            ModServer::new()
        }
    };
    if let Some((n, seed, radius)) = gen {
        let cfg = WorkloadConfig::with_objects(n, seed);
        server
            .register_all(generate_uncertain(&cfg, radius))
            .map_err(|e| e.to_string())?;
        println!("generated {n} objects (seed {seed}, r = {radius} mi)");
    }
    let server = std::sync::Arc::new(server);
    let net = uncertain_nn::modb::net::NetServer::bind(addr, server.clone())
        .map_err(|e| e.to_string())?;
    println!("serving on {} (EOF or 'quit' stops)", net.local_addr());
    let stdin = io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" || line.trim() == "exit" => break,
            Ok(_) => continue,
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    net.shutdown();
    // Dump after shutdown so the JSON reflects every served request,
    // including the final pushes the shutdown path flushed.
    if let Some(path) = metrics_dump {
        let json = server.metrics_snapshot(None).to_json();
        std::fs::write(Path::new(path), json).map_err(|e| e.to_string())?;
        println!("metrics dumped to {path}");
    }
    println!("server stopped");
    Ok(())
}

fn print_recovery(dir: &str, report: &RecoveryReport) {
    println!(
        "recovered {dir}: checkpoint epoch {} ({} objects) + {} wal records ({} ops) -> epoch {}",
        report.snapshot_epoch,
        report.snapshot_objects,
        report.replayed_records,
        report.replayed_ops,
        report.recovered_epoch
    );
    if let Some(t) = &report.torn_tail {
        println!(
            "  torn tail truncated at byte {} of {}: {}",
            t.offset,
            t.segment.display(),
            t.reason
        );
    }
}

/// Follower mode: mirror a leader over the `FOLLOW` wire exchange,
/// applying up to `deltas` streamed commits (each awaited for at most
/// `ms`), printing the mirrored epoch as it advances.
fn run_follow(addr: &str, opts: &[String]) -> Result<(), String> {
    let deltas: u64 = match opts.first() {
        Some(p) => parse(p)?,
        None => 0,
    };
    let timeout_ms: u64 = match opts.get(1) {
        Some(p) => parse(p)?,
        None => 2000,
    };
    let mut follower = Follower::connect(addr).map_err(|e| e.to_string())?;
    println!(
        "following {addr} from epoch {} ({} objects)",
        follower.epoch(),
        follower.server().store().len()
    );
    let mut processed = 0u64;
    while processed < deltas {
        match follower
            .pump(Some(Duration::from_millis(timeout_ms)))
            .map_err(|e| e.to_string())?
        {
            true => {
                processed += 1;
                println!(
                    "  epoch {} ({} objects)",
                    follower.epoch(),
                    follower.server().store().len()
                );
            }
            false => {
                println!("follow {addr}: no delta within {timeout_ms} ms");
                break;
            }
        }
    }
    println!(
        "follower stopped at epoch {} ({} objects, {} notifications)",
        follower.epoch(),
        follower.server().store().len(),
        processed
    );
    follower.close().map_err(|e| e.to_string())
}

/// Blocks on the socket until `want` pushed deltas for `name` arrived
/// (or the per-event timeout expires). Lagged events — the server
/// squashed under backpressure — trigger an automatic resync from the
/// full answer, which is what restores per-epoch granularity.
fn watch_pushed(
    client: &mut NetClient,
    name: &str,
    want: usize,
    timeout_ms: u64,
) -> Result<(), String> {
    let mut got = 0usize;
    while got < want {
        match client
            .next_event(Some(Duration::from_millis(timeout_ms)))
            .map_err(|e| e.to_string())?
        {
            Some(ev) => {
                println!(
                    "'{}' @epoch {}{}:",
                    ev.subscription,
                    ev.delta.epoch(),
                    if ev.lagged { " [lagged]" } else { "" },
                );
                print_delta(&ev.delta);
                if ev.lagged && ev.subscription == name {
                    let (answer, epoch) = client
                        .subscription_answer(name)
                        .map_err(|e| e.to_string())?;
                    print_answer(name, &answer, epoch);
                }
                if ev.subscription == name {
                    got += 1;
                }
            }
            None => {
                println!("watch '{name}': no delta within {timeout_ms} ms");
                break;
            }
        }
    }
    println!("watch '{name}' finished after {got} pushed deltas");
    Ok(())
}

fn print_answer(name: &str, answer: &SubAnswer, epoch: u64) {
    match answer {
        SubAnswer::Intervals(answer) => {
            println!(
                "answer of '{name}' @epoch {epoch}: {} qualifying",
                answer.len()
            );
            for e in answer.entries() {
                println!(
                    "    {:>6}: {:8.3} time units",
                    e.oid,
                    e.intervals.total_len()
                );
            }
        }
        SubAnswer::Rows(rows) => print_rows(name, rows, epoch),
    }
}

fn print_rows(name: &str, rows: &ProbRowSet, epoch: u64) {
    println!(
        "rows of '{name}' @epoch {epoch}: {} objects x {} probes",
        rows.len(),
        rows.samples()
    );
    for r in rows.rows() {
        println!(
            "    {:>6}: {:3} samples, mean P = {:.4}",
            r.oid,
            r.points.len(),
            rows.mean_probability(r.oid)
        );
    }
}

fn print_output(out: WireOutput) {
    match out {
        WireOutput::Boolean(b) => println!("{b}"),
        WireOutput::Objects(mut rows) => {
            println!("{} objects", rows.len());
            rows.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (oid, frac) in rows {
                println!("  {oid:>6}: {:.1}%", frac * 100.0);
            }
        }
        WireOutput::Registered(info) => print_subscription(&info),
        WireOutput::Unregistered(name) => println!("dropped subscription '{name}'"),
        WireOutput::Subscriptions(subs) => {
            println!("{} subscriptions", subs.len());
            for info in &subs {
                print_subscription(info);
            }
        }
        WireOutput::Answer { epoch, answer } => {
            let name = answer.query().to_string();
            print_answer(&name, &SubAnswer::Intervals(answer), epoch)
        }
        WireOutput::RowAnswer { epoch, rows } => {
            let name = rows.query().to_string();
            print_rows(&name, &rows, epoch)
        }
        WireOutput::Done => println!("ok"),
        // Replication-control responses never reach the REPL dispatch —
        // the `Follower` driver consumes them inside `client.follow`.
        WireOutput::FollowOk { epoch } => println!("following from epoch {epoch}"),
        WireOutput::Resync { epoch, objects } => {
            println!("resync snapshot @epoch {epoch}: {} objects", objects.len())
        }
        WireOutput::Metrics(snap) => print!("{}", snap.render_prometheus()),
        WireOutput::Trace { epoch, events } => print_trace(epoch, &events),
    }
}

/// Parsed arguments of `store metrics [prefix] [--watch <secs> [rounds]]`.
struct MetricsArgs {
    prefix: Option<String>,
    /// `--watch` interval in seconds and number of intervals to render.
    watch: Option<(f64, usize)>,
}

impl MetricsArgs {
    fn parse(args: &[&str]) -> Result<Self, String> {
        const USAGE: &str = "usage: store metrics [prefix] [--watch <secs> [rounds]]";
        let mut prefix = None;
        let mut watch = None;
        let mut i = 0;
        while i < args.len() {
            match args[i] {
                "--watch" => {
                    let secs: f64 = parse(args.get(i + 1).copied().ok_or(USAGE)?)?;
                    if secs <= 0.0 || !secs.is_finite() {
                        return Err(format!("--watch interval must be positive, got {secs}"));
                    }
                    let mut rounds = 1usize;
                    i += 2;
                    if let Some(n) = args.get(i) {
                        rounds = parse::<usize>(n)?.max(1);
                        i += 1;
                    }
                    watch = Some((secs, rounds));
                }
                p if prefix.is_none() && !p.starts_with("--") => {
                    prefix = Some(p.to_string());
                    i += 1;
                }
                other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
            }
        }
        Ok(MetricsArgs { prefix, watch })
    }
}

/// Renders what moved between two metrics snapshots as per-second rates:
/// counter deltas, changed gauges, and histogram sample arrival with the
/// latest p99 — the `--watch` view of a live pipeline.
fn print_metric_rates(before: &MetricsSnapshot, after: &MetricsSnapshot, secs: f64) {
    let lookup = |rows: &[(String, u64)], name: &str| -> u64 {
        rows.iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    println!("-- deltas over {secs}s --");
    let mut moved = 0usize;
    for (name, v) in &after.counters {
        let d = v.saturating_sub(lookup(&before.counters, name));
        if d > 0 {
            println!("  {name} +{d} ({:.1}/s)", d as f64 / secs);
            moved += 1;
        }
    }
    for (name, v) in &after.gauges {
        if *v != lookup(&before.gauges, name) {
            println!("  {name} = {v}");
            moved += 1;
        }
    }
    for (name, h) in &after.histograms {
        let prev = before
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        let d = h.count.saturating_sub(prev);
        if d > 0 {
            println!(
                "  {name} +{d} samples ({:.1}/s), p99 {} ns",
                d as f64 / secs,
                h.p99()
            );
            moved += 1;
        }
    }
    if moved == 0 {
        println!("  (no movement)");
    }
}

/// Renders one epoch's trace events — the `TRACE EPOCH` reconstruction of
/// a single commit's walk through the pipeline.
fn print_trace(epoch: u64, events: &[TraceEvent]) {
    if events.is_empty() {
        println!(
            "trace of epoch {epoch}: no events retained \
             (tracing off, or the ring evicted this epoch; \
             try 'store telemetry trace on')"
        );
        return;
    }
    println!("trace of epoch {epoch}: {} events", events.len());
    for ev in events {
        let what = match ev.stage {
            TraceStage::Visit => format!(
                "share {} -> {}",
                ev.share,
                telemetry::ladder_decision_name(ev.detail)
            ),
            TraceStage::Round => format!("{} shares visited", ev.detail),
            TraceStage::FrameEncode => format!("{} bytes", ev.detail),
            _ if ev.share != 0 => format!("share {} detail {}", ev.share, ev.detail),
            _ => format!("detail {}", ev.detail),
        };
        println!("  {:>16}  {what}  ({} ns)", ev.stage.name(), ev.dur_ns);
    }
}

fn print_subscription(info: &SubscriptionInfo) {
    println!(
        "subscription '{}' @epoch {}: {} qualifying, {} pending deltas \
         ({} unvisited / {} skipped / {} patched / {} rebuilt, {} commits batched, \
         {} rows patched / {} perspectives skipped){}",
        info.name,
        info.last_epoch,
        info.entries,
        info.pending_deltas,
        info.stats.skipped_unvisited,
        info.stats.skipped,
        info.stats.patched,
        info.stats.rebuilt,
        info.stats.batched_commits,
        info.stats.rows_patched,
        info.stats.perspectives_skipped,
        match &info.error {
            Some(e) => format!(" [error: {e}]"),
            None => String::new(),
        }
    );
    println!("  {}", info.statement);
}

fn print_stats(info: &SubscriptionInfo) {
    let s = &info.stats;
    println!(
        "'{}' @epoch {}: {} visited ({} skipped / {} patched / {} rebuilt), \
         {} skipped unvisited, {} commits batched",
        info.name,
        info.last_epoch,
        s.visited,
        s.skipped,
        s.patched,
        s.rebuilt,
        s.skipped_unvisited,
        s.batched_commits
    );
    println!(
        "  {} ops skipped, {} envelopes carried, {} fns reused / {} built, \
         {} rows patched, {} perspectives skipped",
        s.skipped_ops,
        s.envelopes_carried,
        s.functions_reused,
        s.functions_built,
        s.rows_patched,
        s.perspectives_skipped
    );
}

fn print_deltas(name: &str, deltas: &[SubDelta]) {
    println!("'{name}': {} deltas", deltas.len());
    for d in deltas {
        print_delta(d);
    }
}

fn print_delta(d: &SubDelta) {
    match d {
        SubDelta::Intervals(d) => {
            println!(
                "  @epoch {}: {} upserts, {} removed",
                d.epoch,
                d.upserts.len(),
                d.removed.len()
            );
            for e in &d.upserts {
                println!(
                    "    + {:>6}: {:8.3} time units",
                    e.oid,
                    e.intervals.total_len()
                );
            }
            for oid in &d.removed {
                println!("    - {oid:>6}");
            }
        }
        SubDelta::Rows(d) => {
            println!(
                "  @epoch {}: {} row upserts, {} removed",
                d.epoch,
                d.upserts.len(),
                d.removed.len()
            );
            for r in &d.upserts {
                println!("    + {:>6}: {:3} samples", r.oid, r.points.len());
            }
            for oid in &d.removed {
                println!("    - {oid:>6}");
            }
        }
    }
}

fn parse_oid(name: &str) -> Result<Oid, String> {
    uncertain_nn::modb::ql::parse_object_name(name)
        .ok_or_else(|| format!("cannot parse object name '{name}'"))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("cannot parse '{s}': {e}"))
}

fn parse_numbers<const N: usize>(rest: &str) -> Result<[f64; N], String> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    if parts.len() != N {
        return Err(format!("expected {N} arguments, got {}", parts.len()));
    }
    let mut out = [0.0; N];
    for (slot, p) in out.iter_mut().zip(&parts) {
        *slot = parse(p)?;
    }
    Ok(out)
}

fn resolve(server: &ModServer, name: &str) -> Result<Oid, String> {
    server.resolve(name).map_err(|e| e.to_string())
}

fn parse_query_window(server: &ModServer, rest: &str) -> Result<(Oid, TimeInterval), String> {
    let mut parts = rest.split_whitespace();
    let q = resolve(server, parts.next().ok_or("usage: <cmd> <TrQ> <tb> <te>")?)?;
    let tb: f64 = parse(parts.next().ok_or("missing tb")?)?;
    let te: f64 = parse(parts.next().ok_or("missing te")?)?;
    let w = TimeInterval::try_new(tb, te).ok_or("invalid window")?;
    Ok((q, w))
}
