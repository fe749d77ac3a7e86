//! `unn-cli` — an interactive / scriptable shell over the MOD server.
//!
//! Reads commands from stdin (one per line), so it works both as a REPL
//! and in pipelines:
//!
//! ```text
//! printf 'gen 200 42 0.5\nnn Tr0 0 60\n' | cargo run --release --bin unn-cli
//! ```
//!
//! ## Serve and connected modes
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
//! `unn-cli store convert <dir>` rewrites a WAL directory's checkpoint
//! image from the text format older builds wrote to the binary one
//! recovery reads (in place; the log segments are untouched). A text
//! image is otherwise refused, with this command named in the error.
//!
//! `unn-cli follow <addr> [deltas] [ms]` attaches a read replica: it
//! bootstraps a local mirror over the `FOLLOW` wire exchange, applies
//! up to `deltas` streamed commits (waiting at most `ms` for each), and
//! prints the mirrored epoch as it advances.
//!
//! `unn-cli connect <addr>` speaks the framed wire protocol to a running
//! `NetServer` instead of embedding a local server. The command set
//! shrinks to what the protocol carries — `sql`, `sub add/drop/list/
//! answer`, `obj put/del`, `watch` — and `watch` **blocks on the
//! socket**: subscription deltas registered over the connection are
//! pushed by the server as they land, so watching costs zero polling
//! and wakes with commit latency. A `lagged` event (the server squashed
//! deltas under backpressure) triggers an automatic resync from the
//! full answer.
//!
//! Commands (local mode):
//!
//! ```text
//! gen <n> <seed> <radius>     generate the §5 random-waypoint workload
//! load <path>                 load a MOD snapshot (persist format)
//! save <path>                 save the current MOD
//! list                        population summary
//! obj put <Tr> <x0> <y0> <x1> <y1> [r]  register a straight-line object
//! obj move <Tr> <dx> <dy>     shift an object (single-commit replace)
//! obj del <Tr>                unregister an object
//! nn <TrQ> <tb> <te>          crisp continuous NN timeline (§1)
//! snapshot <TrQ> <t>          instantaneous P^NN ranking at t (§2.2)
//! knn <TrQ> <k> <tb> <te>     continuous k-NN cells (§7 Top-k)
//! rnn <TrQ> <tb> <te>         probabilistic reverse-NN answer (§7)
//! ipac <TrQ> <tb> <te> <d>    render the IPAC-NN tree to depth d
//! stats <TrQ> <tb> <te>       envelope size and pruning statistics
//! policy <kind> [epochs]      set the prefilter (exhaustive|scan)
//! cache                       engine-cache hit/miss/carry counters
//! store delta-stats           delta-epoch machinery counters
//! store delta-capacity <n>    cap the delta log (forces rebuilds past it)
//! store row-samples <n>       probe density of future row subscriptions
//! store metrics [p] [--watch <s> [n]]  telemetry registry (Prometheus text)
//! store telemetry <metrics|trace> <on|off>  flip the telemetry switches
//! store trace <epoch>         replay one commit's pipeline trace events
//! sql <statement>             execute a query-language statement
//! sub add <name> <SELECT …>   register a standing query
//! sub drop <name>             unregister a standing query
//! sub list                    list standing queries
//! sub stats                   per-subscription maintenance counters
//! sub poll <name>             drain a standing query's change feed
//! watch <name> [polls] [ms]   drain a standing query (default 1 poll; more
//!                             polls demo the feed cadence — the REPL is
//!                             single-threaded, so nothing mutates mid-watch)
//! help                        this text
//! quit                        exit
//! ```
//!
//! `sub …` is shorthand for the query-language verbs `REGISTER
//! CONTINUOUS … AS name` / `UNREGISTER name` / `SHOW SUBSCRIPTIONS`,
//! which `sql` accepts too. `gen` and `load` replace the whole server,
//! dropping registered subscriptions.

use std::io::{self, BufRead, Write};
use std::path::Path;
use std::time::Duration;
use uncertain_nn::core::probrows::ProbRowSet;
use uncertain_nn::modb::net::{Follower, NetClient, WireOutput};
use uncertain_nn::modb::subscription::{SubAnswer, SubDelta, SubscriptionError};
use uncertain_nn::modb::telemetry::{self, MetricsSnapshot, TraceEvent, TraceStage};
use uncertain_nn::modb::{
    convert_text_image, open_store, persist, FsyncPolicy, RecoveryReport, ServerError,
    SubscriptionInfo, WalOptions,
};
use uncertain_nn::prelude::*;

const HELP: &str = "\
commands:
  gen <n> <seed> <radius>     generate the random-waypoint workload
  load <path>                 load a MOD snapshot
  save <path>                 save the current MOD
  list                        population summary
  obj put <Tr> <x0> <y0> <x1> <y1> [r]  register a straight-line object
  obj move <Tr> <dx> <dy>     shift an object (single-commit replace)
  obj del <Tr>                unregister an object
  nn <TrQ> <tb> <te>          crisp continuous NN timeline
  snapshot <TrQ> <t>          instantaneous P^NN ranking at t
  knn <TrQ> <k> <tb> <te>     continuous k-NN cells
  rnn <TrQ> <tb> <te>         probabilistic reverse-NN answer
  ipac <TrQ> <tb> <te> <d>    render the IPAC-NN tree to depth d
  stats <TrQ> <tb> <te>       envelope size and pruning statistics
  policy <kind> [epochs]      set the prefilter (exhaustive|scan)
  cache                       engine-cache hit/miss/carry counters
  store delta-stats           delta-epoch machinery counters
  store delta-capacity <n>    cap the delta log (forces rebuilds past it)
  store row-samples <n>       probe density of future row subscriptions
  store wal-open <dir> [fsync] recover from a WAL dir and journal into it
  store wal-status            write-ahead log segment/fsync/checkpoint counters
  store checkpoint            force a WAL checkpoint (snapshot + prune) now
  store metrics [p] [--watch <s> [n]]  telemetry registry (Prometheus text;
                              --watch prints deltas-per-interval rates)
  store telemetry <metrics|trace> <on|off>  flip the telemetry switches
  store trace <epoch>         replay one commit's pipeline trace events
  sql <statement>             execute a query-language statement
  sub add <name> <SELECT ...> register a standing query
  sub drop <name>             unregister a standing query
  sub list                    list standing queries
  sub stats                   per-subscription maintenance counters
  sub poll <name>             drain a standing query's change feed
  watch <name> [polls] [ms]   drain a standing query (1 poll default)
  help                        this text
  quit                        exit";

const HELP_CONNECTED: &str = "\
connected-mode commands (unn-cli connect <addr>):
  sql <statement>             execute a query-language statement remotely
  sub add <name> <SELECT ...> register a standing query (deltas are pushed here)
  sub drop <name>             unregister a standing query
  sub list                    list standing queries
  sub stats                   per-subscription maintenance counters
  sub answer <name>           fetch a standing query's full answer + epoch
  obj put <Tr> <x0> <y0> <x1> <y1> [r]  register a straight-line object
  obj del <Tr>                unregister an object
  store metrics [p] [--watch <s> [n]]  remote SHOW METRICS (Prometheus text)
  store trace <epoch>         remote TRACE EPOCH (pipeline trace events)
  watch <name> [deltas] [ms]  block on pushed deltas (auto-resync on lag)
  help                        this text
  quit                        close the connection and exit";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("connect") {
        let Some(addr) = args.get(2) else {
            eprintln!("usage: unn-cli connect <addr>");
            std::process::exit(2);
        };
        match run_connected(addr) {
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
    if args.get(1).map(String::as_str) == Some("store") {
        let (Some("convert"), Some(dir)) = (args.get(2).map(String::as_str), args.get(3)) else {
            eprintln!("usage: unn-cli store convert <dir>");
            std::process::exit(2);
        };
        match convert_text_image(Path::new(dir)) {
            Ok((epoch, objects)) => {
                println!("converted {dir}: checkpoint epoch {epoch} ({objects} objects)");
                return;
            }
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
    let stdin = io::stdin();
    let mut server = ModServer::new();
    // Prompts are opt-in (`UNN_CLI_PROMPT=1`) so piped scripts stay clean;
    // TTY detection would need a platform dependency.
    let interactive = std::env::var_os("UNN_CLI_PROMPT").is_some();
    if interactive {
        println!("unn-cli — continuous probabilistic NN queries over uncertain trajectories");
        println!("type 'help' for commands");
    }
    let mut out = io::stdout();
    loop {
        if interactive {
            print!("unn> ");
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
        if let Err(msg) = dispatch(&mut server, line) {
            println!("error: {msg}");
        }
    }
}

fn dispatch(server: &mut ModServer, line: &str) -> Result<(), String> {
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "help" => {
            println!("{HELP}");
            Ok(())
        }
        "gen" => {
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
            let trs = persist::load(Path::new(rest)).map_err(|e| e.to_string())?;
            let count = trs.len();
            *server = ModServer::new();
            server.register_all(trs).map_err(|e| e.to_string())?;
            println!("loaded {count} objects from {rest}");
            Ok(())
        }
        "save" => {
            persist::save(server.store(), Path::new(rest)).map_err(|e| e.to_string())?;
            println!("saved {} objects to {rest}", server.store().len());
            Ok(())
        }
        "list" => {
            let oids = server.store().oids();
            match (oids.first(), oids.last()) {
                (Some(a), Some(b)) => {
                    println!("{} objects, ids {a} .. {b}", oids.len())
                }
                _ => println!("empty MOD"),
            }
            Ok(())
        }
        "nn" => {
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
            let (q, w) = parse_query_window(server, rest)?;
            let rev = server.reverse_engine(q, w).map_err(|e| e.to_string())?;
            let mut all = rev.rnn_all();
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
                    let d = server.store().delta_stats();
                    println!("store: epoch {}, {} objects", d.epoch, server.store().len());
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
                    let n: usize = parse(parts.next().ok_or("usage: store delta-capacity <n>")?)?;
                    server.store().set_delta_log_capacity(n);
                    println!(
                        "delta log capped at {n} records (consumers falling off rebuild fully)"
                    );
                    Ok(())
                }
                "row-samples" => {
                    let n: u32 = parse(parts.next().ok_or("usage: store row-samples <n>")?)?;
                    let registry = server.subscription_registry();
                    registry.set_row_samples(n);
                    println!(
                        "row subscriptions registered from now on sample {} probe instants \
                         (existing ones keep their density)",
                        registry.row_samples()
                    );
                    Ok(())
                }
                "wal-open" => {
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
                    let store = server.store();
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
                    let wal = server.store().wal().ok_or("no WAL attached")?;
                    let epoch = wal.checkpoint(server.store()).map_err(|e| e.to_string())?;
                    println!("checkpoint written at epoch {epoch}");
                    Ok(())
                }
                "metrics" => {
                    let args: Vec<&str> = parts.collect();
                    let spec = MetricsArgs::parse(&args)?;
                    match spec.watch {
                        None => print!(
                            "{}",
                            server
                                .metrics_snapshot(spec.prefix.as_deref())
                                .render_prometheus()
                        ),
                        Some((secs, rounds)) => {
                            // The local REPL is single-threaded, so rates here
                            // mostly demo the rendering; connected mode watches
                            // a live server mutating concurrently.
                            let mut before = server.metrics_snapshot(spec.prefix.as_deref());
                            for _ in 0..rounds {
                                std::thread::sleep(Duration::from_secs_f64(secs));
                                let after = server.metrics_snapshot(spec.prefix.as_deref());
                                print_metric_rates(&before, &after, secs);
                                before = after;
                            }
                        }
                    }
                    Ok(())
                }
                "telemetry" => {
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
                    let events = server.store().telemetry().trace.events_for(epoch);
                    print_trace(epoch, &events);
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
                    server.register(utr).map_err(|e| e.to_string())?;
                    println!("registered {oid} (r = {r} mi, window [0, 60])");
                    Ok(())
                }
                "move" => {
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
                    let name = parts.next().ok_or("usage: obj del <Tr>")?;
                    let oid = resolve(server, name)?;
                    server.store().remove(oid).map_err(|e| e.to_string())?;
                    println!("unregistered {oid}");
                    Ok(())
                }
                other => Err(format!("unknown obj subcommand '{other}'")),
            }
        }
        "sql" => {
            let out = server.execute(rest).map_err(|e| match e {
                // Parse errors and registration refusals point at the
                // offending token.
                ServerError::Parse(pe) => pe.render(rest),
                ServerError::Subscription(se @ SubscriptionError::Unsupported { .. }) => {
                    se.render(rest)
                }
                other => other.to_string(),
            })?;
            print_output(out);
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
                    let info = server.subscribe(name, stmt.trim()).map_err(|e| match e {
                        ServerError::Parse(pe) => pe.render(stmt.trim()),
                        ServerError::Subscription(se @ SubscriptionError::Unsupported { .. }) => {
                            se.render(stmt.trim())
                        }
                        other => other.to_string(),
                    })?;
                    print_subscription(&info);
                    Ok(())
                }
                "drop" => {
                    server.unsubscribe(sub_rest).map_err(|e| e.to_string())?;
                    println!("dropped subscription '{sub_rest}'");
                    Ok(())
                }
                "list" => {
                    let subs = server.subscriptions();
                    let registry = server.subscription_registry();
                    println!(
                        "{} subscriptions on {} shared engines (row samples {})",
                        subs.len(),
                        registry.share_count(),
                        registry.row_samples()
                    );
                    for info in &subs {
                        print_subscription(info);
                    }
                    Ok(())
                }
                "stats" => {
                    let subs = server.subscriptions();
                    let registry = server.subscription_registry();
                    println!(
                        "{} subscriptions on {} shared engines",
                        subs.len(),
                        registry.share_count()
                    );
                    for info in &subs {
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
                    Ok(())
                }
                "poll" => {
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
            let name = parts.next().ok_or("usage: watch <name> [polls] [ms]")?;
            // This local REPL is single-threaded, so no mutation can land
            // while watch sleeps — the default is a single drain, and
            // multi-poll runs merely demo the pull cadence. In connected
            // mode (`unn-cli connect`), watch instead blocks on the
            // socket and wakes when the server pushes a delta.
            let polls: usize = match parts.next() {
                Some(p) => parse(p)?,
                None => 1,
            };
            let interval_ms: u64 = match parts.next() {
                Some(p) => parse(p)?,
                None => 200,
            };
            // Fail fast on unknown names before sleeping.
            server
                .poll_subscription(name)
                .map_err(|e| e.to_string())
                .map(|deltas| print_deltas(name, &deltas))?;
            for _ in 1..polls.max(1) {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                let deltas = server.poll_subscription(name).map_err(|e| e.to_string())?;
                print_deltas(name, &deltas);
            }
            println!("watch '{name}' finished after {} polls", polls.max(1));
            Ok(())
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

/// The connected-mode REPL: every command becomes wire requests against
/// a remote `NetServer`; subscription deltas registered here arrive as
/// pushed events consumed by `watch`.
fn run_connected(addr: &str) -> Result<(), String> {
    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
    let interactive = std::env::var_os("UNN_CLI_PROMPT").is_some();
    if interactive {
        println!(
            "unn-cli connected to {addr} (server epoch {})",
            client.server_epoch()
        );
        println!("type 'help' for commands");
    }
    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        if interactive {
            print!("unn@{addr}> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("read error: {e}")),
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        if let Err(msg) = dispatch_connected(&mut client, line) {
            println!("error: {msg}");
        }
    }
    client.close().map_err(|e| e.to_string())
}

fn dispatch_connected(client: &mut NetClient, line: &str) -> Result<(), String> {
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "help" => {
            println!("{HELP_CONNECTED}");
            Ok(())
        }
        "sql" => {
            let out = client.execute(rest).map_err(|e| e.to_string())?;
            print_wire_output(out);
            Ok(())
        }
        "sub" => {
            let (sub_cmd, sub_rest) = match rest.split_once(char::is_whitespace) {
                Some((c, r)) => (c, r.trim()),
                None => (rest, ""),
            };
            let statement = match sub_cmd {
                "add" => {
                    let (name, stmt) = sub_rest
                        .split_once(char::is_whitespace)
                        .ok_or("usage: sub add <name> <SELECT ...>")?;
                    format!("REGISTER CONTINUOUS {} AS {name}", stmt.trim())
                }
                "drop" => format!("UNREGISTER {sub_rest}"),
                // Both render the full info rows — the counters travel
                // in the wire `info` stats block.
                "list" | "stats" => "SHOW SUBSCRIPTIONS".to_string(),
                "answer" => {
                    let (answer, epoch) = client
                        .subscription_answer(sub_rest)
                        .map_err(|e| e.to_string())?;
                    print_answer(sub_rest, &answer, epoch);
                    return Ok(());
                }
                other => return Err(format!("unknown sub subcommand '{other}'")),
            };
            let out = client.execute(&statement).map_err(|e| e.to_string())?;
            print_wire_output(out);
            Ok(())
        }
        "obj" => {
            let mut parts = rest.split_whitespace();
            match parts.next().ok_or("usage: obj <put|del> ...")? {
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
                    client.insert(utr).map_err(|e| e.to_string())?;
                    println!("registered {oid} remotely (r = {r} mi, window [0, 60])");
                    Ok(())
                }
                "del" => {
                    let name = parts.next().ok_or("usage: obj del <Tr>")?;
                    let oid = parse_oid(name)?;
                    client.remove(oid).map_err(|e| e.to_string())?;
                    println!("unregistered {oid} remotely");
                    Ok(())
                }
                other => Err(format!(
                    "unknown obj subcommand '{other}' (connected mode supports put/del)"
                )),
            }
        }
        "store" => {
            let mut parts = rest.split_whitespace();
            match parts
                .next()
                .ok_or("usage: store <metrics|trace> ... (connected mode)")?
            {
                "metrics" => {
                    let args: Vec<&str> = parts.collect();
                    let spec = MetricsArgs::parse(&args)?;
                    let statement = match &spec.prefix {
                        Some(p) => format!("SHOW METRICS PREFIX {p}"),
                        None => "SHOW METRICS".to_string(),
                    };
                    let fetch = |client: &mut NetClient| -> Result<MetricsSnapshot, String> {
                        match client.execute(&statement).map_err(|e| e.to_string())? {
                            WireOutput::Metrics(snap) => Ok(snap),
                            other => Err(format!("unexpected answer to SHOW METRICS: {other:?}")),
                        }
                    };
                    match spec.watch {
                        None => print!("{}", fetch(client)?.render_prometheus()),
                        Some((secs, rounds)) => {
                            let mut before = fetch(client)?;
                            for _ in 0..rounds {
                                std::thread::sleep(Duration::from_secs_f64(secs));
                                let after = fetch(client)?;
                                print_metric_rates(&before, &after, secs);
                                before = after;
                            }
                        }
                    }
                    Ok(())
                }
                "trace" => {
                    let epoch: u64 = parse(parts.next().ok_or("usage: store trace <epoch>")?)?;
                    let out = client
                        .execute(&format!("TRACE EPOCH {epoch}"))
                        .map_err(|e| e.to_string())?;
                    print_wire_output(out);
                    Ok(())
                }
                other => Err(format!(
                    "unknown store subcommand '{other}' (connected mode supports metrics/trace)"
                )),
            }
        }
        "watch" => {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or("usage: watch <name> [deltas] [ms]")?;
            let want: usize = match parts.next() {
                Some(p) => parse(p)?,
                None => 1,
            };
            let timeout_ms: u64 = match parts.next() {
                Some(p) => parse(p)?,
                None => 10_000,
            };
            watch_connected(client, name, want.max(1), timeout_ms)
        }
        other => Err(format!(
            "unknown command '{other}' in connected mode (try 'help')"
        )),
    }
}

/// Blocks on the socket until `want` pushed deltas for `name` arrived
/// (or the per-event timeout expires). Lagged events — the server
/// squashed under backpressure — trigger an automatic resync from the
/// full answer, which is what restores per-epoch granularity.
fn watch_connected(
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

fn print_wire_output(out: WireOutput) {
    match out {
        WireOutput::Boolean(b) => println!("{b}"),
        WireOutput::Objects(rows) => print_output(QueryOutput::Objects(rows)),
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

fn print_output(out: QueryOutput) {
    match out {
        QueryOutput::Boolean(b) => println!("{b}"),
        QueryOutput::Objects(rows) => {
            println!("{} objects", rows.len());
            let mut rows = rows;
            rows.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (oid, frac) in rows {
                println!("  {oid:>6}: {:.1}%", frac * 100.0);
            }
        }
        QueryOutput::Registered(info) => print_subscription(&info),
        QueryOutput::Unregistered(name) => println!("dropped subscription '{name}'"),
        QueryOutput::Subscriptions(subs) => {
            println!("{} subscriptions", subs.len());
            for info in &subs {
                print_subscription(info);
            }
        }
        QueryOutput::Metrics(snap) => print!("{}", snap.render_prometheus()),
        QueryOutput::Trace { epoch, events } => print_trace(epoch, &events),
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
