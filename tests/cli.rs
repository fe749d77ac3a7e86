//! End-to-end tests of the `unn-cli` binary: commands are piped through
//! stdin and the output is checked, including a save/load round trip.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(script: &str) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("cli exits");
    assert!(out.status.success(), "cli exited with {:?}", out.status);
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn generate_and_query_pipeline() {
    let (stdout, stderr) = run_cli(
        "gen 60 42 0.5\n\
         list\n\
         nn Tr0 0 60\n\
         stats Tr0 0 60\n\
         sql SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("generated 60 objects"), "{stdout}");
    assert!(stdout.contains("60 objects, ids Tr0 .. Tr59"), "{stdout}");
    assert!(stdout.contains("A_nn(Tr0):"), "{stdout}");
    assert!(stdout.contains("candidates"), "{stdout}");
    assert!(stdout.contains("objects"), "{stdout}");
}

#[test]
fn knn_rnn_snapshot_and_ipac_commands() {
    let (stdout, _) = run_cli(
        "gen 40 7 0.5\n\
         knn Tr0 2 0 30\n\
         rnn Tr0 0 30\n\
         snapshot Tr0 15\n\
         ipac Tr0 0 30 2\n\
         quit\n",
    );
    assert!(stdout.contains("continuous 2-NN of Tr0"), "{stdout}");
    assert!(
        stdout.contains("objects that may have Tr0 as their NN"),
        "{stdout}"
    );
    assert!(stdout.contains("P^NN ranking at t = 15"), "{stdout}");
    assert!(
        stdout.contains("pruned by the R_min/R_max rule"),
        "{stdout}"
    );
    // The IPAC render names the query and window.
    assert!(stdout.contains("Tr0"), "{stdout}");
}

#[test]
fn save_load_round_trip() {
    let dir = std::env::temp_dir().join(format!("unn-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mod.unn");
    let script = format!(
        "gen 25 3 0.4\nsave {p}\ngen 5 1 0.2\nload {p}\nlist\nquit\n",
        p = path.display()
    );
    let (stdout, _) = run_cli(&script);
    assert!(stdout.contains("saved 25 objects"), "{stdout}");
    assert!(stdout.contains("loaded 25 objects"), "{stdout}");
    assert!(stdout.contains("25 objects, ids Tr0 .. Tr24"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_not_fatal() {
    let (stdout, _) = run_cli(
        "bogus command\n\
         nn Tr0 0 60\n\
         gen 10 1 0.5\n\
         nn Tr99 0 60\n\
         sql SELECT nonsense\n\
         list\n\
         quit\n",
    );
    assert!(stdout.contains("unknown command 'bogus'"), "{stdout}");
    // nn before any MOD exists
    assert!(stdout.contains("error:"), "{stdout}");
    // unknown object and parse errors are reported…
    assert!(
        stdout.contains("unknown object") || stdout.contains("Tr99"),
        "{stdout}"
    );
    // …and the session keeps going.
    assert!(stdout.contains("10 objects, ids Tr0 .. Tr9"), "{stdout}");
}

#[test]
fn policy_and_cache_commands_drive_the_pipeline() {
    let (stdout, stderr) = run_cli(
        "gen 50 11 0.5\n\
         policy scan 6\n\
         stats Tr0 0 60\n\
         stats Tr0 0 60\n\
         cache\n\
         policy bogus\n\
         policy rtree\n\
         cache\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(
        stdout.contains("prefilter policy set to scan(6)"),
        "{stdout}"
    );
    // The second identical query must come from the engine cache.
    assert!(stdout.contains("(cache hit)"), "{stdout}");
    assert!(
        stdout.contains("engine cache: 1 hits (0 carried across deltas), 1 misses"),
        "{stdout}"
    );
    assert!(stdout.contains("unknown policy 'bogus'"), "{stdout}");
    // A removed backend is refused like any unknown kind, and the session
    // keeps going.
    assert!(
        stdout.contains("unknown policy 'rtree' (exhaustive|scan)"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("engine cache:").count(), 2, "{stdout}");
}

#[test]
fn subscription_workflow_streams_answer_deltas() {
    let (stdout, stderr) = run_cli(
        "obj put Tr0 0 0 30 0\n\
         obj put Tr1 0 1 30 1\n\
         obj put Tr2 0 2 30 2\n\
         obj put Tr3 0 500 30 500\n\
         sub add near0 SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0\n\
         sub list\n\
         obj put Tr7 0 1.5 30 1.5\n\
         sub poll near0\n\
         obj move Tr7 0 100000\n\
         sub poll near0\n\
         obj del Tr7\n\
         watch near0 2 10\n\
         sql SHOW SUBSCRIPTIONS\n\
         sub drop near0\n\
         sub list\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("registered Tr0"), "{stdout}");
    assert!(stdout.contains("subscription 'near0'"), "{stdout}");
    assert!(stdout.contains("1 subscriptions"), "{stdout}");
    // The in-band newcomer streamed one upsert…
    assert!(stdout.contains("+ Tr7:"), "{stdout}");
    // …and moving it far away streamed its removal.
    assert!(stdout.contains("- Tr7"), "{stdout}");
    assert!(stdout.contains("moved Tr7 by (0, 100000)"), "{stdout}");
    assert!(
        stdout.contains("watch 'near0' finished after 2 polls"),
        "{stdout}"
    );
    assert!(stdout.contains("dropped subscription 'near0'"), "{stdout}");
    assert!(stdout.contains("0 subscriptions"), "{stdout}");
}

#[test]
fn sql_parse_errors_point_at_the_offending_token() {
    let (stdout, _) = run_cli(
        "gen 5 1 0.5\n\
         sql SELECT , FROM MOD\n\
         sub poll nope\n\
         store delta-capacity 4\n\
         quit\n",
    );
    assert!(
        stdout.contains("parse error at line 1, column 8"),
        "{stdout}"
    );
    // The caret line points at the bad token.
    assert!(stdout.contains("SELECT , FROM MOD"), "{stdout}");
    assert!(stdout.contains("       ^"), "{stdout}");
    assert!(stdout.contains("no subscription named 'nope'"), "{stdout}");
    assert!(stdout.contains("delta log capped at 4"), "{stdout}");
}

#[test]
fn wal_open_journals_and_a_second_session_recovers() {
    let dir = std::env::temp_dir().join(format!("unn-cli-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Session 1: journal a few commits, checkpoint, keep appending.
    let script = format!(
        "store wal-status\n\
         store wal-open {d} every-2\n\
         obj put Tr0 0 0 30 0\n\
         obj put Tr1 0 1 30 1\n\
         obj put Tr2 0 2 30 2\n\
         store checkpoint\n\
         obj del Tr1\n\
         store wal-status\n\
         quit\n",
        d = dir.display()
    );
    let (stdout, stderr) = run_cli(&script);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("no WAL attached"), "{stdout}");
    assert!(
        stdout.contains("recovered") && stdout.contains("-> epoch 0"),
        "{stdout}"
    );
    assert!(stdout.contains("checkpoint written at epoch 3"), "{stdout}");
    assert!(stdout.contains("fsync every-2"), "{stdout}");
    assert!(
        stdout.contains("last epoch 4, checkpoint epoch 3"),
        "{stdout}"
    );
    assert!(stdout.contains("4 appended"), "{stdout}");
    assert!(stdout.contains("0 io errors"), "{stdout}");

    // Session 2: the same directory recovers snapshot + replayed tail.
    let script = format!("store wal-open {d}\nlist\nquit\n", d = dir.display());
    let (stdout, stderr) = run_cli(&script);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(
        stdout.contains("checkpoint epoch 3 (3 objects) + 1 wal records"),
        "{stdout}"
    );
    assert!(stdout.contains("-> epoch 4"), "{stdout}");
    assert!(stdout.contains("2 objects, ids Tr0 .. Tr2"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory whose checkpoint image is the text format older builds
/// wrote: `serve --wal` refuses it by the image's magic, naming the old
/// format.
#[test]
fn text_image_directory_is_refused() {
    let dir = std::env::temp_dir().join(format!("unn-cli-convert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir creates");
    std::fs::write(
        dir.join("snapshot.unn"),
        "# unn-modb v2\nEPOCH 3\n\
         OBJ 0 0.5 U\nPT 0 0 0\nPT 30 0 60\n\
         OBJ 1 0.5 G 0.2\nPT 0 1 0\nPT 30 1 60\n\
         OBJ 2 0.5 U\nPT 0 2 0\nPT 30 2 60\n",
    )
    .expect("text image writes");

    let refused = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .args(["serve", "127.0.0.1:0", "--wal"])
        .arg(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("cli runs");
    assert!(!refused.status.success(), "a text image must not serve");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("bad image magic") && stderr.contains("text format"),
        "stderr: {stderr}"
    );
    // The conversion verb is gone, and calling it fails.
    let removed = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .args(["store", "convert"])
        .arg(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("cli runs");
    assert_eq!(removed.status.code(), Some(2), "{removed:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `load` reads only an intact checkpoint image: a text-format file, a
/// truncated image and an image with one flipped body byte are each
/// refused with the image's refusal, and the session keeps the MOD it
/// had.
#[test]
fn load_refuses_a_text_truncated_or_damaged_file_and_keeps_the_mod() {
    let dir = std::env::temp_dir().join(format!("unn-cli-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir creates");
    let saved = dir.join("fleet.unn");
    let (stdout, _) = run_cli(&format!("gen 12 5 0.5\nsave {}\nquit\n", saved.display()));
    assert!(stdout.contains("saved 12 objects"), "{stdout}");
    let image = std::fs::read(&saved).expect("saved image reads");
    const HEADER: usize = 40;
    assert!(image.len() > HEADER + 2, "{} bytes", image.len());

    let text = dir.join("text.mod");
    std::fs::write(&text, "# unn-modb v1\nOBJ 0 0.5 U\nPT 0 0 0\nPT 30 0 60\n").unwrap();
    let truncated = dir.join("truncated.unn");
    std::fs::write(&truncated, &image[..image.len() - 1]).unwrap();
    let flipped = dir.join("flipped.unn");
    let mut damaged = image.clone();
    damaged[HEADER + (image.len() - HEADER) / 2] ^= 0x10;
    std::fs::write(&flipped, &damaged).unwrap();

    let mut script = "gen 3 1 0.5\nlist\n".to_string();
    for path in [&text, &truncated, &flipped] {
        script += &format!("load {}\nlist\n", path.display());
    }
    let (stdout, _) = run_cli(&(script + "quit\n"));
    assert!(!stdout.contains("loaded"), "{stdout}");
    assert_eq!(
        stdout.matches("3 objects, ids Tr0 .. Tr2").count(),
        4,
        "every refused load keeps the MOD: {stdout}"
    );
    for (path, reason) in [
        (&text, "bad image magic"),
        (&truncated, "header promises"),
        (&flipped, "body checksum mismatch"),
    ] {
        let refusal = format!("error: checkpoint image {}: {reason}", path.display());
        assert!(stdout.contains(&refusal), "{refusal}\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file `save` writes is a checkpoint image: placed in a directory as
/// its `snapshot.unn`, it recovers.
#[test]
fn a_saved_file_recovers_as_a_directory_image() {
    let dir = std::env::temp_dir().join(format!("unn-cli-saved-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir creates");
    let script = format!(
        "gen 12 5 0.5\nsave {}\nquit\n",
        dir.join("snapshot.unn").display()
    );
    let (stdout, _) = run_cli(&script);
    assert!(stdout.contains("saved 12 objects"), "{stdout}");

    let script = format!("store wal-open {d}\nlist\nquit\n", d = dir.display());
    let (stdout, stderr) = run_cli(&script);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(
        stdout.contains("(12 objects) + 0 wal records (0 ops)"),
        "{stdout}"
    );
    assert!(stdout.contains("12 objects, ids Tr0 .. Tr11"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_server_renders_metrics_over_loopback() {
    use std::io::{BufRead, BufReader};

    let dump = std::env::temp_dir().join(format!("unn-cli-metrics-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&dump);

    // A live server on an ephemeral port; it prints the bound address
    // and stops when its stdin closes.
    let mut server = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .args([
            "serve",
            "127.0.0.1:0",
            "--gen",
            "20",
            "7",
            "0.5",
            "--metrics-dump",
        ])
        .arg(&dump)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut server_out = BufReader::new(server.stdout.take().expect("stdout piped"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            server_out.read_line(&mut line).expect("server output"),
            0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.strip_prefix("serving on ") {
            break rest.split_whitespace().next().expect("addr").to_string();
        }
    };

    // A connected session: mutate (so the commit histogram has
    // samples), then render the metrics over the wire.
    let mut client = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .args(["connect", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    client
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(
            b"obj put Tr100 0 1.5 30 1.5\n\
              store metrics\n\
              store metrics commit\n\
              sql SHOW METRICS PREFIX store_commits\n\
              quit\n",
        )
        .expect("script written");
    let out = client.wait_with_output().expect("client exits");
    assert!(out.status.success(), "client exited with {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    // Prometheus-style rows from the live registry…
    assert!(stdout.contains("# TYPE unn_commit_ns summary"), "{stdout}");
    assert!(stdout.contains("unn_commit_ns_count"), "{stdout}");
    assert!(stdout.contains("unn_store_commits_total"), "{stdout}");
    // …and the prefix filter narrows the listing.
    assert!(stdout.contains("unn_commit_to_push_ns_sum"), "{stdout}");

    // Closing stdin stops the server and writes the shutdown dump.
    drop(server.stdin.take());
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited with {status:?}");
    let json = std::fs::read_to_string(&dump).expect("metrics dump written");
    assert!(json.contains("\"counters\""), "{json}");
    assert!(json.contains("store_commits_total"), "{json}");
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn store_delta_stats_track_the_delta_epoch_machinery() {
    let (stdout, stderr) = run_cli(
        "gen 30 5 0.5\n\
         stats Tr0 0 60\n\
         store delta-stats\n\
         store bogus\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("delta log:"), "{stdout}");
    assert!(stdout.contains("snapshot refreshes:"), "{stdout}");
    assert!(
        stdout.contains("unknown store subcommand 'bogus'"),
        "{stdout}"
    );
}

/// A connected session runs the shell's wire-carried verbs against a
/// `serve` child, receives pushed deltas in `watch`, and refuses a
/// local-only verb with the list of verbs it carries.
#[test]
fn connected_session_runs_the_wire_carried_verbs() {
    use std::io::{BufRead, BufReader};

    let mut server = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .args(["serve", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut server_out = BufReader::new(server.stdout.take().expect("stdout piped"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            server_out.read_line(&mut line).expect("server output"),
            0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.strip_prefix("serving on ") {
            break rest.split_whitespace().next().expect("addr").to_string();
        }
    };

    let mut client = Command::new(env!("CARGO_BIN_EXE_unn-cli"))
        .args(["connect", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    client
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(
            b"obj put Tr0 0 0 30 0\n\
              obj put Tr1 0 1 30 1\n\
              obj put Tr2 0 2 30 2\n\
              sql SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0\n\
              sub add near0 SELECT * FROM MOD WHERE EXISTS TIME IN [0, 60] AND PROB_NN(*, Tr0, TIME) > 0\n\
              sub list\n\
              obj put Tr7 0 1.5 30 1.5\n\
              watch near0 1 10000\n\
              sub stats\n\
              sub answer near0\n\
              obj del Tr7\n\
              watch near0 1 10000\n\
              store trace 5\n\
              gen 10 1 0.5\n\
              sub drop near0\n\
              sub list\n\
              quit\n",
        )
        .expect("script written");
    let out = client.wait_with_output().expect("client exits");
    assert!(out.status.success(), "client exited with {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.is_empty(), "stderr: {stderr}");

    assert!(stdout.contains("registered Tr0 (r = 0.5 mi"), "{stdout}");
    assert!(stdout.contains("2 objects"), "{stdout}");
    assert!(
        stdout.contains("subscription 'near0' @epoch 3: 2 qualifying"),
        "{stdout}"
    );
    assert!(stdout.contains("1 subscriptions"), "{stdout}");
    // The in-band newcomer's upsert is pushed to this session…
    assert!(stdout.contains("'near0' @epoch 4:"), "{stdout}");
    assert!(stdout.contains("+ Tr7:"), "{stdout}");
    // …the wire's info block carries the maintenance counters…
    assert!(stdout.contains("'near0' @epoch 4: 1 visited"), "{stdout}");
    assert!(stdout.contains("envelopes carried"), "{stdout}");
    assert!(
        stdout.contains("answer of 'near0' @epoch 4: 3 qualifying"),
        "{stdout}"
    );
    // …and the delete's removal is pushed too.
    assert!(stdout.contains("unregistered Tr7"), "{stdout}");
    assert!(stdout.contains("- Tr7"), "{stdout}");
    assert_eq!(
        stdout
            .matches("watch 'near0' finished after 1 pushed deltas")
            .count(),
        2,
        "{stdout}"
    );
    assert!(stdout.contains("trace of epoch 5"), "{stdout}");
    assert!(
        stdout.contains("error: not carried by a connected session, which runs: "),
        "{stdout}"
    );
    assert!(!stdout.contains("generated 10 objects"), "{stdout}");
    assert!(stdout.contains("dropped subscription 'near0'"), "{stdout}");
    assert!(stdout.contains("0 subscriptions"), "{stdout}");

    drop(server.stdin.take());
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server exited with {status:?}");
}
