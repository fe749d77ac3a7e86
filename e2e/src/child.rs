//! The system under test as a child process: build `unn-cli`, spawn
//! `unn-cli serve 127.0.0.1:0 --wal <dir>`, kill it, read its memory
//! high-water mark.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The repository root: this package lives in `<root>/e2e`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in a directory of the repo")
        .to_path_buf()
}

/// Scratch data of the benchmark (WAL directories, the report); ignored
/// by `e2e/.gitignore`.
pub fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/e2e-data")
}

/// Builds `unn-cli` in release mode from the repository's own workspace
/// and returns the path of the binary. `CARGO_TARGET_DIR`, when set, is
/// inherited (relative values resolve against the current directory, as
/// they did for the cargo that built this program).
pub fn build_server() -> Result<PathBuf, String> {
    let root = repo_root();
    let out = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "unn-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building unn-cli failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => root.join("target"),
    };
    let bin = target.join("release/unn-cli");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo built no {}", bin.display()))
    }
}

/// Pins the calling thread — and every thread and child process it
/// starts from now on, the server included — to one of the CPUs it may
/// run on (the highest-numbered: interrupts and housekeeping favour CPU
/// 0). Returns the CPU, or `None` where the affinity calls fail.
///
/// Measured, not assumed: on the 2-vCPU reference VM a loopback round
/// trip between two vCPUs is 85–125 µs depending on the quarter of an
/// hour (each leg wakes a halted vCPU through the hypervisor), and 22 µs
/// ± 3 % on one. Unpinned, `far_churn` measures the host's scheduler.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `size` bytes into `allowed`,
    // which is exactly that large; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.len())
        .rev()
        .find(|i| allowed[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `one`, which is exactly
    // that large.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// A running `unn-cli serve` child. Dropping it kills the process and
/// waits for it, so no run leaves a server behind.
pub struct ServerProc {
    child: Child,
    /// Held open: the server stops when its stdin reaches end of file.
    stdin: Option<ChildStdin>,
    /// Held open: the server prints a last line when it stops, and a
    /// closed pipe would turn that into a panic.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server on an ephemeral loopback port, journaling to
    /// `wal_dir` under `fsync` (`always`, `os`, `every-<n>`), and waits
    /// until it reports its address.
    pub fn spawn(bin: &Path, wal_dir: &Path, fsync: &str) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "127.0.0.1:0", "--wal"])
            .arg(wal_dir)
            .args(["--fsync", fsync])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) => break Err("server exited before serving".to_string()),
                Ok(_) => {
                    if let Some(rest) = line.strip_prefix("serving on ") {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        break addr
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("bad server address '{addr}': {e}"));
                    }
                }
                Err(e) => break Err(format!("reading server stdout: {e}")),
            }
        };
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match addr {
            Ok(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            Err(e) => {
                proc.kill();
                Err(e)
            }
        }
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// SIGKILL, then reap: the crash of the recovery cycles.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Clean stop: close stdin, wait for the event loop to drain.
    pub fn stop(mut self) {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (the longest mount point that prefixes the path wins).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fresh, empty directory under [`data_dir`].
pub fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = data_dir().join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
