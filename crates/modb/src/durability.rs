//! The durability subsystem: a write-ahead delta log with snapshot
//! checkpoints, crash recovery, and the replication fan-out hub.
//!
//! Every commit the store performs ([`crate::store::ModStore`]) already
//! produces an epoch-tagged run of delta ops; this module makes that
//! stream **durable** and **shareable**:
//!
//! * [`Wal`] appends each commit as a length-prefixed, CRC-checksummed
//!   record whose payload reuses the wire codec's IEEE-bit-exact
//!   encoding (`epoch:u64le count:u32le op*` — byte-identical to the
//!   body of a [`crate::net::Frame::ReplDelta`]). Records rotate across
//!   size-bounded segment files; the fsync cadence is configurable
//!   ([`FsyncPolicy`]).
//! * Checkpoints write the store as one binary **image** — a
//!   checksummed fixed-size header (epoch watermark, object count) and
//!   a checksummed body that is the wire's own trajectory encoding —
//!   via atomic tmp-then-rename, then prune every WAL segment whose
//!   records the watermark covers.
//! * [`recover`] rebuilds a store from a directory: load the last
//!   durable image, replay every WAL record with a newer epoch, and
//!   truncate a torn tail record **loudly** (reported, never silently
//!   skipped). A complete record with a bad checksum is corruption and
//!   fails recovery — tearing can only happen at the end of the last
//!   segment.
//! * [`ReplicationHub`] fans the same encoded commit bytes out to
//!   follower connections (see `docs/WIRE.md` § Replication): one
//!   encoding per commit serves the disk record and every follower's
//!   wire frame.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/snapshot.unn            last durable checkpoint image
//! <dir>/wal-<first-epoch>.seg   WAL segments, named by first epoch
//!
//! image   := header body
//! header  := IMAGE_MAGIC (8 bytes) epoch:u64le count:u64le
//!            body_len:u64le body_crc32:u32le header_crc32:u32le
//! body    := trajectory*                        (count of them, wire
//!                                                encoding, ascending oid)
//!
//! segment := WAL_MAGIC (8 bytes) record*
//! record  := len:u32le crc32:u32le payload(len)
//! payload := epoch:u64le count:u32le op*        (wire commit body)
//! ```
//!
//! Every CRC is IEEE 802.3 (the zlib polynomial): a record's over its
//! payload, `body_crc32` over the image body, `header_crc32` over the 36
//! header bytes before it. The image body is byte-for-byte the object
//! list a follower's `Resync` carries for the same snapshot
//! (`docs/WIRE.md`), so disk and wire share one trajectory encoding;
//! unlike a frame it is not bounded by `MAX_FRAME_LEN`. The header alone
//! says where the log resumes, so [`Wal::open`] never reads the body.
//! Recovery reads the body in two streamed passes through one fixed
//! buffer, never holding it whole: the first verifies its length and
//! checksum, and only then does the second decode it. An
//! image that is damaged anywhere — a flipped bit, a short or a long
//! file — refuses recovery, and so does a file that is not an image at
//! all, such as the line-oriented text format older builds wrote.
//!
//! The same image is the file format of a stored MOD outside a WAL
//! directory: [`save_image`] writes a store snapshot with the
//! checkpoint writer and [`load_image`] reads one back through the
//! recovery reader (`unn-cli save` / `load`), so a saved file can serve
//! as a directory's `snapshot.unn` and the other way round.
//!
//! Recovery replays records strictly in epoch order and rejects gaps:
//! a record chain `watermark+1, watermark+2, …` must be contiguous, so
//! a recovered store's answers are bit-identical to an uninterrupted
//! run at the same epoch (`tests/durability.rs` holds this under
//! random churn and random kill points).

use crate::delta::ReplOp;
use crate::net::wire::{
    decode_commit_body, decode_trajectory, put_trajectory, trajectory_len, MIN_TRAJECTORY_LEN,
    TAG_REPL_DELTA,
};
use crate::snapshot::QuerySnapshot;
use crate::store::ModStore;
use crate::telemetry::{self, Telemetry, TraceEvent, TraceStage};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use unn_traj::uncertain::UncertainTrajectory;

/// First bytes of every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"UNNWAL1\n";

/// Upper bound on one WAL record's payload — the same bound the wire
/// decoder enforces on a frame, since the bytes are shared.
pub const MAX_WAL_RECORD: u32 = crate::net::wire::MAX_FRAME_LEN;

/// File name of the checkpoint image inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.unn";

/// First bytes of every checkpoint image.
pub const IMAGE_MAGIC: &[u8; 8] = b"UNNIMG1\n";

/// Byte length of a checkpoint image's header.
pub const IMAGE_HEADER_LEN: usize = 40;

/// When to force WAL bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended commit: no committed epoch is ever
    /// lost to a crash, at ~one disk round-trip per commit.
    Always,
    /// `fsync` after every `n` appended commits: bounds loss to the
    /// last `n - 1` commits, at one disk round-trip per `n` commits.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS page cache decides. Survives
    /// process kills (the data is in kernel buffers) but not power
    /// loss.
    Os,
}

impl FsyncPolicy {
    /// Parses the CLI rendering: `always`, `os`, or `every-<n>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "os" => Some(FsyncPolicy::Os),
            _ => s
                .strip_prefix("every-")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Os => write!(f, "os"),
        }
    }
}

/// Tuning of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Fsync cadence (default `every-8`).
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes (default 8 MiB).
    pub segment_bytes: u64,
    /// Checkpoint automatically every this many appended commits
    /// (default 4096; `0` disables automatic checkpoints — explicit
    /// [`Wal::checkpoint`] calls only).
    pub checkpoint_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::EveryN(8),
            segment_bytes: 8 * 1024 * 1024,
            checkpoint_every: 4096,
        }
    }
}

/// Errors raised by WAL operations and recovery.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A WAL record that cannot be explained by a torn tail write: a
    /// checksum mismatch, an over-bound length, a record chain gap, or
    /// an incomplete record in a non-final segment.
    Corrupt {
        /// The segment file.
        segment: PathBuf,
        /// Byte offset of the offending record.
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// The checkpoint image cannot be trusted: wrong magic (a file that
    /// is no image, such as the text format older builds wrote), a
    /// checksum mismatch, a file shorter or longer than its header
    /// says, or an undecodable body.
    Snapshot {
        /// The image file.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                message,
            } => write!(
                f,
                "corrupt wal record in {} at byte {offset}: {message}",
                segment.display()
            ),
            WalError::Snapshot { path, message } => {
                write!(f, "checkpoint image {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } | WalError::Snapshot { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Point-in-time counters of a [`Wal`] (the CLI's `store wal-status`
/// view).
#[derive(Debug, Clone, PartialEq)]
pub struct WalStatus {
    /// The WAL directory.
    pub dir: PathBuf,
    /// Fsync cadence in force.
    pub fsync: FsyncPolicy,
    /// Live segment files (including the append tail).
    pub segments: usize,
    /// Total bytes across live segments.
    pub total_bytes: u64,
    /// Epoch of the last appended record (`0` before any append).
    pub last_epoch: u64,
    /// Epoch watermark of the last checkpoint (`0` before any).
    pub checkpoint_epoch: u64,
    /// Records appended since open.
    pub appended: u64,
    /// Explicit `fsync` calls issued since open.
    pub syncs: u64,
    /// Checkpoints written since open.
    pub checkpoints: u64,
    /// Append/checkpoint failures absorbed since open (the store keeps
    /// serving; durability is degraded until the next clean append —
    /// see [`Wal::last_error`]).
    pub io_errors: u64,
}

struct WalInner {
    /// Append handle of the tail segment.
    file: File,
    /// `(first_epoch, path)` of every live segment, ascending; the last
    /// entry is the tail `file` appends to.
    segments: Vec<(u64, PathBuf)>,
    /// Bytes written to the tail segment (header included).
    tail_bytes: u64,
    /// Bytes across all non-tail segments.
    sealed_bytes: u64,
    last_epoch: u64,
    checkpoint_epoch: u64,
    /// Appends since the last fsync.
    unsynced: u32,
    /// Appends since the checkpoint cadence last came due (see
    /// [`Wal::take_checkpoint_due`]).
    since_checkpoint: u64,
    appended: u64,
    syncs: u64,
    checkpoints: u64,
    io_errors: u64,
    last_error: Option<String>,
}

/// An open write-ahead log: the durable sink a store journals every
/// commit into (attach with [`ModStore::attach_wal`]), plus the
/// checkpoint driver.
///
/// All methods take `&self`; the inner state is mutex-guarded so the
/// store can journal from any committing thread. Appends happen under
/// the store's delta-log lock, which serializes them in epoch order.
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    inner: Mutex<WalInner>,
    /// Guards against re-entrant checkpoints (a checkpoint's own
    /// bookkeeping must not trigger another).
    checkpointing: AtomicBool,
    /// The attached store's telemetry registry (set by
    /// [`ModStore::attach_wal`]), recording `wal_append_ns` /
    /// `wal_fsync_ns` and WAL trace events. `None` until attached.
    telemetry: Mutex<Option<Arc<Telemetry>>>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (creating if needed) the WAL in `dir` for appending.
    ///
    /// Call [`recover`] first when the directory may hold prior state:
    /// recovery validates the record chain and truncates a torn tail,
    /// which `open` assumes has happened (it seeks to the tail
    /// segment's end and appends). Of the checkpoint image only the
    /// header is read (and checksum-verified) — it holds the watermark.
    pub fn open(dir: &Path, options: WalOptions) -> Result<Arc<Wal>, WalError> {
        fs::create_dir_all(dir)?;
        let checkpoint_epoch = match open_image(&dir.join(SNAPSHOT_FILE))? {
            Some((_, header)) => header.epoch,
            None => 0,
        };
        // Only the tail segment's records matter (appends continue after
        // its last one); sealed segments are known by name and size.
        let mut end = LogEnd::at_checkpoint(checkpoint_epoch);
        let segments = list_segments(dir)?;
        let last_index = segments.len().wrapping_sub(1);
        for (i, (first, path)) in segments.into_iter().enumerate() {
            if i != last_index {
                let len = fs::metadata(&path)?.len();
                end.push(first, path, len, None);
                continue;
            }
            let scan = read_segment(&path, true)?;
            if let Some(t) = scan.torn {
                return Err(WalError::Corrupt {
                    segment: path,
                    offset: t.offset,
                    message: format!("torn tail not recovered before open: {}", t.reason),
                });
            }
            let last_record = scan.records.last().map(|r| r.epoch);
            end.push(first, path, scan.len, last_record);
        }
        Wal::open_at(dir, options, checkpoint_epoch, end)
    }

    /// Opens the append handle at a log end some scan has already
    /// established — [`Wal::open`]'s tail scan, or the full replay
    /// [`open_store`] has just done in [`recover`], which therefore reads
    /// no record twice.
    fn open_at(
        dir: &Path,
        options: WalOptions,
        checkpoint_epoch: u64,
        end: LogEnd,
    ) -> Result<Arc<Wal>, WalError> {
        let LogEnd {
            mut segments,
            sealed_bytes,
            tail_bytes,
            last_epoch,
        } = end;
        let (file, tail_bytes) = match segments.last() {
            Some((_, path)) => (
                OpenOptions::new().append(true).read(true).open(path)?,
                tail_bytes,
            ),
            None => {
                let first = last_epoch + 1;
                let path = segment_path(dir, first);
                let mut f = OpenOptions::new()
                    .create_new(true)
                    .append(true)
                    .read(true)
                    .open(&path)?;
                f.write_all(WAL_MAGIC)?;
                segments.push((first, path));
                (f, WAL_MAGIC.len() as u64)
            }
        };
        Ok(Arc::new(Wal {
            dir: dir.to_path_buf(),
            options,
            inner: Mutex::new(WalInner {
                file,
                segments,
                tail_bytes,
                sealed_bytes,
                last_epoch,
                checkpoint_epoch,
                unsynced: 0,
                since_checkpoint: 0,
                appended: 0,
                syncs: 0,
                checkpoints: 0,
                io_errors: 0,
                last_error: None,
            }),
            checkpointing: AtomicBool::new(false),
            telemetry: Mutex::new(None),
        }))
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Points the WAL at a store's telemetry registry so appends and
    /// fsyncs record their latency there. Called by
    /// [`ModStore::attach_wal`].
    pub fn set_telemetry(&self, telemetry: &Arc<Telemetry>) {
        *self.telemetry.lock().unwrap() = Some(Arc::clone(telemetry));
    }

    /// Appends one commit's encoded body (`epoch:u64le count:u32le
    /// op*`) as a checksummed record, rotating and fsyncing per the
    /// options. Called by the store's journal hook under its delta
    /// lock, so records land in epoch order.
    pub fn append(&self, epoch: u64, body: &[u8]) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap();
        let result = self.append_locked(&mut inner, epoch, body);
        if let Err(e) = &result {
            inner.io_errors += 1;
            inner.last_error = Some(e.to_string());
        }
        result
    }

    /// [`Wal::append`] for the store's commit path: failures are
    /// absorbed into the status counters instead of propagating, so a
    /// full disk degrades durability without taking writes down. The
    /// CLI's `store wal-status` surfaces [`WalStatus::io_errors`] and
    /// [`Wal::last_error`].
    pub fn append_quiet(&self, epoch: u64, body: &[u8]) {
        let _ = self.append(epoch, body);
    }

    fn append_locked(&self, inner: &mut WalInner, epoch: u64, body: &[u8]) -> Result<(), WalError> {
        if body.len() > MAX_WAL_RECORD as usize {
            return Err(WalError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "wal record of {} bytes exceeds the {MAX_WAL_RECORD} byte bound",
                    body.len()
                ),
            )));
        }
        if inner.tail_bytes >= self.options.segment_bytes {
            self.rotate_locked(inner, epoch)?;
        }
        let mut record = Vec::with_capacity(8 + body.len());
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(body).to_le_bytes());
        record.extend_from_slice(body);
        let stats = (telemetry::metrics_on() || telemetry::trace_on())
            .then(|| self.telemetry.lock().unwrap().clone())
            .flatten();
        let write_started = stats.as_ref().map(|_| std::time::Instant::now());
        inner.file.write_all(&record)?;
        let write_ns = write_started.map(|t0| t0.elapsed().as_nanos() as u64);
        inner.tail_bytes += record.len() as u64;
        inner.last_epoch = epoch;
        inner.appended += 1;
        inner.since_checkpoint += 1;
        inner.unsynced += 1;
        let sync_now = match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.unsynced >= n,
            FsyncPolicy::Os => false,
        };
        if sync_now {
            let sync_started = stats.as_ref().map(|_| std::time::Instant::now());
            inner.file.sync_data()?;
            inner.unsynced = 0;
            inner.syncs += 1;
            if let (Some(t), Some(t0)) = (&stats, sync_started) {
                t.wal_fsync_ns.record(t0.elapsed().as_nanos() as u64);
            }
        }
        if let (Some(t), Some(dur_ns)) = (&stats, write_ns) {
            t.wal_append_ns.record(dur_ns);
            t.trace_event(TraceEvent {
                epoch,
                stage: TraceStage::WalAppend,
                share: 0,
                detail: body.len() as u64,
                dur_ns,
            });
        }
        Ok(())
    }

    /// Seals the tail segment and opens a fresh one whose name is the
    /// epoch of the next record it will hold.
    fn rotate_locked(&self, inner: &mut WalInner, next_epoch: u64) -> Result<(), WalError> {
        inner.file.sync_data()?;
        inner.unsynced = 0;
        let path = segment_path(&self.dir, next_epoch);
        let mut f = OpenOptions::new()
            .create_new(true)
            .append(true)
            .read(true)
            .open(&path)?;
        f.write_all(WAL_MAGIC)?;
        inner.sealed_bytes += inner.tail_bytes;
        inner.file = f;
        inner.tail_bytes = WAL_MAGIC.len() as u64;
        inner.segments.push((next_epoch, path));
        Ok(())
    }

    /// Forces buffered records to stable storage regardless of policy.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap();
        inner.file.sync_data()?;
        inner.unsynced = 0;
        inner.syncs += 1;
        Ok(())
    }

    /// Writes a checkpoint image of `store` (streamed from its snapshot
    /// to a temp file, fsynced, renamed into place) and prunes every
    /// segment whose records the new watermark covers. Returns the
    /// watermark epoch.
    ///
    /// Runs with **no store lock held** — it takes a snapshot, which
    /// acquires the store's read lock. The store calls this after its
    /// commit lock drops, when [`Wal::take_checkpoint_due`] says so. Errors
    /// are also absorbed into the status counters, like
    /// [`Wal::append_quiet`].
    pub fn checkpoint(&self, store: &ModStore) -> Result<u64, WalError> {
        if self.checkpointing.swap(true, Ordering::AcqRel) {
            return Ok(self.status().checkpoint_epoch); // one at a time
        }
        let result = self.checkpoint_inner(store);
        self.checkpointing.store(false, Ordering::Release);
        if let Err(e) = &result {
            let mut inner = self.inner.lock().unwrap();
            inner.io_errors += 1;
            inner.last_error = Some(e.to_string());
        }
        result
    }

    fn checkpoint_inner(&self, store: &ModStore) -> Result<u64, WalError> {
        let snap = store.snapshot();
        let epoch = snap.epoch();
        install_image(&self.dir, epoch, snap.objects())?;
        let mut inner = self.inner.lock().unwrap();
        inner.checkpoint_epoch = epoch;
        inner.checkpoints += 1;
        // Seal the tail so the watermark can retire it too, then drop
        // every segment fully covered by the watermark: segment i is
        // prunable when the *next* segment starts at or before
        // watermark + 1 (every record recovery needs lives later).
        if inner.tail_bytes > WAL_MAGIC.len() as u64 && inner.last_epoch <= epoch {
            let next = inner.last_epoch + 1;
            self.rotate_locked(&mut inner, next)?;
        }
        while inner.segments.len() > 1 && inner.segments[1].0 <= epoch + 1 {
            let (_, path) = inner.segments.remove(0);
            inner.sealed_bytes = inner
                .sealed_bytes
                .saturating_sub(fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
            fs::remove_file(&path)?;
        }
        Ok(epoch)
    }

    /// `true` once per `checkpoint_every` appended commits: the committer
    /// that sees it owes one [`Wal::checkpoint`] before its commit counts
    /// as maintained. Taking it restarts the cadence at once, not when
    /// the image is installed, so a concurrent committer never owes the
    /// same checkpoint and commits appended while it runs count towards
    /// the next one: checkpoints come due at every multiple of the
    /// cadence, however the commits interleave.
    pub fn take_checkpoint_due(&self) -> bool {
        let every = self.options.checkpoint_every;
        if every == 0 {
            return false;
        }
        let mut inner = self.inner.lock().unwrap();
        let due = inner.since_checkpoint >= every;
        if due {
            inner.since_checkpoint = 0;
        }
        due
    }

    /// Current counters.
    pub fn status(&self) -> WalStatus {
        let inner = self.inner.lock().unwrap();
        WalStatus {
            dir: self.dir.clone(),
            fsync: self.options.fsync,
            segments: inner.segments.len(),
            total_bytes: inner.sealed_bytes + inner.tail_bytes,
            last_epoch: inner.last_epoch,
            checkpoint_epoch: inner.checkpoint_epoch,
            appended: inner.appended,
            syncs: inner.syncs,
            checkpoints: inner.checkpoints,
            io_errors: inner.io_errors,
        }
    }

    /// The last absorbed append/checkpoint failure, if any.
    pub fn last_error(&self) -> Option<String> {
        self.inner.lock().unwrap().last_error.clone()
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Epoch watermark of the loaded checkpoint image (`0` if none).
    pub snapshot_epoch: u64,
    /// Objects the checkpoint image held.
    pub snapshot_objects: usize,
    /// WAL records replayed (epoch above the watermark).
    pub replayed_records: u64,
    /// Delta ops inside the replayed records.
    pub replayed_ops: u64,
    /// The store's epoch after replay.
    pub recovered_epoch: u64,
    /// A torn tail record was found and truncated away — reported
    /// loudly, never silent. `None` means the log ended cleanly.
    pub torn_tail: Option<TornTail>,
}

/// A torn (partially written) record at the end of the final segment,
/// removed by recovery so appending can resume at a record boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TornTail {
    /// The segment file that was truncated.
    pub segment: PathBuf,
    /// The byte offset the file was truncated to (the torn record's
    /// start).
    pub offset: u64,
    /// Why the tail was deemed torn.
    pub reason: String,
}

/// Rebuilds a store from a WAL directory: loads the checkpoint image
/// (if any), replays every record with an epoch above the watermark in
/// order, and physically truncates a torn tail record (reported in the
/// result). Fails loudly on anything tearing cannot explain — checksum
/// mismatches, chain gaps, damage in non-final segments.
///
/// The returned store has journaling detached; open a [`Wal`] on the
/// same directory and [`ModStore::attach_wal`] it to resume logging.
pub fn recover(dir: &Path) -> Result<(ModStore, RecoveryReport), WalError> {
    let store = ModStore::new();
    let report = recover_into(&store, dir)?;
    Ok((store, report))
}

/// [`recover`] into an existing (fresh) store — the hook for callers
/// that configure policies or attach consumers before recovery.
pub fn recover_into(store: &ModStore, dir: &Path) -> Result<RecoveryReport, WalError> {
    replay(store, dir).map(|(report, _)| report)
}

/// Where a directory's log ends — everything [`Wal::open_at`] needs to
/// resume appending, gathered by whichever scan read the segments.
struct LogEnd {
    /// `(first_epoch, path)` of every live segment, ascending.
    segments: Vec<(u64, PathBuf)>,
    /// Bytes across all non-tail segments.
    sealed_bytes: u64,
    /// Bytes of the tail segment (`0` without one).
    tail_bytes: u64,
    /// The epoch the next appended record must follow.
    last_epoch: u64,
}

impl LogEnd {
    /// The end of a log without segments: appends follow the image.
    fn at_checkpoint(checkpoint_epoch: u64) -> LogEnd {
        LogEnd {
            segments: Vec::new(),
            sealed_bytes: 0,
            tail_bytes: 0,
            last_epoch: checkpoint_epoch,
        }
    }

    /// Accounts for the next segment in ascending order, which becomes
    /// the tail: `len` valid bytes, ending with a record of epoch
    /// `last_record` (`None` for a segment holding none — its name then
    /// says which epoch it was opened for).
    fn push(&mut self, first: u64, path: PathBuf, len: u64, last_record: Option<u64>) {
        self.sealed_bytes += self.tail_bytes;
        self.tail_bytes = len;
        self.last_epoch = self
            .last_epoch
            .max(last_record.unwrap_or(first.saturating_sub(1)));
        self.segments.push((first, path));
    }
}

/// The body of [`recover_into`]; also reports where the log ends, so
/// [`open_store`] resumes appending without a second scan.
fn replay(store: &ModStore, dir: &Path) -> Result<(RecoveryReport, LogEnd), WalError> {
    let mut report = RecoveryReport::default();
    let image_path = dir.join(SNAPSHOT_FILE);
    if let Some((file, header)) = open_image(&image_path)? {
        let objects = read_image_body(&image_path, file, &header)?;
        report.snapshot_epoch = header.epoch;
        report.snapshot_objects = objects.len();
        store.restore(objects, header.epoch);
    }
    let mut end = LogEnd::at_checkpoint(report.snapshot_epoch);
    let segments = list_segments(dir)?;
    let last_index = segments.len().wrapping_sub(1);
    for (i, (first, path)) in segments.into_iter().enumerate() {
        let is_tail = i == last_index;
        let scan = read_segment(&path, is_tail)?;
        if let Some(t) = &scan.torn {
            // Tearing is only explicable at the end of the final
            // segment; read_segment already rejects it elsewhere.
            // Truncate so the writer resumes at a record boundary.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(t.offset)?;
            f.sync_all()?;
        }
        let last_record = scan.records.last().map(|r| r.epoch);
        for record in scan.records {
            let current = store.epoch();
            if record.epoch <= current {
                continue; // already folded into the checkpoint image
            }
            if record.epoch != current + 1 {
                return Err(WalError::Corrupt {
                    segment: path,
                    offset: record.offset,
                    message: format!(
                        "record chain gap: epoch {} after {} (missing commits cannot \
                         be replayed silently)",
                        record.epoch, current
                    ),
                });
            }
            report.replayed_records += 1;
            report.replayed_ops += record.ops.len() as u64;
            store.apply_replicated(&record.ops);
        }
        report.torn_tail = report.torn_tail.take().or(scan.torn);
        end.push(first, path, scan.len, last_record);
    }
    report.recovered_epoch = store.epoch();
    Ok((report, end))
}

/// One decoded WAL record.
struct WalRecord {
    offset: u64,
    epoch: u64,
    ops: Vec<ReplOp>,
}

/// What [`read_segment`] found in one segment file.
struct SegmentScan {
    records: Vec<WalRecord>,
    /// An incomplete record at EOF (only with `allow_torn_tail`).
    torn: Option<TornTail>,
    /// Bytes up to the end of the last complete record — the file's
    /// length, or the torn record's offset.
    len: u64,
}

/// Reads and verifies one segment. With `allow_torn_tail`, an
/// incomplete record at EOF yields a [`TornTail`] instead of an error;
/// all other damage — bad magic, over-bound lengths, checksum
/// mismatches, undecodable payloads — is [`WalError::Corrupt`].
fn read_segment(path: &Path, allow_torn_tail: bool) -> Result<SegmentScan, WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let corrupt = |offset: u64, message: String| WalError::Corrupt {
        segment: path.to_path_buf(),
        offset,
        message,
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt(0, "bad segment magic".to_string()));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        // An incomplete record at EOF ends the scan: a reported tear
        // where one is explicable, corruption elsewhere.
        let torn = |records: Vec<WalRecord>, reason: String| {
            if !allow_torn_tail {
                return Err(corrupt(pos as u64, reason));
            }
            Ok(SegmentScan {
                records,
                len: pos as u64,
                torn: Some(TornTail {
                    segment: path.to_path_buf(),
                    offset: pos as u64,
                    reason,
                }),
            })
        };
        if bytes.len() - pos < 8 {
            let reason = format!("{} header bytes at EOF", bytes.len() - pos);
            return torn(records, reason);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if len > MAX_WAL_RECORD {
            return Err(corrupt(
                pos as u64,
                format!("record length {len} exceeds the {MAX_WAL_RECORD} byte bound"),
            ));
        }
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let body_start = pos + 8;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            let reason = format!(
                "record claims {len} payload bytes, {} present",
                bytes.len() - body_start
            );
            return torn(records, reason);
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            // A complete record with a bad checksum is corruption, not
            // tearing — appends are sequential, so a crash can only
            // shorten the file.
            return Err(corrupt(pos as u64, "checksum mismatch".to_string()));
        }
        let (epoch, ops) = decode_commit_body(body)
            .map_err(|e| corrupt(pos as u64, format!("undecodable payload: {e}")))?;
        records.push(WalRecord {
            offset: pos as u64,
            epoch,
            ops,
        });
        pos = body_end;
    }
    Ok(SegmentScan {
        records,
        torn: None,
        len: bytes.len() as u64,
    })
}

/// Recovers (or initializes) a store from `dir` and reattaches an open
/// WAL to it — the one-call path `unn-cli serve --wal` uses. The image
/// and every segment are read exactly once.
pub fn open_store(
    dir: &Path,
    options: WalOptions,
) -> Result<(ModStore, Arc<Wal>, RecoveryReport), WalError> {
    fs::create_dir_all(dir)?;
    let store = ModStore::new();
    let (report, end) = replay(&store, dir)?;
    let wal = Wal::open_at(dir, options, report.snapshot_epoch, end)?;
    store.attach_wal(&wal);
    Ok((store, wal, report))
}

fn segment_path(dir: &Path, first_epoch: u64) -> PathBuf {
    dir.join(format!("wal-{first_epoch:020}.seg"))
}

/// Live segments ascending by first epoch (lexicographic order of the
/// zero-padded names).
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(epoch) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((epoch, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

// ---------------------------------------------------------------------
// Checkpoint image
// ---------------------------------------------------------------------

/// The fixed-size header of a checkpoint image, decoded and verified.
#[derive(Debug, Clone, Copy)]
struct ImageHeader {
    /// The commit epoch the image is current at (the recovery
    /// watermark: WAL records at or below it are already folded in).
    epoch: u64,
    /// Trajectories in the body.
    count: u64,
    /// Byte length of the body — the file is exactly header + body.
    body_len: u64,
    /// CRC-32 of the body.
    body_crc: u32,
}

impl ImageHeader {
    /// Bytes the header's own CRC covers: everything before it.
    const CHECKED: usize = IMAGE_HEADER_LEN - 4;

    fn encode(&self) -> [u8; IMAGE_HEADER_LEN] {
        let mut h = [0u8; IMAGE_HEADER_LEN];
        h[..8].copy_from_slice(IMAGE_MAGIC);
        h[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        h[16..24].copy_from_slice(&self.count.to_le_bytes());
        h[24..32].copy_from_slice(&self.body_len.to_le_bytes());
        h[32..36].copy_from_slice(&self.body_crc.to_le_bytes());
        let crc = crc32(&h[..Self::CHECKED]);
        h[Self::CHECKED..].copy_from_slice(&crc.to_le_bytes());
        h
    }

    /// Decodes the first bytes of an image file; `Err` says what is
    /// wrong with them.
    fn decode(bytes: &[u8]) -> Result<ImageHeader, String> {
        // The magic first, so a file that is no image at all — however
        // short — is refused as such.
        if !IMAGE_MAGIC.starts_with(&bytes[..bytes.len().min(IMAGE_MAGIC.len())]) {
            return Err(
                "bad image magic: not a checkpoint image (the text format older builds \
                 wrote is no longer read; only a build that still has \
                 `unn-cli store convert` can rewrite it)"
                    .to_string(),
            );
        }
        let Some(h) = bytes.get(..IMAGE_HEADER_LEN) else {
            return Err(format!(
                "truncated header: {} of {IMAGE_HEADER_LEN} bytes",
                bytes.len()
            ));
        };
        let u64_at = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().unwrap());
        let u32_at = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().unwrap());
        if crc32(&h[..Self::CHECKED]) != u32_at(Self::CHECKED) {
            return Err("header checksum mismatch".to_string());
        }
        Ok(ImageHeader {
            epoch: u64_at(8),
            count: u64_at(16),
            body_len: u64_at(24),
            body_crc: u32_at(32),
        })
    }
}

/// The refusal of the image at `path`.
fn refuse_image(path: &Path, message: String) -> WalError {
    WalError::Snapshot {
        path: path.to_path_buf(),
        message,
    }
}

/// Opens the image at `path` and reads its header: magic and header
/// checksum verified, and the file exactly as long as the header says
/// (so a truncated or extended image is refused before its body is
/// read). `None` when there is no image. The file is left positioned at
/// the body.
fn open_image(path: &Path) -> Result<Option<(File, ImageHeader)>, WalError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    let mut head = Vec::with_capacity(IMAGE_HEADER_LEN);
    (&file)
        .take(IMAGE_HEADER_LEN as u64)
        .read_to_end(&mut head)?;
    let refuse = |message| refuse_image(path, message);
    let header = ImageHeader::decode(&head).map_err(refuse)?;
    if (IMAGE_HEADER_LEN as u64).checked_add(header.body_len) != Some(file_len) {
        return Err(refuse(format!(
            "header promises {} body bytes, the file holds {}",
            header.body_len,
            file_len.saturating_sub(IMAGE_HEADER_LEN as u64)
        )));
    }
    Ok(Some((file, header)))
}

/// Bytes the image body is read in: large enough that a `read` call and
/// a checksum step each cover many trajectories, small enough that the
/// body never has to be in memory whole.
const IMAGE_CHUNK: usize = 64 * 1024;

/// Reads the body of the image [`open_image`] has just opened, in two
/// streamed passes over the one file handle through one
/// [`IMAGE_CHUNK`]-sized buffer. The first pass checks the body's length
/// and then its checksum, so the body is verified **before** anything is
/// decoded; the second seeks back and decodes the trajectories
/// (validated, ascending ids, exactly `count` of them, no trailing bytes)
/// straight into the `Arc`s the store keeps.
fn read_image_body(
    path: &Path,
    file: File,
    header: &ImageHeader,
) -> Result<Vec<Arc<UncertainTrajectory>>, WalError> {
    read_image_body_in(path, file, header, IMAGE_CHUNK)
}

/// [`read_image_body`] through a buffer of `chunk` bytes.
fn read_image_body_in(
    path: &Path,
    mut file: File,
    header: &ImageHeader,
    chunk: usize,
) -> Result<Vec<Arc<UncertainTrajectory>>, WalError> {
    let refuse = |message| refuse_image(path, message);
    let mut buf = vec![0; chunk];
    let (mut read, mut crc) = (0u64, !0);
    loop {
        let n = read_some(&mut file, &mut buf)?;
        if n == 0 {
            break;
        }
        crc = crc32_update(crc, &buf[..n]);
        read += n as u64;
    }
    if read != header.body_len {
        return Err(refuse(format!(
            "header promises {} body bytes, {read} read",
            header.body_len
        )));
    }
    if !crc != header.body_crc {
        return Err(refuse("body checksum mismatch".to_string()));
    }
    file.seek(SeekFrom::Start(IMAGE_HEADER_LEN as u64))?;
    decode_image_body(path, &mut file, header, buf)
}

/// The second pass of [`read_image_body_in`]: decodes `header.count`
/// trajectories from the `header.body_len` verified bytes `file` is
/// positioned at, refilling `buf` as it goes. Each trajectory is decoded
/// whole from the front of the undecoded part of `buf`; one that
/// straddles its end is carried over to the front and completed by the
/// next read, and `buf` grows only for a trajectory longer than it.
fn decode_image_body(
    path: &Path,
    file: &mut File,
    header: &ImageHeader,
    mut buf: Vec<u8>,
) -> Result<Vec<Arc<UncertainTrajectory>>, WalError> {
    let bad = |message: String| refuse_image(path, format!("undecodable body: {message}"));
    // Bounded by the body's bytes before anything is allocated for it.
    let count = usize::try_from(header.count)
        .ok()
        .filter(|&n| n as u64 <= header.body_len / MIN_TRAJECTORY_LEN as u64)
        .ok_or_else(|| {
            bad(format!(
                "count {} overruns the {} body bytes",
                header.count, header.body_len
            ))
        })?;
    let mut objects: Vec<Arc<UncertainTrajectory>> = Vec::with_capacity(count);
    // `buf[start..end]` is read and not yet decoded; it begins at body
    // byte `offset`, and `unread` body bytes are still in the file.
    let (mut start, mut end, mut offset, mut unread) = (0, 0, 0u64, header.body_len);
    while objects.len() < count {
        let pending = &buf[start..end];
        let at = |what: String| bad(format!("object {} at byte {offset}: {what}", objects.len()));
        let need = match trajectory_len(pending).map_err(|e| at(e.to_string()))? {
            Some(len) if len <= pending.len() => {
                let tr = decode_trajectory(&pending[..len]).map_err(|e| at(e.to_string()))?;
                if objects.last().is_some_and(|prev| prev.oid() >= tr.oid()) {
                    return Err(at("ids not ascending".to_string()));
                }
                objects.push(Arc::new(tr));
                start += len;
                offset += len as u64;
                continue;
            }
            Some(len) => len,
            None => pending.len() + 1,
        };
        if need as u64 > pending.len() as u64 + unread {
            return Err(at(format!("runs past the body's end, {count} promised")));
        }
        buf.copy_within(start..end, 0);
        (start, end) = (0, end - start);
        if buf.len() < need {
            buf.resize(need, 0);
        }
        let room = (buf.len() - end).min(usize::try_from(unread).unwrap_or(usize::MAX));
        let n = read_some(file, &mut buf[end..end + room])?;
        if n == 0 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        end += n;
        unread -= n as u64;
    }
    match (end - start) as u64 + unread {
        0 => Ok(objects),
        trailing => Err(bad(format!(
            "{trailing} trailing bytes after {count} objects"
        ))),
    }
}

/// One `read` call, retried when a signal interrupts it.
fn read_some(file: &mut File, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match file.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// A [`Write`] adapter keeping the CRC-32 register and the length of
/// everything written through it.
struct CrcWriter<W> {
    inner: W,
    /// The running register ([`crc32_update`]); complement to finish.
    crc: u32,
    len: u64,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: !0,
            len: 0,
        }
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Streams an image body — each trajectory in the wire encoding, one
/// small reused buffer, never the whole payload in memory.
fn write_image_body<W: Write>(w: &mut W, objects: &[UncertainTrajectory]) -> io::Result<()> {
    let mut one = Vec::with_capacity(256);
    for tr in objects {
        one.clear();
        put_trajectory(&mut one, tr);
        w.write_all(&one)?;
    }
    Ok(())
}

/// Writes a complete image file at `path` and fsyncs it.
fn write_image(path: &Path, epoch: u64, objects: &[UncertainTrajectory]) -> io::Result<()> {
    let mut file = File::create(path)?;
    // The header carries the body's length and checksum, which are known
    // only once the body has streamed past: reserve its bytes now, fill
    // them in last.
    file.write_all(&[0; IMAGE_HEADER_LEN])?;
    // The checksum sits under the buffer, so it sees whole buffered
    // chunks — long enough for its three-lane path — not one trajectory
    // at a time.
    let mut body = BufWriter::with_capacity(IMAGE_CHUNK, CrcWriter::new(file));
    write_image_body(&mut body, objects)?;
    let body = body.into_inner().map_err(|e| e.into_error())?;
    let header = ImageHeader {
        epoch,
        count: objects.len() as u64,
        body_len: body.len,
        body_crc: !body.crc,
    };
    let mut file = body.inner;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header.encode())?;
    file.sync_all()
}

/// Puts a new image of `objects` (ascending by id) at `epoch` in place
/// in `dir`: written to a temp file, fsynced, renamed over the old
/// image, and the directory fsynced.
fn install_image(dir: &Path, epoch: u64, objects: &[UncertainTrajectory]) -> io::Result<()> {
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    write_image(&tmp, epoch, objects)?;
    // The rename is the commit point: a crash before it leaves the old
    // image in place, after it the new watermark rules.
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // Make the rename durable before the caller unlinks any segment the
    // new watermark covers: both are directory updates, and without this
    // barrier a power loss may keep the unlinks but not the rename — the
    // old watermark with its records gone, a chain gap recovery must
    // refuse. (A directory fsync, not a WAL fsync: `syncs` does not
    // count it.)
    File::open(dir)?.sync_all()
}

/// Writes `snapshot` to `path` as a checkpoint image at the snapshot's
/// epoch — the file [`Wal::checkpoint`] installs as `snapshot.unn`,
/// written in place and fsynced. This is `unn-cli save`.
pub fn save_image(path: &Path, snapshot: &QuerySnapshot) -> Result<(), WalError> {
    Ok(write_image(path, snapshot.epoch(), snapshot.objects())?)
}

/// Reads the checkpoint image at `path` through the recovery reader:
/// header, length and body checksum verified before anything is
/// decoded, ids ascending. Returns the image's epoch and objects. A
/// file that is missing, damaged or no image at all is an error. This
/// is `unn-cli load`.
pub fn load_image(path: &Path) -> Result<(u64, Vec<UncertainTrajectory>), WalError> {
    let (file, header) =
        open_image(path)?.ok_or_else(|| refuse_image(path, "no such file".to_string()))?;
    let objects = read_image_body(path, file, &header)?;
    let owned = objects
        .into_iter()
        .map(|tr| Arc::try_unwrap(tr).unwrap_or_else(|tr| (*tr).clone()));
    Ok((header.epoch, owned.collect()))
}

// ---------------------------------------------------------------------
// Replication fan-out
// ---------------------------------------------------------------------

/// Builds the complete wire image of a [`Frame::ReplDelta`] from a
/// commit body already encoded for the WAL: `len:u32le tag body` —
/// the encode-once bridge between disk and socket. `None` when the
/// frame would exceed the wire bound (the caller marks followers
/// lagged; they resync via snapshot).
///
/// [`Frame::ReplDelta`]: crate::net::Frame::ReplDelta
pub fn repl_frame_bytes(body: &[u8]) -> Option<Arc<[u8]>> {
    let payload_len = 1 + body.len();
    if payload_len > crate::net::wire::MAX_FRAME_LEN as usize {
        return None;
    }
    let mut bytes = Vec::with_capacity(4 + payload_len);
    bytes.extend_from_slice(&(payload_len as u32).to_le_bytes());
    bytes.push(TAG_REPL_DELTA);
    bytes.extend_from_slice(body);
    Some(bytes.into())
}

/// Fan-out hub for follower replication: the store publishes each
/// commit's encoded [`Frame::ReplDelta`] bytes once, and every
/// registered [`FollowerFeed`] (one per following connection) enqueues
/// the same `Arc<[u8]>` — the encode-once contract the subscription
/// fan-out already follows, applied to raw commits.
///
/// A feed that overflows its capacity is **cleared** and marked lagged
/// (unlike answer deltas, commit frames cannot squash — a gap breaks
/// the epoch chain), and the connection pushes a `ReplLagged` notice;
/// the follower then re-issues `FOLLOW` at its current epoch.
///
/// [`Frame::ReplDelta`]: crate::net::Frame::ReplDelta
#[derive(Default)]
pub struct ReplicationHub {
    followers: Mutex<Vec<Weak<FollowerFeed>>>,
    wake: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Commits fanned out to at least one follower.
    published: AtomicU64,
}

impl fmt::Debug for ReplicationHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicationHub")
            .field("published", &self.published.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ReplicationHub {
    /// An empty hub.
    pub fn new() -> Arc<ReplicationHub> {
        Arc::new(ReplicationHub::default())
    }

    /// Installs the hook nudging the event loop after a publish (the
    /// `poll(2)` server's self-pipe waker).
    pub fn set_wake_hook(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.wake.lock().unwrap() = Some(hook);
    }

    /// Registers a follower feed bounded to `capacity` queued frames.
    pub fn register(&self, capacity: usize) -> Arc<FollowerFeed> {
        let feed = Arc::new(FollowerFeed {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            lagged: AtomicBool::new(false),
            lead_epoch: AtomicU64::new(0),
        });
        self.followers.lock().unwrap().push(Arc::downgrade(&feed));
        feed
    }

    /// `true` when at least one follower is attached (checked by the
    /// store before encoding a frame nobody would receive).
    pub fn has_followers(&self) -> bool {
        let mut followers = self.followers.lock().unwrap();
        followers.retain(|w| w.strong_count() > 0);
        !followers.is_empty()
    }

    /// Enqueues one commit's frame bytes on every live follower and
    /// wakes the delivery loop. `frame = None` marks every follower
    /// lagged (an over-bound commit that cannot travel as one frame).
    pub fn publish(&self, epoch: u64, frame: Option<&Arc<[u8]>>) {
        let mut any = false;
        {
            let mut followers = self.followers.lock().unwrap();
            followers.retain(|w| match w.upgrade() {
                Some(feed) => {
                    feed.push(epoch, frame.cloned());
                    any = true;
                    true
                }
                None => false,
            });
        }
        if any {
            self.published.fetch_add(1, Ordering::Relaxed);
            let hook = self.wake.lock().unwrap().clone();
            if let Some(hook) = hook {
                hook();
            }
        }
    }

    /// Commits fanned out so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Worst-case follower lag right now: the `(queued frames, queued
    /// bytes)` of the most backlogged live feed — the store samples this
    /// after each publish into the `repl_lag_epochs` / `repl_lag_bytes`
    /// telemetry gauges (queued frames = epochs behind, since every
    /// commit is one frame).
    pub fn max_lag(&self) -> (u64, u64) {
        let followers = self.followers.lock().unwrap();
        followers
            .iter()
            .filter_map(Weak::upgrade)
            .map(|feed| feed.lag())
            .fold((0, 0), |acc, lag| (acc.0.max(lag.0), acc.1.max(lag.1)))
    }
}

/// One following connection's bounded queue of encoded commit frames.
#[derive(Debug)]
pub struct FollowerFeed {
    queue: Mutex<VecDeque<Arc<[u8]>>>,
    capacity: usize,
    lagged: AtomicBool,
    /// The leader epoch last pushed (what a `ReplLagged` notice
    /// reports).
    lead_epoch: AtomicU64,
}

impl FollowerFeed {
    fn push(&self, epoch: u64, frame: Option<Arc<[u8]>>) {
        self.lead_epoch.store(epoch, Ordering::Relaxed);
        let mut queue = self.queue.lock().unwrap();
        match frame {
            Some(frame) if queue.len() < self.capacity => queue.push_back(frame),
            _ => {
                // Overflow (or an unshippable frame): the epoch chain
                // would gap, so drop everything pending and force a
                // re-follow instead of delivering a misleading prefix.
                queue.clear();
                self.lagged.store(true, Ordering::Release);
            }
        }
    }

    /// Dequeues the next pending frame.
    pub fn try_recv(&self) -> Option<Arc<[u8]>> {
        self.queue.lock().unwrap().pop_front()
    }

    /// Clears and returns the lagged flag, with the leader epoch to
    /// report; the caller emits one `ReplLagged` notice per overflow.
    pub fn take_lagged(&self) -> Option<u64> {
        if self.lagged.swap(false, Ordering::AcqRel) {
            Some(self.lead_epoch.load(Ordering::Relaxed))
        } else {
            None
        }
    }

    /// Pending frames.
    pub fn len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Current lag as `(queued frames, queued bytes)`.
    pub fn lag(&self) -> (u64, u64) {
        let queue = self.queue.lock().unwrap();
        (
            queue.len() as u64,
            queue.iter().map(|f| f.len() as u64).sum(),
        )
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().unwrap().is_empty()
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8 over three
// lanes, no deps.
// ---------------------------------------------------------------------

/// The polynomial, reflected: bit 31 is the coefficient of `x^0`.
const POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the register after byte `b` and then `k` zero bytes, which lets
/// eight input bytes be folded with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Bytes per lane of [`crc32_update`]'s three-lane path.
const LANE: usize = 4096;

/// `x^(8·LANE) mod P`: multiplying a register by it ([`gf2_mul`]) is
/// feeding it `LANE` zero bytes, which is how a lane's register is moved
/// past the lanes that follow it.
const LANE_SHIFT: u32 = x_pow_mod(8 * LANE);

/// `x^n mod P`, one multiplication by `x` per step.
const fn x_pow_mod(n: usize) -> u32 {
    let mut c = 1 << 31;
    let mut i = 0;
    while i < n {
        c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        i += 1;
    }
    c
}

/// `a · b mod P` over GF(2), both reflected (zlib's `multmodp`).
fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    for i in (0..32).rev() {
        if a >> i & 1 != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { POLY ^ (b >> 1) } else { b >> 1 };
    }
    p
}

/// The register after the eight bytes of `chunk`.
#[inline(always)]
fn crc32_step8(c: u32, chunk: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Feeds `bytes` into a running CRC register: start from `!0`,
/// complement the final value. The values are those of the
/// byte-at-a-time loop, so everything written before this was sliced
/// still verifies.
///
/// One register fed eight bytes per step waits on its own previous
/// value, so a long input is cut into blocks of three [`LANE`]s, fed to
/// three independent registers in one loop — the second and third
/// starting from zero, which CRC linearity allows — and folded as
/// `(ca · K ⊕ cb) · K ⊕ cd` with `K` = [`LANE_SHIFT`]. An input shorter
/// than a block (a WAL record), and the tail of a long one, take the
/// one-register loop.
fn crc32_update(mut c: u32, mut bytes: &[u8]) -> u32 {
    if bytes.len() >= 3 * LANE {
        (c, bytes) = crc32_lanes(c, bytes);
    }
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        c = crc32_step8(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// [`crc32_update`]'s three-lane path over the whole blocks of `bytes`:
/// the register after them, and the bytes left over.
fn crc32_lanes(mut c: u32, bytes: &[u8]) -> (u32, &[u8]) {
    let mut blocks = bytes.chunks_exact(3 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, d) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cd) = (c, 0, 0);
        for ((x, y), z) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(d.chunks_exact(8))
        {
            ca = crc32_step8(ca, x);
            cb = crc32_step8(cb, y);
            cd = crc32_step8(cd, z);
        }
        c = gf2_mul(gf2_mul(ca, LANE_SHIFT) ^ cb, LANE_SHIFT) ^ cd;
    }
    (c, blocks.remainder())
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};
    use unn_traj::trajectory::Oid;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unn_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop `crc32` was before slicing — the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic noise (SplitMix64), one byte per step.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        // Every length 0–64 starting at every address 0–7 mod 8, so the
        // eight-byte steps meet every alignment and every remainder.
        let buf = noise(8 + 7 + 64, 1);
        let to_aligned = (8 - buf.as_ptr() as usize % 8) % 8;
        for align in 0..8 {
            for len in 0..=64 {
                let slice = &buf[to_aligned + align..][..len];
                assert_eq!(slice.as_ptr() as usize % 8, align);
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{align}+{len}");
            }
        }
        let big = noise(1 << 20, 7);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        // Fed in pieces of any size, the register ends the same.
        let mut c = !0;
        for piece in big.chunks(189) {
            c = crc32_update(c, piece);
        }
        assert_eq!(!c, crc32(&big));
    }

    #[test]
    fn lane_shift_is_lane_zero_bytes() {
        // `1` (bit 31, reflected) fed `LANE` zero bytes byte by byte.
        let mut c = 1u32 << 31;
        for _ in 0..LANE {
            c = CRC_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
        }
        assert_eq!(c, LANE_SHIFT);
        assert_eq!(gf2_mul(1 << 31, LANE_SHIFT), LANE_SHIFT, "1 is the unit");
    }

    #[test]
    fn three_lane_crc32_equals_the_bytewise_loop() {
        // Lengths around one and two whole blocks, at every address
        // 0–7 mod 8: a block with no tail, with a short tail, with a
        // tail of several eight-byte steps, and just under a block.
        let lengths = (3 * LANE - 16..=3 * LANE + 64).chain(6 * LANE - 8..=6 * LANE + 8);
        let buf = noise(8 + 7 + 6 * LANE + 8, 3);
        let to_aligned = (8 - buf.as_ptr() as usize % 8) % 8;
        for len in lengths {
            for align in 0..8 {
                let slice = &buf[to_aligned + align..][..len];
                assert_eq!(slice.as_ptr() as usize % 8, align);
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{align}+{len}");
            }
        }
        // Fed in seeded pieces that straddle blocks every which way, from
        // a byte to a few blocks.
        let big = noise(1 << 20, 11);
        let sizes = noise(512, 12);
        let mut pieces = sizes
            .chunks_exact(2)
            .map(|p| 1 + u16::from_le_bytes([p[0], p[1]]) as usize % (5 * LANE))
            .cycle();
        let (mut c, mut at) = (!0, 0);
        while at < big.len() {
            let len = pieces.next().unwrap().min(big.len() - at);
            c = crc32_update(c, &big[at..at + len]);
            at += len;
        }
        assert_eq!(!c, crc32_bytewise(&big));
    }

    #[test]
    fn fsync_policy_parses_its_display() {
        for p in [FsyncPolicy::Always, FsyncPolicy::EveryN(8), FsyncPolicy::Os] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("every-0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn streaming_writer_crc_equals_crc32_of_body() {
        let objects = generate_uncertain(&WorkloadConfig::with_objects(40, 11), 0.5);
        let mut w = CrcWriter::new(Vec::new());
        write_image_body(&mut w, &objects).unwrap();
        assert!(!w.inner.is_empty());
        assert_eq!(w.len, w.inner.len() as u64);
        assert_eq!(!w.crc, crc32(&w.inner));
    }

    /// Installs an image of `objects` (ascending ids) in `dir`; returns
    /// its path and header.
    fn image_of(dir: &Path, objects: &[UncertainTrajectory]) -> (PathBuf, ImageHeader) {
        install_image(dir, 9, objects).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let (_, header) = open_image(&path).unwrap().unwrap();
        (path, header)
    }

    /// The image at `path` read through a buffer of `chunk` bytes.
    fn read_in_chunks(path: &Path, chunk: usize) -> Vec<UncertainTrajectory> {
        let (file, header) = open_image(path).unwrap().unwrap();
        let objects = read_image_body_in(path, file, &header, chunk).unwrap();
        objects.iter().map(|tr| (**tr).clone()).collect()
    }

    #[test]
    fn image_reads_back_through_any_chunk_size() {
        let dir = tempdir("chunked");
        let mut objects = generate_uncertain(&WorkloadConfig::with_objects(12, 5), 0.5);
        // One track, with the longer Gaussian fixed fields, far longer
        // than the small chunks below.
        let long: Vec<_> = (0..200).map(|k| (k as f64 / 7.0, 1.0, k as f64)).collect();
        let long = unn_traj::trajectory::Trajectory::from_triples(Oid(1000), &long).unwrap();
        let pdf = unn_prob::pdf::PdfKind::TruncatedGaussian {
            radius: 0.5,
            sigma: 0.2,
        };
        objects.push(UncertainTrajectory::new(long, 0.5, pdf).unwrap());
        let (path, header) = image_of(&dir, &objects);
        assert!(header.body_len > 200 * 24, "{header:?}");
        // Every chunk size up to a few trajectories' length, so a buffer
        // end falls at every offset inside a trajectory's fixed fields
        // and its samples, and exactly between two of them.
        for chunk in (1..=400).chain([4096, IMAGE_CHUNK]) {
            assert_eq!(read_in_chunks(&path, chunk), objects, "chunk {chunk}");
        }
        // An empty image is its header alone.
        let (path, header) = image_of(&dir, &[]);
        assert_eq!((header.count, header.body_len), (0, 0));
        assert!(read_in_chunks(&path, 16).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn image_count_overrunning_its_body_is_refused() {
        let dir = tempdir("overrun");
        let objects = generate_uncertain(&WorkloadConfig::with_objects(3, 6), 0.5);
        let (path, header) = image_of(&dir, &objects);
        let fitting = header.body_len / MIN_TRAJECTORY_LEN as u64;
        // `u64::MAX` objects would abort on a capacity overflow if the
        // count reached an allocation unbounded.
        for count in [fitting + 1, u64::MAX] {
            let mut bytes = fs::read(&path).unwrap();
            let lying = ImageHeader { count, ..header };
            bytes[..IMAGE_HEADER_LEN].copy_from_slice(&lying.encode());
            fs::write(&path, &bytes).unwrap();
            let err = recover(&dir).map(|_| ()).unwrap_err().to_string();
            assert!(err.contains("overruns"), "{count}: {err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_body_bit_is_refused_before_decoding() {
        let dir = tempdir("flipped");
        let objects = generate_uncertain(&WorkloadConfig::with_objects(2000, 7), 0.5);
        let (path, header) = image_of(&dir, &objects);
        let body_len = header.body_len as usize;
        assert!(
            body_len > 2 * IMAGE_CHUNK,
            "{body_len}: the flips land in different chunks"
        );
        let intact = fs::read(&path).unwrap();
        for at in [0, body_len / 2, body_len - 1] {
            let mut damaged = intact.clone();
            damaged[IMAGE_HEADER_LEN + at] ^= 0x10;
            fs::write(&path, &damaged).unwrap();
            let store = ModStore::new();
            let err = recover_into(&store, &dir).unwrap_err().to_string();
            assert!(err.ends_with("body checksum mismatch"), "byte {at}: {err}");
            assert_eq!((store.len(), store.epoch()), (0, 0), "byte {at}: installed");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_image_is_refused() {
        let dir = tempdir("text_image");
        let text = "# unn-modb v2\nEPOCH 17\nOBJ 0 0.5 U\nPT 0 0 0\nPT 30 0 60\n";
        fs::write(dir.join(SNAPSHOT_FILE), text).unwrap();

        for refused in [
            recover(&dir).map(|_| ()),
            Wal::open(&dir, WalOptions::default()).map(|_| ()),
        ] {
            match refused {
                Err(e @ WalError::Snapshot { .. }) => {
                    assert!(e.to_string().contains("bad image magic"), "{e}");
                    assert!(e.to_string().contains("text format"), "{e}");
                }
                other => panic!("expected the magic refusal, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_append_recover_round_trips() {
        let dir = tempdir("round_trip");
        let (store, wal, report) = open_store(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.recovered_epoch, 0);
        store
            .bulk_load(generate_uncertain(&WorkloadConfig::with_objects(6, 1), 0.5))
            .unwrap();
        store.remove(Oid(2)).unwrap();
        wal.sync().unwrap();
        let epoch = store.epoch();
        let reference = store.snapshot().to_vec();
        drop((store, wal));

        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.recovered_epoch, epoch);
        assert_eq!(report.replayed_records, 2);
        assert!(report.torn_tail.is_none());
        assert_eq!(recovered.snapshot().to_vec(), reference);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_covered_segments() {
        let dir = tempdir("checkpoint");
        let options = WalOptions {
            segment_bytes: 512, // force rotations
            checkpoint_every: 0,
            ..WalOptions::default()
        };
        let (store, wal, _) = open_store(&dir, options).unwrap();
        for tr in generate_uncertain(&WorkloadConfig::with_objects(12, 2), 0.5) {
            store.insert(tr).unwrap();
        }
        assert!(wal.status().segments > 1, "{:?}", wal.status());
        let watermark = wal.checkpoint(&store).unwrap();
        assert_eq!(watermark, store.epoch());
        let status = wal.status();
        assert_eq!(status.segments, 1, "covered segments must be pruned");
        assert_eq!(status.checkpoint_epoch, watermark);

        // Post-checkpoint commits land in the fresh tail; recovery
        // folds image + tail.
        store.remove(Oid(3)).unwrap();
        wal.sync().unwrap();
        let reference = store.snapshot().to_vec();
        let epoch = store.epoch();
        drop((store, wal));
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.snapshot_epoch, watermark);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(recovered.epoch(), epoch);
        assert_eq!(recovered.snapshot().to_vec(), reference);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Commits appended while an owed checkpoint has not run yet count
    /// towards the next one: checkpoints come due at every multiple of
    /// the cadence, however commits and checkpoints interleave.
    #[test]
    fn checkpoints_come_due_at_every_multiple_of_the_cadence() {
        let dir = tempdir("cadence");
        let wal = Wal::open(
            &dir,
            WalOptions {
                checkpoint_every: 4,
                ..WalOptions::default()
            },
        )
        .unwrap();
        let store = ModStore::new();
        let mut due_at = Vec::new();
        for epoch in 1..=12 {
            wal.append(epoch, b"").unwrap();
            if wal.take_checkpoint_due() {
                due_at.push(epoch);
            }
            // The owed checkpoint runs two commits late.
            if due_at.last().map(|d| d + 2) == Some(epoch) {
                wal.checkpoint(&store).unwrap();
            }
        }
        assert_eq!(due_at, [4, 8, 12]);
        assert_eq!(wal.status().checkpoints, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tempdir("torn");
        let (store, wal, _) = open_store(&dir, WalOptions::default()).unwrap();
        store
            .bulk_load(generate_uncertain(&WorkloadConfig::with_objects(4, 3), 0.5))
            .unwrap();
        store.remove(Oid(1)).unwrap();
        wal.sync().unwrap();
        let segments = list_segments(&dir).unwrap();
        let tail = segments.last().unwrap().1.clone();
        drop((store, wal));
        // Tear the final record: chop 3 bytes off the file.
        let len = fs::metadata(&tail).unwrap().len();
        let f = OpenOptions::new().write(true).open(&tail).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (recovered, report) = recover(&dir).unwrap();
        let torn = report.torn_tail.expect("tear must be reported");
        assert_eq!(torn.segment, tail);
        assert_eq!(report.replayed_records, 1, "only the intact record");
        assert!(recovered.contains(Oid(1)), "torn remove must not apply");
        assert_eq!(
            fs::metadata(&torn.segment).unwrap().len(),
            torn.offset,
            "file is truncated at the torn record's start"
        );
        // Appending after recovery continues the chain cleanly.
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        recovered.attach_wal(&wal);
        recovered.remove(Oid(1)).unwrap();
        wal.sync().unwrap();
        let reference = recovered.snapshot().to_vec();
        let epoch = recovered.epoch();
        drop((recovered, wal));
        let (again, report) = recover(&dir).unwrap();
        assert!(report.torn_tail.is_none());
        assert_eq!(again.epoch(), epoch);
        assert_eq!(again.snapshot().to_vec(), reference);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_fails_loudly() {
        let dir = tempdir("corrupt");
        let (store, wal, _) = open_store(&dir, WalOptions::default()).unwrap();
        store
            .bulk_load(generate_uncertain(&WorkloadConfig::with_objects(3, 4), 0.5))
            .unwrap();
        store.remove(Oid(0)).unwrap();
        wal.sync().unwrap();
        let tail = list_segments(&dir).unwrap().last().unwrap().1.clone();
        drop((store, wal));
        // Flip a payload byte of the FIRST record (not the tail): a
        // complete record with a bad checksum is corruption.
        let mut bytes = fs::read(&tail).unwrap();
        let flip = WAL_MAGIC.len() + 8 + 2;
        bytes[flip] ^= 0xFF;
        fs::write(&tail, &bytes).unwrap();
        match recover(&dir) {
            Err(WalError::Corrupt { message, .. }) => {
                assert!(message.contains("checksum"), "{message}");
            }
            other => panic!("expected loud corruption, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_is_journaled_and_replayed() {
        let dir = tempdir("clear");
        let (store, wal, _) = open_store(&dir, WalOptions::default()).unwrap();
        store
            .bulk_load(generate_uncertain(&WorkloadConfig::with_objects(5, 6), 0.5))
            .unwrap();
        store.clear();
        store
            .insert(generate_uncertain(&WorkloadConfig::with_objects(1, 7), 0.5).remove(0))
            .unwrap();
        wal.sync().unwrap();
        let epoch = store.epoch();
        let reference = store.snapshot().to_vec();
        drop((store, wal));
        let (recovered, _) = recover(&dir).unwrap();
        assert_eq!(recovered.epoch(), epoch);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered.snapshot().to_vec(), reference);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follower_feed_overflow_clears_and_flags() {
        let hub = ReplicationHub::new();
        let feed = hub.register(2);
        assert!(hub.has_followers());
        let frame: Arc<[u8]> = Arc::from(&b"x"[..]);
        hub.publish(1, Some(&frame));
        hub.publish(2, Some(&frame));
        assert_eq!(feed.len(), 2);
        assert!(feed.take_lagged().is_none());
        hub.publish(3, Some(&frame)); // overflow
        assert!(feed.is_empty(), "overflow drops the whole prefix");
        assert_eq!(feed.take_lagged(), Some(3));
        assert!(feed.take_lagged().is_none(), "flag is one-shot");
        drop(feed);
        assert!(!hub.has_followers());
    }
}
