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
//! * Checkpoints write the store as a v2 [`crate::persist`] image
//!   (epoch watermark + contents) via atomic tmp-then-rename, then
//!   prune every WAL segment whose records the watermark covers.
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
//! <dir>/snapshot.unn            last durable checkpoint (persist v2)
//! <dir>/wal-<first-epoch>.seg   WAL segments, named by first epoch
//!
//! segment := WAL_MAGIC (8 bytes) record*
//! record  := len:u32le crc32:u32le payload(len)
//! payload := epoch:u64le count:u32le op*        (wire commit body)
//! ```
//!
//! The CRC is IEEE 802.3 (the zlib polynomial) over the payload bytes.
//! Recovery replays records strictly in epoch order and rejects gaps:
//! a record chain `watermark+1, watermark+2, …` must be contiguous, so
//! a recovered store's answers are bit-identical to an uninterrupted
//! run at the same epoch (`tests/durability.rs` holds this under
//! random churn and random kill points).

use crate::delta::ReplOp;
use crate::net::wire::{decode_commit_body, TAG_REPL_DELTA};
use crate::persist::{self, StoreImage};
use crate::store::ModStore;
use crate::telemetry::{self, Telemetry, TraceEvent, TraceStage};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// First bytes of every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"UNNWAL1\n";

/// Upper bound on one WAL record's payload — the same bound the wire
/// decoder enforces on a frame, since the bytes are shared.
pub const MAX_WAL_RECORD: u32 = crate::net::wire::MAX_FRAME_LEN;

/// File name of the checkpoint image inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.unn";

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
    /// The checkpoint image failed to load or save.
    Snapshot(persist::PersistError),
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
            WalError::Snapshot(e) => write!(f, "checkpoint image error: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Snapshot(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<persist::PersistError> for WalError {
    fn from(e: persist::PersistError) -> Self {
        WalError::Snapshot(e)
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
    /// Appends since the last checkpoint.
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
    /// segment's end and appends).
    pub fn open(dir: &Path, options: WalOptions) -> Result<Arc<Wal>, WalError> {
        fs::create_dir_all(dir)?;
        let checkpoint_epoch = match fs::metadata(dir.join(SNAPSHOT_FILE)) {
            Ok(_) => persist::load_image(&dir.join(SNAPSHOT_FILE))?.epoch,
            Err(_) => 0,
        };
        Wal::open_at(dir, options, checkpoint_epoch)
    }

    /// [`Wal::open`] for a caller that already knows the checkpoint
    /// image's epoch (`0` without an image) — [`open_store`], which has
    /// just parsed and validated that image in [`recover`].
    fn open_at(
        dir: &Path,
        options: WalOptions,
        checkpoint_epoch: u64,
    ) -> Result<Arc<Wal>, WalError> {
        let mut segments = list_segments(dir)?;
        // Scan the tail segment for its last epoch so appends continue
        // the chain (non-tail segments only need their names).
        let mut last_epoch = checkpoint_epoch;
        let mut sealed_bytes = 0;
        for (i, (first, path)) in segments.iter().enumerate() {
            if i + 1 < segments.len() {
                sealed_bytes += fs::metadata(path)?.len();
                continue;
            }
            let (records, torn) = read_segment(path, true)?;
            if let Some(t) = torn {
                return Err(WalError::Corrupt {
                    segment: path.clone(),
                    offset: t.offset,
                    message: format!("torn tail not recovered before open: {}", t.reason),
                });
            }
            last_epoch = records
                .last()
                .map(|r| r.epoch)
                .unwrap_or(first.wrapping_sub(1).max(checkpoint_epoch));
            if records.is_empty() {
                last_epoch = last_epoch.max(checkpoint_epoch);
            }
        }
        let (file, tail_bytes) = match segments.last() {
            Some((_, path)) => {
                let mut f = OpenOptions::new().append(true).read(true).open(path)?;
                let len = f.seek(SeekFrom::End(0))?;
                (f, len)
            }
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

    /// Writes a checkpoint image of `store` (atomic tmp-then-rename)
    /// and prunes every segment whose records the new watermark
    /// covers. Returns the watermark epoch.
    ///
    /// Runs with **no store lock held** — it takes a snapshot, which
    /// acquires every shard read lock. The store calls this through
    /// [`Wal::maybe_checkpoint`] after its commit locks drop.
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
        let image = StoreImage {
            epoch: snap.epoch(),
            objects: snap.to_vec(),
            catalog: Vec::new(),
        };
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        persist::save_image(&image, &tmp)?;
        // The rename is the commit point: a crash before it leaves the
        // old image in place, after it the new watermark rules.
        File::open(&tmp)?.sync_all()?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        let mut inner = self.inner.lock().unwrap();
        inner.checkpoint_epoch = image.epoch;
        inner.checkpoints += 1;
        inner.since_checkpoint = 0;
        // Seal the tail so the watermark can retire it too, then drop
        // every segment fully covered by the watermark: segment i is
        // prunable when the *next* segment starts at or before
        // watermark + 1 (every record recovery needs lives later).
        if inner.tail_bytes > WAL_MAGIC.len() as u64 && inner.last_epoch <= image.epoch {
            let next = inner.last_epoch + 1;
            self.rotate_locked(&mut inner, next)?;
        }
        while inner.segments.len() > 1 && inner.segments[1].0 <= image.epoch + 1 {
            let (_, path) = inner.segments.remove(0);
            inner.sealed_bytes = inner
                .sealed_bytes
                .saturating_sub(fs::metadata(&path).map(|m| m.len()).unwrap_or(0));
            fs::remove_file(&path)?;
        }
        Ok(image.epoch)
    }

    /// Checkpoints when the configured commit cadence is due; called by
    /// the store after every commit (outside its locks). Errors are
    /// absorbed into the status counters like [`Wal::append_quiet`].
    pub fn maybe_checkpoint(&self, store: &ModStore) {
        if self.options.checkpoint_every == 0 {
            return;
        }
        let due = {
            let inner = self.inner.lock().unwrap();
            inner.since_checkpoint >= self.options.checkpoint_every
        };
        if due {
            let _ = self.checkpoint(store);
        }
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
/// that configure shard counts or policies before recovery.
pub fn recover_into(store: &ModStore, dir: &Path) -> Result<RecoveryReport, WalError> {
    let mut report = RecoveryReport::default();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    if snapshot_path.exists() {
        let image = persist::load_image(&snapshot_path)?;
        report.snapshot_epoch = image.epoch;
        report.snapshot_objects = image.objects.len();
        store.restore(image.objects, image.epoch);
    }
    let segments = list_segments(dir)?;
    let last_index = segments.len().wrapping_sub(1);
    for (i, (_, path)) in segments.iter().enumerate() {
        let is_tail = i == last_index;
        let (records, torn) = read_segment(path, is_tail)?;
        if let Some(t) = &torn {
            // Tearing is only explicable at the end of the final
            // segment; read_segment already rejects it elsewhere.
            // Truncate so the writer resumes at a record boundary.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(t.offset)?;
            f.sync_all()?;
        }
        for record in records {
            let current = store.epoch();
            if record.epoch <= current {
                continue; // already folded into the checkpoint image
            }
            if record.epoch != current + 1 {
                return Err(WalError::Corrupt {
                    segment: path.clone(),
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
        report.torn_tail = report.torn_tail.take().or(torn);
    }
    report.recovered_epoch = store.epoch();
    Ok(report)
}

/// One decoded WAL record.
struct WalRecord {
    offset: u64,
    epoch: u64,
    ops: Vec<ReplOp>,
}

/// Reads and verifies one segment. With `allow_torn_tail`, an
/// incomplete record at EOF yields a [`TornTail`] instead of an error;
/// all other damage — bad magic, over-bound lengths, checksum
/// mismatches, undecodable payloads — is [`WalError::Corrupt`].
fn read_segment(
    path: &Path,
    allow_torn_tail: bool,
) -> Result<(Vec<WalRecord>, Option<TornTail>), WalError> {
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
        let torn = |reason: String| TornTail {
            segment: path.to_path_buf(),
            offset: pos as u64,
            reason,
        };
        if bytes.len() - pos < 8 {
            let t = torn(format!("{} header bytes at EOF", bytes.len() - pos));
            if allow_torn_tail {
                return Ok((records, Some(t)));
            }
            return Err(corrupt(t.offset, t.reason));
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
            let t = torn(format!(
                "record claims {len} payload bytes, {} present",
                bytes.len() - body_start
            ));
            if allow_torn_tail {
                return Ok((records, Some(t)));
            }
            return Err(corrupt(t.offset, t.reason));
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
    Ok((records, None))
}

/// Recovers (or initializes) a store from `dir` and reattaches an open
/// WAL to it — the one-call path `unn-cli serve --wal` uses.
pub fn open_store(
    dir: &Path,
    options: WalOptions,
) -> Result<(ModStore, Arc<Wal>, RecoveryReport), WalError> {
    fs::create_dir_all(dir)?;
    let (store, report) = recover(dir)?;
    let wal = Wal::open_at(dir, options, report.snapshot_epoch)?;
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
// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, no deps.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
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

    #[test]
    fn fsync_policy_parses_its_display() {
        for p in [FsyncPolicy::Always, FsyncPolicy::EveryN(8), FsyncPolicy::Os] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("every-0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
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
