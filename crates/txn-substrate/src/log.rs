//! The one mirrored log: an in-memory record list, optionally mirrored
//! to a file of [frames](crate::frame) under a [`DurabilityPolicy`].
//!
//! [`Wal`](crate::Wal) is this log instantiated for
//! [`LogRecord`](crate::LogRecord) and the engine journal
//! (`wfms_engine::Journal`) is it instantiated for `Event`; each adds
//! only its own queries. Everything the two have in common lives here
//! once:
//!
//! * **Encode only for the file.** The in-memory list holds the record
//!   values themselves; a record is framed — once, straight into the
//!   mirror's reused buffer — only when a file mirror needs the bytes.
//!   An unmirrored log pays a lock and a `Vec` push per append.
//! * **Torn tails.** Reopening truncates a half-written final frame,
//!   reports it in the [`TailReport`] and counts it; damage before an
//!   intact frame is refused with the frame's byte offset (the rule is
//!   [`crate::frame`]'s).
//! * **Sticky mirror errors.** Mirror I/O failures never panic: the
//!   first is remembered ([`Log::mirror_error`]) and counted, the mirror
//!   is disabled, and the log keeps serving from memory so its owner
//!   can surface the failure at its API boundary.
//! * **Compaction** drops everything before the last checkpoint record
//!   and atomically rewrites the file.
//!
//! Faults are counted, never printed ([`FaultCounters`]).

use crate::durability::{
    atomic_rewrite, DurabilityPolicy, DurableWriter, MirrorError, TailReport, TornTail,
};
use crate::frame::{self, DecodeError, Record};
use parking_lot::Mutex;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfms_observe::{Counter, Registry};

/// The file mirror of a [`Log`]: the policy-driven writer plus the
/// path (needed for atomic compaction rewrites) and a reused frame
/// buffer.
#[derive(Debug)]
struct Mirror {
    writer: DurableWriter,
    path: PathBuf,
    /// Frame buffer, reused across appends: each record is encoded
    /// exactly once, straight into the bytes the writer is handed, and
    /// a group commit costs one buffer fill and one write.
    buf: Vec<u8>,
}

/// Faults a log absorbed instead of failing: counted, never printed.
/// Standalone until [`Log::adopt_fault_counters`] moves them into a
/// registry — a torn tail is found before any owner of the log exists.
#[derive(Debug, Default, Clone)]
pub struct FaultCounters {
    /// Reopens that found and truncated a half-written final frame.
    pub torn_tails_truncated: Arc<Counter>,
    /// Of those, tails complete enough to fail a length check or CRC
    /// rather than merely short.
    pub crc_failures: Arc<Counter>,
    /// Mirror I/O failures (the first disables the mirror).
    pub mirror_errors: Arc<Counter>,
}

/// An append-only log of `R` records.
///
/// The records and the file mirror sit behind one lock, held across
/// the mirror write: the file's record order is exactly the in-memory
/// order, and a concurrent [`Log::compact`] can never rewrite the file
/// while an append sits between "in memory" and "in file".
#[derive(Debug)]
pub struct Log<R> {
    inner: Mutex<Inner<R>>,
    mirror_error: Mutex<Option<MirrorError>>,
    faults: Mutex<FaultCounters>,
}

#[derive(Debug)]
struct Inner<R> {
    records: Vec<R>,
    mirror: Option<Mirror>,
}

impl<R> Default for Log<R> {
    /// An in-memory log.
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner {
                records: Vec::new(),
                mirror: None,
            }),
            mirror_error: Mutex::default(),
            faults: Mutex::default(),
        }
    }
}

impl<R: Record> Log<R> {
    /// A log mirrored to `path` under `policy`: existing records are
    /// loaded first, a torn tail is truncated away, and the
    /// [`TailReport`] says what was found.
    pub fn open(path: &Path, policy: DurabilityPolicy) -> std::io::Result<(Self, TailReport)> {
        let mut log = Self::default();
        let mut report = TailReport::default();
        if path.exists() {
            (log.inner.get_mut().records, report) = Self::read_file(path)?;
            if let Some(tail) = &report.torn_tail {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(tail.offset)?;
                f.sync_data()?;
                let faults = log.faults.get_mut();
                faults.torn_tails_truncated.inc();
                if tail.checksum_failed {
                    faults.crc_failures.inc();
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&R::HEADER)?;
        }
        Ok((log.mirrored_to(file, path.to_path_buf(), policy), report))
    }

    /// Test-only: mirrors a new log to an already-open `file` (e.g. one
    /// opened read-only, to exercise the mirror-failure path).
    #[doc(hidden)]
    pub fn with_injected_file(
        file: std::fs::File,
        path: PathBuf,
        policy: DurabilityPolicy,
    ) -> Self {
        Self::default().mirrored_to(file, path, policy)
    }

    fn mirrored_to(mut self, file: std::fs::File, path: PathBuf, policy: DurabilityPolicy) -> Self {
        self.inner.get_mut().mirror = Some(Mirror {
            writer: DurableWriter::new(file, policy),
            path,
            buf: Vec::new(),
        });
        self
    }

    /// Decodes the log file at `path` without opening it for append
    /// and without repairing it: a torn tail is reported, not
    /// truncated.
    pub fn read_file(path: &Path) -> std::io::Result<(Vec<R>, TailReport)> {
        let bytes = std::fs::read(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let decoded = frame::decode_file::<R>(&bytes).map_err(|e| {
            let (name, shown) = (R::NAME, path.display());
            let msg = match e {
                DecodeError::NotThisLog => R::not_this_log(path),
                DecodeError::UnsupportedVersion(v) => format!(
                    "{shown} has {name} format version {v}; this build reads version {}",
                    R::HEADER[frame::FILE_HEADER_LEN - 1]
                ),
                DecodeError::Corrupt { offset, detail } => {
                    format!("corrupt {name} {shown}: frame at byte {offset}: {detail}")
                }
            };
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        })?;
        let report = TailReport {
            records: decoded.records.len(),
            torn_tail: decoded.torn.map(|fault| TornTail {
                offset: decoded.valid_len as u64,
                discarded: format!("{} bytes ({fault})", bytes.len() - decoded.valid_len),
                checksum_failed: fault.is_checksum(),
            }),
        };
        Ok((decoded.records, report))
    }

    /// The first mirror I/O error hit, if any. Once set, the file
    /// mirror is disabled and the log serves from memory only.
    pub fn mirror_error(&self) -> Option<MirrorError> {
        self.mirror_error.lock().clone()
    }

    /// Records the first mirror failure and disables the mirror.
    fn fail_mirror(&self, inner: &mut Inner<R>, context: &str, e: &std::io::Error) {
        self.faults.lock().mirror_errors.inc();
        let mut slot = self.mirror_error.lock();
        if slot.is_none() {
            *slot = Some(MirrorError::new(context, e));
        }
        inner.mirror = None;
    }

    /// The counters of what this log has absorbed so far.
    pub fn faults(&self) -> FaultCounters {
        self.faults.lock().clone()
    }

    /// Moves the fault counters into `reg` as
    /// `{prefix}.torn_tails_truncated`, `{prefix}.crc_failures` and
    /// `{prefix}.mirror_errors`, carrying over what was counted so far
    /// (the reopen that found a torn tail ran before the owner and its
    /// registry existed).
    pub fn adopt_fault_counters(&self, reg: &Registry, prefix: &str) {
        let mut faults = self.faults.lock();
        let adopt = |slot: &mut Arc<Counter>, name: &str| {
            let counter = reg.counter(&format!("{prefix}.{name}"));
            counter.add(slot.get());
            *slot = counter;
        };
        adopt(&mut faults.torn_tails_truncated, "torn_tails_truncated");
        adopt(&mut faults.crc_failures, "crc_failures");
        adopt(&mut faults.mirror_errors, "mirror_errors");
    }

    /// Appends a record and returns its index. `barrier` forces the
    /// mirror to flush whatever the policy. Mirror I/O failures do not
    /// panic; they are reported through [`Log::mirror_error`].
    pub fn append(&self, rec: R, barrier: bool) -> usize {
        let mut inner = self.inner.lock();
        self.mirror_frames(&mut inner, std::slice::from_ref(&rec), barrier);
        inner.records.push(rec);
        inner.records.len() - 1
    }

    /// Appends a batch with a single lock acquisition and a single
    /// group commit of the mirror: the whole batch is framed into one
    /// buffer and written with one `write_all` — the bytes are exactly
    /// the per-record frames in order — and the batch end is a flush
    /// barrier.
    pub fn append_batch(&self, batch: Vec<R>) {
        let mut inner = self.inner.lock();
        self.mirror_frames(&mut inner, &batch, true);
        inner.records.extend(batch);
    }

    /// Frames `batch` into the mirror's buffer and hands the bytes to
    /// the writer in one chunk; a no-op on an unmirrored log.
    fn mirror_frames(&self, inner: &mut Inner<R>, batch: &[R], barrier: bool) {
        let Some(Mirror { writer, buf, .. }) = &mut inner.mirror else {
            return;
        };
        buf.clear();
        for rec in batch {
            frame::encode_frame(rec, buf);
        }
        if let Err(e) = writer.append_chunk(buf, batch.len(), barrier) {
            self.fail_mirror(inner, "append", &e);
        }
    }

    /// Forces buffered mirror frames to the file (a durability barrier
    /// under any policy; a no-op for unmirrored logs).
    pub fn flush(&self) {
        let mut inner = self.inner.lock();
        if let Some(Err(e)) = inner.mirror.as_mut().map(|m| m.writer.flush()) {
            self.fail_mirror(&mut inner, "flush", &e);
        }
    }

    /// Drops every record before the last checkpoint
    /// ([`Record::is_checkpoint`]); a no-op when there is none. When
    /// mirrored to a file, the file is **atomically rewritten** (temp
    /// file + rename): a crash during compaction leaves either the old
    /// or the new complete file, never a half-truncated one. Returns
    /// the number of records dropped.
    pub fn compact(&self) -> usize {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(start) = inner.records.iter().rposition(R::is_checkpoint) else {
            return 0;
        };
        inner.records.drain(..start);
        if let Some(m) = &mut inner.mirror {
            match atomic_rewrite(&m.path, &frame::file_bytes(&inner.records)) {
                Ok(file) => m.writer.replace_file(file),
                Err(e) => self.fail_mirror(inner, "compact", &e),
            }
        }
        start
    }

    /// Runs `f` over the records in place, under the log's lock — the
    /// one way to read them. `f` must not touch this log.
    pub fn with_records<T>(&self, f: impl FnOnce(&[R]) -> T) -> T {
        f(&self.inner.lock().records)
    }

    /// Consumes the log, returning its records.
    pub fn into_records(self) -> Vec<R> {
        self.inner.into_inner().records
    }
}
