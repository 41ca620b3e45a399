//! Write-ahead logging and redo recovery for one local database.
//!
//! Each local database logs physiological before/after images of every
//! update, plus transaction begin/commit/abort records. Two uses:
//!
//! 1. **Abort (in-place undo)** — the transaction layer walks its own
//!    update records backwards and restores before-images.
//! 2. **Crash recovery (redo)** — the in-memory store is volatile;
//!    after a (simulated or real) crash, [`Wal::replay_committed`]
//!    rebuilds it by re-applying the after-images of committed
//!    transactions in log order. Updates of losers are skipped, which
//!    makes undo at restart unnecessary: the store is rebuilt from
//!    empty, so only winner writes ever reach it.
//!
//! The log can live purely in memory (fast, for tests and benchmarks
//! that only crash "logically") or be mirrored to a file of JSON lines
//! under a [`DurabilityPolicy`]. Commit and abort records always force
//! a flush regardless of policy — the durability point is the commit
//! point. Reopening a mirrored log tolerates a **torn tail** (a crash
//! mid-append leaves a partial final line; it is truncated away with a
//! diagnostic) while still rejecting mid-file corruption; see
//! [`crate::durability::read_json_lines`] and `docs/recovery.md`.
//!
//! Mirror I/O errors do not panic: the first error is remembered
//! ([`Wal::mirror_error`]), the file mirror is disabled, and the log
//! keeps serving from memory so the owning database can surface the
//! failure at its API boundary instead of dying mid-transaction.

use crate::durability::{
    atomic_rewrite, read_json_lines, DurabilityPolicy, DurableWriter, MirrorError, TailReport,
};
use crate::storage::Storage;
use crate::txn::TxnId;
use crate::value::Value;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

/// Log sequence number: the index of a record in the log.
pub type Lsn = u64;

/// One write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction started.
    Begin { txn: TxnId },
    /// An update with before/after images (`None` = key absent).
    Update {
        txn: TxnId,
        key: String,
        before: Option<Value>,
        after: Option<Value>,
    },
    /// The transaction committed; its updates are durable.
    Commit { txn: TxnId },
    /// The transaction aborted; its updates have been undone in place.
    Abort { txn: TxnId },
    /// A fuzzy-free checkpoint: the complete committed state at a
    /// quiescent point. Recovery restarts from the **last** checkpoint
    /// and redoes only the committed updates after it; compaction
    /// drops everything before it.
    Checkpoint { state: Vec<(String, Value)> },
}

impl LogRecord {
    /// The transaction this record belongs to (`None` for
    /// checkpoints, which are transaction-independent).
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn } | LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                Some(*txn)
            }
            LogRecord::Update { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }
}

/// The file mirror of a [`Wal`]: the policy-driven writer plus the
/// path (needed for atomic compaction rewrites).
#[derive(Debug)]
struct WalMirror {
    writer: DurableWriter,
    path: PathBuf,
}

/// Append/flush counters of one WAL, exposed for the engine's
/// observability snapshot (atomically maintained; reading never blocks
/// writers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since creation.
    pub appends: u64,
    /// Appends that forced a flush (commit/abort durability barriers).
    pub barrier_flushes: u64,
    /// Total wall-clock nanoseconds spent in mirror file I/O
    /// (append + policy-driven flush). Zero for in-memory logs.
    pub mirror_nanos: u64,
}

/// The write-ahead log of one local database.
///
/// Lock order (matters for the append/compact race): `records` is
/// always acquired **before** `mirror`, and the `records` lock is held
/// across the mirror write — so the file's record order is exactly the
/// in-memory order, and a concurrent `compact` can never rewrite the
/// file while an append sits between "in memory" and "in file".
#[derive(Debug, Default)]
pub struct Wal {
    records: Mutex<Vec<LogRecord>>,
    mirror: Mutex<Option<WalMirror>>,
    mirror_error: Mutex<Option<MirrorError>>,
    appends: std::sync::atomic::AtomicU64,
    barrier_flushes: std::sync::atomic::AtomicU64,
    mirror_nanos: std::sync::atomic::AtomicU64,
}

impl Wal {
    /// An in-memory log (survives a *simulated* crash that clears the
    /// store but keeps the process alive).
    pub fn new() -> Self {
        Self::default()
    }

    /// A log mirrored to `path` (appending if the file exists) under
    /// the default [`DurabilityPolicy::PerEvent`].
    pub fn with_file(path: &Path) -> std::io::Result<Self> {
        Self::with_file_policy(path, DurabilityPolicy::default())
    }

    /// A log mirrored to `path` under an explicit durability policy.
    /// Commit/abort records force a flush under every policy.
    pub fn with_file_policy(path: &Path, policy: DurabilityPolicy) -> std::io::Result<Self> {
        Self::with_file_report(path, policy).map(|(wal, _)| wal)
    }

    /// Like [`Wal::with_file_policy`] but also returns the
    /// [`TailReport`] of the reopen — tests and recovery audits use it
    /// to observe whether a torn tail was truncated.
    pub fn with_file_report(
        path: &Path,
        policy: DurabilityPolicy,
    ) -> std::io::Result<(Self, TailReport)> {
        let wal = Self::new();
        let mut report = TailReport::default();
        if path.exists() {
            let (records, rep) = read_json_lines::<LogRecord>(path)?;
            if let Some(tail) = &rep.torn_tail {
                eprintln!(
                    "wal: torn tail in {} at byte {}: truncated partial record {:?}",
                    path.display(),
                    tail.offset,
                    tail.discarded
                );
            }
            report = rep;
            *wal.records.lock() = records;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        *wal.mirror.lock() = Some(WalMirror {
            writer: DurableWriter::new(file, policy),
            path: path.to_path_buf(),
        });
        Ok((wal, report))
    }

    /// Test-only: mirrors the log to an already-open `file` (e.g. one
    /// opened read-only, to exercise the mirror-failure path).
    #[doc(hidden)]
    pub fn with_injected_file(
        file: std::fs::File,
        path: PathBuf,
        policy: DurabilityPolicy,
    ) -> Self {
        let wal = Self::new();
        *wal.mirror.lock() = Some(WalMirror {
            writer: DurableWriter::new(file, policy),
            path,
        });
        wal
    }

    /// The first mirror I/O error hit, if any. Once set, the file
    /// mirror is disabled and the log serves from memory only.
    pub fn mirror_error(&self) -> Option<MirrorError> {
        self.mirror_error.lock().clone()
    }

    /// Records the first mirror failure and disables the mirror.
    fn fail_mirror(
        guard: &mut Option<WalMirror>,
        sticky: &Mutex<Option<MirrorError>>,
        context: &str,
        e: &std::io::Error,
    ) {
        let err = MirrorError::new(context, e);
        eprintln!("wal: {err}; disabling file mirror, log continues in memory");
        let mut slot = sticky.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        *guard = None;
    }

    /// Appends a record, returning its LSN. Never panics on mirror
    /// I/O failure — see [`Wal::mirror_error`].
    pub fn append(&self, rec: LogRecord) -> Lsn {
        use std::sync::atomic::Ordering;
        let barrier = matches!(rec, LogRecord::Commit { .. } | LogRecord::Abort { .. });
        // Serialization of LogRecord cannot fail: every variant is
        // plain data with serializable fields.
        let line = serde_json::to_string(&rec).expect("LogRecord is always serializable");
        let mut records = self.records.lock();
        records.push(rec);
        let lsn = (records.len() - 1) as Lsn;
        self.appends.fetch_add(1, Ordering::Relaxed);
        if barrier {
            self.barrier_flushes.fetch_add(1, Ordering::Relaxed);
        }
        let mut guard = self.mirror.lock();
        if let Some(m) = guard.as_mut() {
            let t0 = std::time::Instant::now();
            let result = m.writer.append_line(line.as_bytes(), barrier);
            self.mirror_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if let Err(e) = result {
                Self::fail_mirror(&mut guard, &self.mirror_error, "append", &e);
            }
        }
        lsn
    }

    /// Snapshot of the append/flush counters.
    pub fn stats(&self) -> WalStats {
        use std::sync::atomic::Ordering;
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            barrier_flushes: self.barrier_flushes.load(Ordering::Relaxed),
            mirror_nanos: self.mirror_nanos.load(Ordering::Relaxed),
        }
    }

    /// Forces buffered mirror lines to the file (a durability barrier
    /// under any policy; a no-op for unmirrored logs).
    pub fn flush(&self) {
        let _records = self.records.lock();
        let mut guard = self.mirror.lock();
        if let Some(m) = guard.as_mut() {
            if let Err(e) = m.writer.flush() {
                Self::fail_mirror(&mut guard, &self.mirror_error, "flush", &e);
            }
        }
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// A copy of the full log (for audit dumps and tests).
    pub fn records(&self) -> Vec<LogRecord> {
        self.records.lock().clone()
    }

    /// Update records of `txn` in log order (the transaction layer
    /// walks these backwards to undo an abort).
    pub fn updates_of(&self, txn: TxnId) -> Vec<(String, Option<Value>)> {
        self.records
            .lock()
            .iter()
            .filter_map(|r| match r {
                LogRecord::Update {
                    txn: t,
                    key,
                    before,
                    ..
                } if *t == txn => Some((key.clone(), before.clone())),
                _ => None,
            })
            .collect()
    }

    /// Redo recovery: rebuilds `storage` (assumed empty/cleared). If
    /// the log contains checkpoints, the state of the **last** one is
    /// installed first and only records after it are considered;
    /// committed transactions' after-images are then re-applied in log
    /// order. Returns the number of updates replayed (checkpoint
    /// installs count one per key).
    pub fn replay_committed(&self, storage: &Storage) -> usize {
        let records = self.records.lock();
        let start = records
            .iter()
            .rposition(|r| matches!(r, LogRecord::Checkpoint { .. }))
            .unwrap_or(0);
        let tail = &records[start..];
        let mut replayed = 0;
        if let Some(LogRecord::Checkpoint { state }) = tail.first() {
            for (k, v) in state {
                storage.apply(k, Some(v.clone()));
                replayed += 1;
            }
        }
        let committed: std::collections::HashSet<TxnId> = tail
            .iter()
            .filter_map(|r| match r {
                LogRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        for rec in tail {
            if let LogRecord::Update {
                txn, key, after, ..
            } = rec
            {
                if committed.contains(txn) {
                    storage.apply(key, after.clone());
                    replayed += 1;
                }
            }
        }
        replayed
    }

    /// Drops every record before the last checkpoint (log compaction).
    /// A no-op when the log holds no checkpoint. When the log is
    /// mirrored to a file, the file is **atomically rewritten** (temp
    /// file + rename): a crash during compaction leaves either the old
    /// or the new complete file, never a half-truncated one. Returns
    /// the number of records dropped.
    pub fn compact(&self) -> usize {
        let mut records = self.records.lock();
        let Some(start) = records
            .iter()
            .rposition(|r| matches!(r, LogRecord::Checkpoint { .. }))
        else {
            return 0;
        };
        let dropped = start;
        records.drain(..start);
        let mut guard = self.mirror.lock();
        if let Some(m) = guard.as_mut() {
            let rewritten = atomic_rewrite(&m.path, |w| {
                use std::io::Write as _;
                for rec in records.iter() {
                    let line =
                        serde_json::to_string(rec).expect("LogRecord is always serializable");
                    w.write_all(line.as_bytes())?;
                    w.write_all(b"\n")?;
                }
                Ok(())
            });
            match rewritten {
                Ok(file) => m.writer.replace_file(file),
                Err(e) => Self::fail_mirror(&mut guard, &self.mirror_error, "compact", &e),
            }
        }
        dropped
    }

    /// Transactions with a `Begin` but neither `Commit` nor `Abort` —
    /// the in-flight losers at crash time.
    pub fn in_flight(&self) -> Vec<TxnId> {
        let records = self.records.lock();
        let mut open: Vec<TxnId> = Vec::new();
        for rec in records.iter() {
            match rec {
                LogRecord::Begin { txn } => open.push(*txn),
                LogRecord::Commit { txn } | LogRecord::Abort { txn } => open.retain(|t| t != txn),
                LogRecord::Update { .. } | LogRecord::Checkpoint { .. } => {}
            }
        }
        open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    fn upd(txn: u64, key: &str, before: Option<i64>, after: Option<i64>) -> LogRecord {
        LogRecord::Update {
            txn: t(txn),
            key: key.into(),
            before: before.map(Value::Int),
            after: after.map(Value::Int),
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wftx-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lsns_are_sequential() {
        let wal = Wal::new();
        assert_eq!(wal.append(LogRecord::Begin { txn: t(1) }), 0);
        assert_eq!(wal.append(upd(1, "k", None, Some(1))), 1);
        assert_eq!(wal.append(LogRecord::Commit { txn: t(1) }), 2);
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn replay_redoes_only_committed() {
        let wal = Wal::new();
        // Winner txn 1.
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "a", None, Some(10)));
        wal.append(LogRecord::Commit { txn: t(1) });
        // Loser txn 2 (in flight at crash).
        wal.append(LogRecord::Begin { txn: t(2) });
        wal.append(upd(2, "b", None, Some(20)));
        // Aborted txn 3.
        wal.append(LogRecord::Begin { txn: t(3) });
        wal.append(upd(3, "c", None, Some(30)));
        wal.append(LogRecord::Abort { txn: t(3) });

        let storage = Storage::new();
        let n = wal.replay_committed(&storage);
        assert_eq!(n, 1);
        assert_eq!(storage.get("a"), Some(Value::Int(10)));
        assert_eq!(storage.get("b"), None);
        assert_eq!(storage.get("c"), None);
        assert_eq!(wal.in_flight(), vec![t(2)]);
    }

    #[test]
    fn replay_applies_in_log_order() {
        let wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "k", None, Some(1)));
        wal.append(LogRecord::Commit { txn: t(1) });
        wal.append(LogRecord::Begin { txn: t(2) });
        wal.append(upd(2, "k", Some(1), Some(2)));
        wal.append(LogRecord::Commit { txn: t(2) });
        let storage = Storage::new();
        wal.replay_committed(&storage);
        assert_eq!(storage.get("k"), Some(Value::Int(2)));
    }

    #[test]
    fn updates_of_returns_before_images_in_order() {
        let wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "x", None, Some(1)));
        wal.append(upd(1, "x", Some(1), Some(2)));
        wal.append(upd(2, "y", None, Some(9)));
        let ups = wal.updates_of(t(1));
        assert_eq!(
            ups,
            vec![
                ("x".to_string(), None),
                ("x".to_string(), Some(Value::Int(1)))
            ]
        );
    }

    #[test]
    fn checkpoint_replay_and_compaction() {
        let wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "a", None, Some(1)));
        wal.append(LogRecord::Commit { txn: t(1) });
        wal.append(LogRecord::Checkpoint {
            state: vec![("a".into(), Value::Int(1))],
        });
        wal.append(LogRecord::Begin { txn: t(2) });
        wal.append(upd(2, "b", None, Some(2)));
        wal.append(LogRecord::Commit { txn: t(2) });

        let storage = Storage::new();
        let replayed = wal.replay_committed(&storage);
        assert_eq!(replayed, 2, "1 checkpoint key + 1 redo");
        assert_eq!(storage.get("a"), Some(Value::Int(1)));
        assert_eq!(storage.get("b"), Some(Value::Int(2)));

        // Compaction drops the pre-checkpoint records only.
        let dropped = wal.compact();
        assert_eq!(dropped, 3);
        let storage2 = Storage::new();
        wal.replay_committed(&storage2);
        assert_eq!(storage2.snapshot(), storage.snapshot());
        // Compacting again is a no-op (checkpoint is now first).
        assert_eq!(wal.compact(), 0);
    }

    #[test]
    fn compact_without_checkpoint_is_noop() {
        let wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        assert_eq!(wal.compact(), 0);
        assert_eq!(wal.len(), 1);
    }

    #[test]
    fn file_mirror_compaction_rewrites_file() {
        let dir = tmp_dir("ckpt");
        let path = dir.join("db.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::with_file(&path).unwrap();
            wal.append(LogRecord::Begin { txn: t(1) });
            wal.append(upd(1, "k", None, Some(7)));
            wal.append(LogRecord::Commit { txn: t(1) });
            wal.append(LogRecord::Checkpoint {
                state: vec![("k".into(), Value::Int(7))],
            });
            assert_eq!(wal.compact(), 3);
            assert!(wal.mirror_error().is_none());
        }
        // Reopen: only the checkpoint survives, and replay still
        // reproduces the state. The compaction temp file is gone.
        assert!(!dir.join("db.rewrite-tmp").exists());
        let wal2 = Wal::with_file(&path).unwrap();
        assert_eq!(wal2.len(), 1);
        let storage = Storage::new();
        wal2.replay_committed(&storage);
        assert_eq!(storage.get("k"), Some(Value::Int(7)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_mirror_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("db.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::with_file(&path).unwrap();
            wal.append(LogRecord::Begin { txn: t(7) });
            wal.append(upd(7, "k", None, Some(42)));
            wal.append(LogRecord::Commit { txn: t(7) });
        }
        // Reopen: records come back and replay rebuilds the store.
        let wal2 = Wal::with_file(&path).unwrap();
        assert_eq!(wal2.len(), 3);
        let storage = Storage::new();
        wal2.replay_committed(&storage);
        assert_eq!(storage.get("k"), Some(Value::Int(42)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_reopen_recovers() {
        let dir = tmp_dir("torn");
        let path = dir.join("db.wal");
        {
            let wal = Wal::with_file(&path).unwrap();
            wal.append(LogRecord::Begin { txn: t(1) });
            wal.append(upd(1, "k", None, Some(5)));
            wal.append(LogRecord::Commit { txn: t(1) });
        }
        // Simulate a crash mid-append: half of a Begin record.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"Begin\":{{\"tx").unwrap();
        }
        let (wal2, report) = Wal::with_file_report(&path, DurabilityPolicy::PerEvent).unwrap();
        assert_eq!(wal2.len(), 3, "complete records survive");
        let tail = report.torn_tail.expect("torn tail reported");
        assert_eq!(tail.discarded, "{\"Begin\":{\"tx");
        let storage = Storage::new();
        wal2.replay_committed(&storage);
        assert_eq!(storage.get("k"), Some(Value::Int(5)));
        // The WAL is writable again after truncation: new appends land
        // on a clean record boundary.
        wal2.append(LogRecord::Begin { txn: t(2) });
        wal2.append(LogRecord::Abort { txn: t(2) });
        drop(wal2);
        let wal3 = Wal::with_file(&path).unwrap();
        assert_eq!(wal3.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_still_rejected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("db.wal");
        std::fs::write(
            &path,
            "{\"Begin\":{\"txn\":1}}\ngarbage\n{\"Commit\":{\"txn\":1}}\n",
        )
        .unwrap();
        let err = Wal::with_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mirror_write_failure_is_sticky_not_fatal() {
        let dir = tmp_dir("sticky");
        let path = dir.join("db.wal");
        std::fs::write(&path, "").unwrap();
        // A read-only handle makes every write fail (EBADF), which
        // stands in for disk-full without needing a full disk.
        let ro = OpenOptions::new().read(true).open(&path).unwrap();
        let wal = Wal::with_injected_file(ro, path.clone(), DurabilityPolicy::PerEvent);
        let lsn = wal.append(LogRecord::Begin { txn: t(1) });
        assert_eq!(lsn, 0, "in-memory log keeps working");
        let err = wal.mirror_error().expect("first failure recorded");
        assert!(err.message.contains("append"), "{err}");
        // Later appends neither panic nor overwrite the first error.
        wal.append(LogRecord::Commit { txn: t(1) });
        assert_eq!(wal.mirror_error(), Some(err));
        assert_eq!(wal.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_policy_commit_is_still_a_barrier() {
        let dir = tmp_dir("batch");
        let path = dir.join("db.wal");
        let wal = Wal::with_file_policy(&path, DurabilityPolicy::Batched { n: 100 }).unwrap();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "k", None, Some(1)));
        // Nothing flushed yet under Batched{100}...
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        // ...but a commit record forces the group to disk.
        wal.append(LogRecord::Commit { txn: t(1) });
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk.lines().count(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_append_and_compact_keep_file_consistent() {
        let dir = tmp_dir("race");
        let path = dir.join("db.wal");
        let wal = std::sync::Arc::new(Wal::with_file(&path).unwrap());
        wal.append(LogRecord::Checkpoint { state: vec![] });
        let appender = {
            let wal = wal.clone();
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    wal.append(LogRecord::Begin { txn: t(i) });
                    wal.append(LogRecord::Abort { txn: t(i) });
                }
            })
        };
        let compactor = {
            let wal = wal.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    wal.compact();
                    std::thread::yield_now();
                }
            })
        };
        appender.join().unwrap();
        compactor.join().unwrap();
        assert!(wal.mirror_error().is_none());
        wal.flush();
        let in_memory = wal.records();
        drop(wal);
        // The file must hold exactly the in-memory records: no append
        // lost to a concurrent rewrite, no duplicated tail.
        let wal2 = Wal::with_file(&path).unwrap();
        assert_eq!(wal2.records(), in_memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
