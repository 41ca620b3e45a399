//! Write-ahead logging and redo recovery for one local database.
//!
//! Each local database logs physiological before/after images of every
//! update, plus transaction begin/commit/abort records. Two uses:
//!
//! 1. **Abort (in-place undo)** — the transaction layer restores the
//!    before-images it logged, newest first. It keeps its own copy of
//!    them ([`crate::Database`]); an abort never reads the log.
//! 2. **Crash recovery (redo)** — the in-memory store is volatile;
//!    after a (simulated or real) crash, [`Wal::replay_committed`]
//!    rebuilds it by re-applying the after-images of committed
//!    transactions in log order. Updates of losers are skipped, which
//!    makes undo at restart unnecessary: the store is rebuilt from
//!    empty, so only winner writes ever reach it.
//!
//! The WAL is the substrate's [`Log`], instantiated for [`LogRecord`]:
//! the optional file mirror (magic `"WFWL"`, version 2, one checksummed
//! frame per group commit — `docs/recovery.md`), the memory that holds only
//! what the file does not, torn-tail repair on reopen, sticky mirror
//! errors, fault counting and atomic compaction are all the shared
//! log's. This module adds the record type with its payload codec, the
//! rule that commit and abort records force a flush regardless of
//! [`DurabilityPolicy`] — the durability point is the commit point —
//! the redo query, and the count of active transactions that says when
//! a checkpoint is safe and lets the log [bound itself](Wal::append_end).
//!
//! A `Wal` takes no lock of its own and counts in plain integers: a
//! [`crate::Database`] keeps it beside its store behind the one lock of
//! its state, so every writer here takes `&mut self` and the checkpoint
//! rule reads the store it is handed under that same lock.

use crate::durability::{DurabilityPolicy, MirrorError, TailReport};
use crate::frame::{self, Field, Reader, Record, FILE_HEADER_LEN};
use crate::log::Log;
use crate::storage::{Key, Storage};
use crate::txn::TxnId;
use crate::value::Value;
use std::path::Path;
use wfms_observe::Value as Reading;

/// A log checkpoints itself once it holds more records since the last
/// checkpoint than `max(CHECKPOINT_MIN_RECORDS, CHECKPOINT_RECORDS_PER_KEY
/// × keys in the store)` and no transaction is active. A checkpoint
/// writes one entry per key, so at four or more appended records per
/// key between two of them the snapshot costs a quarter of an entry per
/// record — amortised O(1) — and the log never grows past four times
/// the store it protects. The floor keeps a small store from
/// checkpointing every few transactions: 4 096 records are a few
/// hundred KiB of memory and about a millisecond of replay.
const CHECKPOINT_MIN_RECORDS: usize = 4096;
/// See [`CHECKPOINT_MIN_RECORDS`].
const CHECKPOINT_RECORDS_PER_KEY: usize = 4;

/// Log sequence number: the index of a record in the log.
pub type Lsn = u64;

/// One write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A transaction started.
    Begin { txn: TxnId },
    /// An update with before/after images (`None` = key absent).
    Update {
        txn: TxnId,
        key: Key,
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
    Checkpoint { state: Vec<(Key, Value)> },
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

/// Payload: a variant tag (1..=5), then the fields in declaration order.
impl Record for LogRecord {
    const HEADER: [u8; FILE_HEADER_LEN] = *b"WFWL\x02";
    const NAME: &'static str = "WAL";

    fn not_this_log(path: &Path) -> String {
        format!("{} is not a WAL file", path.display())
    }

    fn encode(&self, out: &mut Vec<u8>, _: &mut frame::Names) {
        match self {
            LogRecord::Begin { txn } => {
                out.push(1);
                frame::put_u64(out, txn.0);
            }
            LogRecord::Update {
                txn,
                key,
                before,
                after,
            } => {
                out.push(2);
                frame::put_u64(out, txn.0);
                frame::put_str(out, key);
                frame::put_opt(out, before, frame::put_value);
                frame::put_opt(out, after, frame::put_value);
            }
            LogRecord::Commit { txn } => {
                out.push(3);
                frame::put_u64(out, txn.0);
            }
            LogRecord::Abort { txn } => {
                out.push(4);
                frame::put_u64(out, txn.0);
            }
            LogRecord::Checkpoint { state } => {
                out.push(5);
                frame::put_u64(out, state.len() as u64);
                for (key, value) in state {
                    frame::put_str(out, key);
                    frame::put_value(out, value);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
        Ok(match r.byte()? {
            1 => LogRecord::Begin {
                txn: TxnId(r.u64()?),
            },
            2 => LogRecord::Update {
                txn: TxnId(r.u64()?),
                key: r.shared_str()?,
                before: r.opt(Reader::value)?,
                after: r.opt(Reader::value)?,
            },
            3 => LogRecord::Commit {
                txn: TxnId(r.u64()?),
            },
            4 => LogRecord::Abort {
                txn: TxnId(r.u64()?),
            },
            5 => LogRecord::Checkpoint {
                state: (0..r.count()?)
                    .map(|_| Ok((r.shared_str()?, r.value()?)))
                    .collect::<Field<_>>()?,
            },
            _ => return Err("unknown WAL record tag"),
        })
    }

    fn is_checkpoint(&self) -> bool {
        matches!(self, LogRecord::Checkpoint { .. })
    }
}

/// Counters of one WAL, exposed for the engine's observability
/// snapshot (a copy, read under the owning database's lock).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since creation.
    pub appends: u64,
    /// Appends that forced a flush (commit/abort durability barriers).
    pub barrier_flushes: u64,
    /// Total wall-clock nanoseconds spent in appends that wrote the
    /// file mirror (framing + file I/O + policy-driven flush). Zero for
    /// in-memory logs.
    pub mirror_nanos: u64,
    /// Reopens that found and truncated a half-written final frame.
    pub torn_tails_truncated: u64,
    /// Of those, tails complete enough to fail a length check or CRC.
    pub crc_failures: u64,
    /// Mirror I/O failures (the first disables the mirror and is kept
    /// as [`Wal::mirror_error`]).
    pub mirror_errors: u64,
    /// Records held in memory right now: all of an unmirrored log —
    /// bounded by the checkpoint rule — and the unflushed tail of a
    /// mirrored one.
    pub resident_records: u64,
    /// Checkpoints the log took by itself ([`Wal::append_end`]).
    pub checkpoints: u64,
}

impl WalStats {
    /// Every number beside the name it is exposed under: counts, and
    /// the one level — a checkpoint brings `resident_records` down.
    pub fn series(&self) -> [(&'static str, Reading); 8] {
        [
            ("db.wal_appends", Reading::Counter(self.appends)),
            (
                "db.wal_barrier_flushes",
                Reading::Counter(self.barrier_flushes),
            ),
            ("db.wal_mirror_nanos", Reading::Counter(self.mirror_nanos)),
            (
                "db.wal_torn_tails_truncated",
                Reading::Counter(self.torn_tails_truncated),
            ),
            ("db.wal_crc_failures", Reading::Counter(self.crc_failures)),
            ("db.wal_mirror_errors", Reading::Counter(self.mirror_errors)),
            (
                "db.wal_resident_records",
                Reading::Gauge(self.resident_records as i64),
            ),
            ("db.wal_checkpoints", Reading::Counter(self.checkpoints)),
        ]
    }
}

/// The write-ahead log of one local database.
#[derive(Debug, Default)]
pub struct Wal {
    log: Log<LogRecord>,
    /// Opened over a file: appends are timed into `mirror_nanos`.
    mirrored: bool,
    /// Transactions with a `Begin` and no `Commit`/`Abort` yet: whoever
    /// holds the log mutably and reads 0 knows the store beside it holds
    /// committed state and nothing else.
    active: u64,
    appends: u64,
    barrier_flushes: u64,
    mirror_nanos: u64,
    checkpoints: u64,
}

impl Wal {
    /// An in-memory log (survives a *simulated* crash that clears the
    /// store but keeps the process alive).
    pub fn new() -> Self {
        Self::default()
    }

    /// A log mirrored to `path` (over what the file holds, repairing a
    /// torn tail) under `policy`; commit/abort records force a flush
    /// under every policy. The [`TailReport`] says whether a torn tail
    /// was truncated.
    pub fn open(path: &Path, policy: DurabilityPolicy) -> std::io::Result<(Self, TailReport)> {
        let (log, report) = Log::open(path, policy, |_| {})?;
        let wal = Self {
            log,
            mirrored: true,
            ..Self::default()
        };
        Ok((wal, report))
    }

    /// The first mirror I/O error hit, if any. Once set, the file
    /// mirror is disabled and the log serves from memory only, so the
    /// owning database can surface the failure at its API boundary
    /// instead of dying mid-transaction.
    pub fn mirror_error(&self) -> Option<MirrorError> {
        self.log.mirror_error().cloned()
    }

    /// Appends a record, returning its LSN. Never panics on mirror
    /// I/O failure — see [`Wal::mirror_error`].
    pub fn append(&mut self, rec: LogRecord) -> Lsn {
        let barrier = match rec {
            LogRecord::Begin { .. } => {
                self.active += 1;
                false
            }
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => {
                // Saturating: a handle lost to a crash may still end.
                self.active = self.active.saturating_sub(1);
                self.barrier_flushes += 1;
                true
            }
            LogRecord::Update { .. } | LogRecord::Checkpoint { .. } => false,
        };
        self.appends += 1;
        let t0 = self.mirrored.then(std::time::Instant::now);
        let lsn = self.log.append(rec, barrier) as Lsn;
        if let Some(t0) = t0 {
            self.mirror_nanos += t0.elapsed().as_nanos() as u64;
        }
        lsn
    }

    /// Appends the `Commit` or `Abort` that ends a transaction over
    /// `storage`. If that leaves no transaction active and the log has
    /// outgrown the rule — more than `max(4096, 4 × keys in the store)`
    /// records since the last checkpoint — the log checkpoints itself
    /// in the same call, with the store it is handed: its owner holds
    /// both under one lock, so no `Begin` can slip in between the count
    /// reading zero and the snapshot. The trigger reads what the append
    /// already holds; the store is asked for its size only once the
    /// floor is passed.
    pub fn append_end(&mut self, rec: LogRecord, storage: &Storage) -> Lsn {
        let lsn = self.append(rec);
        let grown = self.log.since_checkpoint();
        if grown > CHECKPOINT_MIN_RECORDS
            && self.active == 0
            && grown > CHECKPOINT_RECORDS_PER_KEY * storage.len()
        {
            self.checkpoint_to(storage);
            self.checkpoints += 1;
        }
        lsn
    }

    /// Writes a checkpoint of `storage` and compacts the log, unless a
    /// transaction is active: its uncommitted in-place writes would be
    /// snapshotted as committed state and its `Begin` and before-images
    /// compacted away. Returns the number of records dropped (0 when
    /// refused).
    pub fn checkpoint(&mut self, storage: &Storage) -> usize {
        if self.active > 0 {
            return 0;
        }
        self.checkpoint_to(storage)
    }

    fn checkpoint_to(&mut self, storage: &Storage) -> usize {
        let state = storage.snapshot().into_iter().collect();
        self.append(LogRecord::Checkpoint { state });
        self.log.compact()
    }

    /// Forgets the transactions in flight: after a crash they are
    /// losers whose handles will never end them.
    pub fn forget_active(&mut self) {
        self.active = 0;
    }

    /// Snapshot of the append/flush/fault counters.
    pub fn stats(&self) -> WalStats {
        let faults = self.log.faults();
        WalStats {
            appends: self.appends,
            barrier_flushes: self.barrier_flushes,
            mirror_nanos: self.mirror_nanos,
            torn_tails_truncated: faults.torn_tails_truncated.get(),
            crc_failures: faults.crc_failures.get(),
            mirror_errors: faults.mirror_errors.get(),
            resident_records: self.log.resident() as u64,
            checkpoints: self.checkpoints,
        }
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// A copy of the full log (for audit dumps and tests).
    pub fn records(&mut self) -> Vec<LogRecord> {
        self.log.records()
    }

    /// Redo recovery: rebuilds `storage` (assumed empty/cleared). If
    /// the log contains checkpoints, the state of the **last** one is
    /// installed first and only records after it are considered;
    /// committed transactions' after-images are then re-applied in log
    /// order. Returns the number of updates replayed (checkpoint
    /// installs count one per key).
    pub fn replay_committed(&mut self, storage: &mut Storage) -> usize {
        // One pass over the log keeps what a replay reads: a checkpoint
        // makes everything before it redundant, so the list restarts
        // at each one.
        let mut tail = Vec::new();
        self.log.for_each(|rec| {
            if rec.is_checkpoint() {
                tail.clear();
            }
            tail.push(rec.into_owned());
        });
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
        for rec in &tail {
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

    /// Drops every record before the last checkpoint (log compaction),
    /// atomically rewriting the file mirror if there is one. A no-op
    /// when the log holds no checkpoint. Returns the number of records
    /// dropped.
    pub fn compact(&mut self) -> usize {
        self.log.compact()
    }

    /// The highest transaction id in the log: a database reopened over
    /// a WAL file allocates above it, so a new transaction can never
    /// share an id with (and commit the updates of) a pre-crash loser.
    pub fn last_txn(&mut self) -> Option<TxnId> {
        let mut last = None;
        self.log.for_each(|rec| last = last.max(rec.txn()));
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use std::fs::OpenOptions;

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

    /// Opens (or reopens) the WAL file at `path`, per-event flushed.
    fn open(path: &Path) -> std::io::Result<Wal> {
        Wal::open(path, DurabilityPolicy::PerEvent).map(|(wal, _)| wal)
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
        let mut wal = Wal::new();
        assert_eq!(wal.append(LogRecord::Begin { txn: t(1) }), 0);
        assert_eq!(wal.append(upd(1, "k", None, Some(1))), 1);
        assert_eq!(wal.append(LogRecord::Commit { txn: t(1) }), 2);
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn replay_redoes_only_committed() {
        let mut wal = Wal::new();
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

        let mut storage = Storage::new();
        let n = wal.replay_committed(&mut storage);
        assert_eq!(n, 1);
        assert_eq!(storage.get("a"), Some(Value::Int(10)));
        assert_eq!(storage.get("b"), None);
        assert_eq!(storage.get("c"), None);
    }

    #[test]
    fn replay_applies_in_log_order() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "k", None, Some(1)));
        wal.append(LogRecord::Commit { txn: t(1) });
        wal.append(LogRecord::Begin { txn: t(2) });
        wal.append(upd(2, "k", Some(1), Some(2)));
        wal.append(LogRecord::Commit { txn: t(2) });
        let mut storage = Storage::new();
        wal.replay_committed(&mut storage);
        assert_eq!(storage.get("k"), Some(Value::Int(2)));
    }

    #[test]
    fn checkpoint_replay_and_compaction() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(upd(1, "a", None, Some(1)));
        wal.append(LogRecord::Commit { txn: t(1) });
        wal.append(LogRecord::Checkpoint {
            state: vec![("a".into(), Value::Int(1))],
        });
        wal.append(LogRecord::Begin { txn: t(2) });
        wal.append(upd(2, "b", None, Some(2)));
        wal.append(LogRecord::Commit { txn: t(2) });

        let mut storage = Storage::new();
        let replayed = wal.replay_committed(&mut storage);
        assert_eq!(replayed, 2, "1 checkpoint key + 1 redo");
        assert_eq!(storage.get("a"), Some(Value::Int(1)));
        assert_eq!(storage.get("b"), Some(Value::Int(2)));

        // Compaction drops the pre-checkpoint records only.
        let dropped = wal.compact();
        assert_eq!(dropped, 3);
        let mut storage2 = Storage::new();
        wal.replay_committed(&mut storage2);
        assert_eq!(storage2.snapshot(), storage.snapshot());
        // Compacting again is a no-op (checkpoint is now first).
        assert_eq!(wal.compact(), 0);
    }

    #[test]
    fn compact_without_checkpoint_is_noop() {
        let mut wal = Wal::new();
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
            let mut wal = open(&path).unwrap();
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
        let mut wal2 = open(&path).unwrap();
        assert_eq!(wal2.len(), 1);
        let mut storage = Storage::new();
        wal2.replay_committed(&mut storage);
        assert_eq!(storage.get("k"), Some(Value::Int(7)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_mirror_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("db.wal");
        let _ = std::fs::remove_file(&path);
        let records = [
            LogRecord::Begin { txn: t(7) },
            upd(7, "k", None, Some(42)),
            LogRecord::Commit { txn: t(7) },
        ];
        {
            let mut wal = open(&path).unwrap();
            for rec in &records {
                wal.append(rec.clone());
            }
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            frame::file_bytes(&records),
            "the file is its header plus one frame per record"
        );
        // Reopen: records come back and replay rebuilds the store.
        let mut wal2 = open(&path).unwrap();
        assert_eq!(wal2.records(), records);
        let mut storage = Storage::new();
        wal2.replay_committed(&mut storage);
        assert_eq!(storage.get("k"), Some(Value::Int(42)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_reopen_recovers() {
        let dir = tmp_dir("torn");
        let path = dir.join("db.wal");
        {
            let mut wal = open(&path).unwrap();
            wal.append(LogRecord::Begin { txn: t(1) });
            wal.append(upd(1, "k", None, Some(5)));
            wal.append(LogRecord::Commit { txn: t(1) });
        }
        let intact = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append: half of a Begin frame.
        {
            use std::io::Write as _;
            let mut frame = Vec::new();
            frame::encode_frame(&LogRecord::Begin { txn: t(2) }, &mut frame);
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&frame[..frame.len() / 2]).unwrap();
        }
        let (mut wal2, report) = Wal::open(&path, DurabilityPolicy::PerEvent).unwrap();
        assert_eq!(wal2.len(), 3, "complete records survive");
        let tail = report.torn_tail.expect("torn tail reported");
        assert_eq!(tail.offset, intact.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), intact, "file repaired");
        // Counted, not printed.
        let stats = wal2.stats();
        assert_eq!(stats.torn_tails_truncated, 1);
        assert_eq!(stats.crc_failures, 0, "short, not damaged");
        let mut storage = Storage::new();
        wal2.replay_committed(&mut storage);
        assert_eq!(storage.get("k"), Some(Value::Int(5)));
        // The WAL is writable again after truncation: new appends land
        // on a clean record boundary.
        wal2.append(LogRecord::Begin { txn: t(2) });
        wal2.append(LogRecord::Abort { txn: t(2) });
        drop(wal2);
        let wal3 = open(&path).unwrap();
        assert_eq!(wal3.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_still_rejected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("db.wal");
        let begin = frame::file_bytes(&[LogRecord::Begin { txn: t(1) }]);
        let mut bytes = begin.clone();
        bytes.extend_from_slice(b"garbage");
        frame::encode_frame(&LogRecord::Commit { txn: t(1) }, &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let at = format!("frame at byte {}:", begin.len());
        assert!(err.to_string().contains(&at), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "left untouched");
        // A file of another format is refused too, and says what it is not.
        std::fs::write(&path, "{\"Begin\":{\"txn\":1}}\n").unwrap();
        let err = open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("is not a WAL file"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One flipped bit inside an `Update`'s after-image in the middle
    /// of the file: refused, naming the damaged frame — never loaded
    /// with the wrong value.
    #[test]
    fn flipped_bit_in_a_mid_file_value_is_rejected_at_its_frame() {
        let dir = tmp_dir("flip");
        let path = dir.join("db.wal");
        let records = [
            LogRecord::Begin { txn: t(1) },
            upd(1, "balance", Some(100), Some(0x55)),
            LogRecord::Commit { txn: t(1) },
        ];
        let mut bytes = frame::file_bytes(&records);
        let update_at = frame::file_bytes(&records[..1]).len();
        let update_end = frame::file_bytes(&records[..2]).len();
        // The after-image `Int(0x55)` is the update payload's last
        // byte (zig-zag varint 0xAA 0x01).
        assert_eq!(bytes[update_end - 2..update_end], [0xAA, 0x01]);
        bytes[update_end - 2] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let err = open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let at = format!("frame at byte {update_at}: frame checksum mismatch");
        assert!(err.to_string().contains(&at), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every byte prefix of a real WAL file reopens to a prefix of its
    /// records, truncates at most one torn frame back to a frame
    /// boundary, says so in the `TailReport` and the counters, and
    /// accepts the next append on the repaired boundary.
    #[test]
    fn every_byte_prefix_of_a_wal_file_reopens() {
        let dir = tmp_dir("prefixes");
        let path = dir.join("db.wal");
        let records = [
            LogRecord::Begin { txn: t(1) },
            upd(1, "k", None, Some(-7)),
            LogRecord::Update {
                txn: t(1),
                key: "name".into(),
                before: Some(Value::Str("λ".into())),
                after: None,
            },
            LogRecord::Commit { txn: t(1) },
            LogRecord::Checkpoint {
                state: vec![
                    ("k".into(), Value::Int(-7)),
                    ("raw".into(), Value::Bytes(vec![0, 255])),
                ],
            },
            LogRecord::Begin { txn: t(2) },
            LogRecord::Abort { txn: t(2) },
        ];
        {
            let (mut wal, _) = Wal::open(&path, DurabilityPolicy::PerEvent).unwrap();
            for rec in &records {
                wal.append(rec.clone());
            }
        }
        let whole = std::fs::read(&path).unwrap();
        // Byte offset at which the header and each record's frame end.
        let ends: Vec<usize> = (0..=records.len())
            .map(|k| frame::file_bytes(&records[..k]).len())
            .collect();
        assert_eq!(whole.len(), ends[records.len()]);
        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let (mut wal, report) = Wal::open(&path, DurabilityPolicy::PerEvent).unwrap();
            let k = ends.iter().filter(|&&end| end <= cut).count().max(1) - 1;
            assert_eq!(wal.records(), records[..k], "cut at byte {cut}");
            assert_eq!(report.records, k, "cut at byte {cut}");
            let boundary = cut == 0 || ends.contains(&cut);
            assert_eq!(report.torn_tail.is_none(), boundary, "cut at byte {cut}");
            assert_eq!(wal.stats().torn_tails_truncated, !boundary as u64);
            if let Some(tail) = &report.torn_tail {
                let start = if cut < ends[0] { 0 } else { ends[k] };
                assert_eq!(tail.offset, start as u64, "cut at byte {cut}");
            }
            if let Some(next) = records.get(k) {
                wal.append(next.clone());
                drop(wal);
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    whole[..ends[k + 1]],
                    "cut at byte {cut}: the next append lands on a clean boundary"
                );
            }
        }
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
        let mut wal = Wal {
            log: Log::with_injected_file(ro, path.clone(), DurabilityPolicy::PerEvent),
            ..Wal::default()
        };
        let lsn = wal.append(LogRecord::Begin { txn: t(1) });
        assert_eq!(lsn, 0, "in-memory log keeps working");
        let err = wal.mirror_error().expect("first failure recorded");
        assert!(err.message.contains("append"), "{err}");
        // Later appends neither panic nor overwrite the first error.
        wal.append(LogRecord::Commit { txn: t(1) });
        assert_eq!(wal.mirror_error(), Some(err));
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.stats().mirror_errors, 1, "counted, not printed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_policy_commit_is_still_a_barrier() {
        let dir = tmp_dir("batch");
        let path = dir.join("db.wal");
        let (mut wal, _) = Wal::open(&path, DurabilityPolicy::Batched { n: 100 }).unwrap();
        let mut records = vec![LogRecord::Begin { txn: t(1) }, upd(1, "k", None, Some(1))];
        wal.append(records[0].clone());
        wal.append(records[1].clone());
        // Nothing flushed yet under Batched{100}...
        assert_eq!(std::fs::read(&path).unwrap(), LogRecord::HEADER);
        // ...but a commit record forces the group to disk, as one frame.
        records.push(LogRecord::Commit { txn: t(1) });
        wal.append(records[2].clone());
        let mut group = frame::Encoder::new(&LogRecord::HEADER);
        for rec in &records {
            group.push(rec, 100);
        }
        assert_eq!(std::fs::read(&path).unwrap(), group.finish());
        assert_eq!(wal.stats().barrier_flushes, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ---- the shared codec properties, for `LogRecord` ------------------

    use proptest::prelude::*;

    /// Empty, ASCII, multi-byte, NUL and quote-bearing strings.
    fn text() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            Just('a'),
            Just('/'),
            Just('"'),
            Just('\0'),
            Just('λ'),
            Just('日')
        ];
        prop::collection::vec(ch, 0..6).prop_map(|cs| cs.into_iter().collect())
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            text().prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            prop::collection::vec(any::<u8>(), 0..5).prop_map(Value::Bytes),
        ]
    }

    /// Any of the five variants, every optional image both ways.
    fn record() -> impl Strategy<Value = LogRecord> {
        let update = (
            any::<u64>(),
            text(),
            prop::option::of(value()),
            prop::option::of(value()),
        )
            .prop_map(|(txn, key, before, after)| LogRecord::Update {
                txn: t(txn),
                key: key.into(),
                before,
                after,
            });
        prop_oneof![
            any::<u64>().prop_map(|n| LogRecord::Begin { txn: t(n) }),
            update,
            any::<u64>().prop_map(|n| LogRecord::Commit { txn: t(n) }),
            any::<u64>().prop_map(|n| LogRecord::Abort { txn: t(n) }),
            prop::collection::vec((text().prop_map(Key::from), value()), 0..4)
                .prop_map(|state| LogRecord::Checkpoint { state }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn records_round_trip(records in prop::collection::vec(record(), 0..6)) {
            properties::round_trips(&records);
        }

        #[test]
        fn byte_prefixes_decode_to_record_prefixes(records in prop::collection::vec(record(), 1..4)) {
            properties::byte_prefixes_decode_to_record_prefixes(&records);
        }

        #[test]
        fn flipped_bits_are_torn_or_corrupt_never_silent(
            records in prop::collection::vec(record(), 1..4),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            properties::flipped_bit_is_torn_or_corrupt(&records, at, bit);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Written through the log under `Batched { n }`, a frame per
        /// barrier whatever `n` is: every cut and every flipped bit
        /// keeps or loses whole frames.
        #[test]
        fn grouped_frames_keep_or_lose_whole_frames(
            records in prop::collection::vec(record(), 1..8),
            flush_after in prop::collection::vec(any::<bool>(), 8),
            n in 1usize..5,
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            properties::grouped_frames(&records, &flush_after, n, at, bit);
        }
    }
}
