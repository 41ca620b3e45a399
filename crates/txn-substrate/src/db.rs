//! One autonomous local database.
//!
//! A [`Database`] bundles the pieces of the classic architecture —
//! [`Storage`] (volatile data),
//! [`LockManager`] (strict 2PL) and
//! [`Wal`] (durable log) — behind a begin/read/write/
//! commit/abort transaction interface.
//!
//! "Autonomous" is load-bearing: each database decides its own fate.
//! It may unilaterally abort any transaction (via a deadlock or an
//! injected failure), it may be *down* (site failure), and it shares
//! no state with any other database. These are the multidatabase
//! assumptions under which flexible transactions were designed and the
//! environment the reproduced paper's workflow processes operate in.

use crate::durability::DurabilityPolicy;
use crate::inject::{FailureAction, InjectorHandle};
use crate::lock::{LockError, LockManager, LockMode, LockStats};
use crate::storage::{Key, Storage};
use crate::txn::{Transaction, TxnId, TxnStatus};
use crate::value::Value;
use crate::wal::{LogRecord, Wal};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wfms_observe::{Counter, Value as Reading};

/// The before-images of one transaction's writes, oldest first: what
/// its abort restores, newest first. They travel with the
/// [`Transaction`] handle, so an abort costs what the transaction
/// wrote, whatever the log holds.
pub(crate) type Undo = Vec<(Key, Option<Value>)>;

/// Errors surfaced by database operations. Any error on an active
/// transaction rolls that transaction back before returning — the
/// caller never has to clean up a half-failed transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Granting a lock would have deadlocked; the transaction aborted.
    Deadlock { txn: TxnId, cycle: Vec<TxnId> },
    /// The database exercised its autonomy and unilaterally aborted
    /// the transaction (scripted by the failure injector).
    InjectedAbort { txn: TxnId, label: String },
    /// The database is down (simulated site failure).
    Unavailable { db: String },
    /// Operation on a handle that is no longer active.
    NotActive { txn: TxnId, status: TxnStatus },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Deadlock { txn, cycle } => {
                write!(f, "{txn} aborted by deadlock (cycle {cycle:?})")
            }
            DbError::InjectedAbort { txn, label } => {
                write!(f, "{txn} unilaterally aborted (injected at {label:?})")
            }
            DbError::Unavailable { db } => write!(f, "database {db:?} is unavailable"),
            DbError::NotActive { txn, status } => {
                write!(f, "{txn} is not active (status {status:?})")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// Construction-time configuration of a [`Database`].
#[derive(Debug, Default)]
pub struct DbConfig {
    /// Human-readable database name (also the default injection label
    /// prefix for commit-point failures: `"<name>/commit"`).
    pub name: String,
    /// Optional failure injector shared with other components.
    pub injector: Option<InjectorHandle>,
    /// Mirror the WAL to this file (enables recovery across real
    /// process restarts, not just simulated crashes).
    pub wal_path: Option<PathBuf>,
}

impl DbConfig {
    /// Minimal configuration: a named in-memory database, no injection.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// Attaches a failure injector.
    pub fn with_injector(mut self, injector: InjectorHandle) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Mirrors the WAL to `path`.
    pub fn with_wal_file(mut self, path: PathBuf) -> Self {
        self.wal_path = Some(path);
        self
    }
}

/// Operation counters for one database (experiment B8 reads these):
/// a snapshot of the database's atomic counters, so counting takes no
/// lock on the transaction path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted for any reason.
    pub aborted: u64,
    /// Aborts caused by deadlock.
    pub deadlock_aborts: u64,
    /// Aborts caused by the failure injector.
    pub injected_aborts: u64,
    /// Individual read operations served.
    pub reads: u64,
    /// Individual write operations applied.
    pub writes: u64,
}

impl DbStats {
    /// Every count beside the name it is exposed under.
    pub fn series(&self) -> [(&'static str, Reading); 7] {
        [
            ("db.txns_begun", Reading::Counter(self.begun)),
            ("db.txns_committed", Reading::Counter(self.committed)),
            ("db.txns_aborted", Reading::Counter(self.aborted)),
            ("db.deadlock_aborts", Reading::Counter(self.deadlock_aborts)),
            ("db.injected_aborts", Reading::Counter(self.injected_aborts)),
            ("db.reads", Reading::Counter(self.reads)),
            ("db.writes", Reading::Counter(self.writes)),
        ]
    }
}

/// The live form of [`DbStats`], one relaxed atomic per counter.
#[derive(Debug, Default)]
struct Counters {
    begun: Counter,
    committed: Counter,
    aborted: Counter,
    deadlock_aborts: Counter,
    injected_aborts: Counter,
    reads: Counter,
    writes: Counter,
}

/// One autonomous local database of the federation.
///
/// ```
/// use txn_substrate::{Database, DbConfig, Value};
///
/// let db = Database::new(DbConfig::named("bank"));
/// let mut txn = db.begin();
/// txn.put("alice", 100i64).unwrap();
/// txn.put("bob", 50i64).unwrap();
/// txn.commit().unwrap();
///
/// // Crash and recover from the write-ahead log.
/// db.crash();
/// db.recover();
/// assert_eq!(db.peek("alice"), Some(Value::Int(100)));
/// ```
#[derive(Debug)]
pub struct Database {
    name: String,
    /// `"<name>/commit"`, the commit-point injection label.
    commit_label: String,
    storage: Storage,
    locks: LockManager,
    wal: Wal,
    next_txn: AtomicU64,
    /// Undo lists of ended transactions, emptied, for the next `begin`
    /// to take: a transaction's first write allocates nothing.
    undo_pool: Mutex<Vec<Undo>>,
    injector: Option<InjectorHandle>,
    down: AtomicBool,
    stats: Counters,
}

impl Database {
    /// Creates a database from `config`.
    ///
    /// # Panics
    /// Panics if a WAL file was requested but cannot be opened — a
    /// database that cannot log must not start.
    pub fn new(config: DbConfig) -> Self {
        let wal = match &config.wal_path {
            Some(path) => {
                Wal::open(path, DurabilityPolicy::default())
                    .expect("cannot open WAL file")
                    .0
            }
            None => Wal::new(),
        };
        Self {
            commit_label: format!("{name}/commit", name = config.name),
            name: config.name,
            storage: Storage::new(),
            locks: LockManager::new(),
            next_txn: AtomicU64::new(wal.last_txn().map_or(1, |t| t.0 + 1)),
            undo_pool: Mutex::default(),
            wal,
            injector: config.injector,
            down: AtomicBool::new(false),
            stats: Counters::default(),
        }
    }

    /// This database's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Begins a new transaction.
    pub fn begin(&self) -> Transaction<'_> {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.wal.append(LogRecord::Begin { txn: id });
        self.stats.begun.inc();
        Transaction {
            db: self,
            id,
            status: TxnStatus::Active,
            undo: self.undo_pool.lock().pop().unwrap_or_default(),
        }
    }

    /// Marks the database down (every operation fails with
    /// [`DbError::Unavailable`]) or back up.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Release);
    }

    /// True if the database is currently down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Simulates losing volatile memory: the store is cleared; the WAL
    /// survives. In-flight transactions become losers (no commit
    /// record). Callers must ensure no transaction is concurrently
    /// active on another thread — exactly the quiescence a real
    /// restart implies.
    pub fn crash(&self) {
        self.storage.clear();
        self.wal.forget_active();
        self.down.store(true, Ordering::Release);
    }

    /// Recovers after [`Database::crash`]: rebuilds the store by
    /// redoing committed transactions from the WAL (starting at the
    /// last checkpoint, if any) and brings the database back up.
    /// Returns the number of updates replayed.
    pub fn recover(&self) -> usize {
        self.storage.clear();
        let replayed = self.wal.replay_committed(&self.storage);
        self.down.store(false, Ordering::Release);
        replayed
    }

    /// Writes a checkpoint capturing the complete committed state and
    /// compacts the log, bounding recovery time (experiment B5's
    /// replay cost is linear in post-checkpoint log length). With a
    /// transaction active the store holds uncommitted writes, so the
    /// call does nothing. Returns the number of log records dropped by
    /// compaction. The database also does this by itself, whenever a
    /// transaction ends with none left active and the log has outgrown
    /// the store ([`Wal::append_end`]).
    pub fn checkpoint(&self) -> usize {
        self.wal.checkpoint(&self.storage)
    }

    /// A point-in-time copy of committed state (keys in order).
    /// Only meaningful when no writer is concurrently active.
    pub fn snapshot(&self) -> BTreeMap<String, Value> {
        let shared = self.storage.snapshot().into_iter();
        shared.map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Non-transactional read of current state. Intended for tests and
    /// audit dumps; regular code should use a transaction.
    pub fn peek(&self, key: &str) -> Option<Value> {
        self.storage.get(key)
    }

    /// Operation counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            begun: self.stats.begun.get(),
            committed: self.stats.committed.get(),
            aborted: self.stats.aborted.get(),
            deadlock_aborts: self.stats.deadlock_aborts.get(),
            injected_aborts: self.stats.injected_aborts.get(),
            reads: self.stats.reads.get(),
            writes: self.stats.writes.get(),
        }
    }

    /// Lock-manager counters.
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// WAL append/flush counters.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.stats()
    }

    /// What this database counts and holds — transactions, locks, WAL
    /// — as the series it is exposed as (whoever exposes them labels
    /// them with [`Database::name`]).
    pub fn series(&self) -> impl Iterator<Item = (&'static str, Reading)> {
        let (txns, locks, wal) = (self.stats(), self.lock_stats(), self.wal_stats());
        (txns.series().into_iter())
            .chain(locks.series())
            .chain(wal.series())
    }

    /// Full WAL copy (audit/tests).
    pub fn wal_records(&self) -> Vec<LogRecord> {
        self.wal.records()
    }

    fn check_up(&self) -> Result<(), DbError> {
        if self.is_down() {
            Err(DbError::Unavailable {
                db: self.name.clone(),
            })
        } else {
            Ok(())
        }
    }

    // The operations below leave a failed transaction as it is: the
    // handle rolls it back ([`Database::txn_abort`]) before it returns
    // the error, so the caller never cleans up after one.

    pub(crate) fn txn_get(&self, txn: TxnId, key: &str) -> Result<Option<Value>, DbError> {
        self.check_up()?;
        match self.locks.acquire(txn, key, LockMode::Shared) {
            Ok(_) => {
                self.stats.reads.inc();
                Ok(self.storage.get(key))
            }
            Err(LockError::Deadlock { cycle }) => {
                self.stats.deadlock_aborts.inc();
                Err(DbError::Deadlock { txn, cycle })
            }
        }
    }

    pub(crate) fn txn_put(
        &self,
        txn: TxnId,
        undo: &mut Undo,
        key: &str,
        value: Option<Value>,
    ) -> Result<(), DbError> {
        self.check_up()?;
        match self.locks.acquire(txn, key, LockMode::Exclusive) {
            Ok(key) => {
                // WAL rule: log before applying. The record, the store
                // and the undo list share the lock table's copy of the
                // key; the value the store gives up is the undo image.
                self.wal.append(LogRecord::Update {
                    txn,
                    key: Arc::clone(&key),
                    before: self.storage.get(&key),
                    after: value.clone(),
                });
                let before = self.storage.apply(&key, value);
                undo.push((key, before));
                self.stats.writes.inc();
                Ok(())
            }
            Err(LockError::Deadlock { cycle }) => {
                self.stats.deadlock_aborts.inc();
                Err(DbError::Deadlock { txn, cycle })
            }
        }
    }

    pub(crate) fn txn_commit(&self, txn: TxnId, undo: &mut Undo) -> Result<(), DbError> {
        self.check_up()?;
        // The commit point is where local autonomy bites: the database
        // may refuse the commit even though every operation succeeded.
        if let Some(inj) = &self.injector {
            if inj.decide(&self.commit_label) == FailureAction::Abort {
                self.stats.injected_aborts.inc();
                let label = self.commit_label.clone();
                return Err(DbError::InjectedAbort { txn, label });
            }
        }
        undo.clear();
        self.end(txn, LogRecord::Commit { txn }, undo);
        self.stats.committed.inc();
        Ok(())
    }

    pub(crate) fn txn_abort(&self, txn: TxnId, undo: &mut Undo) {
        // Undo in place: restore before-images, newest first.
        while let Some((key, before)) = undo.pop() {
            self.storage.apply(&key, before);
        }
        self.end(txn, LogRecord::Abort { txn }, undo);
        self.stats.aborted.inc();
    }

    /// Logs the end of `txn` (which is where the log may checkpoint
    /// itself), releases its locks and takes its emptied undo list back.
    fn end(&self, txn: TxnId, rec: LogRecord, undo: &mut Undo) {
        self.wal.append_end(rec, &self.storage);
        self.locks.release_all(txn);
        self.undo_pool.lock().push(std::mem::take(undo));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{FailurePlan, Injector};
    use std::sync::Arc;

    #[test]
    fn commit_makes_writes_visible() {
        let db = Database::new(DbConfig::named("bank"));
        let mut t = db.begin();
        t.put("alice", 100i64).unwrap();
        t.put("bob", 50i64).unwrap();
        t.commit().unwrap();
        assert_eq!(db.peek("alice"), Some(Value::Int(100)));
        assert_eq!(db.stats().committed, 1);
        assert_eq!(db.stats().writes, 2);
    }

    #[test]
    fn abort_restores_before_images_in_reverse() {
        let db = Database::new(DbConfig::named("d"));
        let mut seed = db.begin();
        seed.put("k", 1i64).unwrap();
        seed.commit().unwrap();

        let mut t = db.begin();
        t.put("k", 2i64).unwrap();
        t.put("k", 3i64).unwrap();
        t.abort();
        assert_eq!(db.peek("k"), Some(Value::Int(1)));

        // The same behind 100 000 records of other transactions: the
        // before-images travel with the handle, so the abort undoes
        // exactly its own writes, in reverse, whatever the log holds.
        // (The open transaction is also what keeps the log that long:
        // it cannot checkpoint itself until the abort.)
        let mut t = db.begin();
        t.put("k", 2i64).unwrap();
        for i in 0..33_334i64 {
            let mut other = db.begin();
            other.put("unrelated", i).unwrap();
            other.commit().unwrap();
        }
        t.delete("k").unwrap();
        t.put("k", 3i64).unwrap();
        assert!(db.wal_records().len() > 100_000);
        t.abort();
        assert_eq!(db.peek("k"), Some(Value::Int(1)));
        assert_eq!(db.wal_stats().checkpoints, 1, "taken as the abort ends");
        db.crash();
        db.recover();
        assert_eq!(db.peek("k"), Some(Value::Int(1)));
    }

    /// A checkpoint with a transaction in flight would snapshot its
    /// uncommitted write as committed state and compact away its
    /// `Begin` and before-image: refused, log untouched, so the abort —
    /// or a crash — still makes the transaction a loser.
    #[test]
    fn checkpoint_with_a_transaction_in_flight_is_refused() {
        for crash in [false, true] {
            let db = Database::new(DbConfig::named("d"));
            let mut seed = db.begin();
            seed.put("k", 1i64).unwrap();
            seed.commit().unwrap();

            let mut t = db.begin();
            t.put("k", 2i64).unwrap();
            t.put("loser", 2i64).unwrap();
            let log = db.wal_records();
            assert_eq!(db.checkpoint(), 0);
            assert_eq!(db.wal_records(), log, "log left alone");
            if crash {
                std::mem::forget(t);
                db.crash();
                db.recover();
            } else {
                t.abort();
            }
            assert_eq!(db.peek("k"), Some(Value::Int(1)), "crash: {crash}");
            assert_eq!(db.peek("loser"), None, "crash: {crash}");
            // With the transaction over, a checkpoint goes through.
            assert!(db.checkpoint() > 0);
            db.crash();
            db.recover();
            assert_eq!(db.peek("k"), Some(Value::Int(1)));
            assert_eq!(db.peek("loser"), None);
        }
    }

    /// Four threads increment eight counters through enough log for
    /// several automatic checkpoints: none may capture a transaction
    /// half-done or lose a committed one. Between rounds one thread
    /// ends a transaction while the others stand at a barrier, so a
    /// checkpoint per round is certain and not left to the scheduler.
    #[test]
    fn automatic_checkpoints_under_concurrent_transactions_lose_nothing() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 5;
        const PER_ROUND: usize = 1_000;
        let db = Database::new(DbConfig::named("d"));
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                let (db, barrier) = (&db, &barrier);
                s.spawn(move || {
                    for i in 0..ROUNDS * PER_ROUND {
                        let key = format!("k{}", (i + thread) % 8);
                        loop {
                            let mut t = db.begin();
                            let Ok(cur) = t.get(&key) else { continue };
                            let cur = cur.and_then(|v| v.as_int()).unwrap_or(0);
                            if t.put(&key, cur + 1).is_ok() && t.commit().is_ok() {
                                break;
                            }
                        }
                        if (i + 1) % PER_ROUND == 0 {
                            if barrier.wait().is_leader() {
                                db.begin().commit().unwrap();
                            }
                            barrier.wait();
                        }
                    }
                });
            }
        });
        let checkpoints = db.wal_stats().checkpoints;
        assert!(checkpoints >= 3, "{checkpoints} automatic checkpoints");
        let before = db.snapshot();
        let sum: i64 = before.values().filter_map(Value::as_int).sum();
        assert_eq!(sum, (THREADS * ROUNDS * PER_ROUND) as i64);
        db.crash();
        db.recover();
        assert_eq!(db.snapshot(), before);
    }

    /// WAL redo is bounded by the checkpoint rule, not by the history:
    /// 10 000 single-write commits on 256 keys append 30 000 records
    /// against a rule of max(4096, 4 × 256), so recovery installs the
    /// last checkpoint's keys and redoes at most the 4096 records since.
    #[test]
    fn wal_redo_after_a_long_history_is_bounded_by_the_checkpoint_rule() {
        let db = Database::new(DbConfig::named("d"));
        for i in 0..10_000i64 {
            let mut t = db.begin();
            t.put(&format!("k{}", i % 256), i).unwrap();
            t.commit().unwrap();
        }
        let checkpoints = db.wal_stats().checkpoints;
        assert!(checkpoints >= 1, "{checkpoints} automatic checkpoints");
        let before = db.snapshot();
        db.crash();
        let replayed = db.recover();
        assert!(replayed <= 256 + 4096, "{replayed} updates replayed");
        assert_eq!(db.snapshot(), before);
    }

    #[test]
    fn injected_commit_abort_rolls_back() {
        let inj = Injector::new(0);
        inj.set_plan("flaky/commit", FailurePlan::FirstN(1));
        let db = Database::new(DbConfig::named("flaky").with_injector(Arc::clone(&inj)));

        let mut t = db.begin();
        t.put("k", 1i64).unwrap();
        let err = t.commit().unwrap_err();
        assert!(matches!(err, DbError::InjectedAbort { .. }));
        assert_eq!(db.peek("k"), None);
        assert_eq!(db.stats().injected_aborts, 1);

        // Retry succeeds: the retriable pattern.
        let mut t2 = db.begin();
        t2.put("k", 1i64).unwrap();
        t2.commit().unwrap();
        assert_eq!(db.peek("k"), Some(Value::Int(1)));
    }

    #[test]
    fn unavailable_database_fails_and_rolls_back() {
        let db = Database::new(DbConfig::named("remote"));
        let mut t = db.begin();
        t.put("k", 1i64).unwrap();
        db.set_down(true);
        let err = t.put("k2", 2i64).unwrap_err();
        assert!(matches!(err, DbError::Unavailable { .. }));
        db.set_down(false);
        assert_eq!(db.peek("k"), None, "partial work undone");
    }

    #[test]
    fn crash_then_recover_rebuilds_committed_state() {
        let db = Database::new(DbConfig::named("d"));
        let mut t1 = db.begin();
        t1.put("a", 1i64).unwrap();
        t1.commit().unwrap();
        let mut t2 = db.begin();
        t2.put("b", 2i64).unwrap();
        // t2 is in flight at the crash: it must not survive.
        std::mem::forget(t2); // simulate losing the handle in the crash
        db.crash();
        assert!(db.is_down());
        let replayed = db.recover();
        assert_eq!(replayed, 1);
        assert_eq!(db.peek("a"), Some(Value::Int(1)));
        assert_eq!(db.peek("b"), None);
    }

    #[test]
    fn checkpoint_bounds_recovery_and_preserves_state() {
        let db = Database::new(DbConfig::named("d"));
        for i in 0..20i64 {
            let mut t = db.begin();
            t.put(&format!("k{}", i % 5), i).unwrap();
            t.commit().unwrap();
        }
        let before = db.snapshot();
        let records_before = db.wal_records().len();
        let dropped = db.checkpoint();
        assert!(dropped > 0);
        assert!(db.wal_records().len() < records_before);

        // Recovery from the compacted log reproduces the state.
        db.crash();
        let replayed = db.recover();
        assert_eq!(db.snapshot(), before);
        assert_eq!(replayed, 5, "one install per live key, no redo tail");

        // Post-checkpoint updates are redone on top of the checkpoint.
        let mut t = db.begin();
        t.put("k0", 999i64).unwrap();
        t.commit().unwrap();
        db.crash();
        db.recover();
        assert_eq!(db.peek("k0"), Some(Value::Int(999)));
        assert_eq!(db.peek("k4"), before.get("k4").cloned());
    }

    #[test]
    fn checkpoint_on_empty_db_is_harmless() {
        let db = Database::new(DbConfig::named("d"));
        assert_eq!(db.checkpoint(), 0);
        db.crash();
        assert_eq!(db.recover(), 0);
        assert!(db.snapshot().is_empty());
    }

    #[test]
    fn recover_is_idempotent() {
        let db = Database::new(DbConfig::named("d"));
        let mut t = db.begin();
        t.put("a", 1i64).unwrap();
        t.commit().unwrap();
        db.crash();
        db.recover();
        let snap1 = db.snapshot();
        db.crash();
        db.recover();
        assert_eq!(db.snapshot(), snap1);
    }

    /// A database over a WAL file survives a real restart: the file is
    /// all that is carried over. Committed keys come back, the
    /// transaction in flight at the crash stays a loser — even once new
    /// transactions commit, because their ids start above the log's.
    #[test]
    fn reopen_over_a_wal_file_recovers_winners_only() {
        let dir = std::env::temp_dir().join(format!("wftx-db-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bank.wal");
        let _ = std::fs::remove_file(&path);
        let open = || Database::new(DbConfig::named("bank").with_wal_file(path.clone()));
        {
            let db = open();
            let mut winner = db.begin();
            winner.put("alice", 100i64).unwrap();
            winner.commit().unwrap();
            let mut loser = db.begin();
            loser.put("alice", 0i64).unwrap();
            loser.put("mallory", 100i64).unwrap();
            // The process dies here: no abort record, no undo.
            std::mem::forget(loser);
        }
        let db = open();
        assert_eq!(db.peek("alice"), None, "the store is volatile");
        assert_eq!(db.recover(), 1);
        assert_eq!(db.peek("alice"), Some(Value::Int(100)));
        assert_eq!(db.peek("mallory"), None);

        let mut next = db.begin();
        next.put("bob", 50i64).unwrap();
        next.commit().unwrap();
        drop(db);
        let db = open();
        db.recover();
        assert_eq!(db.peek("alice"), Some(Value::Int(100)));
        assert_eq!(db.peek("bob"), Some(Value::Int(50)));
        assert_eq!(db.peek("mallory"), None, "still a loser");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_txns_serialize_on_conflict() {
        let db = Arc::new(Database::new(DbConfig::named("d")));
        let mut t0 = db.begin();
        t0.put("x", 0i64).unwrap();
        t0.commit().unwrap();

        let db2 = Arc::clone(&db);
        // Writer increments x by 1, 50 times, each in its own txn, on
        // two threads: final value must be 100 (lost updates would
        // show less).
        let work = move |db: Arc<Database>| {
            for _ in 0..50 {
                loop {
                    let mut t = db.begin();
                    let cur = match t.get("x") {
                        Ok(v) => v.and_then(|v| v.as_int()).unwrap_or(0),
                        Err(_) => continue, // deadlock: retry
                    };
                    if t.put("x", cur + 1).is_err() {
                        continue;
                    }
                    if t.commit().is_ok() {
                        break;
                    }
                }
            }
        };
        let h = std::thread::spawn(move || work(db2));
        {
            let db3 = Arc::clone(&db);
            work(db3);
        }
        h.join().unwrap();
        assert_eq!(db.peek("x"), Some(Value::Int(100)));
    }

    #[test]
    fn deadlock_error_carries_txn() {
        let db = Arc::new(Database::new(DbConfig::named("d")));
        let mut seed = db.begin();
        seed.put("a", 0i64).unwrap();
        seed.put("b", 0i64).unwrap();
        seed.commit().unwrap();

        let db2 = Arc::clone(&db);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let h = std::thread::spawn(move || {
            let mut t = db2.begin();
            t.put("a", 1i64).unwrap();
            b2.wait();
            // May deadlock against the main thread; either outcome ok.
            let _ = t.put("b", 1i64);
            let _ = t.commit();
        });
        let mut t = db.begin();
        t.put("b", 2i64).unwrap();
        barrier.wait();
        let res = t.put("a", 2i64);
        // One of the two gets a deadlock; at least the system makes
        // progress and both threads finish.
        if let Err(e) = res {
            assert!(matches!(e, DbError::Deadlock { .. }));
        } else {
            let _ = t.commit();
        }
        h.join().unwrap();
    }
}
