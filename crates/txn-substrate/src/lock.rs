//! Strict two-phase locking.
//!
//! The paper observes (§2) that, for all the sophistication of the
//! concurrency-control literature, "most databases today use Strict 2
//! Phase Locking for write operations". The local databases of this
//! substrate do exactly that: shared/exclusive record locks held until
//! commit or abort, blocking waits, and deadlock detection by cycle
//! search in the wait-for graph.
//!
//! ## Deadlock policy
//!
//! Detection is performed by the *requester* at block time: before a
//! transaction starts waiting, it adds its wait-for edges and searches
//! for a cycle through itself. If one exists the requester aborts
//! itself ([`LockError::Deadlock`]) — a deterministic
//! "victim-is-the-closer" policy that needs no cross-thread victim
//! signalling and guarantees progress (the cycle is broken before
//! anyone sleeps on it). Upper layers treat a deadlock abort like any
//! other unilateral abort, which is precisely the multidatabase
//! behaviour flexible transactions were designed around.
//!
//! ## Lock order
//!
//! The lock table keeps its own mutex and condition variable, apart
//! from the state lock of its [`Database`](crate::Database): a request
//! may sleep here, and a sleeper must hold nothing the transactions it
//! waits for need to commit. The database takes a record lock before
//! its state lock and releases it after that lock, so the two are never
//! held one inside the other.

use crate::fast_hash::{FastMap, FastSet};
use crate::txn::TxnId;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use wfms_observe::Value as Reading;

/// Lock mode for a record lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock: compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock: compatible with nothing.
    Exclusive,
}

impl LockMode {
    /// Lock compatibility matrix: only S/S is compatible.
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// True if `self` is at least as strong as `needed`.
    pub fn covers(self, needed: LockMode) -> bool {
        self == LockMode::Exclusive || needed == LockMode::Shared
    }
}

/// Errors surfaced by lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// Granting the request would close a cycle in the wait-for graph;
    /// the requesting transaction must abort.
    Deadlock {
        /// The transactions forming the detected cycle, starting and
        /// ending (implicitly) at the requester.
        cycle: Vec<TxnId>,
    },
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Deadlock { cycle } => {
                write!(f, "deadlock detected; wait-for cycle: {cycle:?}")
            }
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug)]
struct LockEntry {
    /// The table's own copy of the key, handed to whoever is granted
    /// the lock so the store and the log share it.
    key: Arc<str>,
    /// Current holders with their strongest granted mode.
    holders: Vec<(TxnId, LockMode)>,
    /// FIFO queue of blocked requests.
    waiters: VecDeque<(TxnId, LockMode)>,
}

#[derive(Debug, Default)]
struct LmState {
    /// One entry per record key locked so far. An entry stays when its
    /// last holder leaves: the table is where a key's single
    /// allocation per database lives, and a kept entry's vectors keep
    /// their capacity, so re-locking a known key allocates nothing.
    table: FastMap<Arc<str>, LockEntry>,
    /// Keys each active transaction holds, in grant order: what
    /// [`LockManager::release_all`] walks instead of the whole table.
    held: FastMap<TxnId, Vec<Arc<str>>>,
    /// Emptied `held` lists, reused for their capacity.
    spare: Vec<Vec<Arc<str>>>,
    /// Edges `waiter -> {holders it waits for}` for deadlock search.
    /// A transaction is in here exactly while its request is queued:
    /// it registers before it first sleeps and leaves when it is
    /// granted or refused, all under the table mutex — so an empty
    /// map means no thread is asleep on the condition variable.
    waits_for: FastMap<TxnId, FastSet<TxnId>>,
    stats: LockStats,
}

/// Counters exposed for the substrate benchmarks (experiment B8) and
/// the engine's observability snapshot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LockStats {
    /// Locks granted without waiting.
    pub immediate_grants: u64,
    /// Requests that had to block at least once.
    pub waits: u64,
    /// Requests refused because they would have deadlocked.
    pub deadlocks: u64,
    /// Shared→exclusive upgrades granted.
    pub upgrades: u64,
    /// Total wall-clock nanoseconds requests spent blocked (both
    /// eventually granted and deadlock-refused waits).
    pub wait_nanos: u64,
    /// Releases that notified the condition variable — a system call
    /// each. A release with no request queued notifies nobody, so a
    /// run without lock conflicts reads 0.
    pub wakeups: u64,
}

impl LockStats {
    /// Every count beside the name it is exposed under.
    pub fn series(&self) -> [(&'static str, Reading); 6] {
        [
            (
                "db.lock_immediate_grants",
                Reading::Counter(self.immediate_grants),
            ),
            ("db.lock_waits", Reading::Counter(self.waits)),
            ("db.lock_wait_nanos", Reading::Counter(self.wait_nanos)),
            ("db.lock_deadlocks", Reading::Counter(self.deadlocks)),
            ("db.lock_upgrades", Reading::Counter(self.upgrades)),
            ("db.lock_wakeups", Reading::Counter(self.wakeups)),
        ]
    }
}

/// The lock manager of one local database.
#[derive(Debug, Default)]
pub struct LockManager {
    state: Mutex<LmState>,
    wakeup: Condvar,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires `mode` on `key` for `txn`, blocking until granted.
    /// Returns the lock table's shared copy of the key: the caller
    /// stores and logs under it instead of allocating its own.
    ///
    /// Returns `Err(LockError::Deadlock)` if waiting would create a
    /// wait-for cycle; the caller is expected to abort `txn`.
    pub fn acquire(&self, txn: TxnId, key: &str, mode: LockMode) -> Result<Arc<str>, LockError> {
        let mut st = self.state.lock();
        let mut wait_start: Option<std::time::Instant> = None;
        loop {
            let registered = wait_start.is_some();
            if let Some(shared) = st.try_grant(txn, key, mode, registered) {
                if let Some(t0) = wait_start {
                    st.clear_waiter(txn, key);
                    st.stats.wait_nanos += t0.elapsed().as_nanos() as u64;
                } else {
                    st.stats.immediate_grants += 1;
                }
                return Ok(shared);
            }
            if !registered {
                let entry = st.table.get_mut(key).expect("try_grant made the entry");
                entry.waiters.push_back((txn, mode));
                wait_start = Some(std::time::Instant::now());
                st.stats.waits += 1;
            }
            // (Re)compute this waiter's outgoing wait-for edges and run
            // the cycle check before sleeping.
            let blockers = st.blockers(txn, key, mode);
            st.waits_for.insert(txn, blockers);
            if let Some(cycle) = st.find_cycle(txn) {
                st.clear_waiter(txn, key);
                st.stats.deadlocks += 1;
                if let Some(t0) = wait_start {
                    st.stats.wait_nanos += t0.elapsed().as_nanos() as u64;
                }
                return Err(LockError::Deadlock { cycle });
            }
            self.wakeup.wait(&mut st);
        }
    }

    /// True if `txn` already holds a lock on `key` covering `mode`.
    pub fn holds(&self, txn: TxnId, key: &str, mode: LockMode) -> bool {
        let st = self.state.lock();
        st.table
            .get(key)
            .map(|e| e.holders.iter().any(|&(t, m)| t == txn && m.covers(mode)))
            .unwrap_or(false)
    }

    /// Releases every lock held by `txn` (strict 2PL: called only at
    /// commit or abort) and, if any request is queued, wakes the
    /// blocked requesters.
    pub fn release_all(&self, txn: TxnId) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if let Some(mut keys) = st.held.remove(&txn) {
            for key in keys.drain(..) {
                if let Some(entry) = st.table.get_mut(&*key) {
                    entry.holders.retain(|&(t, _)| t != txn);
                }
            }
            st.spare.push(keys);
        }
        st.waits_for.remove(&txn);
        for targets in st.waits_for.values_mut() {
            targets.remove(&txn);
        }
        let wake = !st.waits_for.is_empty();
        st.stats.wakeups += u64::from(wake);
        drop(guard);
        if wake {
            self.wakeup.notify_all();
        }
    }

    /// Snapshot of the lock-manager counters.
    pub fn stats(&self) -> LockStats {
        self.state.lock().stats
    }
}

impl LmState {
    /// Attempts the grant under the table lock; on success returns the
    /// table's copy of the key. `is_queued` indicates the request is
    /// already in the waiter queue (so queue-front fairness applies to
    /// it).
    fn try_grant(
        &mut self,
        txn: TxnId,
        key: &str,
        mode: LockMode,
        is_queued: bool,
    ) -> Option<Arc<str>> {
        let entry = match self.table.get_mut(key) {
            Some(entry) => entry,
            None => {
                let key: Arc<str> = Arc::from(key);
                self.table.entry(Arc::clone(&key)).or_insert(LockEntry {
                    key,
                    holders: Vec::new(),
                    waiters: VecDeque::new(),
                })
            }
        };

        // Re-entrant request covered by an existing grant.
        if entry
            .holders
            .iter()
            .any(|&(t, m)| t == txn && m.covers(mode))
        {
            return Some(Arc::clone(&entry.key));
        }

        // Upgrade: sole holder asking for exclusive.
        if mode == LockMode::Exclusive && entry.holders.len() == 1 && entry.holders[0].0 == txn {
            entry.holders[0].1 = LockMode::Exclusive;
            self.stats.upgrades += 1;
            return Some(Arc::clone(&entry.key));
        }

        let compatible_with_holders = entry
            .holders
            .iter()
            .all(|&(t, m)| t == txn || mode.compatible(m));
        if !compatible_with_holders {
            return None;
        }

        // FIFO fairness: a new request may not overtake queued waiters
        // it conflicts with; a queued request is granted only at the
        // front of the conflicting prefix.
        let blocked_by_queue = entry
            .waiters
            .iter()
            .take_while(|&&(t, _)| t != txn)
            .any(|&(t, wmode)| t != txn && (!mode.compatible(wmode) || !wmode.compatible(mode)));
        if blocked_by_queue && !is_queued {
            return None;
        }
        if is_queued {
            // Only grantable if no conflicting waiter precedes us.
            if blocked_by_queue {
                return None;
            }
        }

        entry.holders.push((txn, mode));
        let spare = &mut self.spare;
        self.held
            .entry(txn)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(Arc::clone(&entry.key));
        Some(Arc::clone(&entry.key))
    }

    /// Transactions `txn` would wait for on `key`: conflicting holders
    /// plus conflicting earlier waiters.
    fn blockers(&self, txn: TxnId, key: &str, mode: LockMode) -> FastSet<TxnId> {
        let mut out = FastSet::default();
        if let Some(entry) = self.table.get(key) {
            for &(t, m) in &entry.holders {
                if t != txn && !mode.compatible(m) {
                    out.insert(t);
                }
            }
            // With an upgrade pending, even compatible holders block us.
            if mode == LockMode::Exclusive {
                for &(t, _) in &entry.holders {
                    if t != txn {
                        out.insert(t);
                    }
                }
            }
            for &(t, wmode) in entry.waiters.iter().take_while(|&&(t, _)| t != txn) {
                if t != txn && (!mode.compatible(wmode) || !wmode.compatible(mode)) {
                    out.insert(t);
                }
            }
        }
        out
    }

    fn clear_waiter(&mut self, txn: TxnId, key: &str) {
        if let Some(entry) = self.table.get_mut(key) {
            entry.waiters.retain(|&(t, _)| t != txn);
        }
        self.waits_for.remove(&txn);
    }

    /// Depth-first search for a cycle through `start` in the wait-for
    /// graph. Returns the cycle path if found.
    fn find_cycle(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let mut path = vec![start];
        let mut visited = FastSet::default();
        self.dfs(start, start, &mut path, &mut visited)
    }

    fn dfs(
        &self,
        start: TxnId,
        at: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut FastSet<TxnId>,
    ) -> Option<Vec<TxnId>> {
        if let Some(nexts) = self.waits_for.get(&at) {
            // BTreeSet-like determinism for tests: sort the frontier.
            let mut nexts: Vec<_> = nexts.iter().copied().collect();
            nexts.sort();
            for n in nexts {
                if n == start {
                    return Some(path.clone());
                }
                if visited.insert(n) {
                    path.push(n);
                    if let Some(c) = self.dfs(start, n, path, visited) {
                        return Some(c);
                    }
                    path.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    /// Keys currently locked by `txn`, in key order, with their modes.
    fn held_by(lm: &LockManager, txn: TxnId) -> BTreeMap<String, LockMode> {
        let st = lm.state.lock();
        let mode_on = |key: &Arc<str>| {
            let holders = &st.table.get(&**key)?.holders;
            let &(_, mode) = holders.iter().find(|&&(t, _)| t == txn)?;
            Some((key.to_string(), mode))
        };
        st.held
            .get(&txn)
            .map(|keys| keys.iter().filter_map(mode_on).collect())
            .unwrap_or_default()
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.acquire(t(1), "k", LockMode::Shared).unwrap();
        lm.acquire(t(2), "k", LockMode::Shared).unwrap();
        assert!(lm.holds(t(1), "k", LockMode::Shared));
        assert!(lm.holds(t(2), "k", LockMode::Shared));
    }

    #[test]
    fn exclusive_covers_shared() {
        let lm = LockManager::new();
        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        assert!(lm.holds(t(1), "k", LockMode::Shared));
        // Re-entrant exclusive is a no-op.
        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        assert_eq!(held_by(&lm, t(1)).len(), 1);
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::new();
        lm.acquire(t(1), "k", LockMode::Shared).unwrap();
        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        assert!(lm.holds(t(1), "k", LockMode::Exclusive));
        assert_eq!(lm.stats().upgrades, 1);
    }

    #[test]
    fn exclusive_blocks_and_release_unblocks() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(t(2), "k", LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        assert!(!lm.holds(t(2), "k", LockMode::Shared), "t2 still waiting");
        lm.release_all(t(1));
        h.join().unwrap().unwrap();
        assert!(lm.holds(t(2), "k", LockMode::Exclusive));
    }

    /// The condition variable is notified — a system call — only when
    /// a request is queued; the interleaving is forced by watching the
    /// request register, which it does under the table mutex before it
    /// sleeps.
    #[test]
    fn release_notifies_only_when_a_request_is_queued() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        lm.release_all(t(1));
        assert_eq!(lm.stats().wakeups, 0, "nobody was waiting");

        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || lm2.acquire(t(2), "k", LockMode::Exclusive));
        while lm.stats().waits == 0 {
            thread::yield_now();
        }
        lm.release_all(t(1));
        h.join().unwrap().unwrap();
        assert_eq!(lm.stats().wakeups, 1);
        lm.release_all(t(2));
        assert_eq!(lm.stats().wakeups, 1, "the queue is empty again");
    }

    #[test]
    fn two_party_deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(t(1), "a", LockMode::Exclusive).unwrap();
        lm.acquire(t(2), "b", LockMode::Exclusive).unwrap();
        // t1 blocks on b.
        let lm1 = Arc::clone(&lm);
        let h = thread::spawn(move || lm1.acquire(t(1), "b", LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // t2 requesting a closes the cycle and must be refused.
        let err = lm.acquire(t(2), "a", LockMode::Exclusive).unwrap_err();
        match err {
            LockError::Deadlock { cycle } => assert!(cycle.contains(&t(2))),
        }
        assert_eq!(lm.stats().deadlocks, 1);
        // Breaking the deadlock: t2 aborts, t1 proceeds.
        lm.release_all(t(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        // Both hold S; both want X: classic upgrade deadlock. The
        // second requester must be refused.
        let lm = Arc::new(LockManager::new());
        lm.acquire(t(1), "k", LockMode::Shared).unwrap();
        lm.acquire(t(2), "k", LockMode::Shared).unwrap();
        let lm1 = Arc::clone(&lm);
        let h = thread::spawn(move || lm1.acquire(t(1), "k", LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        let err = lm.acquire(t(2), "k", LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, LockError::Deadlock { .. }));
        lm.release_all(t(2));
        h.join().unwrap().unwrap();
        assert!(lm.holds(t(1), "k", LockMode::Exclusive));
    }

    #[test]
    fn fifo_fairness_no_overtaking() {
        // t1 holds X; t2 queues for X; a later S request by t3 must not
        // overtake t2 (it conflicts with the queued X).
        let lm = Arc::new(LockManager::new());
        lm.acquire(t(1), "k", LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h2 = thread::spawn(move || {
            lm2.acquire(t(2), "k", LockMode::Exclusive).unwrap();
            // Hold briefly so t3 cannot sneak in between.
            thread::sleep(Duration::from_millis(30));
            lm2.release_all(t(2));
        });
        thread::sleep(Duration::from_millis(20));
        let lm3 = Arc::clone(&lm);
        let h3 = thread::spawn(move || {
            lm3.acquire(t(3), "k", LockMode::Shared).unwrap();
            assert!(lm3.holds(t(3), "k", LockMode::Shared));
            lm3.release_all(t(3));
        });
        thread::sleep(Duration::from_millis(20));
        lm.release_all(t(1));
        h2.join().unwrap();
        h3.join().unwrap();
        assert!(lm.stats().waits >= 2);
    }

    #[test]
    fn release_all_clears_table() {
        let lm = LockManager::new();
        lm.acquire(t(1), "a", LockMode::Shared).unwrap();
        lm.acquire(t(1), "b", LockMode::Exclusive).unwrap();
        assert_eq!(held_by(&lm, t(1)).len(), 2);
        lm.release_all(t(1));
        assert!(held_by(&lm, t(1)).is_empty());
    }

    #[test]
    fn held_by_reports_modes_in_key_order() {
        let lm = LockManager::new();
        lm.acquire(t(1), "z", LockMode::Shared).unwrap();
        lm.acquire(t(1), "a", LockMode::Exclusive).unwrap();
        let held = held_by(&lm, t(1));
        let keys: Vec<_> = held.keys().cloned().collect();
        assert_eq!(keys, vec!["a".to_string(), "z".to_string()]);
        assert_eq!(held["a"], LockMode::Exclusive);
        assert_eq!(held["z"], LockMode::Shared);
    }
}
