//! The multidatabase federation.
//!
//! A [`MultiDatabase`] is nothing more than a set of named, fully
//! autonomous [`Database`]s plus the shared plumbing (failure injector
//! and virtual clock). There is deliberately **no** global transaction
//! manager, no two-phase commit and no global lock table: the whole
//! premise of flexible transactions (§4.2 of the paper) is that local
//! sites cannot be coordinated, so global atomicity has to be built
//! *above* them — by sagas, flexible transactions, or (the paper's
//! point) by a workflow process.
//!
//! The set of sites changes only at provisioning, and a program call
//! should not pay for the lock that guards it. So a site name is
//! resolved once per [`ProgramContext`](crate::ProgramContext), which
//! keeps the databases it resolved. Each [`MultiDatabase::add_database`]
//! moves the federation's generation stamp, and a context checks the
//! stamp (one `Acquire` load) before it uses what it resolved: when the
//! stamp has moved, it resolves again.

use crate::clock::VirtualClock;
use crate::db::{Database, DbConfig};
use crate::inject::{Injector, InjectorHandle};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A federation of autonomous local databases.
#[derive(Debug)]
pub struct MultiDatabase {
    dbs: RwLock<BTreeMap<String, Arc<Database>>>,
    /// Moved by every `add_database`, after its insert.
    generation: AtomicU64,
    injector: InjectorHandle,
    clock: VirtualClock,
}

impl MultiDatabase {
    /// Creates an empty federation with a fresh injector seeded by
    /// `seed` and a clock at tick 0.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self {
            dbs: RwLock::new(BTreeMap::new()),
            generation: AtomicU64::new(0),
            injector: Injector::new(seed),
            clock: VirtualClock::new(),
        })
    }

    /// Adds (or replaces) a local database named `name`, wired to the
    /// federation's injector. Returns the database handle.
    pub fn add_database(&self, name: &str) -> Arc<Database> {
        let db = Arc::new(Database::new(
            DbConfig::named(name).with_injector(Arc::clone(&self.injector)),
        ));
        self.dbs.write().insert(name.to_owned(), Arc::clone(&db));
        // Release, paired with `generation`'s Acquire: a context that
        // reads the new stamp finds the insert.
        self.generation.fetch_add(1, Ordering::Release);
        db
    }

    /// The generation stamp: what a database resolved while it read
    /// this value is still the federation's until it moves.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Looks up a database by name.
    pub fn db(&self, name: &str) -> Option<Arc<Database>> {
        self.dbs.read().get(name).cloned()
    }

    /// Names of all member databases, in order.
    pub fn names(&self) -> Vec<String> {
        self.dbs.read().keys().cloned().collect()
    }

    /// The shared failure injector.
    pub fn injector(&self) -> &InjectorHandle {
        &self.injector
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FailurePlan;

    #[test]
    fn databases_are_independent() {
        let fed = MultiDatabase::new(0);
        let a = fed.add_database("a");
        let b = fed.add_database("b");
        let mut ta = a.begin();
        ta.put("k", 1i64).unwrap();
        ta.commit().unwrap();
        assert_eq!(b.peek("k"), None, "no state leaks between sites");
        assert_eq!(fed.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn shared_injector_reaches_every_member() {
        let fed = MultiDatabase::new(0);
        let a = fed.add_database("a");
        fed.injector().set_plan("a/commit", FailurePlan::Always);
        let mut t = a.begin();
        t.put("k", 1i64).unwrap();
        assert!(t.commit().is_err(), "member db honours federation plans");
    }

    #[test]
    fn lookup_missing_is_none() {
        let fed = MultiDatabase::new(0);
        assert!(fed.db("ghost").is_none());
    }

    #[test]
    fn one_site_down_does_not_affect_others() {
        let fed = MultiDatabase::new(0);
        let a = fed.add_database("a");
        let b = fed.add_database("b");
        a.set_down(true);
        let mut tb = b.begin();
        tb.put("k", 7i64).unwrap();
        tb.commit().unwrap();
        assert!(a.is_down());
        assert!(!b.is_down());
    }
}
