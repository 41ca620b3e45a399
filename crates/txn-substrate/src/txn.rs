//! Transaction identity, status and the transaction handle.
//!
//! A [`Transaction`] is a short-lived handle onto one local
//! [`Database`]. It obeys strict 2PL: every read takes
//! a shared lock, every write an exclusive lock, and all locks are held
//! until [`Transaction::commit`] or [`Transaction::abort`]. Dropping an
//! active handle aborts it (no dangling locks, ever).

use crate::db::{Database, DbError, Undo};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A database-local transaction identifier.
///
/// Identifiers are allocated by each [`Database`] from a monotonically
/// increasing counter; they are unique *per database*, matching the
/// multidatabase assumption that local DBMSs share nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Running; may still read, write, commit or abort.
    Active,
    /// Successfully committed; effects durable.
    Committed,
    /// Rolled back; effects undone.
    Aborted,
}

/// A handle on an active transaction against one local database.
#[derive(Debug)]
pub struct Transaction<'db> {
    pub(crate) db: &'db Database,
    pub(crate) id: TxnId,
    pub(crate) status: TxnStatus,
    /// Before-images of this transaction's writes, for its abort.
    pub(crate) undo: Undo,
}

impl<'db> Transaction<'db> {
    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Current lifecycle status of this handle.
    pub fn status(&self) -> TxnStatus {
        self.status
    }

    fn ensure_active(&self) -> Result<(), DbError> {
        match self.status {
            TxnStatus::Active => Ok(()),
            other => Err(DbError::NotActive {
                txn: self.id,
                status: other,
            }),
        }
    }

    /// Reads `key` under a shared lock.
    pub fn get(&mut self, key: &str) -> Result<Option<Value>, DbError> {
        self.ensure_active()?;
        let read = self.db.txn_get(self.id, key);
        read.map_err(|e| self.rolled_back(e))
    }

    /// Writes `value` under `key` under an exclusive lock.
    pub fn put(&mut self, key: &str, value: impl Into<Value>) -> Result<(), DbError> {
        self.write(key, Some(value.into()))
    }

    /// Deletes `key` under an exclusive lock.
    pub fn delete(&mut self, key: &str) -> Result<(), DbError> {
        self.write(key, None)
    }

    fn write(&mut self, key: &str, value: Option<Value>) -> Result<(), DbError> {
        self.ensure_active()?;
        let written = self.db.txn_put(self.id, &mut self.undo, key, value);
        written.map_err(|e| self.rolled_back(e))
    }

    /// Commits the transaction. May still fail with
    /// [`DbError::InjectedAbort`] — the local database exercising its
    /// autonomy to unilaterally abort at the commit point, which is the
    /// exact failure mode flexible transactions are designed around.
    pub fn commit(mut self) -> Result<(), DbError> {
        self.ensure_active()?;
        let committed = self.db.txn_commit(self.id, &mut self.undo);
        committed.map_err(|e| self.rolled_back(e))?;
        self.status = TxnStatus::Committed;
        Ok(())
    }

    /// Aborts the transaction, undoing its updates in place — which is
    /// what dropping an active handle does.
    pub fn abort(self) {
        drop(self);
    }

    /// A failed operation (deadlock, injected abort, site down) ends
    /// the transaction: roll it back before the error is returned, and
    /// mark the handle so later calls fail fast.
    fn rolled_back(&mut self, e: DbError) -> DbError {
        self.db.txn_abort(self.id, &mut self.undo, Some(&e));
        self.status = TxnStatus::Aborted;
        e
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.status == TxnStatus::Active {
            self.db.txn_abort(self.id, &mut self.undo, None);
            self.status = TxnStatus::Aborted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, DbConfig};

    #[test]
    fn txn_id_display() {
        assert_eq!(TxnId(5).to_string(), "txn#5");
    }

    #[test]
    fn drop_aborts_active_transaction() {
        let db = Database::new(DbConfig::named("d"));
        {
            let mut t = db.begin();
            t.put("k", 1i64).unwrap();
            // dropped without commit
        }
        let mut t2 = db.begin();
        assert_eq!(t2.get("k").unwrap(), None, "write was rolled back");
        t2.commit().unwrap();
    }

    #[test]
    fn status_transitions() {
        let db = Database::new(DbConfig::named("d"));
        let mut t = db.begin();
        assert_eq!(t.status(), TxnStatus::Active);
        t.put("k", 1i64).unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn explicit_abort_undoes() {
        let db = Database::new(DbConfig::named("d"));
        let mut seed = db.begin();
        seed.put("k", 1i64).unwrap();
        seed.commit().unwrap();

        let mut t = db.begin();
        t.put("k", 2i64).unwrap();
        t.delete("k2").unwrap();
        t.abort();

        let mut check = db.begin();
        assert_eq!(check.get("k").unwrap(), Some(Value::Int(1)));
        check.commit().unwrap();
    }
}
