//! In-memory key/value storage for one local database.
//!
//! Transactions update the store **in place** while holding exclusive
//! locks (classic strict-2PL with before-image undo); the store itself
//! is therefore a plain map with no transaction awareness. Atomicity
//! and isolation live in [`crate::txn`] and [`crate::lock`]; durability
//! lives in [`crate::wal`].
//!
//! The store takes no lock of its own: a [`crate::Database`] keeps it,
//! with its log, behind the one lock of its state, so readers borrow it
//! and writers borrow it mutably. A record lock is taken before that
//! state lock and released after it ([`crate::db`]).

use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The record key type: one shared allocation per key per database,
/// made by the lock table when the key is first locked
/// ([`crate::LockManager::acquire`]) and shared by the store and the
/// log's update records.
pub type Key = Arc<str>;

/// An in-memory key/value store.
///
/// A `BTreeMap` (rather than a hash map) keeps iteration order — and
/// therefore every dump, trace and test fixture — deterministic.
#[derive(Debug, Default)]
pub struct Storage {
    map: BTreeMap<Key, Value>,
}

impl Storage {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.map.get(key).cloned()
    }

    /// Writes `value` under `key`, returning the previous value
    /// (the before-image the caller must log for undo). Overwriting
    /// keeps the key the map already holds and allocates nothing.
    pub fn set(&mut self, key: &Key, value: Value) -> Option<Value> {
        self.map.insert(Arc::clone(key), value)
    }

    /// Removes `key`, returning the removed value if it existed.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.map.remove(key)
    }

    /// Applies a logical write: `Some(v)` stores `v`, `None` deletes.
    /// Returns the before-image. This is the single primitive both
    /// forward execution and undo/redo use, which guarantees that
    /// recovery applies exactly the same state transitions as normal
    /// operation.
    pub fn apply(&mut self, key: &Key, value: Option<Value>) -> Option<Value> {
        match value {
            Some(v) => self.set(key, v),
            None => self.remove(key),
        }
    }

    /// True if the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// A point-in-time copy of the whole store, in key order. Used by
    /// tests to compare pre/post states and by the recovery tests to
    /// check that a rebuilt database equals the lost one.
    pub fn snapshot(&self) -> BTreeMap<Key, Value> {
        self.map.clone()
    }

    /// Drops every record (simulates losing volatile memory in a
    /// crash; the WAL survives and recovery rebuilds the map).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(key: &str) -> Key {
        Key::from(key)
    }

    #[test]
    fn set_get_remove() {
        let mut s = Storage::new();
        assert_eq!(s.get("a"), None);
        assert_eq!(s.set(&k("a"), Value::Int(1)), None);
        assert_eq!(s.get("a"), Some(Value::Int(1)));
        assert_eq!(s.set(&k("a"), Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(s.remove("a"), Some(Value::Int(2)));
        assert_eq!(s.get("a"), None);
        assert!(s.is_empty());
    }

    #[test]
    fn apply_returns_before_image() {
        let mut s = Storage::new();
        assert_eq!(s.apply(&k("k"), Some(Value::Int(1))), None);
        assert_eq!(s.apply(&k("k"), Some(Value::Int(2))), Some(Value::Int(1)));
        assert_eq!(s.apply(&k("k"), None), Some(Value::Int(2)));
        assert_eq!(s.apply(&k("k"), None), None);
    }

    #[test]
    fn snapshot_is_ordered_and_detached() {
        let mut s = Storage::new();
        s.set(&k("b"), Value::Int(2));
        s.set(&k("a"), Value::Int(1));
        let snap = s.snapshot();
        assert_eq!(snap.keys().cloned().collect::<Vec<_>>(), [k("a"), k("b")]);
        s.set(&k("a"), Value::Int(99));
        assert_eq!(
            snap["a"],
            Value::Int(1),
            "snapshot unaffected by later writes"
        );
    }

    #[test]
    fn clear_empties() {
        let mut s = Storage::new();
        s.set(&k("x"), Value::Bool(true));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
