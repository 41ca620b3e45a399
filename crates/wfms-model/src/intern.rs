//! Name interning — dense integer ids for activity names.
//!
//! The engine's compiled templates replace string-keyed lookups with
//! index arithmetic: every activity name of a scope is interned to a
//! dense `u32` in declaration order, so per-scope state can live in
//! plain vectors and hot-path comparisons are integer compares. The
//! interner is built once per scope at compile time and read-only
//! afterwards.

use std::sync::Arc;
use txn_substrate::fast_hash::FastMap;

/// A bidirectional `name ↔ u32` map with dense ids assigned in
/// insertion order. First insertion wins: re-interning an existing
/// name returns its original id, matching the first-match semantics of
/// [`crate::ProcessDefinition::activity`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Arc<str>>,
    index: FastMap<Arc<str>, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its dense id. Existing names keep
    /// their original id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.index.insert(shared, id);
        id
    }

    /// The id of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The name behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was never assigned.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_insertion_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern("A"), 0);
        assert_eq!(i.intern("B"), 1);
        assert_eq!(i.intern("A"), 0, "re-intern keeps the first id");
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(1), "B");
        assert_eq!(i.get("B"), Some(1));
        assert_eq!(i.get("C"), None);
    }

    #[test]
    fn iter_yields_id_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let all: Vec<(u32, String)> = i.iter().map(|(id, n)| (id, n.to_owned())).collect();
        assert_eq!(all, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn empty() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
