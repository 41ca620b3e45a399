//! Names interned once per process.
//!
//! A [`Name`] is what a journal writes with `frame::put_name`: an
//! activity path, a scope, a connector's ends, a process, a version, a
//! tenant, a person. The same few strings repeat in every event, so
//! each is stored once for the life of the process and a name is a
//! pointer to it: `Copy`, 8 bytes, equal when it is the same pointer.
//! It hashes and orders by its content, as its string does, so a map
//! keyed by names, or a sorted list of them, keeps the order its
//! strings had; and it renders and serializes as its string.
//!
//! **What gets interned.** [`Name::new`] adds a string the process has
//! not seen; nothing takes one back. So only names the program defines
//! are interned: a template's at compile time, the org model's and the
//! tenants' at load, a journal file's as it is decoded. A name that
//! arrives in a request is looked up with [`Name::find`], which never
//! inserts, so the table holds no more than what the template registry
//! keeps until the process exits. The table is keyed by journal files'
//! and deployed templates' bytes, so it keeps `std`'s keyed hasher.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::LazyLock;

/// A string interned once per process (see the module docs).
#[derive(Clone, Copy)]
pub struct Name(&'static &'static str);

const _: () = assert!(std::mem::size_of::<Name>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Name>>() == 8);

/// Every name interned so far, found by its content.
static INTERNED: LazyLock<Mutex<HashSet<Name>>> = LazyLock::new(Mutex::default);

impl Name {
    /// The name spelled `text`, interned if the process has not seen it.
    pub fn new(text: &str) -> Name {
        let mut interned = INTERNED.lock();
        if let Some(&name) = interned.get(text) {
            return name;
        }
        let text: &'static str = Box::leak(text.into());
        let name = Name(Box::leak(Box::new(text)));
        interned.insert(name);
        name
    }

    /// The name spelled `text` if it is interned; never interns.
    pub fn find(text: &str) -> Option<Name> {
        INTERNED.lock().get(text).copied()
    }

    /// How many names the process has interned.
    pub fn count() -> usize {
        INTERNED.lock().len()
    }

    /// The name's string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Where the name is stored: what tells two names apart.
    #[inline]
    pub(crate) fn addr(self) -> usize {
        self.0 as *const &str as usize
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.0
    }
}

/// Equal names have equal strings and hash as their strings do, so a
/// table keyed by names is looked up by `&str`.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::new(&text)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl Serialize for Name {
    fn serialize<S: serde::Serializer + ?Sized>(&self, s: &mut S) -> Result<(), serde::Error> {
        s.str(self.as_str())
    }
}

/// A name read from outside bytes — a JSON-lines journal, a checkpoint
/// — is interned, as one decoded from a binary journal is.
impl Deserialize for Name {
    fn deserialize<D: serde::Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::Error> {
        match d.scalar()? {
            serde::Scalar::Str(text) => Ok(Name::new(text)),
            other => Err(serde::Error::msg(format!(
                "expected string, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_string_is_interned_once() {
        let a = Name::new("name-test/a");
        assert_eq!(Name::new(&String::from("name-test/a")), a);
        assert_eq!(a.addr(), Name::find("name-test/a").unwrap().addr());
        assert_eq!(Name::find("name-test/never"), None);
        assert_ne!(Name::new("name-test/b"), a);
        assert_eq!(a, "name-test/a");
        assert_eq!(format!("{a} {a:?}"), "name-test/a \"name-test/a\"");
    }

    /// Names order and hash as their strings, whatever order they were
    /// interned in: a sorted list, and a table looked up by `&str`.
    #[test]
    fn names_order_and_hash_by_content() {
        let (z, a) = (Name::new("name-test/z"), Name::new("name-test/a"));
        let mut sorted = [z, a];
        sorted.sort();
        assert_eq!(sorted, [a, z]);
        let table: HashSet<Name> = [z, a].into_iter().collect();
        assert!(table.contains("name-test/z"));
        let json = serde_json::to_string(&z).unwrap();
        assert_eq!(json, "\"name-test/z\"");
        assert_eq!(serde_json::from_str::<Name>(&json).unwrap(), z);
    }
}
