//! Named values: what a program is handed and what a workflow container
//! holds (`wfms_model::Container` wraps a [`Params`]).
//!
//! A map of a few members is the common case — `{order}`, `{RC}` — and
//! it is kept by every finished instance, so its size is what an
//! instance costs in memory. A [`Params`] is therefore one allocation:
//! the reference count followed by the `(name, value)` entries, sorted
//! by name, exactly as many as there are members. Lookups scan;
//! iteration is in name order, which is what the journal codec writes
//! and the JSON forms render.

use crate::value::Value;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::cmp::Ordering;
use std::fmt;
use std::iter;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// One member: its shared name and its value.
type Entry = (Arc<str>, Value);

/// Named values: a shared, name-ordered list of entries with shared
/// member names, cloned by reference count. A write to a map no other
/// handle shares happens in place; otherwise it makes one copy of
/// exactly the resulting size, names shared, and a write that changes
/// nothing copies nothing. An empty map is always [`no_params`].
///
/// The handle is two words (the pointer and the member count), one
/// more than an `Arc` of a map would be: what a record holding a
/// container pays for the count living outside the allocation.
#[derive(Clone, PartialEq)]
pub struct Params(Arc<[Entry]>);

/// The one shared empty [`Params`]: no parameters is a reference-count
/// bump, not an allocation.
pub fn no_params() -> Params {
    static EMPTY: OnceLock<Params> = OnceLock::new();
    EMPTY
        .get_or_init(|| Params(Arc::new([]) as Arc<[Entry]>))
        .clone()
}

impl Params {
    /// Where `name` is, or where it would go. A scan, not a binary
    /// search: on the handful of members a container holds, a scan's
    /// string comparisons do not wait on each other and halving's do
    /// (a scan is about 3× faster at nine members and still ahead at
    /// 32), and a write copies the list anyway.
    fn find(&self, name: &str) -> Result<usize, usize> {
        for (i, (n, _)) in self.0.iter().enumerate() {
            match name.cmp(n) {
                Ordering::Greater => {}
                Ordering::Equal => return Ok(i),
                Ordering::Less => return Err(i),
            }
        }
        Err(self.0.len())
    }

    /// The value of member `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.0[i].1)
    }

    /// True if member `name` exists.
    pub fn contains_key(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Member names, in order.
    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.0.iter().map(|(name, _)| name)
    }

    /// Members, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.0.iter().map(|(name, value)| (name, value))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if `a` and `b` are the same allocation.
    pub fn ptr_eq(a: &Params, b: &Params) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Writes member `name`: in place when this handle is the map's
    /// only one, otherwise into one copy with the member written or
    /// inserted. Writing the value a member already has does nothing.
    pub fn set(&mut self, name: &str, value: Value) {
        let found = self.find(name);
        if let Ok(i) = found {
            if self.0[i].1 == value {
                return;
            }
            if let Some(entries) = Arc::get_mut(&mut self.0) {
                entries[i].1 = value;
                return;
            }
        }
        let (at, name, rest) = match found {
            Ok(i) => (i, Arc::clone(&self.0[i].0), i + 1),
            Err(i) => (i, name.into(), i),
        };
        self.0 = self.0[..at]
            .iter()
            .cloned()
            .chain(iter::once((name, value)))
            .chain(self.0[rest..].iter().cloned())
            .collect();
    }

    /// Writes every member of `from`. When `from` has every member this
    /// map has (always, for an empty one) it becomes `from` by
    /// reference count.
    pub fn merge(&mut self, from: &Params) {
        self.write_over(from, true);
    }

    /// Takes `from`'s value for every member this map already has;
    /// members only `from` has are left out. When both hold the same
    /// names it becomes `from` by reference count.
    pub fn overlay(&mut self, from: &Params) {
        self.write_over(from, false);
    }

    /// [`Params::merge`] (`add`: members only `from` has enter) and
    /// [`Params::overlay`]: one walk over both name-ordered lists to
    /// size the result, and one to build it, in one allocation — or
    /// none, when the result is `from` or nothing changes.
    fn write_over(&mut self, from: &Params, add: bool) {
        let (mut len, mut all_theirs, mut changed) = (0, true, false);
        for (mine, theirs) in join(&self.0, &from.0) {
            let Some((_, value)) = kept(add, mine, theirs) else {
                continue;
            };
            len += 1;
            all_theirs &= theirs.is_some();
            changed |= mine.is_none_or(|mine| mine.1 != *value);
        }
        if all_theirs && len == from.len() {
            *self = from.clone();
        } else if changed {
            let written = {
                let mut entries = join(&self.0, &from.0)
                    .filter_map(|(mine, theirs)| kept(add, mine, theirs))
                    .map(|(name, value)| (Arc::clone(name), value.clone()));
                // A counted range is an exact-size source: `collect`
                // makes the one allocation it needs and no vector first.
                (0..len)
                    .map(|_| entries.next().expect("as many entries as counted"))
                    .collect()
            };
            self.0 = written;
        }
    }
}

/// Of one name's entries in a write-over, what the result keeps: this
/// map's name if it has one (names stay shared with what it was copied
/// from) with `from`'s value if it has one; a name only `from` has
/// only when `add`.
fn kept<'a>(
    add: bool,
    mine: Option<&'a Entry>,
    theirs: Option<&'a Entry>,
) -> Option<(&'a Arc<str>, &'a Value)> {
    if !add && mine.is_none() {
        return None;
    }
    let (name, value) = (mine.or(theirs)?, theirs.or(mine)?);
    Some((&name.0, &value.1))
}

/// Both name-ordered lists, walked together: each name once, with its
/// entry in `a`, in `b`, or in both.
fn join<'a>(
    a: &'a [Entry],
    b: &'a [Entry],
) -> impl Iterator<Item = (Option<&'a Entry>, Option<&'a Entry>)> {
    let (mut i, mut j) = (0, 0);
    iter::from_fn(move || {
        let (x, y) = (a.get(i), b.get(j));
        let order = match (x, y) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => x.0.cmp(&y.0),
        };
        Some(match order {
            Ordering::Less => {
                i += 1;
                (x, None)
            }
            Ordering::Greater => {
                j += 1;
                (None, y)
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
                (x, y)
            }
        })
    })
}

/// Collects in name order; of two entries with one name the later one
/// wins, as inserting into a `BTreeMap` does. Entries that come sorted
/// (a decoded journal map, say) are taken as they are.
impl<N: Into<Arc<str>>> FromIterator<(N, Value)> for Params {
    fn from_iter<T: IntoIterator<Item = (N, Value)>>(iter: T) -> Self {
        let mut entries: Vec<Entry> = iter.into_iter().map(|(n, v)| (n.into(), v)).collect();
        if entries.is_empty() {
            return no_params();
        }
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            // Stable, so the entries of one name stay in arrival order,
            // and the one kept takes the last one's value.
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        Params(entries.into())
    }
}

impl Index<&str> for Params {
    type Output = Value;

    fn index(&self, name: &str) -> &Value {
        self.get(name)
            .unwrap_or_else(|| panic!("no member named {name:?}"))
    }
}

/// Prints as the map it is: `{"name": value, …}`.
impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Writes a map, in name order.
impl Serialize for Params {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), serde::Error> {
        s.begin_map(self.len())?;
        for (name, value) in self.iter() {
            s.field(name)?;
            value.serialize(s)?;
        }
        s.end_map()
    }
}

/// Reads a map; `{}` is [`no_params`]. Of two entries with one name
/// the later one wins, as with [`Params::from_iter`].
impl Deserialize for Params {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::Error> {
        if !d.begin_map()? {
            return Err(serde::Error::msg("expected map"));
        }
        let mut entries = Vec::new();
        while d.next_key()? {
            let name = Arc::<str>::deserialize(d)?;
            entries.push((name, Value::deserialize(d)?));
        }
        Ok(entries.into_iter().collect())
    }
}
