//! Offline shim for `serde`.
//!
//! Instead of upstream serde's visitor architecture, serialization goes
//! through a concrete [`Content`] tree: `Serialize` renders a value
//! into a `Content`, `Deserialize` rebuilds a value from one, and
//! `serde_json` (the shim) renders/parses `Content` as JSON. The
//! encoding follows serde's conventions (structs as maps, externally
//! tagged enums, `None` as null) so the JSON is recognisable, but the
//! only compatibility guarantee is self-round-trip — which is all this
//! workspace needs (WAL/journal/audit persistence and tests).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

/// The derives; `serde_derive` lists the shapes and the three field
/// attributes they take. An attribute they know compiles —
///
/// ```
/// #[derive(serde::Serialize, serde::Deserialize)]
/// struct Named {
///     #[serde(default)]
///     name: String,
/// }
/// ```
///
/// — and any other is refused, not ignored:
///
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// struct Named {
///     #[serde(rename = "n")]
///     name: String,
/// }
/// ```
#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The intermediate data tree every value serializes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Key/value pairs in insertion order (keys are usually `Str`).
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// Looks up a string-keyed entry (struct field access).
    pub fn field(&self, name: &str) -> Option<&Content> {
        match self {
            Content::Map(entries) => entries.iter().find_map(|(k, v)| match k {
                Content::Str(s) if s == name => Some(v),
                _ => None,
            }),
            _ => None,
        }
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A value that can render itself into a [`Content`] tree.
pub trait Serialize {
    fn to_content(&self) -> Content;
}

/// A value that can rebuild itself from a [`Content`] tree.
pub trait Deserialize: Sized {
    fn from_content(content: &Content) -> Result<Self, Error>;

    /// What a derived reader takes for a named field the input does not
    /// have (and no `#[serde(default)]` covers): an error naming the
    /// field, except that an absent `Option` is `None` — upstream's
    /// `missing_field` rule. Only `Option<T>` overrides this.
    #[doc(hidden)]
    fn from_missing_field(field: &str, context: &str) -> Result<Self, Error> {
        Err(Error::msg(format!("missing field `{field}` in {context}")))
    }
}

// ---- primitive impls ---------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, Error> {
                let n = match content {
                    Content::I64(n) => *n,
                    Content::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::msg("integer out of range"))?,
                    // Integer-keyed maps render their keys as JSON
                    // strings; accept the quoted form back.
                    Content::Str(s) => s
                        .parse::<i64>()
                        .map_err(|_| Error::msg("expected integer string"))?,
                    other => return Err(Error::msg(format!(
                        "expected integer, found {other:?}"
                    ))),
                };
                <$t>::try_from(n).map_err(|_| Error::msg(concat!(
                    "integer out of range for ", stringify!($t)
                )))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(content: &Content) -> Result<Self, Error> {
                let n = match content {
                    Content::U64(n) => *n,
                    Content::I64(n) => u64::try_from(*n)
                        .map_err(|_| Error::msg("negative where unsigned expected"))?,
                    // Integer-keyed maps render their keys as JSON
                    // strings; accept the quoted form back.
                    Content::Str(s) => s
                        .parse::<u64>()
                        .map_err(|_| Error::msg("expected integer string"))?,
                    other => return Err(Error::msg(format!(
                        "expected integer, found {other:?}"
                    ))),
                };
                <$t>::try_from(n).map_err(|_| Error::msg(concat!(
                    "integer out of range for ", stringify!($t)
                )))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::F64(x) => Ok(*x),
            Content::I64(n) => Ok(*n as f64),
            Content::U64(n) => Ok(*n as f64),
            other => Err(Error::msg(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(content: &Content) -> Result<Self, Error> {
        f64::from_content(content).map(|x| x as f32)
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::msg(format!("expected char, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Null => Ok(()),
            other => Err(Error::msg(format!("expected null, found {other:?}"))),
        }
    }
}

// ---- reference / wrapper impls -----------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        T::from_content(content).map(Box::new)
    }
}

/// A boxed slice reads as a sequence, as upstream's does.
impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        Vec::<T>::from_content(content).map(Vec::into_boxed_slice)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        T::from_content(content).map(Rc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        T::from_content(content).map(Arc::new)
    }
}

/// A shared string reads as a fresh allocation, as with upstream's `rc`
/// feature: sharing is not part of the data. (`Serialize` is the
/// `Arc<T: ?Sized>` impl above, through `str`.)
impl Deserialize for Arc<str> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Str(s) => Ok(Arc::from(s.as_str())),
            other => Err(Error::msg(format!("expected string, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            None => Content::Null,
            Some(v) => v.to_content(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }

    fn from_missing_field(_field: &str, _context: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

// ---- sequence impls ----------------------------------------------------

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(Error::msg(format!("expected sequence, found {other:?}"))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(Error::msg(format!("expected sequence, found {other:?}"))),
        }
    }
}

impl<T: Serialize + Eq + Hash> Serialize for HashSet<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(Error::msg(format!("expected sequence, found {other:?}"))),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_content(content: &Content) -> Result<Self, Error> {
                const LEN: usize = [$(stringify!($idx)),+].len();
                match content {
                    Content::Seq(items) if items.len() == LEN => {
                        Ok(($($name::from_content(&items[$idx])?,)+))
                    }
                    other => Err(Error::msg(format!(
                        "expected {LEN}-tuple, found {other:?}"
                    ))),
                }
            }
        }
    )+};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

// ---- map impls ---------------------------------------------------------

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S> Deserialize for HashMap<K, V, S>
where
    S: std::hash::BuildHasher + Default,
{
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
                .collect(),
            other => Err(Error::msg(format!("expected map, found {other:?}"))),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match content {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
                .collect(),
            other => Err(Error::msg(format!("expected map, found {other:?}"))),
        }
    }
}

/// `serde::de` namespace stub so `serde::de::Error`-style paths resolve.
pub mod de {
    pub use crate::{Deserialize, Error};
}

/// `serde::ser` namespace stub.
pub mod ser {
    pub use crate::{Error, Serialize};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_and_vec_round_trip() {
        let v: Vec<Option<i64>> = vec![Some(3), None, Some(-7)];
        let c = v.to_content();
        assert_eq!(Vec::<Option<i64>>::from_content(&c).unwrap(), v);
    }

    #[test]
    fn map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        let c = m.to_content();
        assert_eq!(BTreeMap::<String, u64>::from_content(&c).unwrap(), m);
    }

    #[test]
    fn cross_signedness_integers_tolerated() {
        assert_eq!(u64::from_content(&Content::I64(5)).unwrap(), 5);
        assert_eq!(i64::from_content(&Content::U64(5)).unwrap(), 5);
        assert!(u64::from_content(&Content::I64(-5)).is_err());
    }
}
