//! Offline shim for `serde`.
//!
//! Serialization streams, as upstream's does: [`Serialize`] writes a
//! value into a [`Serializer`] (scalars, strings, the begin and end of
//! a sequence or map, keys) and [`Deserialize`] reads one back from a
//! pull [`Deserializer`]. Each trait has two implementations and no
//! other path: `serde_json`'s writer and pull parser, and the
//! [`Content`] builder and walker here. `Content` is a value type —
//! a JSON-shaped tree a caller may hold, build and inspect —
//! and [`Serialize::to_content`] / [`Deserialize::from_content`] are
//! the builder and the walker behind provided methods. A type may
//! implement either side of a pair: the streaming methods' defaults
//! go through `Content`, so an impl written against the tree alone
//! still streams (through a tree).
//!
//! The encoding follows serde's conventions (structs as maps,
//! externally tagged enums, `None` as null) so the JSON is
//! recognisable, but the only compatibility guarantee is
//! self-round-trip — which is all this workspace needs (HTTP bodies,
//! journal dumps, audit reports and tests).

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

/// A serialized value as a tree.
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

/// Where a value is written. A sequence is `begin_seq`, then
/// `element` before each element, then `end_seq`; a map is
/// `begin_map`, then per entry `key`, the key, `value`, the value,
/// then `end_map`. `len` is how many elements or entries follow, a
/// hint only.
pub trait Serializer {
    fn null(&mut self) -> Result<(), Error>;
    fn bool(&mut self, v: bool) -> Result<(), Error>;
    fn i64(&mut self, v: i64) -> Result<(), Error>;
    fn u64(&mut self, v: u64) -> Result<(), Error>;
    fn f64(&mut self, v: f64) -> Result<(), Error>;
    fn str(&mut self, v: &str) -> Result<(), Error>;
    fn begin_seq(&mut self, len: usize) -> Result<(), Error>;
    fn element(&mut self) -> Result<(), Error>;
    fn end_seq(&mut self) -> Result<(), Error>;
    fn begin_map(&mut self, len: usize) -> Result<(), Error>;
    fn key(&mut self) -> Result<(), Error>;
    fn value(&mut self) -> Result<(), Error>;
    fn end_map(&mut self) -> Result<(), Error>;

    /// Opens the entry of a string key: what a struct writes per field.
    #[inline]
    fn field(&mut self, name: &str) -> Result<(), Error> {
        self.key()?;
        self.str(name)?;
        self.value()
    }
}

/// A scalar a [`Deserializer`] read: a string borrows from the input
/// (or from the reader's own buffer, where it had escapes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(&'a str),
}

/// Where a value is read from, pulled one step at a time. `begin_seq`
/// and `begin_map` open the next value when it is one (`false`:
/// nothing is consumed); then `next_element` / `next_key` step to each
/// element or entry and answer `false` at the end, which closes the
/// container. After `next_key` the entry's key is read (as any value,
/// or with `str_key`), then its value.
pub trait Deserializer {
    /// Reads the next value, a scalar; a sequence or map is an error.
    fn scalar(&mut self) -> Result<Scalar<'_>, Error>;
    /// Consumes the next value if it is null.
    fn null(&mut self) -> Result<bool, Error>;
    fn begin_seq(&mut self) -> Result<bool, Error>;
    fn next_element(&mut self) -> Result<bool, Error>;
    fn begin_map(&mut self) -> Result<bool, Error>;
    fn next_key(&mut self) -> Result<bool, Error>;
    /// Reads a key that is a string; any other key is consumed and
    /// answers `None`.
    fn str_key(&mut self) -> Result<Option<&str>, Error>;
    /// Consumes the next value whole.
    fn skip(&mut self) -> Result<(), Error>;
}

/// A value that can write itself. Implement at least one of the two
/// methods: each one's default calls the other.
pub trait Serialize {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        self.to_content().serialize(s)
    }

    /// The value as a tree.
    fn to_content(&self) -> Content {
        let mut builder = Builder::default();
        match self.serialize(&mut builder) {
            Ok(()) => builder.finish(),
            Err(e) => panic!("the Content builder takes every value: {e}"),
        }
    }
}

/// A value that can read itself back. Implement at least one of the
/// two methods: each one's default calls the other.
pub trait Deserialize: Sized {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        Self::from_content(&Content::deserialize(d)?)
    }

    /// The value read from a tree.
    fn from_content(content: &Content) -> Result<Self, Error> {
        Self::deserialize(&mut Walker::new(content))
    }

    /// What a derived reader takes for a named field the input does not
    /// have (and no `#[serde(default)]` covers): an error naming the
    /// field, except that an absent `Option` is `None` — upstream's
    /// `missing_field` rule. Only `Option<T>` overrides this.
    #[doc(hidden)]
    fn from_missing_field(field: &str, context: &str) -> Result<Self, Error> {
        Err(Error::msg(format!("missing field `{field}` in {context}")))
    }
}

// ---- Content: builder and walker ---------------------------------------

/// The [`Serializer`] that builds a [`Content`] tree.
#[derive(Default)]
struct Builder {
    open: Vec<Partial>,
    done: Option<Content>,
}

/// A container the builder has begun: a map's entries alternate key
/// and value, so `key` holds a key until its value arrives.
enum Partial {
    Seq(Vec<Content>),
    Map(Vec<(Content, Content)>, Option<Content>),
}

impl Builder {
    fn put(&mut self, content: Content) -> Result<(), Error> {
        match self.open.last_mut() {
            None => self.done = Some(content),
            Some(Partial::Seq(items)) => items.push(content),
            Some(Partial::Map(entries, key)) => match key.take() {
                None => *key = Some(content),
                Some(k) => entries.push((k, content)),
            },
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), Error> {
        let content = match self.open.pop() {
            Some(Partial::Seq(items)) => Content::Seq(items),
            Some(Partial::Map(entries, None)) => Content::Map(entries),
            _ => return Err(Error::msg("unbalanced container")),
        };
        self.put(content)
    }

    fn finish(self) -> Content {
        self.done.unwrap_or(Content::Null)
    }
}

impl Serializer for Builder {
    fn null(&mut self) -> Result<(), Error> {
        self.put(Content::Null)
    }
    fn bool(&mut self, v: bool) -> Result<(), Error> {
        self.put(Content::Bool(v))
    }
    fn i64(&mut self, v: i64) -> Result<(), Error> {
        self.put(Content::I64(v))
    }
    fn u64(&mut self, v: u64) -> Result<(), Error> {
        self.put(Content::U64(v))
    }
    fn f64(&mut self, v: f64) -> Result<(), Error> {
        self.put(Content::F64(v))
    }
    fn str(&mut self, v: &str) -> Result<(), Error> {
        self.put(Content::Str(v.to_owned()))
    }
    fn begin_seq(&mut self, len: usize) -> Result<(), Error> {
        self.open.push(Partial::Seq(Vec::with_capacity(len)));
        Ok(())
    }
    fn element(&mut self) -> Result<(), Error> {
        Ok(())
    }
    fn end_seq(&mut self) -> Result<(), Error> {
        self.close()
    }
    fn begin_map(&mut self, len: usize) -> Result<(), Error> {
        self.open.push(Partial::Map(Vec::with_capacity(len), None));
        Ok(())
    }
    fn key(&mut self) -> Result<(), Error> {
        Ok(())
    }
    fn value(&mut self) -> Result<(), Error> {
        Ok(())
    }
    fn end_map(&mut self) -> Result<(), Error> {
        self.close()
    }
}

/// The [`Deserializer`] that walks a [`Content`] tree.
struct Walker<'a> {
    /// The value to be read next.
    next: Option<&'a Content>,
    open: Vec<Frame<'a>>,
}

/// A container the walker is inside; a map holds the value of the
/// entry whose key is being read.
enum Frame<'a> {
    Seq(std::slice::Iter<'a, Content>),
    Map(
        std::slice::Iter<'a, (Content, Content)>,
        Option<&'a Content>,
    ),
}

impl<'a> Walker<'a> {
    fn new(content: &'a Content) -> Self {
        Walker {
            next: Some(content),
            open: Vec::new(),
        }
    }

    /// Takes the next value, which is read whole.
    fn take(&mut self) -> Result<&'a Content, Error> {
        let content = self
            .next
            .take()
            .ok_or_else(|| Error::msg("no value to read"))?;
        self.done();
        Ok(content)
    }

    /// A value was read whole: if it was a key, its value is next.
    fn done(&mut self) {
        if let Some(Frame::Map(_, value)) = self.open.last_mut() {
            if let Some(value) = value.take() {
                self.next = Some(value);
            }
        }
    }
}

impl Deserializer for Walker<'_> {
    fn scalar(&mut self) -> Result<Scalar<'_>, Error> {
        Ok(match self.take()? {
            Content::Null => Scalar::Null,
            Content::Bool(b) => Scalar::Bool(*b),
            Content::I64(n) => Scalar::I64(*n),
            Content::U64(n) => Scalar::U64(*n),
            Content::F64(x) => Scalar::F64(*x),
            Content::Str(s) => Scalar::Str(s),
            other => return Err(Error::msg(format!("expected a scalar, found {other:?}"))),
        })
    }

    fn null(&mut self) -> Result<bool, Error> {
        let null = matches!(self.next, Some(Content::Null));
        if null {
            self.take()?;
        }
        Ok(null)
    }

    fn begin_seq(&mut self) -> Result<bool, Error> {
        let Some(Content::Seq(items)) = self.next else {
            return Ok(false);
        };
        self.next = None;
        self.open.push(Frame::Seq(items.iter()));
        Ok(true)
    }

    fn next_element(&mut self) -> Result<bool, Error> {
        let Some(Frame::Seq(items)) = self.open.last_mut() else {
            return Err(Error::msg("no sequence is open"));
        };
        if let Some(item) = items.next() {
            self.next = Some(item);
            return Ok(true);
        }
        self.open.pop();
        self.done();
        Ok(false)
    }

    fn begin_map(&mut self) -> Result<bool, Error> {
        let Some(Content::Map(entries)) = self.next else {
            return Ok(false);
        };
        self.next = None;
        self.open.push(Frame::Map(entries.iter(), None));
        Ok(true)
    }

    fn next_key(&mut self) -> Result<bool, Error> {
        let Some(Frame::Map(entries, value)) = self.open.last_mut() else {
            return Err(Error::msg("no map is open"));
        };
        if let Some((k, v)) = entries.next() {
            *value = Some(v);
            self.next = Some(k);
            return Ok(true);
        }
        self.open.pop();
        self.done();
        Ok(false)
    }

    fn str_key(&mut self) -> Result<Option<&str>, Error> {
        Ok(match self.take()? {
            Content::Str(s) => Some(s),
            _ => None,
        })
    }

    fn skip(&mut self) -> Result<(), Error> {
        self.take().map(drop)
    }
}

/// A tree is written by walking it.
impl Serialize for Content {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        match self {
            Content::Null => s.null(),
            Content::Bool(b) => s.bool(*b),
            Content::I64(n) => s.i64(*n),
            Content::U64(n) => s.u64(*n),
            Content::F64(x) => s.f64(*x),
            Content::Str(v) => s.str(v),
            Content::Seq(items) => items.as_slice().serialize(s),
            Content::Map(entries) => {
                write_map(s, entries.len(), entries.iter().map(|(k, v)| (k, v)))
            }
        }
    }

    fn to_content(&self) -> Content {
        self.clone()
    }
}

/// A tree is read from whatever the input holds.
impl Deserialize for Content {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        if d.begin_seq()? {
            let mut items = Vec::new();
            while d.next_element()? {
                items.push(Content::deserialize(d)?);
            }
            return Ok(Content::Seq(items));
        }
        if d.begin_map()? {
            let mut entries = Vec::new();
            while d.next_key()? {
                let key = Content::deserialize(d)?;
                entries.push((key, Content::deserialize(d)?));
            }
            return Ok(Content::Map(entries));
        }
        Ok(match d.scalar()? {
            Scalar::Null => Content::Null,
            Scalar::Bool(b) => Content::Bool(b),
            Scalar::I64(n) => Content::I64(n),
            Scalar::U64(n) => Content::U64(n),
            Scalar::F64(x) => Content::F64(x),
            Scalar::Str(s) => Content::Str(s.to_owned()),
        })
    }

    fn from_content(content: &Content) -> Result<Self, Error> {
        Ok(content.clone())
    }
}

// ---- helpers the impls share -------------------------------------------

#[inline]
fn write_seq<'a, S, T, I>(s: &mut S, len: usize, items: I) -> Result<(), Error>
where
    S: Serializer + ?Sized,
    T: Serialize + ?Sized + 'a,
    I: Iterator<Item = &'a T>,
{
    s.begin_seq(len)?;
    for item in items {
        s.element()?;
        item.serialize(s)?;
    }
    s.end_seq()
}

#[inline]
fn write_map<'a, S, K, V, I>(s: &mut S, len: usize, entries: I) -> Result<(), Error>
where
    S: Serializer + ?Sized,
    K: Serialize + ?Sized + 'a,
    V: Serialize + ?Sized + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    s.begin_map(len)?;
    for (k, v) in entries {
        s.key()?;
        k.serialize(s)?;
        s.value()?;
        v.serialize(s)?;
    }
    s.end_map()
}

/// Reads a sequence element by element into `push`.
#[inline]
fn read_seq<D, T>(d: &mut D, mut push: impl FnMut(T)) -> Result<(), Error>
where
    D: Deserializer + ?Sized,
    T: Deserialize,
{
    if !d.begin_seq()? {
        return Err(Error::msg("expected sequence"));
    }
    while d.next_element()? {
        push(T::deserialize(d)?);
    }
    Ok(())
}

/// Reads a map entry by entry into `insert`.
#[inline]
fn read_map<D, K, V>(d: &mut D, mut insert: impl FnMut(K, V)) -> Result<(), Error>
where
    D: Deserializer + ?Sized,
    K: Deserialize,
    V: Deserialize,
{
    if !d.begin_map()? {
        return Err(Error::msg("expected map"));
    }
    while d.next_key()? {
        let key = K::deserialize(d)?;
        insert(key, V::deserialize(d)?);
    }
    Ok(())
}

// ---- primitive impls ---------------------------------------------------

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
                s.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
                let n = match d.scalar()? {
                    Scalar::I64(n) => n,
                    Scalar::U64(n) => i64::try_from(n)
                        .map_err(|_| Error::msg("integer out of range"))?,
                    // Integer-keyed maps render their keys as JSON
                    // strings; accept the quoted form back.
                    Scalar::Str(s) => s
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
            #[inline]
            fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
                s.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
                let n = match d.scalar()? {
                    Scalar::U64(n) => n,
                    Scalar::I64(n) => u64::try_from(n)
                        .map_err(|_| Error::msg("negative where unsigned expected"))?,
                    // Integer-keyed maps render their keys as JSON
                    // strings; accept the quoted form back.
                    Scalar::Str(s) => s
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
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.bool(*self)
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            Scalar::Bool(b) => Ok(b),
            other => Err(Error::msg(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.f64(*self)
    }
}

impl Deserialize for f64 {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            Scalar::F64(x) => Ok(x),
            Scalar::I64(n) => Ok(n as f64),
            Scalar::U64(n) => Ok(n as f64),
            other => Err(Error::msg(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.f64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        f64::deserialize(d).map(|x| x as f32)
    }
}

impl Serialize for char {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            Scalar::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::msg(format!("expected char, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.str(self)
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            Scalar::Str(s) => Ok(s.to_owned()),
            other => Err(Error::msg(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.str(self)
    }
}

impl Serialize for () {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        s.null()
    }
}

impl Deserialize for () {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            Scalar::Null => Ok(()),
            other => Err(Error::msg(format!("expected null, found {other:?}"))),
        }
    }
}

// ---- reference / wrapper impls -----------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        (**self).serialize(s)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        T::deserialize(d).map(Box::new)
    }
}

/// A boxed slice reads as a sequence, as upstream's does.
impl<T: Deserialize> Deserialize for Box<[T]> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        Vec::<T>::deserialize(d).map(Vec::into_boxed_slice)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        (**self).serialize(s)
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        T::deserialize(d).map(Rc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        (**self).serialize(s)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        T::deserialize(d).map(Arc::new)
    }
}

/// A shared string reads as a fresh allocation, as with upstream's `rc`
/// feature: sharing is not part of the data. (`Serialize` is the
/// `Arc<T: ?Sized>` impl above, through `str`.)
impl Deserialize for Arc<str> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        match d.scalar()? {
            Scalar::Str(s) => Ok(Arc::from(s)),
            other => Err(Error::msg(format!("expected string, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        match self {
            None => s.null(),
            Some(v) => v.serialize(s),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        if d.null()? {
            return Ok(None);
        }
        T::deserialize(d).map(Some)
    }

    fn from_missing_field(_field: &str, _context: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

// ---- sequence impls ----------------------------------------------------

impl<T: Serialize> Serialize for [T] {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        write_seq(s, self.len(), self.iter())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        let mut items = Vec::new();
        read_seq(d, |item| items.push(item))?;
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        write_seq(s, self.len(), self.iter())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        let mut items = BTreeSet::new();
        read_seq(d, |item| {
            items.insert(item);
        })?;
        Ok(items)
    }
}

impl<T: Serialize + Eq + Hash> Serialize for HashSet<T> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        write_seq(s, self.len(), self.iter())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        let mut items = HashSet::new();
        read_seq(d, |item| {
            items.insert(item);
        })?;
        Ok(items)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            #[inline]
            fn serialize<Ser: Serializer + ?Sized>(&self, s: &mut Ser) -> Result<(), Error> {
                const LEN: usize = [$(stringify!($idx)),+].len();
                s.begin_seq(LEN)?;
                $(
                    s.element()?;
                    self.$idx.serialize(s)?;
                )+
                s.end_seq()
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            #[inline]
            fn deserialize<De: Deserializer + ?Sized>(d: &mut De) -> Result<Self, Error> {
                const LEN: usize = [$(stringify!($idx)),+].len();
                let wrong = || Error::msg(format!("expected {LEN}-tuple"));
                if !d.begin_seq()? {
                    return Err(wrong());
                }
                let tuple = ($(
                    if d.next_element()? { $name::deserialize(d)? } else { return Err(wrong()) },
                )+);
                if d.next_element()? {
                    return Err(wrong());
                }
                Ok(tuple)
            }
        }
    )+};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

// ---- map impls ---------------------------------------------------------

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    #[inline]
    fn serialize<W: Serializer + ?Sized>(&self, s: &mut W) -> Result<(), Error> {
        write_map(s, self.len(), self.iter())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S> Deserialize for HashMap<K, V, S>
where
    S: std::hash::BuildHasher + Default,
{
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        let mut map = HashMap::default();
        read_map(d, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    #[inline]
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), Error> {
        write_map(s, self.len(), self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    #[inline]
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        read_map(d, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

/// `serde::de` namespace stub so `serde::de::Error`-style paths resolve.
pub mod de {
    pub use crate::{Deserialize, Deserializer, Error, Scalar};
}

/// `serde::ser` namespace stub.
pub mod ser {
    pub use crate::{Error, Serialize, Serializer};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_and_vec_round_trip() {
        let v: Vec<Option<i64>> = vec![Some(3), None, Some(-7)];
        let c = v.to_content();
        assert_eq!(
            c,
            Content::Seq(vec![Content::I64(3), Content::Null, Content::I64(-7)])
        );
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

    /// Built and walked, a tree is itself: keys that are not strings
    /// and nested containers included.
    #[test]
    fn a_tree_round_trips_through_builder_and_walker() {
        let tree = Content::Map(vec![
            (Content::U64(7), Content::Seq(vec![])),
            (
                Content::Seq(vec![Content::Bool(true)]),
                Content::Map(vec![(Content::Str("x".into()), Content::F64(1.5))]),
            ),
            (Content::Str("n".into()), Content::Null),
        ]);
        let mut builder = Builder::default();
        tree.serialize(&mut builder).unwrap();
        assert_eq!(builder.finish(), tree);
        assert_eq!(Content::deserialize(&mut Walker::new(&tree)).unwrap(), tree);
    }

    /// A type written against the tree alone streams through it.
    #[test]
    fn a_tree_only_impl_streams() {
        struct Tree(Content);
        impl Serialize for Tree {
            fn to_content(&self) -> Content {
                self.0.clone()
            }
        }
        impl Deserialize for Tree {
            fn from_content(content: &Content) -> Result<Self, Error> {
                Ok(Tree(content.clone()))
            }
        }
        let tree = Content::Seq(vec![Content::Str("a".into()), Content::I64(-1)]);
        let mut builder = Builder::default();
        Tree(tree.clone()).serialize(&mut builder).unwrap();
        assert_eq!(builder.finish(), tree);
        let back = Tree::deserialize(&mut Walker::new(&tree)).unwrap();
        assert_eq!(back.0, tree);
    }

    #[test]
    fn tuples_take_exactly_their_length() {
        let pair = Content::Seq(vec![Content::U64(1), Content::Str("a".into())]);
        assert_eq!(
            <(u8, String)>::from_content(&pair).unwrap(),
            (1, "a".to_owned())
        );
        assert!(<(u8,)>::from_content(&pair).is_err());
        assert!(<(u8, String, bool)>::from_content(&pair).is_err());
    }
}
