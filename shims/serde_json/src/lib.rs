//! Offline shim for `serde_json`: the serde shim's [`Serializer`] as a
//! JSON writer (compact and pretty) and its [`Deserializer`] as a JSON
//! pull parser. A value is written straight into its thread's buffer
//! and copied out into a `String` of its length — once the buffer has
//! grown, one allocation — and read straight from the text, a string
//! without escapes borrowed from it; no [`serde::Content`] tree stands
//! between a value and its bytes. Self-round-trip is guaranteed; byte compatibility with
//! upstream serde_json is not (and is not needed — the workspace only
//! reads JSON it wrote itself).

use serde::{Deserialize, Deserializer, Scalar, Serialize, Serializer};
use std::cell::Cell;
use std::fmt::{self, Write as _};

/// JSON serialization / parse error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Self::new(e.to_string())
    }
}

/// Result alias matching the upstream crate.
pub type Result<T> = std::result::Result<T, Error>;

// ---- writing -----------------------------------------------------------

/// The JSON writer. A container's elements are announced (`element`,
/// `key`), so a comma is owed exactly when something was written since
/// the innermost container opened: `first` is all the state nesting
/// needs.
struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Open containers (the indentation level when pretty).
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    /// The next scalar is a map key.
    key: bool,
}

impl<'a> Writer<'a> {
    #[inline]
    fn new(out: &'a mut String, pretty: bool) -> Self {
        Writer {
            out,
            pretty,
            depth: 0,
            first: false,
            key: false,
        }
    }

    /// Starts an element or an entry: a comma after the first, and
    /// the line and indentation when pretty.
    #[inline]
    fn next_item(&mut self) {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        self.newline();
    }

    #[inline]
    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    #[inline]
    fn open(&mut self, bracket: &str) -> std::result::Result<(), serde::Error> {
        self.not_a_key("a container")?;
        self.out.push_str(bracket);
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    #[inline]
    fn close(&mut self, bracket: &str) -> std::result::Result<(), serde::Error> {
        self.depth -= 1;
        if !std::mem::replace(&mut self.first, false) {
            self.newline();
        }
        self.out.push_str(bracket);
        Ok(())
    }

    /// A map key must be a string (or an integer, written quoted, as
    /// upstream serde_json writes integer-keyed maps).
    #[inline]
    fn not_a_key(&self, what: &str) -> std::result::Result<(), serde::Error> {
        if self.key {
            return Err(serde::Error::msg(format!(
                "map key must be a string, got {what}"
            )));
        }
        Ok(())
    }

    #[inline]
    fn integer(&mut self, negative: bool, digits: &str) {
        let quote = if std::mem::take(&mut self.key) {
            "\""
        } else {
            ""
        };
        self.out.push_str(quote);
        if negative {
            self.out.push('-');
        }
        self.out.push_str(digits);
        self.out.push_str(quote);
    }

    #[inline]
    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", b);
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

/// The decimal digits of `n`, written from the end of `buf`.
fn digits(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

impl Serializer for Writer<'_> {
    #[inline]
    fn null(&mut self) -> std::result::Result<(), serde::Error> {
        self.not_a_key("null")?;
        self.out.push_str("null");
        Ok(())
    }

    #[inline]
    fn bool(&mut self, v: bool) -> std::result::Result<(), serde::Error> {
        self.not_a_key("a bool")?;
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    #[inline]
    fn i64(&mut self, v: i64) -> std::result::Result<(), serde::Error> {
        self.integer(v < 0, digits(v.unsigned_abs(), &mut [0; 20]));
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: u64) -> std::result::Result<(), serde::Error> {
        self.integer(false, digits(v, &mut [0; 20]));
        Ok(())
    }

    #[inline]
    fn f64(&mut self, v: f64) -> std::result::Result<(), serde::Error> {
        self.not_a_key("a float")?;
        if !v.is_finite() {
            return Err(serde::Error::msg("JSON cannot represent non-finite floats"));
        }
        let _ = write!(self.out, "{v}");
        Ok(())
    }

    #[inline]
    fn str(&mut self, v: &str) -> std::result::Result<(), serde::Error> {
        self.key = false;
        self.escaped(v);
        Ok(())
    }

    #[inline]
    fn begin_seq(&mut self, _len: usize) -> std::result::Result<(), serde::Error> {
        self.open("[")
    }

    #[inline]
    fn element(&mut self) -> std::result::Result<(), serde::Error> {
        self.next_item();
        Ok(())
    }

    #[inline]
    fn end_seq(&mut self) -> std::result::Result<(), serde::Error> {
        self.close("]")
    }

    #[inline]
    fn begin_map(&mut self, _len: usize) -> std::result::Result<(), serde::Error> {
        self.open("{")
    }

    #[inline]
    fn key(&mut self) -> std::result::Result<(), serde::Error> {
        self.next_item();
        self.key = true;
        Ok(())
    }

    #[inline]
    fn value(&mut self) -> std::result::Result<(), serde::Error> {
        self.out.push_str(if self.pretty { ": " } else { ":" });
        Ok(())
    }

    #[inline]
    fn end_map(&mut self) -> std::result::Result<(), serde::Error> {
        self.close("}")
    }
}

/// A thread's buffer above this size is let go after the write that
/// grew it.
const BUFFER_KEPT: usize = 64 << 10;

thread_local! {
    /// Where a thread writes a value before copying it out: one buffer,
    /// grown to the largest value written and then reused.
    static BUFFER: Cell<String> = const { Cell::new(String::new()) };
}

/// Writes `value` into the thread's buffer and copies it out into a
/// `String` of exactly its size: once the buffer has grown, a value
/// costs that one allocation. (A write inside another — a value whose
/// `serialize` calls `to_string` — takes an empty buffer of its own.)
fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<String> {
    let mut buf = BUFFER.take();
    buf.clear();
    let written = value.serialize(&mut Writer::new(&mut buf, pretty));
    let out = String::from(buf.as_str());
    if buf.capacity() <= BUFFER_KEPT {
        BUFFER.set(buf);
    }
    written?;
    Ok(out)
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    write(value, false)
}

/// Serializes `value` to human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    write(value, true)
}

// ---- parsing -----------------------------------------------------------

/// Containers a value may sit inside: one deeper is an error, whether
/// the value is read or skipped.
const MAX_DEPTH: usize = 512;

/// Where the last string read is: a slice of the input (no escapes),
/// or the buffer it was unescaped into.
enum StrAt {
    Input(usize, usize),
    Unescaped,
}

/// The JSON pull parser. As with the writer, the only nesting state is
/// `first` (nothing read yet in the innermost open container) and the
/// depth: the reader, which knows what it opened, asks for elements or
/// keys.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open containers.
    depth: usize,
    /// Nothing read yet in the innermost open container.
    first: bool,
    /// The next read is a map key (a string, then `:`).
    key: bool,
    /// Where a string with escapes is unescaped to.
    unescaped: String,
}

fn fail<T>(msg: String) -> std::result::Result<T, serde::Error> {
    Err(serde::Error::msg(msg))
}

impl<'a> Parser<'a> {
    #[inline]
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
            key: false,
            unescaped: String::new(),
        }
    }

    #[inline]
    fn err<T>(&self, msg: &str) -> std::result::Result<T, serde::Error> {
        fail(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> std::result::Result<(), serde::Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    #[inline]
    fn eat_literal(&mut self, lit: &str) -> std::result::Result<(), serde::Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    /// Where a value starts: within the depth bound, whitespace
    /// skipped, and its first byte.
    #[inline]
    fn value_start(&mut self) -> std::result::Result<Option<u8>, serde::Error> {
        if self.depth > MAX_DEPTH {
            return self.err("JSON nesting too deep");
        }
        self.skip_ws();
        Ok(self.peek())
    }

    /// Opens a container if the next value is one.
    #[inline]
    fn open(&mut self, bracket: u8) -> std::result::Result<bool, serde::Error> {
        if self.key || self.value_start()? != Some(bracket) {
            return Ok(false);
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(true)
    }

    /// Steps to the next item of the open container: `false` (and the
    /// container closed) at `close`.
    #[inline]
    fn next_item(&mut self, close: u8, expected: &str) -> std::result::Result<bool, serde::Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.err(expected),
        }
    }

    /// Reads the key the parser is at, and its `:`.
    #[inline]
    fn read_key(&mut self) -> std::result::Result<StrAt, serde::Error> {
        self.key = false;
        self.skip_ws();
        let at = self.parse_string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(at)
    }

    #[inline]
    fn str_at(&self, at: StrAt) -> &str {
        match at {
            StrAt::Input(start, end) => &self.text[start..end],
            StrAt::Unescaped => &self.unescaped,
        }
    }

    #[inline]
    fn parse_string(&mut self) -> std::result::Result<StrAt, serde::Error> {
        self.eat(b'"')?;
        let mut start = self.pos;
        let mut escaped = false;
        loop {
            // The run of plain bytes up to the next quote or escape is
            // taken in one piece, which keeps parsing linear in the
            // input. `"` and `\` are ASCII, so a run never ends inside
            // a multi-byte character.
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') if !escaped => {
                    self.pos += 1;
                    return Ok(StrAt::Input(start, self.pos - 1));
                }
                Some(b'"') => {
                    self.unescaped.push_str(run);
                    self.pos += 1;
                    return Ok(StrAt::Unescaped);
                }
                Some(_) => {
                    if !escaped {
                        self.unescaped.clear();
                        escaped = true;
                    }
                    self.unescaped.push_str(run);
                    // A backslash: the scan above stops nowhere else.
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return self.err("bad escape");
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.parse_unicode_escape()?,
                        _ => return self.err("unknown escape"),
                    };
                    self.unescaped.push(c);
                    start = self.pos;
                }
            }
        }
    }

    /// The character of a `\u` escape (the `\u` read), a surrogate
    /// pair's second half included.
    #[inline]
    fn parse_unicode_escape(&mut self) -> std::result::Result<char, serde::Error> {
        let hi = self.parse_hex4()?;
        let c = if (0xD800..0xDC00).contains(&hi) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.parse_hex4()?;
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
            char::from_u32(code)
        } else {
            char::from_u32(hi)
        };
        match c {
            Some(c) => Ok(c),
            None => self.err("invalid \\u escape"),
        }
    }

    #[inline]
    fn parse_hex4(&mut self) -> std::result::Result<u32, serde::Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let Ok(hex) = std::str::from_utf8(&self.bytes[self.pos..end]) else {
            return self.err("bad \\u escape");
        };
        let Ok(v) = u32::from_str_radix(hex, 16) else {
            return self.err("bad \\u escape");
        };
        self.pos = end;
        Ok(v)
    }

    #[inline]
    fn parse_number(&mut self) -> std::result::Result<Scalar<'static>, serde::Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if text.starts_with('-') {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Scalar::I64(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Scalar::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Scalar::F64(x)),
            Err(_) => self.err("bad number"),
        }
    }
}

impl Deserializer for Parser<'_> {
    #[inline]
    fn scalar(&mut self) -> std::result::Result<Scalar<'_>, serde::Error> {
        if self.key {
            let at = self.read_key()?;
            return Ok(Scalar::Str(self.str_at(at)));
        }
        Ok(match self.value_start()? {
            None => return self.err("unexpected end of input"),
            Some(b'n') => {
                self.eat_literal("null")?;
                Scalar::Null
            }
            Some(b't') => {
                self.eat_literal("true")?;
                Scalar::Bool(true)
            }
            Some(b'f') => {
                self.eat_literal("false")?;
                Scalar::Bool(false)
            }
            Some(b'"') => {
                let at = self.parse_string()?;
                Scalar::Str(self.str_at(at))
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number()?,
            Some(b'[') => return self.err("expected a scalar, found a sequence"),
            Some(b'{') => return self.err("expected a scalar, found a map"),
            Some(b) => return self.err(&format!("unexpected byte `{}`", b as char)),
        })
    }

    #[inline]
    fn null(&mut self) -> std::result::Result<bool, serde::Error> {
        if self.key || self.value_start()? != Some(b'n') {
            return Ok(false);
        }
        self.eat_literal("null")?;
        Ok(true)
    }

    #[inline]
    fn begin_seq(&mut self) -> std::result::Result<bool, serde::Error> {
        self.open(b'[')
    }

    #[inline]
    fn next_element(&mut self) -> std::result::Result<bool, serde::Error> {
        self.next_item(b']', "expected `,` or `]`")
    }

    #[inline]
    fn begin_map(&mut self) -> std::result::Result<bool, serde::Error> {
        self.open(b'{')
    }

    #[inline]
    fn next_key(&mut self) -> std::result::Result<bool, serde::Error> {
        let more = self.next_item(b'}', "expected `,` or `}`")?;
        self.key = more;
        Ok(more)
    }

    #[inline]
    fn str_key(&mut self) -> std::result::Result<Option<&str>, serde::Error> {
        if !self.key {
            return self.err("expected a map key");
        }
        let at = self.read_key()?;
        Ok(Some(self.str_at(at)))
    }

    /// Reads the next value through and drops it, without recursion:
    /// a bit per open container says whether it is a map.
    #[inline]
    fn skip(&mut self) -> std::result::Result<(), serde::Error> {
        if self.key {
            return self.read_key().map(drop);
        }
        let mut maps = [0u64; MAX_DEPTH / 64 + 2];
        let mut open = 0;
        loop {
            // A value starts here.
            let opened = if self.begin_seq()? {
                Some(false)
            } else if self.begin_map()? {
                Some(true)
            } else {
                self.scalar()?;
                None
            };
            if let Some(is_map) = opened {
                let (word, bit) = (open / 64, 1u64 << (open % 64));
                if word == maps.len() {
                    return self.err("JSON nesting too deep");
                }
                maps[word] = if is_map {
                    maps[word] | bit
                } else {
                    maps[word] & !bit
                };
                open += 1;
            }
            // Steps to the next value, closing the containers that end.
            loop {
                let Some(at) = open.checked_sub(1) else {
                    return Ok(());
                };
                let more = if maps[at / 64] & (1 << (at % 64)) != 0 {
                    let more = self.next_key()?;
                    if more {
                        self.read_key()?;
                    }
                    more
                } else {
                    self.next_element()?
                };
                if more {
                    break;
                }
                open -= 1;
            }
        }
    }
}

/// Parses `text` and deserializes a `T` from it.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = T::deserialize(&mut parser)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        parser.err::<()>("trailing characters after JSON value")?;
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;
    use std::collections::BTreeMap;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(to_string(&-42i64).unwrap(), "-42");
        assert_eq!(to_string(&i64::MIN).unwrap(), i64::MIN.to_string());
        assert_eq!(to_string(&u64::MAX).unwrap(), u64::MAX.to_string());
        assert_eq!(to_string(&0u8).unwrap(), "0");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert!(to_string(&f64::NAN).is_err());
        assert_eq!(from_str::<Option<bool>>("null").unwrap(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f\u{8}\u{c} — λ".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(json, "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u0008\\u000c — λ\"");
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""😀\/""#).unwrap(), "😀/");
    }

    #[test]
    fn nested_collections_round_trip() {
        let mut m: BTreeMap<String, Vec<Option<u64>>> = BTreeMap::new();
        m.insert("xs".into(), vec![Some(1), None, Some(3)]);
        m.insert("ys".into(), vec![]);
        let json = to_string(&m).unwrap();
        assert_eq!(json, r#"{"xs":[1,null,3],"ys":[]}"#);
        assert_eq!(
            from_str::<BTreeMap<String, Vec<Option<u64>>>>(&json).unwrap(),
            m
        );
    }

    #[test]
    fn integer_keyed_maps_round_trip() {
        let mut m: BTreeMap<u64, String> = BTreeMap::new();
        m.insert(7, "seven".into());
        let json = to_string(&m).unwrap();
        assert_eq!(json, r#"{"7":"seven"}"#);
        assert_eq!(from_str::<BTreeMap<u64, String>>(&json).unwrap(), m);
        let mut signed: BTreeMap<i64, String> = BTreeMap::new();
        signed.insert(7, "seven".into());
        signed.insert(-1, "minus one".into());
        let json = to_string(&signed).unwrap();
        assert_eq!(json, r#"{"-1":"minus one","7":"seven"}"#);
        assert_eq!(from_str::<BTreeMap<i64, String>>(&json).unwrap(), signed);
        let mut bad = BTreeMap::new();
        bad.insert(true, 1u8);
        assert!(to_string(&bad).is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u64, 2], vec![]];
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(json, "[\n  [\n    1,\n    2\n  ],\n  []\n]");
        assert_eq!(from_str::<Vec<Vec<u64>>>(&json).unwrap(), v);
        let tree = Content::Map(vec![
            (Content::Str("a".into()), Content::Map(vec![])),
            (
                Content::Str("b".into()),
                Content::Map(vec![(Content::Str("c".into()), Content::Null)]),
            ),
        ]);
        assert_eq!(
            to_string_pretty(&tree).unwrap(),
            "{\n  \"a\": {},\n  \"b\": {\n    \"c\": null\n  }\n}"
        );
    }

    /// String parsing is linear: one 4 MiB string with escapes and
    /// multi-byte characters parses at once, in a debug build too.
    /// (It used to re-validate the whole remaining input for every
    /// character and did not finish.)
    #[test]
    fn long_string_parses_in_linear_time() {
        let unit = "plain text — λ → \"quoted\" back\\slash\ttab\n\u{1}";
        let s = unit.repeat((4 << 20) / unit.len() + 1);
        assert!(s.len() >= 4 << 20);
        let json = to_string(&vec![s.clone()]).unwrap();
        assert_eq!(from_str::<Vec<String>>(&json).unwrap(), vec![s]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<i64>("4x").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<Vec<u64>>("[1,,2]").is_err());
        assert!(from_str::<Vec<u64>>("[1,]").is_err());
        assert!(from_str::<Vec<u64>>("[1 2]").is_err());
        assert!(from_str::<Content>("{\"a\" 1}").is_err());
        assert!(from_str::<Content>("{\"a\":1,}").is_err());
        assert!(from_str::<Content>("1 2").is_err());
    }

    /// 512 containers deep is the limit, for a value read and for one
    /// skipped: the value inside the 512th open container is refused.
    #[test]
    fn nesting_is_bounded_where_read_and_where_skipped() {
        let nest = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Content>(&nest(513, "")).is_ok());
        assert!(from_str::<Content>(&nest(514, "")).is_err());
        assert!(from_str::<Content>(&nest(512, "1")).is_ok());
        assert!(from_str::<Content>(&nest(513, "1")).is_err());
        let skipped = |n: usize| format!("[1,{}]", nest(n, "1"));
        assert!(from_str::<(u8,)>(&skipped(511)).is_err(), "a 1-tuple");
        assert!(from_str::<Vec<Content>>(&skipped(511)).is_ok());
        assert!(from_str::<Vec<Content>>(&skipped(512)).is_err());
        let map = |n: usize| format!("{{\"x\":{}}}", nest(n, "1"));
        assert!(from_str::<BTreeMap<String, ()>>(&map(100_000)).is_err());
        assert!(from_str::<Content>(&map(100_000)).is_err());
    }

    /// A value whose `serialize` writes JSON of its own is written
    /// whole: the inner write takes a buffer of its own.
    #[test]
    fn a_write_inside_a_write_keeps_both() {
        struct Embeds(Vec<u8>);
        impl Serialize for Embeds {
            fn serialize<S: Serializer + ?Sized>(
                &self,
                s: &mut S,
            ) -> std::result::Result<(), serde::Error> {
                let inner = to_string(&self.0).map_err(|e| serde::Error::msg(e.to_string()))?;
                s.begin_seq(2)?;
                s.element()?;
                s.str(&inner)?;
                s.element()?;
                s.u64(self.0.len() as u64)?;
                s.end_seq()
            }
        }
        let json = to_string(&Embeds(vec![1, 2])).unwrap();
        assert_eq!(json, r#"["[1,2]",2]"#);
        assert_eq!(to_string(&Embeds(vec![])).unwrap(), r#"["[]",0]"#);
    }

    #[test]
    fn a_string_without_escapes_is_borrowed() {
        let mut parser = Parser::new(r#""plain""#);
        assert_eq!(parser.scalar().unwrap(), Scalar::Str("plain"));
        assert_eq!(parser.unescaped.capacity(), 0);
    }
}
