//! Offline shim for `serde_json`: renders / parses the serde shim's
//! [`Content`] tree as JSON. Self-round-trip is guaranteed; byte
//! compatibility with upstream serde_json is not (and is not needed —
//! the workspace only reads JSON it wrote itself).

use serde::{Content, Deserialize, Serialize};
use std::fmt;

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

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a map key: strings directly, integers as quoted numbers
/// (matching upstream serde_json's behaviour for integer-keyed maps).
fn write_key(out: &mut String, key: &Content) -> Result<()> {
    match key {
        Content::Str(s) => {
            write_escaped(out, s);
            Ok(())
        }
        Content::I64(n) => {
            write_escaped(out, &n.to_string());
            Ok(())
        }
        Content::U64(n) => {
            write_escaped(out, &n.to_string());
            Ok(())
        }
        other => Err(Error::new(format!(
            "map key must be a string, got {other:?}"
        ))),
    }
}

fn write_value(out: &mut String, value: &Content, pretty: bool, indent: usize) -> Result<()> {
    let (nl, pad, pad_in) = if pretty {
        ("\n", "  ".repeat(indent), "  ".repeat(indent + 1))
    } else {
        (Default::default(), String::new(), String::new())
    };
    match value {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(n) => out.push_str(&n.to_string()),
        Content::U64(n) => out.push_str(&n.to_string()),
        Content::F64(x) => {
            if !x.is_finite() {
                return Err(Error::new("JSON cannot represent non-finite floats"));
            }
            out.push_str(&x.to_string());
        }
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
            } else {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_value(out, item, pretty, indent + 1)?;
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
        }
        Content::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
            } else {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_key(out, k)?;
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    write_value(out, v, pretty, indent + 1)?;
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
    Ok(())
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_content(), false, 0)?;
    Ok(out)
}

/// Serializes `value` to human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_content(), true, 0)?;
    Ok(out)
}

// ---- parsing -----------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Content) -> Result<Content> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or
            // escape in one piece: validating (and copying) only that
            // run keeps parsing linear in the input. `"` and `\` are
            // ASCII, so a run never ends inside a multi-byte character.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?;
                s.push_str(run);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => {
                    // A backslash: the scan above stops nowhere else.
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.parse_hex4()?;
                                let code = 0x10000
                                    + ((hi - 0xD800) << 10)
                                    + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Content::I64(n));
                }
            } else {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Content::U64(n));
                }
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.err("bad number"))
    }

    fn parse_value(&mut self, depth: u32) -> Result<Content> {
        if depth > 512 {
            return Err(self.err("JSON nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_literal("null", Content::Null),
            Some(b't') => self.eat_literal("true", Content::Bool(true)),
            Some(b'f') => self.eat_literal("false", Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    entries.push((Content::Str(key), value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
        }
    }
}

/// Parses `text` and deserializes a `T` from it.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let content = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after JSON value"));
    }
    Ok(T::from_content(&content)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<Option<bool>>("null").unwrap(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f — λ".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn nested_collections_round_trip() {
        let mut m: BTreeMap<String, Vec<Option<u64>>> = BTreeMap::new();
        m.insert("xs".into(), vec![Some(1), None, Some(3)]);
        let json = to_string(&m).unwrap();
        assert_eq!(json, r#"{"xs":[1,null,3]}"#);
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
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u64, 2], vec![]];
        let json = to_string_pretty(&v).unwrap();
        assert!(json.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u64>>>(&json).unwrap(), v);
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
    }
}
