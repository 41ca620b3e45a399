//! A minimal, dependency-free HTTP/1.1 subset — just enough protocol
//! for the workflow service: incremental request parsing with hard
//! limits, keep-alive and pipelining, `Content-Length` bodies, and
//! response rendering.
//!
//! The core is [`Decoder`], an incremental parser that consumes from
//! an internal byte buffer: feed it whatever the socket produced
//! ([`Decoder::push`]) and pop zero or more complete requests
//! ([`Decoder::next_request`]). That shape is what the non-blocking
//! event loop in [`crate::server`] needs — a read can deliver half a
//! request or three pipelined ones, and the decoder handles both
//! without ever blocking or re-scanning.
//!
//! The parser is deliberately paranoid rather than featureful. Every
//! input is bounded ([`MAX_LINE`], [`MAX_HEADERS`], [`MAX_BODY`]) and
//! every malformed or oversized input maps to a typed [`HttpError`]
//! that renders as `400` or `413` — never a panic, never unbounded
//! buffering. Chunked transfer encoding is rejected (the service's own
//! clients never send it). See `docs/serving.md` for the wire
//! protocol.

/// Maximum bytes in the request line or any single header line.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 64;
/// Maximum request body size in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// HTTP protocol version of a request. Only the keep-alive default
/// differs: HTTP/1.0 closes unless the client asks `keep-alive`,
/// HTTP/1.1 keeps alive unless the client asks `close`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0` — connections default to close.
    Http10,
    /// `HTTP/1.1` (or a later 1.x minor) — connections default to
    /// keep-alive.
    Http11,
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (before any `?`).
    pub path: String,
    /// Query string (after `?`), if present.
    pub query: Option<String>,
    /// Protocol version from the request line.
    pub version: Version,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `key`, percent-decoded: `+` means
    /// space and `%XX` the escaped byte, in both keys and values. A
    /// malformed escape is a [`HttpError::BadRequest`] — answering 400
    /// beats silently matching the wrong identifier.
    pub fn query_param(&self, key: &str) -> Result<Option<String>, HttpError> {
        let Some(query) = self.query.as_deref() else {
            return Ok(None);
        };
        for pair in query.split('&') {
            let Some((k, v)) = pair.split_once('=') else {
                continue;
            };
            if percent_decode(k)? == key {
                return Ok(Some(percent_decode(v)?));
            }
        }
        Ok(None)
    }

    /// True if the connection must be closed after this request: an
    /// explicit `Connection: close`, or an HTTP/1.0 request without
    /// `Connection: keep-alive` (1.0 connections default to close;
    /// only 1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.version == Version::Http10,
        }
    }
}

/// Why buffered input is not a request.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request: answered with `400 Bad Request`.
    BadRequest(&'static str),
    /// An input limit was exceeded: answered with `413 Content Too
    /// Large`.
    TooLarge(&'static str),
}

impl HttpError {
    /// The HTTP status this error is answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::TooLarge(_) => 413,
        }
    }

    /// Human-readable explanation for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) | HttpError::TooLarge(m) => (*m).to_owned(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status(), self.message())
    }
}

impl std::error::Error for HttpError {}

/// Decodes `application/x-www-form-urlencoded` escapes: `+` to space,
/// `%XX` to the escaped byte. Escapes must be complete two-digit hex
/// and the decoded bytes must still be UTF-8.
fn percent_decode(s: &str) -> Result<String, HttpError> {
    if !s.contains(['%', '+']) {
        return Ok(s.to_owned());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let pair = match (bytes.get(i + 1), bytes.get(i + 2)) {
                    (Some(&h), Some(&l)) => hex_val(h).zip(hex_val(l)),
                    _ => None,
                };
                let Some((h, l)) = pair else {
                    return Err(HttpError::BadRequest("malformed percent-escape in query"));
                };
                out.push(h * 16 + l);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| HttpError::BadRequest("query escapes decode to invalid UTF-8"))
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// RFC 7230 `tchar`: the bytes legal in a header field name.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric()
        || matches!(
            b,
            b'!' | b'#'
                | b'$'
                | b'%'
                | b'&'
                | b'\''
                | b'*'
                | b'+'
                | b'-'
                | b'.'
                | b'^'
                | b'_'
                | b'`'
                | b'|'
                | b'~'
        )
}

/// Strict `Content-Length`: ASCII digits only. `usize::parse` would
/// also accept a leading `+`, which some proxies treat differently —
/// a classic request-smuggling wedge, so any non-digit byte is a 400.
fn parse_content_length(v: &str) -> Result<usize, HttpError> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::BadRequest("unparseable content-length"));
    }
    v.parse::<usize>()
        .map_err(|_| HttpError::TooLarge("request body too large"))
}

/// Parse progress inside [`Decoder`].
enum DecodeState {
    /// Accumulating the request line and header lines.
    Head,
    /// Head complete; `need` body bytes outstanding.
    Body { req: Request, need: usize },
    /// A previous call returned `Err`; the stream is unusable.
    Failed,
}

/// Incremental HTTP/1.1 request parser over an internal buffer.
///
/// Feed raw socket bytes with [`push`](Decoder::push); pop complete
/// requests with [`next_request`](Decoder::next_request). Pipelined
/// requests are returned one at a time with no byte loss — whatever
/// follows a complete request stays buffered for the next call.
///
/// After an `Err` the decoder is poisoned: the connection should be
/// answered with [`HttpError::status`] and closed.
pub struct Decoder {
    buf: Vec<u8>,
    /// First unconsumed byte in `buf`.
    start: usize,
    state: DecodeState,
    /// Partial head: request line, once parsed.
    head: Option<(String, String, Option<String>, Version)>,
    /// Partial head: headers parsed so far.
    headers: Vec<(String, String)>,
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            state: DecodeState::Head,
            head: None,
            headers: Vec::new(),
        }
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates.
        if self.start > 0 && self.start >= self.buf.len().max(4096) / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a returned request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when nothing is buffered and no request is half-parsed —
    /// i.e. EOF here is a clean keep-alive termination.
    pub fn is_clean(&self) -> bool {
        self.buffered() == 0 && self.head.is_none() && matches!(self.state, DecodeState::Head)
    }

    /// What a mid-stream EOF means given current progress.
    pub fn truncation(&self) -> &'static str {
        match self.state {
            DecodeState::Body { .. } => "truncated body",
            _ if self.head.is_some() => "truncated headers",
            _ => "truncated request",
        }
    }

    /// Takes one `\n`-terminated line (stripping the terminator and a
    /// preceding `\r`) and returns where it lies in `buf`, or `None` if
    /// no full line is buffered yet. Nothing is copied.
    fn take_line(&mut self) -> Result<Option<std::ops::Range<usize>>, HttpError> {
        let hay = &self.buf[self.start..];
        match hay.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if i > MAX_LINE {
                    return Err(HttpError::TooLarge("request line or header too long"));
                }
                let end = if i > 0 && hay[i - 1] == b'\r' {
                    i - 1
                } else {
                    i
                };
                let line = self.start..self.start + end;
                self.start += i + 1;
                Ok(Some(line))
            }
            None => {
                if hay.len() > MAX_LINE {
                    return Err(HttpError::TooLarge("request line or header too long"));
                }
                Ok(None)
            }
        }
    }

    /// Pops the next complete request, or `Ok(None)` if more input is
    /// needed. Errors poison the decoder.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        match self.advance() {
            Err(e) => {
                self.state = DecodeState::Failed;
                Err(e)
            }
            ok => ok,
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        if matches!(self.state, DecodeState::Failed) {
            return Err(HttpError::BadRequest("request stream already failed"));
        }
        if let DecodeState::Body { .. } = self.state {
            return self.fill_body();
        }
        // Head: consume lines until the empty terminator line, each
        // parsed where it lies in the buffer.
        loop {
            let Some(line) = self.take_line()? else {
                return Ok(None);
            };
            let line = std::str::from_utf8(&self.buf[line])
                .map_err(|_| HttpError::BadRequest("non-UTF-8 request bytes"))?;
            if self.head.is_none() {
                self.head = Some(parse_request_line(line)?);
                continue;
            }
            if line.is_empty() {
                let (method, path, query, version) = self.head.take().expect("head parsed");
                let req = Request {
                    method,
                    path,
                    query,
                    version,
                    headers: std::mem::take(&mut self.headers),
                    body: Vec::new(),
                };
                return self.finish_head(req);
            }
            if self.headers.len() >= MAX_HEADERS {
                return Err(HttpError::TooLarge("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadRequest("header without colon"))?;
            if name.is_empty() || !name.bytes().all(is_tchar) {
                return Err(HttpError::BadRequest("malformed header name"));
            }
            self.headers
                .push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }

    /// Validates body framing headers and transitions to `Body` (or
    /// returns the request directly when there is none).
    fn finish_head(&mut self, req: Request) -> Result<Option<Request>, HttpError> {
        if req.header("transfer-encoding").is_some() {
            return Err(HttpError::BadRequest(
                "chunked transfer encoding unsupported",
            ));
        }
        if req
            .headers
            .iter()
            .filter(|(n, _)| n == "content-length")
            .count()
            > 1
        {
            return Err(HttpError::BadRequest("conflicting content-length headers"));
        }
        let len = match req.header("content-length") {
            Some(cl) => parse_content_length(cl)?,
            None => 0,
        };
        if len > MAX_BODY {
            return Err(HttpError::TooLarge("request body too large"));
        }
        if len == 0 {
            return Ok(Some(req));
        }
        self.state = DecodeState::Body { req, need: len };
        self.fill_body()
    }

    fn fill_body(&mut self) -> Result<Option<Request>, HttpError> {
        let DecodeState::Body { req, need } = &mut self.state else {
            unreachable!("fill_body called outside Body state");
        };
        let take = (*need).min(self.buf.len() - self.start);
        req.body
            .extend_from_slice(&self.buf[self.start..self.start + take]);
        self.start += take;
        *need -= take;
        if *need > 0 {
            return Ok(None);
        }
        let DecodeState::Body { req, .. } = std::mem::replace(&mut self.state, DecodeState::Head)
        else {
            unreachable!("state checked above");
        };
        Ok(Some(req))
    }
}

/// Parses and validates `METHOD SP TARGET SP VERSION`.
fn parse_request_line(line: &str) -> Result<(String, String, Option<String>, Version), HttpError> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("unsupported HTTP version"));
    }
    let version = if version == "HTTP/1.0" {
        Version::Http10
    } else {
        Version::Http11
    };
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(
            "request target must be absolute path",
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };
    Ok((method.to_owned(), path, query, version))
}

/// Reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders one `Content-Length`-framed response into `out` (appending
/// — the event loop batches many responses into one write). `extra`
/// headers (e.g. `allow` on a 405) are emitted between the framing
/// headers and `connection`.
pub fn render_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    close: bool,
) {
    use std::io::Write as _;
    // Written straight into `out`: `Vec<u8>`'s `io::Write` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(if close {
        b"connection: close\r\n\r\n" as &[u8]
    } else {
        b"connection: keep-alive\r\n\r\n"
    });
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One request from a complete input: `Ok(None)` is a clean end
    /// between requests, input that stops mid-request is a `400`.
    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut dec = Decoder::new();
        dec.push(bytes);
        match dec.next_request()? {
            Some(req) => Ok(Some(req)),
            None if dec.is_clean() => Ok(None),
            None => Err(HttpError::BadRequest(dec.truncation())),
        }
    }

    #[test]
    fn parses_get_with_query_and_keepalive() {
        let req = parse(b"GET /worklist?person=ann HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/worklist");
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.query_param("person").unwrap().as_deref(), Some("ann"));
        assert!(!req.wants_close());
    }

    #[test]
    fn query_params_are_percent_decoded() {
        let req = parse(b"GET /worklist?person=a%6En%2Bb&x=1+2%203 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("person").unwrap().as_deref(), Some("ann+b"));
        assert_eq!(req.query_param("x").unwrap().as_deref(), Some("1 2 3"));
        // Keys decode too: `%70erson` is `person` on the wire.
        let req = parse(b"GET /worklist?%70erson=ann HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("person").unwrap().as_deref(), Some("ann"));
        assert_eq!(req.query_param("absent").unwrap(), None);
    }

    #[test]
    fn malformed_query_escapes_are_400() {
        for q in ["p=%", "p=%2", "p=%zz", "p=%2g", "p=a%", "%g0=v", "p=%ff"] {
            let raw = format!("GET /worklist?{q} HTTP/1.1\r\n\r\n");
            let req = parse(raw.as_bytes()).unwrap().unwrap();
            let err = req.query_param("p").unwrap_err();
            assert_eq!(err.status(), 400, "query {q:?}");
        }
    }

    #[test]
    fn parses_post_body_exactly() {
        let req = parse(b"POST /instances HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn truncated_body_is_400() {
        let err = parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_header_is_413() {
        let mut raw = b"GET / HTTP/1.1\r\nx: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE + 1));
        raw.extend(b"\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 413);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), 413);
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.version, Version::Http10);
        assert!(req.wants_close(), "HTTP/1.0 without keep-alive closes");

        let req = parse(b"GET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.wants_close(), "explicit keep-alive holds a 1.0 conn");

        let req = parse(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close(), "explicit close closes a 1.1 conn");
    }

    #[test]
    fn plus_prefixed_content_length_is_400() {
        // `"+42".parse::<usize>()` succeeds — the strict digit check
        // must reject it anyway (and trailing junk, and inner spaces).
        for cl in ["+42", "4 2", "42a", "0x10", "-1", ""] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {cl}\r\n\r\n");
            let err = parse(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status(), 400, "content-length {cl:?}");
        }
    }

    #[test]
    fn illegal_header_name_bytes_are_400() {
        for name in ["a@b", "a(b)", "a,b", "a;b", "a\"b", "a b", "a\tb"] {
            let raw = format!("GET / HTTP/1.1\r\n{name}: v\r\n\r\n");
            let err = parse(raw.as_bytes()).unwrap_err();
            assert_eq!(err.status(), 400, "header name {name:?}");
        }
    }

    #[test]
    fn decoder_pops_pipelined_requests_without_byte_loss() {
        let mut dec = Decoder::new();
        dec.push(b"POST /instances HTTP/1.1\r\ncontent-length: 2\r\n\r\nab");
        dec.push(b"GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.0\r\ncontent-length: 1\r\n\r\nz");
        let a = dec.next_request().unwrap().unwrap();
        assert_eq!((a.method.as_str(), a.body.as_slice()), ("POST", &b"ab"[..]));
        let b = dec.next_request().unwrap().unwrap();
        assert_eq!((b.method.as_str(), b.path.as_str()), ("GET", "/healthz"));
        let c = dec.next_request().unwrap().unwrap();
        assert_eq!(c.body, b"z");
        assert_eq!(c.version, Version::Http10);
        assert!(dec.next_request().unwrap().is_none());
        assert!(dec.is_clean());
    }

    #[test]
    fn decoder_resumes_across_arbitrary_chunk_boundaries() {
        let wire = b"POST /instances HTTP/1.1\r\nx-tag: t\r\ncontent-length: 5\r\n\r\nhello";
        for split in 1..wire.len() {
            let mut dec = Decoder::new();
            dec.push(&wire[..split]);
            let early = dec.next_request().unwrap();
            dec.push(&wire[split..]);
            let req = match early {
                Some(r) => r,
                None => dec.next_request().unwrap().expect("complete after push"),
            };
            assert_eq!(req.body, b"hello", "split at {split}");
            assert_eq!(req.header("x-tag"), Some("t"));
        }
    }

    #[test]
    fn rendered_response_frames_body() {
        let mut out = Vec::new();
        render_response(&mut out, 200, "application/json", &[], b"{}", false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn render_emits_extra_headers_before_connection() {
        let mut out = Vec::new();
        render_response(
            &mut out,
            405,
            "application/json",
            &[("allow", "POST")],
            b"{}",
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(text.contains("allow: POST\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
    }
}
