//! Property tests for the hand-rolled HTTP/1.1 request parser.
//!
//! The parser faces the network directly, so the properties are about
//! robustness rather than protocol completeness: arbitrary bytes never
//! panic, size limits always answer `413`, malformed syntax always
//! answers `400`, and well-formed requests round-trip their method,
//! target, headers and body.

use proptest::prelude::*;
use wfms_server::http::{Decoder, HttpError, Version, MAX_BODY, MAX_HEADERS, MAX_LINE};

/// Feeds raw bytes to the parser and returns the outcome: `Ok(None)`
/// is a clean end between requests, input that stops mid-request is a
/// `400`.
fn parse(bytes: &[u8]) -> Result<Option<wfms_server::http::Request>, HttpError> {
    let mut dec = Decoder::new();
    dec.push(bytes);
    match dec.next_request()? {
        Some(req) => Ok(Some(req)),
        None if dec.is_clean() => Ok(None),
        None => Err(HttpError::BadRequest(dec.truncation())),
    }
}

fn token() -> impl Strategy<Value = String> {
    "[A-Za-z-]{1,12}"
}

fn header_value() -> impl Strategy<Value = String> {
    // Printable ASCII minus CR/LF; leading/trailing spaces are trimmed
    // by the parser so the generator avoids them.
    "[!-~]{0,24}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic: every input yields `Ok` or a
    /// classified `HttpError` (the test passing at all proves no
    /// panic; the match proves the error taxonomy is total).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        match parse(&bytes) {
            Ok(_) => {}
            Err(e) => {
                let status = e.status();
                prop_assert!(
                    status == 400 || status == 413,
                    "unexpected status {status} for parse error"
                );
            }
        }
    }

    /// Garbage request lines (no two spaces, bad version, …) answer
    /// `400`, never a parsed request and never `413`.
    #[test]
    fn garbage_request_line_is_400(line in "[a-z ]{0,40}") {
        // Lines that happen to form `METHOD SP TARGET SP HTTP/1.x` are
        // excluded by construction (lowercase letters and spaces only,
        // so the version token can never match).
        let input = format!("{line}\r\n\r\n");
        match parse(input.as_bytes()) {
            Ok(None) => prop_assert!(line.is_empty(), "clean EOF only for empty input"),
            Ok(Some(req)) => prop_assert!(false, "parsed garbage as {:?}", req.method),
            Err(e) => prop_assert_eq!(e.status(), 400),
        }
    }

    /// A header line longer than `MAX_LINE` answers `413` regardless
    /// of the padding content.
    #[test]
    fn oversized_header_is_413(pad in MAX_LINE..MAX_LINE + 64) {
        let input = format!(
            "GET / HTTP/1.1\r\nx-big: {}\r\n\r\n",
            "v".repeat(pad)
        );
        match parse(input.as_bytes()) {
            Err(e) => prop_assert_eq!(e.status(), 413),
            other => prop_assert!(false, "expected 413, got {:?}", other.map(|r| r.is_some())),
        }
    }

    /// More header lines than `MAX_HEADERS` answers `413`.
    #[test]
    fn too_many_headers_is_413(extra in 1usize..8) {
        let mut input = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS + extra {
            input.push_str(&format!("x-h{i}: v\r\n"));
        }
        input.push_str("\r\n");
        match parse(input.as_bytes()) {
            Err(e) => prop_assert_eq!(e.status(), 413),
            other => prop_assert!(false, "expected 413, got {:?}", other.map(|r| r.is_some())),
        }
    }

    /// A declared body length larger than `MAX_BODY` answers `413`
    /// without reading the body.
    #[test]
    fn oversized_body_is_413(over in 1usize..1024) {
        let input = format!(
            "POST /instances HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + over
        );
        match parse(input.as_bytes()) {
            Err(e) => prop_assert_eq!(e.status(), 413),
            other => prop_assert!(false, "expected 413, got {:?}", other.map(|r| r.is_some())),
        }
    }

    /// A body shorter than its declared `content-length` (connection
    /// cut mid-body) answers `400`, never a partial request.
    #[test]
    fn truncated_body_is_400(body in prop::collection::vec(any::<u8>(), 1..64), cut in 1usize..64) {
        let cut = cut.min(body.len());
        let mut input = format!(
            "POST /instances HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        input.extend_from_slice(&body[..body.len() - cut]);
        match parse(&input) {
            Err(e) => prop_assert_eq!(e.status(), 400),
            other => prop_assert!(false, "expected 400, got {:?}", other.map(|r| r.is_some())),
        }
    }

    /// Well-formed requests round-trip method, target, header values
    /// (names case-insensitively) and the exact body bytes.
    #[test]
    fn valid_request_roundtrips(
        name in token(),
        value in header_value(),
        body in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut input = format!(
            "POST /worklist/7/complete?person=ann HTTP/1.1\r\n{name}: {value}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        input.extend_from_slice(&body);
        let req = match parse(&input) {
            Ok(Some(req)) => req,
            other => return Err(TestCaseError::fail(format!("parse failed: {other:?}"))),
        };
        prop_assert_eq!(req.method.as_str(), "POST");
        prop_assert_eq!(req.path.as_str(), "/worklist/7/complete");
        let person = req.query_param("person").unwrap();
        prop_assert_eq!(person.as_deref(), Some("ann"));
        // Header names are lowercased on read; values survive verbatim
        // modulo edge trimming (excluded by the generator).
        prop_assert_eq!(req.header(&name.to_ascii_lowercase()), Some(value.as_str()));
        prop_assert_eq!(req.body, body);
    }

    /// N concatenated requests fed to the incremental decoder in
    /// arbitrary chunk sizes parse to exactly N requests, each with
    /// its own body bytes intact, and leave no bytes behind.
    #[test]
    fn pipelined_streams_parse_without_byte_loss(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..8),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            stream.extend_from_slice(
                format!(
                    "POST /instances?seq={i} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            stream.extend_from_slice(body);
        }
        let mut decoder = Decoder::new();
        let mut parsed = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
            while let Some(req) = decoder.next_request().map_err(|e| {
                TestCaseError::fail(format!("decode error: {e:?}"))
            })? {
                parsed.push(req);
            }
        }
        prop_assert_eq!(parsed.len(), bodies.len(), "request count");
        for (i, (req, body)) in parsed.iter().zip(&bodies).enumerate() {
            let seq = format!("{i}");
            let got = req.query_param("seq").unwrap();
            prop_assert_eq!(got.as_deref(), Some(seq.as_str()));
            prop_assert_eq!(&req.body, body, "body {i}");
        }
        prop_assert!(decoder.is_clean(), "no unconsumed bytes");
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// HTTP/1.0 defaults to close; HTTP/1.1 defaults to keep-alive;
    /// an explicit `connection` header wins in either version.
    #[test]
    fn http10_close_semantics(
        one_zero in any::<bool>(),
        conn in prop::option::of(prop_oneof!["keep-alive", "close", "Keep-Alive", "CLOSE"]),
    ) {
        let version = if one_zero { "HTTP/1.0" } else { "HTTP/1.1" };
        let header = conn
            .as_ref()
            .map(|v| format!("connection: {v}\r\n"))
            .unwrap_or_default();
        let input = format!("GET / {version}\r\n{header}\r\n");
        let req = match parse(input.as_bytes()) {
            Ok(Some(req)) => req,
            other => return Err(TestCaseError::fail(format!("parse failed: {other:?}"))),
        };
        prop_assert_eq!(
            req.version,
            if one_zero { Version::Http10 } else { Version::Http11 }
        );
        let expect_close = match conn.as_deref().map(str::to_ascii_lowercase) {
            Some(ref v) if v == "close" => true,
            Some(_) => false,
            None => one_zero,
        };
        prop_assert_eq!(req.wants_close(), expect_close);
    }

    /// Any UTF-8 query value survives a percent-encode → parse →
    /// `query_param` round trip, byte for byte.
    #[test]
    fn encoded_query_values_roundtrip(value in "\\PC{0,24}") {
        let mut encoded = String::new();
        for b in value.bytes() {
            if b.is_ascii_alphanumeric() {
                encoded.push(b as char);
            } else {
                encoded.push_str(&format!("%{b:02X}"));
            }
        }
        let input = format!("GET /worklist?person={encoded} HTTP/1.1\r\n\r\n");
        let req = match parse(input.as_bytes()) {
            Ok(Some(req)) => req,
            other => return Err(TestCaseError::fail(format!("parse failed: {other:?}"))),
        };
        let got = req.query_param("person").unwrap();
        prop_assert_eq!(got.as_deref(), Some(value.as_str()));
    }

    /// A `%` not followed by two hex digits answers `400` from
    /// `query_param`, never a silently mangled value.
    #[test]
    fn malformed_query_escape_is_400(
        prefix in "[a-z0-9]{0,8}",
        bad in prop_oneof!["%", "%[0-9a-f]", "%[g-z][0-9]", "%[0-9][g-z]", "%%"],
    ) {
        let input = format!("GET /worklist?p={prefix}{bad} HTTP/1.1\r\n\r\n");
        let req = match parse(input.as_bytes()) {
            Ok(Some(req)) => req,
            other => return Err(TestCaseError::fail(format!("parse failed: {other:?}"))),
        };
        match req.query_param("p") {
            Err(e) => prop_assert_eq!(e.status(), 400, "query {:?}", bad),
            Ok(v) => prop_assert!(false, "malformed escape {:?} decoded to {:?}", bad, v),
        }
    }

    /// `Content-Length` values with any non-digit byte — leading `+`,
    /// embedded whitespace, sign, hex — answer `400`, never parse.
    #[test]
    fn non_digit_content_length_is_400(
        value in prop_oneof![
            "\\+[0-9]{1,6}",
            "-[0-9]{1,6}",
            "[0-9]{1,3} [0-9]{1,3}",
            "0x[0-9a-f]{1,4}",
            "[0-9]{1,4}[a-z]",
        ],
    ) {
        let input = format!("POST / HTTP/1.1\r\ncontent-length: {value}\r\n\r\n");
        match parse(input.as_bytes()) {
            Err(e) => prop_assert_eq!(e.status(), 400, "value {:?}", value),
            other => prop_assert!(
                false,
                "content-length {:?} accepted: {:?}",
                value,
                other.map(|r| r.is_some())
            ),
        }
    }
}
