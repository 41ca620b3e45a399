//! What one request's JSON and HTTP work allocates, exactly: a reply
//! body is written into the thread's buffer and copied out into one
//! `String` of its size, with no tree between the value and its bytes;
//! a request body is read straight from its
//! text; a request head is parsed where it lies in the decoder's
//! buffer. The shapes are the benchmark's: a `POST /instances` with
//! the `order` input and a tenant key, a `GET /instances/:id`, and a
//! reply carrying a three-member output.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use txn_substrate::Value;
use wfms_model::Container;
use wfms_server::api::{StatusResponse, SubmitRequest, SubmitResponse};
use wfms_server::http::Decoder;

#[global_allocator]
static A: counting::Counting = counting::Counting;

/// Allocations `f` makes, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = counting::tally();
    let out = f();
    ((counting::tally() - before).allocs, out)
}

const SUBMIT_BODY: &str = r#"{"process":"saga8","input":{"values":{"order":{"Int":123456}}}}"#;

fn post() -> Vec<u8> {
    format!(
        "POST /instances HTTP/1.1\r\nhost: 127.0.0.1:7313\r\n\
         authorization: Bearer key-acme-0123456789\r\ncontent-length: {}\r\n\r\n{SUBMIT_BODY}",
        SUBMIT_BODY.len()
    )
    .into_bytes()
}

const GET: &[u8] =
    b"GET /instances/4321 HTTP/1.1\r\nhost: 127.0.0.1:7313\r\nauthorization: Bearer key-acme-0123456789\r\n\r\n";

#[test]
fn one_request_allocates_what_it_keeps() {
    let mut output = Container::empty();
    output.set("order", Value::Int(123_456));
    output.set("RC", Value::Int(1));
    output.set("total", Value::Int(8));
    let submitted = SubmitResponse {
        id: 4_321,
        status: "finished".to_owned(),
        output: output.clone(),
    };
    let status = StatusResponse {
        id: 4_321,
        process: "saga8".to_owned(),
        status: "finished".to_owned(),
        version: "0123456789abcdef".to_owned(),
        output,
    };

    // A thread writes into one buffer it keeps, grown here by a first
    // reply; then a reply is the one `String` it is copied out into.
    serde_json::to_string(&status).unwrap();
    let (n, body) = counted(|| serde_json::to_string(&submitted).unwrap());
    assert_eq!(n, 1, "render SubmitResponse: the body alone");
    assert_eq!(body.len(), body.capacity(), "allocated at its size");
    let back: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((back.id, back.output), (submitted.id, submitted.output));

    let (n, body) = counted(|| serde_json::to_string(&status).unwrap());
    assert_eq!(n, 1, "render StatusResponse: the body alone");
    assert_eq!(body.len(), body.capacity());

    // The process name, the member's name, the entries as read and the
    // container they become.
    let (n, request) = counted(|| serde_json::from_str::<SubmitRequest>(SUBMIT_BODY).unwrap());
    assert_eq!(n, 4, "parse SubmitRequest");
    assert_eq!(request.process.as_deref(), Some("saga8"));
    let order = request.input.as_ref().and_then(|input| input.get("order"));
    assert_eq!(order, Some(&Value::Int(123_456)));
    drop(request);

    // One decoder for the connection, its buffer grown and compacted
    // by earlier requests; then per request: method and path, the
    // header list, each header's name and value, and the body.
    let mut decoder = Decoder::new();
    let post = post();
    for _ in 0..32 {
        for bytes in [&post[..], GET] {
            decoder.push(bytes);
            decoder.next_request().unwrap().expect("a whole request");
        }
    }
    let (n, request) = counted(|| {
        decoder.push(&post);
        decoder.next_request()
    });
    let request = request.unwrap().expect("a whole request");
    assert_eq!(n, 10, "decode the POST");
    assert_eq!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/instances")
    );
    assert_eq!(
        request.header("authorization"),
        Some("Bearer key-acme-0123456789")
    );
    assert_eq!(request.body, SUBMIT_BODY.as_bytes());
    drop(request);
    let (n, request) = counted(|| {
        decoder.push(GET);
        decoder.next_request()
    });
    let request = request.unwrap().expect("a whole request");
    assert_eq!(n, 7, "decode the GET");
    assert_eq!(request.path, "/instances/4321");
    assert!(request.body.is_empty());
}
