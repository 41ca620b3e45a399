//! Hostile sizes stay linear: a `POST /instances` body as large as the
//! HTTP layer takes (`MAX_BODY`, some 50 000 input members, names out
//! of order) is answered within a second. With the declared `order`
//! member the body's container becomes the instance's input whole; without
//! it, the input prototype and the body are merged member by member —
//! one walk over both name-ordered lists, where a write per member
//! would copy the list 50 000 times.

use std::sync::Arc;
use std::time::{Duration, Instant};

use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_model::{ContainerSchema, DataType, ProcessBuilder};
use wfms_observe::Registry;
use wfms_server::api::SubmitResponse;
use wfms_server::http::MAX_BODY;
use wfms_server::{Http1Client, PoolConfig, Server, ServerConfig, ShardPool};

/// The release build answers well inside this; a debug build gets
/// room, and a quadratic merge misses either by minutes.
const BOUND: Duration = Duration::from_secs(if cfg!(debug_assertions) { 10 } else { 1 });

fn provision(_shard: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    (fed, registry)
}

/// A submit body of at most `MAX_BODY` bytes: as many `m<i>` members as
/// fit, in a scrambled order, and `order` when `with_order`. Returns the
/// body and its member count.
fn body(with_order: bool) -> (String, usize) {
    let head = r#"{"process":"wide","input":{"values":{"#;
    let tail = "}}}";
    let mut members: Vec<String> = Vec::new();
    if with_order {
        members.push(r#""order":{"Int":7}"#.to_owned());
    }
    let mut len = head.len() + tail.len() + members.iter().map(String::len).sum::<usize>();
    for i in 0u64.. {
        let member = format!(r#""m{}":{{"Int":{i}}}"#, i.wrapping_mul(7_919) % 100_003);
        if len + member.len() + 1 > MAX_BODY {
            break;
        }
        len += member.len() + 1;
        members.push(member);
    }
    let body = format!("{head}{}{tail}", members.join(","));
    assert!(body.len() <= MAX_BODY);
    (body, members.len())
}

#[test]
fn a_max_size_submit_is_answered_within_a_second() {
    let dir = std::env::temp_dir().join(format!("wfms-server-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = PoolConfig::new(&dir);
    cfg.shards = 1;
    cfg.templates = vec![ProcessBuilder::new("wide")
        .input(ContainerSchema::of(&[("order", DataType::Int)]))
        .program("A", "ok")
        .build()
        .unwrap()];
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();
    let server = Server::start(Arc::new(pool), ServerConfig::new("wide")).unwrap();
    let mut client = Http1Client::new(&server.local_addr().to_string());

    for with_order in [true, false] {
        let (body, members) = body(with_order);
        assert!(members > 45_000, "{members} members");
        let t0 = Instant::now();
        let answer = client.request("POST", "/instances", Some(&body));
        let took = t0.elapsed();
        let shape = format!("{members} members, order {with_order}");
        let (code, reply) =
            answer.unwrap_or_else(|e| panic!("{shape}: no answer after {took:?}: {e}"));
        assert_eq!(code, 201, "{reply}");
        let submitted: SubmitResponse = serde_json::from_str(&reply).unwrap();
        assert_eq!(submitted.status, "finished");
        assert!(
            took < BOUND,
            "{shape}: answered in {took:?}, bound {BOUND:?}"
        );
    }

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}
