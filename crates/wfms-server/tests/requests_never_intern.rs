//! What a request names is looked up, never interned: the interner
//! (`txn_substrate::frame::Name`) keeps a name until the process exits,
//! so only what the program defines — templates, the org model, the
//! tenants file, journal files — may grow it. The interner is
//! process-wide, so this file holds one test and runs in a process of
//! its own.

use std::sync::Arc;

use txn_substrate::frame::Name;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::OrgModel;
use wfms_model::{Activity, ProcessBuilder, ProcessDefinition};
use wfms_observe::Registry;
use wfms_server::api::{SubmitResponse, WorklistResponse};
use wfms_server::{Http1Client, PoolConfig, Server, ServerConfig, ShardPool};

fn provision(_shard: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    (fed, registry)
}

/// A manual activity for role `clerk`, then an automatic tail.
fn manual_process() -> ProcessDefinition {
    ProcessBuilder::new("manual")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .program("Tail", "ok")
        .connect_when("M", "Tail", "RC = 1")
        .build()
        .unwrap()
}

#[test]
fn requests_leave_the_interner_as_it_was_and_a_deploy_adds_its_names() {
    let dir = std::env::temp_dir().join(format!("wfms-server-intern-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = PoolConfig::new(&dir);
    cfg.shards = 2;
    cfg.org = OrgModel::new().person("ann", &["clerk"]);
    cfg.templates = vec![manual_process()];
    cfg.tenants =
        wfms_server::parse_tenants(r#"{"tenants":[{"name":"acme","key":"k-acme"}]}"#).unwrap();
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();
    let server = Server::start(Arc::new(pool), ServerConfig::new("manual")).unwrap();
    let url = server.local_addr().to_string();
    let mut acme = Http1Client::new(&url).with_api_key(Some("k-acme"));

    // Every path a request takes has run once: a submit, a worklist.
    let (code, body) = acme
        .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
        .unwrap();
    assert_eq!(code, 201, "{body}");
    let parked: SubmitResponse = serde_json::from_str(&body).unwrap();
    let (code, body) = acme.request("GET", "/worklist?person=ann", None).unwrap();
    assert_eq!(code, 200, "{body}");
    let items = serde_json::from_str::<WorklistResponse>(&body)
        .unwrap()
        .items;
    assert_eq!(items.len(), 1);
    let item = items[0].id;

    let unknown = ["never-deployed", "nobody-named-this", "never-issued"];
    let before = Name::count();
    let unchanged = |what: &str| {
        assert_eq!(Name::count(), before, "{what} interned a name");
        for name in unknown {
            assert_eq!(Name::find(name), None, "{what} interned {name:?}");
        }
    };
    unchanged("nothing");

    let (code, body) = acme
        .request(
            "POST",
            "/instances",
            Some(r#"{"process":"never-deployed"}"#),
        )
        .unwrap();
    assert_eq!(code, 404, "{body}");
    unchanged("a submit of an unknown process");

    let (code, body) = acme
        .request("GET", "/worklist?person=nobody-named-this", None)
        .unwrap();
    assert_eq!(code, 200, "{body}");
    assert!(serde_json::from_str::<WorklistResponse>(&body)
        .unwrap()
        .items
        .is_empty());
    unchanged("a worklist read by an unknown person");

    let (code, body) = acme
        .request(
            "POST",
            &format!("/worklist/{item}/complete"),
            Some(r#"{"person":"nobody-named-this"}"#),
        )
        .unwrap();
    assert_eq!(code, 409, "{body}");
    assert!(
        body.contains("nobody-named-this is not eligible for item#"),
        "{body}"
    );
    unchanged("a claim by an unknown person");

    let mut stranger = Http1Client::new(&url).with_api_key(Some("never-issued"));
    let (code, body) = stranger
        .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
        .unwrap();
    assert_eq!(code, 401, "{body}");
    unchanged("a request with an unknown tenant key");

    // The parked instance is where it was.
    let (code, body) = acme.request("GET", "/worklist?person=ann", None).unwrap();
    assert_eq!(code, 200, "{body}");
    let items = serde_json::from_str::<WorklistResponse>(&body)
        .unwrap()
        .items;
    assert_eq!((items.len(), items[0].instance), (1, parked.id));

    // A deploy defines names: the process, its two activities (at the
    // root, also the ends of its connector) and its version. The root
    // scope's `""` is every template's.
    let fresh = ProcessBuilder::new("fresh_process")
        .program("FreshA", "ok")
        .program("FreshB", "ok")
        .connect("FreshA", "FreshB")
        .build()
        .unwrap();
    let version = format!("{:016x}", wfms_engine::spec_hash_of(&fresh));
    let defined = ["fresh_process", "FreshA", "FreshB", "", version.as_str()];
    let new = defined.iter().filter(|n| Name::find(n).is_none()).count();
    assert_eq!(new, 4, "only the root scope's name is interned already");
    let body = format!(
        r#"{{"definition":{},"policy":"drain-old"}}"#,
        serde_json::to_string(&fresh).unwrap()
    );
    let (code, reply) = acme.request("POST", "/admin/deploy", Some(&body)).unwrap();
    assert_eq!(code, 200, "{reply}");
    assert_eq!(Name::count(), before + new);
    assert!(defined.iter().all(|n| Name::find(n).is_some()));

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}
