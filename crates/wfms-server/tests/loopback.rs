//! End-to-end loopback tests: a real [`Server`] on an ephemeral port,
//! driven through the real [`Http1Client`] — submit → manual-worklist
//! complete → status → drain — plus the pool-level contracts the HTTP
//! layer rides on: admission control, group-commit durability and
//! crash-restart recovery on the same data directory.

use std::sync::Arc;
use std::time::Duration;

use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{InstanceStatus, OrgModel};
use wfms_model::{Activity, ProcessBuilder, ProcessDefinition};
use wfms_observe::Registry;
use wfms_server::api::{DeployResponse, StatusResponse, SubmitResponse, WorklistResponse};
use wfms_server::{
    Http1Client, MigrationPolicy, PoolConfig, Server, ServerConfig, ShardPool, SubmitDispatch,
    SubmitOutcome, SubmitReply,
};

fn provision(_shard: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    (fed, registry)
}

/// An all-automatic two-step process.
fn auto_process() -> ProcessDefinition {
    ProcessBuilder::new("auto")
        .program("A", "ok")
        .program("B", "ok")
        .connect_when("A", "B", "RC = 1")
        .build()
        .unwrap()
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

fn pool_config(dir: &std::path::Path) -> PoolConfig {
    let mut cfg = PoolConfig::new(dir);
    cfg.shards = 2;
    cfg.org = OrgModel::new().person("ann", &["clerk"]);
    cfg.templates = vec![auto_process(), manual_process()];
    cfg
}

/// What holds a shard's worker busy without a clock: `ok` programs
/// provisioned by [`gated`] wait here until the test opens the gate.
#[derive(Default)]
struct Gate {
    /// Programs that reached the gate; whether it is open.
    state: std::sync::Mutex<(usize, bool)>,
    changed: std::sync::Condvar,
}

impl Gate {
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Returns once a program is held at the gate.
    fn wait_held(&self) {
        let mut state = self.state.lock().unwrap();
        while state.0 == 0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// Opens its gate when dropped: a failing assertion unwinds past the
/// held worker instead of waiting on it forever in the pool's `Drop`.
/// Declared after the pool, so it drops first.
struct OpenOnDrop<'a>(&'a Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// [`provision`] with every `ok` program waiting at `gate` first.
fn gated(gate: &Arc<Gate>) -> impl Fn(usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let gate = Arc::clone(gate);
    move |_| {
        let (fed, registry) = provision(0);
        let gate = Arc::clone(&gate);
        registry.register_fn("ok", move |_| {
            gate.pass();
            ProgramOutcome::committed()
        });
        (fed, registry)
    }
}

/// Writes `burst` — pipelined submissions — in one write on a fresh
/// connection of `server`, whose one reactor reads it in one pass, and
/// returns once that pass is over with the first submission's program
/// held at `gate`: a request on the already-open `probe` connection is
/// answered only after the reactor has dispatched the whole burst.
fn send_held(
    server: &Server,
    gate: &Gate,
    probe: &mut Http1Client,
    burst: &str,
) -> std::io::BufReader<std::net::TcpStream> {
    use std::io::Write;

    let mut conn = raw_socket(&server.local_addr().to_string());
    conn.get_mut().write_all(burst.as_bytes()).unwrap();
    gate.wait_held();
    let (code, _) = probe.request("GET", "/healthz", None).unwrap();
    assert_eq!(code, 200);
    conn
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wfms-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &std::path::Path) -> Server {
    let pool = ShardPool::open(pool_config(dir), Arc::new(Registry::new()), &provision).unwrap();
    Server::start(Arc::new(pool), ServerConfig::new("auto")).unwrap()
}

#[test]
fn submit_complete_status_drain_over_http() {
    let dir = temp_dir("e2e");
    let server = start_server(&dir);
    let url = server.local_addr().to_string();
    let mut client = Http1Client::new(&url);

    // Submit an automatic instance: finishes inside the call.
    let (code, body) = client
        .request("POST", "/instances", Some(r#"{"process":"auto"}"#))
        .unwrap();
    assert_eq!(code, 201, "{body}");
    let auto: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(auto.status, "finished");

    // Submit a manual instance: parks on the worklist.
    let (code, body) = client
        .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
        .unwrap();
    assert_eq!(code, 201, "{body}");
    let manual: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(manual.status, "running");

    // The item is on ann's worklist, with external ids.
    let (code, body) = client.request("GET", "/worklist?person=ann", None).unwrap();
    assert_eq!(code, 200, "{body}");
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(wl.items.len(), 1);
    assert_eq!(wl.items[0].instance, manual.id);
    assert_eq!(wl.items[0].path, "M");

    // An unknown person has an empty worklist; no person is a 400.
    let (code, body) = client.request("GET", "/worklist?person=bob", None).unwrap();
    assert_eq!(code, 200);
    let empty: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert!(empty.items.is_empty());
    let (code, _) = client.request("GET", "/worklist", None).unwrap();
    assert_eq!(code, 400);

    // Complete the item; the automatic tail then finishes the
    // instance.
    let (code, body) = client
        .request(
            "POST",
            &format!("/worklist/{}/complete", wl.items[0].id),
            Some(r#"{"person":"ann"}"#),
        )
        .unwrap();
    assert_eq!(code, 200, "{body}");
    let (code, body) = client
        .request("GET", &format!("/instances/{}", manual.id), None)
        .unwrap();
    assert_eq!(code, 200);
    let status: StatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(status.status, "finished");
    assert_eq!(status.process, "manual");

    // Completing a closed item is a conflict, not a 500.
    let (code, _) = client
        .request(
            "POST",
            &format!("/worklist/{}/complete", wl.items[0].id),
            Some(r#"{"person":"ann"}"#),
        )
        .unwrap();
    assert_eq!(code, 409);

    // Unknown instance and unknown process are 404s.
    let (code, _) = client.request("GET", "/instances/999999", None).unwrap();
    assert_eq!(code, 404);
    let (code, _) = client
        .request("POST", "/instances", Some(r#"{"process":"nope"}"#))
        .unwrap();
    assert_eq!(code, 404);

    // Metrics exposition mentions the server counters.
    let (code, text) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    assert!(text.contains("server_submit_accepted"));
    assert!(text.contains("server_instances_finished"));
    assert!(text.contains("server_resume_failures 0"), "{text}");
    // What the shards' logs hold: every reply so far came after a group
    // commit, so no journal event is resident and the files have grown.
    assert!(text.contains("journal_resident_records 0"), "{text}");
    assert!(!text.contains("journal_file_bytes 0"), "{text}");
    assert!(text.contains("db_wal_resident_records"), "{text}");
    assert!(text.contains("db_wal_checkpoints 0"), "{text}");

    // Drain: new submissions are parked with 503.
    let (code, _) = client.request("POST", "/admin/drain", None).unwrap();
    assert_eq!(code, 200);
    let (code, _) = client
        .request("POST", "/instances", Some(r#"{"process":"auto"}"#))
        .unwrap();
    assert_eq!(code, 503);
    // Reads still work while draining.
    let (code, _) = client
        .request("GET", &format!("/instances/{}", manual.id), None)
        .unwrap();
    assert_eq!(code, 200);

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_restart_resumes_instances_and_work_items() {
    let dir = temp_dir("crash");

    let (finished_id, parked_id) = {
        let server = start_server(&dir);
        let url = server.local_addr().to_string();
        let mut client = Http1Client::new(&url);
        let (_, body) = client
            .request("POST", "/instances", Some(r#"{"process":"auto"}"#))
            .unwrap();
        let auto: SubmitResponse = serde_json::from_str(&body).unwrap();
        let (_, body) = client
            .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
            .unwrap();
        let manual: SubmitResponse = serde_json::from_str(&body).unwrap();
        // Abrupt shutdown: no drain checkpoint — the acknowledged
        // submissions must survive on the strength of group commit
        // alone.
        server.shutdown(false);
        (auto.id, manual.id)
    };

    // Reopen the same data directory: the finished instance is still
    // finished, the parked one is still running with its work item
    // re-offered, and completing it finishes the flow.
    let server = start_server(&dir);
    let url = server.local_addr().to_string();
    let mut client = Http1Client::new(&url);

    let (code, body) = client
        .request("GET", &format!("/instances/{finished_id}"), None)
        .unwrap();
    assert_eq!(code, 200, "{body}");
    let status: StatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(status.status, "finished");

    let (_, body) = client
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    let status: StatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(status.status, "running");

    let (_, body) = client.request("GET", "/worklist?person=ann", None).unwrap();
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(wl.items.len(), 1, "work item survives the crash");
    assert_eq!(wl.items[0].instance, parked_id);
    let (code, _) = client
        .request(
            "POST",
            &format!("/worklist/{}/complete", wl.items[0].id),
            Some(r#"{"person":"ann"}"#),
        )
        .unwrap();
    assert_eq!(code, 200);
    let (_, body) = client
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    let status: StatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(status.status, "finished");

    // New submissions after recovery get fresh ids.
    let (code, body) = client
        .request("POST", "/instances", Some(r#"{"process":"auto"}"#))
        .unwrap();
    assert_eq!(code, 201);
    let fresh: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_ne!(fresh.id, finished_id);
    assert_ne!(fresh.id, parked_id);

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_count_mismatch_is_rejected() {
    let dir = temp_dir("meta");
    {
        let pool =
            ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision).unwrap();
        drop(pool);
    }
    let mut cfg = pool_config(&dir);
    cfg.shards = 3;
    let Err(err) = ShardPool::open(cfg, Arc::new(Registry::new()), &provision) else {
        panic!("shard mismatch must be rejected");
    };
    assert!(
        err.to_string().contains("--shards"),
        "mismatch names the knob: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// v2 of the manual process: same park point, different automatic
/// tail — a different spec hash under the same name.
fn manual_process_v2() -> ProcessDefinition {
    ProcessBuilder::new("manual")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .program("Tail2", "ok")
        .connect_when("M", "Tail2", "RC = 1")
        .build()
        .unwrap()
}

/// `POST /admin/deploy` with `drain-old`: the new version becomes the
/// default for *new* submits, parked instances keep their pinned
/// version and finish under it — across an abrupt restart too.
#[test]
fn deploy_over_http_pins_old_instances_to_their_version() {
    let dir = temp_dir("deploy");
    let (old_id, new_id, v1, v2);
    {
        let server = start_server(&dir);
        let url = server.local_addr().to_string();
        let mut client = Http1Client::new(&url);

        // Park a v1 instance on the worklist.
        let (code, body) = client
            .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
            .unwrap();
        assert_eq!(code, 201, "{body}");
        let old: SubmitResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(old.status, "running");
        old_id = old.id;
        let (_, body) = client
            .request("GET", &format!("/instances/{old_id}"), None)
            .unwrap();
        let st: StatusResponse = serde_json::from_str(&body).unwrap();
        v1 = st.version;

        // Deploy v2.
        let deploy_body = format!(
            r#"{{"definition":{},"policy":"drain-old"}}"#,
            serde_json::to_string(&manual_process_v2()).unwrap()
        );
        let (code, body) = client
            .request("POST", "/admin/deploy", Some(&deploy_body))
            .unwrap();
        assert_eq!(code, 200, "{body}");
        let dep: DeployResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(dep.process, "manual");
        assert_ne!(dep.version, v1);
        assert_eq!(dep.migrated, 0, "drain-old migrates nothing");
        v2 = dep.version;

        // New submits run the deployed version.
        let (code, body) = client
            .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
            .unwrap();
        assert_eq!(code, 201, "{body}");
        let new: SubmitResponse = serde_json::from_str(&body).unwrap();
        new_id = new.id;
        let (_, body) = client
            .request("GET", &format!("/instances/{new_id}"), None)
            .unwrap();
        let st: StatusResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(st.version, v2);

        // A body without "definition", an unknown policy and a
        // non-validating definition are 400s, not 500s.
        let (code, _) = client
            .request("POST", "/admin/deploy", Some(r#"{"policy":"drain-old"}"#))
            .unwrap();
        assert_eq!(code, 400);
        let bad_policy = format!(
            r#"{{"definition":{},"policy":"nope"}}"#,
            serde_json::to_string(&manual_process_v2()).unwrap()
        );
        let (code, _) = client
            .request("POST", "/admin/deploy", Some(&bad_policy))
            .unwrap();
        assert_eq!(code, 400);
        let mut invalid = ProcessDefinition::new("manual");
        invalid.control.push(wfms_model::ControlConnector {
            from: "X".into(),
            to: "Y".into(),
            condition: wfms_model::Expr::var_eq_int("RC", 1),
        });
        let bad_def = format!(
            r#"{{"definition":{}}}"#,
            serde_json::to_string(&invalid).unwrap()
        );
        let (code, body) = client
            .request("POST", "/admin/deploy", Some(&bad_def))
            .unwrap();
        assert_eq!(
            code, 400,
            "invalid definition is the client's fault: {body}"
        );

        // Abrupt shutdown: the deploy must be durable.
        server.shutdown(false);
    }

    // Restart on the same directory with the ORIGINAL v1 template set:
    // the stored v2 is loaded from the templates directory and stays
    // the default; the parked v1 instance still completes under v1.
    let server = start_server(&dir);
    let url = server.local_addr().to_string();
    let mut client = Http1Client::new(&url);

    let (_, body) = client.request("GET", "/worklist?person=ann", None).unwrap();
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(wl.items.len(), 2, "both parked instances survive");
    for item in &wl.items {
        let (code, body) = client
            .request(
                "POST",
                &format!("/worklist/{}/complete", item.id),
                Some(r#"{"person":"ann"}"#),
            )
            .unwrap();
        assert_eq!(code, 200, "{body}");
    }
    for (id, want_version) in [(old_id, &v1), (new_id, &v2)] {
        let (_, body) = client
            .request("GET", &format!("/instances/{id}"), None)
            .unwrap();
        let st: StatusResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(st.status, "finished", "{body}");
        assert_eq!(&st.version, want_version, "{body}");
    }
    // A post-restart submit still defaults to v2.
    let (_, body) = client
        .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
        .unwrap();
    let fresh: SubmitResponse = serde_json::from_str(&body).unwrap();
    let (_, body) = client
        .request("GET", &format!("/instances/{}", fresh.id), None)
        .unwrap();
    let st: StatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(st.version, v2);

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An activity name containing `/` cannot be told from a nested path
/// in the journal, so deploying one is refused — and a refused deploy
/// leaves `templates/` and `server.meta.json` exactly as they were.
#[test]
fn deploy_rejects_a_slash_in_an_activity_name_and_stores_nothing() {
    let dir = temp_dir("deploy-slash");
    let server = start_server(&dir);
    let stored = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir.join("templates"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        (names, std::fs::read(dir.join("server.meta.json")).unwrap())
    };
    let before = stored(&dir);

    let mut def = ProcessDefinition::new("auto");
    def.activities.push(Activity::program("A/B", "ok"));
    let body = format!(
        r#"{{"definition":{}}}"#,
        serde_json::to_string(&def).unwrap()
    );
    let url = server.local_addr().to_string();
    let (code, answer) = Http1Client::new(&url)
        .request("POST", "/admin/deploy", Some(&body))
        .unwrap();
    assert_eq!(code, 400, "{answer}");
    assert!(answer.contains("A/B"), "names the activity: {answer}");
    assert_eq!(stored(&dir), before);

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `migrate-at-scope-boundary` policy moves parked instances to
/// the deployed version; their tail runs under v2.
#[test]
fn deploy_migrate_policy_moves_parked_instances() {
    let dir = temp_dir("deploy-migrate");
    let pool = ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision).unwrap();
    let SubmitOutcome::Accepted { id, status, .. } =
        pool.submit("manual", wfms_model::Container::empty())
    else {
        panic!("submit rejected");
    };
    assert_eq!(status, InstanceStatus::Running);

    let report = pool
        .deploy(manual_process_v2(), MigrationPolicy::MigrateAtScopeBoundary)
        .unwrap();
    assert_eq!(report.migrated, 1, "{report:?}");
    let (_, _, version, _) = pool.status(id).unwrap();
    assert_eq!(version, report.version, "parked instance now on v2");

    let items = pool.worklist("ann", None);
    assert_eq!(items.len(), 1);
    pool.complete(items[0].0, "ann").unwrap();
    let (_, status, version, _) = pool.status(id).unwrap();
    assert_eq!(status, InstanceStatus::Finished);
    assert_eq!(version, report.version);

    // Deploying the same definition again is a no-op for instances.
    let again = pool
        .deploy(manual_process_v2(), MigrationPolicy::MigrateAtScopeBoundary)
        .unwrap();
    assert_eq!(again.version, report.version);
    assert_eq!(again.migrated, 0);
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: reopening a data directory with a *changed* definition
/// under an already-registered name is refused with both hashes named
/// — silently re-interpreting journals against a different spec was
/// the spec-identity bug.
#[test]
fn reopen_with_changed_spec_is_rejected() {
    let dir = temp_dir("specpin");
    {
        let pool =
            ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision).unwrap();
        drop(pool);
    }
    let mut cfg = pool_config(&dir);
    cfg.templates = vec![auto_process(), manual_process_v2()];
    let Err(err) = ShardPool::open(cfg, Arc::new(Registry::new()), &provision) else {
        panic!("changed spec must be rejected");
    };
    let msg = err.to_string();
    let on_disk = format!("{:016x}", wfms_engine::spec_hash_of(&manual_process()));
    let requested = format!("{:016x}", wfms_engine::spec_hash_of(&manual_process_v2()));
    assert!(msg.contains("manual"), "names the process: {msg}");
    assert!(
        msg.contains(&on_disk) && msg.contains(&requested),
        "names both hashes: {msg}"
    );
    assert!(msg.contains("deploy"), "points at the escape hatch: {msg}");

    // The original spec still opens.
    let pool = ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision).unwrap();
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_rejects_beyond_high_water() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let dir = temp_dir("admission");
    let mut cfg = pool_config(&dir);
    cfg.shards = 1;
    cfg.queue_capacity = 2;
    cfg.batch_max = 1;
    let gate = Arc::new(Gate::default());
    let pool = Arc::new(ShardPool::open(cfg, Arc::new(Registry::new()), &gated(&gate)).unwrap());
    let _open = OpenOnDrop(&gate);

    // The worker takes this one alone and is held in its program.
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    let first = pool.submit_with(
        "auto",
        wfms_model::Container::empty(),
        None,
        Box::new(move |reply: SubmitReply| drop(first_tx.send(reply))),
    );
    assert!(matches!(first, SubmitDispatch::Dispatched), "{first:?}");
    gate.wait_held();
    assert_eq!(pool.queue_depth(), 0);

    // 12 concurrent submitters against a queue of 2 and a held worker:
    // some must be rejected, none may hang, and accepted + overloaded
    // covers everything. The gate opens once every submitter has been
    // refused or queued.
    let refused = AtomicUsize::new(0);
    let outcomes: Vec<SubmitOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let (pool, refused) = (&pool, &refused);
                s.spawn(move || {
                    let outcome = pool.submit("auto", wfms_model::Container::empty());
                    if !matches!(outcome, SubmitOutcome::Accepted { .. }) {
                        refused.fetch_add(1, Ordering::SeqCst);
                    }
                    outcome
                })
            })
            .collect();
        while refused.load(Ordering::SeqCst) + (pool.queue_depth() as usize) < 12 {
            std::thread::yield_now();
        }
        gate.open();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(first_rx.recv().unwrap().is_ok());
    let accepted = outcomes
        .iter()
        .filter(|o| matches!(o, SubmitOutcome::Accepted { .. }))
        .count();
    let overloaded = outcomes
        .iter()
        .filter(|o| matches!(o, SubmitOutcome::Overloaded { .. }))
        .count();
    assert_eq!(accepted + overloaded, 12, "no third outcome: {outcomes:?}");
    assert_eq!(accepted, 2, "the queue makes progress: {outcomes:?}");
    assert_eq!(overloaded, 10, "the high-water mark rejects: {outcomes:?}");
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--queue N` means N. Submitting the way the reactor does — through
/// `submit_with`, never blocking — against a worker held in the
/// one-submission batch it has taken, a shard admits exactly its
/// queue's worth, and every refusal reports the queue full, not
/// overfull. (With a channel in front of the lanes the shard held twice
/// the bound and reported `depth=15 capacity=8`.)
#[test]
fn the_high_water_mark_is_exact() {
    let dir = temp_dir("high-water");
    let mut cfg = pool_config(&dir);
    cfg.shards = 1;
    cfg.queue_capacity = 8;
    cfg.batch_max = 1;
    let gate = Arc::new(Gate::default());
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &gated(&gate)).unwrap();
    let _open = OpenOnDrop(&gate);

    let (answered_tx, answered_rx) = std::sync::mpsc::channel();
    let submit = || {
        let answered_tx = answered_tx.clone();
        pool.submit_with(
            "auto",
            wfms_model::Container::empty(),
            None,
            Box::new(move |reply: SubmitReply| drop(answered_tx.send(reply))),
        )
    };
    assert!(matches!(submit(), SubmitDispatch::Dispatched));
    gate.wait_held();

    let (mut admitted, mut refused) = (1usize, 0usize);
    for _ in 0..20 {
        match submit() {
            SubmitDispatch::Dispatched => admitted += 1,
            SubmitDispatch::Overloaded { depth, capacity } => {
                assert_eq!((depth, capacity), (8, 8), "refusal {refused}");
                refused += 1;
            }
        }
        assert!(pool.queue_depth() <= 8, "{} queued", pool.queue_depth());
    }
    assert_eq!(refused, 12, "the burst never met the bound");
    assert_eq!(
        admitted,
        8 + 1,
        "{admitted} unanswered at once against a queue of 8"
    );
    assert_eq!(pool.queue_depth(), 8);

    gate.open();
    for _ in 0..admitted {
        assert!(answered_rx.recv().unwrap().is_ok());
    }
    assert!(matches!(submit(), SubmitDispatch::Dispatched));
    assert!(answered_rx.recv().unwrap().is_ok());
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one `Content-Length`-framed response off a raw socket:
/// `(status, lowercased header block, body)`.
fn read_raw_response(r: &mut impl std::io::BufRead) -> (u16, String, String) {
    let mut status_line = String::new();
    assert!(
        r.read_line(&mut status_line).unwrap() > 0,
        "connection closed before response"
    );
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut headers = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0, "closed in headers");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers.push_str(&line.to_ascii_lowercase());
        headers.push('\n');
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).unwrap();
    (status, headers, String::from_utf8(body).unwrap())
}

fn raw_socket(url: &str) -> std::io::BufReader<std::net::TcpStream> {
    let stream = std::net::TcpStream::connect(url).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::io::BufReader::new(stream)
}

#[test]
fn pipelined_requests_get_ordered_replies() {
    use std::io::Write;

    let dir = temp_dir("pipeline");
    let server = start_server(&dir);
    let url = server.local_addr().to_string();

    // Three different requests written back-to-back on one socket —
    // two async submits around a synchronous health check — must come
    // back in request order: the sync answer may be ready first, but
    // it must still wait behind the first submit's group commit.
    let mut conn = raw_socket(&url);
    let burst = concat!(
        "POST /instances HTTP/1.1\r\ncontent-length: 18\r\n\r\n{\"process\":\"auto\"}",
        "GET /healthz HTTP/1.1\r\n\r\n",
        "POST /instances HTTP/1.1\r\ncontent-length: 20\r\n\r\n{\"process\":\"manual\"}",
    );
    conn.get_mut().write_all(burst.as_bytes()).unwrap();
    conn.get_mut().flush().unwrap();

    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!(code, 201, "{body}");
    let first: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(first.status, "finished", "auto process runs to completion");
    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"shards\""), "healthz answer: {body}");
    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!(code, 201, "{body}");
    let third: SubmitResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(third.status, "running", "manual process parks");

    // The client-side pipelining helper: 3 submits, 3 ordered 201s.
    let mut client = Http1Client::new(&url);
    let answers = client
        .pipelined("POST", "/instances", Some(r#"{"process":"auto"}"#), 3)
        .unwrap();
    assert_eq!(answers.len(), 3);
    for (code, body) in &answers {
        assert_eq!(*code, 201, "{body}");
        let resp: SubmitResponse = serde_json::from_str(body).unwrap();
        assert_eq!(resp.status, "finished");
    }

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_method_on_known_route_is_405_with_allow() {
    use std::io::Write;

    let dir = temp_dir("methods");
    let server = start_server(&dir);
    let url = server.local_addr().to_string();

    for (request, allow) in [
        (
            "PUT /instances HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
            "post",
        ),
        ("GET /admin/drain HTTP/1.1\r\n\r\n", "post"),
        (
            "POST /worklist HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
            "get",
        ),
        ("DELETE /metrics HTTP/1.1\r\n\r\n", "get"),
    ] {
        let mut conn = raw_socket(&url);
        conn.get_mut().write_all(request.as_bytes()).unwrap();
        let (code, headers, body) = read_raw_response(&mut conn);
        assert_eq!(code, 405, "{request:?}: {body}");
        assert!(
            headers.contains(&format!("allow: {allow}")),
            "{request:?} must advertise Allow, got:\n{headers}"
        );
    }

    // A genuinely unknown path is still a 404.
    let mut conn = raw_socket(&url);
    conn.get_mut()
        .write_all(b"GET /nope HTTP/1.1\r\n\r\n")
        .unwrap();
    let (code, _, _) = read_raw_response(&mut conn);
    assert_eq!(code, 404);

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http10_request_defaults_to_close() {
    use std::io::{Read, Write};

    let dir = temp_dir("http10");
    let server = start_server(&dir);
    let url = server.local_addr().to_string();

    let mut conn = raw_socket(&url);
    conn.get_mut()
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .unwrap();
    let (code, headers, _) = read_raw_response(&mut conn);
    assert_eq!(code, 200);
    assert!(
        headers.contains("connection: close"),
        "HTTP/1.0 without keep-alive must close:\n{headers}"
    );
    // And the server actually closes: EOF, not a 30s timeout.
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes after the response");

    // An explicit keep-alive on HTTP/1.0 keeps the connection open
    // for a second request.
    let mut conn = raw_socket(&url);
    conn.get_mut()
        .write_all(b"GET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
        .unwrap();
    let (code, headers, _) = read_raw_response(&mut conn);
    assert_eq!(code, 200);
    assert!(headers.contains("connection: keep-alive"), "{headers}");
    conn.get_mut()
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .unwrap();
    let (code, _, _) = read_raw_response(&mut conn);
    assert_eq!(code, 200);

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_response_says_close_then_stops() {
    use std::io::{Read, Write};

    let dir = temp_dir("stopclose");
    let server = start_server(&dir);
    let url = server.local_addr().to_string();

    let mut conn = raw_socket(&url);
    conn.get_mut()
        .write_all(b"POST /admin/stop HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let (code, headers, body) = read_raw_response(&mut conn);
    assert_eq!(code, 200, "{body}");
    assert!(
        headers.contains("connection: close"),
        "stop closes the connection and must say so:\n{headers}"
    );
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // The stop was delivered: wait_stop returns without help.
    server.wait_stop();
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- tenancy

fn tenant_specs() -> Vec<wfms_server::TenantSpec> {
    wfms_server::parse_tenants(
        r#"{"tenants":[
            {"name":"acme","key":"k-acme","weight":4},
            {"name":"beta","key":"k-beta"}
        ]}"#,
    )
    .unwrap()
}

fn tenant_pool_config(dir: &std::path::Path) -> PoolConfig {
    let mut cfg = pool_config(dir);
    cfg.tenants = tenant_specs();
    cfg
}

/// The full auth taxonomy over real HTTP: no key and a wrong key are
/// `401` (with `WWW-Authenticate` and `Connection: close`); a good key
/// reaches the data plane; another tenant's instance answers `403`;
/// the ops plane stays unauthenticated; `/metrics` grows per-tenant
/// families.
#[test]
fn tenancy_auth_and_isolation_over_http() {
    use std::io::{Read, Write};

    let dir = temp_dir("tenancy-auth");
    let pool = ShardPool::open(
        tenant_pool_config(&dir),
        Arc::new(Registry::new()),
        &provision,
    )
    .unwrap();
    let server = Server::start(Arc::new(pool), ServerConfig::new("auto")).unwrap();
    let url = server.local_addr().to_string();

    // No Authorization header → 401, advertised scheme, forced close.
    let mut conn = raw_socket(&url);
    conn.get_mut()
        .write_all(b"POST /instances HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}")
        .unwrap();
    let (code, headers, body) = read_raw_response(&mut conn);
    assert_eq!(code, 401, "{body}");
    assert!(body.contains("unauthorized"), "{body}");
    assert!(headers.contains("www-authenticate: bearer"), "{headers}");
    assert!(headers.contains("connection: close"), "{headers}");
    let mut rest = Vec::new();
    conn.get_mut().read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "401 actually closes the connection");

    // A key no tenant holds → the same 401 answer (no tenant oracle).
    let mut conn = raw_socket(&url);
    conn.get_mut()
        .write_all(b"GET /worklist?person=ann HTTP/1.1\r\nauthorization: Bearer nope\r\n\r\n")
        .unwrap();
    let (code, headers, _) = read_raw_response(&mut conn);
    assert_eq!(code, 401);
    assert!(headers.contains("connection: close"), "{headers}");

    // The ops plane needs no key.
    let mut plain = Http1Client::new(&url);
    let (code, _) = plain.request("GET", "/healthz", None).unwrap();
    assert_eq!(code, 200);

    // acme submits; the id decodes to acme's slot on reads.
    let mut acme = Http1Client::new(&url).with_api_key(Some("k-acme"));
    let (code, body) = acme
        .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
        .unwrap();
    assert_eq!(code, 201, "{body}");
    let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
    let (code, body) = acme
        .request("GET", &format!("/instances/{}", submitted.id), None)
        .unwrap();
    assert_eq!(code, 200, "{body}");

    // beta cannot read acme's instance, its worklist item, nor see it
    // on the worklist.
    let mut beta = Http1Client::new(&url).with_api_key(Some("k-beta"));
    let (code, body) = beta
        .request("GET", &format!("/instances/{}", submitted.id), None)
        .unwrap();
    assert_eq!(code, 403, "{body}");
    assert!(body.contains("forbidden"), "{body}");
    let (code, body) = acme.request("GET", "/worklist?person=ann", None).unwrap();
    assert_eq!(code, 200, "{body}");
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(wl.items.len(), 1, "acme sees its own item");
    assert_eq!(wl.items[0].instance, submitted.id);
    let (code, body) = beta.request("GET", "/worklist?person=ann", None).unwrap();
    assert_eq!(code, 200);
    let wl_beta: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert!(
        wl_beta.items.is_empty(),
        "beta's worklist is scoped: {body}"
    );
    let (code, _) = beta
        .request(
            "POST",
            &format!("/worklist/{}/complete", wl.items[0].id),
            Some(r#"{"person":"ann"}"#),
        )
        .unwrap();
    assert_eq!(code, 403, "cross-tenant complete is forbidden");

    // acme itself can complete the item.
    let (code, body) = acme
        .request(
            "POST",
            &format!("/worklist/{}/complete", wl.items[0].id),
            Some(r#"{"person":"ann"}"#),
        )
        .unwrap();
    assert_eq!(code, 200, "{body}");

    // Per-tenant metric families are exposed, labelled by name.
    let (code, text) = plain.request("GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    assert!(
        text.contains("server_tenant_accepted{tenant=\"acme\"}"),
        "{text}"
    );
    assert!(
        text.contains("server_tenant_inflight{tenant=\"acme\"}"),
        "{text}"
    );

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant past its inflight quota answers `429` with `Retry-After`
/// and `Connection: close` — while another tenant keeps submitting.
#[test]
fn tenant_quota_answers_429_with_retry_after() {
    let dir = temp_dir("tenancy-quota");
    let mut cfg = tenant_pool_config(&dir);
    cfg.shards = 1;
    cfg.tenants[0].max_inflight = 2; // acme
    let gate = Arc::new(Gate::default());
    let pool = Arc::new(ShardPool::open(cfg, Arc::new(Registry::new()), &gated(&gate)).unwrap());
    let mut server_cfg = ServerConfig::new("auto");
    server_cfg.reactors = 1;
    let server = Server::start(Arc::clone(&pool), server_cfg).unwrap();
    let url = server.local_addr().to_string();
    let mut probe = Http1Client::new(&url);
    assert_eq!(probe.request("GET", "/healthz", None).unwrap().0, 200);

    // Three pipelined submits against a quota of 2 and a worker held
    // in the first one's program: the first two are admitted, the
    // third is quota-rejected. Replies come back in request order.
    let one = "POST /instances HTTP/1.1\r\nauthorization: Bearer k-acme\r\n\
               content-length: 18\r\n\r\n{\"process\":\"auto\"}";
    let mut conn = send_held(&server, &gate, &mut probe, &one.repeat(3));

    // The quiet tenant is not collateral damage: admitted while acme's
    // quota is spent.
    let beta = pool.authenticate(b"k-beta").unwrap();
    let (beta_tx, beta_rx) = std::sync::mpsc::channel();
    let admitted = pool.submit_with(
        "auto",
        wfms_model::Container::empty(),
        Some(beta),
        Box::new(move |reply: SubmitReply| beta_tx.send(reply).unwrap()),
    );
    assert!(
        matches!(admitted, SubmitDispatch::Dispatched),
        "{admitted:?}"
    );
    gate.open();
    assert!(beta_rx.recv().unwrap().is_ok());

    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!(code, 201, "{body}");
    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!(code, 201, "{body}");
    let (code, headers, body) = read_raw_response(&mut conn);
    assert_eq!(code, 429, "third submit breaches the quota: {body}");
    assert!(body.contains("overloaded"), "{body}");
    assert!(headers.contains("retry-after: 1"), "{headers}");
    assert!(headers.contains("connection: close"), "{headers}");

    // The quiet tenant is not collateral damage.
    let mut beta = Http1Client::new(&url).with_api_key(Some("k-beta"));
    let (code, body) = beta
        .request("POST", "/instances", Some(r#"{"process":"auto"}"#))
        .unwrap();
    assert_eq!(code, 201, "beta submits after acme's burst: {body}");

    // The rejection shows up in acme's overloaded counter.
    let mut plain = Http1Client::new(&url);
    let (_, text) = plain.request("GET", "/metrics", None).unwrap();
    assert!(
        text.contains("server_tenant_overloaded{tenant=\"acme\"} 1"),
        "{text}"
    );

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart + hot reload: instances recover under their tenant, a
/// rotated key takes effect via `POST /admin/reload-tenants`, and the
/// old key dies.
#[test]
fn restart_and_reload_tenants_rotates_keys_and_keeps_identity() {
    let dir = temp_dir("tenancy-reload");
    let tenants_file = dir.join("tenants.json");

    let start = |specs: Vec<wfms_server::TenantSpec>| {
        let mut cfg = pool_config(&dir);
        cfg.tenants = specs;
        let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();
        let mut scfg = ServerConfig::new("auto");
        scfg.tenants_path = Some(tenants_file.clone());
        Server::start(Arc::new(pool), scfg).unwrap()
    };

    let parked_id;
    {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &tenants_file,
            r#"{"tenants":[{"name":"acme","key":"k-acme"},{"name":"beta","key":"k-beta"}]}"#,
        )
        .unwrap();
        let server = start(tenant_specs());
        let url = server.local_addr().to_string();
        let mut acme = Http1Client::new(&url).with_api_key(Some("k-acme"));
        let (code, body) = acme
            .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
            .unwrap();
        assert_eq!(code, 201, "{body}");
        let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
        parked_id = submitted.id;
        server.shutdown(false); // abrupt: no drain checkpoint
    }

    let server = start(tenant_specs());
    let url = server.local_addr().to_string();

    // The recovered instance still belongs to acme: readable with
    // acme's key, 403 with beta's.
    let mut acme = Http1Client::new(&url).with_api_key(Some("k-acme"));
    let (code, body) = acme
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    assert_eq!(code, 200, "{body}");
    let st: StatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(st.status, "running");
    let mut beta = Http1Client::new(&url).with_api_key(Some("k-beta"));
    let (code, _) = beta
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    assert_eq!(code, 403, "tenant identity survives the crash");

    // Rotate acme's key on disk and hot-reload.
    std::fs::write(
        &tenants_file,
        r#"{"tenants":[{"name":"acme","key":"rotated"},{"name":"beta","key":"k-beta"}]}"#,
    )
    .unwrap();
    let mut plain = Http1Client::new(&url);
    let (code, body) = plain
        .request("POST", "/admin/reload-tenants", None)
        .unwrap();
    assert_eq!(code, 200, "{body}");
    let reloaded: wfms_server::api::ReloadTenantsResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(reloaded.tenants, 2);

    // Old key dead, rotated key reaches the same instance.
    let (code, _) = acme
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    assert_eq!(code, 401, "pre-rotation key no longer authenticates");
    let mut rotated = Http1Client::new(&url).with_api_key(Some("rotated"));
    let (code, body) = rotated
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    assert_eq!(code, 200, "{body}");

    // A tenants file that fails validation answers 400 and leaves the
    // live table untouched.
    std::fs::write(&tenants_file, r#"{"tenants":[{"name":"","key":"k"}]}"#).unwrap();
    let (code, _) = plain
        .request("POST", "/admin/reload-tenants", None)
        .unwrap();
    assert_eq!(code, 400);
    let (code, _) = rotated
        .request("GET", &format!("/instances/{parked_id}"), None)
        .unwrap();
    assert_eq!(code, 200, "failed reload keeps the previous table");

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopening a data directory with a different tenancy layout —
/// enabled↔disabled — is refused with the knob named, exactly like a
/// `--shards` mismatch.
#[test]
fn tenancy_flip_on_reopen_is_rejected() {
    let dir = temp_dir("tenancy-flip");
    {
        let pool = ShardPool::open(
            tenant_pool_config(&dir),
            Arc::new(Registry::new()),
            &provision,
        )
        .unwrap();
        drop(pool);
    }
    // Tenanted directory, untenanted reopen: refused.
    let Err(err) = ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision) else {
        panic!("tenancy flip must be rejected");
    };
    assert!(
        err.to_string().contains("--tenants"),
        "names the knob: {err}"
    );
    // The original layout still opens, and new tenants may be added.
    let mut cfg = tenant_pool_config(&dir);
    cfg.tenants.push(wfms_server::TenantSpec {
        name: "gamma".to_owned(),
        key: "k-gamma".to_owned(),
        weight: 1,
        max_inflight: 16,
    });
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);

    // And the reverse: an untenanted directory refuses a tenanted
    // reopen (ids on disk have no slot bits).
    let dir = temp_dir("tenancy-flip2");
    {
        let pool =
            ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision).unwrap();
        drop(pool);
    }
    let Err(err) = ShardPool::open(
        tenant_pool_config(&dir),
        Arc::new(Registry::new()),
        &provision,
    ) else {
        panic!("reverse tenancy flip must be rejected");
    };
    assert!(err.to_string().contains("--tenants"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acknowledged_submissions_are_durable_before_reply() {
    let dir = temp_dir("durable");
    let mut cfg = pool_config(&dir);
    cfg.shards = 1;
    // An enormous batch threshold: the policy alone would flush
    // (almost) never, so any durability must come from the group
    // commit the worker issues before acknowledging.
    cfg.durability = DurabilityPolicy::Batched { n: 1_000_000 };
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();

    for _ in 0..10 {
        match pool.submit("auto", wfms_model::Container::empty()) {
            SubmitOutcome::Accepted { status, .. } => {
                assert_eq!(status, InstanceStatus::Finished)
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
    }
    // Read the journal file directly — bypassing the engine — right
    // after the last acknowledgement: all ten starts must be on disk.
    let (on_disk, report) = wfms_engine::Journal::read_file(&dir.join("shard-0.journal")).unwrap();
    assert_eq!(report.torn_tail, None, "a group commit ends on a frame");
    let starts = on_disk
        .iter()
        .filter(|e| matches!(e, wfms_engine::Event::InstanceStarted { .. }))
        .count();
    assert_eq!(starts, 10, "every ACKed start is on disk");
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the shard engines count reaches `GET /metrics`, summed over
/// shards: a process that restarts after `kill -9` answers "what did
/// recovery fix" where an operator looks. Every shard's journal gets
/// half a frame appended behind the server's back; the reopen
/// truncates each and says so.
#[test]
fn engine_counters_reach_metrics_after_a_torn_tail_reopen() {
    for shards in [1usize, 2] {
        let dir = temp_dir(&format!("torn-metrics-{shards}"));
        let open = || {
            let mut cfg = pool_config(&dir);
            cfg.shards = shards;
            let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();
            Server::start(Arc::new(pool), ServerConfig::new("auto")).unwrap()
        };

        let server = open();
        let mut client = Http1Client::new(&server.local_addr().to_string());
        // One finished instance and one parked on manual work: recovery
        // records its fix-up counts per instance it resumes.
        for body in ["{}", r#"{"process":"manual"}"#] {
            let (code, _) = client.request("POST", "/instances", Some(body)).unwrap();
            assert_eq!(code, 201);
        }
        server.shutdown(false);

        let cancelled = wfms_engine::Event::InstanceCancelled {
            instance: wfms_engine::InstanceId(99),
            at: 0,
        };
        let header = wfms_engine::Journal::file_bytes(&[]).len();
        let frame = &wfms_engine::Journal::file_bytes(&[cancelled])[header..];
        for shard in 0..shards {
            use std::io::Write;
            let path = dir.join(format!("shard-{shard}.journal"));
            let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            file.write_all(&frame[..frame.len() / 2]).unwrap();
        }

        let server = open();
        let mut client = Http1Client::new(&server.local_addr().to_string());
        let (code, text) = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(code, 200);
        for series in [
            &format!("journal_torn_tails_truncated {shards}"),
            "journal_crc_failures 0",
            "journal_mirror_errors 0",
            "recovery_fixups_running_restarted ",
            "recovery_fixups_waiting_renavigated ",
            "recovery_fixups_connectors_reevaluated ",
            "recovery_fixups_exits_redecided ",
        ] {
            assert!(
                text.lines().any(|line| line.starts_with(series)),
                "{shards} shard(s): no `{series}` in\n{text}"
            );
        }
        server.shutdown(true);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Reads one `Content-Length`-framed response off a raw socket, byte
/// for byte as the server wrote it.
fn read_response_bytes(r: &mut impl std::io::BufRead) -> String {
    let mut raw = String::new();
    let mut content_length = 0usize;
    loop {
        let at = raw.len();
        assert!(
            r.read_line(&mut raw).unwrap() > 0,
            "closed in head: {raw:?}"
        );
        let line = &raw[at..];
        if let Some(value) = line.strip_prefix("content-length: ") {
            content_length = value.trim_end().parse().unwrap();
        }
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).unwrap();
    raw.push_str(std::str::from_utf8(&body).unwrap());
    raw
}

/// The exact bytes of every kind of reply the server gives, recorded
/// before the reply paths were folded into one: status line, header
/// order and spelling, `connection` value, body. Requests run in
/// table order on one keep-alive connection unless the reply closes it.
#[test]
fn every_reply_shape_is_byte_identical() {
    use std::io::{Read, Write};

    fn response(status: &str, extra: &str, connection: &str, body: &str) -> String {
        format!(
            "HTTP/1.1 {status}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\
             {extra}connection: {connection}\r\n\r\n{body}",
            body.len()
        )
    }
    fn post(path: &str, body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    let dir = temp_dir("golden");
    let server = start_server(&dir);
    let url = server.local_addr().to_string();

    let v2 = serde_json::to_string(&manual_process_v2()).unwrap();
    let v2_hash = format!("{:016x}", wfms_engine::spec_hash_of(&manual_process_v2()));
    let mut invalid = ProcessDefinition::new("manual");
    invalid.control.push(wfms_model::ControlConnector {
        from: "X".into(),
        to: "Y".into(),
        condition: wfms_model::Expr::var_eq_int("RC", 1),
    });
    let invalid = serde_json::to_string(&invalid).unwrap();

    let keep_alive: Vec<(&str, Vec<u8>, String)> = vec![
        (
            "201",
            post("/instances", br#"{"process":"auto"}"#),
            response(
                "201 Created",
                "",
                "keep-alive",
                r#"{"id":2,"status":"finished","output":{"values":{}}}"#,
            ),
        ),
        (
            "404 unknown process",
            post("/instances", br#"{"process":"nope"}"#),
            response(
                "404 Not Found",
                "",
                "keep-alive",
                r#"{"error":"not_found","detail":"no process template named \"nope\""}"#,
            ),
        ),
        (
            "400 bad body",
            post("/instances", b"{not json"),
            response(
                "400 Bad Request",
                "",
                "keep-alive",
                r#"{"error":"bad_request","detail":"bad body: expected `\"` at byte 1"}"#,
            ),
        ),
        (
            "400 body is not UTF-8",
            post("/instances", b"\xff\xfe"),
            response(
                "400 Bad Request",
                "",
                "keep-alive",
                r#"{"error":"bad_request","detail":"body is not UTF-8"}"#,
            ),
        ),
        (
            "405 with allow",
            b"PUT /instances HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(),
            response(
                "405 Method Not Allowed",
                "allow: POST\r\n",
                "keep-alive",
                r#"{"error":"bad_request","detail":"method not allowed"}"#,
            ),
        ),
        (
            "404 no route",
            b"GET /nope HTTP/1.1\r\n\r\n".to_vec(),
            response(
                "404 Not Found",
                "",
                "keep-alive",
                r#"{"error":"not_found","detail":"no such route"}"#,
            ),
        ),
        (
            "deploy 200",
            post(
                "/admin/deploy",
                format!(r#"{{"definition":{v2}}}"#).as_bytes(),
            ),
            response(
                "200 OK",
                "",
                "keep-alive",
                &format!(
                    r#"{{"process":"manual","version":"{v2_hash}","migrated":0,"skipped":0,"already_current":0}}"#
                ),
            ),
        ),
        (
            "deploy 400 unknown policy",
            post(
                "/admin/deploy",
                format!(r#"{{"definition":{v2},"policy":"nope"}}"#).as_bytes(),
            ),
            response(
                "400 Bad Request",
                "",
                "keep-alive",
                r#"{"error":"bad_request","detail":"unknown policy \"nope\" (expected \"drain-old\" or \"migrate\")"}"#,
            ),
        ),
        (
            "deploy 400 invalid definition",
            post(
                "/admin/deploy",
                format!(r#"{{"definition":{invalid}}}"#).as_bytes(),
            ),
            response(
                "400 Bad Request",
                "",
                "keep-alive",
                concat!(
                    r#"{"error":"bad_request","detail":"deploy rejected: [manual] process has no activities; "#,
                    r#"[manual] control connector X -> Y references unknown activity \"X\"; "#,
                    r#"[manual] control connector X -> Y references unknown activity \"Y\""}"#
                ),
            ),
        ),
        (
            "drain 200",
            post("/admin/drain", b""),
            response("200 OK", "", "keep-alive", r#"{"compacted_events":13}"#),
        ),
        (
            "503 draining",
            post("/instances", b"{}"),
            response(
                "503 Service Unavailable",
                "",
                "keep-alive",
                r#"{"error":"draining","detail":"server is draining"}"#,
            ),
        ),
    ];
    let mut conn = raw_socket(&url);
    for (what, request, expected) in &keep_alive {
        conn.get_mut().write_all(request).unwrap();
        assert_eq!(&read_response_bytes(&mut conn), expected, "{what}");
    }

    // Replies that end the connection: the bytes, then EOF.
    for (what, request, expected) in [
        (
            "413 parse error",
            b"POST /instances HTTP/1.1\r\ncontent-length: 2000000\r\n\r\n".to_vec(),
            response(
                "413 Content Too Large",
                "",
                "close",
                r#"{"error":"bad_request","detail":"request body too large"}"#,
            ),
        ),
        (
            "stop 200",
            post("/admin/stop", b""),
            response("200 OK", "", "close", r#"{"compacted_events":4}"#),
        ),
    ] {
        let mut conn = raw_socket(&url);
        conn.get_mut().write_all(&request).unwrap();
        let mut all = Vec::new();
        conn.read_to_end(&mut all).unwrap();
        assert_eq!(String::from_utf8(all).unwrap(), expected, "{what}");
    }
    server.wait_stop();
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);

    // The tenant-quota 429, as `tenant_quota_answers_429_with_retry_after`
    // provokes it: the third of three pipelined submits against a quota
    // of two and a worker held in the first one's program.
    let dir = temp_dir("golden-quota");
    let mut cfg = tenant_pool_config(&dir);
    cfg.shards = 1;
    cfg.tenants[0].max_inflight = 2;
    let gate = Arc::new(Gate::default());
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &gated(&gate)).unwrap();
    let mut server_cfg = ServerConfig::new("auto");
    server_cfg.reactors = 1;
    let server = Server::start(Arc::new(pool), server_cfg).unwrap();
    let mut probe = Http1Client::new(&server.local_addr().to_string());
    assert_eq!(probe.request("GET", "/healthz", None).unwrap().0, 200);
    let one = "POST /instances HTTP/1.1\r\nauthorization: Bearer k-acme\r\n\
               content-length: 18\r\n\r\n{\"process\":\"auto\"}";
    let mut conn = send_held(&server, &gate, &mut probe, &one.repeat(3));
    gate.open();
    let mut all = Vec::new();
    conn.read_to_end(&mut all).unwrap();
    let all = String::from_utf8(all).unwrap();
    assert_eq!(
        all,
        [
            response(
                "201 Created",
                "",
                "keep-alive",
                r#"{"id":72057594037927937,"status":"finished","output":{"values":{}}}"#
            ),
            response(
                "201 Created",
                "",
                "keep-alive",
                r#"{"id":72057594037927938,"status":"finished","output":{"values":{}}}"#
            ),
            response(
                "429 Too Many Requests",
                "retry-after: 1\r\n",
                "close",
                r#"{"error":"overloaded","detail":"queue at high-water mark (2/2)"}"#
            ),
        ]
        .concat()
    );
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ one writer

/// `flow`: an automatic head, a manual activity for `clerk`, an
/// automatic tail.
fn flow_process() -> ProcessDefinition {
    ProcessBuilder::new("flow")
        .program("Head", "head")
        .activity(Activity::program("M", "manual").for_role("clerk"))
        .program("Tail", "tail")
        .connect_when("Head", "M", "RC = 1")
        .connect_when("M", "Tail", "RC = 1")
        .build()
        .unwrap()
}

/// v2 of `flow`: a fresh edge out of the already-terminated head into
/// a new automatic activity — the migration fix-up re-readies it, so a
/// migrating deploy runs a program.
fn flow_process_v2() -> ProcessDefinition {
    ProcessBuilder::from(flow_process())
        .program("Side", "side")
        .connect_when("Head", "Side", "RC = 1")
        .build()
        .unwrap()
}

/// What ran where: `(program, thread name)` in execution order.
type Ran = Arc<std::sync::Mutex<Vec<(&'static str, String)>>>;

/// [`provision`] plus `flow`'s programs, each recording the name of the
/// thread it ran on.
fn recording_provision(ran: &Ran) -> impl Fn(usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let ran = Arc::clone(ran);
    move |shard| {
        let (fed, programs) = provision(shard);
        for program in ["head", "manual", "tail", "side"] {
            let ran = Arc::clone(&ran);
            programs.register_fn(program, move |_| {
                let thread = std::thread::current().name().unwrap_or("?").to_owned();
                ran.lock().unwrap().push((program, thread));
                ProgramOutcome::committed()
            });
        }
        (fed, programs)
    }
}

/// Once the pool is open, everything that writes a shard's engine —
/// navigating a submission, completing a work item, a deploy's
/// registration and migration fix-ups — runs on that shard's worker,
/// whichever thread asked for it.
#[test]
fn engine_mutations_run_on_the_shard_worker() {
    let dir = temp_dir("one-writer");
    let ran = Ran::default();
    let mut cfg = pool_config(&dir);
    cfg.templates.push(flow_process());
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &recording_provision(&ran)).unwrap();
    let server = Server::start(Arc::new(pool), ServerConfig::new("auto")).unwrap();
    let mut client = Http1Client::new(&server.local_addr().to_string());

    // Two instances park on the worklist, one a shard.
    let mut parked = Vec::new();
    for _ in 0..2 {
        let (code, body) = client
            .request("POST", "/instances", Some(r#"{"process":"flow"}"#))
            .unwrap();
        assert_eq!(code, 201, "{body}");
        let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
        parked.push(submitted.id);
    }
    let (_, body) = client.request("GET", "/worklist?person=ann", None).unwrap();
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(wl.items.len(), 2);

    // Complete the first: `manual` and `tail` run.
    let (code, body) = client
        .request(
            "POST",
            &format!("/worklist/{}/complete", wl.items[0].id),
            Some(r#"{"person":"ann"}"#),
        )
        .unwrap();
    assert_eq!(code, 200, "{body}");

    // Migrate the second to v2: its fix-up readies `side`, which runs.
    let deploy = format!(
        r#"{{"definition":{},"policy":"migrate"}}"#,
        serde_json::to_string(&flow_process_v2()).unwrap()
    );
    let (code, body) = client
        .request("POST", "/admin/deploy", Some(&deploy))
        .unwrap();
    assert_eq!(code, 200, "{body}");
    let deployed: DeployResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(deployed.migrated, 1, "{body}");

    let (code, body) = client.request("POST", "/admin/drain", None).unwrap();
    assert_eq!(code, 200, "{body}");

    let ran = ran.lock().unwrap().clone();
    let programs: Vec<&str> = ran.iter().map(|(program, _)| *program).collect();
    assert_eq!(programs, ["head", "head", "manual", "tail", "side"]);
    for (program, thread) in &ran {
        assert!(
            thread.starts_with("wfms-shard-"),
            "{program} ran on {thread}: {ran:?}"
        );
    }
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A work-item completion runs its activity's program on the shard
/// worker, so the reactor — there is one — keeps serving other
/// connections while the program is in progress; on the completion's
/// own connection, replies still leave in request order.
#[test]
fn a_completion_in_progress_does_not_hold_up_the_reactor() {
    use std::io::Write;
    use std::sync::mpsc::channel;

    let dir = temp_dir("busy-completion");
    let (entered_tx, entered_rx) = channel::<()>();
    let (release_tx, release_rx) = channel::<()>();
    let gate = Arc::new(std::sync::Mutex::new((entered_tx, release_rx)));
    let mut cfg = pool_config(&dir);
    cfg.shards = 1;
    cfg.templates.push(
        ProcessBuilder::new("gated")
            .activity(Activity::program("M", "gate").for_role("clerk"))
            .build()
            .unwrap(),
    );
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &|shard| {
        let (fed, programs) = provision(shard);
        let gate = Arc::clone(&gate);
        programs.register_fn("gate", move |_| {
            let gate = gate.lock().unwrap();
            gate.0.send(()).unwrap();
            // Held until the test lets go (or gives up and drops its end).
            let _ = gate.1.recv();
            ProgramOutcome::committed()
        });
        (fed, programs)
    })
    .unwrap();
    let mut scfg = ServerConfig::new("gated");
    scfg.reactors = 1;
    let server = Server::start(Arc::new(pool), scfg).unwrap();
    let url = server.local_addr().to_string();

    let mut client = Http1Client::new(&url);
    let (code, body) = client.request("POST", "/instances", Some("{}")).unwrap();
    assert_eq!(code, 201, "{body}");
    let (_, body) = client.request("GET", "/worklist?person=ann", None).unwrap();
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();

    // The completion, and a health check pipelined behind it.
    let mut busy = raw_socket(&url);
    let complete = format!(
        "POST /worklist/{}/complete HTTP/1.1\r\ncontent-length: 16\r\n\r\n{{\"person\":\"ann\"}}\
         GET /healthz HTTP/1.1\r\n\r\n",
        wl.items[0].id
    );
    busy.get_mut().write_all(complete.as_bytes()).unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the completion reaches its program");

    // With the program in progress, a second connection is served.
    let mut other = raw_socket(&url);
    other
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    other
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let (code, _, body) = read_raw_response(&mut other);
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"shards\""), "healthz answer: {body}");

    // The pipelined health check was ready long ago; it still leaves
    // behind the completion it was sent after.
    release_tx.send(()).unwrap();
    let (code, _, body) = read_raw_response(&mut busy);
    assert_eq!((code, body.as_str()), (200, "{}"), "the completion first");
    let (code, _, body) = read_raw_response(&mut busy);
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"shards\""), "then the health check: {body}");

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deploy over two shards answers once, and only after both shard
/// journals hold its `TemplateDeployed`; a drain answers with the sum
/// of both shards' compactions.
#[test]
fn a_deploy_and_a_drain_over_two_shards_answer_once_for_both() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let dir = temp_dir("two-shards");
    let pool = ShardPool::open(pool_config(&dir), Arc::new(Registry::new()), &provision).unwrap();
    assert_eq!(pool.shards(), 2);
    // One parked instance a shard, so each journal holds events.
    for _ in 0..2 {
        let outcome = pool.submit("manual", wfms_model::Container::empty());
        assert!(
            matches!(outcome, SubmitOutcome::Accepted { .. }),
            "{outcome:?}"
        );
    }
    let journals = [dir.join("shard-0.journal"), dir.join("shard-1.journal")];
    let events = |path: &std::path::PathBuf| wfms_engine::Journal::read_file(path).unwrap().0;

    // What each journal file holds at the moment the deploy answers.
    let answers = Arc::new(AtomicUsize::new(0));
    let (seen_tx, seen_rx) = std::sync::mpsc::channel();
    let sink = {
        let (answers, journals) = (Arc::clone(&answers), journals.clone());
        Box::new(move |deployed: Result<wfms_server::DeployReport, _>| {
            answers.fetch_add(1, Ordering::SeqCst);
            let on_disk: Vec<Vec<wfms_engine::Event>> = journals.iter().map(events).collect();
            seen_tx.send((deployed, on_disk)).unwrap();
        })
    };
    pool.deploy_with(manual_process_v2(), MigrationPolicy::DrainOld, sink);
    let (deployed, on_disk) = seen_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    let version = deployed.unwrap().version;
    for (shard, journal) in on_disk.iter().enumerate() {
        let deployed_here = journal.iter().any(|e| {
            matches!(e, wfms_engine::Event::TemplateDeployed { version: v, .. } if *v == version)
        });
        assert!(
            deployed_here,
            "shard {shard} when the deploy answered: {journal:?}"
        );
    }

    // The drain passes through both workers after the deploy: had a
    // second answer been on its way, it would be here by now.
    let before: usize = journals.iter().map(|j| events(j).len()).sum();
    assert!(journals.iter().all(|j| !events(j).is_empty()));
    assert_eq!(pool.drain().unwrap(), before, "both shards' compactions");
    assert_eq!(answers.load(Ordering::SeqCst), 1);
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// After a panicking program has taken the shard worker down, the
/// inbox is closed and nothing is left to race: a completion, a deploy
/// and a drain are each run by their caller, and return — none waits
/// out `REPLY_TIMEOUT` for a worker that is not there.
#[test]
fn a_dead_worker_leaves_later_jobs_to_their_callers() {
    let dir = temp_dir("dead-worker-jobs");
    let ran = Ran::default();
    let mut cfg = pool_config(&dir);
    cfg.shards = 1;
    cfg.templates.push(flow_process());
    cfg.templates.push(
        ProcessBuilder::new("boom")
            .program("A", "boom")
            .build()
            .unwrap(),
    );
    let provision = recording_provision(&ran);
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &|shard| {
        let (fed, programs) = provision(shard);
        programs.register_fn("boom", |_| panic!("boom: the test's panicking program"));
        (fed, programs)
    })
    .unwrap();
    let SubmitOutcome::Accepted { id, .. } = pool.submit("flow", wfms_model::Container::empty())
    else {
        panic!("submit rejected");
    };
    let killed = pool.submit("boom", wfms_model::Container::empty());
    assert!(matches!(killed, SubmitOutcome::Failed { .. }), "{killed:?}");
    // Once a drain is back, the unwinding worker has closed its inbox.
    let _ = pool.drain();

    let asked = std::time::Instant::now();
    let items = pool.worklist("ann", None);
    pool.complete(items[0].0, "ann").unwrap();
    let (_, status, ..) = pool.status(id).unwrap();
    assert_eq!(status, InstanceStatus::Finished);
    let report = pool
        .deploy(flow_process_v2(), MigrationPolicy::MigrateAtScopeBoundary)
        .unwrap();
    assert_eq!(
        report.version,
        format!("{:016x}", wfms_engine::spec_hash_of(&flow_process_v2()))
    );
    pool.drain().unwrap();
    assert!(
        asked.elapsed() < Duration::from_secs(10),
        "{:?}",
        asked.elapsed()
    );

    // `head` ran on the worker while there was one; the completion's
    // programs ran on the thread that asked for it — this one.
    let here = std::thread::current().name().unwrap().to_owned();
    let ran = ran.lock().unwrap().clone();
    assert_eq!(ran[0], ("head", "wfms-shard-0".to_owned()));
    assert_eq!(ran[1..], [("manual", here.clone()), ("tail", here)]);
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A work-item completion queued behind a batch whose program panics
/// is dropped unrun with the dying worker's inbox. Its HTTP reply slot
/// is still filled, as the abandoned submission's is: `500 shard worker
/// stopped`, at once — not when the client or the 30 s idle sweep
/// closes the connection.
#[test]
fn an_abandoned_completion_still_answers_over_http() {
    let dir = temp_dir("abandoned-completion");
    let gate = Arc::new(Gate::default());
    let mut cfg = pool_config(&dir);
    cfg.shards = 1;
    cfg.templates.push(
        ProcessBuilder::new("doomed")
            .program("A", "boom")
            .build()
            .unwrap(),
    );
    let held = Arc::clone(&gate);
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &|shard| {
        let (fed, programs) = provision(shard);
        let gate = Arc::clone(&held);
        programs.register_fn("boom", move |_| {
            gate.pass();
            panic!("boom: the test's panicking program")
        });
        (fed, programs)
    })
    .unwrap();
    let mut scfg = ServerConfig::new("manual");
    scfg.reactors = 1;
    let server = Server::start(Arc::new(pool), scfg).unwrap();
    let _open = OpenOnDrop(&gate);
    let url = server.local_addr().to_string();

    let mut client = Http1Client::new(&url);
    let (code, body) = client.request("POST", "/instances", Some("{}")).unwrap();
    assert_eq!(code, 201, "{body}");
    let (_, body) = client.request("GET", "/worklist?person=ann", None).unwrap();
    let wl: WorklistResponse = serde_json::from_str(&body).unwrap();

    // The doomed submission holds the worker at the gate; the
    // completion waits behind it as a control job.
    let submit = r#"{"process":"doomed"}"#;
    let burst = format!(
        "POST /instances HTTP/1.1\r\ncontent-length: {}\r\n\r\n{submit}\
         POST /worklist/{}/complete HTTP/1.1\r\ncontent-length: 16\r\n\r\n{{\"person\":\"ann\"}}",
        submit.len(),
        wl.items[0].id
    );
    let mut conn = send_held(&server, &gate, &mut client, &burst);
    let released = std::time::Instant::now();
    gate.open();

    let stopped = r#"{"error":"internal","detail":"shard worker stopped"}"#;
    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!((code, body.as_str()), (500, stopped), "the submission");
    let (code, _, body) = read_raw_response(&mut conn);
    assert_eq!((code, body.as_str()), (500, stopped), "the completion");
    assert!(
        released.elapsed() < Duration::from_secs(5),
        "answered after {:?}",
        released.elapsed()
    );

    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the shard engines count scrapes as what it is: a monotonic
/// counter a Prometheus `rate()` accepts, not a gauge. A restart with
/// an instance parked makes recovery count its fix-ups, a migrating
/// deploy makes migration count its own.
#[test]
fn engine_counters_scrape_as_counters() {
    let dir = temp_dir("counter-types");
    let server = start_server(&dir);
    let mut client = Http1Client::new(&server.local_addr().to_string());
    let (code, body) = client
        .request("POST", "/instances", Some(r#"{"process":"manual"}"#))
        .unwrap();
    assert_eq!(code, 201, "{body}");
    server.shutdown(false);

    let server = start_server(&dir);
    let mut client = Http1Client::new(&server.local_addr().to_string());
    let deploy = format!(
        r#"{{"definition":{},"policy":"migrate"}}"#,
        serde_json::to_string(&manual_process_v2()).unwrap()
    );
    let (code, body) = client
        .request("POST", "/admin/deploy", Some(&deploy))
        .unwrap();
    assert_eq!(code, 200, "{body}");

    let (code, text) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    for series in [
        "journal_torn_tails_truncated",
        "journal_crc_failures",
        "journal_mirror_errors",
        "recovery_fixups_running_restarted",
        "recovery_fixups_exits_redecided",
        "migration_fixups_waiting_renavigated",
        "migration_fixups_connectors_reevaluated",
        "nav_executions",
        "worklist_items_offered",
        "db_wal_checkpoints",
    ] {
        let declared = format!("# TYPE {series} counter\n{series} ");
        assert!(text.contains(&declared), "no `{declared}` in\n{text}");
    }
    // The levels stay gauges, and the engines' one gauge is there too.
    for series in [
        "journal_resident_records",
        "server_queue_depth",
        "engine_ready_heap_depth",
    ] {
        let declared = format!("# TYPE {series} gauge\n{series} ");
        assert!(text.contains(&declared), "no `{declared}` in\n{text}");
    }
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exposition with every sample's value replaced by `#`, sorted.
fn shape(exposition: &str) -> Vec<String> {
    let mut lines: Vec<String> = exposition
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => format!("{series} #"),
            _ => line.to_owned(),
        })
        .collect();
    lines.sort();
    lines
}

/// Every name, label and `# TYPE` of `GET /metrics` on a two-shard,
/// tenanted server after a fixed run — submits by two tenants, one
/// refused, one migrating deploy — is the one pinned in
/// `tests/fixtures/metrics_scrape.golden` (values stripped; the file's
/// header says how it differs from what the commit before the
/// series-list snapshot printed).
#[test]
fn metrics_scrape_keeps_its_shape() {
    let dir = temp_dir("scrape-shape");
    let pool = ShardPool::open(
        tenant_pool_config(&dir),
        Arc::new(Registry::new()),
        &provision,
    )
    .unwrap();
    let server = Server::start(Arc::new(pool), ServerConfig::new("auto")).unwrap();
    let url = server.local_addr().to_string();
    for (key, process, want) in [
        ("k-acme", "auto", 201),
        ("k-acme", "manual", 201),
        ("k-beta", "auto", 201),
        ("k-acme", "auto", 201),
        ("k-beta", "nope", 404),
    ] {
        let mut client = Http1Client::new(&url).with_api_key(Some(key));
        let body = format!(r#"{{"process":"{process}"}}"#);
        let (code, body) = client.request("POST", "/instances", Some(&body)).unwrap();
        assert_eq!(code, want, "{body}");
    }
    let deploy = format!(
        r#"{{"definition":{},"policy":"migrate"}}"#,
        serde_json::to_string(&manual_process_v2()).unwrap()
    );
    let mut ops = Http1Client::new(&url);
    let (code, body) = ops.request("POST", "/admin/deploy", Some(&deploy)).unwrap();
    assert_eq!(code, 200, "{body}");

    let (code, text) = ops.request("GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/metrics_scrape.golden");
    let golden = std::fs::read_to_string(golden).unwrap();
    let pinned: Vec<&str> = golden.lines().filter(|l| !l.starts_with("//")).collect();
    assert_eq!(shape(&text), pinned, "the scrape's shape moved");
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&dir);
}
