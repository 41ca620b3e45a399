//! A finished instance keeps only its outcome, and nobody can tell.
//!
//! The engine retires an instance once it stops running: the slab of
//! activity records, connector values and scopes goes, the template,
//! tenant, status and process output stay. These tests hold the four
//! shapes the benchmark runs — the 8-step saga committing and
//! compensating, Figure 3's flexible transaction through p1 and through
//! p2 after T8 aborts — to what an engine that never retired answered.
//! `fixtures/retire.golden` was written by such a build
//! (`RETIRE_WRITE=1 cargo test -p exotica --test retire` on the commit
//! before retirement): every view, status, output and listing, every
//! activity's state, the answers of the navigating calls on a finished
//! instance, and the bytes of `GET /instances/:id`. They must read the
//! same after retirement, after reopening the journal file, and — all
//! but the activity states, which a checkpoint compacts away — after a
//! drain and a reopen.
//!
//! Two more tests are about checkpoints: what a drain writes per
//! finished instance, and the ROADMAP's contract that checkpointing at
//! every step and reopening gives the uncrashed run. The last is about
//! a cancelled instance, which is retired too — the build before
//! retirement still navigated one.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{
    Engine, EngineConfig, EngineError, Event, InstanceId, InstanceStatus, WorkItemId,
};
use wfms_model::{ActivityKind, Container, ProcessDefinition};
use wfms_observe::Registry;
use wfms_server::{PoolConfig, Server, ServerConfig, ShardPool};

const SAGA: &str = "saga8";
const FLEX: &str = "figure3";
const SEED: u64 = 29;
/// Instances 1–4: the saga committing, the saga compensating at S6,
/// Figure 3 through p1, Figure 3 through p2.
const RUNS: [&str; 4] = [SAGA, SAGA, FLEX, FLEX];

/// The two models through the Figure 5 pipeline: their parsed specs
/// (for provisioning) and definitions.
fn models() -> (Vec<exotica::AtmSpec>, Vec<ProcessDefinition>) {
    let texts = [
        exotica::emit_spec(&exotica::AtmSpec::Saga(atm::fixtures::linear_saga(SAGA, 8))),
        exotica::emit_spec(&exotica::AtmSpec::Flexible(atm::fixtures::figure3_spec())),
    ];
    texts
        .iter()
        .map(|text| {
            let out = exotica::run_pipeline(text).expect("the fixed specs translate");
            (out.spec, out.process)
        })
        .unzip()
}

/// The world with `failing` steps aborting on the attempts given.
fn world_failing(failing: &[(&str, FailurePlan)]) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let plans: Vec<(String, FailurePlan)> = failing
        .iter()
        .map(|(label, plan)| ((*label).to_owned(), plan.clone()))
        .collect();
    exotica::provision(&exotica::steps_of_all(&models().0), SEED, &plans)
}

/// S6 and T8 abort on their second attempt only: of [`RUNS`], the
/// second saga compensates and the second Figure 3 takes another path.
fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let second = FailurePlan::OnAttempts(BTreeSet::from([1]));
    world_failing(&[("S6", second.clone()), ("T8", second)])
}

fn input(order: i64) -> Container {
    let mut input = Container::empty();
    input.set("order", Value::Int(order));
    input
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exotica-retire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An engine over `world()` journalling to `journal`.
fn open(journal: &Path) -> Engine {
    let (fed, programs) = world();
    let config = EngineConfig {
        journal_path: Some(journal.to_path_buf()),
        ..EngineConfig::default()
    };
    Engine::open(fed, programs, config, models().1).unwrap()
}

/// Every activity path of `def`, nested ones included, in declaration
/// order.
fn paths(def: &ProcessDefinition, prefix: &str, out: &mut Vec<String>) {
    for act in &def.activities {
        let path = format!("{prefix}{}", act.name);
        if let ActivityKind::Block { process } = &act.kind {
            paths(process, &format!("{path}/"), out);
        }
        out.push(path);
    }
}

fn ids() -> impl Iterator<Item = InstanceId> {
    (1..=RUNS.len() as u64).map(InstanceId)
}

/// What a client reads of every instance: `view`, `status`, `output`,
/// `instances()` and `instance_counts()`.
fn views(engine: &Engine) -> String {
    let mut out = String::new();
    for id in ids() {
        let v = engine.view(id).unwrap();
        out += &format!(
            "{id}: {} {} {:?} {:?} {}\n",
            v.process,
            v.version,
            v.tenant,
            v.status,
            serde_json::to_string(&v.output).unwrap()
        );
        out += &format!(
            "  status {:?}, output {}\n",
            engine.status(id).unwrap(),
            serde_json::to_string(&engine.output(id).unwrap()).unwrap()
        );
    }
    out += &format!("{:?}\n{:?}\n", engine.instances(), engine.instance_counts());
    out
}

/// `activity_state` of every activity path of every instance.
fn activities(engine: &Engine) -> String {
    let defs = models().1;
    let mut out = String::new();
    for (id, process) in ids().zip(RUNS) {
        let def = defs.iter().find(|d| d.name == process).unwrap();
        let mut all = Vec::new();
        paths(def, "", &mut all);
        for path in all {
            out += &format!("{id} {path}: {:?}\n", engine.activity_state(id, &path));
        }
    }
    out
}

/// What the navigating calls answer on every (finished) instance, and
/// how many events they journalled.
fn operations(engine: &Engine) -> String {
    let before = engine.journal_events().len();
    let mut out = String::new();
    for id in ids() {
        out += &format!("{id} cancel: {:?}\n", engine.cancel(id));
        out += &format!("{id} step: {:?}\n", engine.step(id));
        out += &format!("{id} run: {:?}\n", engine.run_to_quiescence(id));
        for path in ["Forward", "Forward/S3", "T2", "Blk_T5_T6/T5", "Ghost"] {
            let answer = engine.force_finish(id, path, 1);
            out += &format!("{id} force_finish {path}: {answer:?}\n");
        }
        out += &format!("{id} migrate: {:?}\n", engine.migrate_to_default(id));
    }
    let item = engine.execute_item(WorkItemId(1), "ann");
    out += &format!("execute_item: {item:?}\n");
    let after = engine.journal_events().len();
    out += &format!("journalled {}\n", after - before);
    out
}

/// The raw response to `GET /instances/{ext}` on `url`: status line,
/// headers and body, as the server wrote them.
fn get(url: &str, ext: u64) -> String {
    let mut stream = TcpStream::connect(url).unwrap();
    write!(stream, "GET /instances/{ext} HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    let mut length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        head += &line;
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).unwrap();
    head + &String::from_utf8(body).unwrap() + "\n"
}

/// A one-shard server over `world()` on the data directory `dir`.
fn serve(dir: &Path) -> Server {
    let mut cfg = PoolConfig::new(dir);
    cfg.shards = 1;
    cfg.templates = models().1;
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &|_| world()).unwrap();
    Server::start(Arc::new(pool), ServerConfig::new(SAGA)).unwrap()
}

/// Submits [`RUNS`] over HTTP and returns their external ids.
fn submit(url: &str) -> Vec<u64> {
    let mut client = wfms_server::Http1Client::new(url);
    (1..)
        .zip(RUNS)
        .map(|(order, process)| {
            let input = serde_json::to_string(&input(order)).unwrap();
            let body = format!(r#"{{"process":"{process}","input":{input}}}"#);
            let (code, reply) = client.request("POST", "/instances", Some(&body)).unwrap();
            assert_eq!(code, 201, "{reply}");
            let reply: wfms_server::api::SubmitResponse = serde_json::from_str(&reply).unwrap();
            reply.id
        })
        .collect()
}

fn gets(server: &Server, ids: &[u64]) -> String {
    let url = server.local_addr().to_string();
    ids.iter().map(|&ext| get(&url, ext)).collect()
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/retire.golden")
}

/// The golden's section under `== name`.
fn section(golden: &str, name: &str) -> String {
    let start = golden
        .find(&format!("== {name}\n"))
        .unwrap_or_else(|| panic!("no section {name}"));
    let rest = &golden[start + name.len() + 4..];
    rest[..rest.find("\n== ").map_or(rest.len(), |end| end + 1)].to_owned()
}

/// Writes the golden from this build. Run on the build whose answers
/// are to be pinned.
fn write_golden() {
    let dir = scratch("golden");
    let engine = open(&dir.join("engine.journal"));
    for (order, process) in (1..).zip(RUNS) {
        let id = engine.start(process, input(order)).unwrap();
        engine.run_to_quiescence(id).unwrap();
    }
    let (views, activities) = (views(&engine), activities(&engine));
    let operations = operations(&engine);
    let server = serve(&dir.join("pool"));
    let ids = submit(&server.local_addr().to_string());
    let get = gets(&server, &ids);
    server.shutdown(false);
    let text = format!(
        "== views\n{views}== activities\n{activities}== operations\n{operations}== GET\n{get}"
    );
    std::fs::write(golden_path(), text).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retired_instance_answers_what_a_running_engine_answered() {
    if std::env::var_os("RETIRE_WRITE").is_some() {
        write_golden();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    let dir = scratch("engine");
    let journal = dir.join("engine.journal");
    let engine = open(&journal);
    for (order, process) in (1..).zip(RUNS) {
        let id = engine.start(process, input(order)).unwrap();
        let status = engine.run_to_quiescence(id).unwrap();
        assert_eq!(status, InstanceStatus::Finished, "{id} {process}");
    }
    let want = (section(&golden, "views"), section(&golden, "activities"));
    assert_eq!((views(&engine), activities(&engine)), want, "live");
    assert_eq!(operations(&engine), section(&golden, "operations"));
    assert_eq!(views(&engine), want.0, "after the operations");

    // The journal file as a crash leaves it.
    engine.crash();
    let engine = open(&journal);
    assert_eq!((views(&engine), activities(&engine)), want, "reopened");

    // A drain's checkpoint keeps the outcomes, and compacts the history
    // activity states are read back from.
    engine.drain().unwrap();
    let compacted: String = want
        .1
        .lines()
        .map(|line| {
            let (at, _) = line.split_once(": ").unwrap();
            let id = at.split(' ').next().unwrap();
            format!("{at}: Err(HistoryCompacted(InstanceId({})))\n", &id[5..])
        })
        .collect();
    assert_eq!(
        (views(&engine), activities(&engine)),
        (want.0.clone(), compacted.clone())
    );
    engine.crash();
    let engine = open(&journal);
    assert_eq!(
        (views(&engine), activities(&engine)),
        (want.0, compacted),
        "drained"
    );
    assert!(matches!(
        engine.activity_state(InstanceId(1), "Forward"),
        Err(EngineError::HistoryCompacted(InstanceId(1)))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_get_of_a_retired_instance_is_byte_identical() {
    if std::env::var_os("RETIRE_WRITE").is_some() {
        return;
    }
    let want = section(&std::fs::read_to_string(golden_path()).unwrap(), "GET");
    let dir = scratch("pool");
    let server = serve(&dir);
    let ids = submit(&server.local_addr().to_string());
    assert_eq!(gets(&server, &ids), want, "served");
    server.shutdown(false);
    drop(server);
    let server = serve(&dir);
    assert_eq!(gets(&server, &ids), want, "reopened");
    server.shutdown(true);
    drop(server);
    let server = serve(&dir);
    assert_eq!(gets(&server, &ids), want, "drained and reopened");
    server.shutdown(false);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cancelled instance is retired too, so nothing navigates it any
/// more: forcing its ready block to finish is refused and journals
/// nothing (before retirement it ran the block). Its activities are
/// still read back from its events.
#[test]
fn a_cancelled_instance_is_retired_too() {
    let dir = scratch("cancel");
    let engine = open(&dir.join("engine.journal"));
    let id = engine.start(SAGA, input(1)).unwrap();
    engine.cancel(id).unwrap();
    let before = engine.journal_events().len();
    assert!(matches!(
        engine.force_finish(id, "Forward", 1),
        Err(EngineError::BadActivityState { .. })
    ));
    assert!(!engine.step(id).unwrap());
    assert_eq!(engine.journal_events().len(), before);
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Cancelled);
    assert_eq!(engine.instance_counts(), (0, 0, 1));
    let (state, ..) = engine.activity_state(id, "Forward").unwrap();
    assert_eq!(state, wfms_engine::ActState::Ready);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drain's checkpoint carries a finished instance as its outcome:
/// the process output under an otherwise empty scope tree. Its frame
/// is pinned per instance — 43.8 B measured, plus some 3 %; one that
/// carried the full tree, as before retirement, took 371 B per
/// committed saga8.
#[test]
fn a_checkpoint_keeps_a_finished_instance_as_its_outcome() {
    const N: i64 = 500;
    const BOUND: f64 = 45.0;
    let dir = scratch("checkpoint");
    let journal = dir.join("engine.journal");
    let (fed, programs) = world_failing(&[]);
    let config = EngineConfig {
        journal_path: Some(journal.clone()),
        ..EngineConfig::default()
    };
    let engine = Engine::open(fed, programs, config, models().1).unwrap();
    for order in 0..N {
        let id = engine.start(SAGA, input(order)).unwrap();
        engine.run_to_quiescence(id).unwrap();
    }
    engine.drain().unwrap();
    let per_instance = std::fs::metadata(&journal).unwrap().len() as f64 / N as f64;
    println!("{per_instance} B of checkpoint per finished saga8");
    let events = engine.journal_events();
    let [Event::EngineCheckpoint(checkpoint)] = &events[..] else {
        panic!("a drained journal is its checkpoint: {events:?}");
    };
    for snap in &checkpoint.instances {
        let view = engine.view(snap.id).unwrap();
        assert_eq!(snap.status, view.status);
        let outcome = wfms_engine::ScopeState {
            output: view.output,
            ..Default::default()
        };
        assert_eq!(snap.root, outcome, "{}", snap.id);
    }
    assert!(
        per_instance <= BOUND,
        "{per_instance} B per instance, bound {BOUND}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ROADMAP's contract for checkpoints: with a checkpoint after
/// every navigation step, a crash after any step reopens to a run that
/// ends where the uncrashed one did — the same view, the same tables in
/// every database.
#[test]
fn checkpointing_at_every_step_and_reopening_gives_the_uncrashed_run() {
    let dir = scratch("every-step");
    let journal = dir.join("engine.journal");
    let config = || EngineConfig {
        journal_path: Some(journal.clone()),
        ..EngineConfig::default()
    };
    let outcome = |engine: &Engine, fed: &MultiDatabase| {
        let view = engine.view(InstanceId(1)).unwrap();
        let tables: Vec<_> = fed
            .names()
            .into_iter()
            .map(|db| (fed.db(&db).unwrap().snapshot(), db))
            .collect();
        (view.status, view.output, tables)
    };
    for (process, failing) in [
        (SAGA, None),
        (SAGA, Some("S6")),
        (FLEX, None),
        (FLEX, Some("T8")),
    ] {
        let plans: Vec<(&str, FailurePlan)> = failing
            .map(|s| (s, FailurePlan::Always))
            .into_iter()
            .collect();
        let _ = std::fs::remove_file(&journal);
        let (fed, programs) = world_failing(&plans);
        let engine = Engine::open(Arc::clone(&fed), programs, config(), models().1).unwrap();
        let id = engine.start(process, input(7)).unwrap();
        let steps = std::iter::from_fn(|| engine.step(id).unwrap().then_some(())).count();
        let want = outcome(&engine, &fed);
        assert_ne!(want.0, InstanceStatus::Running, "{process}");
        drop(engine);

        for crash_after in 0..=steps {
            let _ = std::fs::remove_file(&journal);
            let (fed, programs) = world_failing(&plans);
            let engine = Engine::open(
                Arc::clone(&fed),
                Arc::clone(&programs),
                config(),
                models().1,
            )
            .unwrap();
            let id = engine.start(process, input(7)).unwrap();
            engine.checkpoint();
            for _ in 0..crash_after {
                engine.step(id).unwrap();
                engine.checkpoint();
            }
            engine.crash();
            let engine = Engine::open(Arc::clone(&fed), programs, config(), models().1).unwrap();
            engine.run_to_quiescence(id).unwrap();
            let got = outcome(&engine, &fed);
            assert_eq!(
                got, want,
                "{process} failing {failing:?}, crash after step {crash_after}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
