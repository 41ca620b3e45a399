//! A journal the decoder and replay must keep reading the same way.
//!
//! `crates/wfms-engine/tests/fixtures/replay_mix.journal` is the binary
//! journal of 180 instances of the benchmark's two models: the 8-step
//! saga, committing and compensating, and Figure 3's flexible
//! transaction, committing through p1, p2 and p3 and aborting. A third
//! of the starts are tenanted. The engine checkpointed after 168 of
//! them, which compacted those into the checkpoint's snapshot; the
//! other 12 follow as events. The last three before the checkpoint and
//! the last three overall were cut mid-run, as a crash leaves them.
//! Beside it:
//!
//! * `replay_mix.dump.jsonl` — its `fmtm journal dump`;
//! * `replay_mix.views.jsonl` — every instance's `Engine::view` after
//!   `Engine::open` on it, one JSON object a line.
//!
//! All three were written by [`write_the_fixture`], on a build from
//! before decoded strings and containers were shared by their encoded
//! bytes: `REPLAY_MIX_WRITE=1 cargo test --release -p exotica --test
//! replay_mix -- the_fixture_decodes` on that checkout. This test holds
//! every later decoder and replay to both goldens, byte for byte.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{
    recover_from, Engine, EngineConfig, EngineError, Event, InstanceId, InstanceStatus, Journal,
    OrgModel, ScopeState,
};
use wfms_model::{Container, ProcessDefinition};

#[path = "../../../tests/support/renavigate.rs"]
mod renavigate;

const SAGA: &str = "saga8";
const FLEX: &str = "figure3";
const INSTANCES: u64 = 180;
/// Instances started before the checkpoint, which compacts them into
/// its snapshot.
const BEFORE_CHECKPOINT: u64 = 168;
/// The last instances before the checkpoint and the last ones overall
/// are cut after 1, 2, … navigation steps.
const CUT: u64 = 3;
const SEED: u64 = 11;
/// Abort probabilities per step label: saga step 6 compensates the
/// first five; Figure 3's failures reach every path and the abort.
const PLAN: [(&str, f64); 7] = [
    ("S6", 0.3),
    ("T2", 0.1),
    ("T3", 0.3),
    ("T4", 0.2),
    ("T6", 0.3),
    ("T7", 0.3),
    ("T8", 0.5),
];

fn fixture(ext: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../wfms-engine/tests/fixtures/replay_mix.{ext}"))
}

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

fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let plans: Vec<(String, FailurePlan)> = PLAN
        .iter()
        .map(|(label, p)| ((*label).to_owned(), FailurePlan::Probability { p: *p }))
        .collect();
    exotica::provision(&exotica::steps_of_all(&models().0), SEED, &plans)
}

/// How many navigation steps instance `n` takes before the journal
/// ends, if it is one of those cut mid-run.
fn cut_after(n: u64) -> Option<u64> {
    let last = |end: u64| (n <= end && end - n < CUT).then_some(end - n + 1);
    last(BEFORE_CHECKPOINT).or_else(|| last(INSTANCES))
}

/// Runs the mix on an engine journalling to `journal`, which is then a
/// checkpoint followed by the events of what ran after it.
fn generate(journal: &Path) {
    let (fed, programs) = world();
    let config = EngineConfig {
        journal_path: Some(journal.to_path_buf()),
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(fed, programs, config);
    for def in models().1 {
        engine.register(def).unwrap();
    }
    for n in 1..=INSTANCES {
        let process = if n % 2 == 1 { SAGA } else { FLEX };
        let tenant = (n % 3 == 0).then(|| "tenant_a".into());
        let mut input = Container::empty();
        input.set("order", Value::Int(n as i64));
        let id = engine.start_for_tenant(process, input, tenant).unwrap();
        match cut_after(n) {
            Some(steps) => (0..steps).for_each(|_| assert!(engine.step(id).unwrap())),
            None => drop(engine.run_to_quiescence(id).unwrap()),
        }
        if n == BEFORE_CHECKPOINT {
            engine.checkpoint();
        }
    }
}

/// `fmtm journal dump` of `journal`.
fn dump(journal: &Path) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .args(["journal", "dump", journal.to_str().unwrap()])
        .output()
        .expect("fmtm runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Every instance's view after `Engine::open` on a copy of the fixture
/// (opening appends the repairs of the cut instances).
fn views_after_reopen(dir: &Path) -> String {
    let journal = dir.join("replay_mix.journal");
    std::fs::copy(fixture("journal"), &journal).unwrap();
    let (fed, programs) = world();
    let config = EngineConfig {
        journal_path: Some(journal),
        ..EngineConfig::default()
    };
    let engine = Engine::open(fed, programs, config, models().1).unwrap();
    engine
        .instances()
        .into_iter()
        .map(|(id, ..)| {
            let view = engine.view(id).unwrap();
            format!(
                "{{\"id\":{},\"process\":{},\"version\":{},\"tenant\":{},\"status\":{},\"output\":{}}}\n",
                id.0,
                json(&view.process),
                json(&view.version),
                json(&view.tenant),
                json(&view.status),
                json(&view.output),
            )
        })
        .collect()
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).expect("views serialize")
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fmtm-replay-mix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the fixture and both goldens; run once, on the build the
/// goldens are to pin.
fn write_the_fixture(dir: &Path) {
    let _ = std::fs::remove_file(fixture("journal"));
    generate(&fixture("journal"));
    std::fs::write(fixture("dump.jsonl"), dump(&fixture("journal"))).unwrap();
    std::fs::write(fixture("views.jsonl"), views_after_reopen(dir)).unwrap();
}

#[test]
fn the_fixture_decodes_and_replays_as_it_did() {
    let dir = scratch();
    if std::env::var_os("REPLAY_MIX_WRITE").is_some() {
        write_the_fixture(&dir);
    }
    let golden = |ext| std::fs::read_to_string(fixture(ext)).unwrap();
    let (dumped, want) = (dump(&fixture("journal")), golden("dump.jsonl"));
    for (i, (got, want)) in dumped.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "dump line {}", i + 1);
    }
    assert_eq!(dumped, want, "dump");
    let (views, want) = (views_after_reopen(&dir), golden("views.jsonl"));
    for (got, want) in views.lines().zip(want.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(views, want, "views");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixture's checkpoint was written before instances retired: it
/// carries every finished instance's full scope tree. Each is restored
/// retired — its activities are gone with the history the checkpoint
/// compacted, and a new checkpoint carries its outcome alone — while one
/// that finished after the checkpoint is read back from its events.
#[test]
fn finished_instances_of_a_full_tree_checkpoint_restore_retired() {
    let journal = std::env::temp_dir().join(format!("fmtm-retired-{}.journal", std::process::id()));
    std::fs::copy(fixture("journal"), &journal).unwrap();
    let (fed, programs) = world();
    let config = EngineConfig {
        journal_path: Some(journal.clone()),
        ..EngineConfig::default()
    };
    let engine = Engine::open(fed, programs, config, models().1).unwrap();
    let first = InstanceId(1);
    assert_eq!(engine.status(first).unwrap(), InstanceStatus::Finished);
    assert!(matches!(
        engine.activity_state(first, "Forward"),
        Err(EngineError::HistoryCompacted(id)) if id == first
    ));
    let after = InstanceId(INSTANCES - CUT);
    assert_eq!(engine.status(after).unwrap(), InstanceStatus::Finished);
    assert!(engine.activity_state(after, "Forward").is_ok());

    engine.checkpoint();
    let events = engine.journal_events();
    let Some(Event::EngineCheckpoint(checkpoint)) = events.first() else {
        panic!("a compacted journal starts with its checkpoint");
    };
    let instances = &checkpoint.instances;
    assert_eq!(instances.len() as u64, INSTANCES);
    for snap in instances
        .iter()
        .filter(|s| s.status != InstanceStatus::Running)
    {
        let outcome = ScopeState {
            output: engine.output(snap.id).unwrap(),
            ..ScopeState::default()
        };
        assert_eq!(snap.root, outcome, "{}", snap.id);
    }
    let _ = std::fs::remove_file(&journal);
}

/// What the fixture holds is what its documentation says.
#[test]
fn the_fixture_holds_the_whole_mix() {
    let bytes = std::fs::read(fixture("journal")).unwrap();
    assert!(bytes.len() < 100 * 1024, "{} bytes", bytes.len());
    let views = std::fs::read_to_string(fixture("views.jsonl")).unwrap();
    let count = |needle: &str| views.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(views.lines().count() as u64, INSTANCES);
    assert_eq!(count("\"tenant\":\"tenant_a\""), (INSTANCES / 3) as usize);
    assert_eq!(count("\"status\":\"Running\""), 2 * CUT as usize);
    let finished = |process: &str, member: &str| {
        views.lines().any(|l| {
            l.contains(&format!("\"process\":\"{process}\""))
                && l.contains("\"status\":\"Finished\"")
                && l.contains(member)
        })
    };
    for (process, member) in [
        (SAGA, "\"Committed\":{\"Int\":1}"),
        (SAGA, "\"Committed\":{\"Int\":0}"),
        (FLEX, "\"Via_0\":{\"Int\":1}"),
        (FLEX, "\"Via_1\":{\"Int\":1}"),
        (FLEX, "\"Via_2\":{\"Int\":1}"),
        (FLEX, "\"Committed\":{\"Int\":0}"),
    ] {
        assert!(finished(process, member), "{process} ending with {member}");
    }
    let dump = std::fs::read_to_string(fixture("dump.jsonl")).unwrap();
    let mut lines = dump.lines();
    assert!(lines.next().unwrap().starts_with("{\"EngineCheckpoint\""));
    let started = lines.filter(|l| l.starts_with("{\"InstanceStarted\""));
    assert_eq!(started.count() as u64, INSTANCES - BEFORE_CHECKPOINT);
}

/// The instances that follow the checkpoint are what the engine derives
/// from their starts and their journalled program outcomes: re-navigated
/// on the checkpoint's state, with no programs, the finished ones journal
/// their events again and the cut ones a run they are a prefix of (the
/// re-navigation oracle, `tests/support/renavigate.rs`).
#[test]
fn the_instances_after_the_checkpoint_renavigate() {
    let (events, _) = Journal::read_file(&fixture("journal")).unwrap();
    let (checkpoint, rest) = events.split_first().unwrap();
    assert!(matches!(checkpoint, Event::EngineCheckpoint(_)));
    let fresh = recover_from(
        Journal::new(),
        vec![checkpoint.clone()],
        models().1,
        OrgModel::new(),
        MultiDatabase::new(0),
        Arc::new(ProgramRegistry::new()),
    )
    .unwrap();
    let after = (INSTANCES - BEFORE_CHECKPOINT) as usize;
    renavigate::renavigate(&fresh, rest).assert_counts(after, 0, CUT as usize);
}
