//! `fmtm journal dump` / `upgrade` against the JSON the journal wrote
//! before the binary format.
//!
//! `tests/fixtures/journal_json/*.jsonl` are journals of the paper's
//! appendix traces (the scenarios of `tests/appendix_traces.rs`) and of
//! the pattern gallery, written by the JSON-lines mirror of the commit
//! before the binary codec (`EngineConfig::journal_path`, one
//! `serde_json::to_string(event)` per line). The same runs now write
//! binary frames, and:
//!
//! * `fmtm journal dump` of the binary journal equals the fixture, line
//!   for line — nothing an event carried was lost or reordered;
//! * `fmtm journal upgrade` of the fixture gives, byte for byte, the
//!   file the run writes today, so `upgrade` then `dump` is the
//!   identity;
//! * `audit::execution_order` over the decoded file equals the order
//!   over the in-memory journal — compensation order and alternative
//!   selection survive the disk;
//! * `fmtm serve` refuses a data directory holding a JSON journal and
//!   names the command that converts it.

use atm::fixtures;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wfms_engine::Event;
use wfms_engine::{audit, Engine, EngineConfig, InstanceId, InstanceStatus, Journal};
use wfms_model::{Container, ProcessDefinition};

fn mirrored(fed: Arc<MultiDatabase>, registry: Arc<ProgramRegistry>, journal: &Path) -> Engine {
    Engine::with_config(
        fed,
        registry,
        EngineConfig {
            journal_path: Some(journal.to_path_buf()),
            ..EngineConfig::default()
        },
    )
}

type World = (Arc<MultiDatabase>, Arc<ProgramRegistry>, ProcessDefinition);

/// The world and translated definition of a Figure 2 saga of `n` steps.
fn saga_world(n: usize, plans: &[(&str, FailurePlan)]) -> World {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_saga_programs(&fed, &registry, n);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    let def = exotica::translate_saga(
        &atm::check_saga(&fixtures::linear_saga("appendix_saga", n)).unwrap(),
    )
    .unwrap();
    (fed, registry, def)
}

/// The world and translated definition of the Figure 3/4 flexible
/// transaction.
fn flex_world(plans: &[(&str, FailurePlan)]) -> World {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_figure3_programs(&fed, &registry);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    (fed, registry, def)
}

/// The appendix scenario `name` (`None`: a gallery pattern).
fn appendix_world(name: &str) -> Option<World> {
    use FailurePlan::{Always, FirstN};
    Some(match name {
        "saga_abort_at_s2" => saga_world(3, &[("S2", Always)]),
        "saga_success" => saga_world(3, &[]),
        "saga_compensation_retries" => saga_world(2, &[("S2", Always), ("undo_S1", FirstN(2))]),
        "flex_happy_path" => flex_world(&[]),
        "flex_t1_aborts" => flex_world(&[("T1", Always)]),
        "flex_t4_aborts_t3_retries" => flex_world(&[("T4", Always), ("T3", FirstN(2))]),
        "flex_t8_aborts" => flex_world(&[("T8", Always)]),
        "flex_t6_aborts" => flex_world(&[("T6", Always)]),
        _ => return None,
    })
}

/// Drives one instance of `process` to completion and returns the
/// in-memory events.
fn run_one(engine: &Engine, process: &str) -> Vec<Event> {
    let id = engine.start(process, Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    engine.journal_events()
}

fn run_pattern(journal: &Path, stem: &str) -> Vec<Event> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/patterns")
        .join(format!("{stem}.fdl"));
    let src = std::fs::read_to_string(&path).unwrap();
    let imported = exotica::import(&src).unwrap();
    let steps = exotica::steps_of_process(&imported.process);
    let (fed, registry) = exotica::provision(&steps, 0, &[]);
    let engine = mirrored(fed, registry, journal);
    engine.register_compiled(imported.template);
    let id = engine
        .start(&imported.process.name, Container::empty())
        .unwrap();
    engine.run_all().unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
    engine.journal_events()
}

const PATTERNS: [&str; 8] = [
    "sequence",
    "parallel_split_sync",
    "exclusive_choice",
    "multi_choice",
    "simple_merge",
    "discriminator",
    "n_of_m",
    "cancel_activity",
];

/// Runs scenario `name` with the journal mirrored to `journal`.
fn run_scenario(name: &str, journal: &Path) -> Vec<Event> {
    let Some((fed, registry, def)) = appendix_world(name) else {
        return run_pattern(journal, name.strip_prefix("pattern_").unwrap());
    };
    let process = def.name.clone();
    let engine = mirrored(fed, registry, journal);
    engine.register(def).unwrap();
    run_one(&engine, &process)
}

/// The scenarios [`appendix_world`] knows: the paper's Figure 2 and
/// Figure 4 runs.
const APPENDIX: [&str; 8] = [
    "saga_abort_at_s2",
    "saga_success",
    "saga_compensation_retries",
    "flex_happy_path",
    "flex_t1_aborts",
    "flex_t4_aborts_t3_retries",
    "flex_t8_aborts",
    "flex_t6_aborts",
];

fn scenarios() -> Vec<String> {
    let mut names: Vec<String> = APPENDIX.iter().map(|s| s.to_string()).collect();
    names.extend(PATTERNS.iter().map(|p| format!("pattern_{p}")));
    names
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/journal_json")
        .join(format!("{name}.jsonl"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fmtm-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `fmtm <args>`; returns (success, stdout, stderr).
fn fmtm(args: &[&str]) -> (bool, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .args(args)
        .output()
        .expect("fmtm runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

fn dump(journal: &Path) -> String {
    let (ok, stdout, stderr) = fmtm(&["journal", "dump", journal.to_str().unwrap()]);
    assert!(ok, "dump failed: {stderr}");
    stdout
}

#[test]
fn dump_equals_the_json_the_old_journal_wrote() {
    let dir = scratch("dump");
    for name in scenarios() {
        let journal = dir.join(format!("{name}.journal"));
        run_scenario(&name, &journal);
        let want = std::fs::read_to_string(fixture(&name)).unwrap();
        let got = dump(&journal);
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{name}: line {}", i + 1);
        }
        assert_eq!(got, want, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn upgrade_then_dump_is_the_identity() {
    let dir = scratch("upgrade");
    for name in scenarios() {
        let want = std::fs::read_to_string(fixture(&name)).unwrap();
        let old = dir.join(format!("{name}.old.journal"));
        std::fs::write(&old, &want).unwrap();

        let path = old.to_str().unwrap();
        let (ok, _, stderr) = fmtm(&["journal", "dump", path]);
        assert!(!ok, "{name}: a JSON journal is not dumped as if binary");
        assert!(stderr.contains("fmtm journal upgrade"), "{name}: {stderr}");

        let (ok, stdout, stderr) = fmtm(&["journal", "upgrade", path]);
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains("rewritten as binary frames"), "{stdout}");
        assert_eq!(dump(&old), want, "{name}");

        // The upgraded file is the file the same run writes today.
        let fresh = dir.join(format!("{name}.journal"));
        run_scenario(&name, &fresh);
        assert_eq!(
            std::fs::read(&old).unwrap(),
            std::fs::read(&fresh).unwrap(),
            "{name}"
        );
        let (ok, stdout, _) = fmtm(&["journal", "upgrade", path]);
        assert!(ok && stdout.contains("already in the binary format"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Engine::open` with the templates in hand, over a journal that is
/// absent or is an empty file, writes the bytes the goldens upgrade to:
/// opening replays nothing and journals nothing of its own.
#[test]
fn open_on_an_absent_or_empty_journal_writes_the_golden_bytes() {
    let dir = scratch("open");
    for name in APPENDIX {
        let golden = dir.join(format!("{name}.golden.journal"));
        std::fs::copy(fixture(name), &golden).unwrap();
        Journal::upgrade_json_file(&golden).unwrap();
        let golden = std::fs::read(&golden).unwrap();

        for precreated in [false, true] {
            let journal = dir.join(format!("{name}.{precreated}.journal"));
            if precreated {
                std::fs::write(&journal, b"").unwrap();
            }
            let (fed, registry, def) = appendix_world(name).unwrap();
            let process = def.name.clone();
            let config = EngineConfig {
                journal_path: Some(journal.clone()),
                ..EngineConfig::default()
            };
            let engine = Engine::open(fed, registry, config, vec![def]).unwrap();
            run_one(&engine, &process);
            drop(engine);
            assert_eq!(
                std::fs::read(&journal).unwrap(),
                golden,
                "{name}, precreated: {precreated}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saga compensation runs in reverse, Figure 3 takes its alternative
/// path: the order read back from the file is the order the engine saw.
#[test]
fn execution_order_survives_the_file() {
    let dir = scratch("order");
    let id = InstanceId(1);
    for (name, must_contain) in [
        ("saga_abort_at_s2", "Compensation/Comp_S1"),
        ("saga_compensation_retries", "Compensation/Comp_S1"),
        ("flex_t8_aborts", "T7"),
        ("flex_t6_aborts", "T7"),
        ("flex_t4_aborts_t3_retries", "T3"),
    ] {
        let journal = dir.join(format!("{name}.journal"));
        let in_memory = run_scenario(name, &journal);
        let (decoded, report) = Journal::read_file(&journal).unwrap();
        assert_eq!(report.torn_tail, None);
        let order = audit::execution_order(&decoded, id);
        assert_eq!(order, audit::execution_order(&in_memory, id), "{name}");
        assert!(
            order.iter().any(|p| p.ends_with(must_contain)),
            "{name}: {order:?}"
        );
        assert_eq!(decoded, in_memory, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_json_journal_and_names_the_upgrade() {
    let dir = scratch("serve");
    let journal = dir.join("shard-0.journal");
    std::fs::copy(fixture("saga_success"), &journal).unwrap();
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/trip.saga");
    let (ok, _, stderr) = fmtm(&[
        "serve",
        spec.to_str().unwrap(),
        "--data",
        dir.to_str().unwrap(),
        "--port",
        "0",
    ]);
    assert!(!ok, "serve must not start on a JSON journal");
    let hint = format!("fmtm journal upgrade {}", journal.display());
    assert!(stderr.contains(&hint), "{stderr}");
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        std::fs::read(fixture("saga_success")).unwrap(),
        "the refused journal is left as it was"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
