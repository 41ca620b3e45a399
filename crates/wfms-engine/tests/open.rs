//! [`Engine::open`] is the one way an engine is built, over a new
//! journal or one with history: the reopened engine keeps the caller's
//! configuration, navigates the templates a live `register` would have
//! produced, and refuses history it has no templates for, or that names
//! instance ids the engine cannot have allocated. (That a new or empty
//! journal then receives the golden bytes is pinned in
//! `exotica/tests/journal_cli.rs`, next to the goldens.)

use std::path::PathBuf;
use std::sync::Arc;
use txn_substrate::{MultiDatabase, Params, ProgramOutcome, ProgramRegistry};
use wfms_engine::metrics::ACT_LATENCY_FAMILY;
use wfms_engine::optimize::optimize;
use wfms_engine::{
    recover, CompiledProcess, Engine, EngineConfig, EngineError, Event, InstanceId,
    InstanceSnapshot, InstanceStatus, InstanceView, Journal, Observer, OrgModel, RecoveryError,
};
use wfms_model::{
    Activity, Container, ContainerSchema, DataType, ProcessBuilder, ProcessDefinition,
};
use wfms_observe::Value;

fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    let programs = Arc::new(ProgramRegistry::new());
    programs.register_fn("ok", |_| ProgramOutcome::committed());
    programs.register_fn("answer", |_| ProgramOutcome::Committed {
        rc: 1,
        outputs: [("total".to_owned(), txn_substrate::Value::Int(42))].into(),
    });
    (fed, programs)
}

/// `A`'s exit condition never holds (`ok` returns 1): it reruns until
/// the step limit stops it.
fn livelock() -> ProcessDefinition {
    ProcessBuilder::new("livelock")
        .activity(Activity::program("A", "ok").with_exit("RC = 0"))
        .build()
        .unwrap()
}

/// The optimizer has something to decide here: a no-op always ends with
/// `RC = 1`, so `N → B` is always true, `N → C` never, and `C` is dead.
fn decidable() -> ProcessDefinition {
    ProcessBuilder::new("decidable")
        .noop("N")
        .program("B", "ok")
        .program("C", "ok")
        .connect_when("N", "B", "RC = 1")
        .connect_when("N", "C", "RC = 2")
        .build()
        .unwrap()
}

fn journal_in(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfms-open-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("engine.journal")
}

fn on(journal: &std::path::Path) -> EngineConfig {
    EngineConfig {
        journal_path: Some(journal.to_path_buf()),
        ..EngineConfig::default()
    }
}

/// A journal at `journal` holding one instance of `def`, stepped once,
/// whose engine then died.
fn crashed_after_one_step(journal: &std::path::Path, def: &ProcessDefinition) -> InstanceId {
    let (fed, programs) = world();
    let engine = Engine::open(fed, programs, on(journal), vec![def.clone()]).unwrap();
    let id = engine.start(&def.name, Container::empty()).unwrap();
    assert!(engine.step(id).unwrap());
    engine.crash();
    id
}

/// History without its templates is an error, not an engine that
/// forgets the history and hands out instance id 1 again.
#[test]
fn history_without_templates_is_refused() {
    let journal = journal_in("refused");
    crashed_after_one_step(&journal, &livelock());
    let (fed, programs) = world();
    match Engine::open(fed, programs, on(&journal), Vec::new()) {
        Err(RecoveryError::MissingTemplate(process)) => assert_eq!(process, "livelock"),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("opened over history it cannot replay"),
    }
}

#[test]
#[should_panic(expected = "unknown template \"livelock\"")]
fn with_config_panics_on_history() {
    let journal = journal_in("panics");
    crashed_after_one_step(&journal, &livelock());
    let (fed, programs) = world();
    Engine::with_config(fed, programs, on(&journal));
}

/// The reopened engine runs under the caller's step limit and
/// observer, replayed instances included.
#[test]
fn reopened_engine_keeps_step_limit_and_observer() {
    let journal = journal_in("config");
    let id = crashed_after_one_step(&journal, &livelock());
    let (fed, programs) = world();
    let config = EngineConfig {
        step_limit: 7,
        observer: Some(Arc::new(Observer::enabled())),
        ..on(&journal)
    };
    let engine = Engine::open(fed, programs, config, vec![livelock()]).unwrap();
    assert!(matches!(
        engine.run_to_quiescence(id),
        Err(EngineError::StepLimit(7))
    ));
    let m = engine.metrics();
    assert_eq!(m.counter("nav.executions"), Some(7));
    let probed: Vec<_> = m.family(ACT_LATENCY_FAMILY).collect();
    assert!(
        matches!(probed[..], [("A", Value::Summary(s))] if s.count == 7),
        "replayed instances are probed: {probed:?}"
    );
    assert!(m.counter("journal.appends").unwrap() > 0);
}

/// Reopening imports templates the way `register` does: what the
/// optimizer decided for the live engine is decided for the reopened
/// one.
#[test]
fn reopened_templates_are_optimized_like_registered_ones() {
    let raw = CompiledProcess::compile(decidable());
    let undecided = optimize(&raw).1;
    assert!(undecided.plans_fixed > 0 && undecided.dead_acts > 0);

    let (fed, programs) = world();
    let live = Engine::new(fed, programs);
    live.register(decidable()).unwrap();
    let registered = optimize(&live.template("decidable").unwrap()).1;
    assert_eq!(registered.plans_fixed, 0, "nothing left to decide");

    let journal = journal_in("optimized");
    crashed_after_one_step(&journal, &decidable());
    let (fed, programs) = world();
    let reopened = recover(&journal, vec![decidable()], OrgModel::new(), fed, programs).unwrap();
    let replayed = optimize(&reopened.template("decidable").unwrap()).1;
    assert_eq!(replayed, registered);
}

/// `A` then `B`, each answering `total = 42`: every instance finishes
/// with the same output, which the journal holds as equal bytes.
fn answering() -> ProcessDefinition {
    let total = ContainerSchema::of(&[("total", DataType::Int)]);
    ProcessBuilder::new("answering")
        .output(ContainerSchema::of(&[("result", DataType::Int)]))
        .activity(Activity::program("A", "answer").with_output(total.clone()))
        .activity(Activity::program("B", "answer").with_output(total))
        .connect("A", "B")
        .map_to_process_output("B", &[("total", "result")])
        .build()
        .unwrap()
}

/// What a client is told of an instance, comparable.
fn seen(view: InstanceView) -> (String, String, Option<String>, InstanceStatus, Container) {
    (
        view.process,
        view.version,
        view.tenant,
        view.status,
        view.output,
    )
}

/// Two finished instances whose outputs decode to one shared map, and a
/// third cut after one step: after reopening, the first two read as they
/// did, and the third, resumed, ends as the run that never crashed.
#[test]
fn shared_decoded_outputs_and_a_resumed_cut() {
    let def = answering();
    let (fed, programs) = world();
    let whole = Engine::open(fed, programs, EngineConfig::default(), vec![def.clone()]).unwrap();
    let journal = journal_in("shared");
    let (fed, programs) = world();
    let engine = Engine::open(fed, programs, on(&journal), vec![def.clone()]).unwrap();
    for e in [&whole, &engine] {
        for _ in 0..3 {
            e.start("answering", Container::empty()).unwrap();
        }
    }
    whole.run_all().unwrap();
    let ids = [1, 2, 3].map(InstanceId);
    engine.run_to_quiescence(ids[0]).unwrap();
    engine.run_to_quiescence(ids[1]).unwrap();
    assert!(engine.step(ids[2]).unwrap());
    let finished = [ids[0], ids[1]].map(|id| seen(engine.view(id).unwrap()));
    engine.crash();

    let (events, _) = Journal::read_file(&journal).unwrap();
    let outputs: Vec<&Container> = events
        .iter()
        .filter_map(|e| match e {
            Event::InstanceFinished { output, .. } => Some(output),
            _ => None,
        })
        .collect();
    let [a, b] = outputs[..] else {
        panic!("two finished instances");
    };
    assert!(Params::ptr_eq(a.params(), b.params()), "one decoded map");

    let (fed, programs) = world();
    let reopened = Engine::open(fed, programs, on(&journal), vec![def]).unwrap();
    reopened.run_to_quiescence(ids[2]).unwrap();
    let view = |e: &Engine, id| seen(e.view(id).unwrap());
    assert_eq!(view(&reopened, ids[2]), view(&whole, ids[2]));
    assert_eq!([ids[0], ids[1]].map(|id| view(&reopened, id)), finished);
}

/// `checkpoint` with `edit` applied to its snapshots and allocator.
fn edited(checkpoint: &Event, edit: impl FnOnce(&mut Vec<InstanceSnapshot>, &mut u64)) -> Event {
    let mut checkpoint = checkpoint.clone();
    let Event::EngineCheckpoint(payload) = &mut checkpoint else {
        panic!("a checkpoint");
    };
    edit(&mut payload.instances, &mut payload.next_instance);
    checkpoint
}

/// Instance ids are dense, so a CRC-valid journal naming one the engine
/// never allocated is refused with the id named — not opened with room
/// made for it.
#[test]
fn ids_a_journal_did_not_earn_are_refused() {
    let (fed, programs) = world();
    let engine = Engine::open(fed, programs, EngineConfig::default(), vec![livelock()]).unwrap();
    engine.start("livelock", Container::empty()).unwrap();
    engine.checkpoint();
    let [checkpoint] = &engine.journal_events()[..] else {
        panic!("the checkpoint alone");
    };
    let started = |id| Event::InstanceStarted {
        instance: id,
        process: "livelock".into(),
        tenant: None,
        input: Container::empty(),
        at: 0,
    };
    let far = InstanceId(1 << 40);
    for (events, named) in [
        (vec![started(far)], far),
        (vec![started(InstanceId(0))], InstanceId(0)),
        (
            vec![started(InstanceId(1)), started(InstanceId(3))],
            InstanceId(3),
        ),
        (
            vec![edited(checkpoint, |snaps, next| {
                snaps[0].id = far;
                *next = far.0 + 1;
            })],
            far,
        ),
        (vec![edited(checkpoint, |_, next| *next = 5)], InstanceId(5)),
    ] {
        let journal = journal_in("unearned");
        std::fs::write(&journal, Journal::file_bytes(&events)).unwrap();
        let (fed, programs) = world();
        match Engine::open(fed, programs, on(&journal), vec![livelock()]) {
            Err(e @ RecoveryError::UnexpectedInstanceId { id, .. }) => {
                assert_eq!(id, named);
                assert!(e.to_string().contains(&named.to_string()), "{e}");
            }
            Err(other) => panic!("{named}: {other}"),
            Ok(_) => panic!("{named}: opened"),
        }
    }
}
