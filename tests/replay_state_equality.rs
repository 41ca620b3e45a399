//! Replay rebuilds *exactly* the state live navigation built (§3.3:
//! "the process execution is resumed from the point where the failure
//! occurred"). The crash sweep and the checkpoint tests compare
//! outcomes and events; this differential compares **state columns**:
//! run a process live, replay the same events into a second engine,
//! checkpoint both, and require the two `EngineCheckpoint` payloads
//! (every instance's scope tree, every open work item) to be equal —
//! after every navigation step, not only at the end, so activities
//! that are ready or running and block scopes that are open are
//! compared too. It fails the day a state transition and its replay
//! diverge. The replay's own journal is then replayed once more and
//! must give the same state again: a repair that changed state without
//! an event would be missing from that second replay.
//!
//! Replaying from memory never decodes, so the `…_through_the_file`
//! cases journal to a file and, after every step, reopen a copy of it
//! with `Engine::open`: every frame is decoded, and paths and containers
//! come back shared by their encoded bytes, yet the state is the live
//! engine's. The live engine writes under `Batched`, a flush before
//! each copy, so the run so far is one frame: once the instance has
//! finished, replay applies it as its start and its finish. Each copy
//! is also reopened re-encoded a frame per event, where nothing is
//! elided (`crashtest::reopen_both_ways`), and must hold the same
//! state.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{
    DurabilityPolicy, FailurePlan, MultiDatabase, ProgramOutcome, ProgramRegistry,
};
use wftx::engine::{
    crashtest, recover_from, Engine, EngineConfig, Event, InstanceId, InstanceSnapshot,
    InstanceStatus, Journal, OrgModel, WorkItem, WorkItemState,
};
use wftx::model::{Activity, Container, ProcessBuilder, ProcessDefinition};

type World = (Arc<MultiDatabase>, Arc<ProgramRegistry>);

/// Checkpoints `engine` and returns the payload of the event it wrote.
fn checkpoint_of(engine: &Engine) -> (Vec<InstanceSnapshot>, Vec<WorkItem>) {
    engine.checkpoint();
    engine
        .journal_events()
        .into_iter()
        .find_map(|e| match e {
            Event::EngineCheckpoint(checkpoint) => Some((checkpoint.instances, checkpoint.items)),
            _ => None,
        })
        .expect("checkpoint journalled")
}

/// The tallies `engine` keeps as its events are applied — instances
/// `(running, finished, cancelled)`, work items `(offered, claimed,
/// closed)` — each checked against a recount: of `Engine::instances()`,
/// and of `open`, the open items its checkpoint carries.
fn tallies_of(engine: &Engine, open: &[WorkItem]) -> [u64; 6] {
    let m = engine.metrics();
    let tallies = [
        "engine.instances_running",
        "engine.instances_finished",
        "engine.instances_cancelled",
        "worklist.items_open",
        "worklist.items_claimed",
        "worklist.items_closed",
    ]
    .map(|name| m.gauge(name).expect(name) as u64);
    let instances = engine.instances();
    let with = |status| instances.iter().filter(|i| i.2 == status).count() as u64;
    let recount = [
        with(InstanceStatus::Running),
        with(InstanceStatus::Finished),
        with(InstanceStatus::Cancelled),
    ];
    assert_eq!(tallies[..3], recount, "instances by status");
    let offered = open.iter().filter(|it| it.state == WorkItemState::Offered);
    let offered = offered.count() as u64;
    let claimed = open.len() as u64 - offered;
    assert_eq!(tallies[3..5], [offered, claimed], "open items by state");
    tallies
}

/// For every prefix of the run (`action(engine, id, k)` performs the
/// k-th action and returns false once nothing is left to do): a fresh
/// live engine taken that far and a replay of its journal hold equal
/// state, and so does a replay of that replay's journal. Worlds are
/// rebuilt from the same seed, so every live run repeats the previous
/// one and goes one action further.
fn replay_rebuilds_live_state(
    def: &ProcessDefinition,
    org: &OrgModel,
    world: &dyn Fn() -> World,
    action: &dyn Fn(&Engine, InstanceId, usize) -> bool,
) {
    for upto in 0.. {
        let (fed, programs) = world();
        let config = EngineConfig {
            org: org.clone(),
            ..EngineConfig::default()
        };
        let live = Engine::with_config(fed, programs, config);
        live.register(def.clone()).unwrap();
        let id = live.start(&def.name, Container::empty()).unwrap();
        let ran = (0..upto).take_while(|&k| action(&live, id, k)).count();

        let (fed, programs) = world();
        let replayed = recover_from(
            Journal::new(),
            live.journal_events(),
            vec![def.clone()],
            org.clone(),
            fed,
            programs,
        )
        .unwrap();
        let (fed, programs) = world();
        let again = recover_from(
            Journal::new(),
            replayed.journal_events(),
            vec![def.clone()],
            org.clone(),
            fed,
            programs,
        )
        .unwrap();
        let (want, got) = (checkpoint_of(&live), checkpoint_of(&replayed));
        assert_eq!(got, want, "{}: after {ran} actions", def.name);
        let twice = checkpoint_of(&again);
        assert_eq!(twice, want, "{}: replayed twice, {ran} actions", def.name);
        let tallies = [&live, &replayed, &again].map(|e| tallies_of(e, &want.1));
        assert_eq!(
            tallies[1], tallies[0],
            "{}: tallies, {ran} actions",
            def.name
        );
        assert_eq!(tallies[2], tallies[0], "{}: twice, {ran} actions", def.name);
        // `live`'s journal is now its checkpoint: an engine restored
        // from it recounts the instances and the open items (a
        // checkpoint does not carry closed ones).
        let (fed, programs) = world();
        let restored = recover_from(
            Journal::new(),
            live.journal_events(),
            vec![def.clone()],
            org.clone(),
            fed,
            programs,
        )
        .unwrap();
        let restored = tallies_of(&restored, &want.1);
        assert_eq!(
            restored[..5],
            tallies[0][..5],
            "{}: restored, {ran}",
            def.name
        );
        if ran < upto {
            assert!(upto > 1, "{}: the run took no step at all", def.name);
            return;
        }
    }
}

/// [`replay_rebuilds_live_state`] through the file: the live engine
/// journals to a file, and after every action `Engine::open` on a copy
/// of it holds the live engine's state and tallies, as does the copy
/// reopened a frame per event. Returns the events replay elided over
/// the whole run.
fn reopening_the_file_rebuilds_live_state(
    def: &ProcessDefinition,
    world: &dyn Fn() -> World,
    action: &dyn Fn(&Engine, InstanceId, usize) -> bool,
) -> u64 {
    let dir = std::env::temp_dir().join(format!(
        "wftx-replay-file-{}-{}",
        def.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let on = |file: &str| EngineConfig {
        journal_path: Some(dir.join(file)),
        durability: DurabilityPolicy::Batched { n: 64 },
        ..EngineConfig::default()
    };
    let mut elided = 0;
    for upto in 0.. {
        let _ = std::fs::remove_file(dir.join("live.journal"));
        let (fed, programs) = world();
        let live = Engine::open(fed, programs, on("live.journal"), vec![def.clone()]).unwrap();
        let id = live.start(&def.name, Container::empty()).unwrap();
        let ran = (0..upto).take_while(|&k| action(&live, id, k)).count();
        live.flush_journal().unwrap();

        let both = crashtest::reopen_both_ways(
            &dir.join("live.journal"),
            std::slice::from_ref(def),
            &OrgModel::new(),
            world,
        );
        elided += both
            .unwrap_or_else(|e| panic!("{}: {ran} actions: {e}", def.name))
            .elided();
        std::fs::copy(dir.join("live.journal"), dir.join("copy.journal")).unwrap();
        let (fed, programs) = world();
        let reopened = Engine::open(fed, programs, on("copy.journal"), vec![def.clone()]).unwrap();
        let (want, got) = (checkpoint_of(&live), checkpoint_of(&reopened));
        assert_eq!(got, want, "{}: reopened after {ran} actions", def.name);
        assert_eq!(
            tallies_of(&reopened, &want.1),
            tallies_of(&live, &want.1),
            "{}: tallies, {ran} actions",
            def.name
        );
        if ran < upto {
            assert!(upto > 1, "{}: the run took no step at all", def.name);
            let _ = std::fs::remove_dir_all(&dir);
            return elided;
        }
    }
    unreachable!("a run ends")
}

fn step(engine: &Engine, id: InstanceId, _k: usize) -> bool {
    engine.step(id).unwrap()
}

#[test]
fn saga_with_a_compensated_failure_through_the_file() {
    let n = 4;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("fsaga", n)).unwrap())
            .unwrap();
    let world = || {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        fixtures::register_saga_programs(&fed, &registry, n);
        fed.injector().set_plan("S3", FailurePlan::Always);
        (fed, registry)
    };
    assert!(reopening_the_file_rebuilds_live_state(&def, &world, &step) > 0);
}

#[test]
fn figure3_under_seeded_failures_through_the_file() {
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    for seed in [1, 3, 5] {
        let world = || {
            let fed = MultiDatabase::new(seed);
            let registry = Arc::new(ProgramRegistry::new());
            fixtures::register_figure3_programs(&fed, &registry);
            for label in ["T3", "T4", "T6", "T7", "T8"] {
                fed.injector()
                    .set_plan(label, FailurePlan::Probability { p: 0.5 });
            }
            (fed, registry)
        };
        assert!(reopening_the_file_rebuilds_live_state(&def, &world, &step) > 0);
    }
}

#[test]
fn the_pattern_gallery_through_the_file() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/patterns");
    let mut elided = 0;
    for entry in std::fs::read_dir(dir).expect("examples/patterns exists") {
        let src = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let def = exotica::import(&src).unwrap().process;
        let steps = exotica::steps_of_process(&def);
        let world = || exotica::provision(&steps, 0, &[]);
        elided += reopening_the_file_rebuilds_live_state(&def, &world, &step);
    }
    assert!(elided > 0);
}

#[test]
fn saga_with_a_compensated_failure() {
    let n = 4;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let world = || {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        fixtures::register_saga_programs(&fed, &registry, n);
        fed.injector().set_plan("S3", FailurePlan::Always);
        (fed, registry)
    };
    replay_rebuilds_live_state(&def, &OrgModel::new(), &world, &step);
}

#[test]
fn figure3_under_seeded_failures() {
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    // Seeds chosen so the runs commit via p3 after a T3 retry, via p2
    // after compensating T5/T6 and retrying T7, and via p1.
    for seed in [1, 3, 5] {
        let world = || {
            let fed = MultiDatabase::new(seed);
            let registry = Arc::new(ProgramRegistry::new());
            fixtures::register_figure3_programs(&fed, &registry);
            for label in ["T3", "T4", "T6", "T7", "T8"] {
                fed.injector()
                    .set_plan(label, FailurePlan::Probability { p: 0.5 });
            }
            (fed, registry)
        };
        replay_rebuilds_live_state(&def, &OrgModel::new(), &world, &step);
    }
}

#[test]
fn the_pattern_gallery() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/patterns");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/patterns exists") {
        let src = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        let def = exotica::import(&src).unwrap().process;
        let steps = exotica::steps_of_process(&def);
        let world = || exotica::provision(&steps, 0, &[]);
        replay_rebuilds_live_state(&def, &OrgModel::new(), &world, &step);
        seen += 1;
    }
    assert_eq!(seen, 8, "the eight gallery patterns");
}

/// None of the ten processes above parks on a worklist; this one does,
/// inside a block, with a deadline: it puts the notification flag, the
/// readiness tick and open work items into the comparison.
#[test]
fn manual_activity_in_a_block_with_a_deadline() {
    let inner = ProcessBuilder::new("inner")
        .activity(
            Activity::program("Sign", "ok")
                .for_role("clerk")
                .with_deadline(5),
        )
        .program("File", "ok")
        .connect("Sign", "File")
        .build()
        .unwrap();
    let def = ProcessBuilder::new("office")
        .program("Prepare", "ok")
        .block("Review", inner)
        .connect("Prepare", "Review")
        .build()
        .unwrap();
    let org =
        OrgModel::new()
            .person("boss", &["manager"])
            .person_under("ann", &["clerk"], "boss", 1);
    let world = || {
        let fed = MultiDatabase::new(0);
        fed.add_database("db");
        let registry = Arc::new(ProgramRegistry::new());
        registry.register_fn("ok", |_| ProgramOutcome::committed());
        (fed, registry)
    };
    let action = |engine: &Engine, id: InstanceId, k: usize| match k {
        // Prepare, then the block: Sign is offered to ann.
        0 | 1 => engine.step(id).unwrap(),
        2 => !engine.advance_clock(10).is_empty(),
        3 => {
            let item = engine.worklist("ann")[0].id;
            engine.execute_item(item, "ann").unwrap();
            true
        }
        _ => engine.step(id).unwrap(),
    };
    replay_rebuilds_live_state(&def, &org, &world, &action);
}

/// One manual activity `Sign` for the clerk `ann`, and a world whose
/// program `sign` is `body`.
fn sign_process(
    sign: Activity,
    body: fn(&mut txn_substrate::ProgramContext) -> ProgramOutcome,
) -> (ProcessDefinition, OrgModel, impl Fn() -> World) {
    let def = ProcessBuilder::new("desk")
        .activity(sign.for_role("clerk"))
        .build()
        .unwrap();
    let world = move || {
        let fed = MultiDatabase::new(0);
        fed.add_database("db");
        let registry = Arc::new(ProgramRegistry::new());
        registry.register_fn("sign", body);
        (fed, registry)
    };
    (def, OrgModel::new().person("ann", &["clerk"]), world)
}

/// Executes the item on offer to `ann`.
fn ann_signs(engine: &Engine) {
    let item = engine.worklist("ann")[0].id;
    engine.execute_item(item, "ann").unwrap();
}

/// A work item re-offered after a failed exit condition carries the
/// attempt it is for — live, and after a restart (which used to offer
/// it at attempt 0 again).
#[test]
fn reoffer_after_a_failed_exit_condition() {
    let (def, org, world) = sign_process(
        Activity::program("Sign", "sign").with_exit("RC = 1"),
        |ctx| match ctx.attempt {
            0 => ProgramOutcome::aborted("not yet"),
            _ => ProgramOutcome::committed(),
        },
    );
    let action = |engine: &Engine, id: InstanceId, k: usize| match k {
        0 => {
            ann_signs(engine);
            assert_eq!(engine.worklist("ann")[0].attempt, 1, "re-offered");
            true
        }
        1 => {
            ann_signs(engine);
            true
        }
        _ => engine.step(id).unwrap(),
    };
    replay_rebuilds_live_state(&def, &org, &world, &action);
}

/// A deadline that passes with no manager to tell notifies nobody, so
/// nothing is journalled and nothing changes: the readiness period
/// stays un-notified live as it does on replay (live used to mark it).
#[test]
fn a_deadline_with_nobody_to_notify() {
    let (def, org, world) =
        sign_process(Activity::program("Sign", "sign").with_deadline(5), |_| {
            ProgramOutcome::committed()
        });
    let action = |engine: &Engine, id: InstanceId, k: usize| match k {
        0 | 1 => {
            assert!(engine.advance_clock(10).is_empty(), "ann has no manager");
            true
        }
        2 => {
            ann_signs(engine);
            true
        }
        _ => engine.step(id).unwrap(),
    };
    replay_rebuilds_live_state(&def, &org, &world, &action);
}

/// A crash while `ann` is signing: recovery re-readies the activity and
/// offers it afresh, and what that closes and opens is in the journal —
/// recovering the recovered engine's journal finds the same single open
/// item (it used to find the stale one open again beside it).
#[test]
fn a_second_restart_after_a_crash_mid_manual_execution() {
    let (def, org, world) = sign_process(Activity::program("Sign", "sign"), |_| {
        ProgramOutcome::committed()
    });
    let (fed, programs) = world();
    let config = EngineConfig {
        org: org.clone(),
        ..EngineConfig::default()
    };
    let live = Engine::with_config(fed, programs, config);
    live.register(def.clone()).unwrap();
    live.start(&def.name, Container::empty()).unwrap();
    ann_signs(&live);
    let mut journal = live.journal_events();
    let started = journal
        .iter()
        .position(|e| matches!(e, Event::ActivityStarted { .. }))
        .unwrap();
    journal.truncate(started + 1);

    let mut first = None;
    for restart in 1..=2 {
        let (fed, programs) = world();
        let engine = recover_from(
            Journal::new(),
            journal,
            vec![def.clone()],
            org.clone(),
            fed,
            programs,
        )
        .unwrap();
        journal = engine.journal_events();
        let open: Vec<_> = engine.worklist("ann").iter().map(|it| it.id.0).collect();
        assert_eq!(open, [2], "restart {restart}: the fresh offer, alone");
        let state = checkpoint_of(&engine);
        assert_eq!(*first.get_or_insert(state.clone()), state);
    }
}
