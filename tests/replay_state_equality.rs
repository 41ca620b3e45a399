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
//! diverge.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramOutcome, ProgramRegistry};
use wftx::engine::{
    recover_from, Engine, EngineConfig, Event, InstanceId, InstanceSnapshot, Journal, OrgModel,
    WorkItem,
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
            Event::EngineCheckpoint {
                instances, items, ..
            } => Some((instances, items)),
            _ => None,
        })
        .expect("checkpoint journalled")
}

/// For every prefix of the run (`action(engine, id, k)` performs the
/// k-th action and returns false once nothing is left to do): a fresh
/// live engine taken that far and a replay of its journal hold equal
/// state. Worlds are rebuilt from the same seed, so every live run
/// repeats the previous one and goes one action further.
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
        let (want, got) = (checkpoint_of(&live), checkpoint_of(&replayed));
        assert_eq!(got, want, "{}: after {ran} actions", def.name);
        if ran < upto {
            assert!(upto > 1, "{}: the run took no step at all", def.name);
            return;
        }
    }
}

fn step(engine: &Engine, id: InstanceId, _k: usize) -> bool {
    engine.step(id).unwrap()
}

#[test]
fn saga_with_a_compensated_failure() {
    let n = 4;
    let def = exotica::translate_saga(&fixtures::linear_saga("rsaga", n)).unwrap();
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
    let def = exotica::translate_flex(&fixtures::figure3_spec()).unwrap();
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
        let (def, _) = exotica::import_and_analyze(&src).unwrap();
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
