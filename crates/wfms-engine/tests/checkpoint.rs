//! Engine checkpointing: snapshot + journal compaction bound recovery
//! replay without changing its outcome.

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{
    recover_from, Engine, EngineConfig, Event, InstanceStatus, Journal, OrgModel, WorkItemState,
};
use wfms_model::{Activity, Container, ProcessBuilder};

fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    (fed, registry)
}

fn manual_then_auto() -> wfms_model::ProcessDefinition {
    ProcessBuilder::new("p")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .program("Tail", "ok")
        .connect_when("M", "Tail", "RC = 1")
        .build()
        .unwrap()
}

#[test]
fn checkpoint_compacts_and_recovery_resumes_from_it() {
    let (fed, registry) = world();
    let org = OrgModel::new().person("ann", &["clerk"]);
    let def = manual_then_auto();
    let engine = Engine::with_config(
        Arc::clone(&fed),
        Arc::clone(&registry),
        EngineConfig {
            org: org.clone(),
            ..EngineConfig::default()
        },
    );
    engine.register(def.clone()).unwrap();

    // Run several instances to completion, leave one pending on its
    // manual step, then checkpoint.
    for _ in 0..5 {
        let id = engine.start("p", Container::empty()).unwrap();
        engine.run_to_quiescence(id).unwrap();
    }
    let pending = engine.worklist("ann");
    assert_eq!(pending.len(), 5);
    let events_before = engine.journal_events().len();
    let dropped = engine.checkpoint();
    assert!(dropped > 0, "checkpoint compacts the journal");
    let events_after_ckpt = engine.journal_events();
    assert!(events_after_ckpt.len() < events_before);
    assert!(matches!(
        events_after_ckpt[0],
        Event::EngineCheckpoint { .. }
    ));

    // Work a little past the checkpoint, then crash.
    engine.execute_item(pending[0].id, "ann").unwrap();
    let events = engine.journal_events();
    engine.crash();

    // Recovery from checkpoint + tail.
    let recovered = recover_from(
        Journal::new(),
        events,
        vec![def],
        org,
        Arc::clone(&fed),
        registry,
    )
    .unwrap();
    // The executed instance is finished; the other four still wait.
    let statuses: Vec<_> = recovered
        .instances()
        .into_iter()
        .map(|(_, _, s)| s)
        .collect();
    assert_eq!(
        statuses
            .iter()
            .filter(|s| **s == InstanceStatus::Finished)
            .count(),
        1
    );
    let remaining = recovered.worklist("ann");
    assert_eq!(remaining.len(), 4, "work items restored from the snapshot");
    for item in remaining {
        recovered.execute_item(item.id, "ann").unwrap();
    }
    assert!(recovered
        .instances()
        .iter()
        .all(|(_, _, s)| *s == InstanceStatus::Finished));
}

#[test]
fn checkpoint_claimed_items_are_reoffered_on_recovery() {
    let (fed, registry) = world();
    let org = OrgModel::new()
        .person("ann", &["clerk"])
        .person("bob", &["clerk"]);
    let def = manual_then_auto();
    let engine = Engine::with_config(
        Arc::clone(&fed),
        Arc::clone(&registry),
        EngineConfig {
            org: org.clone(),
            ..EngineConfig::default()
        },
    );
    engine.register(def.clone()).unwrap();
    // Three instances, three items: the first is claimed, the second
    // completed (closed), the third left on offer.
    let ids: Vec<_> = (0..3)
        .map(|_| engine.start("p", Container::empty()).unwrap())
        .collect();
    engine.run_all().unwrap();
    let items: Vec<_> = engine.worklist("ann").iter().map(|it| it.id).collect();
    engine.claim(items[0], "ann").unwrap();
    engine.execute_item(items[1], "bob").unwrap();
    assert_eq!(engine.worklist("bob").len(), 1, "claimed items vanish");
    engine.checkpoint();
    let events = engine.journal_events();
    engine.crash();

    // The snapshot carries the live items — claimed and offered — in id
    // order, and not the closed one between them.
    let Some(Event::EngineCheckpoint(checkpoint)) = events.first() else {
        panic!("compaction leaves the checkpoint first");
    };
    let kept: Vec<_> = (checkpoint.items.iter())
        .map(|it| (it.id, it.state.clone()))
        .collect();
    assert_eq!(
        kept,
        [
            (items[0], WorkItemState::Claimed("ann".into())),
            (items[2], WorkItemState::Offered),
        ]
    );

    let recovered = recover_from(Journal::new(), events, vec![def], org, fed, registry).unwrap();
    // The item survived the checkpoint, but the claim did not: a claim
    // is a lease held by the crashed session, so recovery releases it
    // back onto every eligible worklist instead of parking it on a
    // dead worker. Bob can now take over the work.
    assert_eq!(recovered.worklist("bob").len(), 2, "lease released");
    assert_eq!(recovered.worklist("ann").len(), 2);
    recovered.execute_item(items[0], "bob").unwrap();
    assert_eq!(recovered.status(ids[0]).unwrap(), InstanceStatus::Finished);
    assert_eq!(recovered.status(ids[1]).unwrap(), InstanceStatus::Finished);
    assert_eq!(recovered.status(ids[2]).unwrap(), InstanceStatus::Running);
}

#[test]
fn repeated_checkpoints_keep_only_the_last() {
    let (fed, registry) = world();
    let def = ProcessBuilder::new("p").program("A", "ok").build().unwrap();
    let engine = Engine::new(Arc::clone(&fed), Arc::clone(&registry));
    engine.register(def.clone()).unwrap();
    for _ in 0..3 {
        let id = engine.start("p", Container::empty()).unwrap();
        engine.run_to_quiescence(id).unwrap();
        engine.checkpoint();
    }
    let events = engine.journal_events();
    let checkpoints = events
        .iter()
        .filter(|e| matches!(e, Event::EngineCheckpoint { .. }))
        .count();
    assert_eq!(
        checkpoints, 1,
        "compaction keeps only the newest checkpoint"
    );
    assert!(matches!(events[0], Event::EngineCheckpoint { .. }));
    engine.crash();

    let recovered = recover_from(
        Journal::new(),
        events,
        vec![def],
        OrgModel::new(),
        fed,
        registry,
    )
    .unwrap();
    assert_eq!(recovered.instances().len(), 3);
    // Fresh instances keep allocating past the snapshot's counter.
    let id4 = recovered.start("p", Container::empty()).unwrap();
    assert_eq!(id4, wfms_engine::InstanceId(4));
}

#[test]
fn checkpoint_of_idle_engine_is_tiny_and_recoverable() {
    let (fed, registry) = world();
    let engine = Engine::new(Arc::clone(&fed), Arc::clone(&registry));
    engine.checkpoint();
    let events = engine.journal_events();
    assert_eq!(events.len(), 1);
    engine.crash();
    let recovered = recover_from(
        Journal::new(),
        events,
        vec![],
        OrgModel::new(),
        fed,
        registry,
    )
    .unwrap();
    assert!(recovered.instances().is_empty());
}
