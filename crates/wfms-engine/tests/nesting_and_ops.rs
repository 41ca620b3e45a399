//! Deeper engine coverage: multi-level block nesting, manual
//! activities and deadlines inside blocks, template versioning,
//! multi-instance isolation, cancellation of nested instances, and
//! operator interventions on failure paths.

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry, Value};
use wfms_engine::{audit, Engine, EngineConfig, EngineError, InstanceStatus, OrgModel};
use wfms_model::{
    Activity, Container, ContainerSchema, DataType, ProcessBuilder, ProcessDefinition,
};

fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    registry.register_fn("fail", |_| ProgramOutcome::aborted("scripted"));
    (fed, registry)
}

/// Three levels of blocks, data threaded from the innermost activity
/// to the root process output.
#[test]
fn three_level_nesting_threads_data_to_the_root() {
    let (fed, registry) = world();
    registry.register_fn("deep", |_| ProgramOutcome::Committed {
        rc: 1,
        outputs: [("v".to_string(), Value::Int(77))].into_iter().collect(),
    });
    let level3 = ProcessBuilder::new("L3")
        .output(ContainerSchema::of(&[("v", DataType::Int)]))
        .activity(
            Activity::program("Leaf", "deep")
                .with_output(ContainerSchema::of(&[("v", DataType::Int)])),
        )
        .map_to_process_output("Leaf", &[("v", "v")])
        .build()
        .unwrap();
    let level2 = ProcessBuilder::new("L2")
        .output(ContainerSchema::of(&[("v", DataType::Int)]))
        .block("Inner", level3)
        .map_to_process_output("Inner", &[("v", "v")])
        .build()
        .unwrap();
    let root = ProcessBuilder::new("L1")
        .output(ContainerSchema::of(&[("out", DataType::Int)]))
        .block("Mid", level2)
        .map_to_process_output("Mid", &[("v", "out")])
        .build()
        .unwrap();
    assert_eq!(root.nesting_depth(), 3);

    let engine = Engine::new(fed, registry);
    engine.register(root).unwrap();
    let id = engine.start("L1", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    assert_eq!(engine.output(id).unwrap().get("out"), Some(&Value::Int(77)));
    // Nested paths appear with full scope prefixes.
    let order = audit::execution_order(&engine.journal_events(), id);
    assert_eq!(order, vec!["Mid", "Mid/Inner", "Mid/Inner/Leaf"]);
}

/// A manual activity inside a block surfaces on worklists with its
/// nested path, and executing it completes the block.
#[test]
fn manual_activity_inside_a_block() {
    let (fed, registry) = world();
    let org = OrgModel::new().person("ann", &["clerk"]);
    let inner = ProcessBuilder::new("Review")
        .activity(Activity::program("Check", "ok").for_role("clerk"))
        .build()
        .unwrap();
    let root = ProcessBuilder::new("proc")
        .block("Review", inner)
        .program("After", "ok")
        .connect("Review", "After")
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(root).unwrap();
    let id = engine.start("proc", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let items = engine.worklist("ann");
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].path, "Review/Check");
    engine.execute_item(items[0].id, "ann").unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
}

/// Deadlines fire for ready manual activities inside running blocks.
#[test]
fn deadline_notification_reaches_into_blocks() {
    let (fed, registry) = world();
    let org = OrgModel::new()
        .person("boss", &["chief"])
        .person_under("ann", &["clerk"], "boss", 2);
    let inner = ProcessBuilder::new("Inner")
        .activity(
            Activity::program("Slow", "ok")
                .for_role("clerk")
                .with_deadline(5),
        )
        .build()
        .unwrap();
    let root = ProcessBuilder::new("proc")
        .block("Inner", inner)
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(root).unwrap();
    let id = engine.start("proc", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let sent = engine.advance_clock(10);
    assert_eq!(sent, vec![("Inner/Slow".to_string(), "boss".to_string())]);
    let _ = id;
}

/// Re-registering a template under the same name affects future
/// instances only; running instances keep their definition.
#[test]
fn template_versioning_isolates_running_instances() {
    let (fed, registry) = world();
    let org = OrgModel::new().person("ann", &["clerk"]);
    let v1 = ProcessBuilder::new("p")
        .version(1)
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .program("OldTail", "ok")
        .connect("M", "OldTail")
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(v1).unwrap();
    let id1 = engine.start("p", Container::empty()).unwrap();
    engine.run_to_quiescence(id1).unwrap(); // waits on M

    // Version 2 renames the tail.
    let v2 = ProcessBuilder::new("p")
        .version(2)
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .program("NewTail", "ok")
        .connect("M", "NewTail")
        .build()
        .unwrap();
    engine.register(v2).unwrap();
    let id2 = engine.start("p", Container::empty()).unwrap();
    engine.run_to_quiescence(id2).unwrap();

    // Finish both manual steps.
    for item in engine.worklist("ann") {
        engine.execute_item(item.id, "ann").unwrap();
    }
    assert_eq!(engine.status(id1).unwrap(), InstanceStatus::Finished);
    assert_eq!(engine.status(id2).unwrap(), InstanceStatus::Finished);
    // The old instance ran OldTail; the new one ran NewTail.
    let ev = engine.journal_events();
    let o1 = audit::execution_order(&ev, id1);
    let o2 = audit::execution_order(&ev, id2);
    assert!(o1.contains(&"OldTail".to_string()));
    assert!(!o1.contains(&"NewTail".to_string()));
    assert!(o2.contains(&"NewTail".to_string()));
    assert!(!o2.contains(&"OldTail".to_string()));
}

/// Instances are isolated: many concurrent instances of one template
/// finish independently with their own containers.
#[test]
fn multi_instance_isolation() {
    let (fed, registry) = world();
    registry.register_fn("echo", |ctx| {
        let n = ctx.params.get("n").and_then(|v| v.as_int()).unwrap_or(-1);
        ProgramOutcome::Committed {
            rc: 1,
            outputs: [("m".to_string(), Value::Int(n * 2))].into_iter().collect(),
        }
    });
    let def = ProcessBuilder::new("echoer")
        .input(ContainerSchema::of(&[("n", DataType::Int)]))
        .output(ContainerSchema::of(&[("m", DataType::Int)]))
        .activity(
            Activity::program("E", "echo")
                .with_input(ContainerSchema::of(&[("n", DataType::Int)]))
                .with_output(ContainerSchema::of(&[("m", DataType::Int)])),
        )
        .map_process_input("E", &[("n", "n")])
        .map_to_process_output("E", &[("m", "m")])
        .build()
        .unwrap();
    let engine = Engine::new(fed, registry);
    engine.register(def).unwrap();
    let ids: Vec<_> = (0..20)
        .map(|i| {
            let mut input = Container::empty();
            input.set("n", Value::Int(i));
            engine.start("echoer", input).unwrap()
        })
        .collect();
    engine.run_all().unwrap();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(engine.status(*id).unwrap(), InstanceStatus::Finished);
        assert_eq!(
            engine.output(*id).unwrap().get("m"),
            Some(&Value::Int(i as i64 * 2))
        );
    }
}

/// Cancelling an instance with a running nested block stops all
/// navigation and clears nested work items.
#[test]
fn cancel_with_running_nested_block() {
    let (fed, registry) = world();
    let org = OrgModel::new().person("ann", &["clerk"]);
    let inner = ProcessBuilder::new("Inner")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .build()
        .unwrap();
    let root = ProcessBuilder::new("proc")
        .block("Inner", inner)
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(root).unwrap();
    let id = engine.start("proc", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    assert_eq!(engine.worklist("ann").len(), 1);
    engine.cancel(id).unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Cancelled);
    assert!(engine.worklist("ann").is_empty());
    // Executing the stale item now fails cleanly.
    let events = engine.journal_events();
    let item = events
        .iter()
        .find_map(|e| match e {
            wfms_engine::Event::WorkItemOffered { item, .. } => Some(*item),
            _ => None,
        })
        .unwrap();
    assert!(matches!(
        engine.execute_item(item, "ann"),
        Err(EngineError::Worklist(_))
    ));
}

/// Claims in turn: of eight persons claiming one work item, exactly one
/// wins and the item vanishes from every other worklist. An engine has
/// one owner, so claims race only as calls in some order.
#[test]
fn concurrent_claims_are_exclusive() {
    let (fed, registry) = world();
    let mut org = OrgModel::new();
    for i in 0..8 {
        org = org.person(&format!("p{i}"), &["clerk"]);
    }
    let def = ProcessBuilder::new("race")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(def).unwrap();
    let id = engine.start("race", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let item = engine.worklist("p0")[0].id;

    let wins = (0..8)
        .filter(|i| engine.claim(item, &format!("p{i}")).is_ok())
        .count();
    assert_eq!(wins, 1);
    // Exactly one worklist still shows the item (the claimer's).
    let visible = (0..8)
        .filter(|i| !engine.worklist(&format!("p{i}")).is_empty())
        .count();
    assert_eq!(visible, 1);
}

/// Releasing a claim re-offers the item to everyone; a different
/// person can then execute it.
#[test]
fn release_returns_item_to_all_worklists() {
    let (fed, registry) = world();
    let org = OrgModel::new()
        .person("ann", &["clerk"])
        .person("bob", &["clerk"]);
    let def = ProcessBuilder::new("rel")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(def).unwrap();
    let id = engine.start("rel", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let item = engine.worklist("ann")[0].id;

    engine.claim(item, "ann").unwrap();
    assert!(engine.worklist("bob").is_empty());
    // Only the claimer may release.
    assert!(matches!(
        engine.release(item, "bob"),
        Err(EngineError::Worklist(_))
    ));
    engine.release(item, "ann").unwrap();
    assert_eq!(engine.worklist("bob").len(), 1, "bob sees it again");
    engine.execute_item(item, "bob").unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
}

/// Absence substitution at offer time: work for an absent person is
/// offered to the substitute; returning restores direct offers.
#[test]
fn absence_redirects_new_offers() {
    let (fed, registry) = world();
    let org = OrgModel::new()
        .person("ann", &["clerk"])
        .person("bob", &["backup"]);
    let def = ProcessBuilder::new("abs")
        .activity(Activity::program("M", "ok").for_person("ann"))
        .build()
        .unwrap();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(def).unwrap();

    engine.set_absent("ann", true, Some("bob"));
    let id = engine.start("abs", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    assert!(engine.worklist("ann").is_empty(), "ann is away");
    let items = engine.worklist("bob");
    assert_eq!(items.len(), 1, "bob covers for ann");
    engine.execute_item(items[0].id, "bob").unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);

    // ann returns: the next instance goes to her directly.
    engine.set_absent("ann", false, None);
    let id2 = engine.start("abs", Container::empty()).unwrap();
    engine.run_to_quiescence(id2).unwrap();
    assert_eq!(engine.worklist("ann").len(), 1);
    assert!(engine.worklist("bob").is_empty());
}

/// The engine enumerates its instances with statuses.
#[test]
fn instance_listing() {
    let (fed, registry) = world();
    let def = ProcessBuilder::new("p").program("A", "ok").build().unwrap();
    let engine = Engine::new(fed, registry);
    engine.register(def).unwrap();
    let a = engine.start("p", Container::empty()).unwrap();
    let b = engine.start("p", Container::empty()).unwrap();
    engine.run_to_quiescence(a).unwrap();
    engine.cancel(b).unwrap();
    let listing = engine.instances();
    assert_eq!(listing.len(), 2);
    assert!(listing.contains(&(a, "p".to_string(), InstanceStatus::Finished)));
    assert!(listing.contains(&(b, "p".to_string(), InstanceStatus::Cancelled)));
}

/// `activity_state` and error paths for unknown addresses.
#[test]
fn introspection_error_paths() {
    let (fed, registry) = world();
    let def: ProcessDefinition = ProcessBuilder::new("p").program("A", "ok").build().unwrap();
    let engine = Engine::new(fed, registry);
    engine.register(def).unwrap();
    let id = engine.start("p", Container::empty()).unwrap();
    assert!(matches!(
        engine.activity_state(id, "Nope"),
        Err(EngineError::BadActivityState { .. })
    ));
    assert!(matches!(
        engine.status(wfms_engine::InstanceId(99)),
        Err(EngineError::UnknownInstance(_))
    ));
    assert!(matches!(
        engine.force_finish(id, "Nope", 1),
        Err(EngineError::BadActivityState { .. })
    ));
    assert!(matches!(
        engine.cancel(wfms_engine::InstanceId(99)),
        Err(EngineError::UnknownInstance(_))
    ));
    engine.run_to_quiescence(id).unwrap();
    // Force-finish on a terminated activity is rejected.
    assert!(matches!(
        engine.force_finish(id, "A", 1),
        Err(EngineError::BadActivityState { .. })
    ));
}
