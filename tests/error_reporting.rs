//! User-facing error rendering across the stack: the strings operators
//! and spec authors actually see. (Error *construction* is covered by
//! the functional tests; these pin the reporting surface.)

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramRegistry};
use wftx::engine::{Engine, EngineError};
use wftx::model::{Container, ProcessBuilder};

fn engine() -> Engine {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    Engine::new(fed, Arc::new(ProgramRegistry::new()))
}

#[test]
fn validation_errors_render_as_a_list() {
    let bad = ProcessBuilder::new("bad")
        .program("A", "p")
        .connect("A", "Ghost1")
        .connect("A", "Ghost2")
        .build_unchecked();
    let err = engine().register(bad).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("2 error(s)"), "{text}");
    assert!(text.contains("Ghost1"));
    assert!(text.contains("Ghost2"));
    assert!(text.contains("[bad]"));
}

#[test]
fn engine_errors_name_their_subjects() {
    let e = engine();
    let err = e.start("nope", Container::empty()).unwrap_err();
    assert_eq!(err.to_string(), "no process template named \"nope\"");

    let err = e.status(wftx::engine::InstanceId(7)).unwrap_err();
    assert_eq!(err.to_string(), "no instance inst#7");

    assert!(EngineError::StepLimit(5)
        .to_string()
        .contains("livelocked exit condition"));
    assert!(EngineError::BadActivityState {
        path: "Fwd/T1".into(),
        expected: "ready",
    }
    .to_string()
    .contains("\"Fwd/T1\" is not ready"));
}

#[test]
fn translate_errors_explain_the_rule() {
    // Figure 2 translates a saga's one path, not a flexible
    // transaction's alternatives.
    let figure3 = atm::fixtures::figure3_spec();
    let err = exotica::translate_saga(&atm::check_flex(&figure3).unwrap()).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("translates sagas only"), "{text}");

    // An ill-formed saga never reaches a translator: its check explains
    // the rule instead.
    let bad = atm::SagaSpec::linear("b", vec![atm::StepSpec::pivot("P", "p")]);
    let errs = atm::check_saga(&bad).unwrap_err();
    let text = errs[0].to_string();
    assert!(text.contains("no compensating transaction"), "{text}");
}

#[test]
fn pipeline_errors_are_stage_tagged() {
    for (src, stage) in [
        ("not a spec", "stage 1"),
        ("SAGA s\nSTEP A PROGRAM \"p\"\nEND", "stage 2"),
        (
            "FLEXIBLE f\nSTEP A PROGRAM \"p\" COMPENSATION \"c\"\nSTEP B PROGRAM \"p\" RETRIABLE\nSTEP C PROGRAM \"p\" COMPENSATION \"c\"\nPATH A B\nPATH C B\nEND",
            "stage 3",
        ),
    ] {
        let err = exotica::run_pipeline(src).unwrap_err();
        assert!(
            err.to_string().contains(stage),
            "{src:?} should fail at {stage}: {err}"
        );
    }
}

#[test]
fn wellformed_errors_cite_the_violation() {
    let mut spec = atm::fixtures::figure3_spec();
    spec.steps
        .iter_mut()
        .find(|s| s.name == "T3")
        .unwrap()
        .class = txn_substrate::StepClass::Pivot;
    let errs = atm::check_flex(&spec).unwrap_err();
    let text: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
    assert!(
        text.iter().any(|t| t.contains("guarantee completion")),
        "{text:?}"
    );
}

#[test]
fn db_errors_render_ids_and_reasons() {
    use txn_substrate::{Database, DbConfig, FailurePlan, Injector};
    let inj = Injector::new(0);
    inj.set_plan("d/commit", FailurePlan::Always);
    let db = Database::new(DbConfig::named("d").with_injector(Arc::clone(&inj)));
    let mut t = db.begin();
    t.put("k", 1i64).unwrap();
    let err = t.commit().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("unilaterally aborted"), "{text}");
    assert!(text.contains("d/commit"), "{text}");

    db.set_down(true);
    let mut t2 = db.begin();
    let err = t2.put("k", 1i64).unwrap_err();
    assert_eq!(err.to_string(), "database \"d\" is unavailable");
}

#[test]
fn recovery_error_names_the_missing_template() {
    let fed = MultiDatabase::new(0);
    let events = vec![wftx::engine::Event::InstanceStarted {
        instance: wftx::engine::InstanceId(1),
        process: "ghost".into(),
        input: Container::empty(),
        tenant: None,
        at: 0,
    }];
    let res = wftx::engine::recover_from(
        wftx::engine::Journal::new(),
        events,
        vec![],
        wftx::engine::OrgModel::new(),
        fed,
        Arc::new(ProgramRegistry::new()),
    );
    let Err(err) = res else {
        panic!("recovery must fail on an unknown template")
    };
    assert!(err.to_string().contains("\"ghost\""));
}

#[test]
fn deadline_renotifies_after_reschedule() {
    // A manual activity whose exit condition sends it back to ready:
    // each readiness period gets its own deadline notification.
    use txn_substrate::ProgramOutcome;
    use wftx::engine::{EngineConfig, OrgModel};
    use wftx::model::Activity;

    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("never_good", |_| ProgramOutcome::Committed {
        rc: 0, // exit condition RC = 1 fails: reschedule
        outputs: Default::default(),
    });
    let org = OrgModel::new()
        .person("boss", &["chief"])
        .person_under("ann", &["clerk"], "boss", 2);
    let def = ProcessBuilder::new("p")
        .activity(
            Activity::program("M", "never_good")
                .for_role("clerk")
                .with_exit("RC = 1")
                .with_deadline(5),
        )
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
    let id = engine.start("p", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();

    // First deadline.
    assert_eq!(engine.advance_clock(6).len(), 1);
    assert!(engine.advance_clock(6).is_empty(), "no duplicate");
    // ann executes; exit condition fails; the activity is re-offered.
    let item = engine.worklist("ann")[0].clone();
    engine.execute_item(item.id, "ann").unwrap();
    let fresh = engine.worklist("ann");
    assert_eq!(fresh.len(), 1);
    assert_ne!(fresh[0].id, item.id, "a fresh offer");
    // The new readiness period deadlines independently.
    assert_eq!(engine.advance_clock(6).len(), 1, "re-notified");
}
