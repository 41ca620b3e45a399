//! Edge cases of the Exotica translations: degenerate sizes, single
//! paths, pivot-free specs, and behaviour of the generated processes
//! at the boundaries.

use atm::{FlexSpec, FlexStep, SagaSpec, StepSpec};
use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::Container;

fn run(
    def: &wfms_model::ProcessDefinition,
    world: (Arc<MultiDatabase>, Arc<ProgramRegistry>),
) -> (bool, Arc<MultiDatabase>) {
    let (fed, registry) = world;
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def.clone()).unwrap();
    let id = engine.start(&def.name, Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    let committed = engine
        .output(id)
        .unwrap()
        .get("Committed")
        .and_then(|v| v.as_int())
        == Some(1);
    (committed, fed)
}

fn kv_world(steps: &[(&str, Option<&str>)]) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    for (step, comp) in steps {
        registry.register(Arc::new(
            KvProgram::write(&format!("prog_{step}"), "db", step, 1i64).with_label(step),
        ));
        if let Some(comp) = comp {
            registry.register(Arc::new(KvProgram::write(comp, "db", step, Value::Int(-1))));
        }
    }
    (fed, registry)
}

#[test]
fn one_step_saga_commits_and_compensates() {
    let spec = SagaSpec::linear(
        "one",
        vec![StepSpec::compensatable("S", "prog_S", "comp_S")],
    );
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();

    let world = kv_world(&[("S", Some("comp_S"))]);
    let (committed, fed) = run(&def, world);
    assert!(committed);
    assert_eq!(fed.db("db").unwrap().peek("S"), Some(Value::Int(1)));

    let world = kv_world(&[("S", Some("comp_S"))]);
    world.0.injector().set_plan("S", FailurePlan::Always);
    let (committed, fed) = run(&def, world);
    assert!(!committed);
    // S never committed, so nothing to compensate.
    assert_eq!(fed.db("db").unwrap().peek("S"), None);
}

#[test]
fn single_path_flex_is_a_degenerate_saga() {
    // One path, no alternatives: commit on success, full compensation
    // on any failure (exactly a saga with a pivot tail).
    let spec = FlexSpec::new(
        "single",
        vec![
            FlexStep::compensatable("A", "prog_A", "comp_A"),
            FlexStep::compensatable("B", "prog_B", "comp_B"),
            FlexStep::pivot("P", "prog_P"),
        ],
        vec![vec!["A", "B", "P"]],
    );
    let def = exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap();

    let world = kv_world(&[("A", Some("comp_A")), ("B", Some("comp_B")), ("P", None)]);
    let (committed, _) = run(&def, world);
    assert!(committed);

    // P fails: A and B compensated, transaction aborted.
    let world = kv_world(&[("A", Some("comp_A")), ("B", Some("comp_B")), ("P", None)]);
    world.0.injector().set_plan("P", FailurePlan::Always);
    let (committed, fed) = run(&def, world);
    assert!(!committed);
    assert_eq!(fed.db("db").unwrap().peek("A"), Some(Value::Int(-1)));
    assert_eq!(fed.db("db").unwrap().peek("B"), Some(Value::Int(-1)));
    assert_eq!(fed.db("db").unwrap().peek("P"), None);
}

#[test]
fn pivot_free_flex_with_retriable_fallback() {
    // No pivots at all: a compensatable main path with a retriable
    // fallback; failure of C switches to R with no compensation needed
    // beyond C's own segment.
    let spec = FlexSpec::new(
        "nopivot",
        vec![
            FlexStep::compensatable("C", "prog_C", "comp_C"),
            FlexStep::retriable("R", "prog_R"),
        ],
        vec![vec!["C"], vec!["R"]],
    );
    let def = exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap();

    let world = kv_world(&[("C", Some("comp_C")), ("R", None)]);
    world.0.injector().set_plan("C", FailurePlan::Always);
    let (committed, fed) = run(&def, world);
    assert!(committed, "fallback commits via R");
    assert_eq!(fed.db("db").unwrap().peek("R"), Some(Value::Int(1)));
    assert_eq!(fed.db("db").unwrap().peek("C"), None);
}

#[test]
fn all_retriable_flex_always_commits() {
    let spec = FlexSpec::new(
        "allretry",
        vec![
            FlexStep::retriable("R1", "prog_R1"),
            FlexStep::retriable("R2", "prog_R2"),
        ],
        vec![vec!["R1", "R2"]],
    );
    let def = exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap();
    let world = kv_world(&[("R1", None), ("R2", None)]);
    world.0.injector().set_plan("R1", FailurePlan::FirstN(3));
    world.0.injector().set_plan("R2", FailurePlan::FirstN(2));
    let (committed, _) = run(&def, world);
    assert!(committed);
}

#[test]
fn generated_fdl_for_both_translations_reimports() {
    // Round-trip stability across the whole corpus of generated
    // processes: saga sizes 1..10, flat variants, and Figure 3.
    for n in 1..=10 {
        let spec = atm::fixtures::linear_saga(&format!("s{n}"), n);
        for def in [
            exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap(),
            exotica::translate_saga_flat(&atm::check_saga(&spec).unwrap()).unwrap(),
        ] {
            let fdl = wfms_fdl::emit(&def);
            let back =
                wfms_fdl::parse_and_validate(&fdl).unwrap_or_else(|e| panic!("n={n}: {e:?}"));
            assert_eq!(back, def, "n={n}");
        }
    }
    let def =
        exotica::translate_flex(&atm::check_flex(&atm::fixtures::figure3_spec()).unwrap()).unwrap();
    let back = wfms_fdl::parse_and_validate(&wfms_fdl::emit(&def)).unwrap();
    assert_eq!(back, def);
}

#[test]
fn native_flex_stuck_on_lying_compensation() {
    // A compensation that never commits exhausts the retry bound:
    // the native executor reports Stuck rather than hanging.
    let spec = FlexSpec::new(
        "liar",
        vec![
            FlexStep::compensatable("C", "prog_C", "comp_C"),
            FlexStep::pivot("P", "prog_P"),
            FlexStep::retriable("R", "prog_R"),
        ],
        vec![vec!["C", "P"], vec!["R"]],
    );
    let (fed, registry) = kv_world(&[("C", Some("comp_C")), ("P", None), ("R", None)]);
    fed.injector().set_plan("P", FailurePlan::Always);
    fed.injector().set_plan("comp_C", FailurePlan::Always);
    let mut exec = atm::FlexExecutor::new(Arc::clone(&fed), registry);
    exec.max_retries = 4;
    let res = exec.run(&spec).unwrap();
    assert_eq!(res.outcome, atm::FlexOutcome::Stuck { step: "C".into() });
}
