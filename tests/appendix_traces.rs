//! Golden-trace reproductions of the paper's appendix
//! ("Execution Examples"): the narrated saga execution and the
//! narrated flexible-transaction execution, pinned event-for-event
//! against the engine's journal.
//!
//! Experiments E6 and E7 of EXPERIMENTS.md.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wftx::engine::{audit, Engine, InstanceStatus};
use wftx::model::Container;

fn saga_rig(n: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_saga_programs(&fed, &registry, n);
    (fed, registry)
}

/// Appendix, "Sagas": the forward block runs the subtransactions in
/// order; when one aborts, the block terminates by dead path
/// elimination, the compensation block receives the `State_i` flags
/// through the data container mapping, the NOP's connectors select
/// the last executed activity, and compensation proceeds in reverse
/// order.
#[test]
fn appendix_saga_trace_abort_at_s2() {
    let (fed, registry) = saga_rig(3);
    fed.injector().set_plan("S2", FailurePlan::Always);
    let spec = fixtures::linear_saga("appendix_saga", 3);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();

    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def).unwrap();
    let id = engine.start("appendix_saga", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );

    let trace = audit::trace(&engine.journal_events(), id);
    assert_eq!(
        trace,
        vec![
            "start:Forward#0",
            "start:Forward/S1#0",
            "finish:Forward/S1=1",
            "start:Forward/S2#0",
            "finish:Forward/S2=0",
            "dead:Forward/S3",
            "finish:Forward=0",
            "start:Compensation#0",
            "start:Compensation/NOP#0",
            "finish:Compensation/NOP=1",
            "dead:Compensation/Comp_S3",
            "dead:Compensation/Comp_S2",
            "start:Compensation/Comp_S1#0",
            "finish:Compensation/Comp_S1=1",
            "finish:Compensation=1",
            "done",
        ]
    );

    // Database effect: S1 compensated (-1), S2/S3 never committed.
    assert_eq!(fixtures::marker(&fed, "S1"), Some(-1));
    assert_eq!(fixtures::marker(&fed, "S2"), None);
    assert_eq!(fixtures::marker(&fed, "S3"), None);
    // Process outcome container.
    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(0));
}

/// Appendix: "If both of them execute successfully, the block
/// terminates … the compensation block is not executed. By dead path
/// elimination it is marked as finished and the entire process
/// terminates."
#[test]
fn appendix_saga_trace_success() {
    let (fed, registry) = saga_rig(3);
    let spec = fixtures::linear_saga("appendix_saga", 3);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def).unwrap();
    let id = engine.start("appendix_saga", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();

    let trace = audit::trace(&engine.journal_events(), id);
    assert_eq!(
        trace,
        vec![
            "start:Forward#0",
            "start:Forward/S1#0",
            "finish:Forward/S1=1",
            "start:Forward/S2#0",
            "finish:Forward/S2=1",
            "start:Forward/S3#0",
            "finish:Forward/S3=1",
            "finish:Forward=1",
            "dead:Compensation",
            "done",
        ]
    );
    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(1));
    for i in 1..=3 {
        assert_eq!(fixtures::marker(&fed, &format!("S{i}")), Some(1));
    }
}

/// Appendix: "compensations are in general considered retrievable …
/// If it fails, it should be retried until it succeeds. This can be
/// done by using the exit condition of the activities."
#[test]
fn appendix_saga_compensation_retries_via_exit_condition() {
    let (fed, registry) = saga_rig(2);
    fed.injector().set_plan("S2", FailurePlan::Always);
    fed.injector().set_plan("undo_S1", FailurePlan::FirstN(2));
    let spec = fixtures::linear_saga("appendix_saga", 2);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def).unwrap();
    let id = engine.start("appendix_saga", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();

    let by_activity = audit::executions_by_activity(&engine.journal_events(), id);
    assert_eq!(
        by_activity["Compensation/Comp_S1"], 3,
        "two failed attempts + the success"
    );
    let s = audit::summarize(&engine.journal_events(), id);
    assert_eq!(s.reschedules, 2);
    assert_eq!(fixtures::marker(&fed, "S1"), Some(-1));
}

fn figure3_engine(
    plans: &[(&str, FailurePlan)],
) -> (Arc<MultiDatabase>, Engine, wftx::engine::InstanceId) {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_figure3_programs(&fed, &registry);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def).unwrap();
    let id = engine.start("figure3", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    (fed, engine, id)
}

/// Appendix, "Flexible Transactions": the happy path — "first T1 is
/// executed … If T1 commits … T2 is executed … Upon successful
/// completion of T4, the block that contains T5 and T6 is started. If
/// both transactions commit, T8 is executed."
#[test]
fn appendix_flex_trace_happy_path() {
    let (fed, engine, id) = figure3_engine(&[]);
    let trace = audit::trace(&engine.journal_events(), id);
    assert_eq!(
        trace,
        vec![
            "start:Blk_T1#0",
            "start:Blk_T1/T1#0",
            "finish:Blk_T1/T1=1",
            "finish:Blk_T1=1",
            "start:T2#0",
            "finish:T2=1",
            // T2's commit immediately kills its failure route (dead
            // path elimination runs inline with each termination).
            "dead:Comp_T1",
            "start:T4#0",
            "finish:T4=1",
            "dead:T3",
            "start:Blk_T5_T6#0",
            "start:Blk_T5_T6/T5#0",
            "finish:Blk_T5_T6/T5=1",
            "start:Blk_T5_T6/T6#0",
            "finish:Blk_T5_T6/T6=1",
            "finish:Blk_T5_T6=1",
            "start:T8#0",
            "finish:T8=1",
            "dead:Comp_T5_T6",
            "dead:T7",
            "done",
        ]
    );
    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(1));
    assert_eq!(out.get("Via_0").and_then(|v| v.as_int()), Some(1));
    assert_eq!(fixtures::marker(&fed, "T8"), Some(1));
}

/// Appendix: "If T1 aborts, the return code is 0 and therefore the
/// outgoing control connector from T1 is deactivated … all other
/// activities will be marked as terminated following a similar
/// mechanism and the overall process eventually terminates."
#[test]
fn appendix_flex_trace_t1_aborts() {
    let (_, engine, id) = figure3_engine(&[("T1", FailurePlan::Always)]);
    let trace = audit::trace(&engine.journal_events(), id);
    // T1 aborts inside its segment; the (empty) compensation runs; by
    // dead path elimination every other activity is terminated.
    assert!(trace.contains(&"finish:Blk_T1/T1=0".to_string()));
    assert!(trace.contains(&"finish:Blk_T1=0".to_string()));
    assert!(trace.contains(&"dead:T2".to_string()));
    assert!(trace.contains(&"dead:T8".to_string()));
    assert!(trace.contains(&"dead:T3".to_string()));
    assert!(trace.contains(&"dead:T7".to_string()));
    assert!(trace.contains(&"dead:Comp_T1/Comp_T1".to_string()));
    assert_eq!(trace.last().unwrap(), "done");
    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(0));
}

/// Appendix: "When T2 commits, T4 is executed. If T4 aborts, T3 is
/// executed until it successfully commits. All other activities are
/// marked as terminated by dead path elimination."
#[test]
fn appendix_flex_trace_t4_aborts_t3_retries() {
    let (fed, engine, id) =
        figure3_engine(&[("T4", FailurePlan::Always), ("T3", FailurePlan::FirstN(2))]);
    let by_activity = audit::executions_by_activity(&engine.journal_events(), id);
    assert_eq!(by_activity["T3"], 3, "T3 retried until commit");
    assert_eq!(by_activity["T4"], 1);
    assert!(!by_activity.contains_key("T7"));
    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(1));
    assert_eq!(out.get("Via_2").and_then(|v| v.as_int()), Some(1));
    assert_eq!(fixtures::marker(&fed, "T3"), Some(1));
    assert_eq!(fixtures::marker(&fed, "T5"), None, "p1 branch never ran");
}

/// Appendix: "If either one of T5, T6 or T8 aborts, control is given
/// to the compensation block containing T5⁻¹ and T6⁻¹ … T5⁻¹ and T6⁻¹
/// are executed depending on whether their corresponding transaction
/// committed or not. Once the compensating block commits, T7 is
/// executed until it commits."
#[test]
fn appendix_flex_trace_t8_aborts_compensation_then_t7() {
    let (fed, engine, id) = figure3_engine(&[("T8", FailurePlan::Always)]);
    let trace = audit::trace(&engine.journal_events(), id);

    // Compensation order: T6 before T5 (reverse commit order).
    let pos = |needle: &str| {
        trace
            .iter()
            .position(|t| t == needle)
            .unwrap_or_else(|| panic!("{needle} not in trace: {trace:?}"))
    };
    assert!(pos("finish:T8=0") < pos("start:Comp_T5_T6#0"));
    assert!(pos("start:Comp_T5_T6/Comp_T6#0") < pos("start:Comp_T5_T6/Comp_T5#0"));
    assert!(pos("finish:Comp_T5_T6/Comp_T5=1") < pos("start:T7#0"));

    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(1));
    assert_eq!(out.get("Via_0").and_then(|v| v.as_int()), Some(0));
    assert_eq!(out.get("Via_1").and_then(|v| v.as_int()), Some(1));
    assert_eq!(fixtures::marker(&fed, "T5"), Some(-1));
    assert_eq!(fixtures::marker(&fed, "T6"), Some(-1));
    assert_eq!(fixtures::marker(&fed, "T7"), Some(1));
}

/// Appendix: "If T6 [aborts] … Using the data connector, the return
/// code for both T5 and T6 is available in the compensating block.
/// T5⁻¹ and T6⁻¹ are executed depending on whether their corresponding
/// transaction committed or not" — here only T5 committed, so only
/// T5⁻¹ runs.
#[test]
fn appendix_flex_trace_t6_aborts_only_t5_compensated() {
    let (fed, engine, id) = figure3_engine(&[("T6", FailurePlan::Always)]);
    let by_activity = audit::executions_by_activity(&engine.journal_events(), id);
    assert!(by_activity.contains_key("Comp_T5_T6/Comp_T5"));
    assert!(
        !by_activity.contains_key("Comp_T5_T6/Comp_T6"),
        "T6 never committed, so T6⁻¹ must not run"
    );
    assert_eq!(fixtures::marker(&fed, "T5"), Some(-1));
    assert_eq!(fixtures::marker(&fed, "T6"), None);
    assert_eq!(fixtures::marker(&fed, "T7"), Some(1));
}
