//! Forward recovery across the whole stack (§3.3: "the process
//! execution is resumed from the point where the failure occurred"):
//! crash the engine after every navigation step while it runs an
//! Exotica-translated process, recover from the journal **against the
//! same (durable) databases**, resume — the final outcome and database
//! state must match an uninterrupted run. The activity in flight at
//! the crash may execute twice (the paper's documented caveat:
//! workflow activities are not failure atomic and are re-executed from
//! the beginning); the fixture programs are idempotent writes, exactly
//! the book-keeping the paper says the designer must provide.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wftx::engine::{recover_from, Engine, InstanceStatus, Journal, OrgModel};
use wftx::model::Container;

/// Runs `def` for `steps` navigation steps on a fresh world, crashes,
/// recovers on the same federation, completes, and returns
/// (federation, final output container, total steps available).
fn crash_and_recover(
    def: &wftx::model::ProcessDefinition,
    install: impl Fn(&Arc<MultiDatabase>, &ProgramRegistry),
    plans: &[(&str, FailurePlan)],
    steps: usize,
) -> (Arc<MultiDatabase>, Container, bool) {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    install(&fed, &registry);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }

    let engine = Engine::new(Arc::clone(&fed), Arc::clone(&registry));
    engine.register(def.clone()).unwrap();
    let id = engine.start(&def.name, Container::empty()).unwrap();
    let mut exhausted = false;
    for _ in 0..steps {
        if !engine.step(id).unwrap() {
            exhausted = true;
            break;
        }
    }
    let events = engine.journal_events();
    engine.crash();

    // Recover against the SAME federation: local databases are
    // durable, autonomous systems that survive an engine crash.
    let engine2 = recover_from(
        Journal::new(),
        events,
        vec![def.clone()],
        OrgModel::new(),
        Arc::clone(&fed),
        registry,
    )
    .unwrap();
    let status = engine2.run_to_quiescence(id).unwrap();
    assert_eq!(status, InstanceStatus::Finished);
    let out = engine2.output(id).unwrap();
    (fed, out, exhausted)
}

#[test]
fn saga_crash_after_every_step_compensating_run() {
    let n = 4;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let plans = [("S3", FailurePlan::Always)];
    for steps in 0..40 {
        let (fed, out, exhausted) = crash_and_recover(
            &def,
            |fed, reg| fixtures::register_saga_programs(fed, reg, n),
            &plans,
            steps,
        );
        assert_eq!(
            out.get("Committed").and_then(|v| v.as_int()),
            Some(0),
            "steps={steps}: saga must still end compensated"
        );
        assert_eq!(fixtures::marker(&fed, "S1"), Some(-1), "steps={steps}");
        assert_eq!(fixtures::marker(&fed, "S2"), Some(-1), "steps={steps}");
        assert_eq!(fixtures::marker(&fed, "S3"), None, "steps={steps}");
        assert_eq!(fixtures::marker(&fed, "S4"), None, "steps={steps}");
        if exhausted {
            return; // covered every crash point
        }
    }
    panic!("run never quiesced within the step budget");
}

#[test]
fn saga_crash_after_every_step_successful_run() {
    let n = 3;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    for steps in 0..40 {
        let (fed, out, exhausted) = crash_and_recover(
            &def,
            |fed, reg| fixtures::register_saga_programs(fed, reg, n),
            &[],
            steps,
        );
        assert_eq!(
            out.get("Committed").and_then(|v| v.as_int()),
            Some(1),
            "steps={steps}"
        );
        for i in 1..=n {
            assert_eq!(
                fixtures::marker(&fed, &format!("S{i}")),
                Some(1),
                "steps={steps} S{i}"
            );
        }
        if exhausted {
            return;
        }
    }
    panic!("run never quiesced within the step budget");
}

#[test]
fn flex_crash_after_every_step_t8_failure_run() {
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    let plans = [("T8", FailurePlan::Always)];
    for steps in 0..60 {
        let (fed, out, exhausted) =
            crash_and_recover(&def, fixtures::register_figure3_programs, &plans, steps);
        assert_eq!(
            out.get("Committed").and_then(|v| v.as_int()),
            Some(1),
            "steps={steps}: must commit via p2"
        );
        assert_eq!(fixtures::marker(&fed, "T5"), Some(-1), "steps={steps}");
        assert_eq!(fixtures::marker(&fed, "T6"), Some(-1), "steps={steps}");
        assert_eq!(fixtures::marker(&fed, "T7"), Some(1), "steps={steps}");
        if exhausted {
            return;
        }
    }
    panic!("run never quiesced within the step budget");
}

/// Recovery of a complete journal is a no-op: nothing re-executes and
/// no new events are journalled.
#[test]
fn recovery_of_a_complete_journal_is_a_no_op() {
    let n = 3;
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_saga_programs(&fed, &registry, n);
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let engine = Engine::new(Arc::clone(&fed), Arc::clone(&registry));
    engine.register(def.clone()).unwrap();
    let id = engine.start("rsaga", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let events = engine.journal_events();
    let writes_before = fed.db("saga_db").unwrap().stats().writes;
    engine.crash();

    let engine2 = recover_from(
        Journal::new(),
        events.clone(),
        vec![def],
        OrgModel::new(),
        Arc::clone(&fed),
        registry,
    )
    .unwrap();
    assert_eq!(engine2.status(id).unwrap(), InstanceStatus::Finished);
    engine2.run_to_quiescence(id).unwrap();
    assert_eq!(
        fed.db("saga_db").unwrap().stats().writes,
        writes_before,
        "no re-execution"
    );
    assert_eq!(engine2.journal_events().len(), events.len());
}

/// One activity may run twice across a crash — and only the one that
/// was in flight. Crash exactly while S2 is running.
#[test]
fn in_flight_activity_reexecutes_exactly_once() {
    let n = 3;
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_saga_programs(&fed, &registry, n);
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let engine = Engine::new(Arc::clone(&fed), Arc::clone(&registry));
    engine.register(def.clone()).unwrap();
    let id = engine.start("rsaga", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let events = engine.journal_events();
    engine.crash();

    // Truncate the journal to just after S2 started.
    let cut = events
        .iter()
        .position(
            |e| matches!(e, wftx::engine::Event::ActivityStarted { path, .. } if path == "Forward/S2"),
        )
        .unwrap()
        + 1;

    // Same durable federation; S1 and S2 already committed there (S2's
    // transaction committed before the crash — the engine just never
    // saw the notification, the paper's "totally executed but the WFMS
    // had not been notified" case).
    let engine2 = recover_from(
        Journal::new(),
        events[..cut].to_vec(),
        vec![def],
        OrgModel::new(),
        Arc::clone(&fed),
        Arc::clone(&registry),
    )
    .unwrap();
    assert_eq!(
        engine2.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    // S2 ran twice in total (once before the crash, once after):
    // idempotent write, same final state. Every other activity ran
    // exactly once.
    let by_activity = wftx::engine::audit::executions_by_activity(&engine2.journal_events(), id);
    assert_eq!(
        by_activity["Forward/S2"], 2,
        "re-executed once after recovery"
    );
    assert_eq!(by_activity["Forward/S1"], 1);
    assert_eq!(by_activity["Forward/S3"], 1);
    for i in 1..=n {
        assert_eq!(fixtures::marker(&fed, &format!("S{i}")), Some(1));
    }
}
