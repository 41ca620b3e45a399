//! Simulated business time ("makespan"): programs carry virtual-clock
//! durations, so a workflow run accumulates the time its executed path
//! would take in the real world. The paper's processes are
//! *long-running* — hours to weeks — and the interesting cost of a
//! failure is not engine microseconds but the extra business time the
//! compensation/fallback path burns. These tests pin the makespan
//! algebra of the Figure 3 scenarios.

use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry, Value};
use wftx::engine::{Engine, InstanceStatus};
use wftx::model::Container;

/// Per-step business durations (ticks). Forward steps are slow;
/// compensations cost half of their forward step.
const DUR: &[(&str, u64)] = &[
    ("T1", 10),
    ("T2", 20),
    ("T3", 40),
    ("T4", 20),
    ("T5", 30),
    ("T6", 30),
    ("T7", 50),
    ("T8", 20),
];

fn world(plans: &[(&str, FailurePlan)]) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    for (step, d) in DUR {
        registry.register(Arc::new(
            KvProgram::write(&format!("prog_{step}"), "db", step, 1i64)
                .with_label(step)
                .with_duration(*d),
        ));
        registry.register(Arc::new(
            KvProgram::write(&format!("comp_{step}"), "db", step, Value::Int(-1))
                .with_duration(*d / 2),
        ));
    }
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    (fed, registry)
}

/// Runs the Figure 4 process and returns the simulated makespan.
fn makespan(plans: &[(&str, FailurePlan)]) -> u64 {
    let (fed, registry) = world(plans);
    let def =
        exotica::translate_flex(&atm::check_flex(&atm::fixtures::figure3_spec()).unwrap()).unwrap();
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def).unwrap();
    let id = engine.start("figure3", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    engine.clock().now()
}

#[test]
fn happy_path_makespan_is_the_sum_of_p1_durations() {
    // T1 + T2 + T4 + T5 + T6 + T8 = 10+20+20+30+30+20 = 130.
    assert_eq!(makespan(&[]), 130);
}

#[test]
fn t8_failure_adds_compensations_and_t7() {
    // Forward work up to and including the failed T8 attempt
    // (10+20+20+30+30+20 = 130: the aborted attempt still burns its
    // duration), plus compensations of T6 and T5 (15 + 15), plus T7
    // (50) = 210.
    assert_eq!(makespan(&[("T8", FailurePlan::Always)]), 130 + 15 + 15 + 50);
}

#[test]
fn t4_failure_is_cheaper_than_t8_failure() {
    // T1 + T2 + T4(failed attempt) + T3 = 10+20+20+40 = 90: failing
    // early is cheaper than failing late — the crossover the
    // preference order is designed around.
    let early = makespan(&[("T4", FailurePlan::Always)]);
    let late = makespan(&[("T8", FailurePlan::Always)]);
    assert_eq!(early, 90);
    assert!(early < late);
}

#[test]
fn retries_accumulate_business_time() {
    // T3 needs 3 attempts: its 40-tick duration is paid three times.
    let m = makespan(&[("T4", FailurePlan::Always), ("T3", FailurePlan::FirstN(2))]);
    assert_eq!(m, 10 + 20 + 20 + 3 * 40);
}

#[test]
fn full_abort_pays_forward_plus_compensation() {
    // T1 + T2(failed) + comp(T1) = 10 + 20 + 5 = 35.
    assert_eq!(makespan(&[("T2", FailurePlan::Always)]), 35);
}

#[test]
fn native_executor_agrees_on_makespan() {
    // The native flexible executor burns exactly the same simulated
    // time as the workflow-hosted run for every scenario — virtual
    // time measures the executed path, not the host machinery.
    for plans in [
        vec![],
        vec![("T8", FailurePlan::Always)],
        vec![("T4", FailurePlan::Always)],
        vec![("T2", FailurePlan::Always)],
    ] {
        let wf = makespan(&plans);
        let (fed, registry) = world(&plans);
        let exec = atm::FlexExecutor::new(Arc::clone(&fed), registry);
        exec.run(&atm::fixtures::figure3_spec()).unwrap();
        assert_eq!(fed.clock().now(), wf, "plans {plans:?}");
    }
}
