//! The paper's fixtures under the exhaustive crash-point sweep: the
//! linear saga (Figure 2 translation) and the Figure 3 flexible
//! transaction must recover correctly from a crash after **every**
//! journal event — not just the step-granularity samples in
//! `recovery_e2e.rs`. Each sweep also writes a torn half-serialized
//! event after the surviving prefix, so the journal reopen exercises
//! torn-tail truncation at every point.
//!
//! These are the runs `fmtm crashtest --quick` replays in CI.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wftx::engine::crashtest::{sweep, SweepConfig};
use wftx::model::Container;

fn saga_world(
    n: usize,
    plans: &'static [(&'static str, FailurePlan)],
) -> impl Fn() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    move || {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        fixtures::register_saga_programs(&fed, &registry, n);
        for (label, plan) in plans {
            fed.injector().set_plan(label, plan.clone());
        }
        (fed, registry)
    }
}

fn flex_world(
    plans: &'static [(&'static str, FailurePlan)],
) -> impl Fn() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    move || {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        fixtures::register_figure3_programs(&fed, &registry);
        for (label, plan) in plans {
            fed.injector().set_plan(label, plan.clone());
        }
        (fed, registry)
    }
}

#[test]
fn saga_successful_run_survives_every_crash_point() {
    let n = 4;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let report = sweep(
        "saga-success",
        &[def],
        &[("rsaga".to_owned(), Container::empty())],
        &saga_world(n, &[]),
        &SweepConfig::default(),
    )
    .unwrap();
    assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
    assert_eq!(report.passed, report.total_events + 1);
}

#[test]
fn saga_compensating_run_survives_every_crash_point() {
    let n = 4;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let report = sweep(
        "saga-compensating",
        &[def],
        &[("rsaga".to_owned(), Container::empty())],
        &saga_world(n, &[("S3", FailurePlan::Always)]),
        &SweepConfig::default(),
    )
    .unwrap();
    assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
}

#[test]
fn flex_successful_run_survives_every_crash_point() {
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    let report = sweep(
        "flex-success",
        &[def],
        &[("figure3".to_owned(), Container::empty())],
        &flex_world(&[]),
        &SweepConfig::default(),
    )
    .unwrap();
    assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
}

/// T8 always refuses: the preferred path p1 fails at its last pivot,
/// T5/T6 are compensated and the run commits via p2 (T7). The richest
/// recovery surface in the fixture set — compensation blocks, dead
/// path elimination and retriable loops all in flight at some crash
/// point.
#[test]
fn flex_t8_failure_run_survives_every_crash_point() {
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    let report = sweep(
        "flex-t8-failure",
        &[def],
        &[("figure3".to_owned(), Container::empty())],
        &flex_world(&[("T8", FailurePlan::Always)]),
        &SweepConfig::default(),
    )
    .unwrap();
    assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
}

/// Two sagas racing on the same federation — a crash can strand one
/// instance mid-compensation while the other has not even started.
#[test]
fn two_interleaved_sagas_survive_every_crash_point() {
    let n = 3;
    let def =
        exotica::translate_saga(&atm::check_saga(&fixtures::linear_saga("rsaga", n)).unwrap())
            .unwrap();
    let report = sweep(
        "saga-pair",
        &[def],
        &[
            ("rsaga".to_owned(), Container::empty()),
            ("rsaga".to_owned(), Container::empty()),
        ],
        &saga_world(n, &[("S2", FailurePlan::Always)]),
        &SweepConfig::default(),
    )
    .unwrap();
    assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
}
