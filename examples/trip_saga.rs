//! A travel-booking saga through the full Exotica/FMTM pipeline
//! (Figure 5): textual specification → pre-processor → FDL →
//! import → executable template → run-time instances.
//!
//! Three scenarios are executed: everything succeeds; the payment
//! step aborts (booked legs are compensated in reverse order); and a
//! flaky compensation that needs retries.
//!
//! ```sh
//! cargo run --example trip_saga
//! ```

use std::sync::Arc;
use txn_substrate::{on_attempts, FailurePlan, KvProgram, MultiDatabase, ProgramRegistry};
use wftx::engine::{audit, Engine, InstanceStatus};
use wftx::model::Container;

const SPEC: &str = r#"
SAGA trip_booking
  STEP Flight PROGRAM "book_flight" COMPENSATION "cancel_flight"
  STEP Hotel  PROGRAM "book_hotel"  COMPENSATION "cancel_hotel"
  STEP Car    PROGRAM "book_car"    COMPENSATION "cancel_car"
  STEP Pay    PROGRAM "charge_card" COMPENSATION "refund_card"
END
"#;

fn install(fed: &Arc<MultiDatabase>, programs: &ProgramRegistry) {
    // Each booking lives on its own autonomous database, as in the
    // heterogeneous environments the paper targets.
    for (db, step, forward, comp) in [
        ("airline", "Flight", "book_flight", "cancel_flight"),
        ("hotel", "Hotel", "book_hotel", "cancel_hotel"),
        ("rental", "Car", "book_car", "cancel_car"),
        ("bank", "Pay", "charge_card", "refund_card"),
    ] {
        if fed.db(db).is_none() {
            fed.add_database(db);
        }
        programs.register(Arc::new(
            KvProgram::write(forward, db, step, "booked").with_label(step),
        ));
        programs.register(Arc::new(KvProgram::write(comp, db, step, "cancelled")));
    }
}

fn run_scenario(title: &str, plans: &[(&str, FailurePlan)]) {
    println!("==== {title} ====");
    let out = exotica::run_pipeline(SPEC).expect("pipeline succeeds");

    let fed = MultiDatabase::new(0);
    let programs = Arc::new(ProgramRegistry::new());
    install(&fed, &programs);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }

    let engine = Engine::new(Arc::clone(&fed), programs);
    engine.register(out.process.clone()).unwrap();
    let id = engine.start("trip_booking", Container::empty()).unwrap();
    let status = engine.run_to_quiescence(id).unwrap();
    assert_eq!(status, InstanceStatus::Finished);

    let committed = engine
        .output(id)
        .unwrap()
        .get("Committed")
        .and_then(|v| v.as_int())
        == Some(1);
    println!(
        "outcome: {}",
        if committed {
            "trip booked"
        } else {
            "trip aborted, bookings compensated"
        }
    );
    for db in fed.names() {
        for (k, v) in fed.db(&db).unwrap().snapshot() {
            println!("  {db}: {k} = {v}");
        }
    }
    println!("trace:");
    for t in audit::trace(&engine.journal_events(), id) {
        println!("  {t}");
    }
    println!();
}

fn main() {
    // Show the generated FDL once: the pre-processor's actual output.
    let out = exotica::run_pipeline(SPEC).expect("pipeline succeeds");
    println!("---- FDL emitted by Exotica/FMTM ----");
    for line in out.fdl.lines().take(18) {
        println!("{line}");
    }
    println!("... ({} lines total)\n", out.fdl.lines().count());

    run_scenario("scenario 1: all bookings succeed", &[]);
    run_scenario(
        "scenario 2: payment declined",
        &[("Pay", FailurePlan::Always)],
    );
    run_scenario(
        "scenario 3: payment declined, hotel cancellation flaky",
        &[
            ("Pay", FailurePlan::Always),
            ("cancel_hotel", on_attempts([0, 1])),
        ],
    );

    // The native saga executor agrees with the workflow execution in
    // every scenario (spot-check with the equivalence harness).
    let exotica::ParsedSpec::Saga(spec) = exotica::parse_spec(SPEC).unwrap() else {
        unreachable!()
    };
    let installer: exotica::verify::Installer<'_> = &|fed, reg| install(fed, reg);
    let report = exotica::compare(
        &atm::check_saga(&spec).unwrap(),
        installer,
        &[("Pay".to_string(), FailurePlan::Always)],
        99,
    )
    .unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    println!("equivalence check vs native saga executor: OK");
}
