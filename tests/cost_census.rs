//! What a program call and an instance pay for sharing, counted.
//!
//! A rate moves from run to run; a count does not. This test counts
//! the lock round-trips (`Mutex::lock`, `RwLock::read`,
//! `RwLock::write`) and condition-variable notifications a thread makes,
//! through the `parking_lot` shim's `count` feature (every lock in the
//! workspace is the shim's), and pins them exactly:
//!
//! * per `KvProgram` call, through the engine: a one-activity process,
//!   its label without a failure plan and with one. The engine takes no
//!   lock of its own, so an instance of it is one call;
//! * per instance of the benchmark's shapes, as `tests/alloc_budget.rs`
//!   runs them: the 8-step saga and the Figure 3 flexible transaction
//!   through `exotica::run_pipeline` over `exotica::provision`'s
//!   three-site multidatabase of `KvProgram`s.
//!
//! A call's own transaction is five round-trips on its database: the
//! state lock at begin, at the write and at commit, and the lock table
//! at acquire and at release. Anything above that is sharing: before
//! programs, sites and plans were resolved once per engine, a call also
//! read the program registry and the federation under their `RwLock`s
//! and took the injector's mutex twice (its label and `"<db>/commit"`),
//! nine in all, and the four shapes read 72, 93, 54 and 75. A change
//! that moves a count re-pins it here with the reason beside it.
//!
//! One `#[test]` only, like `alloc_budget.rs`: the tallies are per
//! thread, and one test keeps the measured engine on one thread.

use parking_lot::count::{counts, Counts};
use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::{Container, ProcessBuilder};

const WARM_UP: u64 = 20;
const INSTANCES: u64 = 200;

/// What one instance of `process` costs on `engine`, after [`WARM_UP`]
/// instances resolved what the engine resolves once: the counts of
/// [`INSTANCES`] instances, each divided by the instance count — which
/// must divide them exactly, or some instance paid what another did not.
fn per_instance(engine: &Engine, process: &str) -> Counts {
    let run = |i: u64| {
        let mut input = Container::empty();
        input.set("order", Value::Int(i as i64));
        let id = engine.start(process, input).expect("registered");
        let status = engine.run_to_quiescence(id).expect("runs");
        assert_eq!(status, InstanceStatus::Finished);
    };
    (0..WARM_UP).for_each(run);
    let before = counts();
    (WARM_UP..WARM_UP + INSTANCES).for_each(run);
    let spent = counts() - before;
    let per = Counts {
        lock: spent.lock / INSTANCES,
        read: spent.read / INSTANCES,
        write: spent.write / INSTANCES,
        notify: spent.notify / INSTANCES,
    };
    assert_eq!(
        [per.lock, per.read, per.write, per.notify].map(|n| n * INSTANCES),
        [spent.lock, spent.read, spent.write, spent.notify],
        "{process}: every instance pays the same ({spent:?} over {INSTANCES})"
    );
    per
}

/// A one-activity process calling a `KvProgram` labelled `"p"`, with
/// `plan` set on that label if any.
fn one_call(plan: Option<FailurePlan>) -> Counts {
    let fed = MultiDatabase::new(7);
    fed.add_database("d");
    let programs = Arc::new(ProgramRegistry::new());
    programs.register(Arc::new(KvProgram::write("p", "d", "k", 1i64)));
    if let Some(plan) = plan {
        fed.injector().set_plan("p", plan);
    }
    let engine = Engine::new(fed, programs);
    let process = ProcessBuilder::new("one").program("A", "p").build();
    engine.register(process.expect("valid")).expect("registers");
    per_instance(&engine, "one")
}

/// An instance of `process` over the benchmark's world, every step in
/// `failing` always aborting.
fn shape(process: &str, failing: &[&str]) -> Counts {
    let specs = [
        exotica::AtmSpec::Saga(atm::fixtures::linear_saga("saga8", 8)),
        exotica::AtmSpec::Flexible(atm::fixtures::figure3_spec()),
    ];
    let plans: Vec<(String, FailurePlan)> = failing
        .iter()
        .map(|label| ((*label).to_owned(), FailurePlan::Always))
        .collect();
    let (fed, programs) = exotica::provision(&exotica::steps_of_all(&specs), 7, &plans);
    let engine = Engine::new(fed, programs);
    for spec in &specs {
        let out = exotica::run_pipeline(&exotica::emit_spec(spec)).expect("fixture translates");
        engine.register_compiled(out.template);
    }
    per_instance(&engine, process)
}

#[test]
fn a_program_call_pays_for_its_own_transaction() {
    // A silently inert tally would make every pin vacuous.
    let before = counts();
    drop(parking_lot::Mutex::new(()).lock());
    assert_eq!((counts() - before).lock, 1, "the shim must count");

    let counted = |lock, read, write| Counts {
        lock,
        read,
        write,
        notify: 0,
    };
    // Per call: the database's five, all mutexes. A planned label's
    // decision takes the injector's lock (and proceeds: `Never`).
    for (what, plan, pinned) in [
        ("KvProgram call, no plan", None, counted(5, 0, 0)),
        (
            "KvProgram call, planned label",
            Some(FailurePlan::Never),
            counted(6, 0, 0),
        ),
    ] {
        let got = one_call(plan);
        println!("{what}: {} round-trips {got:?}", got.round_trips());
        assert_eq!(got, pinned, "{what}");
    }

    // Per instance: five per committing call, one for a call whose
    // planned label aborts before its transaction begins. The saga
    // compensating at S6 makes 5 forward calls, the aborted S6 and 5
    // compensations; Figure 3 with T8 aborting commits T1 T2 T4 T5 T6,
    // aborts T8, compensates T6 and T5 and commits T7 on path p2.
    for (what, process, failing, pinned) in [
        ("saga8 commit", "saga8", &[][..], counted(40, 0, 0)),
        (
            "saga8 compensating at S6",
            "saga8",
            &["S6"][..],
            counted(51, 0, 0),
        ),
        ("Figure 3 p1", "figure3", &[][..], counted(30, 0, 0)),
        (
            "Figure 3, T8 aborting",
            "figure3",
            &["T8"][..],
            counted(41, 0, 0),
        ),
    ] {
        let got = shape(process, failing);
        println!(
            "{what}: {} round-trips per instance {got:?}",
            got.round_trips()
        );
        assert_eq!(got, pinned, "{what}");
    }
}
