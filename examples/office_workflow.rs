//! The workflow features the paper says transaction models lack
//! (§3.3): organizational roles, worklists with claim semantics,
//! deadline notifications, user interventions and forward recovery —
//! demonstrated on a loan-approval business process with human steps.
//!
//! ```sh
//! cargo run --example office_workflow
//! ```

use std::sync::Arc;
use txn_substrate::{KvProgram, MultiDatabase, ProgramRegistry};
use wftx::engine::{audit, recover_from, Engine, EngineConfig, InstanceStatus, Journal, OrgModel};
use wftx::model::{Activity, Container, ContainerSchema, DataType, ProcessBuilder};

fn build_process() -> wftx::model::ProcessDefinition {
    ProcessBuilder::new("loan_approval")
        .describe("a business process with human decision steps")
        .output(ContainerSchema::of(&[("disbursed", DataType::Int)]))
        .program("Register", "register_application")
        .activity(
            Activity::program("CreditCheck", "credit_check")
                .describe("any clerk may run the credit check")
                .for_role("clerk")
                .with_deadline(48),
        )
        .activity(
            Activity::program("Approve", "approve_loan")
                .describe("a manager must approve")
                .for_role("manager")
                .with_deadline(24),
        )
        .program("Disburse", "disburse_funds")
        .connect_when("Register", "CreditCheck", "RC = 1")
        .connect_when("CreditCheck", "Approve", "RC = 1")
        .connect_when("Approve", "Disburse", "RC = 1")
        .map_to_process_output("Disburse", &[("RC", "disbursed")])
        .build()
        .expect("definition validates")
}

fn new_world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>, OrgModel) {
    let fed = MultiDatabase::new(0);
    fed.add_database("bank");
    let programs = Arc::new(ProgramRegistry::new());
    for (name, key) in [
        ("register_application", "application"),
        ("credit_check", "credit"),
        ("approve_loan", "approval"),
        ("disburse_funds", "funds"),
    ] {
        programs.register(Arc::new(KvProgram::write(name, "bank", key, "done")));
    }
    // The organization: one branch manager, two clerks reporting to
    // her. A person can hold several roles — the manager is also a
    // clerk.
    let org = OrgModel::new()
        .person("grace", &["manager", "clerk"])
        .person_under("ann", &["clerk"], "grace", 2)
        .person_under("bob", &["clerk"], "grace", 2);
    (fed, programs, org)
}

fn main() {
    let (fed, programs, org) = new_world();
    let engine = Engine::with_config(
        Arc::clone(&fed),
        Arc::clone(&programs),
        EngineConfig {
            org: org.clone(),
            ..EngineConfig::default()
        },
    );
    engine.register(build_process()).unwrap();
    let id = engine.start("loan_approval", Container::empty()).unwrap();

    // Automatic steps run; the credit check waits for a human.
    engine.run_to_quiescence(id).unwrap();
    println!("worklists after automatic steps:");
    for person in ["ann", "bob", "grace"] {
        let items: Vec<String> = engine
            .worklist(person)
            .iter()
            .map(|it| format!("{} ({})", it.path, it.id))
            .collect();
        println!("  {person}: {items:?}");
    }

    // The same item is visible to every clerk; ann claims it and it
    // vanishes from the other worklists — the paper's load balancing.
    let item = engine.worklist("ann")[0].clone();
    engine.claim(item.id, "ann").unwrap();
    println!(
        "\nann claimed {}; bob now sees {:?}",
        item.id,
        engine.worklist("bob").len()
    );

    // Nobody touches the approval step for two days: the deadline
    // passes and the manager's manager — here grace herself manages
    // the clerks — is notified.
    engine.execute_item(item.id, "ann").unwrap();
    println!("\ncredit check done by ann; approval waits on grace");
    let notifications = engine.advance_clock(30);
    println!("after 30 ticks, notifications: {notifications:?}");

    // Crash the engine before grace gets to it. The journal is the
    // only thing that survives on the engine side; the bank's
    // databases are durable on their own.
    let events = engine.journal_events();
    engine.crash();
    println!(
        "\n-- engine crashed; recovering from {} journal events --",
        events.len()
    );

    let engine2 = recover_from(
        Journal::new(),
        events,
        vec![build_process()],
        org,
        Arc::clone(&fed),
        programs,
    )
    .unwrap();
    println!(
        "recovered; grace's worklist: {:?}",
        engine2
            .worklist("grace")
            .iter()
            .map(|it| it.path)
            .collect::<Vec<_>>()
    );

    // Grace approves; the disbursement runs automatically.
    let item = engine2.worklist("grace")[0].clone();
    engine2.execute_item(item.id, "grace").unwrap();
    assert_eq!(engine2.status(id).unwrap(), InstanceStatus::Finished);
    println!(
        "\nprocess finished; disbursed = {:?}",
        engine2.output(id).unwrap().get("disbursed")
    );

    println!("\nfull audit trail:");
    for line in audit::render(&engine2.journal_events()) {
        println!("  {line}");
    }
}
