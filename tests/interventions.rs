//! Operator interventions composed with the Exotica translations —
//! §3.3's "the user can stop an activity, restart it, force it to
//! finish" driving the Figure 2 failure machinery.

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramRegistry};
use wftx::engine::{ActState, Engine, EngineConfig, InstanceStatus, OrgModel};
use wftx::model::Container;

/// Force-finishing with rc = 0 drives the failure route (here: a
/// compensating saga) — the §3.3 "force it to finish" intervention
/// composed with the Figure 2 construction.
#[test]
fn force_finish_failure_route_on_nested_activity() {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    atm::fixtures::register_saga_programs(&fed, &registry, 3);
    let org = OrgModel::new().person("op", &["operator"]);
    let mut def =
        exotica::translate_saga(&atm::check_saga(&atm::fixtures::linear_saga("s", 3)).unwrap())
            .unwrap();
    // Make S2 (inside the forward block) a manual operator step.
    {
        let wftx::model::ActivityKind::Block { process } = &mut def.activities[0].kind else {
            panic!("Forward is a block")
        };
        process.activities[1] = process.activities[1].clone().for_role("operator");
    }
    assert!(wftx::model::validate(&def).is_empty());

    let engine = Engine::with_config(
        Arc::clone(&fed),
        registry,
        EngineConfig {
            org,
            ..EngineConfig::default()
        },
    );
    engine.register(def).unwrap();
    let id = engine.start("s", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    assert_eq!(
        engine.activity_state(id, "Forward/S2").unwrap().0,
        ActState::Ready
    );
    // The operator force-fails the pending step instead of running it.
    engine.force_finish(id, "Forward/S2", 0).unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
    // S1 was compensated; S2's program never ran.
    assert_eq!(atm::fixtures::marker(&fed, "S1"), Some(-1));
    assert_eq!(atm::fixtures::marker(&fed, "S2"), None);
    let out = engine.output(id).unwrap();
    assert_eq!(out.get("Committed").and_then(|v| v.as_int()), Some(0));
}
