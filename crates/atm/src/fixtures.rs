//! The paper's running examples, shared by tests, benchmarks and
//! examples.
//!
//! * [`figure3_spec`] — the flexible transaction of Figure 3: a travel
//!   style scenario over eight subtransactions on three autonomous
//!   databases, with compensatable `{T1, T5, T6}`, pivot
//!   `{T2, T4, T8}`, retriable `{T3, T7}` and the preference-ordered
//!   paths `p1 = T1 T2 T4 T5 T6 T8`, `p2 = T1 T2 T4 T7`,
//!   `p3 = T1 T2 T3`.
//! * [`linear_saga`] — a parameterised linear saga of `n` steps, each
//!   writing a marker record on its own database.
//! * `register_*_programs` — install the forward and compensation
//!   programs the fixtures reference into a registry, wiring each to
//!   the failure injector under its own step name (so tests can
//!   script aborts like `injector.set_plan("T4", FailurePlan::Always)`).

use crate::flexible::{FlexSpec, FlexStep};
use crate::saga::SagaSpec;
use crate::spec::StepSpec;
use std::sync::Arc;
use txn_substrate::{KvProgram, MultiDatabase, ProgramRegistry, Value};

/// Step names of the Figure 3 transaction, in numeric order.
pub const FIGURE3_STEPS: [&str; 8] = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"];

/// The flexible transaction of Figure 3.
pub fn figure3_spec() -> FlexSpec {
    FlexSpec::new(
        "figure3",
        vec![
            FlexStep::compensatable("T1", "prog_T1", "comp_T1"),
            FlexStep::pivot("T2", "prog_T2"),
            FlexStep::retriable("T3", "prog_T3"),
            FlexStep::pivot("T4", "prog_T4"),
            FlexStep::compensatable("T5", "prog_T5", "comp_T5"),
            FlexStep::compensatable("T6", "prog_T6", "comp_T6"),
            FlexStep::retriable("T7", "prog_T7"),
            FlexStep::pivot("T8", "prog_T8"),
        ],
        vec![
            vec!["T1", "T2", "T4", "T5", "T6", "T8"],
            vec!["T1", "T2", "T4", "T7"],
            vec!["T1", "T2", "T3"],
        ],
    )
}

/// Registers the Figure 3 programs: `prog_Ti` writes `Ti = 1` (and
/// `comp_Ti` writes `Ti = -1`) on a database chosen round-robin from
/// the federation members `site_a`, `site_b`, `site_c`, which are
/// created if absent. Each forward program consults the injector under
/// the label `Ti`, compensations under `comp_Ti`.
pub fn register_figure3_programs(fed: &Arc<MultiDatabase>, registry: &ProgramRegistry) {
    for site in ["site_a", "site_b", "site_c"] {
        if fed.db(site).is_none() {
            fed.add_database(site);
        }
    }
    for (i, name) in FIGURE3_STEPS.iter().enumerate() {
        let site = ["site_a", "site_b", "site_c"][i % 3];
        registry.register(Arc::new(
            KvProgram::write(&format!("prog_{name}"), site, name, 1i64).with_label(name),
        ));
        registry.register(Arc::new(KvProgram::write(
            &format!("comp_{name}"),
            site,
            name,
            Value::Int(-1),
        )));
    }
}

/// A linear saga of `n` compensatable steps `S1 … Sn`; step `Si` runs
/// program `do_Si` (writing `Si = 1` on database `saga_db`) with
/// compensation `undo_Si` (writing `Si = -1`).
pub fn linear_saga(name: &str, n: usize) -> SagaSpec {
    SagaSpec::linear(
        name,
        (1..=n)
            .map(|i| {
                StepSpec::compensatable(
                    &format!("S{i}"),
                    &format!("do_S{i}"),
                    &format!("undo_S{i}"),
                )
            })
            .collect(),
    )
}

/// Registers the programs for [`linear_saga`] (forward programs
/// consult the injector under the step name `Si`; compensations under
/// `undo_Si`). Creates the database `saga_db` if absent.
pub fn register_saga_programs(fed: &Arc<MultiDatabase>, registry: &ProgramRegistry, n: usize) {
    if fed.db("saga_db").is_none() {
        fed.add_database("saga_db");
    }
    for i in 1..=n {
        let step = format!("S{i}");
        registry.register(Arc::new(
            KvProgram::write(&format!("do_S{i}"), "saga_db", &step, 1i64).with_label(&step),
        ));
        registry.register(Arc::new(KvProgram::write(
            &format!("undo_S{i}"),
            "saga_db",
            &step,
            Value::Int(-1),
        )));
    }
}

/// Reads the marker value a fixture program wrote (`1` committed,
/// `-1` compensated, `None` never ran) from whichever site holds it.
pub fn marker(fed: &Arc<MultiDatabase>, key: &str) -> Option<i64> {
    for site in fed.names() {
        if let Some(v) = fed.db(&site).and_then(|db| db.peek(key)) {
            return v.as_int();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_substrate::{FailurePlan, ProgramContext};

    #[test]
    fn figure3_shape_matches_paper() {
        let spec = figure3_spec();
        assert_eq!(spec.steps.len(), 8);
        assert_eq!(spec.paths.len(), 3);
        let class = |name| spec.step(name).unwrap().class;
        assert!(class("T1").is_compensatable());
        assert!(class("T2").is_pivot());
        assert!(class("T3").is_retriable());
        assert!(class("T4").is_pivot());
        assert!(class("T5").is_compensatable());
        assert!(class("T6").is_compensatable());
        assert!(class("T7").is_retriable());
        assert!(class("T8").is_pivot());
    }

    #[test]
    fn figure3_programs_run_and_respect_injection() {
        let fed = MultiDatabase::new(0);
        let registry = ProgramRegistry::new();
        register_figure3_programs(&fed, &registry);
        let mut ctx = ProgramContext::new(Arc::clone(&fed));
        assert!(registry.invoke("prog_T1", &mut ctx).is_committed());
        assert_eq!(marker(&fed, "T1"), Some(1));
        // Injection under the step name.
        fed.injector().set_plan("T2", FailurePlan::Always);
        assert!(!registry.invoke("prog_T2", &mut ctx).is_committed());
        assert_eq!(marker(&fed, "T2"), None);
        // Compensation flips the marker.
        assert!(registry.invoke("comp_T1", &mut ctx).is_committed());
        assert_eq!(marker(&fed, "T1"), Some(-1));
    }

    #[test]
    fn saga_fixture_registers_all_programs() {
        let fed = MultiDatabase::new(0);
        let registry = ProgramRegistry::new();
        register_saga_programs(&fed, &registry, 3);
        for i in 1..=3 {
            assert!(registry.contains(&format!("do_S{i}")));
            assert!(registry.contains(&format!("undo_S{i}")));
        }
        assert_eq!(linear_saga("s", 3).steps.len(), 3);
    }
}
