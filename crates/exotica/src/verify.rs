//! Equivalence harness: native executor vs translated workflow.
//!
//! The paper's claim is *behavioural*: the workflow process obtained
//! from an ATM specification provides the same guarantees as the model
//! itself. This module operationalises the claim. A scenario is run
//! twice, in two completely separate worlds (fresh federation, fresh
//! program registry, same injector seed and the same scripted failure
//! plans):
//!
//! 1. natively, on [`atm::native`]'s executors;
//! 2. as the Exotica-translated workflow process on the engine.
//!
//! The report compares (a) the commit/abort outcome and (b) the final
//! state of **every** local database. Since compensations write
//! observable state (the fixtures write `-1` markers), state equality
//! subsumes "the same subtransactions were committed/compensated".

use crate::pipeline::translate;
use crate::TranslateError;
use atm::{Checked, FlexExecutor, SagaExecutor, Source};
use std::collections::BTreeMap;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{Engine, EngineError, InstanceStatus};
use wfms_model::Container;

/// Final state of a federation: database name → key → value.
pub type FederationState = BTreeMap<String, BTreeMap<String, Value>>;

/// Outcome of one equivalence comparison.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// Human-readable scenario label.
    pub scenario: String,
    /// Did the native execution commit?
    pub native_committed: bool,
    /// Did the workflow execution commit (process output `Committed`)?
    pub workflow_committed: bool,
    /// Final state of the native world.
    pub native_state: FederationState,
    /// Final state of the workflow world.
    pub workflow_state: FederationState,
}

impl EquivalenceReport {
    /// True if outcomes and final states agree.
    pub fn equivalent(&self) -> bool {
        self.native_committed == self.workflow_committed && self.native_state == self.workflow_state
    }

    /// A diff rendering for failed assertions.
    pub fn diff(&self) -> String {
        let mut out = String::new();
        if self.native_committed != self.workflow_committed {
            out.push_str(&format!(
                "outcome: native committed = {}, workflow committed = {}\n",
                self.native_committed, self.workflow_committed
            ));
        }
        for (db, kv) in &self.native_state {
            let other = self.workflow_state.get(db);
            for (k, v) in kv {
                let ov = other.and_then(|m| m.get(k));
                if ov != Some(v) {
                    out.push_str(&format!("{db}/{k}: native {v:?}, workflow {ov:?}\n"));
                }
            }
        }
        for (db, kv) in &self.workflow_state {
            let native = self.native_state.get(db);
            for (k, v) in kv {
                if native.and_then(|m| m.get(k)).is_none() {
                    out.push_str(&format!("{db}/{k}: only in workflow ({v:?})\n"));
                }
            }
        }
        out
    }
}

/// Errors from the harness itself (as opposed to inequivalence).
#[derive(Debug)]
pub enum VerifyError {
    /// Translation failed.
    Translate(TranslateError),
    /// The engine failed (registration, start or navigation).
    Engine(EngineError),
    /// The workflow instance did not finish (stuck on manual work or
    /// cancelled) — never expected for translated processes.
    NotFinished(InstanceStatus),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Translate(e) => write!(f, "translation failed: {e}"),
            VerifyError::Engine(e) => write!(f, "engine failed: {e}"),
            VerifyError::NotFinished(s) => write!(f, "workflow did not finish: {s:?}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<EngineError> for VerifyError {
    fn from(e: EngineError) -> Self {
        VerifyError::Engine(e)
    }
}

/// How a world is provisioned: registers the forward and compensation
/// programs of the specification into the registry, creating the
/// databases they touch.
pub type Installer<'a> = &'a dyn Fn(&Arc<MultiDatabase>, &ProgramRegistry);

fn build_world(
    seed: u64,
    install: Installer<'_>,
    plans: &[(String, FailurePlan)],
) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(seed);
    let registry = Arc::new(ProgramRegistry::new());
    install(&fed, &registry);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    (fed, registry)
}

fn federation_state(fed: &Arc<MultiDatabase>) -> FederationState {
    fed.names()
        .into_iter()
        .map(|name| {
            let snap = fed.db(&name).expect("listed db exists").snapshot();
            (name, snap.into_iter().collect())
        })
        .collect()
}

fn run_workflow(
    def: wfms_model::ProcessDefinition,
    fed: Arc<MultiDatabase>,
    registry: Arc<ProgramRegistry>,
) -> Result<bool, VerifyError> {
    let engine = Engine::new(fed, registry);
    engine.register(def.clone())?;
    let id = engine.start(&def.name, Container::empty())?;
    let status = engine.run_to_quiescence(id)?;
    if status != InstanceStatus::Finished {
        return Err(VerifyError::NotFinished(status));
    }
    let committed = engine
        .output(id)?
        .get("Committed")
        .and_then(|v| v.as_int())
        .unwrap_or(0)
        == 1;
    Ok(committed)
}

/// Runs a checked spec natively and as its Figure 2 / Figure 4
/// translation, each in a world of its own under the same failure plans.
pub fn compare(
    checked: &Checked,
    install: Installer<'_>,
    plans: &[(String, FailurePlan)],
    seed: u64,
) -> Result<EquivalenceReport, VerifyError> {
    let def = translate(checked).map_err(VerifyError::Translate)?;

    let (nfed, nreg) = build_world(seed, install, plans);
    let native = Arc::clone(&nfed);
    let (model, native_committed) = match checked.source() {
        Source::Saga(s) => {
            let run = SagaExecutor::new(native, nreg).run(s);
            ("saga", run.expect("a checked saga").is_committed())
        }
        Source::Flexible(f) => {
            let run = FlexExecutor::new(native, nreg).run(f);
            (
                "flex",
                run.expect("a checked flexible transaction").is_committed(),
            )
        }
    };

    let (wfed, wreg) = build_world(seed, install, plans);
    let workflow_committed = run_workflow(def, Arc::clone(&wfed), wreg)?;

    let labels: Vec<String> = plans.iter().map(|(l, p)| format!("{l}:{p:?}")).collect();
    Ok(EquivalenceReport {
        scenario: format!("{model} {:?} under {labels:?}", checked.name()),
        native_committed,
        workflow_committed,
        native_state: federation_state(&nfed),
        workflow_state: federation_state(&wfed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::fixtures;

    #[test]
    fn saga_happy_path_is_equivalent() {
        let spec = fixtures::linear_saga("s", 4);
        let install: Installer<'_> = &|fed, reg| fixtures::register_saga_programs(fed, reg, 4);
        let report = compare(&atm::check_saga(&spec).unwrap(), install, &[], 1).unwrap();
        assert!(report.native_committed);
        assert!(report.equivalent(), "{}", report.diff());
    }

    #[test]
    fn flex_happy_path_is_equivalent() {
        let spec = fixtures::figure3_spec();
        let install: Installer<'_> = &fixtures::register_figure3_programs;
        let report = compare(&atm::check_flex(&spec).unwrap(), install, &[], 1).unwrap();
        assert!(report.native_committed);
        assert!(report.equivalent(), "{}", report.diff());
    }
}
