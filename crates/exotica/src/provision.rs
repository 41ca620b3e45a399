//! Auto-provisioning of the execution substrate for translated
//! specifications — shared by `fmtm run`, `fmtm crashtest` and the
//! `fmtm serve` shard pool.
//!
//! The paper's prototype executes "transactional programs" against a
//! heterogeneous multidatabase; for the CLI we synthesise that
//! environment from the spec itself: each step's forward program
//! writes `<step> = 1` on a local database chosen round-robin over
//! three sites (consulting the failure injector under the step's
//! name), each compensation writes `<step> = -1`.

use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry, Value};

use crate::ParsedSpec;

/// `(name, program, compensation)` for every step of a parsed spec.
pub fn steps_of(spec: &ParsedSpec) -> Vec<(String, String, Option<String>)> {
    match spec {
        ParsedSpec::Saga(s) => s
            .steps()
            .map(|st| (st.name.clone(), st.program.clone(), st.compensation.clone()))
            .collect(),
        ParsedSpec::Flexible(f) => f
            .steps
            .iter()
            .map(|st| (st.name.clone(), st.program.clone(), st.compensation.clone()))
            .collect(),
    }
}

/// `(activity, program, no compensation)` for every program activity
/// of an imported FDL process, blocks included, first occurrence of
/// each program name winning. This is how `fmtm run` auto-provisions
/// a plain FDL file the same way it provisions a translated spec: the
/// marker key is the activity name, the registered program its
/// declared program name.
pub fn steps_of_process(
    def: &wfms_model::ProcessDefinition,
) -> Vec<(String, String, Option<String>)> {
    fn walk(
        def: &wfms_model::ProcessDefinition,
        seen: &mut std::collections::HashSet<String>,
        out: &mut Vec<(String, String, Option<String>)>,
    ) {
        for a in &def.activities {
            match &a.kind {
                wfms_model::ActivityKind::Program { program } => {
                    if seen.insert(program.clone()) {
                        out.push((a.name.clone(), program.clone(), None));
                    }
                }
                wfms_model::ActivityKind::Block { process } => walk(process, seen, out),
                wfms_model::ActivityKind::NoOp => {}
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    walk(def, &mut seen, &mut out);
    out
}

/// [`steps_of`] over several specs, first occurrence of each step
/// name winning — what a multi-template server provisions once.
pub fn steps_of_all(specs: &[ParsedSpec]) -> Vec<(String, String, Option<String>)> {
    let mut seen = std::collections::HashSet::new();
    let mut steps = Vec::new();
    for spec in specs {
        for step in steps_of(spec) {
            if seen.insert(step.0.clone()) {
                steps.push(step);
            }
        }
    }
    steps
}

/// Auto-provisions a fresh federation and program registry for a
/// spec's steps: each forward program writes `<step> = 1` on a site
/// chosen round-robin (consulting the injector under the step name),
/// each compensation writes `<step> = -1`; then installs the failure
/// plans.
pub fn provision(
    steps: &[(String, String, Option<String>)],
    seed: u64,
    plans: &[(String, FailurePlan)],
) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(seed);
    let registry = Arc::new(ProgramRegistry::new());
    for (i, (step, program, compensation)) in steps.iter().enumerate() {
        let site = format!("site_{}", char::from(b'a' + (i % 3) as u8));
        if fed.db(&site).is_none() {
            fed.add_database(&site);
        }
        registry.register(Arc::new(
            KvProgram::write(program, &site, step, 1i64).with_label(step),
        ));
        if let Some(comp) = compensation {
            registry.register(Arc::new(KvProgram::write(
                comp,
                &site,
                step,
                Value::Int(-1),
            )));
        }
    }
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    (fed, registry)
}
