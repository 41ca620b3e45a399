//! The Figure 2 construction: a linear saga as a workflow process.
//!
//! Two blocks:
//!
//! * **Forward** — one activity per subtransaction, chained with
//!   `RC = 1` transition conditions. Every activity's return code is
//!   mapped into the block's output container as `State_i` ("each
//!   activity must also register its status … by mapping the return
//!   code of the output data container of each activity to the
//!   appropriate variable in the output data container of the block");
//!   the last activity's return code doubles as the block's own `RC`.
//!   If a subtransaction aborts, its outgoing connector is false and
//!   dead path elimination terminates the rest of the block.
//!
//! * **Compensation** — entered when the forward block reports
//!   `RC = 0`. A pass-through `NOP` activity exposes the `State_i`
//!   flags (handed over by a data connector from the forward block's
//!   output container to the compensation block's input container) to
//!   its outgoing transition conditions. The NOP has a connector to
//!   every compensating activity: the connector to `Comp_Si` carries
//!   the condition "`Si` committed and `S(i+1)` did not" — i.e. `Si`
//!   is the *last* committed subtransaction, where compensation must
//!   start. From there the reversed chain `Comp_Si → Comp_S(i-1)`
//!   walks the committed prefix backwards. The chain connectors are
//!   unconditional: compensating activities carry the exit condition
//!   `RC = 1`, making them retriable exactly as the appendix prescribes
//!   ("compensation activities will not finish until the return code
//!   from the transaction indicates that it has committed").
//!
//! Compensating activities use OR-joins: they are triggered *either*
//! directly by the NOP (as the starting point) *or* by their successor
//! in the reversed chain; the dead-path-eliminated connectors of
//! never-executed compensations evaluate false and the whole block
//! still terminates. Because a linear saga commits a strict prefix,
//! `Si` committed implies every earlier step committed, so the chain
//! conditions need no further guards — this is where the construction
//! leans on linearity, and why (like §4.1 of the paper) it covers
//! linear sagas only.

use crate::TranslateError;
use atm::{Checked, Source, StepSpec};
use wfms_model::{
    validate, Activity, ContainerSchema, DataType, ProcessBuilder, ProcessDefinition, RC_MEMBER,
};

/// Name of the forward block activity in the generated process.
pub const FORWARD_BLOCK: &str = "Forward";
/// Name of the compensation block activity.
pub const COMPENSATION_BLOCK: &str = "Compensation";
/// Name of the pass-through trigger inside the compensation block.
pub const NOP_ACTIVITY: &str = "NOP";

/// The `State_i` member name for a step.
pub fn state_member(step: &str) -> String {
    format!("State_{step}")
}

/// The compensation activity name for a step.
pub fn comp_activity(step: &str) -> String {
    format!("Comp_{step}")
}

/// The `State_i` flags of a run of steps, as a container schema.
fn state_schema(steps: &[&StepSpec]) -> ContainerSchema {
    steps.iter().fold(ContainerSchema::empty(), |schema, step| {
        schema.with(&state_member(&step.name), DataType::Int)
    })
}

/// Runs `f` on the `State_i → State_i` mapping that carries the flags
/// of `steps` across a data connector.
pub(crate) fn with_state_pairs<R>(steps: &[&StepSpec], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    let flags: Vec<String> = steps.iter().map(|s| state_member(&s.name)).collect();
    let pairs: Vec<(&str, &str)> = flags.iter().map(|m| (m.as_str(), m.as_str())).collect();
    f(&pairs)
}

/// The forward half of the Figure 2 machinery, for a saga or for a
/// flexible transaction's compensatable segment (§4.2 step 5): one
/// activity per step, chained on `RC = 1`; every return code exported
/// as `State_i`, the last one doubling as the block's own `RC`. A step
/// `retriable` says yes to carries `EXIT WHEN "RC = 1"` — it can never
/// fail the run — so its success edge is unconditional (a guard would
/// be redundant, WA104).
pub(crate) fn forward_block(
    name: &str,
    description: &str,
    steps: &[&StepSpec],
    retriable: impl Fn(&StepSpec) -> bool,
) -> ProcessDefinition {
    let mut b = ProcessBuilder::new(name)
        .describe(description)
        .output(state_schema(steps).with(RC_MEMBER, DataType::Int));
    for step in steps {
        let mut act = Activity::program(&step.name, &step.program);
        if retriable(step) {
            act = act.with_exit(&format!("{RC_MEMBER} = 1"));
        }
        b = b.activity(act);
    }
    for w in steps.windows(2) {
        b = if retriable(w[0]) {
            b.connect(&w[0].name, &w[1].name)
        } else {
            b.connect_when(&w[0].name, &w[1].name, &format!("{RC_MEMBER} = 1"))
        };
    }
    for step in steps {
        b = b.map_to_process_output(&step.name, &[(RC_MEMBER, &state_member(&step.name))]);
    }
    let last = steps.last().expect("non-empty run of steps");
    b.map_to_process_output(&last.name, &[(RC_MEMBER, RC_MEMBER)])
        .build_unchecked()
}

/// The compensation half (§4.2 step 6): the NOP trigger reading the
/// block's `State_i` input, and behind it [`compensations`].
pub(crate) fn compensation_block(
    name: &str,
    description: &str,
    steps: &[&StepSpec],
) -> ProcessDefinition {
    let io = state_schema(steps);
    let b = ProcessBuilder::new(name)
        .describe(description)
        .input(io.clone())
        .activity(
            Activity::noop(NOP_ACTIVITY)
                .describe("trigger: exposes State_i flags to the entry conditions")
                .with_input(io.clone())
                .with_output(io),
        );
    let b = with_state_pairs(steps, |pairs| b.map_process_input(NOP_ACTIVITY, pairs));
    compensations(b, steps, true).build_unchecked()
}

/// Adds the compensating activities behind a NOP trigger `b` already
/// holds — the static compensation order, decided here and nowhere
/// else. The NOP's connector to `Comp_Si` carries "`Si` committed and
/// `S(i+1)` did not": `Si` is the last committed step, where
/// compensation starts. From there the reversed chain walks the
/// committed prefix backwards, unconditionally: the retriable exit
/// already guarantees `RC = 1` on completion, so a guard would be dead
/// weight (WA104).
fn compensations(mut b: ProcessBuilder, steps: &[&StepSpec], described: bool) -> ProcessBuilder {
    for (i, step) in steps.iter().enumerate() {
        let program = step
            .compensation
            .as_deref()
            .expect("well-formed compensatable steps have compensations");
        let mut act = Activity::program(&comp_activity(&step.name), program)
            .with_exit(&format!("{RC_MEMBER} = 1"))
            .or_start();
        if described {
            act = act.describe(&format!("compensates {}", step.name));
        }
        let state = state_member(&step.name);
        let entry = match steps.get(i + 1) {
            Some(next) => format!("{state} = 1 AND {} = 0", state_member(&next.name)),
            None => format!("{state} = 1"),
        };
        b = b
            .activity(act)
            .connect_when(NOP_ACTIVITY, &comp_activity(&step.name), &entry);
    }
    for w in steps.windows(2) {
        b = b.connect(&comp_activity(&w[1].name), &comp_activity(&w[0].name));
    }
    b
}

/// Translates a checked linear saga into a workflow process (Figure 2).
///
/// The generated process exposes one output member, `Committed`
/// (INT): `1` if the saga ran to completion, `0` if it aborted and was
/// compensated.
///
/// ```
/// use atm::{SagaSpec, StepSpec};
///
/// let saga = SagaSpec::linear("transfer", vec![
///     StepSpec::compensatable("Debit", "debit", "undo_debit"),
///     StepSpec::compensatable("Credit", "credit", "undo_credit"),
/// ]);
/// let process = exotica::translate_saga(&atm::check_saga(&saga).unwrap()).unwrap();
///
/// // The Figure 2 shape: a forward block and a compensation block,
/// // linked by an `RC = 0` connector.
/// assert!(process.activity("Forward").unwrap().kind.is_block());
/// assert!(process.activity("Compensation").unwrap().kind.is_block());
/// assert_eq!(process.control[0].condition.to_string(), "(RC = 0)");
/// assert!(wfms_model::validate(&process).is_empty());
/// ```
pub fn translate_saga(spec: &Checked) -> Result<ProcessDefinition, TranslateError> {
    let steps = linear_steps(spec)?;
    let name = spec.name();
    let fwd = forward_block(
        FORWARD_BLOCK,
        &format!("forward phase of saga {name:?}"),
        steps,
        |_| false,
    );
    let comp = compensation_block(
        COMPENSATION_BLOCK,
        &format!("compensation phase of saga {name:?}"),
        steps,
    );
    let root = ProcessBuilder::new(name)
        .describe(&format!(
            "saga {name:?} compiled by Exotica/FMTM (Figure 2 construction)"
        ))
        .output(ContainerSchema::of(&[("Committed", DataType::Int)]))
        .block(FORWARD_BLOCK, fwd)
        .block(COMPENSATION_BLOCK, comp)
        .connect_when(
            FORWARD_BLOCK,
            COMPENSATION_BLOCK,
            &format!("{RC_MEMBER} = 0"),
        );
    let root = with_state_pairs(steps, |pairs| {
        root.map_data(FORWARD_BLOCK, COMPENSATION_BLOCK, pairs)
    })
    .map_to_process_output(FORWARD_BLOCK, &[(RC_MEMBER, "Committed")])
    .build_unchecked();
    validated(root)
}

/// The one path of a saga, the only form both translations accept.
fn linear_steps<'c>(spec: &'c Checked) -> Result<&'c [&'c StepSpec], TranslateError> {
    match spec.source() {
        Source::Saga(_) => Ok(&spec.paths()[0]),
        Source::Flexible(_) => Err(TranslateError::Unsupported(format!(
            "{:?} is a flexible transaction; the Figure 2 construction translates sagas only",
            spec.name()
        ))),
    }
}

/// A generated process that fails meta-model validation is a
/// translator bug, surfaced rather than panicked on.
pub(crate) fn validated(root: ProcessDefinition) -> Result<ProcessDefinition, TranslateError> {
    let errors = validate(&root);
    if !errors.is_empty() {
        return Err(TranslateError::Model(errors));
    }
    Ok(root)
}

/// Ablation variant: the saga compiled **without blocks** — forward
/// activities, the NOP trigger and the compensating activities all at
/// the top level of one flat process.
///
/// The mechanics are identical to [`translate_saga`] except that the
/// `State_i` flags travel over per-activity data connectors into the
/// NOP's input container (instead of being collected in a block output
/// container), and every forward activity carries its own `RC = 0`
/// failure connector into the NOP (instead of one block-level edge).
/// Used by the `ablation` benchmark to measure what the paper's
/// block structure costs and buys; behaviourally equivalent (the
/// equivalence tests run both variants against the native executor).
pub fn translate_saga_flat(spec: &Checked) -> Result<ProcessDefinition, TranslateError> {
    let steps = linear_steps(spec)?;
    let mut b = ProcessBuilder::new(spec.name())
        .describe(&format!(
            "saga {:?} compiled flat (ablation of the Figure 2 block structure)",
            spec.name()
        ))
        .output(ContainerSchema::of(&[("Committed", DataType::Int)]));

    // Forward chain.
    for step in steps {
        b = b.program(&step.name, &step.program);
    }
    for w in steps.windows(2) {
        b = b.connect_when(&w[0].name, &w[1].name, &format!("{RC_MEMBER} = 1"));
    }

    // The NOP trigger: OR-joined on any forward failure; its input
    // container accumulates the State flags via data connectors.
    b = b.activity(
        Activity::noop(NOP_ACTIVITY)
            .describe("compensation trigger (flat variant)")
            .with_input(state_schema(steps))
            .with_output(state_schema(steps))
            .or_start(),
    );
    for step in steps {
        b = b
            .connect_when(&step.name, NOP_ACTIVITY, &format!("{RC_MEMBER} = 0"))
            .map_data(
                &step.name,
                NOP_ACTIVITY,
                &[(RC_MEMBER, &state_member(&step.name))],
            );
    }

    let last = steps.last().expect("non-empty saga");
    validated(
        compensations(b, steps, false)
            .map_to_process_output(&last.name, &[(RC_MEMBER, "Committed")])
            .build_unchecked(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::fixtures;
    use atm::spec::StepSpec;
    use atm::{check_saga, SagaSpec};
    use wfms_model::ActivityKind;

    fn translate(spec: &SagaSpec) -> Result<ProcessDefinition, TranslateError> {
        translate_saga(&check_saga(spec).unwrap())
    }

    fn translate_flat(spec: &SagaSpec) -> Result<ProcessDefinition, TranslateError> {
        translate_saga_flat(&check_saga(spec).unwrap())
    }

    #[test]
    fn figure2_shape() {
        let def = translate(&fixtures::linear_saga("saga3", 3)).unwrap();
        assert_eq!(def.activities.len(), 2);
        let fwd = def.activity(FORWARD_BLOCK).unwrap();
        let comp = def.activity(COMPENSATION_BLOCK).unwrap();
        assert!(fwd.kind.is_block());
        assert!(comp.kind.is_block());
        // Connector Forward -> Compensation on RC = 0.
        assert_eq!(def.control.len(), 1);
        assert_eq!(def.control[0].condition.to_string(), "(RC = 0)");
        // Forward block: 3 activities, chained on RC = 1, State flags.
        let ActivityKind::Block { process: f } = &fwd.kind else {
            unreachable!()
        };
        assert_eq!(f.activities.len(), 3);
        assert_eq!(f.control.len(), 2);
        assert!(f.output.has("State_S1"));
        assert!(f.output.has("RC"));
        // Compensation block: NOP + 3 compensations, entry + chain
        // connectors.
        let ActivityKind::Block { process: c } = &comp.kind else {
            unreachable!()
        };
        assert_eq!(c.activities.len(), 4);
        assert_eq!(c.control.len(), 3 + 2);
        let nop = c.activity(NOP_ACTIVITY).unwrap();
        assert_eq!(nop.kind, ActivityKind::NoOp);
        // Entry condition for the middle step mentions both states.
        let entry = c
            .control
            .iter()
            .find(|cc| cc.from == NOP_ACTIVITY && cc.to == comp_activity("S2"))
            .unwrap();
        let cond = entry.condition.to_string();
        assert!(cond.contains("State_S2"), "{cond}");
        assert!(cond.contains("State_S3"), "{cond}");
        // Compensations are retriable via their exit condition.
        assert!(c
            .activity(&comp_activity("S1"))
            .unwrap()
            .exit
            .expr
            .is_some());
    }

    #[test]
    fn generated_process_validates_for_all_sizes() {
        for n in 1..=12 {
            let def = translate(&fixtures::linear_saga(&format!("s{n}"), n)).unwrap();
            assert!(validate(&def).is_empty(), "n={n}");
            assert_eq!(def.total_activities(), 2 + n + (n + 1));
        }
    }

    #[test]
    fn flat_variant_validates_and_has_no_blocks() {
        for n in 1..=8 {
            let def = translate_flat(&fixtures::linear_saga(&format!("f{n}"), n)).unwrap();
            assert!(validate(&def).is_empty(), "n={n}");
            assert!(def.activities.iter().all(|a| !a.kind.is_block()));
            // n forward + NOP + n compensations, all top level.
            assert_eq!(def.activities.len(), 2 * n + 1);
            assert_eq!(def.nesting_depth(), 1);
        }
    }

    #[test]
    fn flat_variant_compensates_like_the_block_variant() {
        use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
        use wfms_engine::{Engine, InstanceStatus};
        let n = 4;
        for abort_at in 1..=n + 1 {
            let spec = fixtures::linear_saga("flat", n);
            let def = translate_flat(&spec).unwrap();
            let fed = MultiDatabase::new(0);
            let registry = std::sync::Arc::new(ProgramRegistry::new());
            fixtures::register_saga_programs(&fed, &registry, n);
            if abort_at <= n {
                fed.injector()
                    .set_plan(&format!("S{abort_at}"), FailurePlan::Always);
            }
            let engine = Engine::new(std::sync::Arc::clone(&fed), registry);
            engine.register(def).unwrap();
            let id = engine
                .start("flat", wfms_model::Container::empty())
                .unwrap();
            assert_eq!(
                engine.run_to_quiescence(id).unwrap(),
                InstanceStatus::Finished
            );
            let committed = engine
                .output(id)
                .unwrap()
                .get("Committed")
                .and_then(|v| v.as_int())
                == Some(1);
            assert_eq!(committed, abort_at > n, "abort_at={abort_at}");
            for i in 1..=n {
                let expected = if abort_at > n {
                    Some(1)
                } else if i < abort_at {
                    Some(-1)
                } else {
                    None
                };
                assert_eq!(
                    fixtures::marker(&fed, &format!("S{i}")),
                    expected,
                    "abort_at={abort_at} S{i}"
                );
            }
        }
    }

    #[test]
    fn non_linear_rejected() {
        // A flexible transaction's paths are not a saga's one path.
        let figure3 = fixtures::figure3_spec();
        let checked = atm::check_flex(&figure3).unwrap();
        for translated in [translate_saga(&checked), translate_saga_flat(&checked)] {
            assert!(matches!(translated, Err(TranslateError::Unsupported(_))));
        }
    }

    #[test]
    fn ill_formed_rejected() {
        // An ill-formed saga has no checked form to translate.
        let spec = SagaSpec::linear("bad", vec![StepSpec::pivot("P", "prog")]);
        assert!(matches!(
            check_saga(&spec).unwrap_err()[..],
            [atm::WellFormedError::SagaStepNotCompensatable { .. }]
        ));
    }
}
