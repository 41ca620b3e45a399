//! `WA051`–`WA057`: lints over ATM specifications.
//!
//! `WA051`–`WA056` lift the S/F well-formedness rules of
//! [`atm::wellformed`] into the diagnostic framework, one stable code
//! per [`WellFormedError`] variant. `WA057` is new: it pinpoints the
//! *placement* problem behind a mid-saga pivot — a non-compensatable
//! step followed by a step that may still fail means a later abort
//! cannot roll back past the earlier commit. `check_saga` already
//! reports the non-compensatable step itself (`WA052`); `WA057` adds
//! which later steps make its position fatal rather than merely
//! irregular. It is deliberately *not* applied to flexible
//! transactions, where F3–F5 (`WA054`–`WA056`) already govern pivot
//! placement per path and alternative paths legitimately commit past
//! pivots.

use crate::{Diagnostic, Severity};
use atm::{check_saga, FlexSpec, Resolved, SagaSpec, WellFormedError};

/// Maps a well-formedness error to its stable code.
pub fn code_of(err: &WellFormedError) -> &'static str {
    use WellFormedError::*;
    match err {
        Structure(_) => "WA051",
        SagaStepNotCompensatable { .. } => "WA052",
        CompensationMismatch { .. } => "WA053",
        NonCompensatableBetweenPivots { .. } => "WA054",
        LastPathNotGuaranteed { .. } => "WA055",
        NoWayOut { .. } => "WA056",
    }
}

fn element_of(err: &WellFormedError) -> Option<String> {
    use WellFormedError::*;
    match err {
        Structure(_) => None,
        SagaStepNotCompensatable { step }
        | CompensationMismatch { step, .. }
        | NonCompensatableBetweenPivots { step, .. }
        | LastPathNotGuaranteed { step }
        | NoWayOut { step, .. } => Some(step.clone()),
    }
}

fn lift(spec_name: &str, errs: Vec<WellFormedError>) -> Vec<Diagnostic> {
    errs.into_iter()
        .map(|e| {
            Diagnostic::new(
                code_of(&e),
                Severity::Error,
                spec_name,
                element_of(&e),
                e.to_string(),
            )
        })
        .collect()
}

/// All ATM-level findings for a saga: S1–S2 (`WA051`/`WA052`) plus
/// pivot placement (`WA057`).
pub fn check_saga_spec(spec: &SagaSpec) -> Vec<Diagnostic> {
    let mut out = lift(&spec.name, check_saga(spec).err().unwrap_or_default());
    // WA057: a non-compensatable step with a later step that may
    // still fail (is not retriable) — the saga's backward recovery
    // cannot cross the earlier step once it has committed.
    let steps: Vec<_> = spec.steps().collect();
    for (i, step) in steps.iter().enumerate() {
        if step.class.is_compensatable() {
            continue;
        }
        let blockers: Vec<&str> = steps[i + 1..]
            .iter()
            .filter(|later| !later.class.is_retriable())
            .map(|later| later.name.as_str())
            .collect();
        if !blockers.is_empty() {
            out.push(Diagnostic::new(
                "WA057",
                Severity::Error,
                &spec.name,
                Some(step.name.clone()),
                format!(
                    "non-compensatable step {:?} is followed by step(s) that may \
                     still fail ({}); an abort there cannot be rolled back past it",
                    step.name,
                    blockers.join(", ")
                ),
            ));
        }
    }
    // WA106: per-failure-point compensation soundness with a concrete
    // witness path (WA057 above flags the *placement*; WA106 names
    // each failure the backward recovery cannot absorb).
    out.extend(crate::dataflow::compensation::saga_findings(spec));
    out
}

/// All ATM-level findings for a flexible transaction: F1–F5
/// (`WA051`, `WA053`–`WA056`) plus compensation soundness (`WA106`).
/// F5 and `WA106` read one route table, the resolved form's.
pub fn check_flex_spec(spec: &FlexSpec) -> Vec<Diagnostic> {
    match Resolved::flexible(spec) {
        Err(structure) => lift(&spec.name, structure),
        Ok(resolved) => {
            let mut out = lift(&spec.name, resolved.violations());
            out.extend(crate::dataflow::compensation::flex_findings(&resolved));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use atm::StepSpec;

    #[test]
    fn clean_saga_and_flex_pass() {
        assert!(Analyzer::new()
            .check_saga(&atm::fixtures::linear_saga("trip", 3))
            .is_empty());
        assert!(Analyzer::new()
            .check_flex(&atm::fixtures::figure3_spec())
            .is_empty());
    }

    #[test]
    fn saga_without_compensation_flagged() {
        let spec = SagaSpec::linear("s", vec![StepSpec::pivot("Only", "p")]);
        let diags = Analyzer::new().check_saga(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "WA052");
        assert_eq!(diags[0].element.as_deref(), Some("Only"));
        // Last step: nothing after it can fail, so no WA057.
    }

    #[test]
    fn mid_saga_pivot_gets_placement_diagnostic() {
        let spec = SagaSpec::linear(
            "s",
            vec![
                StepSpec::pivot("P", "p"),
                StepSpec::compensatable("C", "c", "undo_c"),
            ],
        );
        let diags = Analyzer::new().check_saga(&spec);
        let d = diags.iter().find(|d| d.code == "WA057").expect("WA057");
        assert_eq!(d.element.as_deref(), Some("P"));
        assert!(d.message.contains("C"), "{:?}", d.message);
        assert!(diags.iter().any(|d| d.code == "WA052"));
    }

    #[test]
    fn retriable_tail_suppresses_wa057() {
        // A pivot followed only by retriable steps is the classic
        // pivot-then-guaranteed-tail shape; WA052 still fires (it is
        // not a well-formed *saga*) but placement is sound.
        let spec = SagaSpec::linear(
            "s",
            vec![StepSpec::pivot("P", "p"), StepSpec::retriable("R", "r")],
        );
        let diags = Analyzer::new().check_saga(&spec);
        assert!(diags.iter().all(|d| d.code != "WA057"), "{diags:?}");
    }

    #[test]
    fn compensation_mismatch_flagged_programmatically() {
        // Not expressible in the textual spec format (class inference
        // never disagrees with the declaration), so build it directly.
        let mut step = StepSpec::retriable("R", "r");
        step.compensation = Some("undo_r".into());
        let spec = FlexSpec::new("f", vec![step], vec![vec!["R"]]);
        let diags = Analyzer::new().check_flex(&spec);
        let d = diags.iter().find(|d| d.code == "WA053").expect("WA053");
        assert_eq!(d.element.as_deref(), Some("R"));
    }

    #[test]
    fn flex_rule_codes_lifted() {
        // Unknown step in a path → F1 structure → WA051.
        let spec = FlexSpec::new(
            "f",
            vec![StepSpec::retriable("R", "r")],
            vec![vec!["R", "Ghost"]],
        );
        let diags = Analyzer::new().check_flex(&spec);
        assert!(diags.iter().any(|d| d.code == "WA051"), "{diags:?}");

        // Last path with a non-retriable tail after its pivot → WA055.
        let spec = FlexSpec::new(
            "f",
            vec![
                StepSpec::pivot("P", "p"),
                StepSpec::compensatable("C", "c", "undo_c"),
            ],
            vec![vec!["P", "C"]],
        );
        let diags = Analyzer::new().check_flex(&spec);
        assert!(diags.iter().any(|d| d.code == "WA055"), "{diags:?}");
    }

    #[test]
    fn all_wellformed_variants_have_distinct_codes() {
        use std::collections::BTreeSet;
        let errs = [
            WellFormedError::Structure("x".into()),
            WellFormedError::SagaStepNotCompensatable { step: "a".into() },
            WellFormedError::CompensationMismatch {
                step: "a".into(),
                has: true,
            },
            WellFormedError::NonCompensatableBetweenPivots {
                path: 0,
                step: "a".into(),
            },
            WellFormedError::LastPathNotGuaranteed { step: "a".into() },
            WellFormedError::NoWayOut {
                path: 0,
                step: "a".into(),
            },
        ];
        let codes: BTreeSet<_> = errs.iter().map(code_of).collect();
        assert_eq!(codes.len(), errs.len());
    }
}
