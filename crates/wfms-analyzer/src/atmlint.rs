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
//! irregular. It walks the saga's one path and asks
//! [`Resolved::retries`], the rule the native loop and both
//! translations run: a saga retries no forward step, so every later
//! step may fail. It is deliberately *not* applied to flexible
//! transactions, where F3–F5 (`WA054`–`WA056`) already govern pivot
//! placement per path and alternative paths legitimately commit past
//! pivots.
//!
//! Both models resolve first, as the checks do: a structural error
//! (`WA051`) stops there, and every later lint reads the resolved form.

use crate::dataflow::compensation::findings;
use crate::{Diagnostic, Severity};
use atm::{Resolved, Source, WellFormedError};

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

fn lift(spec_name: &str, errs: &[WellFormedError]) -> Vec<Diagnostic> {
    errs.iter()
        .map(|e| {
            Diagnostic::new(
                code_of(e),
                Severity::Error,
                spec_name,
                element_of(e),
                e.to_string(),
            )
        })
        .collect()
}

/// All ATM-level findings for the specification `name`, given what
/// resolving it gave: each structural error as `WA051`; else, for a
/// saga, S1 (`WA052`), pivot placement (`WA057`) and compensation
/// soundness (`WA106`), and for a flexible transaction F2–F5
/// (`WA053`–`WA056`) and `WA106`. F5 and `WA106` read the one route
/// table of the resolved form.
pub(crate) fn check_spec(
    name: &str,
    resolved: &Result<Resolved, Vec<WellFormedError>>,
) -> Vec<Diagnostic> {
    let resolved = match resolved {
        Err(structure) => return lift(name, structure),
        Ok(resolved) => resolved,
    };
    let mut out = match resolved.source() {
        Source::Saga(_) => {
            let mut out = lift(name, &resolved.uncompensatable());
            out.extend(placement(resolved));
            out
        }
        Source::Flexible(_) => lift(name, &resolved.violations()),
    };
    out.extend(findings(resolved));
    out
}

/// `WA057`: a non-compensatable step with a later step that may still
/// fail — the saga's backward recovery cannot cross the earlier step
/// once it has committed.
fn placement(saga: &Resolved) -> Vec<Diagnostic> {
    let path = &saga.paths()[0];
    let mut out = Vec::new();
    for (i, step) in path.iter().enumerate() {
        if step.class.is_compensatable() {
            continue;
        }
        let blockers: Vec<&str> = path[i + 1..]
            .iter()
            .filter(|later| !saga.retries(later))
            .map(|later| later.name.as_str())
            .collect();
        if !blockers.is_empty() {
            out.push(Diagnostic::new(
                "WA057",
                Severity::Error,
                saga.name(),
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use atm::{FlexSpec, SagaSpec, StepSpec};

    fn lint_saga(spec: &SagaSpec) -> Vec<Diagnostic> {
        Analyzer::new().check_spec(&spec.name, &Resolved::saga(spec))
    }

    fn lint_flex(spec: &FlexSpec) -> Vec<Diagnostic> {
        Analyzer::new().check_spec(&spec.name, &Resolved::flexible(spec))
    }

    #[test]
    fn clean_saga_and_flex_pass() {
        assert!(lint_saga(&atm::fixtures::linear_saga("trip", 3)).is_empty());
        assert!(lint_flex(&atm::fixtures::figure3_spec()).is_empty());
    }

    #[test]
    fn saga_without_compensation_flagged() {
        let spec = SagaSpec::linear("s", vec![StepSpec::pivot("Only", "p")]);
        let diags = lint_saga(&spec);
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
        let diags = lint_saga(&spec);
        let d = diags.iter().find(|d| d.code == "WA057").expect("WA057");
        assert_eq!(d.element.as_deref(), Some("P"));
        assert!(d.message.contains("C"), "{:?}", d.message);
        assert!(diags.iter().any(|d| d.code == "WA052"));
    }

    #[test]
    fn retriable_tail_still_gets_wa057() {
        // A pivot followed only by retriable steps is the flexible
        // transaction's pivot-then-guaranteed-tail shape, but a saga
        // retries no forward step: R may still fail after P committed.
        let spec = SagaSpec::linear(
            "s",
            vec![StepSpec::pivot("P", "p"), StepSpec::retriable("R", "r")],
        );
        let diags = lint_saga(&spec);
        let d = diags.iter().find(|d| d.code == "WA057").expect("WA057");
        assert_eq!(d.element.as_deref(), Some("P"));
        assert!(d.message.contains("(R)"), "{:?}", d.message);
    }

    #[test]
    fn every_small_saga_lints_by_the_one_path_rule() {
        // Every saga of 1–4 steps over the four classes, each step with
        // a compensation iff it is compensatable. A saga retries no
        // forward step, so every step may fail and roll back everything
        // committed before it.
        use txn_substrate::StepClass::*;
        let classes = [Compensatable, Retriable, CompensatableRetriable, Pivot];
        let mut specs = 0;
        for n in 1..=4u32 {
            for code in 0..4usize.pow(n) {
                let steps: Vec<StepSpec> = (0..n as usize)
                    .map(|i| {
                        let class = classes[code / 4usize.pow(i as u32) % 4];
                        StepSpec {
                            name: format!("S{i}"),
                            program: format!("p{i}"),
                            compensation: class.is_compensatable().then(|| format!("c{i}")),
                            class,
                        }
                    })
                    .collect();
                let pivots: Vec<usize> = (0..steps.len())
                    .filter(|&i| !steps[i].class.is_compensatable())
                    .collect();
                let name = |i: usize| steps[i].name.clone();
                let wa052: Vec<String> = pivots.iter().map(|&i| name(i)).collect();
                let wa057: Vec<String> = pivots
                    .iter()
                    .filter(|&&i| i + 1 < steps.len())
                    .map(|&i| name(i))
                    .collect();
                // Each step with an earlier pivot, and the latest such.
                let wa106: Vec<(String, String)> = (0..steps.len())
                    .filter_map(|j| {
                        let blocker = pivots.iter().rev().find(|&&i| i < j)?;
                        Some((name(j), name(*blocker)))
                    })
                    .collect();

                let spec = SagaSpec::linear("s", steps.clone());
                let diags = lint_saga(&spec);
                let named = |code: &str| -> Vec<String> {
                    diags
                        .iter()
                        .filter(|d| d.code == code)
                        .map(|d| d.element.clone().unwrap())
                        .collect()
                };
                let classes: Vec<_> = steps.iter().map(|s| s.class).collect();
                assert_eq!(named("WA052"), wa052, "{classes:?}");
                assert_eq!(named("WA057"), wa057, "{classes:?}");
                let wedged: Vec<(String, String)> = diags
                    .iter()
                    .filter(|d| d.code == "WA106")
                    .map(|d| {
                        let (_, against) = d.message.split_once("wedges against ").unwrap();
                        let against = against.split('"').nth(1).unwrap().to_owned();
                        (d.element.clone().unwrap(), against)
                    })
                    .collect();
                assert_eq!(wedged, wa106, "{classes:?}");
                assert_eq!(
                    diags.len(),
                    wa052.len() + wa057.len() + wa106.len(),
                    "{classes:?}: {diags:?}"
                );
                specs += 1;
            }
        }
        assert_eq!(specs, 340);
    }

    #[test]
    fn compensation_mismatch_flagged_programmatically() {
        // Not expressible in the textual spec format (class inference
        // never disagrees with the declaration), so build it directly.
        let mut step = StepSpec::retriable("R", "r");
        step.compensation = Some("undo_r".into());
        let spec = FlexSpec::new("f", vec![step], vec![vec!["R"]]);
        let diags = lint_flex(&spec);
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
        let diags = lint_flex(&spec);
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
        let diags = lint_flex(&spec);
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
