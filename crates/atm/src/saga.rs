//! Saga specifications (§4.1).
//!
//! A linear saga `T1; T2; …; Tn` with compensations `C1 … Cn`
//! guarantees (García-Molina & Salem, as quoted by the paper): either
//! `T1, T2, …, Tn` executes, or `T1, …, Tj; Cj, …, C2, C1` for some
//! `0 ≤ j < n`.
//!
//! The parallel generalisation groups steps into *stages*: steps in
//! one stage are independent and may run concurrently; stages run in
//! order.
//!
//! [`check_saga`](crate::check_saga) checks a saga into its *one-path
//! form*: a flexible transaction with a single path, its steps in stage
//! order, and no forward retry. The switch rule on that path undoes
//! everything committed, newest first — the guarantee above — so the
//! sequential executor and the translators run a saga on the same form
//! and rule as a flexible transaction. Only
//! [`SagaExecutor::run_parallel`](crate::SagaExecutor::run_parallel)
//! keeps the stages: a stage's concurrent members are not a path.

use crate::spec::StepSpec;
use serde::{Deserialize, Serialize};

/// A saga: ordered stages of compensatable subtransactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SagaSpec {
    /// Saga name.
    pub name: String,
    /// Stages in execution order; steps within a stage are
    /// independent.
    pub stages: Vec<Vec<StepSpec>>,
}

impl SagaSpec {
    /// A linear saga (one step per stage).
    pub fn linear(name: &str, steps: Vec<StepSpec>) -> Self {
        Self {
            name: name.to_owned(),
            stages: steps.into_iter().map(|s| vec![s]).collect(),
        }
    }

    /// A parallel saga with explicit stages.
    pub fn staged(name: &str, stages: Vec<Vec<StepSpec>>) -> Self {
        Self {
            name: name.to_owned(),
            stages,
        }
    }

    /// All steps in stage order (stage-internal order preserved).
    pub fn steps(&self) -> impl Iterator<Item = &StepSpec> {
        self.stages.iter().flatten()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// True if the saga has no steps.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if every stage has exactly one step.
    pub fn is_linear(&self) -> bool {
        self.stages.iter().all(|s| s.len() == 1)
    }

    /// Looks up a step by name.
    pub fn step(&self, name: &str) -> Option<&StepSpec> {
        self.steps().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> SagaSpec {
        SagaSpec::linear(
            "book-trip",
            vec![
                StepSpec::compensatable("T1", "book_flight", "cancel_flight"),
                StepSpec::compensatable("T2", "book_hotel", "cancel_hotel"),
                StepSpec::compensatable("T3", "book_car", "cancel_car"),
            ],
        )
    }

    #[test]
    fn linear_shape() {
        let s = three();
        assert_eq!(s.len(), 3);
        assert!(s.is_linear());
        assert!(!s.is_empty());
        assert_eq!(
            s.steps().map(|x| x.name.as_str()).collect::<Vec<_>>(),
            vec!["T1", "T2", "T3"]
        );
        assert_eq!(s.step("T2").unwrap().program, "book_hotel");
        assert!(s.step("T9").is_none());
    }

    #[test]
    fn staged_is_not_linear() {
        let s = SagaSpec::staged(
            "par",
            vec![
                vec![StepSpec::compensatable("A", "pa", "ca")],
                vec![
                    StepSpec::compensatable("B1", "pb1", "cb1"),
                    StepSpec::compensatable("B2", "pb2", "cb2"),
                ],
            ],
        );
        assert!(!s.is_linear());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_names_detected() {
        let s = SagaSpec::linear(
            "dup",
            vec![
                StepSpec::compensatable("T1", "p", "c"),
                StepSpec::compensatable("T1", "q", "d"),
            ],
        );
        assert_eq!(
            crate::check_saga(&s).unwrap_err(),
            vec![crate::WellFormedError::Structure(
                "duplicate step \"T1\"".into()
            )]
        );
    }
}
