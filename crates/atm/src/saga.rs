//! Saga specifications (§4.1).
//!
//! A linear saga `T1; T2; …; Tn` with compensations `C1 … Cn`
//! guarantees (García-Molina & Salem, as quoted by the paper): either
//! `T1, T2, …, Tn` executes, or `T1, …, Tj; Cj, …, C2, C1` for some
//! `0 ≤ j < n`.
//!
//! A saga is the list of its steps. [`check_saga`](crate::check_saga)
//! checks it into its *one-path form*: a flexible transaction with a
//! single path, its steps in order, and no forward retry. The switch
//! rule on that path undoes everything committed, newest first — the
//! guarantee above — so the executor, both translators and the lints
//! run a saga on the same form and rule as a flexible transaction.
//! Parallel sagas, whose static and dynamic compensation orders differ
//! (Lanese), are not modelled.

use crate::spec::StepSpec;
use serde::{Deserialize, Serialize};

/// A saga: compensatable subtransactions in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SagaSpec {
    /// Saga name.
    pub name: String,
    /// Steps in execution order.
    pub steps: Vec<StepSpec>,
}

impl SagaSpec {
    /// A saga of `steps`, run in order.
    pub fn linear(name: &str, steps: Vec<StepSpec>) -> Self {
        Self {
            name: name.to_owned(),
            steps,
        }
    }

    /// All steps in order.
    pub fn steps(&self) -> impl Iterator<Item = &StepSpec> {
        self.steps.iter()
    }

    /// Looks up a step by name.
    pub fn step(&self, name: &str) -> Option<&StepSpec> {
        self.steps().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shape() {
        let s = SagaSpec::linear(
            "book-trip",
            vec![
                StepSpec::compensatable("T1", "book_flight", "cancel_flight"),
                StepSpec::compensatable("T2", "book_hotel", "cancel_hotel"),
                StepSpec::compensatable("T3", "book_car", "cancel_car"),
            ],
        );
        assert_eq!(
            s.steps().map(|x| x.name.as_str()).collect::<Vec<_>>(),
            vec!["T1", "T2", "T3"]
        );
        assert_eq!(s.step("T2").unwrap().program, "book_hotel");
        assert!(s.step("T9").is_none());
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
