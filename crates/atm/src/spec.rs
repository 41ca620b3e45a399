//! Shared specification vocabulary for the transaction models.

use serde::{Deserialize, Serialize};
use txn_substrate::StepClass;

/// One subtransaction in a saga or flexible transaction.
///
/// A step names a *forward* program and, when compensatable, a
/// *compensation* program; both must be registered in the
/// [`txn_substrate::ProgramRegistry`] the executor (or workflow
/// engine) runs against — mirroring FlowMark, where activities can
/// only invoke registered programs (§3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSpec {
    /// Step name, unique within the specification (e.g. `"T1"`).
    pub name: String,
    /// Registered forward program.
    pub program: String,
    /// Registered compensation program (required iff the class is
    /// compensatable).
    pub compensation: Option<String>,
    /// Subtransaction class.
    pub class: StepClass,
}

impl StepSpec {
    /// A compensatable step.
    pub fn compensatable(name: &str, program: &str, compensation: &str) -> Self {
        Self {
            name: name.to_owned(),
            program: program.to_owned(),
            compensation: Some(compensation.to_owned()),
            class: StepClass::Compensatable,
        }
    }

    /// A retriable step.
    pub fn retriable(name: &str, program: &str) -> Self {
        Self {
            name: name.to_owned(),
            program: program.to_owned(),
            compensation: None,
            class: StepClass::Retriable,
        }
    }

    /// A step that is both compensatable and retriable.
    pub fn compensatable_retriable(name: &str, program: &str, compensation: &str) -> Self {
        Self {
            name: name.to_owned(),
            program: program.to_owned(),
            compensation: Some(compensation.to_owned()),
            class: StepClass::CompensatableRetriable,
        }
    }

    /// A pivot step.
    pub fn pivot(name: &str, program: &str) -> Self {
        Self {
            name: name.to_owned(),
            program: program.to_owned(),
            compensation: None,
            class: StepClass::Pivot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_classes() {
        let c = StepSpec::compensatable("T1", "p1", "c1");
        assert!(c.class.is_compensatable());
        assert_eq!(c.compensation.as_deref(), Some("c1"));

        let r = StepSpec::retriable("T3", "p3");
        assert!(r.class.is_retriable());
        assert!(r.compensation.is_none());

        let cr = StepSpec::compensatable_retriable("T6", "p6", "c6");
        assert!(cr.class.is_compensatable() && cr.class.is_retriable());

        let p = StepSpec::pivot("T2", "p2");
        assert!(p.class.is_pivot());
    }

    #[test]
    fn serde_round_trip() {
        let s = StepSpec::compensatable("T1", "p1", "c1");
        let json = serde_json::to_string(&s).unwrap();
        let back: StepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
