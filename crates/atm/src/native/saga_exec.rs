//! The native saga executor (§4.1).
//!
//! Provides the García-Molina/Salem guarantee directly: either every
//! subtransaction commits, or the committed prefix is compensated in
//! reverse order. Compensations are treated as retriable ("in general
//! considered retrievable, in the sense that the compensation must be
//! executed", appendix) and retried up to a configurable bound.
//!
//! [`SagaExecutor::run`] is the shared native loop on the saga's
//! one-path form.

use crate::native::trace::AtmTrace;
use crate::native::Ended;
use crate::saga::SagaSpec;
use crate::wellformed::{check_saga, WellFormedError};
use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramRegistry};

/// Outcome of a saga execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SagaOutcome {
    /// Every subtransaction committed.
    Committed,
    /// The saga aborted at `abort_step` and the committed prefix was
    /// compensated in reverse order.
    RolledBack {
        /// The step whose failure aborted the saga.
        abort_step: String,
    },
    /// A compensation kept failing past the retry bound — the saga
    /// guarantee is broken and an operator must intervene. (With
    /// retriable compensations, as the model assumes, this cannot
    /// happen.)
    CompensationStuck {
        /// The compensation that exceeded its retries.
        step: String,
    },
}

/// Result of a saga execution: outcome plus full trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaResult {
    /// What happened.
    pub outcome: SagaOutcome,
    /// Ordered trace of commits, aborts and compensations.
    pub trace: AtmTrace,
}

impl SagaResult {
    /// True if the saga committed in full.
    pub fn is_committed(&self) -> bool {
        self.outcome == SagaOutcome::Committed
    }
}

/// The native saga executor.
pub struct SagaExecutor {
    multidb: Arc<MultiDatabase>,
    registry: Arc<ProgramRegistry>,
    /// Retry bound per compensation (defence against broken
    /// compensation programs; the model itself assumes ∞).
    pub max_compensation_retries: u32,
}

impl SagaExecutor {
    /// Builds an executor over `multidb` and `registry`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
    /// use atm::{fixtures, SagaExecutor, SagaOutcome};
    ///
    /// let fed = MultiDatabase::new(0);
    /// let registry = Arc::new(ProgramRegistry::new());
    /// fixtures::register_saga_programs(&fed, &registry, 3);
    /// fed.injector().set_plan("S3", FailurePlan::Always);
    ///
    /// let exec = SagaExecutor::new(Arc::clone(&fed), registry);
    /// let result = exec.run(&fixtures::linear_saga("s", 3)).unwrap();
    /// assert_eq!(result.outcome, SagaOutcome::RolledBack { abort_step: "S3".into() });
    /// // T1, T2 committed then were compensated, in reverse order.
    /// assert_eq!(result.trace.compensated(), vec!["S2", "S1"]);
    /// ```
    pub fn new(multidb: Arc<MultiDatabase>, registry: Arc<ProgramRegistry>) -> Self {
        Self {
            multidb,
            registry,
            max_compensation_retries: 1_000,
        }
    }

    /// Runs `spec` on its one-path form: the steps execute in order; a
    /// forward step that aborts is not retried, and the steps already
    /// committed are compensated in reverse commit order.
    ///
    /// Returns `Err` if the spec is not a well-formed saga.
    pub fn run(&self, spec: &SagaSpec) -> Result<SagaResult, Vec<WellFormedError>> {
        let checked = check_saga(spec)?;
        let mut trace = AtmTrace::default();
        let retries = self.max_compensation_retries;
        let (ended, _) = super::run(&checked, &self.multidb, &self.registry, retries, &mut trace);
        let outcome = match ended {
            Ended::Committed(_) => SagaOutcome::Committed,
            Ended::Aborted(abort_step) => SagaOutcome::RolledBack { abort_step },
            Ended::Stuck(step) => SagaOutcome::CompensationStuck { step },
        };
        Ok(SagaResult { outcome, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::native::trace::AtmEvent;
    use txn_substrate::{on_attempts, FailurePlan};

    fn rig(n: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        fixtures::register_saga_programs(&fed, &registry, n);
        (fed, registry)
    }

    #[test]
    fn all_commit_when_nothing_fails() {
        let (fed, registry) = rig(4);
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run(&fixtures::linear_saga("s", 4)).unwrap();
        assert!(res.is_committed());
        assert_eq!(res.trace.committed(), vec!["S1", "S2", "S3", "S4"]);
        assert!(res.trace.compensated().is_empty());
        for i in 1..=4 {
            assert_eq!(fixtures::marker(&fed, &format!("S{i}")), Some(1));
        }
    }

    #[test]
    fn abort_at_j_compensates_reverse_prefix() {
        let (fed, registry) = rig(5);
        fed.injector().set_plan("S4", FailurePlan::Always);
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run(&fixtures::linear_saga("s", 5)).unwrap();
        assert_eq!(
            res.outcome,
            SagaOutcome::RolledBack {
                abort_step: "S4".into()
            }
        );
        assert_eq!(res.trace.committed(), vec!["S1", "S2", "S3"]);
        assert_eq!(res.trace.compensated(), vec!["S3", "S2", "S1"]);
        // Markers: compensated steps -1, failed step absent, rest absent.
        for i in 1..=3 {
            assert_eq!(fixtures::marker(&fed, &format!("S{i}")), Some(-1));
        }
        assert_eq!(fixtures::marker(&fed, "S4"), None);
        assert_eq!(fixtures::marker(&fed, "S5"), None);
    }

    #[test]
    fn first_step_abort_compensates_nothing() {
        let (fed, registry) = rig(3);
        fed.injector().set_plan("S1", FailurePlan::Always);
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run(&fixtures::linear_saga("s", 3)).unwrap();
        assert!(matches!(res.outcome, SagaOutcome::RolledBack { .. }));
        assert!(res.trace.compensated().is_empty());
    }

    #[test]
    fn compensations_retry_until_commit() {
        let (fed, registry) = rig(3);
        fed.injector().set_plan("S3", FailurePlan::Always);
        // The compensation of S2 fails twice before committing.
        fed.injector().set_plan("undo_S2", on_attempts([0, 1]));
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run(&fixtures::linear_saga("s", 3)).unwrap();
        assert!(matches!(res.outcome, SagaOutcome::RolledBack { .. }));
        assert_eq!(res.trace.compensated(), vec!["S2", "S1"]);
        let retries = res
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, AtmEvent::CompensationRetried(s, _) if s == "S2"))
            .count();
        assert_eq!(retries, 2);
        assert_eq!(fixtures::marker(&fed, "S2"), Some(-1));
    }

    #[test]
    fn stuck_compensation_reported() {
        let (fed, registry) = rig(2);
        fed.injector().set_plan("S2", FailurePlan::Always);
        fed.injector().set_plan("undo_S1", FailurePlan::Always);
        let mut exec = SagaExecutor::new(Arc::clone(&fed), registry);
        exec.max_compensation_retries = 3;
        let res = exec.run(&fixtures::linear_saga("s", 2)).unwrap();
        assert_eq!(
            res.outcome,
            SagaOutcome::CompensationStuck { step: "S1".into() }
        );
    }

    #[test]
    fn ill_formed_saga_rejected() {
        let (fed, registry) = rig(1);
        let exec = SagaExecutor::new(fed, registry);
        let bad = SagaSpec::linear("bad", vec![crate::spec::StepSpec::pivot("P", "prog")]);
        assert!(exec.run(&bad).is_err());
    }
}
