//! The native flexible-transaction executor (§4.2).
//!
//! Executes the preference-ordered paths of a [`FlexSpec`] on the
//! shared native loop: a retriable step that aborts is retried until it
//! commits, any other abort switches paths by the model's switch rule
//! ("In the case that T8 is the one that aborts, T5 and T6 will be
//! compensated before T7 is executed"), and compensations are
//! retriable, as in the saga model. The executor decides nothing
//! itself: the switch rule is the model crate's one copy, the same the
//! F5 rule, `WA106` and the Figure 4 translator read.

use crate::flexible::FlexSpec;
use crate::native::trace::AtmTrace;
use crate::native::Ended;
use crate::wellformed::{check_flex, WellFormedError};
use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramRegistry};

/// Outcome of a flexible-transaction execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlexOutcome {
    /// The transaction committed by completing the path with this
    /// index (0 = most preferred).
    CommittedVia(usize),
    /// Every alternative failed before a pivot committed; all
    /// committed steps were compensated.
    Aborted,
    /// The execution exceeded a retry bound — only possible when a
    /// supposedly retriable program in fact never commits, i.e. the
    /// specification lied about a step's class.
    Stuck {
        /// The step that exhausted its retries.
        step: String,
    },
}

/// Result of a flexible-transaction execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexResult {
    /// What happened.
    pub outcome: FlexOutcome,
    /// Ordered trace.
    pub trace: AtmTrace,
    /// Steps still committed at the end (the effects that persist).
    pub committed: Vec<String>,
}

impl FlexResult {
    /// True if the transaction committed via some path.
    pub fn is_committed(&self) -> bool {
        matches!(self.outcome, FlexOutcome::CommittedVia(_))
    }
}

/// The native flexible-transaction executor.
pub struct FlexExecutor {
    multidb: Arc<MultiDatabase>,
    registry: Arc<ProgramRegistry>,
    /// Retry bound for retriable steps and compensations.
    pub max_retries: u32,
}

impl FlexExecutor {
    /// Builds an executor over `multidb` and `registry`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
    /// use atm::{fixtures, FlexExecutor, FlexOutcome};
    ///
    /// let fed = MultiDatabase::new(0);
    /// let registry = Arc::new(ProgramRegistry::new());
    /// fixtures::register_figure3_programs(&fed, &registry);
    /// // T8 always aborts: the paper's "T5 and T6 will be compensated
    /// // before T7 is executed".
    /// fed.injector().set_plan("T8", FailurePlan::Always);
    ///
    /// let exec = FlexExecutor::new(Arc::clone(&fed), registry);
    /// let result = exec.run(&fixtures::figure3_spec()).unwrap();
    /// assert_eq!(result.outcome, FlexOutcome::CommittedVia(1)); // p2
    /// assert_eq!(result.trace.compensated(), vec!["T6", "T5"]);
    /// ```
    pub fn new(multidb: Arc<MultiDatabase>, registry: Arc<ProgramRegistry>) -> Self {
        Self {
            multidb,
            registry,
            max_retries: 1_000,
        }
    }

    /// Runs `spec`. Returns `Err` if it is not well-formed.
    pub fn run(&self, spec: &FlexSpec) -> Result<FlexResult, Vec<WellFormedError>> {
        let checked = check_flex(spec)?;
        let mut trace = AtmTrace::default();
        let (ended, committed) = super::run(
            &checked,
            &self.multidb,
            &self.registry,
            self.max_retries,
            &mut trace,
        );
        let outcome = match ended {
            Ended::Committed(k) => FlexOutcome::CommittedVia(k),
            Ended::Aborted(_) => FlexOutcome::Aborted,
            Ended::Stuck(step) => FlexOutcome::Stuck { step },
        };
        Ok(FlexResult {
            outcome,
            trace,
            committed: committed.iter().map(|s| s.name.clone()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, figure3_spec, marker};
    use crate::native::trace::AtmEvent;
    use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};

    fn rig() -> (Arc<MultiDatabase>, FlexExecutor) {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        fixtures::register_figure3_programs(&fed, &registry);
        let exec = FlexExecutor::new(Arc::clone(&fed), registry);
        (fed, exec)
    }

    #[test]
    fn happy_path_commits_via_p1() {
        let (fed, exec) = rig();
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::CommittedVia(0));
        assert_eq!(res.committed, vec!["T1", "T2", "T4", "T5", "T6", "T8"]);
        for t in ["T1", "T2", "T4", "T5", "T6", "T8"] {
            assert_eq!(marker(&fed, t), Some(1));
        }
        assert_eq!(marker(&fed, "T3"), None);
        assert_eq!(marker(&fed, "T7"), None);
    }

    #[test]
    fn t1_abort_aborts_whole_transaction() {
        // "First T1 is executed, if it aborts, then the entire
        // transaction is considered to be aborted."
        let (fed, exec) = rig();
        fed.injector().set_plan("T1", FailurePlan::Always);
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::Aborted);
        assert!(res.committed.is_empty());
        assert!(res.trace.compensated().is_empty());
    }

    #[test]
    fn t2_abort_compensates_t1_and_aborts() {
        // "If T2 aborts … the compensation for T1 is executed."
        let (fed, exec) = rig();
        fed.injector().set_plan("T2", FailurePlan::Always);
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::Aborted);
        // T1 is the kept prefix of every alternative, so it survives
        // both switches and is compensated exactly once, at the final
        // abort.
        assert_eq!(res.trace.compensated(), vec!["T1"]);
        assert_eq!(marker(&fed, "T1"), Some(-1));
        // T2 is in every path's continuation, so its failure finds no
        // fallback: it is attempted exactly once (the paper's "if T2
        // aborts … the compensation for T1 is executed and all other
        // activities are marked as terminated").
        let attempts = res
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, AtmEvent::Aborted(s, _) if s == "T2"))
            .count();
        assert_eq!(attempts, 1);
    }

    #[test]
    fn t4_abort_falls_through_to_p3() {
        // "If T4 aborts, T3 is executed until it successfully commits."
        let (fed, exec) = rig();
        fed.injector().set_plan("T4", FailurePlan::Always);
        fed.injector().set_plan("T3", FailurePlan::FirstN(2));
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::CommittedVia(2));
        assert_eq!(res.committed, vec!["T1", "T2", "T3"]);
        // T3 needed two retries.
        let retries = res
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, AtmEvent::Retried(s, _) if s == "T3"))
            .count();
        assert_eq!(retries, 2);
        assert_eq!(marker(&fed, "T3"), Some(1));
        assert_eq!(marker(&fed, "T1"), Some(1), "shared prefix survives");
    }

    #[test]
    fn t5_abort_switches_to_p2_without_compensation() {
        // "If either T5, T6 or T8 aborts, then T7 is executed."
        let (fed, exec) = rig();
        fed.injector().set_plan("T5", FailurePlan::Always);
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::CommittedVia(1));
        assert!(res.trace.compensated().is_empty(), "nothing beyond prefix");
        assert_eq!(res.committed, vec!["T1", "T2", "T4", "T7"]);
    }

    #[test]
    fn t8_abort_compensates_t6_t5_then_runs_t7() {
        // "In the case that T8 is the one that aborts, T5 and T6 will
        // be compensated before T7 is executed." (reverse order)
        let (fed, exec) = rig();
        fed.injector().set_plan("T8", FailurePlan::Always);
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::CommittedVia(1));
        assert_eq!(res.trace.compensated(), vec!["T6", "T5"]);
        assert_eq!(marker(&fed, "T5"), Some(-1));
        assert_eq!(marker(&fed, "T6"), Some(-1));
        assert_eq!(marker(&fed, "T7"), Some(1));
        assert_eq!(res.committed, vec!["T1", "T2", "T4", "T7"]);
    }

    #[test]
    fn retriable_t7_retries_within_p2() {
        let (fed, exec) = rig();
        fed.injector().set_plan("T6", FailurePlan::Always);
        fed.injector().set_plan("T7", FailurePlan::FirstN(3));
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::CommittedVia(1));
        assert_eq!(res.trace.compensated(), vec!["T5"]);
        let t7_retries = res
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, AtmEvent::Retried(s, _) if s == "T7"))
            .count();
        assert_eq!(t7_retries, 3);
    }

    #[test]
    fn stuck_when_retriable_lies() {
        let (fed, mut exec) = rig();
        fed.injector().set_plan("T4", FailurePlan::Always);
        fed.injector().set_plan("T3", FailurePlan::Always);
        exec.max_retries = 5;
        let res = exec.run(&figure3_spec()).unwrap();
        assert_eq!(res.outcome, FlexOutcome::Stuck { step: "T3".into() });
    }

    #[test]
    fn ill_formed_spec_rejected() {
        let (_, exec) = rig();
        let mut spec = figure3_spec();
        spec.paths.push(vec![]);
        assert!(exec.run(&spec).is_err());
    }

    #[test]
    fn every_single_step_failure_keeps_invariants() {
        // For each step failing permanently, the execution must either
        // commit via some path or abort having compensated every
        // committed compensatable; no marker may be left at 1 unless
        // it belongs to the surviving committed set.
        for fail in fixtures::FIGURE3_STEPS {
            let (fed, exec) = rig();
            fed.injector().set_plan(fail, FailurePlan::Always);
            let spec = figure3_spec();
            // Retriable steps failing forever would legitimately hang;
            // skip them (covered by the `stuck` test).
            if spec.step(fail).unwrap().class.is_retriable() {
                continue;
            }
            let res = exec.run(&spec).unwrap();
            for t in fixtures::FIGURE3_STEPS {
                let m = marker(&fed, t);
                if res.committed.contains(&t.to_string()) {
                    assert_eq!(m, Some(1), "fail={fail}: {t} should persist");
                } else {
                    assert_ne!(m, Some(1), "fail={fail}: {t} left dangling");
                }
            }
        }
    }
}
