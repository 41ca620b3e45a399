//! The native saga executor (§4.1).
//!
//! Provides the García-Molina/Salem guarantee directly: either every
//! subtransaction commits, or the committed prefix is compensated in
//! reverse order. Compensations are treated as retriable ("in general
//! considered retrievable, in the sense that the compensation must be
//! executed", appendix) and retried up to a configurable bound.
//!
//! [`SagaExecutor::run`] is the shared native loop on the saga's
//! one-path form; [`SagaExecutor::run_parallel`] keeps the stages.

use crate::native::trace::{AtmEvent, AtmTrace};
use crate::native::Ended;
use crate::saga::SagaSpec;
use crate::wellformed::{check_saga, WellFormedError};
use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramContext, ProgramRegistry};

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

    /// Runs `spec` on its one-path form: stage steps execute
    /// sequentially in declaration order (the workflow comparison point
    /// is the flow structure, not intra-stage parallelism); a forward
    /// step that aborts is not retried, and the steps already committed
    /// — including earlier steps of the failing stage — are compensated
    /// in reverse commit order.
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

    /// Parallel-saga execution (the generalisation of
    /// García-Molina et al. the paper cites alongside linear sagas):
    /// the steps of each stage run **concurrently** on their own
    /// threads against the autonomous local databases; the stage
    /// commits when every member committed. If any member aborts, all
    /// committed steps — from this and earlier stages — are
    /// compensated in reverse commit order.
    ///
    /// Trace ordering within a stage follows commit completion order
    /// (and is therefore non-deterministic across runs); compensation
    /// order is the reverse of that observed order, preserving the
    /// saga guarantee.
    pub fn run_parallel(&self, spec: &SagaSpec) -> Result<SagaResult, Vec<WellFormedError>> {
        check_saga(spec)?;
        let mut trace = AtmTrace::default();
        let mut committed: Vec<&crate::spec::StepSpec> = Vec::new();

        for stage in &spec.stages {
            // Run all stage members concurrently; collect outcomes in
            // completion order.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                for step in stage {
                    let tx = tx.clone();
                    let multidb = Arc::clone(&self.multidb);
                    let registry = Arc::clone(&self.registry);
                    s.spawn(move || {
                        let mut ctx = ProgramContext::new(multidb);
                        let outcome = registry.invoke(&step.program, &mut ctx);
                        let _ = tx.send((step, outcome.is_committed()));
                    });
                }
            });
            drop(tx);
            let mut failed = None;
            for (step, ok) in rx.iter() {
                if ok {
                    trace.push(AtmEvent::Committed(step.name.clone()));
                    committed.push(step);
                } else {
                    trace.push(AtmEvent::Aborted(step.name.clone(), 0));
                    failed.get_or_insert(step.name.clone());
                }
            }
            if let Some(abort_step) = failed {
                return Ok(self.roll_back(&committed, abort_step, trace));
            }
        }
        Ok(SagaResult {
            outcome: SagaOutcome::Committed,
            trace,
        })
    }

    /// Compensates `committed` newest first: the saga rolled back at
    /// `abort_step`, or a compensation exhausted its retries.
    fn roll_back(
        &self,
        committed: &[&crate::spec::StepSpec],
        abort_step: String,
        mut trace: AtmTrace,
    ) -> SagaResult {
        for step in committed.iter().rev() {
            let undone = super::compensate(
                &self.multidb,
                &self.registry,
                self.max_compensation_retries,
                step,
                &mut trace,
            );
            if let Err(step) = undone {
                return SagaResult {
                    outcome: SagaOutcome::CompensationStuck { step },
                    trace,
                };
            }
        }
        SagaResult {
            outcome: SagaOutcome::RolledBack { abort_step },
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
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
    fn staged_saga_compensates_partial_stage() {
        // Stage 1 = [S1]; stage 2 = [S2, S3]; S3 fails after S2
        // committed: S2 and S1 must both be compensated, reverse order.
        let (fed, registry) = rig(3);
        fed.injector().set_plan("S3", FailurePlan::Always);
        let spec = SagaSpec::staged(
            "staged",
            vec![
                vec![crate::spec::StepSpec::compensatable(
                    "S1", "do_S1", "undo_S1",
                )],
                vec![
                    crate::spec::StepSpec::compensatable("S2", "do_S2", "undo_S2"),
                    crate::spec::StepSpec::compensatable("S3", "do_S3", "undo_S3"),
                ],
            ],
        );
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run(&spec).unwrap();
        assert_eq!(res.trace.compensated(), vec!["S2", "S1"]);
    }

    #[test]
    fn parallel_stages_commit_everything() {
        let (fed, registry) = rig(6);
        let spec = SagaSpec::staged(
            "par",
            vec![
                vec![crate::spec::StepSpec::compensatable(
                    "S1", "do_S1", "undo_S1",
                )],
                (2..=5)
                    .map(|i| {
                        crate::spec::StepSpec::compensatable(
                            &format!("S{i}"),
                            &format!("do_S{i}"),
                            &format!("undo_S{i}"),
                        )
                    })
                    .collect(),
                vec![crate::spec::StepSpec::compensatable(
                    "S6", "do_S6", "undo_S6",
                )],
            ],
        );
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run_parallel(&spec).unwrap();
        assert!(res.is_committed());
        for i in 1..=6 {
            assert_eq!(fixtures::marker(&fed, &format!("S{i}")), Some(1));
        }
        // S1 committed before the parallel stage, S6 after it.
        let order = res.trace.committed();
        assert_eq!(order.first(), Some(&"S1"));
        assert_eq!(order.last(), Some(&"S6"));
    }

    #[test]
    fn parallel_stage_failure_compensates_all_committed() {
        let (fed, registry) = rig(5);
        // S3 (inside the parallel stage) always fails; the other stage
        // members may or may not have committed before the failure is
        // observed — all committed ones must be compensated.
        fed.injector().set_plan("S3", FailurePlan::Always);
        let spec = SagaSpec::staged(
            "par",
            vec![
                vec![crate::spec::StepSpec::compensatable(
                    "S1", "do_S1", "undo_S1",
                )],
                (2..=5)
                    .map(|i| {
                        crate::spec::StepSpec::compensatable(
                            &format!("S{i}"),
                            &format!("do_S{i}"),
                            &format!("undo_S{i}"),
                        )
                    })
                    .collect(),
            ],
        );
        let exec = SagaExecutor::new(Arc::clone(&fed), registry);
        let res = exec.run_parallel(&spec).unwrap();
        assert_eq!(
            res.outcome,
            SagaOutcome::RolledBack {
                abort_step: "S3".into()
            }
        );
        // Invariant: every marker is either compensated (-1) or never
        // committed (None); nothing is left at 1.
        for i in 1..=5 {
            let m = fixtures::marker(&fed, &format!("S{i}"));
            assert_ne!(m, Some(1), "S{i} left committed after rollback");
        }
        assert_eq!(
            fixtures::marker(&fed, "S1"),
            Some(-1),
            "S1 surely committed"
        );
        // Compensations happened in reverse commit order.
        let committed = res.trace.committed();
        let compensated = res.trace.compensated();
        let reversed: Vec<&str> = committed.iter().rev().copied().collect();
        assert_eq!(compensated, reversed);
    }

    #[test]
    fn parallel_agrees_with_sequential_on_linear_sagas() {
        for abort_at in [None, Some(2)] {
            let (fed_a, reg_a) = rig(3);
            let (fed_b, reg_b) = rig(3);
            if let Some(j) = abort_at {
                fed_a
                    .injector()
                    .set_plan(&format!("S{j}"), FailurePlan::Always);
                fed_b
                    .injector()
                    .set_plan(&format!("S{j}"), FailurePlan::Always);
            }
            let spec = fixtures::linear_saga("s", 3);
            let seq = SagaExecutor::new(Arc::clone(&fed_a), reg_a)
                .run(&spec)
                .unwrap();
            let par = SagaExecutor::new(Arc::clone(&fed_b), reg_b)
                .run_parallel(&spec)
                .unwrap();
            assert_eq!(seq.outcome, par.outcome);
            assert_eq!(seq.trace, par.trace, "singleton stages are deterministic");
            // Database states agree too.
            assert_eq!(
                fed_a.db("saga_db").unwrap().snapshot(),
                fed_b.db("saga_db").unwrap().snapshot()
            );
        }
    }

    #[test]
    fn ill_formed_saga_rejected() {
        let (fed, registry) = rig(1);
        let exec = SagaExecutor::new(fed, registry);
        let bad = SagaSpec::linear("bad", vec![crate::spec::StepSpec::pivot("P", "prog")]);
        assert!(exec.run(&bad).is_err());
    }
}
