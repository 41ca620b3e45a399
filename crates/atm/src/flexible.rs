//! Flexible transaction specifications (§4.2).
//!
//! A flexible transaction provides **alternative execution paths** in
//! preference order: "if a subtransaction is aborted, then a different
//! subtransaction can be submitted in the hope that it will be
//! successful. A flexible transaction commits if either the main
//! subtransactions or their alternatives commit."
//!
//! The specification mirrors the paper's Figure 3: a set of typed
//! steps and a preference-ordered list of paths (each path a total
//! order of step names). Paths share prefixes.
//!
//! What an abort does is decided here and nowhere else:
//! [`FlexSpec::switch`] picks the fallback path and the committed steps
//! to undo, and [`FlexSpec::failures`] enumerates every abort reachable
//! from the most preferred path with its switch. The native executor,
//! the F5 rule, `WA106` and the Figure 4 translator all read these two.

use crate::spec::{SpecError, StepSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use txn_substrate::StepClass;

/// One subtransaction of a flexible transaction. Alias of
/// [`StepSpec`], re-exported under the model's own name for clarity in
/// downstream code.
pub type FlexStep = StepSpec;

/// A flexible transaction specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexSpec {
    /// Transaction name.
    pub name: String,
    /// All subtransactions, keyed by name via [`FlexSpec::step`].
    pub steps: Vec<FlexStep>,
    /// Alternative execution paths in preference order (most preferred
    /// first); each path is a sequence of step names.
    pub paths: Vec<Vec<String>>,
}

impl FlexSpec {
    /// Builds a specification.
    pub fn new(name: &str, steps: Vec<FlexStep>, paths: Vec<Vec<&str>>) -> Self {
        Self {
            name: name.to_owned(),
            steps,
            paths: paths
                .into_iter()
                .map(|p| p.into_iter().map(|s| s.to_owned()).collect())
                .collect(),
        }
    }

    /// Looks up a step by name.
    pub fn step(&self, name: &str) -> Option<&FlexStep> {
        self.steps.iter().find(|s| s.name == name)
    }

    /// The class of a step (panics on unknown names — callers run
    /// [`crate::wellformed::check_flex`] first).
    pub fn class_of(&self, name: &str) -> StepClass {
        self.step(name).expect("step exists").class
    }

    /// Structural errors: duplicate steps, unknown path references,
    /// duplicate steps within a path, no paths, empty paths.
    pub fn structural_errors(&self) -> Vec<SpecError> {
        let mut errors = Vec::new();
        let mut seen = BTreeSet::new();
        for s in &self.steps {
            if !seen.insert(s.name.clone()) {
                errors.push(SpecError::DuplicateStep(s.name.clone()));
            }
        }
        for path in &self.paths {
            let mut in_path = BTreeSet::new();
            for name in path {
                if self.step(name).is_none() {
                    errors.push(SpecError::UnknownStep(name.clone()));
                }
                if !in_path.insert(name.clone()) {
                    errors.push(SpecError::DuplicateStep(format!("{name} (within a path)")));
                }
            }
        }
        errors
    }

    /// Length of the longest common prefix of two paths.
    pub fn common_prefix_len(a: &[String], b: &[String]) -> usize {
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }

    /// The switch rule of §4.2: step `failed` aborted while path `k`
    /// ran with `committed` (in commit order) committed.
    ///
    /// Execution falls through to the most preferred later path whose
    /// continuation — past the prefix of it already committed — does
    /// not contain `failed`: aborting `T4` in Figure 3 jumps straight to
    /// `p3 = T1 T2 T3` (`p2` would only re-attempt `T4`), aborting `T8`
    /// falls to `p2`'s continuation `T7`. Every committed step that path
    /// does not keep is undone; with no such path, all of them are.
    pub fn switch(&self, k: usize, committed: &[String], failed: &str) -> Switch {
        let kept = |path: &[String]| path.iter().take_while(|s| committed.contains(s)).count();
        let to = ((k + 1)..self.paths.len()).find(|&j| {
            let path = &self.paths[j];
            !path[kept(path)..].iter().any(|s| s == failed)
        });
        let keep = to.map_or(0, |j| kept(&self.paths[j]));
        let kept_steps = to.map_or(&[][..], |j| &self.paths[j][..keep]);
        let undo = committed
            .iter()
            .rev()
            .filter(|s| !kept_steps.contains(s))
            .cloned()
            .collect();
        Switch { to, keep, undo }
    }

    /// Every abort reachable from path 0, each with its [`Switch`].
    ///
    /// Retriable steps never abort; every other step may. A switch
    /// always moves to a strictly later path, so visiting the paths in
    /// order reaches every entry state before its path is walked.
    /// Unknown step names never abort (structure errors are F1's).
    pub fn failures(&self) -> Vec<Failure> {
        let may_fail = |name: &str| self.step(name).is_some_and(|s| !s.class.is_retriable());
        // Per path: the committed steps it is entered with.
        let mut entries: Vec<Vec<Vec<String>>> = vec![Vec::new(); self.paths.len()];
        if let Some(first) = entries.first_mut() {
            first.push(Vec::new());
        }
        let mut out = Vec::new();
        for k in 0..self.paths.len() {
            for mut committed in std::mem::take(&mut entries[k]) {
                let pending: Vec<&String> = self.paths[k]
                    .iter()
                    .filter(|s| !committed.contains(s))
                    .collect();
                for step in pending {
                    if may_fail(step) {
                        let switch = self.switch(k, &committed, step);
                        if let Some(to) = switch.to {
                            let kept: Vec<String> = committed
                                .iter()
                                .filter(|s| !switch.undo.contains(s))
                                .cloned()
                                .collect();
                            if !entries[to].contains(&kept) {
                                entries[to].push(kept);
                            }
                        }
                        out.push(Failure {
                            path: k,
                            committed: committed.clone(),
                            step: step.clone(),
                            switch,
                        });
                    }
                    committed.push(step.clone());
                }
            }
        }
        out
    }
}

/// Where an abort leads: [`FlexSpec::switch`]'s answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Switch {
    /// The fallback path; `None` aborts the transaction.
    pub to: Option<usize>,
    /// How many leading steps of the fallback path stay committed (0
    /// when the transaction aborts).
    pub keep: usize,
    /// The committed steps to compensate, newest first.
    pub undo: Vec<String>,
}

/// One abort reachable from path 0: [`FlexSpec::failures`]'s item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The path that was running.
    pub path: usize,
    /// The steps committed when `step` aborted, in commit order.
    pub committed: Vec<String>,
    /// The step that aborted.
    pub step: String,
    /// Where execution goes next.
    pub switch: Switch,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FlexSpec {
        FlexSpec::new(
            "demo",
            vec![
                FlexStep::compensatable("T1", "p1", "c1"),
                FlexStep::pivot("T2", "p2"),
                FlexStep::retriable("T3", "p3"),
            ],
            vec![vec!["T1", "T2"], vec!["T1", "T3"]],
        )
    }

    #[test]
    fn lookup_and_class() {
        let s = spec();
        assert_eq!(s.step("T2").unwrap().program, "p2");
        assert!(s.class_of("T3").is_retriable());
        assert!(s.step("T9").is_none());
    }

    #[test]
    fn structural_errors_catch_unknown_and_duplicates() {
        let mut s = spec();
        s.paths.push(vec!["T1".into(), "Ghost".into(), "T1".into()]);
        let errs = s.structural_errors();
        assert!(errs.contains(&SpecError::UnknownStep("Ghost".into())));
        assert!(errs
            .iter()
            .any(|e| matches!(e, SpecError::DuplicateStep(d) if d.contains("within a path"))));
    }

    #[test]
    fn common_prefix() {
        let a = vec!["T1".to_string(), "T2".to_string(), "T4".to_string()];
        let b = vec!["T1".to_string(), "T2".to_string(), "T3".to_string()];
        assert_eq!(FlexSpec::common_prefix_len(&a, &b), 2);
        assert_eq!(FlexSpec::common_prefix_len(&a, &a), 3);
        assert_eq!(FlexSpec::common_prefix_len(&a, &[]), 0);
    }

    fn names(steps: &[&str]) -> Vec<String> {
        steps.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn switch_follows_the_figure3_narrative() {
        let f3 = crate::fixtures::figure3_spec();
        // T4 aborts: p2 would re-attempt T4, so p3; nothing undone.
        let sw = f3.switch(0, &names(&["T1", "T2"]), "T4");
        assert_eq!((sw.to, sw.keep, sw.undo.len()), (Some(2), 2, 0));
        // T8 aborts: p2 keeps T1 T2 T4; T6 then T5 are compensated.
        let sw = f3.switch(0, &names(&["T1", "T2", "T4", "T5", "T6"]), "T8");
        assert_eq!((sw.to, sw.keep), (Some(1), 3));
        assert_eq!(sw.undo, names(&["T6", "T5"]));
        // T2 aborts: every continuation needs T2; T1 is undone.
        let sw = f3.switch(0, &names(&["T1"]), "T2");
        assert_eq!((sw.to, sw.keep), (None, 0));
        assert_eq!(sw.undo, names(&["T1"]));
    }

    #[test]
    fn failures_reach_every_alternative_once() {
        // Figure 3: the six non-retriable steps of p1 abort; p2 and p3
        // are entered but their continuations (T7, T3) are retriable.
        let failures = crate::fixtures::figure3_spec().failures();
        let steps: Vec<&str> = failures.iter().map(|f| f.step.as_str()).collect();
        assert_eq!(steps, ["T1", "T2", "T4", "T5", "T6", "T8"]);
        assert!(failures.iter().all(|f| f.path == 0));

        // B's and C's aborts both enter p1 keeping A: it is walked
        // once, and its own failure carries A as committed.
        let s = FlexSpec::new(
            "twice",
            vec![
                FlexStep::compensatable("A", "pa", "ca"),
                FlexStep::compensatable("B", "pb", "cb"),
                FlexStep::compensatable("C", "pc", "cc"),
                FlexStep::pivot("P", "pp"),
            ],
            vec![vec!["A", "B", "C"], vec!["A", "P"]],
        );
        let failures = s.failures();
        let on_p1: Vec<_> = failures.iter().filter(|f| f.path == 1).collect();
        assert_eq!(on_p1.len(), 1, "{failures:?}");
        assert_eq!(on_p1[0].committed, names(&["A"]));
        assert_eq!(on_p1[0].switch.undo, names(&["A"]));
    }

    #[test]
    fn duplicate_step_definitions_flagged() {
        let s = FlexSpec::new(
            "dup",
            vec![FlexStep::pivot("T1", "p"), FlexStep::pivot("T1", "q")],
            vec![vec!["T1"]],
        );
        assert_eq!(
            s.structural_errors(),
            vec![SpecError::DuplicateStep("T1".into())]
        );
    }
}
