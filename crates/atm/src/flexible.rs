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
//! [`check_flex`](crate::check_flex) resolves the names into the
//! [`Checked`](crate::Checked) form, whose switch rule and route table
//! decide what an abort does.

use crate::spec::StepSpec;
use serde::{Deserialize, Serialize};

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

    /// Length of the longest common prefix of two paths.
    pub fn common_prefix_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_flex, Resolved, WellFormedError};

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

    fn structure(text: &str) -> WellFormedError {
        WellFormedError::Structure(text.into())
    }

    #[test]
    fn lookup_and_class() {
        let s = spec();
        assert_eq!(s.step("T2").unwrap().program, "p2");
        assert!(s.step("T3").unwrap().class.is_retriable());
        assert!(s.step("T9").is_none());
    }

    #[test]
    fn structural_errors_catch_unknown_and_duplicates() {
        let mut s = spec();
        s.paths.push(vec!["T1".into(), "Ghost".into(), "T1".into()]);
        let errs = Resolved::flexible(&s).unwrap_err();
        assert!(errs.contains(&structure("unknown step \"Ghost\"")));
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::Structure(d) if d.contains("within a path"))));
    }

    #[test]
    fn common_prefix() {
        let a = vec!["T1".to_string(), "T2".to_string(), "T4".to_string()];
        let b = vec!["T1".to_string(), "T2".to_string(), "T3".to_string()];
        assert_eq!(FlexSpec::common_prefix_len(&a, &b), 2);
        assert_eq!(FlexSpec::common_prefix_len(&a, &a), 3);
        assert_eq!(FlexSpec::common_prefix_len(&a, &[]), 0);
    }

    fn names<'s>(steps: &[&'s StepSpec]) -> Vec<&'s str> {
        steps.iter().map(|s| s.name.as_str()).collect()
    }

    fn steps<'s>(spec: &'s FlexSpec, names: &[&str]) -> Vec<&'s StepSpec> {
        names.iter().map(|n| spec.step(n).unwrap()).collect()
    }

    #[test]
    fn switch_follows_the_figure3_narrative() {
        let f3 = crate::fixtures::figure3_spec();
        let checked = check_flex(&f3).unwrap();
        let step = |name| f3.step(name).unwrap();
        // T4 aborts: p2 would re-attempt T4, so p3; nothing undone.
        let sw = checked.switch(0, &steps(&f3, &["T1", "T2"]), step("T4"));
        assert_eq!((sw.to, sw.keep, sw.undo.len()), (Some(2), 2, 0));
        // T8 aborts: p2 keeps T1 T2 T4; T6 then T5 are compensated.
        let committed = steps(&f3, &["T1", "T2", "T4", "T5", "T6"]);
        let sw = checked.switch(0, &committed, step("T8"));
        assert_eq!((sw.to, sw.keep), (Some(1), 3));
        assert_eq!(names(&sw.undo), ["T6", "T5"]);
        // T2 aborts: every continuation needs T2; T1 is undone.
        let sw = checked.switch(0, &steps(&f3, &["T1"]), step("T2"));
        assert_eq!((sw.to, sw.keep), (None, 0));
        assert_eq!(names(&sw.undo), ["T1"]);
    }

    #[test]
    fn failures_reach_every_alternative_once() {
        // Figure 3: the six non-retriable steps of p1 abort; p2 and p3
        // are entered but their continuations (T7, T3) are retriable.
        let f3 = crate::fixtures::figure3_spec();
        let checked = check_flex(&f3).unwrap();
        let failed: Vec<&str> = checked
            .failures()
            .iter()
            .map(|f| f.step.name.as_str())
            .collect();
        assert_eq!(failed, ["T1", "T2", "T4", "T5", "T6", "T8"]);
        assert!(checked.failures().iter().all(|f| f.path == 0));

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
        let resolved = Resolved::flexible(&s).unwrap();
        let failures = resolved.failures();
        let on_p1: Vec<_> = failures.iter().filter(|f| f.path == 1).collect();
        assert_eq!(on_p1.len(), 1, "{failures:?}");
        assert_eq!(names(&on_p1[0].committed), ["A"]);
        assert_eq!(names(&on_p1[0].switch.undo), ["A"]);
    }

    #[test]
    fn duplicate_step_definitions_flagged() {
        let s = FlexSpec::new(
            "dup",
            vec![FlexStep::pivot("T1", "p"), FlexStep::pivot("T1", "q")],
            vec![vec!["T1"]],
        );
        assert_eq!(
            check_flex(&s).unwrap_err(),
            vec![structure("duplicate step \"T1\"")]
        );
    }
}
