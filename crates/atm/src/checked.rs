//! The form a specification is checked into, and everything runs on.
//!
//! A flexible transaction (§4.2) resolves to its alternative paths in
//! preference order, each the list of its steps. A saga (§4.1) resolves
//! to **one path**, its steps, with forward retry off: García-Molina &
//! Salem's `T1 … Tj; Cj … C1` is exactly what the switch rule gives on a
//! single path, and a saga never re-submits a forward step.
//!
//! [`Resolved`] is that form with F1 (S2 for a saga) holding by
//! construction: every step name on a path is resolved to its
//! [`StepSpec`], and no two steps share a name. The saga lints read a
//! saga's resolved form even when S1 fails. [`Checked`] is a resolved
//! form that meets its model's rules; only
//! [`check_saga`](crate::check_saga) and
//! [`check_flex`](crate::check_flex) make one, and the native
//! executors and the Figure 2 / Figure 4 translators take it instead of
//! checking again.
//!
//! What an abort does is decided here and nowhere else:
//! [`Resolved::switch`] picks the fallback path and the committed steps
//! to undo, and [`Resolved::failures`] enumerates every abort reachable
//! from the most preferred path with its switch — once per resolved
//! form. The native loop, the F5 rule, `WA106` and the Figure 4
//! translator all read these two.

use crate::flexible::FlexSpec;
use crate::saga::SagaSpec;
use crate::spec::StepSpec;
use crate::wellformed::WellFormedError;
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// The specification a resolved form was made from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'s> {
    /// A saga: one path, no forward retry.
    Saga(&'s SagaSpec),
    /// A flexible transaction.
    Flexible(&'s FlexSpec),
}

/// A specification resolved into paths of steps (F1 holds).
#[derive(Debug)]
pub struct Resolved<'s> {
    source: Source<'s>,
    paths: Vec<Vec<&'s StepSpec>>,
    failures: OnceCell<Vec<Failure<'s>>>,
}

/// A resolved specification that meets its model's rules.
#[derive(Debug)]
pub struct Checked<'s>(pub(crate) Resolved<'s>);

impl<'s> std::ops::Deref for Checked<'s> {
    type Target = Resolved<'s>;

    fn deref(&self) -> &Resolved<'s> {
        &self.0
    }
}

/// Names resolve to one step each, so step identity is address identity.
fn contains(steps: &[&StepSpec], step: &StepSpec) -> bool {
    steps.iter().any(|s| std::ptr::eq(*s, step))
}

fn structure(what: &str, name: &str) -> WellFormedError {
    WellFormedError::Structure(format!("{what} {name:?}"))
}

/// Every repeated name, in declaration order.
fn duplicates<'a>(names: impl Iterator<Item = &'a str>) -> Vec<WellFormedError> {
    let mut seen = BTreeSet::new();
    names
        .filter(|name| !seen.insert(*name))
        .map(|name| structure("duplicate step", name))
        .collect()
}

impl<'s> Resolved<'s> {
    /// S2: resolves a saga's one path, its steps in order, or reports
    /// every structural error — duplicate steps, no steps.
    pub fn saga(spec: &'s SagaSpec) -> Result<Self, Vec<WellFormedError>> {
        let mut errors = duplicates(spec.steps().map(|s| s.name.as_str()));
        if spec.steps.is_empty() {
            errors.push(WellFormedError::Structure("saga has no steps".into()));
        }
        Self::of(Source::Saga(spec), vec![spec.steps().collect()], errors)
    }

    /// F1: resolves a flexible transaction's paths, or reports every
    /// structural error — duplicate steps, unknown path references,
    /// duplicates within a path, no paths, empty paths.
    pub fn flexible(spec: &'s FlexSpec) -> Result<Self, Vec<WellFormedError>> {
        let mut errors = duplicates(spec.steps.iter().map(|s| s.name.as_str()));
        let mut paths = Vec::with_capacity(spec.paths.len());
        for path in &spec.paths {
            let mut steps = Vec::with_capacity(path.len());
            for (i, name) in path.iter().enumerate() {
                match spec.step(name) {
                    Some(step) => steps.push(step),
                    None => errors.push(structure("unknown step", name)),
                }
                if path[..i].contains(name) {
                    let within = format!("{name} (within a path)");
                    errors.push(structure("duplicate step", &within));
                }
            }
            paths.push(steps);
        }
        if paths.is_empty() || paths.iter().any(Vec::is_empty) {
            errors.push(WellFormedError::Structure(
                "a flexible transaction needs at least one non-empty path".into(),
            ));
        }
        Self::of(Source::Flexible(spec), paths, errors)
    }

    fn of(
        source: Source<'s>,
        paths: Vec<Vec<&'s StepSpec>>,
        errors: Vec<WellFormedError>,
    ) -> Result<Self, Vec<WellFormedError>> {
        if !errors.is_empty() {
            return Err(errors);
        }
        Ok(Self {
            source,
            paths,
            failures: OnceCell::new(),
        })
    }

    /// The specification this form was resolved from.
    pub fn source(&self) -> Source<'s> {
        self.source
    }

    /// The specification's name.
    pub fn name(&self) -> &'s str {
        match self.source {
            Source::Saga(s) => &s.name,
            Source::Flexible(f) => &f.name,
        }
    }

    /// Every declared step, in declaration order.
    pub(crate) fn declared(&self) -> Vec<&'s StepSpec> {
        match self.source {
            Source::Saga(s) => s.steps().collect(),
            Source::Flexible(f) => f.steps.iter().collect(),
        }
    }

    /// The paths in preference order (a saga has one), each a non-empty
    /// list of distinct steps.
    pub fn paths(&self) -> &[Vec<&'s StepSpec>] {
        &self.paths
    }

    /// True if an abort of `step` is retried until it commits: a
    /// retriable step of a flexible transaction. A saga retries no
    /// forward step.
    pub fn retries(&self, step: &StepSpec) -> bool {
        matches!(self.source, Source::Flexible(_)) && step.class.is_retriable()
    }

    /// The switch rule of §4.2: step `failed` aborted while path `k`
    /// ran with `committed` (in commit order) committed.
    ///
    /// Execution falls through to the most preferred later path whose
    /// continuation — past the prefix of it already committed — does
    /// not contain `failed`: aborting `T4` in Figure 3 jumps straight to
    /// `p3 = T1 T2 T3` (`p2` would only re-attempt `T4`), aborting `T8`
    /// falls to `p2`'s continuation `T7`. Every committed step that path
    /// does not keep is undone; with no such path — always, on a saga's
    /// one path — all of them are.
    pub fn switch(&self, k: usize, committed: &[&'s StepSpec], failed: &StepSpec) -> Switch<'s> {
        let kept = |path: &[&StepSpec]| path.iter().take_while(|s| contains(committed, s)).count();
        let to = ((k + 1)..self.paths.len()).find(|&j| {
            let path = &self.paths[j];
            !contains(&path[kept(path)..], failed)
        });
        let keep = to.map_or(0, |j| kept(&self.paths[j]));
        let kept_steps = to.map_or(&[][..], |j| &self.paths[j][..keep]);
        let undo = committed
            .iter()
            .rev()
            .filter(|s| !contains(kept_steps, s))
            .copied()
            .collect();
        Switch { to, keep, undo }
    }

    /// Every abort reachable from path 0, each with its [`Switch`],
    /// enumerated on the first call.
    ///
    /// Steps [`retries`](Self::retries) says yes to never abort; every
    /// other step may. A switch always moves to a strictly later path,
    /// so visiting the paths in order reaches every entry state before
    /// its path is walked.
    pub fn failures(&self) -> &[Failure<'s>] {
        self.failures.get_or_init(|| {
            // Per path: the committed steps it is entered with.
            let mut entries: Vec<Vec<Vec<&'s StepSpec>>> = vec![Vec::new(); self.paths.len()];
            entries[0].push(Vec::new());
            let mut out = Vec::new();
            for k in 0..self.paths.len() {
                for mut committed in std::mem::take(&mut entries[k]) {
                    for &step in &self.paths[k] {
                        if contains(&committed, step) {
                            continue;
                        }
                        if !self.retries(step) {
                            let switch = self.switch(k, &committed, step);
                            if let Some(to) = switch.to {
                                let kept: Vec<&StepSpec> = committed
                                    .iter()
                                    .filter(|s| !contains(&switch.undo, s))
                                    .copied()
                                    .collect();
                                if !entries[to].contains(&kept) {
                                    entries[to].push(kept);
                                }
                            }
                            out.push(Failure {
                                path: k,
                                committed: committed.clone(),
                                step,
                                switch,
                            });
                        }
                        committed.push(step);
                    }
                }
            }
            out
        })
    }
}

/// Where an abort leads: [`Resolved::switch`]'s answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch<'s> {
    /// The fallback path; `None` aborts the transaction.
    pub to: Option<usize>,
    /// How many leading steps of the fallback path stay committed (0
    /// when the transaction aborts).
    pub keep: usize,
    /// The committed steps to compensate, newest first.
    pub undo: Vec<&'s StepSpec>,
}

/// One abort reachable from path 0: [`Resolved::failures`]'s item.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure<'s> {
    /// The path that was running.
    pub path: usize,
    /// The steps committed when `step` aborted, in commit order.
    pub committed: Vec<&'s StepSpec>,
    /// The step that aborted.
    pub step: &'s StepSpec,
    /// Where execution goes next.
    pub switch: Switch<'s>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed::check_saga;

    #[test]
    fn a_saga_is_one_path_without_forward_retry() {
        let spec = SagaSpec::linear(
            "s",
            vec![
                StepSpec::compensatable("S1", "p1", "c1"),
                StepSpec::compensatable_retriable("S2", "p2", "c2"),
                StepSpec::compensatable("S3", "p3", "c3"),
            ],
        );
        let checked = check_saga(&spec).unwrap();
        assert_eq!(checked.paths().len(), 1);
        assert!(!checked.retries(spec.step("S2").unwrap()));
        // Every step may abort, and each abort undoes everything
        // committed, newest first: T1 … Tj; Cj … C1.
        let failures = checked.failures();
        assert_eq!(failures.len(), 3);
        for failure in failures {
            assert_eq!(failure.switch.to, None);
            let newest_first: Vec<&StepSpec> = failure.committed.iter().rev().copied().collect();
            assert_eq!(failure.switch.undo, newest_first);
        }
        // The one-path form meets F2–F5 whenever S1–S2 hold.
        assert_eq!(checked.violations(), vec![]);
    }
}
