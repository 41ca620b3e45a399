//! `WA106`: compensation-soundness with witness paths.
//!
//! The S/F well-formedness rules (`WA051`–`WA056`) say *which step*
//! breaks a specification. This pass answers the operational
//! question the paper's backward recovery poses: **from every
//! post-pivot failure point, does a complete compensation chain lead
//! back to a consistent state?** A failure point is any step that may
//! abort (everything not retriable). When it aborts, every step that
//! may already have committed on the way to it — back to the recovery
//! horizon — must be compensatable, or backward recovery wedges
//! against the first committed step without a compensation.
//!
//! The recovery horizon differs by model:
//!
//! * **Saga** — recovery runs all the way back to the start, so every
//!   step in an earlier stage (and every concurrent sibling in the
//!   same stage) must be compensatable.
//! * **Flexible transaction** — every failure [`Resolved::failures`]
//!   reaches from path 0, with the window its [`Resolved::switch`]
//!   undoes: the committed steps the fallback path does not keep, or
//!   all of them when no later path avoids the failing step. Only
//!   steps inside that window need compensations. The route table is
//!   the one F5 judged.
//!
//! Each violation reports a concrete witness: the executed prefix,
//! the failing step, and the exact step the compensation chain wedges
//! against. The chains walked here are reverse traversals of a finite
//! prefix, so they are cycle-free by construction; cycles in
//! *translated* compensation graphs are `WA022`'s business.

use crate::{Diagnostic, Severity};
use atm::{Resolved, SagaSpec, StepSpec};

/// Steps that can abort at run time: everything not retriable. (A
/// retriable step is re-submitted until it commits, §4.1.)
fn may_fail(step: &StepSpec) -> bool {
    !step.class.is_retriable()
}

/// A `T1 -> T2 -> T3*` witness prefix, the failing step starred.
fn witness(prefix: &[&StepSpec], failing: &StepSpec) -> String {
    let mut parts: Vec<String> = prefix.iter().map(|s| s.name.clone()).collect();
    parts.push(format!("{}*", failing.name));
    parts.join(" -> ")
}

/// One WA106 for a failure point whose compensation window contains a
/// non-compensatable committed step.
fn uncompensatable(
    spec_name: &str,
    prefix: &[&StepSpec],
    failing: &StepSpec,
    window: &[&StepSpec],
    horizon: &str,
) -> Option<Diagnostic> {
    // Backward recovery compensates the window newest-first; it
    // wedges against the *latest* non-compensatable step.
    let blocker = window.iter().rev().find(|s| !s.class.is_compensatable())?;
    let undone: Vec<String> = window
        .iter()
        .rev()
        .take_while(|s| s.class.is_compensatable())
        .map(|s| {
            s.compensation
                .as_deref()
                .unwrap_or("<missing compensation>")
                .to_owned()
        })
        .collect();
    let chain = if undone.is_empty() {
        String::new()
    } else {
        format!("after {}, ", undone.join(", "))
    };
    Some(Diagnostic::new(
        "WA106",
        Severity::Error,
        spec_name,
        Some(failing.name.clone()),
        format!(
            "failure of {:?} cannot be recovered: {horizon} requires compensating \
             every committed step back along {}, but {chain}the chain wedges against \
             {:?} ({:?}), which has no compensation",
            failing.name,
            witness(prefix, failing),
            blocker.name,
            blocker.class,
        ),
    ))
}

/// Compensation-soundness findings for a saga.
pub fn saga_findings(spec: &SagaSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let stages: Vec<Vec<&StepSpec>> = spec.stages.iter().map(|s| s.iter().collect()).collect();
    for (si, stage) in stages.iter().enumerate() {
        for failing in stage {
            if !may_fail(failing) {
                continue;
            }
            // Possibly-committed when `failing` aborts: every step of
            // earlier stages, plus concurrent siblings in this stage.
            let window: Vec<&StepSpec> = stages[..si]
                .iter()
                .flatten()
                .copied()
                .chain(stage.iter().copied().filter(|s| s.name != failing.name))
                .collect();
            if window.is_empty() {
                continue;
            }
            out.extend(uncompensatable(
                &spec.name,
                &window,
                failing,
                &window,
                "backward recovery to the start",
            ));
        }
    }
    out
}

/// Compensation-soundness findings for a flexible transaction: one per
/// failure [`Resolved::failures`] reaches whose switch undoes a step
/// without a compensation.
pub fn flex_findings(spec: &Resolved) -> Vec<Diagnostic> {
    let paths = spec.paths();
    let last = paths.len() - 1;
    let mut out = Vec::new();
    for failure in spec.failures() {
        let horizon = match failure.switch.to {
            Some(to) => {
                let names: Vec<&str> = paths[to].iter().map(|s| s.name.as_str()).collect();
                format!("falling back to path #{} ({})", to + 1, names.join(" -> "))
            }
            None if failure.path == last => "aborting the last path back to the start".to_owned(),
            None => "aborting back to the start (no later path avoids it)".to_owned(),
        };
        let window: Vec<&StepSpec> = failure.switch.undo.iter().rev().copied().collect();
        out.extend(uncompensatable(
            &format!("{} (path #{})", spec.name(), failure.path + 1),
            &failure.committed,
            failure.step,
            &window,
            &horizon,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::{FlexSpec, StepSpec};

    fn flex(spec: &FlexSpec) -> Vec<Diagnostic> {
        flex_findings(&Resolved::flexible(spec).unwrap())
    }

    #[test]
    fn clean_linear_saga_has_no_findings() {
        assert!(saga_findings(&atm::fixtures::linear_saga("trip", 4)).is_empty());
    }

    #[test]
    fn figure3_flex_is_sound() {
        assert!(flex(&atm::fixtures::figure3_spec()).is_empty());
    }

    #[test]
    fn mid_saga_pivot_blocks_later_failures() {
        let spec = SagaSpec::linear(
            "s",
            vec![
                StepSpec::compensatable("T1", "p1", "c1"),
                StepSpec::pivot("T2", "p2"),
                StepSpec::compensatable("T3", "p3", "c3"),
            ],
        );
        let diags = saga_findings(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "WA106");
        assert_eq!(d.element.as_deref(), Some("T3"));
        assert!(
            d.message.contains("T1 -> T2 -> T3*"),
            "witness in {:?}",
            d.message
        );
        assert!(
            d.message.contains("wedges against \"T2\""),
            "{:?}",
            d.message
        );
    }

    #[test]
    fn parallel_stage_siblings_count_as_committed() {
        // T2a and T2b run concurrently; if T2b (compensatable) fails,
        // its sibling T2a (pivot) may have committed already.
        let spec = SagaSpec::staged(
            "s",
            vec![
                vec![StepSpec::compensatable("T1", "p1", "c1")],
                vec![
                    StepSpec::pivot("T2a", "p2a"),
                    StepSpec::compensatable("T2b", "p2b", "c2b"),
                ],
            ],
        );
        let diags = saga_findings(&spec);
        assert!(
            diags.iter().any(|d| d.element.as_deref() == Some("T2b")
                && d.message.contains("wedges against \"T2a\"")),
            "{diags:?}"
        );
    }

    #[test]
    fn flex_failure_beyond_shared_prefix_needs_compensations() {
        // Path 1 commits a pivot past the prefix it shares with path
        // 2; every later failure on path 1 is stuck behind it.
        let spec = FlexSpec::new(
            "f",
            vec![
                StepSpec::compensatable("A", "pa", "ca"),
                StepSpec::pivot("P", "pp"),
                StepSpec::compensatable("B", "pb", "cb"),
                StepSpec::compensatable("C", "pc", "cc"),
                StepSpec::retriable("R", "pr"),
            ],
            vec![vec!["A", "P", "B", "C"], vec!["A", "R"]],
        );
        let diags = flex(&spec);
        assert_eq!(diags.len(), 2, "B and C both wedge: {diags:?}");
        let b = &diags[0];
        assert_eq!(b.element.as_deref(), Some("B"));
        assert!(b.message.contains("A -> P -> B*"), "{:?}", b.message);
        assert!(b.message.contains("path #2"), "{:?}", b.message);
        // C's recovery compensates B (cb) first, then wedges on P.
        let c = &diags[1];
        assert_eq!(c.element.as_deref(), Some("C"));
        assert!(c.message.contains("after cb, "), "chain in {:?}", c.message);
        assert!(
            c.message.contains("wedges against \"P\""),
            "{:?}",
            c.message
        );
    }

    #[test]
    fn last_path_failure_recovers_to_start() {
        let spec = FlexSpec::new(
            "f",
            vec![
                StepSpec::pivot("P", "pp"),
                StepSpec::compensatable("B", "pb", "cb"),
            ],
            vec![vec!["P", "B"]],
        );
        let diags = flex(&spec);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("aborting the last path"),
            "{:?}",
            diags[0].message
        );
        assert!(diags[0].message.contains("wedges against \"P\""));
    }

    #[test]
    fn failure_within_shared_prefix_is_fine() {
        // The failing pivot is itself on the shared prefix: nothing
        // beyond the prefix has committed, so fallback compensates
        // nothing.
        let spec = FlexSpec::new(
            "f",
            vec![
                StepSpec::compensatable("A", "pa", "ca"),
                StepSpec::pivot("P", "pp"),
                StepSpec::retriable("R1", "pr1"),
                StepSpec::retriable("R2", "pr2"),
            ],
            vec![vec!["A", "P", "R1"], vec!["A", "P", "R2"]],
        );
        assert!(flex(&spec).is_empty());
    }
}
