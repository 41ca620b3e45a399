//! `WA106`: compensation-soundness with witness paths.
//!
//! The S/F well-formedness rules (`WA051`–`WA056`) say *which step*
//! breaks a specification. This pass answers the operational
//! question the paper's backward recovery poses: **from every
//! post-pivot failure point, does a complete compensation chain lead
//! back to a consistent state?** One function, [`findings`], answers it
//! for both models from the resolved form: a failure point is every
//! abort [`Resolved::failures`] reaches from path 0 (every step the
//! form does not [`retry`](Resolved::retries)), and the window to undo
//! is what its [`Resolved::switch`] undoes. Every step in that window
//! must be compensatable, or backward recovery wedges against the
//! latest committed step without a compensation. The route table is
//! the one F5 judged and the native loop runs.
//!
//! The recovery horizon differs by model only in how it is worded:
//!
//! * **Saga** — one path and no forward retry, so every step may fail
//!   and recovery runs all the way back to the start: every earlier
//!   step must be compensatable.
//! * **Flexible transaction** — the committed steps the fallback path
//!   does not keep, or all of them when no later path avoids the
//!   failing step. Only steps inside that window need compensations.
//!
//! Each violation reports a concrete witness: the executed prefix,
//! the failing step, and the exact step the compensation chain wedges
//! against. The chains walked here are reverse traversals of a finite
//! prefix, so they are cycle-free by construction; cycles in
//! *translated* compensation graphs are `WA022`'s business.

use crate::{Diagnostic, Severity};
use atm::{Failure, Resolved, Source, StepSpec};

/// A `T1 -> T2 -> T3*` witness prefix, the failing step starred.
fn witness(prefix: &[&StepSpec], failing: &StepSpec) -> String {
    let mut parts: Vec<String> = prefix.iter().map(|s| s.name.clone()).collect();
    parts.push(format!("{}*", failing.name));
    parts.join(" -> ")
}

/// Compensation-soundness findings for a saga or a flexible
/// transaction: one per failure [`Resolved::failures`] reaches whose
/// switch undoes a step without a compensation.
pub fn findings(spec: &Resolved) -> Vec<Diagnostic> {
    spec.failures()
        .iter()
        .filter_map(|failure| uncompensatable(spec, failure))
        .collect()
}

/// One WA106 for a failure whose switch undoes a non-compensatable
/// committed step.
fn uncompensatable(spec: &Resolved, failure: &Failure) -> Option<Diagnostic> {
    // Backward recovery compensates newest first; it wedges against the
    // *latest* non-compensatable step.
    let undo = &failure.switch.undo;
    let blocker = undo.iter().find(|s| !s.class.is_compensatable())?;
    let undone: Vec<&str> = undo
        .iter()
        .take_while(|s| s.class.is_compensatable())
        .map(|s| {
            s.compensation
                .as_deref()
                .unwrap_or("<missing compensation>")
        })
        .collect();
    let chain = if undone.is_empty() {
        String::new()
    } else {
        format!("after {}, ", undone.join(", "))
    };
    let (process, horizon) = horizon(spec, failure);
    Some(Diagnostic::new(
        "WA106",
        Severity::Error,
        process,
        Some(failure.step.name.clone()),
        format!(
            "failure of {:?} cannot be recovered: {horizon} requires compensating \
             every committed step back along {}, but {chain}the chain wedges against \
             {:?} ({:?}), which has no compensation",
            failure.step.name,
            witness(&failure.committed, failure.step),
            blocker.name,
            blocker.class,
        ),
    ))
}

/// The process label and recovery horizon of a failure: a saga
/// recovers back to the start; a flexible transaction's failure names
/// its path and where its switch leads.
fn horizon(spec: &Resolved, failure: &Failure) -> (String, String) {
    let name = spec.name();
    if let Source::Saga(_) = spec.source() {
        return (name.to_owned(), "backward recovery to the start".to_owned());
    }
    let paths = spec.paths();
    let horizon = match failure.switch.to {
        Some(to) => {
            let names: Vec<&str> = paths[to].iter().map(|s| s.name.as_str()).collect();
            format!("falling back to path #{} ({})", to + 1, names.join(" -> "))
        }
        None if failure.path == paths.len() - 1 => {
            "aborting the last path back to the start".to_owned()
        }
        None => "aborting back to the start (no later path avoids it)".to_owned(),
    };
    (format!("{name} (path #{})", failure.path + 1), horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::{FlexSpec, SagaSpec, StepSpec};

    fn flex(spec: &FlexSpec) -> Vec<Diagnostic> {
        findings(&Resolved::flexible(spec).unwrap())
    }

    fn saga(spec: &SagaSpec) -> Vec<Diagnostic> {
        findings(&Resolved::saga(spec).unwrap())
    }

    #[test]
    fn clean_linear_saga_has_no_findings() {
        assert!(saga(&atm::fixtures::linear_saga("trip", 4)).is_empty());
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
        let diags = saga(&spec);
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
