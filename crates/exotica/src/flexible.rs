//! The §4.2 construction: a flexible transaction as a workflow
//! process (Figure 4, generalised).
//!
//! The paper's seven translation steps are implemented over a
//! *prefix-merged* view of the alternative paths:
//!
//! 1. every subtransaction (and compensating subtransaction) becomes
//!    an activity;
//! 2. ordering follows the paths, expressed as `RC = 1` control
//!    connectors;
//! 3. pivot activities get (at least) two outgoing connectors —
//!    `RC = 1` towards the preferred continuation, `RC = 0` towards
//!    the failure route;
//! 4. retriable activities carry the exit condition `RC = 1` (they
//!    are "repeated until the subtransaction commits");
//! 5. maximal runs of consecutive compensatable subtransactions
//!    between pivots are grouped into a forward **segment block**
//!    exporting `State_i` flags (exactly the Figure 2 machinery);
//! 6. each segment block has a **compensation block** driven by those
//!    flags, entered through an OR-join from every failure source that
//!    must undo the segment;
//! 7. switching execution paths is a linear succession of events: the
//!    failing activity's `RC = 0` connector leads (possibly through a
//!    compensation block) to the first activity of the fallback
//!    continuation, and dead path elimination retires everything else.
//!
//! The translator decides no route itself: every failure the checked
//! form's route table ([`Resolved::failures`](atm::Resolved::failures))
//! holds is routed where the model's switch rule sends it — the rule
//! the native executors in [`atm::native`] run (Figure 3: T4's abort
//! falls to `p3`; T8's falls to `p2`). A checked saga is its one path
//! without forward retry, so this construction also compiles a saga:
//! one segment block and its compensation block, Figure 2's machinery.
//!
//! ## Static translatability
//!
//! The translation is *static*: all routing is decided at compile
//! time. That requires structural properties beyond well-formedness,
//! all checked here and reported as [`TranslateError::Unsupported`]:
//!
//! * **uniform alternatives** — all failure points of one element
//!   (e.g. all members of a segment) select the same fallback path
//!   with the same kept prefix, which is the prefix the fallback's
//!   continuation starts after;
//! * **single-segment back-out** — the steps a switch undoes are
//!   exactly one segment block's (for a segment's own members: the
//!   members committed before the failing one);
//! * **every alternative is some reachable failure's fallback** — a
//!   continuation nothing switches to would start as a second start
//!   activity.
//!
//! Figure 3 — and every spec generated by the property tests — lies
//! inside this class.

use crate::saga::{compensation_block, forward_block, validated, with_state_pairs};
use crate::TranslateError;
use atm::{Checked, FlexSpec, StepSpec};
use std::collections::{BTreeMap, BTreeSet};
use wfms_model::{
    Activity, ContainerSchema, DataType, ProcessBuilder, ProcessDefinition, RC_MEMBER,
};

/// One element of a continuation after grouping.
#[derive(Debug, Clone)]
enum ElemKind<'s> {
    /// Maximal run of consecutive compensatable steps.
    Segment(Vec<&'s StepSpec>),
    /// A standalone pivot step.
    Pivot(&'s StepSpec),
    /// A standalone (pure) retriable step.
    Retriable(&'s StepSpec),
}

#[derive(Debug, Clone)]
struct Elem<'s> {
    kind: ElemKind<'s>,
    /// Root-level activity name.
    activity: String,
    /// Continuation (path index) this element belongs to.
    path: usize,
    /// Global index in `paths[path]` of the element's first step.
    start: usize,
}

impl<'s> Elem<'s> {
    fn steps(&self) -> &[&'s StepSpec] {
        match &self.kind {
            ElemKind::Segment(steps) => steps,
            ElemKind::Pivot(s) | ElemKind::Retriable(s) => std::slice::from_ref(s),
        }
    }

    fn is_segment(&self) -> bool {
        matches!(self.kind, ElemKind::Segment(_))
    }
}

fn names<'s>(steps: &[&'s StepSpec]) -> Vec<&'s str> {
    steps.iter().map(|s| s.name.as_str()).collect()
}

/// Name of the segment block for a run of steps.
fn segment_block(steps: &[&StepSpec]) -> String {
    format!("Blk_{}", names(steps).join("_"))
}

/// Name of the compensation block for a segment.
fn segment_comp_block(steps: &[&StepSpec]) -> String {
    format!("Comp_{}", names(steps).join("_"))
}

/// The `Via_<k>` process-output member recording which path committed.
pub fn via_member(path: usize) -> String {
    format!("Via_{path}")
}

/// Translates a checked flexible transaction into a workflow process
/// (Figure 4, generalised).
///
/// The generated process's output container holds `Committed` (INT,
/// 1 iff the transaction committed via some path) and one `Via_<k>`
/// flag per path.
///
/// ```
/// let figure3 = atm::fixtures::figure3_spec();
/// let process = exotica::translate_flex(&atm::check_flex(&figure3).unwrap()).unwrap();
///
/// // The Figure 4 shape: T4's failure edge jumps straight to T3 (p3),
/// // T8's routes through the T5/T6 compensation block into T7 (p2).
/// let t4_fail = process.outgoing("T4").into_iter()
///     .find(|c| c.condition.to_string() == "(RC = 0)").unwrap();
/// assert_eq!(t4_fail.to, "T3");
/// assert!(process.outgoing("Comp_T5_T6").iter().any(|c| c.to == "T7"));
/// assert!(wfms_model::validate(&process).is_empty());
/// ```
pub fn translate_flex(spec: &Checked) -> Result<ProcessDefinition, TranslateError> {
    let paths = spec.paths();

    // ---- continuations ---------------------------------------------------
    let m = paths.len();
    let mut anchors = vec![0usize; m];
    for (k, anchor) in anchors.iter_mut().enumerate().skip(1) {
        *anchor = (0..k)
            .map(|j| FlexSpec::common_prefix_len(&paths[k], &paths[j]))
            .max()
            .unwrap_or(0);
        if *anchor >= paths[k].len() {
            return Err(TranslateError::Unsupported(format!(
                "path {k} adds no steps beyond an earlier path"
            )));
        }
    }

    // A step must belong to exactly one continuation (one activity per
    // subtransaction, §4.2 step 1).
    let mut owned: BTreeSet<&str> = BTreeSet::new();
    for (k, anchor) in anchors.iter().enumerate() {
        for s in &paths[k][*anchor..] {
            if !owned.insert(&s.name) {
                return Err(TranslateError::Unsupported(format!(
                    "step {:?} appears in more than one path continuation; \
                     the static translation needs one activity per step",
                    s.name
                )));
            }
        }
    }

    // ---- elements ---------------------------------------------------------
    let mut elements: Vec<Elem> = Vec::new();
    // element id by (path, global step index of element start)
    let mut elem_at: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (k, anchor) in anchors.iter().enumerate() {
        let path = &paths[k];
        let mut i = *anchor;
        while i < path.len() {
            let class = path[i].class;
            let (kind, len) = if class.is_compensatable() {
                let j = i + path[i..]
                    .iter()
                    .take_while(|s| s.class.is_compensatable())
                    .count();
                (ElemKind::Segment(path[i..j].to_vec()), j - i)
            } else if class.is_pivot() {
                (ElemKind::Pivot(path[i]), 1)
            } else {
                (ElemKind::Retriable(path[i]), 1)
            };
            let activity = match &kind {
                ElemKind::Segment(steps) => segment_block(steps),
                ElemKind::Pivot(s) | ElemKind::Retriable(s) => s.name.clone(),
            };
            let id = elements.len();
            elements.push(Elem {
                kind,
                activity,
                path: k,
                start: i,
            });
            elem_at.insert((k, i), id);
            i += len;
        }
    }

    // First element of each continuation (the fallback entry).
    let entry_elem: Vec<usize> = (0..m).map(|k| elem_at[&(k, anchors[k])]).collect();

    // ---- failure routing ----------------------------------------------------
    /// Where a failure routes to.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Route {
        /// Segment element to compensate through, if any.
        comp_of: Option<usize>,
        /// Fallback continuation index; `None` = full abort.
        fallback: Option<usize>,
    }

    // Per failing element: the computed route (must be uniform).
    let mut routes: BTreeMap<usize, Route> = BTreeMap::new();
    // Per segment element used as a compensation target: the fallback
    // continuation its comp block continues into (must be uniform).
    let mut comp_exit: BTreeMap<usize, Option<usize>> = BTreeMap::new();

    // Every failure the model can reach, routed by the model's own
    // switch rule. Failures come path by path, so a continuation's
    // entry is checked before its own elements fail.
    for failure in spec.failures() {
        let step = &failure.step.name;
        let switch = &failure.switch;
        if let Some(to) = switch.to {
            if switch.keep != anchors[to] {
                return Err(TranslateError::Unsupported(format!(
                    "failure of {step:?} falls back to path {to} keeping {} of its \
                     steps, but its continuation starts after {}",
                    switch.keep, anchors[to]
                )));
            }
        }
        // The element running the failed step: the one whose start is
        // the largest at or before it on its path.
        let idx = paths[failure.path]
            .iter()
            .position(|s| std::ptr::eq(*s, failure.step))
            .expect("failures name steps of their path");
        let (_, &eid) = elem_at
            .range((failure.path, 0)..=(failure.path, idx))
            .next_back()
            .expect("paths are entered at their anchor (the keep check), so fail past it");
        let elem = &elements[eid];
        // The undo list, oldest first: what the route's compensation
        // block must undo, no more and no less.
        let undone: Vec<&str> = switch.undo.iter().rev().map(|s| s.name.as_str()).collect();
        let comp_of = if elem.is_segment() {
            // The segment's own block undoes its committed members.
            let own = names(&elem.steps()[..idx - elem.start]);
            if undone != own {
                return Err(TranslateError::Unsupported(format!(
                    "failure of {step:?} must undo {undone:?}, but its own \
                     segment's compensation undoes {own:?}"
                )));
            }
            Some(eid)
        } else if undone.is_empty() {
            None
        } else {
            let seg = elements
                .iter()
                .position(|e| e.is_segment() && names(e.steps()) == undone)
                .ok_or_else(|| {
                    TranslateError::Unsupported(format!(
                        "failure of {step:?} must undo {undone:?}, which does not \
                         form exactly one compensatable segment"
                    ))
                })?;
            Some(seg)
        };
        let route = Route {
            comp_of,
            fallback: switch.to,
        };
        match routes.get(&eid) {
            None => {
                routes.insert(eid, route.clone());
            }
            Some(r) if *r == route => {}
            Some(r) => {
                return Err(TranslateError::Unsupported(format!(
                    "failure points of element {:?} route differently \
                     ({r:?} vs {route:?}); alternatives are not uniform",
                    elem.activity
                )))
            }
        }
        if let Some(seg) = route.comp_of {
            match comp_exit.get(&seg) {
                None => {
                    comp_exit.insert(seg, route.fallback);
                }
                Some(existing) if *existing == route.fallback => {}
                Some(existing) => {
                    return Err(TranslateError::Unsupported(format!(
                        "compensation block of {:?} would need two different \
                         continuations ({existing:?} vs {:?})",
                        elements[seg].activity, route.fallback
                    )))
                }
            }
        }
    }
    // A continuation no failure switches to would start unguarded, as a
    // second start activity.
    if let Some(k) = (1..m).find(|&k| !routes.values().any(|r| r.fallback == Some(k))) {
        return Err(TranslateError::Unsupported(format!(
            "path {k} is no reachable failure's fallback; its continuation \
             would start alongside path 0"
        )));
    }

    // ---- build the process ---------------------------------------------------
    let mut output_schema = ContainerSchema::of(&[("Committed", DataType::Int)]);
    for k in 0..m {
        output_schema = output_schema.with(&via_member(k), DataType::Int);
    }
    let mut b = ProcessBuilder::new(spec.name())
        .describe(&format!(
            "flexible transaction {:?} compiled by Exotica/FMTM (Figure 4 construction)",
            spec.name()
        ))
        .output(output_schema);

    // Which elements need an OR start (fallback entries and targets of
    // multiple failure edges)? Simpler and safe: every element that
    // receives a failure-route edge, plus every compensation block.
    let mut or_targets: BTreeSet<String> = BTreeSet::new();
    for route in routes.values() {
        if let Some(k2) = route.fallback {
            or_targets.insert(elements[entry_elem[k2]].activity.clone());
        }
    }

    // Activities.
    for elem in &elements {
        match &elem.kind {
            ElemKind::Pivot(s) | ElemKind::Retriable(s) => {
                let retriable = matches!(elem.kind, ElemKind::Retriable(_));
                let kind = if retriable { "retriable" } else { "pivot" };
                let mut act = Activity::program(&s.name, &s.program)
                    .describe(&format!("{kind} subtransaction {}", s.name));
                if retriable {
                    act = act.with_exit(&format!("{RC_MEMBER} = 1"));
                }
                if or_targets.contains(&s.name) {
                    act = act.or_start();
                }
                b = b.activity(act);
            }
            ElemKind::Segment(steps) => {
                let name = segment_block(steps);
                let fwd = forward_block(
                    &name,
                    "compensatable segment (grouped per §4.2 step 5)",
                    steps,
                    |step| spec.retries(step),
                );
                b = b.block(&name, fwd);
                if or_targets.contains(&name) {
                    b = set_or_start(b, &name);
                }
            }
        }
    }
    // Compensation blocks (OR starts always — they typically have two
    // failure sources).
    for &seg in comp_exit.keys() {
        let steps = elements[seg].steps();
        let name = segment_comp_block(steps);
        let comp = compensation_block(&name, "compensation of a compensatable segment", steps);
        b = b.block(&name, comp);
        b = set_or_start(b, &name);
    }

    // Chain edges within each continuation.
    let mut last_of_path: Vec<String> = Vec::new();
    for k in 0..m {
        let ids: Vec<usize> = elements
            .iter()
            .enumerate()
            .filter(|(_, e)| e.path == k)
            .map(|(id, _)| id)
            .collect();
        for w in ids.windows(2) {
            // A retriable source loops until RC = 1, so its success
            // edge needs no guard; guarding it would be redundant
            // (WA104). Everything else routes failure via RC.
            if matches!(elements[w[0]].kind, ElemKind::Retriable(_)) {
                b = b.connect(&elements[w[0]].activity, &elements[w[1]].activity);
            } else {
                b = b.connect_when(
                    &elements[w[0]].activity,
                    &elements[w[1]].activity,
                    &format!("{RC_MEMBER} = 1"),
                );
            }
        }
        last_of_path.push(
            elements[*ids.last().expect("non-empty continuation")]
                .activity
                .clone(),
        );
    }

    // Failure edges.
    for (eid, route) in &routes {
        let to = match (route.comp_of, route.fallback) {
            (Some(seg), _) => segment_comp_block(elements[seg].steps()),
            (None, Some(k2)) => elements[entry_elem[k2]].activity.clone(),
            // Full abort with nothing to undo: the RC = 0 outcome simply
            // ends navigation (dead path elimination).
            (None, None) => continue,
        };
        b = b.connect_when(&elements[*eid].activity, &to, &format!("{RC_MEMBER} = 0"));
    }
    // Compensation-block exit edges and data feeds.
    for (&seg, fallback) in &comp_exit {
        let steps = elements[seg].steps();
        let comp_name = segment_comp_block(steps);
        if let Some(k2) = *fallback {
            b = b.connect(&comp_name, &elements[entry_elem[k2]].activity);
        }
        // State flags flow from the segment's forward block.
        b = with_state_pairs(steps, |pairs| {
            b.map_data(&segment_block(steps), &comp_name, pairs)
        });
    }

    // Outcome reporting: each path's last element writes Committed and
    // its Via flag at termination; the committing path writes last.
    for (k, last) in last_of_path.iter().enumerate() {
        b = b.map_to_process_output(last, &[(RC_MEMBER, "Committed")]);
        b = b.map_to_process_output(last, &[(RC_MEMBER, &via_member(k))]);
    }

    validated(b.build_unchecked())
}

/// Flips the activity with `name` to an OR start.
fn set_or_start(b: ProcessBuilder, name: &str) -> ProcessBuilder {
    let mut def = b.build_unchecked();
    if let Some(a) = def.activities.iter_mut().find(|a| a.name == name) {
        a.start = wfms_model::StartCondition::Or;
    }
    ProcessBuilder::from(def)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::fixtures::figure3_spec;
    use atm::{check_flex, WellFormedError};
    use wfms_model::{validate, ActivityKind};

    fn translate(spec: &FlexSpec) -> Result<ProcessDefinition, TranslateError> {
        translate_flex(&check_flex(spec).unwrap())
    }

    #[test]
    fn figure4_shape() {
        let def = translate(&figure3_spec()).unwrap();
        // Elements: Blk_T1, T2, T4, Blk_T5_T6, T8 (p0), T7 (p1),
        // T3 (p2) + comp blocks Comp_T1 and Comp_T5_T6 = 9 activities.
        let names: Vec<_> = def.activity_names();
        assert!(names.contains(&"Blk_T1"));
        assert!(names.contains(&"T2"));
        assert!(names.contains(&"T4"));
        assert!(names.contains(&"Blk_T5_T6"));
        assert!(names.contains(&"T8"));
        assert!(names.contains(&"T7"));
        assert!(names.contains(&"T3"));
        assert!(names.contains(&"Comp_T1"));
        assert!(names.contains(&"Comp_T5_T6"));
        assert_eq!(names.len(), 9);

        // Pivots have both RC=1 and RC=0 outgoing connectors (§4.2
        // step 3) — except T8 whose success edge is the path end.
        let t4_out = def.outgoing("T4");
        assert_eq!(t4_out.len(), 2);
        let conds: Vec<String> = t4_out.iter().map(|c| c.condition.to_string()).collect();
        assert!(conds.contains(&"(RC = 1)".to_string()));
        assert!(conds.contains(&"(RC = 0)".to_string()));
        // T4's failure edge goes to T3 (p3), not T7 (p2): the paper's
        // "if T4 aborts, T3 is executed until it commits".
        let fail_edge = t4_out
            .iter()
            .find(|c| c.condition.to_string() == "(RC = 0)")
            .unwrap();
        assert_eq!(fail_edge.to, "T3");

        // T8's failure routes through the segment compensation.
        let t8_fail = def
            .outgoing("T8")
            .into_iter()
            .find(|c| c.condition.to_string() == "(RC = 0)")
            .unwrap();
        assert_eq!(t8_fail.to, "Comp_T5_T6");
        // …which continues into T7.
        assert!(def.outgoing("Comp_T5_T6").iter().any(|c| c.to == "T7"));

        // T2's failure compensates T1 with no continuation (full
        // abort).
        let t2_fail = def
            .outgoing("T2")
            .into_iter()
            .find(|c| c.condition.to_string() == "(RC = 0)")
            .unwrap();
        assert_eq!(t2_fail.to, "Comp_T1");
        assert!(def.outgoing("Comp_T1").is_empty());

        // Retriables loop via their exit condition.
        for r in ["T3", "T7"] {
            assert!(def.activity(r).unwrap().exit.expr.is_some());
        }

        // The T5/T6 segment is a block exporting State flags.
        let seg = def.activity("Blk_T5_T6").unwrap();
        let ActivityKind::Block { process } = &seg.kind else {
            panic!("segment must be a block")
        };
        assert!(process.output.has("State_T5"));
        assert!(process.output.has("State_T6"));
        assert!(process.output.has("RC"));
    }

    #[test]
    fn generated_process_validates() {
        let def = translate(&figure3_spec()).unwrap();
        assert!(validate(&def).is_empty());
        // Exactly one start activity: the first segment.
        let starts: Vec<_> = def
            .start_activities()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        assert_eq!(starts, vec!["Blk_T1".to_string()]);
    }

    #[test]
    fn ill_formed_rejected() {
        let mut spec = figure3_spec();
        spec.steps
            .iter_mut()
            .find(|s| s.name == "T1")
            .unwrap()
            .compensation = None;
        // An ill-formed spec has no checked form to translate.
        assert!(check_flex(&spec).unwrap_err().iter().any(
            |e| matches!(e, WellFormedError::CompensationMismatch { step, .. } if step == "T1")
        ));
    }

    #[test]
    fn duplicate_continuation_step_rejected() {
        use atm::FlexStep;
        // B appears in two continuations (paths [A,B] and [C,B] share
        // no prefix).
        let spec = FlexSpec::new(
            "dup",
            vec![
                FlexStep::compensatable("A", "pa", "ca"),
                FlexStep::retriable("B", "pb"),
                FlexStep::compensatable("C", "pc", "cc"),
            ],
            vec![vec!["A", "B"], vec!["C", "B"]],
        );
        match translate(&spec) {
            Err(TranslateError::Unsupported(msg)) => {
                assert!(msg.contains("more than one path"), "{msg}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn redundant_path_rejected() {
        use atm::FlexStep;
        let spec = FlexSpec::new(
            "red",
            vec![
                FlexStep::compensatable("A", "pa", "ca"),
                FlexStep::retriable("B", "pb"),
            ],
            vec![vec!["A", "B"], vec!["A"]],
        );
        assert!(matches!(
            translate(&spec),
            Err(TranslateError::Unsupported(_))
        ));
    }
}
