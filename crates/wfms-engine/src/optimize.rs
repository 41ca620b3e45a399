//! Analysis-driven template optimization — condition-value propagation
//! over compiled scopes, and the journal-neutral rewrites it licenses.
//!
//! [`CondPlan::transition`](crate::compiled::CondPlan::transition)
//! already folds each condition *in isolation*; this module propagates
//! constants **through the graph**: an edge's condition is evaluated
//! over its source activity's output container, so any output member
//! whose value is known at every executed termination of the source
//! ("completion facts") can be substituted into the condition before
//! folding. Two fact sources are sound:
//!
//! * a no-op activity always terminates with `RC = 1` (§3.2 — it
//!   "commits immediately");
//! * an exit condition holds whenever the activity completes (a false
//!   exit reschedules it, §3.2), so an error-free exit condition of
//!   the shape `RC = k [AND …]` pins `RC` at completion. Only the
//!   reserved `RC` member is guaranteed present and `INT`-typed in
//!   every output container, so facts are restricted to it.
//!
//! From decided edges a per-scope fixpoint derives **statically dead**
//! activities — those that can never become ready: an AND-join with
//! one never-true incoming edge, an OR-join with none. The navigator
//! still journals their dead-path elimination (`ActivityTerminated
//! { executed: false }` and false `ConnectorEvaluated`s), so they
//! cannot be removed; what *can* go is every piece of runtime work
//! that only executed or ready activities incur:
//!
//! * decided `Dynamic` plans become `AlwaysTrue`/`AlwaysFalse` (the
//!   journaled verdict is unchanged; the expression walk is skipped);
//! * `data_in` entries sourced from a dead activity are dropped (the
//!   navigator skips sources that never executed — see
//!   `navigator::make_ready`'s `is_terminated() && executed` guard);
//! * dead activities' `data_in`/`data_out` are dropped (they never
//!   start and never terminate executed);
//! * `deadline_acts`, `any_deadlines` and `any_manual` are recomputed
//!   over live activities only, so instances whose manual or
//!   deadline-bearing steps are all dead skip worklist and deadline
//!   maintenance entirely.
//!
//! Every rewrite preserves the event stream byte for byte; the
//! differential suites (`reference_differential.rs` against
//! [`RefEngine`](crate::RefEngine), `optimize_differential.rs` against
//! the unoptimized template) pin that down.

use crate::compiled::{CompiledKind, CompiledProcess, CompiledScope, CondPlan};
use std::sync::Arc;
use txn_substrate::Value;
use wfms_model::expr::CmpOp;
use wfms_model::{Expr, StartCondition, RC_MEMBER};

/// Per-scope analysis results of condition-value propagation.
#[derive(Debug, Clone)]
pub struct ScopeFacts {
    /// Per edge (by [`EdgeId`](crate::compiled::EdgeId)): the verdict
    /// the transition is guaranteed to produce *whenever it is
    /// evaluated over an executed source*, if decidable. Edges whose
    /// plan was already constant are included.
    pub edge_verdict: Vec<Option<bool>>,
    /// Per activity (by [`ActId`](crate::compiled::ActId)): true when
    /// the activity can never become ready — every run dead-path
    /// eliminates it (or leaves it waiting forever).
    pub dead: Vec<bool>,
    /// Per activity: output members with a known constant value at
    /// every executed termination.
    pub completion: Vec<Vec<(String, Value)>>,
}

/// What [`optimize`] changed, summed over all scopes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// `Dynamic` transition/exit plans replaced by constants.
    pub plans_fixed: usize,
    /// Statically dead activities found.
    pub dead_acts: usize,
    /// `data_in` entries and `data_out` mappings dropped.
    pub data_pruned: usize,
}

impl OptStats {
    /// True when the optimizer changed nothing.
    pub fn is_noop(&self) -> bool {
        *self == OptStats::default()
    }
}

/// Replaces known-constant members by literals. Substitution before
/// folding mirrors evaluation: the engine evaluates conditions over a
/// container in which these members hold exactly these values.
fn subst(e: &Expr, env: &[(String, Value)]) -> Expr {
    match e {
        Expr::Lit(_) => e.clone(),
        Expr::Var(v) => match env.iter().find(|(n, _)| n == v) {
            Some((_, val)) => Expr::Lit(val.clone()),
            None => e.clone(),
        },
        Expr::Cmp(l, op, r) => Expr::Cmp(Box::new(subst(l, env)), *op, Box::new(subst(r, env))),
        Expr::Arith(l, op, r) => Expr::Arith(Box::new(subst(l, env)), *op, Box::new(subst(r, env))),
        Expr::And(l, r) => Expr::And(Box::new(subst(l, env)), Box::new(subst(r, env))),
        Expr::Or(l, r) => Expr::Or(Box::new(subst(l, env)), Box::new(subst(r, env))),
        Expr::Not(e) => Expr::Not(Box::new(subst(e, env))),
        Expr::Neg(e) => Expr::Neg(Box::new(subst(e, env))),
    }
}

/// True when evaluation of `e` can never raise: every subexpression is
/// an integer literal, the reserved `RC` member (always present,
/// always `INT`), integer comparisons over those, or a boolean
/// combinator of such comparisons. Division stays excluded — `x / 0`
/// raises.
fn error_free_rc_bool(e: &Expr) -> bool {
    fn int_operand(e: &Expr) -> bool {
        matches!(e, Expr::Lit(Value::Int(_))) || matches!(e, Expr::Var(v) if v == RC_MEMBER)
    }
    match e {
        Expr::Lit(Value::Bool(_)) => true,
        Expr::Cmp(l, _, r) => int_operand(l) && int_operand(r),
        Expr::And(l, r) | Expr::Or(l, r) => error_free_rc_bool(l) && error_free_rc_bool(r),
        Expr::Not(e) => error_free_rc_bool(e),
        _ => false,
    }
}

/// Facts guaranteed by a *true* evaluation of an error-free exit
/// condition: `RC = k` equalities reachable through conjunctions.
/// Restricted to error-free subtrees — evaluation errors make an exit
/// condition pass (`unwrap_or(true)`) without its conjuncts holding,
/// but an error-free left conjunct must have been true for evaluation
/// to reach (or error in) the right one.
fn exit_facts(e: &Expr) -> Vec<(String, Value)> {
    match e {
        Expr::And(l, r) => {
            if !error_free_rc_bool(l) {
                return Vec::new();
            }
            let mut facts = exit_facts(l);
            if error_free_rc_bool(r) {
                facts.extend(exit_facts(r));
            }
            facts
        }
        Expr::Cmp(l, CmpOp::Eq, r) if error_free_rc_bool(e) => match (&**l, &**r) {
            (Expr::Var(v), Expr::Lit(val)) | (Expr::Lit(val), Expr::Var(v)) => {
                vec![(v.clone(), val.clone())]
            }
            _ => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// Decides a transition plan under `env`, mirroring
/// [`CondPlan::transition`]'s folding rules (non-boolean constants and
/// guaranteed errors are false).
fn decide_transition(plan: &CondPlan, env: &[(String, Value)]) -> Option<bool> {
    match plan {
        CondPlan::AlwaysTrue => Some(true),
        CondPlan::AlwaysFalse => Some(false),
        CondPlan::Dynamic(e) => {
            let folded = subst(e, env).const_fold();
            match folded.const_value() {
                Some(v) => Some(v.as_bool() == Some(true)),
                None => folded.const_error().map(|_| false),
            }
        }
    }
}

/// Runs condition-value propagation over one scope: completion facts,
/// edge verdicts, and the statically-dead fixpoint.
pub fn analyze_scope(cs: &CompiledScope) -> ScopeFacts {
    let n = cs.acts.len();
    let mut completion: Vec<Vec<(String, Value)>> = Vec::with_capacity(n);
    for act in &cs.acts {
        let mut facts: Vec<(String, Value)> = Vec::new();
        if matches!(act.kind, CompiledKind::NoOp) {
            facts.push((RC_MEMBER.to_owned(), Value::Int(1)));
        }
        if let CondPlan::Dynamic(e) = &act.exit {
            for (name, val) in exit_facts(e) {
                if !facts.iter().any(|(n, _)| *n == name) {
                    facts.push((name, val));
                }
            }
        }
        completion.push(facts);
    }

    let edge_verdict: Vec<Option<bool>> = cs
        .edges
        .iter()
        .map(|e| decide_transition(&e.cond, &completion[e.from as usize]))
        .collect();

    // Statically-dead fixpoint. An activity can never become ready
    // when its join can never be satisfied: an incoming edge is
    // never-true if its decided verdict is false, or its source is
    // itself dead (the navigator forces a dead source's outgoing
    // connectors to false). Start activities are seeded ready and are
    // never dead. Monotone (dead only grows), so iteration terminates.
    let mut dead = vec![false; n];
    loop {
        let mut changed = false;
        for (i, act) in cs.acts.iter().enumerate() {
            if dead[i] || act.incoming.is_empty() {
                continue;
            }
            let never_true = |edge: u32| -> bool {
                let e = &cs.edges[edge as usize];
                edge_verdict[edge as usize] == Some(false) || dead[e.from as usize]
            };
            let is_dead = match act.start {
                StartCondition::And => act.incoming.iter().any(|&e| never_true(e)),
                StartCondition::Or => act.incoming.iter().all(|&e| never_true(e)),
            };
            if is_dead {
                dead[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    ScopeFacts {
        edge_verdict,
        dead,
        completion,
    }
}

fn optimize_scope(cs: &CompiledScope, stats: &mut OptStats) -> CompiledScope {
    let facts = analyze_scope(cs);
    let mut out = cs.clone();

    for (e, edge) in out.edges.iter_mut().enumerate() {
        if let CondPlan::Dynamic(_) = edge.cond {
            if let Some(v) = facts.edge_verdict[e] {
                edge.cond = if v {
                    CondPlan::AlwaysTrue
                } else {
                    CondPlan::AlwaysFalse
                };
                stats.plans_fixed += 1;
            }
        }
    }

    let mut any_manual = false;
    let mut any_deadlines = false;
    let mut deadline_acts = Vec::new();
    for (i, act) in out.acts.iter_mut().enumerate() {
        let live = !facts.dead[i];
        if !live {
            stats.dead_acts += 1;
            stats.data_pruned += act.data_in.len() + act.data_out.len();
            act.data_in.clear();
            act.data_out.clear();
        } else {
            // A no-op's exit condition is checked over `RC = 1` plus
            // its pass-through members; substituting the guaranteed RC
            // decides exits like `EXIT WHEN "RC = 1"` statically.
            if matches!(act.kind, CompiledKind::NoOp) {
                if let CondPlan::Dynamic(e) = &act.exit {
                    let folded = subst(e, &[(RC_MEMBER.to_owned(), Value::Int(1))]).const_fold();
                    // Exit rule: errors and non-boolean constants exit.
                    let verdict = match folded.const_value() {
                        Some(v) => Some(v.as_bool() != Some(false)),
                        None => folded.const_error().map(|_| true),
                    };
                    if let Some(v) = verdict {
                        act.exit = if v {
                            CondPlan::AlwaysTrue
                        } else {
                            CondPlan::AlwaysFalse
                        };
                        stats.plans_fixed += 1;
                    }
                }
            }
            // Drop input feeds whose source can never have executed.
            let before = act.data_in.len();
            act.data_in.retain(|d| match d.source {
                crate::compiled::DataSource::ProcessInput => true,
                crate::compiled::DataSource::ActivityOutput(src) => !facts.dead[src as usize],
            });
            stats.data_pruned += before - act.data_in.len();
        }
        if let CompiledKind::Block(child) = &act.kind {
            let opt_child = optimize_scope(child, stats);
            if live {
                any_manual |= opt_child.any_manual;
                any_deadlines |= opt_child.any_deadlines;
            }
            act.kind = CompiledKind::Block(Arc::new(opt_child));
        }
        if live && !act.automatic {
            any_manual = true;
            if act.deadline.is_some() {
                any_deadlines = true;
                deadline_acts.push(i as u32);
            }
        }
    }
    out.any_manual = any_manual;
    out.any_deadlines = any_deadlines;
    out.deadline_acts = deadline_acts;
    out
}

/// Optimizes a compiled template. The returned template produces a
/// byte-identical event stream for every instance; only the work the
/// navigator performs per event shrinks.
pub fn optimize(tpl: &CompiledProcess) -> (CompiledProcess, OptStats) {
    let mut stats = OptStats::default();
    let root = optimize_scope(&tpl.root, &mut stats);
    (
        CompiledProcess::from_parts(Arc::clone(&tpl.def), Arc::new(root)),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_model::{Activity, ProcessBuilder, ProcessDefinition};

    fn compile(def: ProcessDefinition) -> CompiledProcess {
        CompiledProcess::compile(def)
    }

    /// NoOp → "RC = 1" edge → program: the edge is decided true.
    #[test]
    fn noop_rc_edges_fold() {
        let def = ProcessBuilder::new("p")
            .activity(Activity::noop("N"))
            .program("A", "pa")
            .connect_when("N", "A", "RC = 1")
            .build()
            .unwrap();
        let tpl = compile(def);
        let (opt, stats) = optimize(&tpl);
        assert_eq!(stats.plans_fixed, 1);
        assert!(matches!(opt.root.edges[0].cond, CondPlan::AlwaysTrue));
        assert!(!opt.root.edges.is_empty());
    }

    /// Exit condition "RC = 1" pins RC at completion, so downstream
    /// "RC = 1" edges fold true and "RC = 0" edges fold false; the
    /// "RC = 0" target becomes statically dead.
    #[test]
    fn exit_condition_facts_propagate() {
        let mut a = Activity::program("A", "pa");
        a.exit = wfms_model::ExitCondition::when("RC = 1");
        let def = ProcessBuilder::new("p")
            .activity(a)
            .program("B", "pb")
            .program("C", "pc")
            .connect_when("A", "B", "RC = 1")
            .connect_when("A", "C", "RC = 0")
            .build()
            .unwrap();
        let tpl = compile(def);
        let facts = analyze_scope(&tpl.root);
        assert_eq!(facts.completion[0], vec![("RC".to_owned(), Value::Int(1))]);
        assert_eq!(facts.edge_verdict, vec![Some(true), Some(false)]);
        assert_eq!(facts.dead, vec![false, false, true]);
        let (opt, stats) = optimize(&tpl);
        assert_eq!(stats.plans_fixed, 2);
        assert_eq!(stats.dead_acts, 1);
        assert!(matches!(opt.root.edges[0].cond, CondPlan::AlwaysTrue));
        assert!(matches!(opt.root.edges[1].cond, CondPlan::AlwaysFalse));
    }

    /// A program without an exit condition can return any RC: its
    /// "RC = 1" edges must stay dynamic.
    #[test]
    fn unpinned_programs_stay_dynamic() {
        let def = ProcessBuilder::new("p")
            .program("A", "pa")
            .program("B", "pb")
            .connect_when("A", "B", "RC = 1")
            .build()
            .unwrap();
        let (opt, stats) = optimize(&compile(def));
        assert!(stats.is_noop());
        assert!(matches!(opt.root.edges[0].cond, CondPlan::Dynamic(_)));
    }

    /// Erroring exit conditions pass (`unwrap_or(true)`), so facts may
    /// only come from error-free conjuncts: `RC = 1 AND x / 0 = 1`
    /// still pins RC (left conjunct must be true to reach the error),
    /// but `x / 0 = 1 AND RC = 1` pins nothing.
    #[test]
    fn erroring_conjuncts_block_facts() {
        let pinned = Expr::parse("RC = 1 AND x / 0 = 1").unwrap();
        assert_eq!(exit_facts(&pinned), vec![("RC".to_owned(), Value::Int(1))]);
        let unpinned = Expr::parse("x / 0 = 1 AND RC = 1").unwrap();
        assert_eq!(exit_facts(&unpinned), Vec::new());
        // Non-RC members may be absent from the output container
        // (UnknownVar errors): no facts from them either.
        let other = Expr::parse("State_1 = 1").unwrap();
        assert_eq!(exit_facts(&other), Vec::new());
    }

    /// Dead activities lose their data maps and deadline/manual
    /// bookkeeping; live ones keep theirs.
    #[test]
    fn dead_branch_pruned_from_indexes() {
        let mut gate = Activity::noop("Gate");
        gate.output = wfms_model::ContainerSchema::empty();
        let dead_manual = Activity::program("M", "pm")
            .for_role("clerk")
            .with_deadline(5);
        let def = ProcessBuilder::new("p")
            .activity(gate)
            .activity(dead_manual)
            .program("L", "pl")
            .connect_when("Gate", "M", "RC = 0")
            .connect_when("Gate", "L", "RC = 1")
            .build()
            .unwrap();
        let tpl = compile(def);
        assert!(tpl.root.any_manual);
        assert!(tpl.root.any_deadlines);
        let (opt, stats) = optimize(&tpl);
        assert_eq!(stats.dead_acts, 1);
        assert!(!opt.root.any_manual, "only manual activity is dead");
        assert!(!opt.root.any_deadlines);
        assert!(opt.root.deadline_acts.is_empty());
    }

    /// An OR-join survives as long as one incoming edge can fire; the
    /// same shape with an AND-join is statically dead.
    #[test]
    fn or_join_lives_with_one_live_edge() {
        let build = |start: StartCondition| {
            let mut join = Activity::program("J", "pj");
            join.start = start;
            ProcessBuilder::new("p")
                .activity(Activity::noop("N"))
                .program("X", "px")
                .activity(join)
                .connect_when("N", "J", "RC = 0")
                .connect_when("X", "J", "RC = 1")
                .build()
                .unwrap()
        };
        let or = compile(build(StartCondition::Or));
        let j = or.root.id("J").unwrap() as usize;
        assert!(!analyze_scope(&or.root).dead[j]);
        let and = compile(build(StartCondition::And));
        assert!(analyze_scope(&and.root).dead[j]);
    }

    /// Optimizing a template twice is idempotent on the second pass.
    #[test]
    fn optimize_is_idempotent() {
        let mut a = Activity::program("A", "pa");
        a.exit = wfms_model::ExitCondition::when("RC = 1");
        let def = ProcessBuilder::new("p")
            .activity(a)
            .program("B", "pb")
            .connect_when("A", "B", "RC = 0")
            .build()
            .unwrap();
        let (once, first) = optimize(&compile(def));
        assert!(!first.is_noop());
        let (_, second) = optimize(&once);
        assert_eq!(second.plans_fixed, 0);
        assert_eq!(second.data_pruned, 0);
    }
}
