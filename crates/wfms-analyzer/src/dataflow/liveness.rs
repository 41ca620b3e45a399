//! `WA101`/`WA102`: container def-use over *feasible paths*.
//!
//! The schema-level `WA041` only asks "does any data connector write
//! this member at all?". This pass asks the sharper question: **is the
//! write guaranteed to have happened on every feasible path** by the
//! time the reader becomes ready? It runs a forward *must-completed*
//! analysis on the [`framework`](super::framework): the fact at each
//! activity is the set of activities guaranteed to have executed
//! whenever it becomes ready.
//!
//! * An AND-join is only ready once **every** incoming edge evaluated
//!   true, and a true edge implies its source executed — so the sets
//!   union.
//! * An OR-join fires on the **first** true edge — only what every
//!   live incoming path guarantees survives, so the sets intersect.
//! * Edges that can never fire (decided false by constant
//!   propagation, or sourced from a statically dead activity — the
//!   level's [`ScopeFacts`], computed once per scope by the analyzer)
//!   contribute nothing.
//!
//! The pass runs on the scope of the compiled template the engine runs
//! ([`Level::scope`](crate::Level::scope)), never on a copy of its own.
//!
//! Findings:
//!
//! * `WA101` — *may-read-before-write* (warning): an input member of a
//!   program or block activity whose only writers are activity
//!   outputs not in the reader's must-completed set. The message
//!   carries a witness path from a start activity to the reader that
//!   avoids every writer. No-op activities are exempt: their
//!   pass-through containers exist to ferry flags into transition
//!   conditions, and the condition rule maps unset members to `false`
//!   by design — the saga translation's compensation trigger relies
//!   on exactly that.
//! * `WA102` — *dead write* (warning): a data connector with a
//!   statically dead endpoint — the mapping can never take effect
//!   (dead source never executes; dead sink never reads).

use super::framework::{solve, Analysis, Direction};
use crate::{Diagnostic, Lint, ProcessCtx, Severity};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wfms_engine::compiled::{ActId, CompiledKind, CompiledScope, EdgeId};
use wfms_engine::optimize::ScopeFacts;
use wfms_model::DataEndpoint;

/// Feasible-path def-use lints.
pub struct LivenessLint;

/// Forward must-completed analysis: the set of activities guaranteed
/// executed when an activity becomes ready.
struct MustCompleted<'a> {
    facts: &'a ScopeFacts,
}

impl MustCompleted<'_> {
    fn edge_live(&self, scope: &CompiledScope, edge: EdgeId) -> bool {
        let e = &scope.edges[edge as usize];
        self.facts.edge_verdict[edge as usize] != Some(false) && !self.facts.dead[e.from as usize]
    }
}

impl Analysis for MustCompleted<'_> {
    type Fact = BTreeSet<ActId>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn top(&self, scope: &CompiledScope) -> Self::Fact {
        (0..scope.acts.len() as ActId).collect()
    }

    fn boundary(&self, _: &CompiledScope, _: ActId) -> Self::Fact {
        BTreeSet::new()
    }

    fn edge_fact(
        &self,
        scope: &CompiledScope,
        edge: EdgeId,
        upstream: &Self::Fact,
    ) -> Option<Self::Fact> {
        if !self.edge_live(scope, edge) {
            return None;
        }
        let mut fact = upstream.clone();
        fact.insert(scope.edges[edge as usize].from);
        Some(fact)
    }

    fn merge(
        &self,
        scope: &CompiledScope,
        act: ActId,
        contributions: Vec<Self::Fact>,
    ) -> Self::Fact {
        let mut iter = contributions.into_iter();
        let Some(first) = iter.next() else {
            return BTreeSet::new();
        };
        match scope.acts[act as usize].start {
            wfms_model::StartCondition::And => iter.fold(first, |mut acc, c| {
                acc.extend(c);
                acc
            }),
            wfms_model::StartCondition::Or => {
                iter.fold(first, |acc, c| acc.intersection(&c).cloned().collect())
            }
        }
    }

    fn transfer(&self, _: &CompiledScope, _: ActId, input: &Self::Fact) -> Self::Fact {
        input.clone()
    }
}

/// A path `start -> … -> target` over live edges avoiding `avoid`, if
/// one exists (BFS, so the witness is shortest).
fn witness_path(
    scope: &CompiledScope,
    facts: &ScopeFacts,
    target: ActId,
    avoid: &BTreeSet<ActId>,
) -> Option<Vec<String>> {
    let mut parent: BTreeMap<ActId, ActId> = BTreeMap::new();
    let mut queue: VecDeque<ActId> = VecDeque::new();
    let mut seen: BTreeSet<ActId> = BTreeSet::new();
    for &s in &scope.starts {
        if !avoid.contains(&s) && !facts.dead[s as usize] {
            seen.insert(s);
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        if n == target {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = parent.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(
                path.into_iter()
                    .map(|i| scope.acts[i as usize].name.clone())
                    .collect(),
            );
        }
        for &e in &scope.acts[n as usize].outgoing {
            let edge = &scope.edges[e as usize];
            if facts.edge_verdict[e as usize] == Some(false) {
                continue;
            }
            let next = edge.to;
            if next != target && (avoid.contains(&next) || facts.dead[next as usize]) {
                continue;
            }
            if seen.insert(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

impl Lint for LivenessLint {
    fn name(&self) -> &'static str {
        "analyze:liveness"
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        // The semantic passes need a well-formed definition; hard model
        // violations are WA001–WA016's business.
        let Some(level) = ctx.level else { return };
        let (def, scope, facts) = (ctx.process, level.scope(), level.facts());
        let sol = solve(&MustCompleted { facts }, scope);
        if !sol.converged {
            return; // cyclic scope — WA022 reports it
        }

        // Writers per (reader activity, input member): activity-output
        // sources only; a PROCESS.INPUT source is available from
        // instance start and satisfies the read unconditionally.
        let mut writers: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
        let mut from_process_input: BTreeSet<(&str, &str)> = BTreeSet::new();
        for d in &def.data {
            let DataEndpoint::ActivityInput(reader) = &d.to else {
                continue;
            };
            for m in &d.mappings {
                match &d.from {
                    DataEndpoint::ActivityOutput(src) => writers
                        .entry((reader.as_str(), m.to_member.as_str()))
                        .or_default()
                        .push(src.as_str()),
                    DataEndpoint::ProcessInput => {
                        from_process_input.insert((reader.as_str(), m.to_member.as_str()));
                    }
                    _ => {}
                }
            }
        }

        // WA101: reads not covered on every feasible path.
        for (i, act) in scope.acts.iter().enumerate() {
            if facts.dead[i] || matches!(act.kind, CompiledKind::NoOp) {
                continue;
            }
            let must = &sol.input[i];
            for m in &act.input.members {
                if m.default.is_some()
                    || from_process_input.contains(&(act.name.as_str(), m.name.as_str()))
                {
                    continue;
                }
                let Some(srcs) = writers.get(&(act.name.as_str(), m.name.as_str())) else {
                    continue; // no writer at all: WA041 (error) already fired
                };
                let src_ids: BTreeSet<ActId> = srcs
                    .iter()
                    .filter_map(|s| scope.id(s))
                    .filter(|&s| !facts.dead[s as usize])
                    .collect();
                if src_ids.iter().any(|s| must.contains(s)) {
                    continue;
                }
                // Not guaranteed — but only report with a concrete
                // feasible path that reaches the reader past every
                // writer; if no such path exists, every run writes
                // first and the must-analysis was merely imprecise.
                let Some(path) = witness_path(scope, facts, i as ActId, &src_ids) else {
                    continue;
                };
                let writer_list = srcs.join(", ");
                let detail = if src_ids.is_empty() {
                    format!("its only writer(s) ({writer_list}) are statically dead")
                } else {
                    format!(
                        "the path {} reaches it without executing any of its \
                         writer(s) ({writer_list})",
                        path.join(" -> ")
                    )
                };
                out.push(
                    Diagnostic::new(
                        "WA101",
                        Severity::Warning,
                        &ctx.path,
                        Some(act.name.clone()),
                        format!(
                            "input member {:?} of {:?} may be read before it is \
                             written: {detail}",
                            m.name, act.name
                        ),
                    )
                    .with_pos(ctx.pos_activity(&act.name)),
                );
            }
        }

        // WA102: data connectors with a statically dead endpoint.
        let dead_by_name: BTreeSet<&str> = scope
            .acts
            .iter()
            .enumerate()
            .filter(|(i, _)| facts.dead[*i])
            .map(|(_, a)| a.name.as_str())
            .collect();
        for d in &def.data {
            let dead_end = match (&d.from, &d.to) {
                (DataEndpoint::ActivityOutput(a), _) if dead_by_name.contains(a.as_str()) => {
                    Some(format!("source activity {a:?} is statically dead"))
                }
                (_, DataEndpoint::ActivityInput(a)) if dead_by_name.contains(a.as_str()) => {
                    Some(format!("sink activity {a:?} is statically dead"))
                }
                _ => None,
            };
            if let Some(reason) = dead_end {
                let label = format!("{} => {}", d.from, d.to);
                out.push(
                    Diagnostic::new(
                        "WA102",
                        Severity::Warning,
                        &ctx.path,
                        Some(label.clone()),
                        format!("data connector {label} never takes effect: {reason}"),
                    )
                    .with_pos(ctx.pos_data(&label)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Analyzer, Diagnostic, Severity};

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        Analyzer::new().check_process(&def, Some(&prov))
    }

    #[test]
    fn parallel_branch_read_is_flagged_with_witness() {
        // C's input comes from B's output, and a control path B -> C
        // exists (so the model-level WA012 is satisfied) — but the
        // A -> C shortcut reaches the read without executing B.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" OUTPUT ( x: INT ) END
              ACTIVITY C PROGRAM "c" INPUT ( y: INT ) START OR END
              CONTROL FROM A TO B WHEN "RC = 1"
              CONTROL FROM A TO C WHEN "RC = 0"
              CONTROL FROM B TO C
              DATA FROM B.OUTPUT TO C.INPUT MAP x -> y
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA101").expect("WA101");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.element.as_deref(), Some("C"));
        assert!(d.message.contains("A -> C"), "witness in {:?}", d.message);
        assert!(d.pos.is_some());
    }

    #[test]
    fn upstream_writer_satisfies_the_read() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY B PROGRAM "b" OUTPUT ( x: INT ) END
              ACTIVITY C PROGRAM "c" INPUT ( y: INT ) END
              CONTROL FROM B TO C WHEN "RC = 1"
              DATA FROM B.OUTPUT TO C.INPUT MAP x -> y
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA101"), "{diags:?}");
    }

    #[test]
    fn and_join_collects_both_branches() {
        // D AND-joins B and C: both are in D's must-completed set.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" OUTPUT ( x: INT ) END
              ACTIVITY C PROGRAM "c" OUTPUT ( y: INT ) END
              ACTIVITY D PROGRAM "d" INPUT ( x: INT, y: INT ) START AND END
              CONTROL FROM A TO B
              CONTROL FROM A TO C
              CONTROL FROM B TO D
              CONTROL FROM C TO D
              DATA FROM B.OUTPUT TO D.INPUT MAP x -> x
              DATA FROM C.OUTPUT TO D.INPUT MAP y -> y
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA101"), "{diags:?}");
    }

    #[test]
    fn or_join_keeps_only_the_guaranteed_prefix() {
        // D OR-joins B and C; only A is common to both paths, so a
        // write sourced from B is not guaranteed.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" OUTPUT ( x: INT ) END
              ACTIVITY C PROGRAM "c" END
              ACTIVITY D PROGRAM "d" INPUT ( v: INT ) START OR END
              CONTROL FROM A TO B WHEN "RC = 1"
              CONTROL FROM A TO C WHEN "RC = 0"
              CONTROL FROM B TO D
              CONTROL FROM C TO D
              DATA FROM B.OUTPUT TO D.INPUT MAP x -> v
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA101").expect("WA101");
        assert!(d.message.contains('C'), "witness via C: {:?}", d.message);
    }

    #[test]
    fn noop_passthrough_reads_are_exempt() {
        // The saga-translation idiom: a NOOP collects flags from
        // multiple optional writers; unset members fold to false in
        // the downstream conditions, by design.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              NOOP Trigger INPUT ( State_A: INT, State_B: INT )
                           OUTPUT ( State_A: INT, State_B: INT ) START OR END
              CONTROL FROM A TO B WHEN "RC = 1"
              CONTROL FROM A TO Trigger WHEN "RC = 0"
              CONTROL FROM B TO Trigger WHEN "RC = 0"
              DATA FROM A.OUTPUT TO Trigger.INPUT MAP RC -> State_A
              DATA FROM B.OUTPUT TO Trigger.INPUT MAP RC -> State_B
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA101"), "{diags:?}");
    }

    #[test]
    fn default_exempts_the_member() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" OUTPUT ( x: INT ) END
              ACTIVITY C PROGRAM "c" INPUT ( y: INT DEFAULT 0 ) START OR END
              CONTROL FROM A TO B WHEN "RC = 1"
              CONTROL FROM A TO C WHEN "RC = 0"
              CONTROL FROM B TO C
              DATA FROM B.OUTPUT TO C.INPUT MAP x -> y
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA101"), "{diags:?}");
    }

    #[test]
    fn dead_endpoint_connector_is_a_dead_write() {
        // Gate pins RC = 1 via its exit condition, so the RC = 0 edge
        // is decided false and Dead is statically dead — both its
        // feeding and draining connectors are inert.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY Gate PROGRAM "g" EXIT WHEN "RC = 1" OUTPUT ( x: INT ) END
              ACTIVITY Live PROGRAM "l" END
              ACTIVITY Dead PROGRAM "d" INPUT ( v: INT DEFAULT 0 ) OUTPUT ( w: INT ) END
              ACTIVITY Sink PROGRAM "s" INPUT ( u: INT DEFAULT 0 ) END
              CONTROL FROM Gate TO Live WHEN "RC = 1"
              CONTROL FROM Gate TO Dead WHEN "RC = 0"
              CONTROL FROM Dead TO Sink
              DATA FROM Gate.OUTPUT TO Dead.INPUT MAP x -> v
              DATA FROM Dead.OUTPUT TO Sink.INPUT MAP w -> u
            END
        "#,
        );
        let dead_writes: Vec<_> = diags.iter().filter(|d| d.code == "WA102").collect();
        assert_eq!(dead_writes.len(), 2, "{diags:?}");
        assert!(dead_writes[0].pos.is_some());
    }

    #[test]
    fn live_connectors_not_flagged() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" OUTPUT ( x: INT ) END
              ACTIVITY B PROGRAM "b" INPUT ( y: INT ) END
              CONTROL FROM A TO B
              DATA FROM A.OUTPUT TO B.INPUT MAP x -> y
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA102"), "{diags:?}");
    }
}
