//! `WA020`–`WA022`, `WA035`: control-flow shape of one process level.
//!
//! * `WA020` — an activity with no control connectors at all, in a
//!   process that otherwise uses control flow (an "orphan": it starts
//!   immediately and runs concurrently with everything else, which is
//!   almost always a forgotten connector).
//! * `WA021` — an activity that no start activity can ever reach, no
//!   matter how conditions evaluate (only possible with a cycle, since
//!   the meta-model's start set is "no incoming connectors").
//! * `WA022` — a control cycle, with a witness path `A -> B -> A`.
//!   Subsumes `ValidationError::Cycle`, which names only the process.
//! * `WA035` — an activity that is reachable in the graph but
//!   statically dead: every path to it crosses a connector whose
//!   condition constant-folds to `FALSE` (or is guaranteed to error,
//!   which the engine treats as false). This is how an unreachable
//!   compensation block in translated ATM output is caught.

use crate::{Diagnostic, Lint, ProcessCtx, Severity};
use std::collections::{BTreeMap, BTreeSet};
use txn_substrate::Value;
use wfms_model::{ControlConnector, ProcessDefinition};

/// Control-flow graph lints.
pub struct GraphLint;

/// Whether a connector can never fire: its condition constant-folds
/// to `FALSE` or is statically guaranteed to fail evaluation (the
/// engine maps evaluation errors to "false" plus an audit warning).
fn statically_dead(conn: &ControlConnector) -> bool {
    conn.condition.const_value() == Some(Value::Bool(false))
        || conn.condition.const_error().is_some()
}

/// Adjacency over activities that actually exist in the process
/// (connectors to unknown endpoints are WA005's business).
fn adjacency(def: &ProcessDefinition, live_only: bool) -> BTreeMap<&str, Vec<&str>> {
    let names: BTreeSet<&str> = def.activities.iter().map(|a| a.name.as_str()).collect();
    let mut adj: BTreeMap<&str, Vec<&str>> = names.iter().map(|n| (*n, Vec::new())).collect();
    for c in &def.control {
        if !names.contains(c.from.as_str()) || !names.contains(c.to.as_str()) {
            continue;
        }
        if live_only && statically_dead(c) {
            continue;
        }
        adj.get_mut(c.from.as_str())
            .expect("known")
            .push(c.to.as_str());
    }
    adj
}

/// Activities reachable from the start set across syntactically live
/// connectors — everything `WA021`/`WA035` leave unflagged. The
/// constant-propagation pass reports only activities that die *beyond*
/// this set, so one root cause never yields two codes.
pub(crate) fn syntactically_live(def: &ProcessDefinition) -> BTreeSet<&str> {
    reachable(&starts(def), &adjacency(def, true))
}

/// Start activities: no incoming connectors (from known activities).
fn starts(def: &ProcessDefinition) -> BTreeSet<&str> {
    let names: BTreeSet<&str> = def.activities.iter().map(|a| a.name.as_str()).collect();
    let mut has_incoming: BTreeSet<&str> = BTreeSet::new();
    for c in &def.control {
        if names.contains(c.from.as_str()) && names.contains(c.to.as_str()) {
            has_incoming.insert(c.to.as_str());
        }
    }
    names
        .into_iter()
        .filter(|n| !has_incoming.contains(n))
        .collect()
}

fn reachable<'a>(
    starts: &BTreeSet<&'a str>,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
) -> BTreeSet<&'a str> {
    let mut seen: BTreeSet<&str> = starts.clone();
    let mut stack: Vec<&str> = starts.iter().copied().collect();
    while let Some(n) = stack.pop() {
        for next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

/// Finds one cycle and returns it as a witness node sequence
/// `[A, B, A]` (first node repeated at the end).
fn find_cycle<'a>(adj: &BTreeMap<&'a str, Vec<&'a str>>) -> Option<Vec<&'a str>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark: BTreeMap<&str, Mark> = adj.keys().map(|n| (*n, Mark::White)).collect();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        mark: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<&'a str>> {
        mark.insert(node, Mark::Grey);
        stack.push(node);
        for next in adj.get(node).into_iter().flatten() {
            match mark.get(next).copied().unwrap_or(Mark::White) {
                Mark::Grey => {
                    // Witness: from next's position in the stack to
                    // here, then back to next.
                    let from = stack.iter().position(|n| n == next).expect("on stack");
                    let mut cycle: Vec<&str> = stack[from..].to_vec();
                    cycle.push(next);
                    return Some(cycle);
                }
                Mark::White => {
                    if let Some(cycle) = dfs(next, adj, mark, stack) {
                        return Some(cycle);
                    }
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        mark.insert(node, Mark::Black);
        None
    }

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for node in nodes {
        if mark.get(node) == Some(&Mark::White) {
            let mut stack = Vec::new();
            if let Some(cycle) = dfs(node, adj, &mut mark, &mut stack) {
                return Some(cycle);
            }
        }
    }
    None
}

impl Lint for GraphLint {
    fn name(&self) -> &'static str {
        "analyze:graph"
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        let def = ctx.process;

        // WA020: orphans, only meaningful where control flow exists.
        if !def.control.is_empty() {
            let mut touched: BTreeSet<&str> = BTreeSet::new();
            for c in &def.control {
                touched.insert(c.from.as_str());
                touched.insert(c.to.as_str());
            }
            for a in &def.activities {
                if !touched.contains(a.name.as_str()) {
                    out.push(
                        Diagnostic::new(
                            "WA020",
                            Severity::Warning,
                            &ctx.path,
                            Some(a.name.clone()),
                            format!(
                                "activity {:?} has no control connectors; it starts \
                                 immediately and runs detached from the rest of the process",
                                a.name
                            ),
                        )
                        .with_pos(ctx.pos_activity(&a.name)),
                    );
                }
            }
        }

        // WA022: cycle witness.
        let all_edges = adjacency(def, false);
        if let Some(cycle) = find_cycle(&all_edges) {
            let witness = cycle.join(" -> ");
            let pos = cycle
                .first()
                .and_then(|first| ctx.pos_activity(first))
                .or_else(|| ctx.pos_process());
            out.push(
                Diagnostic::new(
                    "WA022",
                    Severity::Error,
                    &ctx.path,
                    cycle.first().map(|s| s.to_string()),
                    format!("control connectors form a cycle: {witness}"),
                )
                .with_pos(pos),
            );
        }

        // WA021: unreachable from every start, regardless of data.
        let start_set = starts(def);
        let reach_all = reachable(&start_set, &all_edges);
        let mut unreachable: BTreeSet<&str> = BTreeSet::new();
        for a in &def.activities {
            if !reach_all.contains(a.name.as_str()) {
                unreachable.insert(a.name.as_str());
                out.push(
                    Diagnostic::new(
                        "WA021",
                        Severity::Error,
                        &ctx.path,
                        Some(a.name.clone()),
                        format!(
                            "activity {:?} can never start: it is unreachable from \
                             every start activity",
                            a.name
                        ),
                    )
                    .with_pos(ctx.pos_activity(&a.name)),
                );
            }
        }

        // WA035: reachable in the graph, but only across statically
        // false connectors.
        let live_edges = adjacency(def, true);
        let reach_live = reachable(&start_set, &live_edges);
        for a in &def.activities {
            let name = a.name.as_str();
            if reach_all.contains(name) && !reach_live.contains(name) && !unreachable.contains(name)
            {
                out.push(
                    Diagnostic::new(
                        "WA035",
                        Severity::Error,
                        &ctx.path,
                        Some(a.name.clone()),
                        format!(
                            "activity {:?} is statically dead: every control path to it \
                             crosses a connector whose condition is always false",
                            a.name
                        ),
                    )
                    .with_pos(ctx.pos_activity(&a.name)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        Analyzer::new().check_process(&def, Some(&prov))
    }

    #[test]
    fn orphan_activity_warned() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              ACTIVITY Lost PROGRAM "c" END
              CONTROL FROM A TO B
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA020").expect("WA020");
        assert_eq!(d.element.as_deref(), Some("Lost"));
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.pos.is_some());
    }

    #[test]
    fn no_orphans_without_control_flow() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA020"), "{diags:?}");
    }

    #[test]
    fn cycle_reported_with_witness() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY S PROGRAM "s" END
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM S TO A
              CONTROL FROM A TO B
              CONTROL FROM B TO A
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA022").expect("WA022");
        assert!(
            d.message.contains("A -> B -> A"),
            "witness in {:?}",
            d.message
        );
    }

    #[test]
    fn unreachable_island_flagged() {
        // A two-node cycle detached from the start activity: neither
        // node has indegree 0, so neither can ever start.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY S PROGRAM "s" END
              ACTIVITY X PROGRAM "x" END
              ACTIVITY Y PROGRAM "y" END
              CONTROL FROM X TO Y
              CONTROL FROM Y TO X
            END
        "#,
        );
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "WA021")
            .filter_map(|d| d.element.clone())
            .collect();
        assert_eq!(unreachable, vec!["X".to_string(), "Y".to_string()]);
        assert!(diags.iter().any(|d| d.code == "WA022"));
        // S itself is fine — and not an orphan either, because it is
        // the process's only start.
        assert!(diags
            .iter()
            .all(|d| d.element.as_deref() != Some("S") || d.code == "WA020"));
    }

    #[test]
    fn statically_dead_activity_flagged() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              ACTIVITY C PROGRAM "c" END
              CONTROL FROM A TO B WHEN "1 = 2"
              CONTROL FROM B TO C
            END
        "#,
        );
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "WA035")
            .filter_map(|d| d.element.clone())
            .collect();
        assert_eq!(dead, vec!["B".to_string(), "C".to_string()]);
        // WA031 fires on the connector too, but WA021 must not: the
        // graph shape itself is fine.
        assert!(diags.iter().any(|d| d.code == "WA031"));
        assert!(diags.iter().all(|d| d.code != "WA021"));
    }

    #[test]
    fn alternative_live_path_keeps_activity_alive() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" START OR END
              ACTIVITY C PROGRAM "c" END
              CONTROL FROM A TO B WHEN "1 = 2"
              CONTROL FROM A TO C
              CONTROL FROM C TO B WHEN "RC = 0"
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA035"), "{diags:?}");
    }
}
