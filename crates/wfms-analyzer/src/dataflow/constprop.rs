//! `WA103`–`WA105`: graph-wide condition-value propagation.
//!
//! `WA031`–`WA035` judge each condition in isolation — they fire only
//! when an expression constant-folds with no context. This pass reads
//! the engine's own propagation
//! ([`wfms_engine::optimize::analyze_scope`]), which the analyzer runs
//! once per scope of the compiled template: completion facts (a
//! no-op's pinned `RC = 1`, an exit condition's `RC = k`) are
//! substituted into downstream transition conditions before folding,
//! deciding conditions that are dynamic in isolation. Reading the
//! engine analysis over the template the pipeline optimizes means the
//! lint reports **exactly** what the template optimizer will rewrite
//! or prune — the two can never drift apart.
//!
//! * `WA103` — a connector decided *always false* by upstream
//!   constants (warning): the condition is dead weight, and its
//!   target may be dead with it.
//! * `WA104` — a connector decided *always true* by upstream
//!   constants (note): the test is redundant; write the intent.
//! * `WA105` — an activity statically dead **under propagation**
//!   (error): every control path to it crosses a decided-false
//!   connector or a dead predecessor. Only emitted for activities the
//!   syntactic analysis (`WA021`/`WA035`) considers live, so each
//!   root cause gets exactly one code.

use crate::{Diagnostic, Lint, ProcessCtx, Severity};
use wfms_engine::compiled::CondPlan;

/// Condition-value propagation lints.
pub struct ConstPropLint;

/// Formats an activity's completion facts for a message:
/// `RC = 1 at "N"`.
fn facts_note(
    scope: &wfms_engine::CompiledScope,
    facts: &[(String, txn_substrate::Value)],
    act: u32,
) -> String {
    let pins: Vec<String> = facts.iter().map(|(n, v)| format!("{n} = {v}")).collect();
    format!("{} at {:?}", pins.join(", "), scope.acts[act as usize].name)
}

impl Lint for ConstPropLint {
    fn name(&self) -> &'static str {
        "analyze:constprop"
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        let Some(level) = ctx.level else { return };
        let (def, scope, facts) = (ctx.process, level.scope(), level.facts());

        // Decided edges. Constant plans were decided *syntactically*
        // (WA031/WA032/WA034 territory); only edges still dynamic
        // after per-expression folding needed propagation.
        for (e, edge) in scope.edges.iter().enumerate() {
            let CondPlan::Dynamic(expr) = &edge.cond else {
                continue;
            };
            let Some(verdict) = facts.edge_verdict[e] else {
                continue;
            };
            let from = &scope.acts[edge.from as usize];
            let to = &scope.acts[edge.to as usize];
            let label = format!("{} -> {}", from.name, to.name);
            let pins = facts_note(scope, &facts.completion[edge.from as usize], edge.from);
            let pos = ctx.pos_control(&from.name, &to.name);
            if verdict {
                out.push(
                    Diagnostic::new(
                        "WA104",
                        Severity::Note,
                        &ctx.path,
                        Some(label.clone()),
                        format!(
                            "condition {:?} on connector {label} is always true given \
                             upstream constants ({pins}); the test is redundant",
                            expr.to_string()
                        ),
                    )
                    .with_pos(pos),
                );
            } else {
                out.push(
                    Diagnostic::new(
                        "WA103",
                        Severity::Warning,
                        &ctx.path,
                        Some(label.clone()),
                        format!(
                            "condition {:?} on connector {label} is always false given \
                             upstream constants ({pins}); the connector can never fire",
                            expr.to_string()
                        ),
                    )
                    .with_pos(pos),
                );
            }
        }

        // Newly dead activities: dead under propagation, live
        // syntactically.
        let syn_live = crate::graph::syntactically_live(def);
        for (i, act) in scope.acts.iter().enumerate() {
            if !facts.dead[i] || !syn_live.contains(act.name.as_str()) {
                continue;
            }
            // Name the decisive frontier: a decided-false incoming
            // edge if one exists, else the dead predecessors.
            let cause = act
                .incoming
                .iter()
                .find(|&&e| facts.edge_verdict[e as usize] == Some(false))
                .map(|&e| {
                    let edge = &scope.edges[e as usize];
                    format!(
                        "connector {} -> {} is decided false by upstream constants",
                        scope.acts[edge.from as usize].name, act.name
                    )
                })
                .unwrap_or_else(|| {
                    "every incoming connector originates from a statically dead activity".to_owned()
                });
            out.push(
                Diagnostic::new(
                    "WA105",
                    Severity::Error,
                    &ctx.path,
                    Some(act.name.clone()),
                    format!(
                        "activity {:?} is statically dead under constant propagation: \
                         {cause}",
                        act.name
                    ),
                )
                .with_pos(ctx.pos_activity(&act.name)),
            );
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
    fn propagated_false_edge_and_dead_target_reported() {
        // "RC = 0" is dynamic in isolation; the exit condition pins
        // RC = 1 at A's completion, deciding it false.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" EXIT WHEN "RC = 1" END
              ACTIVITY B PROGRAM "b" END
              ACTIVITY C PROGRAM "c" END
              CONTROL FROM A TO B WHEN "RC = 1"
              CONTROL FROM A TO C WHEN "RC = 0"
            END
        "#,
        );
        let f = diags.iter().find(|d| d.code == "WA103").expect("WA103");
        assert_eq!(f.severity, Severity::Warning);
        assert!(f.message.contains("RC = 1 at \"A\""), "{:?}", f.message);
        assert!(f.pos.is_some());
        let t = diags.iter().find(|d| d.code == "WA104").expect("WA104");
        assert!(t.element.as_deref().unwrap().contains("A -> B"));
        let dead = diags.iter().find(|d| d.code == "WA105").expect("WA105");
        assert_eq!(dead.element.as_deref(), Some("C"));
        assert_eq!(dead.severity, Severity::Error);
        assert!(dead.message.contains("A -> C"), "{:?}", dead.message);
        // The syntactic lints have nothing to say here.
        assert!(diags.iter().all(|d| d.code != "WA031" && d.code != "WA035"));
    }

    #[test]
    fn noop_pins_rc_for_downstream_edges() {
        let diags = lint(
            r#"
            PROCESS p
              NOOP Gate END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM Gate TO B WHEN "RC = 1"
            END
        "#,
        );
        assert!(diags.iter().any(|d| d.code == "WA104"), "{diags:?}");
    }

    #[test]
    fn unpinned_programs_stay_silent() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              ACTIVITY C PROGRAM "c" END
              CONTROL FROM A TO B WHEN "RC = 1"
              CONTROL FROM A TO C WHEN "RC = 0"
            END
        "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn syntactically_dead_not_double_reported() {
        // "1 = 2" folds with no context: WA031 + WA035 own this, and
        // the propagation pass must not add WA103/WA105 on top.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B WHEN "1 = 2"
            END
        "#,
        );
        assert!(diags.iter().any(|d| d.code == "WA031"));
        assert!(diags.iter().any(|d| d.code == "WA035"));
        assert!(
            diags.iter().all(|d| d.code != "WA103" && d.code != "WA105"),
            "{diags:?}"
        );
    }

    #[test]
    fn transitively_dead_chain_reported_once_per_activity() {
        let diags = lint(
            r#"
            PROCESS p
              NOOP Gate END
              ACTIVITY B PROGRAM "b" END
              ACTIVITY C PROGRAM "c" END
              CONTROL FROM Gate TO B WHEN "RC = 0"
              CONTROL FROM B TO C
            END
        "#,
        );
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "WA105")
            .filter_map(|d| d.element.clone())
            .collect();
        assert_eq!(dead, vec!["B".to_string(), "C".to_string()]);
        let c = diags
            .iter()
            .find(|d| d.code == "WA105" && d.element.as_deref() == Some("C"))
            .unwrap();
        assert!(
            c.message.contains("statically dead activity"),
            "{:?}",
            c.message
        );
    }

    #[test]
    fn or_join_with_a_live_edge_stays_alive() {
        let diags = lint(
            r#"
            PROCESS p
              NOOP Gate END
              ACTIVITY A PROGRAM "a" END
              ACTIVITY J PROGRAM "j" START OR END
              CONTROL FROM Gate TO J WHEN "RC = 0"
              CONTROL FROM Gate TO A WHEN "RC = 1"
              CONTROL FROM A TO J WHEN "RC = 1"
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA105"), "{diags:?}");
        // The dead entry edge is still worth a warning.
        assert!(diags.iter().any(|d| d.code == "WA103"));
    }
}
