//! `WA031`–`WA034`: condition analysis via constant folding.
//!
//! Uses [`wfms_model::Expr::const_fold`] to find conditions whose
//! outcome is fixed before the workflow ever runs:
//!
//! * `WA031` — a control connector whose condition is always `FALSE`;
//!   the connector can never fire (warning — the target may still be
//!   reachable another way; if not, the graph lint escalates with
//!   `WA035`).
//! * `WA032` — a condition that is always `TRUE` but is not the
//!   literal unconditional `TRUE` (note: write the intent, drop the
//!   redundant test).
//! * `WA033` — an exit condition that can never be satisfied, either
//!   always `FALSE` or guaranteed to fail evaluation: the engine
//!   reschedules the activity forever (error).
//! * `WA034` — a connector condition guaranteed to fail evaluation
//!   (`1 / 0 = 1`): the engine treats it as false with an audit
//!   warning on every navigation step (warning).

use crate::{Diagnostic, Lint, ProcessCtx, Severity};
use txn_substrate::Value;
use wfms_model::Expr;

/// Constant-foldable condition lints.
pub struct ConditionLint;

impl Lint for ConditionLint {
    fn name(&self) -> &'static str {
        "analyze:conditions"
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        let def = ctx.process;
        for c in &def.control {
            // The canonical unconditional connector is fine.
            if c.condition == Expr::truth() {
                continue;
            }
            let label = format!("{} -> {}", c.from, c.to);
            let pos = ctx.pos_control(&c.from, &c.to);
            match c.condition.const_value() {
                Some(Value::Bool(false)) => out.push(
                    Diagnostic::new(
                        "WA031",
                        Severity::Warning,
                        &ctx.path,
                        Some(label.clone()),
                        format!(
                            "condition {:?} on connector {label} is always false; \
                             the connector can never fire",
                            c.condition.to_string()
                        ),
                    )
                    .with_pos(pos),
                ),
                Some(Value::Bool(true)) => out.push(
                    Diagnostic::new(
                        "WA032",
                        Severity::Note,
                        &ctx.path,
                        Some(label.clone()),
                        format!(
                            "condition {:?} on connector {label} is always true; \
                             the connector is unconditional",
                            c.condition.to_string()
                        ),
                    )
                    .with_pos(pos),
                ),
                _ => {
                    if let Some(err) = c.condition.const_error() {
                        out.push(
                            Diagnostic::new(
                                "WA034",
                                Severity::Warning,
                                &ctx.path,
                                Some(label.clone()),
                                format!(
                                    "condition {:?} on connector {label} always fails to \
                                     evaluate ({err}); the engine treats it as false",
                                    c.condition.to_string()
                                ),
                            )
                            .with_pos(pos),
                        );
                    }
                }
            }
        }
        for a in &def.activities {
            let Some(expr) = &a.exit.expr else { continue };
            if *expr == Expr::truth() {
                continue;
            }
            let pos = ctx.pos_activity(&a.name);
            let never = match expr.const_value() {
                Some(Value::Bool(false)) => Some("is always false".to_owned()),
                Some(Value::Bool(true)) => {
                    out.push(
                        Diagnostic::new(
                            "WA032",
                            Severity::Note,
                            &ctx.path,
                            Some(a.name.clone()),
                            format!(
                                "exit condition {:?} of {:?} is always true; the \
                                 activity exits after its first execution anyway",
                                expr.to_string(),
                                a.name
                            ),
                        )
                        .with_pos(pos),
                    );
                    None
                }
                _ => expr
                    .const_error()
                    .map(|err| format!("always fails to evaluate ({err})")),
            };
            if let Some(reason) = never {
                out.push(
                    Diagnostic::new(
                        "WA033",
                        Severity::Error,
                        &ctx.path,
                        Some(a.name.clone()),
                        format!(
                            "exit condition {:?} of {:?} {reason}: the engine would \
                             reschedule the activity forever",
                            expr.to_string(),
                            a.name
                        ),
                    )
                    .with_pos(pos),
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
    fn always_false_connector_warned_at_its_line() {
        let src = "PROCESS p\n  ACTIVITY A PROGRAM \"a\" END\n  ACTIVITY B PROGRAM \"b\" END\n  CONTROL FROM A TO B WHEN \"1 = 2\"\nEND";
        let diags = lint(src);
        let d = diags.iter().find(|d| d.code == "WA031").expect("WA031");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.pos.map(|p| p.line), Some(4));
        // ... and B is consequently statically dead.
        assert!(diags.iter().any(|d| d.code == "WA035"));
    }

    #[test]
    fn always_true_guard_noted() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B WHEN "1 = 1 OR RC = 9"
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA032").expect("WA032");
        assert_eq!(d.severity, Severity::Note);
        assert_eq!(diags.len(), 1, "note only: {diags:?}");
    }

    #[test]
    fn plain_unconditional_connector_not_noted() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B
            END
        "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn always_false_exit_is_an_error() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" EXIT WHEN "1 = 2" END
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA033").expect("WA033");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.element.as_deref(), Some("A"));
    }

    #[test]
    fn guaranteed_eval_error_flagged() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              ACTIVITY C PROGRAM "c" END
              CONTROL FROM A TO B WHEN "1 / 0 = 1"
              CONTROL FROM A TO C
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA034").expect("WA034");
        assert!(d.message.contains("division by zero"), "{:?}", d.message);
        // The erroring edge is dead, so B is statically dead too.
        assert!(diags.iter().any(|d| d.code == "WA035"));
    }

    #[test]
    fn exit_with_eval_error_is_an_error() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" EXIT WHEN "1 / 0 = 1" END
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA033").expect("WA033");
        assert!(d.message.contains("fails to evaluate"), "{:?}", d.message);
    }

    #[test]
    fn data_dependent_conditions_untouched() {
        // "RC > 0" admits several return codes, so the exit pins no
        // completion fact and neither the syntactic lints nor the
        // propagation pass (WA103–WA105) can decide the transition.
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" EXIT WHEN "RC > 0" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B WHEN "RC = 0"
            END
        "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
