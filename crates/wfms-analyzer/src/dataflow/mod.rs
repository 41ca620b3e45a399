//! Dataflow analyses: the schema-level def-use lints (`WA041`–`WA043`)
//! and the fixpoint-based semantic passes (`WA101`–`WA108`).
//!
//! The submodules form the analysis engine:
//!
//! * [`framework`] — a generic monotone fixpoint solver
//!   (forward/backward) over the CSR adjacency of a compiled scope;
//! * [`liveness`] — container def-use over *feasible paths*
//!   (`WA101`/`WA102`), a forward must-completed analysis;
//! * [`constprop`] — graph-wide condition-value propagation
//!   (`WA103`–`WA105`), reading the engine's own
//!   [`wfms_engine::optimize::analyze_scope`] so the lint reports
//!   exactly what the template optimizer acts on;
//! * [`compensation`] — compensation-soundness over saga/flexible
//!   specifications (`WA106`) with concrete witness paths;
//! * [`deadline`] — deadline feasibility and per-scope critical-path
//!   bounds (`WA107`/`WA108`), a backward interval analysis.
//!
//! The fixpoint passes share one compiled template: the analyzer
//! validates the definition once, compiles it once when that finds
//! nothing (or takes the template the pipeline compiled), and computes
//! each scope's [`ScopeFacts`](wfms_engine::optimize::ScopeFacts) once.
//! Each level hands its passes that scope and its facts
//! ([`ProcessCtx::level`](crate::ProcessCtx::level)), and a block's
//! level is the child scope of the same template.
//!
//! This module itself keeps the original schema-level lints. Data
//! flows between containers only along data connectors, so def-use is
//! fully static:
//!
//! * `WA041` — *read before write*: an activity input member that no
//!   data connector writes and that has no `DEFAULT`. The activity
//!   would read an unset member at run time (error).
//! * `WA042` — *overwritten write*: the same sink member is written
//!   more than once **from the same source endpoint**; later writes
//!   silently win (warning). Writes from *different* sources merging
//!   into one member are deliberate workflow idiom — the flexible
//!   transaction translation merges every path's `RC` into one
//!   `Committed` output — and are not flagged.
//! * `WA043` — *dead write*: a declared activity output member
//!   (other than the implicit `RC`) that nothing reads: no data
//!   connector maps from it and no outgoing control connector or exit
//!   condition references it (warning).

pub mod compensation;
pub mod constprop;
pub mod deadline;
pub mod framework;
pub mod liveness;

pub use constprop::ConstPropLint;
pub use deadline::DeadlineLint;
pub use liveness::LivenessLint;

use crate::{Diagnostic, Lint, ProcessCtx, Severity};
use std::collections::{BTreeMap, BTreeSet};
use wfms_model::{DataEndpoint, RC_MEMBER};

/// Container def-use lints.
pub struct DataFlowLint;

impl Lint for DataFlowLint {
    fn name(&self) -> &'static str {
        "analyze:dataflow"
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        let def = ctx.process;

        // Writes into activity-input members: (activity, member).
        let mut written: BTreeSet<(&str, &str)> = BTreeSet::new();
        // Write multiplicity per (sink label, member, source endpoint).
        let mut write_counts: BTreeMap<(String, &str, String), (usize, String)> = BTreeMap::new();
        for d in &def.data {
            let label = format!("{} => {}", d.from, d.to);
            for m in &d.mappings {
                if let DataEndpoint::ActivityInput(a) = &d.to {
                    written.insert((a.as_str(), m.to_member.as_str()));
                }
                let entry = write_counts
                    .entry((d.to.to_string(), m.to_member.as_str(), d.from.to_string()))
                    .or_insert((0, label.clone()));
                entry.0 += 1;
            }
        }

        // WA041: unwritten, default-less input members.
        for a in &def.activities {
            for m in &a.input.members {
                if m.default.is_some() || written.contains(&(a.name.as_str(), m.name.as_str())) {
                    continue;
                }
                out.push(
                    Diagnostic::new(
                        "WA041",
                        Severity::Error,
                        &ctx.path,
                        Some(a.name.clone()),
                        format!(
                            "activity {:?} reads input member {:?}, but no data \
                             connector writes it and it has no DEFAULT",
                            a.name, m.name
                        ),
                    )
                    .with_pos(ctx.pos_activity(&a.name)),
                );
            }
        }

        // WA042: repeated writes from one source endpoint.
        for ((sink, member, source), (count, label)) in &write_counts {
            if *count > 1 {
                out.push(
                    Diagnostic::new(
                        "WA042",
                        Severity::Warning,
                        &ctx.path,
                        Some(label.clone()),
                        format!(
                            "member {member:?} of {sink} is written {count} times from \
                             {source}; later writes overwrite earlier ones"
                        ),
                    )
                    .with_pos(ctx.pos_data(label)),
                );
            }
        }

        // Reads of activity-output members.
        let mut read: BTreeSet<(&str, &str)> = BTreeSet::new();
        for d in &def.data {
            if let DataEndpoint::ActivityOutput(a) = &d.from {
                for m in &d.mappings {
                    read.insert((a.as_str(), m.from_member.as_str()));
                }
            }
        }
        let mut condition_vars: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for c in &def.control {
            condition_vars
                .entry(c.from.as_str())
                .or_default()
                .extend(c.condition.variables());
        }
        for a in &def.activities {
            if let Some(expr) = &a.exit.expr {
                condition_vars
                    .entry(a.name.as_str())
                    .or_default()
                    .extend(expr.variables());
            }
        }

        // WA043: declared outputs nothing consumes.
        for a in &def.activities {
            for m in &a.output.members {
                if m.name == RC_MEMBER {
                    continue; // implicit protocol member
                }
                let in_data = read.contains(&(a.name.as_str(), m.name.as_str()));
                let in_conditions = condition_vars
                    .get(a.name.as_str())
                    .is_some_and(|vars| vars.contains(&m.name));
                if !in_data && !in_conditions {
                    out.push(
                        Diagnostic::new(
                            "WA043",
                            Severity::Warning,
                            &ctx.path,
                            Some(a.name.clone()),
                            format!(
                                "output member {:?} of {:?} is never read by any data \
                                 connector or condition (dead write)",
                                m.name, a.name
                            ),
                        )
                        .with_pos(ctx.pos_activity(&a.name)),
                    );
                }
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
    fn read_before_write_is_an_error() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" INPUT ( amount: INT ) END
              CONTROL FROM A TO B
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA041").expect("WA041");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.element.as_deref(), Some("B"));
        assert!(d.message.contains("amount"));
        assert!(d.pos.is_some());
    }

    #[test]
    fn default_satisfies_read() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" INPUT ( amount: INT DEFAULT 10 ) END
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA041"), "{diags:?}");
    }

    #[test]
    fn mapped_input_satisfies_read() {
        let diags = lint(
            r#"
            PROCESS p
              INPUT ( budget: INT )
              ACTIVITY A PROGRAM "a" INPUT ( amount: INT ) END
              DATA FROM PROCESS.INPUT TO A.INPUT MAP budget -> amount
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA041"), "{diags:?}");
    }

    #[test]
    fn repeated_same_source_write_warned() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" OUTPUT ( x: INT, y: INT ) END
              ACTIVITY B PROGRAM "b" INPUT ( v: INT ) END
              CONTROL FROM A TO B
              DATA FROM A.OUTPUT TO B.INPUT MAP x -> v, y -> v
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA042").expect("WA042");
        assert!(d.message.contains("written 2 times"), "{:?}", d.message);
        assert!(d.pos.is_some());
    }

    #[test]
    fn distinct_source_merge_not_flagged() {
        // The flexible-transaction translation merges both paths' RC
        // into one Committed member — different sources, intended.
        let diags = lint(
            r#"
            PROCESS p
              OUTPUT ( Committed: INT )
              ACTIVITY A PROGRAM "a" OUTPUT ( RC: INT ) START OR END
              ACTIVITY B PROGRAM "b" OUTPUT ( RC: INT ) START OR END
              ACTIVITY S PROGRAM "s" END
              CONTROL FROM S TO A WHEN "RC = 0"
              CONTROL FROM S TO B WHEN "RC = 1"
              DATA FROM A.OUTPUT TO PROCESS.OUTPUT MAP RC -> Committed
              DATA FROM B.OUTPUT TO PROCESS.OUTPUT MAP RC -> Committed
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA042"), "{diags:?}");
    }

    #[test]
    fn dead_write_warned_but_rc_exempt() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" OUTPUT ( RC: INT, price: INT ) END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B WHEN "RC = 0"
            END
        "#,
        );
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "WA043").collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert!(dead[0].message.contains("price"));
    }

    #[test]
    fn condition_reads_count_as_uses() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" OUTPUT ( price: INT ) EXIT WHEN "price > 0" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B WHEN "price > 10"
            END
        "#,
        );
        assert!(diags.iter().all(|d| d.code != "WA043"), "{diags:?}");
    }
}
