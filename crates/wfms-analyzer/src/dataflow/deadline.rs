//! `WA107`/`WA108`: deadline feasibility and critical-path bounds.
//!
//! A backward interval analysis on the
//! [`framework`](super::framework): the fact at each activity is the
//! interval of virtual-clock ticks from the moment it becomes ready
//! until its whole scope quiesces, assuming every manual step is
//! completed before its deadline fires. Per-activity durations:
//!
//! * automatic activities (and no-ops) take `[0, 0]` ticks — the
//!   virtual clock only advances when the driver ticks it, never
//!   during navigation;
//! * a manual activity with deadline `d` takes `[0, d]` — `d` is the
//!   last tick at which it can complete without a notification, the
//!   *notification-free completion bound*;
//! * a manual activity without a deadline takes `[0, ∞)`;
//! * a block takes its child scope's bounds, recursively.
//!
//! The lower bound of every interval is honest about the engine's
//! virtual clock: work items can be claimed and completed without
//! ticking, so the minimum critical path of any scope is 0 ticks.
//! The upper bound is the longest chain of deadline budgets — `None`
//! (unbounded) as soon as an undeadlined manual step is on the path.
//!
//! Findings:
//!
//! * `WA107` — *unmeetable deadline* (warning): a live manual
//!   activity with `DEADLINE 0`. The deadline scan notifies when
//!   `ready_since + deadline <= now`, which a zero budget satisfies
//!   at the very first scan — no schedule, however fast, avoids the
//!   notification. The message carries the enclosing scope's
//!   critical-path bounds.
//! * `WA108` — *deadline can never fire* (note): a deadline on an
//!   automatic activity (never worklisted, so never scanned) or on a
//!   statically dead activity (never becomes ready).

use super::framework::{solve, Analysis, Direction};
use crate::{Diagnostic, Level, Lint, ProcessCtx, Severity};
use wfms_engine::compiled::{ActId, CompiledScope, EdgeId};
use wfms_engine::optimize::ScopeFacts;
use wfms_model::StartCondition;

/// Deadline-feasibility lints.
pub struct DeadlineLint;

/// A tick interval; `max: None` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Fewest ticks possibly consumed.
    pub min: u64,
    /// Most ticks consumed while staying notification-free; `None`
    /// when a step without a deadline bound is on the path.
    pub max: Option<u64>,
}

impl Interval {
    /// The zero interval.
    pub const ZERO: Interval = Interval {
        min: 0,
        max: Some(0),
    };

    /// Sequential composition.
    fn add(self, other: Interval) -> Interval {
        Interval {
            min: self.min + other.min,
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }

    /// Parallel join: the slowest branch bounds the maximum; `certain`
    /// tells whether this branch is guaranteed to run and may
    /// therefore raise the minimum.
    fn join_parallel(self, other: Interval, other_certain: bool) -> Interval {
        Interval {
            min: if other_certain {
                self.min.max(other.min)
            } else {
                self.min
            },
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Renders `[min, max]` with `∞` for the unbounded case.
    pub fn render(&self) -> String {
        match self.max {
            Some(max) => format!("[{}, {}] ticks", self.min, max),
            None => format!("[{}, unbounded) ticks", self.min),
        }
    }
}

/// Duration of one activity, recursing into blocks.
fn duration(level: Level<'_>, act: ActId) -> Interval {
    let a = level.scope().act(act);
    match level.block(act) {
        Some(child) => scope_bounds(child),
        None if a.automatic => Interval::ZERO,
        None => Interval {
            min: 0,
            max: a.deadline,
        },
    }
}

/// Backward remaining-time analysis. The fact at an activity is the
/// tick interval from its readiness to scope quiescence. Contribution
/// intervals flow backward over live edges; an edge whose verdict is
/// not decidably true may contribute nothing at run time, so only
/// decidedly-firing edges raise the minimum.
struct RemainingTime<'a> {
    facts: &'a ScopeFacts,
    /// Per activity: its own [`duration`], a block's bounded once.
    durations: Vec<Interval>,
}

impl Analysis for RemainingTime<'_> {
    type Fact = Interval;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn top(&self, _: &CompiledScope) -> Interval {
        Interval::ZERO
    }

    fn boundary(&self, _: &CompiledScope, _: ActId) -> Interval {
        // A terminal activity has nothing after it; its own duration
        // is added by `transfer` like everyone else's.
        Interval::ZERO
    }

    fn edge_fact(
        &self,
        scope: &CompiledScope,
        edge: EdgeId,
        downstream: &Interval,
    ) -> Option<Interval> {
        let e = &scope.edges[edge as usize];
        if self.facts.edge_verdict[edge as usize] == Some(false) || self.facts.dead[e.to as usize] {
            return None; // the edge never starts its target
        }
        // Encode certainty in the minimum: an edge not decided true
        // may evaluate false at run time, starting nothing.
        let certain = self.facts.edge_verdict[edge as usize] == Some(true)
            && matches!(scope.acts[e.to as usize].start, StartCondition::And)
            // An AND-join also needs every *other* incoming edge true.
            && scope.acts[e.to as usize]
                .incoming
                .iter()
                .all(|&i| self.facts.edge_verdict[i as usize] == Some(true));
        Some(Interval {
            min: if certain { downstream.min } else { 0 },
            max: downstream.max,
        })
    }

    fn merge(&self, _: &CompiledScope, _: ActId, contributions: Vec<Interval>) -> Interval {
        contributions
            .into_iter()
            .fold(Interval::ZERO, |acc, c| acc.join_parallel(c, true))
    }

    fn transfer(&self, _: &CompiledScope, act: ActId, input: &Interval) -> Interval {
        self.durations[act as usize].add(*input)
    }
}

/// Critical-path bounds of one scope: ticks from instance start to
/// quiescence, notification-free. All start activities are seeded
/// ready together, so the slowest chain bounds the scope.
pub fn scope_bounds(level: Level<'_>) -> Interval {
    let (scope, facts) = (level.scope(), level.facts());
    let durations = (0..scope.acts.len() as ActId)
        .map(|act| duration(level, act))
        .collect();
    let sol = solve(&RemainingTime { facts, durations }, scope);
    if !sol.converged {
        return Interval { min: 0, max: None };
    }
    scope
        .starts
        .iter()
        .filter(|&&s| !facts.dead[s as usize])
        .map(|&s| sol.output[s as usize])
        .fold(Interval::ZERO, |acc, c| acc.join_parallel(c, true))
}

impl Lint for DeadlineLint {
    fn name(&self) -> &'static str {
        "analyze:deadline"
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        let Some(level) = ctx.level else { return };
        let (scope, facts) = (level.scope(), level.facts());
        for (i, act) in scope.acts.iter().enumerate() {
            let Some(d) = act.deadline else { continue };
            let pos = ctx.pos_activity(&act.name);
            if act.automatic {
                out.push(
                    Diagnostic::new(
                        "WA108",
                        Severity::Note,
                        &ctx.path,
                        Some(act.name.clone()),
                        format!(
                            "deadline {d} on {:?} can never fire: the activity is \
                             AUTOMATIC, so it is never worklisted and never scanned",
                            act.name
                        ),
                    )
                    .with_pos(pos),
                );
            } else if facts.dead[i] {
                out.push(
                    Diagnostic::new(
                        "WA108",
                        Severity::Note,
                        &ctx.path,
                        Some(act.name.clone()),
                        format!(
                            "deadline {d} on {:?} can never fire: the activity is \
                             statically dead and never becomes ready",
                            act.name
                        ),
                    )
                    .with_pos(pos),
                );
            } else if d == 0 {
                out.push(
                    Diagnostic::new(
                        "WA107",
                        Severity::Warning,
                        &ctx.path,
                        Some(act.name.clone()),
                        format!(
                            "deadline 0 on {:?} cannot be met by any schedule: the \
                             deadline scan notifies once ready_since + 0 <= now, i.e. \
                             at the first scan after the activity becomes ready \
                             (scope critical path: {})",
                            act.name,
                            scope_bounds(level).render()
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
    use crate::{Analyzer, Diagnostic, Severity};

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        Analyzer::new().check_process(&def, Some(&prov))
    }

    /// The root scope's bounds of an FDL process.
    fn bounds(src: &str) -> Interval {
        let (def, _) = wfms_fdl::parse_with_provenance(src).unwrap();
        let tpl = wfms_engine::CompiledProcess::compile(def);
        let facts = crate::scope_facts(&tpl);
        scope_bounds(Level {
            layout: &tpl.layout,
            facts: &facts,
            id: 0,
        })
    }

    #[test]
    fn zero_deadline_is_unmeetable() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" ROLE "clerk" DEADLINE 0 END
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA107").expect("WA107");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("critical path"), "{:?}", d.message);
        assert!(d.pos.is_some());
    }

    #[test]
    fn positive_deadline_is_feasible() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" ROLE "clerk" DEADLINE 5 END
            END
        "#,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn automatic_deadline_never_fires() {
        let diags = lint(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" DEADLINE 3 END
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA108").expect("WA108");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("AUTOMATIC"), "{:?}", d.message);
    }

    #[test]
    fn dead_activity_deadline_never_fires() {
        let diags = lint(
            r#"
            PROCESS p
              NOOP Gate END
              ACTIVITY M PROGRAM "m" ROLE "clerk" DEADLINE 4 END
              CONTROL FROM Gate TO M WHEN "RC = 0"
            END
        "#,
        );
        let d = diags.iter().find(|d| d.code == "WA108").expect("WA108");
        assert!(d.message.contains("statically dead"), "{:?}", d.message);
    }

    #[test]
    fn bounds_chain_sequential_deadlines() {
        // Two manual steps with deadlines 3 and 4 in sequence: the
        // notification-free bound is their sum; the virtual-clock
        // minimum is 0.
        let b = bounds(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" ROLE "r" DEADLINE 3 END
              ACTIVITY B PROGRAM "b" ROLE "r" DEADLINE 4 END
              CONTROL FROM A TO B
            END
        "#,
        );
        assert_eq!(
            b,
            Interval {
                min: 0,
                max: Some(7)
            }
        );
    }

    #[test]
    fn undeadlined_manual_step_unbounds_the_path() {
        let b = bounds(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" ROLE "r" DEADLINE 3 END
              ACTIVITY B PROGRAM "b" ROLE "r" END
              CONTROL FROM A TO B
            END
        "#,
        );
        assert_eq!(b.max, None);
    }

    #[test]
    fn parallel_branches_take_the_slowest() {
        let b = bounds(
            r#"
            PROCESS p
              NOOP S END
              ACTIVITY A PROGRAM "a" ROLE "r" DEADLINE 2 END
              ACTIVITY B PROGRAM "b" ROLE "r" DEADLINE 9 END
              CONTROL FROM S TO A
              CONTROL FROM S TO B
            END
        "#,
        );
        assert_eq!(b.max, Some(9));
    }

    #[test]
    fn automatic_chain_is_zero_ticks() {
        let b = bounds(
            r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B
            END
        "#,
        );
        assert_eq!(b, Interval::ZERO);
    }

    #[test]
    fn dead_branch_excluded_from_bounds() {
        // The undeadlined manual step is statically dead: it cannot
        // unbound the critical path.
        let b = bounds(
            r#"
            PROCESS p
              NOOP Gate END
              ACTIVITY M PROGRAM "m" ROLE "r" END
              ACTIVITY L PROGRAM "l" ROLE "r" DEADLINE 6 END
              CONTROL FROM Gate TO M WHEN "RC = 0"
              CONTROL FROM Gate TO L WHEN "RC = 1"
            END
        "#,
        );
        assert_eq!(b.max, Some(6));
    }

    #[test]
    fn a_block_takes_its_child_scopes_bounds() {
        let b = bounds(
            r#"
            PROCESS p
              BLOCK B
                ACTIVITY X PROGRAM "x" ROLE "r" DEADLINE 3 END
                ACTIVITY Y PROGRAM "y" ROLE "r" DEADLINE 2 END
                CONTROL FROM X TO Y
              END
              ACTIVITY A PROGRAM "a" ROLE "r" DEADLINE 4 END
              CONTROL FROM B TO A
            END
        "#,
        );
        assert_eq!(b.max, Some(9));
    }
}
