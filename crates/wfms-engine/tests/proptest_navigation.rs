//! Property-based tests of the navigator over random acyclic
//! processes with random program outcomes:
//!
//! * every instance reaches `Finished` with every activity terminated;
//! * executed + eliminated = total activities; nothing runs twice;
//! * AND/OR start-condition semantics hold for every executed or
//!   eliminated activity;
//! * navigation is deterministic (identical journals for identical
//!   worlds);
//! * crash–recovery at any step converges to the uninterrupted
//!   outcome;
//! * the journal is what the engine derives from the start and the
//!   program outcomes alone (the re-navigation oracle);
//! * reopening the journal as a group commit wrote it, which elides a
//!   finished instance's events between its start and its finish, and
//!   a frame per event, which elides nothing, gives the same state.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{
    audit, crashtest, recover_from, ActState, Engine, Event, InstanceId, InstanceStatus, Journal,
    OrgModel,
};
use wfms_model::{Activity, Container, ControlConnector, Expr, ProcessDefinition, StartCondition};

#[path = "../../../tests/support/renavigate.rs"]
mod renavigate;

/// A generated scenario: a DAG over `n` activities with edges
/// (i < j), per-activity OR/AND joins and per-activity commit/abort
/// outcomes.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    edges: Vec<(usize, usize)>,
    or_join: Vec<bool>,
    commits: Vec<bool>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..9).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        (
            prop::collection::vec((0usize..n, 0usize..n), 0..=max_edges),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(raw_edges, or_join, commits)| {
                let mut seen = BTreeSet::new();
                let edges = raw_edges
                    .into_iter()
                    .filter_map(|(a, b)| {
                        let (a, b) = (a.min(b), a.max(b));
                        (a != b && seen.insert((a, b))).then_some((a, b))
                    })
                    .collect();
                Scenario {
                    n,
                    edges,
                    or_join,
                    commits,
                }
            })
    })
}

fn build(s: &Scenario) -> ProcessDefinition {
    let mut def = ProcessDefinition::new("prop");
    for i in 0..s.n {
        let mut a = Activity::program(&format!("A{i}"), &format!("prog{i}"));
        if s.or_join[i] {
            a.start = StartCondition::Or;
        }
        def.activities.push(a);
    }
    for &(a, b) in &s.edges {
        def.control.push(ControlConnector {
            from: format!("A{a}"),
            to: format!("A{b}"),
            condition: Expr::var_eq_int("RC", 1),
        });
    }
    def
}

fn world(s: &Scenario) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    for (i, &commit) in s.commits.iter().enumerate() {
        registry.register_fn(&format!("prog{i}"), move |_| {
            if commit {
                ProgramOutcome::committed()
            } else {
                ProgramOutcome::aborted("scripted")
            }
        });
    }
    (fed, registry)
}

/// Final `(executed, state)` per activity.
fn final_states(engine: &Engine, s: &Scenario) -> BTreeMap<String, (ActState, bool)> {
    (0..s.n)
        .map(|i| {
            let name = format!("A{i}");
            let (state, executed, _) = engine
                .activity_state(InstanceId(1), &name)
                .expect("activity exists");
            (name, (state, executed))
        })
        .collect()
}

fn run(s: &Scenario) -> (Engine, Vec<Event>) {
    let def = build(s);
    assert!(wfms_model::validate(&def).is_empty());
    let (fed, registry) = world(s);
    let engine = Engine::new(fed, registry);
    engine.register(def).unwrap();
    let id = engine.start("prop", Container::empty()).unwrap();
    let status = engine.run_to_quiescence(id).unwrap();
    assert_eq!(status, InstanceStatus::Finished);
    let events = engine.journal_events();
    (engine, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Completion + conservation: everything terminates exactly once,
    /// split between executed and eliminated.
    #[test]
    fn every_activity_terminates_exactly_once(s in scenario()) {
        let (engine, events) = run(&s);
        let summary = audit::summarize(&events, InstanceId(1));
        prop_assert_eq!(summary.completed + summary.eliminated, s.n as u64);
        // Without exit conditions nothing runs twice.
        for (_, count) in audit::executions_by_activity(&events, InstanceId(1)) {
            prop_assert_eq!(count, 1);
        }
        let states = final_states(&engine, &s);
        prop_assert!(states.values().all(|(st, _)| *st == ActState::Terminated));
    }

    /// Join semantics: an executed activity's incoming connectors
    /// satisfy its start condition; an eliminated one's refute it.
    #[test]
    fn start_condition_semantics(s in scenario()) {
        let (engine, events) = run(&s);
        let states = final_states(&engine, &s);
        // Reconstruct connector values from the journal.
        let mut conn: BTreeMap<(String, String), bool> = BTreeMap::new();
        let mut evaluations = 0;
        for e in &events {
            if let Event::ConnectorEvaluated { from, to, value, .. } = e {
                conn.insert((from.to_string(), to.to_string()), *value);
                evaluations += 1;
            }
        }
        for i in 0..s.n {
            let name = format!("A{i}");
            let (_, executed) = states[&name];
            if !s.edges.iter().any(|&(_, b)| b == i) {
                prop_assert!(executed, "start activities always run");
                continue;
            }
            // A join decides on the connectors evaluated when it did:
            // one left unevaluated leads into an activity already
            // decided.
            let incoming: Vec<bool> = s
                .edges
                .iter()
                .filter(|&&(_, b)| b == i)
                .filter_map(|&(a, _)| conn.get(&(format!("A{a}"), name.clone())).copied())
                .collect();
            let expected = if s.or_join[i] {
                incoming.iter().any(|&v| v)
            } else {
                incoming.iter().all(|&v| v)
            };
            prop_assert_eq!(
                executed, expected,
                "activity {} or_join={} incoming={:?}", name, s.or_join[i], incoming
            );
        }
        // Every connector is evaluated at most once — all of them,
        // unless the cascade of an earlier one finished the instance
        // first: nothing is journalled after `InstanceFinished`.
        prop_assert_eq!(evaluations, conn.len());
        prop_assert!(conn.len() <= s.edges.len());
        let finish = events
            .iter()
            .position(|e| matches!(e, Event::InstanceFinished { .. }));
        prop_assert_eq!(finish, Some(events.len() - 1));
    }

    /// Determinism: two identical worlds produce identical journals.
    #[test]
    fn navigation_is_deterministic(s in scenario()) {
        let (_, ev1) = run(&s);
        let (_, ev2) = run(&s);
        prop_assert_eq!(ev1, ev2);
    }

    /// Re-navigation: a fresh engine with no programs, each dispatch
    /// answered with the outcome the run journalled, journals the run
    /// again.
    #[test]
    fn journals_renavigate(s in scenario()) {
        let (_, events) = run(&s);
        let fresh = Engine::new(MultiDatabase::new(0), Arc::new(ProgramRegistry::new()));
        fresh.register(build(&s)).unwrap();
        renavigate::renavigate(&fresh, &events).assert_counts(1, 0, 0);
    }

    /// Reopening the journal, written as one group commit, holds the
    /// state reopening it a frame per event holds: the instance's
    /// frame holds its whole life, so only its start and its finish
    /// are applied.
    #[test]
    fn journals_reopen_the_same_both_ways(s in scenario()) {
        let (_, events) = run(&s);
        let path = std::env::temp_dir().join(format!(
            "wfms-prop-both-ways-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        crashtest::write_grouped(&path, &events).unwrap();
        let world = || world(&s);
        let both = crashtest::reopen_both_ways(&path, &[build(&s)], &OrgModel::new(), &world);
        let _ = std::fs::remove_file(&path);
        let replayed = both.map_err(TestCaseError::fail)?;
        prop_assert_eq!(replayed.read, events.len() as u64);
        prop_assert_eq!(replayed.applied, 2);
    }

    /// Crash–recovery convergence: crashing after `k` navigation
    /// steps and recovering yields the same final states as the
    /// uninterrupted run.
    #[test]
    fn crash_recovery_converges(s in scenario(), k in 0usize..12) {
        let (engine, _) = run(&s);
        let reference = final_states(&engine, &s);

        let def = build(&s);
        let (fed, registry) = world(&s);
        let engine2 = Engine::new(Arc::clone(&fed), Arc::clone(&registry));
        engine2.register(def.clone()).unwrap();
        let id = engine2.start("prop", Container::empty()).unwrap();
        for _ in 0..k {
            if !engine2.step(id).unwrap() {
                break;
            }
        }
        let events = engine2.journal_events();
        engine2.crash();

        let recovered = recover_from(
            Journal::new(),
            events,
            vec![def],
            OrgModel::new(),
            fed,
            registry,
        ).unwrap();
        let status = recovered.run_to_quiescence(id).unwrap();
        prop_assert_eq!(status, InstanceStatus::Finished);
        let after = final_states(&recovered, &s);
        prop_assert_eq!(after, reference);
    }
}
