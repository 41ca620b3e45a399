//! Differential tests, compiled vs. reference: on random process DAGs
//! the indexed navigator must produce exactly the event sequence of
//! [`RefEngine`], the string-keyed definition-walking interpreter kept
//! as an executable specification.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{Engine, EngineConfig, OrgModel, RefEngine};
use wfms_model::{Activity, Container, ControlConnector, Expr, ProcessDefinition, StartCondition};

/// A generated scenario: a DAG over `n` activities with edges
/// (i < j), per-activity OR/AND joins, per-activity commit/abort
/// outcomes, and (for staffed scenarios) per-activity manual-start and
/// deadline flags.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    edges: Vec<(usize, usize)>,
    or_join: Vec<bool>,
    commits: Vec<bool>,
    manual: Vec<bool>,
    deadline: Vec<bool>,
}

fn scenario_with(staffed: bool) -> impl Strategy<Value = Scenario> {
    (2usize..9).prop_flat_map(move |n| {
        let max_edges = n * (n - 1) / 2;
        let flags = if staffed {
            prop::collection::vec(any::<bool>(), n).boxed()
        } else {
            Just(vec![false; n]).boxed()
        };
        (
            prop::collection::vec((0usize..n, 0usize..n), 0..=max_edges),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), n),
            flags.clone(),
            flags,
        )
            .prop_map(move |(raw_edges, or_join, commits, manual, deadline)| {
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
                    manual,
                    deadline,
                }
            })
    })
}

/// Purely automatic scenarios, as the original generator emitted.
fn scenario() -> impl Strategy<Value = Scenario> {
    scenario_with(false)
}

/// Scenarios that may mix manual (role-assigned) and deadline-bearing
/// activities into the DAG, exercising the compiled `any_manual` /
/// `any_deadlines` paths against the oracle.
fn staffed_scenario() -> impl Strategy<Value = Scenario> {
    scenario_with(true)
}

fn build(s: &Scenario) -> ProcessDefinition {
    let mut def = ProcessDefinition::new("prop");
    for i in 0..s.n {
        let mut a = Activity::program(&format!("A{i}"), &format!("prog{i}"));
        if s.manual[i] {
            a = a.for_role("clerk");
            if s.deadline[i] {
                a = a.with_deadline(2);
            }
        }
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

/// Two clerks under one manager: work items fan out to both, and
/// deadline notifications have somewhere to go.
fn clerks() -> OrgModel {
    OrgModel::new()
        .person("boss", &["manager"])
        .person_under("ann", &["clerk"], "boss", 2)
        .person_under("bob", &["clerk"], "boss", 2)
}

/// Programs are pure functions of their scripted outcome — no shared
/// state, no attempt counters — so both engines see the same outcomes.
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

fn engine_with(s: &Scenario) -> Engine {
    let def = build(s);
    assert!(wfms_model::validate(&def).is_empty());
    let (fed, registry) = world(s);
    let engine = Engine::new(fed, registry);
    engine.register(def).unwrap();
    engine
}

fn engine_with_org(s: &Scenario) -> Engine {
    let def = build(s);
    assert!(wfms_model::validate(&def).is_empty());
    let (fed, registry) = world(s);
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org: clerks(),
            ..EngineConfig::default()
        },
    );
    engine.register(def).unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled navigator reproduces the reference interpreter's
    /// event stream exactly — same events, same order, same payloads.
    #[test]
    fn compiled_navigator_matches_reference_interpreter(s in scenario()) {
        let engine = engine_with(&s);
        let id = engine.start("prop", Container::empty()).unwrap();
        let status = engine.run_to_quiescence(id).unwrap();

        let (fed, registry) = world(&s);
        let mut reference = RefEngine::new(fed, registry);
        reference.register(build(&s));
        let rid = reference.start("prop", Container::empty());
        let ref_status = reference.run_to_quiescence(rid);

        prop_assert_eq!(status, ref_status);
        prop_assert_eq!(engine.output(id).unwrap(), reference.output(rid));
        prop_assert_eq!(engine.journal_events(), reference.events().to_vec());
    }

    /// Manual and deadline-bearing activities against the oracle: the
    /// compiled navigator's worklist offers, claims, deadline
    /// notifications and post-item navigation must reproduce
    /// [`RefEngine`]'s event stream exactly. Work is drained with a
    /// deterministic policy (lowest open item id, person alternating
    /// by id) with a clock tick per round so deadlines actually fire.
    #[test]
    fn manual_and_deadline_scenarios_match_reference(s in staffed_scenario()) {
        let engine = engine_with_org(&s);
        let id = engine.start("prop", Container::empty()).unwrap();
        engine.run_to_quiescence(id).unwrap();

        let (fed, registry) = world(&s);
        let mut reference = RefEngine::with_org(fed, registry, clerks());
        reference.register(build(&s));
        let rid = reference.start("prop", Container::empty());
        reference.run_to_quiescence(rid);

        // Both engines allocate item ids sequentially from 1, so in
        // this single-threaded differential the ids line up exactly.
        loop {
            prop_assert_eq!(engine.advance_clock(1), reference.advance_clock(1));
            prop_assert_eq!(engine.worklist("ann"), reference.worklist("ann"));
            prop_assert_eq!(engine.worklist("bob"), reference.worklist("bob"));
            let Some(item) = engine.worklist("ann").iter().map(|it| it.id).min() else {
                break;
            };
            let person = if item.0 % 2 == 0 { "bob" } else { "ann" };
            engine.execute_item(item, person).unwrap();
            reference.execute_item(item, person).unwrap();
        }

        prop_assert_eq!(engine.status(id).unwrap(), reference.status(rid));
        prop_assert_eq!(engine.output(id).unwrap(), reference.output(rid));
        prop_assert_eq!(engine.journal_events(), reference.events().to_vec());
    }
}
