//! Property-based crash-point sweeps: for randomly generated process
//! DAGs, the engine must survive a crash after **every** journal event
//! — recover, resume, and land on the same statuses, outputs, journal
//! and database state as the uncrashed run (§3.3's universally
//! quantified "forward recovery is always guaranteed").
//!
//! The scenario strategy mirrors `reference_differential.rs`: a DAG
//! over `n` activities with random OR/AND joins and scripted
//! commit/abort outcomes, so dead path elimination, joins and abort
//! routing are all exercised under crash/recovery. Programs are pure
//! functions of their script — re-execution after a crash cannot
//! diverge, the property §3.3 asks workflow designers to provide.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::crashtest::{sweep, SweepConfig};
use wfms_model::{
    Activity, Container, ControlConnector, Expr, ProcessBuilder, ProcessDefinition, StartCondition,
};

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
    (2usize..7).prop_flat_map(|n| {
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

/// Programs are pure functions of their scripted outcome, so a
/// post-recovery re-execution returns exactly what the pre-crash
/// attempt did.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single instance of a random DAG: every crash point recovers,
    /// with a torn half-written event after each prefix.
    #[test]
    fn random_dag_survives_every_crash_point(s in scenario()) {
        let def = build(&s);
        prop_assert!(wfms_model::validate(&def).is_empty());
        let report = sweep(
            "prop",
            &[def],
            &[("prop".to_owned(), Container::empty())],
            &|| world(&s),
            &SweepConfig::default(),
        )
        .map_err(TestCaseError::fail)?;
        prop_assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
        prop_assert!(report.total_events > 0);
    }

    /// Several interleaved instances of the same random DAG: losing a
    /// late `InstanceStarted` must leave the other instances whole.
    #[test]
    fn random_dag_multi_instance_survives_every_crash_point(
        s in scenario(),
        m in 2usize..4,
    ) {
        let def = build(&s);
        prop_assert!(wfms_model::validate(&def).is_empty());
        let starts: Vec<_> = (0..m)
            .map(|_| ("prop".to_owned(), Container::empty()))
            .collect();
        let report = sweep(
            "prop-multi",
            &[def],
            &starts,
            &|| world(&s),
            &SweepConfig { torn_tail: false },
        )
        .map_err(TestCaseError::fail)?;
        prop_assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
    }
}

/// Deterministic smoke: a chain with an abort mid-way (dead path
/// elimination downstream) swept at every crash point, with and
/// without torn tails. Also pins the report shape the CI artifact
/// relies on.
#[test]
fn chain_with_abort_sweep_report_shape() {
    let mut b = ProcessBuilder::new("chain");
    for i in 0..5 {
        b = b.program(&format!("A{i}"), &format!("p{i}"));
        if i > 0 {
            b = b.connect_when(&format!("A{}", i - 1), &format!("A{i}"), "RC = 1");
        }
    }
    let def = b.build().unwrap();
    let make_world = || {
        let fed = MultiDatabase::new(0);
        let registry = Arc::new(ProgramRegistry::new());
        for i in 0..5 {
            registry.register_fn(&format!("p{i}"), move |_| {
                if i == 3 {
                    ProgramOutcome::aborted("scripted")
                } else {
                    ProgramOutcome::committed()
                }
            });
        }
        (fed, registry)
    };
    for torn_tail in [true, false] {
        let report = sweep(
            "chain",
            std::slice::from_ref(&def),
            &[("chain".to_owned(), Container::empty())],
            &make_world,
            &SweepConfig { torn_tail },
        )
        .unwrap();
        assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
        assert_eq!(report.passed, report.total_events + 1, "k in 0..=n");
        assert_eq!(report.failed, 0);
        let json = report.to_json();
        assert!(json.contains("\"label\":\"chain\""), "{json}");
        assert!(
            report.summary().starts_with("chain: "),
            "{}",
            report.summary()
        );
    }
}
