//! Byte-identity regression tests for the batched journal encoder.
//!
//! The parallel scheduler merges worker shards through
//! [`Journal::append_batch`], which frames the whole batch into one
//! buffer and writes it with a single group commit. The journal file
//! format contract is that those bytes are **exactly** the frames the
//! per-event [`Journal::append`] path would have produced, in order
//! (and exactly [`Journal::file_bytes`], which the crash sweep cuts its
//! prefixes from) — frames never depend on their neighbours. These
//! tests pin that contract:
//!
//! * a golden-trace check over a nested process exercising every
//!   event family the navigator emits (blocks, reschedules, dead
//!   paths, work items, checkpoints);
//! * a property test over random acyclic processes with random
//!   commit/abort outcomes.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{Engine, EngineConfig, Event, InstanceStatus, Journal, OrgModel};
use wfms_model::{Activity, Container, ControlConnector, Expr, ProcessDefinition, StartCondition};

/// Fresh scratch directory per test (integration tests may run
/// concurrently, so the pid alone is not enough).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wfms-batch-bytes-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Mirror `events` to a file one `append` at a time and return the
/// file's bytes.
fn per_event_bytes(events: &[Event], dir: &Path) -> Vec<u8> {
    let path = dir.join("per_event.journal");
    let journal = Journal::with_file_policy(&path, DurabilityPolicy::PerEvent).unwrap();
    for e in events {
        journal.append(e.clone());
    }
    journal.flush();
    std::fs::read(&path).unwrap()
}

/// Mirror `events` to a file through one `append_batch` group commit
/// and return the file's bytes.
fn batched_bytes(events: &[Event], dir: &Path) -> Vec<u8> {
    let path = dir.join("batched.journal");
    let journal = Journal::with_file_policy(&path, DurabilityPolicy::PerEvent).unwrap();
    journal.append_batch(events.to_vec());
    journal.flush();
    std::fs::read(&path).unwrap()
}

fn assert_identical(events: Vec<Event>, dir: &Path) {
    assert!(!events.is_empty(), "workload produced no events");
    let a = per_event_bytes(&events, dir);
    let b = batched_bytes(&events, dir);
    // Compare frame by frame first so a mismatch names the event.
    for (i, event) in events.iter().enumerate() {
        let end = Journal::file_bytes(&events[..=i]).len();
        let start = Journal::file_bytes(&events[..i]).len();
        assert_eq!(
            a.get(start..end),
            b.get(start..end),
            "frame {i} diverges (event {event:?})"
        );
    }
    assert_eq!(a, b, "batched mirror bytes must equal per-event bytes");
    assert_eq!(a, Journal::file_bytes(&events));
    // And the file reads back to the events that wrote it.
    let (back, report) = Journal::read_file(&dir.join("batched.journal")).unwrap();
    assert_eq!(report.torn_tail, None);
    assert_eq!(back, events);
}

/// A nested workload touching every event family: a block with an
/// exit condition that reschedules once, a manual activity completed
/// from a worklist, a dead branch, and an engine checkpoint mid-run.
fn golden_trace_events() -> Vec<Event> {
    let mut inner = ProcessDefinition::new("inner");
    inner.activities.push(Activity::program("I1", "ok"));
    inner.activities.push(Activity::program("I2", "ok"));
    inner.control.push(ControlConnector {
        from: "I1".into(),
        to: "I2".into(),
        condition: Expr::var_eq_int("RC", 1),
    });

    let mut def = ProcessDefinition::new("golden");
    // `flaky` aborts its first attempt, so the exit condition RC = 1
    // reschedules Start once (the §3.2 retry loop).
    def.activities
        .push(Activity::program("Start", "flaky").with_exit("RC = 1"));
    def.activities.push(Activity::block("Work", inner));
    def.activities
        .push(Activity::program("Review", "ok").for_role("auditor"));
    def.activities.push(Activity::program("Dead", "ok"));
    let mut join = Activity::program("End", "ok");
    join.start = StartCondition::Or;
    def.activities.push(join);
    for (from, to, cond) in [
        ("Start", "Work", Expr::var_eq_int("RC", 1)),
        ("Start", "Dead", Expr::var_eq_int("RC", 0)),
        ("Work", "Review", Expr::var_eq_int("RC", 1)),
        ("Review", "End", Expr::var_eq_int("RC", 1)),
        ("Dead", "End", Expr::var_eq_int("RC", 1)),
    ] {
        def.control.push(ControlConnector {
            from: from.into(),
            to: to.into(),
            condition: cond,
        });
    }
    assert!(wfms_model::validate(&def).is_empty());

    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    // First attempt aborts so the block's exit condition reschedules
    // it; the retry commits.
    let attempts = std::sync::atomic::AtomicU32::new(0);
    registry.register_fn("flaky", move |_| {
        if attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
            ProgramOutcome::aborted("scripted first failure")
        } else {
            ProgramOutcome::committed()
        }
    });

    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org: OrgModel::new().person("ann", &["auditor"]),
            ..EngineConfig::default()
        },
    );
    engine.register(def).unwrap();
    let id = engine.start("golden", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    // Checkpointing compacts the journal (drops everything before the
    // snapshot), so keep the head of the trace and splice the
    // checkpoint + post-checkpoint tail onto it — byte identity is a
    // property of the event list, not of engine history.
    let mut events = engine.journal_events();
    engine.checkpoint();
    // Drain the manual Review step through the worklist path.
    let items = engine.worklist("ann");
    assert!(!items.is_empty(), "Review must be on ann's worklist");
    for item in items {
        engine.claim(item.id, "ann").unwrap();
        engine.execute_item(item.id, "ann").unwrap();
    }
    engine.run_to_quiescence(id).unwrap();
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
    events.extend(engine.journal_events());
    events
}

#[test]
fn golden_trace_batched_bytes_identical() {
    let dir = scratch("golden");
    let events = golden_trace_events();
    // The workload must actually exercise the interesting families.
    let kinds: BTreeSet<&str> = events.iter().map(kind).collect();
    for required in [
        "InstanceStarted",
        "ActivityReady",
        "ActivityStarted",
        "ActivityFinished",
        "ActivityRescheduled",
        "ActivityTerminated",
        "ConnectorEvaluated",
        "WorkItemOffered",
        "WorkItemClaimed",
        "EngineCheckpoint",
        "InstanceFinished",
    ] {
        assert!(kinds.contains(required), "trace must contain {required}");
    }
    assert_identical(events, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

fn kind(e: &Event) -> &'static str {
    match e {
        Event::InstanceStarted { .. } => "InstanceStarted",
        Event::ActivityReady { .. } => "ActivityReady",
        Event::ActivityStarted { .. } => "ActivityStarted",
        Event::ActivityFinished { .. } => "ActivityFinished",
        Event::ActivityRescheduled { .. } => "ActivityRescheduled",
        Event::ActivityTerminated { .. } => "ActivityTerminated",
        Event::ConnectorEvaluated { .. } => "ConnectorEvaluated",
        Event::WorkItemOffered { .. } => "WorkItemOffered",
        Event::WorkItemClaimed { .. } => "WorkItemClaimed",
        Event::EngineCheckpoint { .. } => "EngineCheckpoint",
        Event::InstanceFinished { .. } => "InstanceFinished",
        _ => "other",
    }
}

/// Random acyclic process: edges only from lower to higher index,
/// random OR/AND joins, random commit/abort outcomes.
#[derive(Debug, Clone)]
struct Dag {
    n: usize,
    edges: Vec<(usize, usize)>,
    or_join: Vec<bool>,
    commits: Vec<bool>,
}

fn dag() -> impl Strategy<Value = Dag> {
    (2usize..8).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        (
            prop::collection::vec((0usize..n, 0usize..n), 0..=max_edges),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(raw, or_join, commits)| {
                let mut seen = BTreeSet::new();
                let edges = raw
                    .into_iter()
                    .filter_map(|(a, b)| {
                        let (a, b) = (a.min(b), a.max(b));
                        (a != b && seen.insert((a, b))).then_some((a, b))
                    })
                    .collect();
                Dag {
                    n,
                    edges,
                    or_join,
                    commits,
                }
            })
    })
}

fn run_dag(d: &Dag) -> Vec<Event> {
    let mut def = ProcessDefinition::new("dag");
    for i in 0..d.n {
        let mut a = Activity::program(&format!("A{i}"), &format!("prog{i}"));
        if d.or_join[i] {
            a.start = StartCondition::Or;
        }
        def.activities.push(a);
    }
    for &(a, b) in &d.edges {
        def.control.push(ControlConnector {
            from: format!("A{a}"),
            to: format!("A{b}"),
            condition: Expr::var_eq_int("RC", 1),
        });
    }
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    for (i, &commit) in d.commits.iter().enumerate() {
        registry.register_fn(&format!("prog{i}"), move |_| {
            if commit {
                ProgramOutcome::committed()
            } else {
                ProgramOutcome::aborted("scripted")
            }
        });
    }
    let engine = Engine::new(fed, registry);
    engine.register(def).unwrap();
    let id = engine.start("dag", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    engine.journal_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched framing of an arbitrary journal produces the same
    /// bytes as per-event framing.
    #[test]
    fn random_dag_batched_bytes_identical(d in dag()) {
        let dir = scratch("dag");
        assert_identical(run_dag(&d), &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
