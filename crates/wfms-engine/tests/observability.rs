//! The engine observability layer end to end: metrics snapshots on
//! observed and unobserved engines, counter semantics (executions,
//! retries, dead paths, work items, notifications), journal probes —
//! and the invariant everything else depends on: the journal is
//! **byte-for-byte identical** with observability enabled.

use std::sync::Arc;
use txn_substrate::{KvProgram, MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::metrics::ACT_LATENCY_FAMILY;
use wfms_engine::{recover, Engine, EngineConfig, InstanceStatus, OrgModel};
use wfms_model::{Activity, Container, ProcessBuilder, ProcessDefinition};
use wfms_observe::{HistogramSnapshot, Observer, Snapshot, Value};

/// The latency summary of the activity at `path`.
fn activity(m: &Snapshot, path: &str) -> HistogramSnapshot {
    match m
        .family(ACT_LATENCY_FAMILY)
        .find(|(label, _)| *label == path)
    {
        Some((_, Value::Summary(s))) => s,
        other => panic!("no latency summary of {path}: {other:?}"),
    }
}

/// The level `name` — what the engine samples.
fn level(m: &Snapshot, name: &str) -> u64 {
    m.gauge(name).unwrap_or_else(|| panic!("no gauge {name}")) as u64
}

/// The series `name` of every database: `(database, reading)`.
fn per_db<'a>(m: &'a Snapshot, name: &'a str) -> Vec<(&'a str, Value)> {
    m.family(name).collect()
}

fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register(Arc::new(KvProgram::write("mark_a", "db", "a", 1i64)));
    registry.register(Arc::new(KvProgram::write("mark_b", "db", "b", 1i64)));
    (fed, registry)
}

/// A → (B | C): B runs when RC = 1, C is dead-path-eliminated.
fn branching() -> ProcessDefinition {
    ProcessBuilder::new("branch")
        .program("A", "mark_a")
        .program("B", "mark_b")
        .program("C", "mark_b")
        .connect_when("A", "B", "RC = 1")
        .connect_when("A", "C", "RC = 2")
        .build()
        .unwrap()
}

fn observed_engine(
    fed: Arc<MultiDatabase>,
    registry: Arc<ProgramRegistry>,
    org: OrgModel,
) -> Engine {
    Engine::with_config(
        fed,
        registry,
        EngineConfig {
            org,
            observer: Some(Arc::new(Observer::enabled())),
            ..EngineConfig::default()
        },
    )
}

#[test]
fn metrics_snapshot_has_latency_counters_and_federation() {
    let (fed, registry) = world();
    let engine = observed_engine(Arc::clone(&fed), registry, OrgModel::new());
    engine.register(branching()).unwrap();
    for _ in 0..3 {
        let id = engine.start("branch", Container::empty()).unwrap();
        assert_eq!(
            engine.run_to_quiescence(id).unwrap(),
            InstanceStatus::Finished
        );
    }

    let m = engine.metrics();
    assert_eq!(level(&m, "engine.instances_finished"), 3);
    assert_eq!(level(&m, "engine.instances_running"), 0);

    // Per-activity latency: A and B executed three times each; C never
    // ran (dead path), so its histogram is registered but empty.
    assert_eq!(activity(&m, "A").count, 3);
    assert_eq!(activity(&m, "B").count, 3);
    assert_eq!(activity(&m, "C").count, 0);
    assert!(activity(&m, "A").max > 0, "a real duration was recorded");
    assert!(activity(&m, "A").p50 <= activity(&m, "A").p99);

    // Navigator counters.
    assert_eq!(m.counter("nav.executions"), Some(6), "A and B, three runs");
    assert_eq!(m.counter("nav.dead_paths"), Some(3), "C eliminated per run");
    assert_eq!(m.counter("nav.retries"), Some(0));
    assert!(m.gauge("engine.ready_heap_depth").unwrap() >= 1);

    // Journal probes: every event of every run went through append.
    let events = level(&m, "journal.events");
    assert_eq!(
        m.counter("journal.appends"),
        Some(events),
        "append counter matches the journal length"
    );
    // Append latency is sampled 1-in-16 (the first append always
    // samples), so the histogram holds a subset of the appends.
    let sampled = m.summary("journal.append_ns").unwrap().count;
    assert!(sampled >= 1 && sampled <= events);
    assert_eq!(sampled, events.div_ceil(16));

    // Federation statistics come straight from the substrate: one
    // database, `db`.
    assert_eq!(per_db(&m, "db.txns_committed"), [("db", Value::Counter(6))]);
    assert_eq!(per_db(&m, "db.writes"), [("db", Value::Counter(6))]);
    let appends = per_db(&m, "db.wal_appends");
    assert!(matches!(appends[..], [("db", Value::Counter(n))] if n > 0));
}

#[test]
fn unobserved_engine_still_reports_cold_metrics() {
    let (fed, registry) = world();
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(branching()).unwrap();
    let id = engine.start("branch", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();

    let m = engine.metrics();
    assert_eq!(level(&m, "engine.instances_finished"), 1);
    let mut activities = m.family(ACT_LATENCY_FAMILY);
    assert!(activities.next().is_none(), "no probes without an observer");
    assert_eq!(m.counter("nav.executions"), Some(0), "hot hooks gated off");
    assert_eq!(
        per_db(&m, "db.txns_committed"),
        [("db", Value::Counter(2))],
        "substrate still counts"
    );
    assert!(level(&m, "journal.events") > 0);
}

#[test]
fn retries_and_reschedules_count_exit_condition_loops() {
    let (fed, _) = world();
    let registry = Arc::new(ProgramRegistry::new());
    // Commits rc = attempt + 1: the exit condition "RC >= 2" fails once.
    registry.register_fn("flaky", |ctx| ProgramOutcome::Committed {
        rc: i64::from(ctx.attempt) + 1,
        outputs: Default::default(),
    });
    let def = ProcessBuilder::new("loopy")
        .activity(Activity::program("F", "flaky").with_exit("RC >= 2"))
        .build()
        .unwrap();
    let engine = observed_engine(fed, registry, OrgModel::new());
    engine.register(def).unwrap();
    let id = engine.start("loopy", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );

    let m = engine.metrics();
    assert_eq!(m.counter("nav.executions"), Some(2), "attempt 0 and 1");
    assert_eq!(m.counter("nav.reschedules"), Some(1));
    assert_eq!(m.counter("nav.retries"), Some(1));
    assert_eq!(activity(&m, "F").count, 2, "both attempts timed");
}

#[test]
fn worklist_and_notification_counters() {
    let (fed, registry) = world();
    let org =
        OrgModel::new()
            .person("boss", &["manager"])
            .person_under("ann", &["clerk"], "boss", 2);
    let def = ProcessBuilder::new("m")
        .activity(
            Activity::program("M", "mark_a")
                .for_role("clerk")
                .with_deadline(5),
        )
        .build()
        .unwrap();
    let engine = observed_engine(fed, registry, org);
    engine.register(def).unwrap();
    let id = engine.start("m", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();

    let m = engine.metrics();
    assert_eq!(m.counter("worklist.items_offered"), Some(1));
    assert_eq!(level(&m, "worklist.items_open"), 1);
    assert_eq!(m.counter("nav.notifications"), Some(0));

    // Blow the deadline: ann's manager is notified.
    engine.advance_clock(10);
    let m = engine.metrics();
    assert_eq!(m.counter("nav.notifications"), Some(1));

    let item = engine.worklist("ann")[0].id;
    engine.execute_item(item, "ann").unwrap();
    let m = engine.metrics();
    assert_eq!(level(&m, "worklist.items_open"), 0);
    assert_eq!(level(&m, "worklist.items_closed"), 1);
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
}

/// The load-bearing invariant: enabling observability changes *no*
/// journal bytes. Hooks never append events and never advance the
/// clock, so the golden appendix traces hold with metrics on.
#[test]
fn journal_is_byte_identical_with_observability_enabled() {
    let run = |observer: Option<Arc<Observer>>| -> Vec<String> {
        let (fed, registry) = world();
        let engine = Engine::with_config(
            fed,
            registry,
            EngineConfig {
                observer,
                ..EngineConfig::default()
            },
        );
        engine.register(branching()).unwrap();
        for _ in 0..3 {
            let id = engine.start("branch", Container::empty()).unwrap();
            engine.run_to_quiescence(id).unwrap();
        }
        engine
            .journal_events()
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect()
    };
    let plain = run(None);
    let observed = run(Some(Arc::new(Observer::enabled())));
    assert_eq!(
        plain, observed,
        "observability must not perturb the journal"
    );
}

/// Every instance of a template records into the template's one set of
/// probes, and `run_all` journals event by event.
#[test]
fn run_all_records_into_shared_instruments() {
    let (fed, registry) = world();
    let engine = observed_engine(fed, registry, OrgModel::new());
    engine.register(branching()).unwrap();
    for _ in 0..16 {
        engine.start("branch", Container::empty()).unwrap();
    }
    engine.run_all().unwrap();

    let m = engine.metrics();
    assert_eq!(level(&m, "engine.instances_finished"), 16);
    assert_eq!(m.counter("nav.executions"), Some(32));
    assert_eq!(activity(&m, "A").count, 16);
    assert_eq!(
        m.counter("journal.appends"),
        Some(engine.journal_events().len() as u64)
    );
    let batches = m.summary("journal.batch_size").unwrap();
    assert_eq!(batches.count, 0, "no batching");
}

#[test]
fn exposition_formats_render_the_snapshot() {
    let (fed, registry) = world();
    let engine = observed_engine(fed, registry, OrgModel::new());
    engine.register(branching()).unwrap();
    let id = engine.start("branch", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let m = engine.metrics();

    // The JSON is the series list: a name, a label if any, a reading.
    let json = serde_json::to_string(&m).unwrap();
    for series in [
        r#"{"name":"engine.instances_finished","value":{"Gauge":1}}"#,
        r#"{"name":"engine.act_latency_ns","label":["label","A"],"value":{"Summary":{"count":1,"#,
        r#"{"name":"db.txns_committed","label":["db","db"],"value":{"Counter":2}}"#,
    ] {
        assert!(json.contains(series), "no {series} in {json}");
    }

    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE nav_executions counter"));
    assert!(prom.contains("nav_executions 2"));
    assert!(prom.contains("engine_instances_finished 1"));
    assert!(prom.contains("engine_act_latency_ns{label=\"A\",quantile=\"0.5\"}"));
    assert!(prom.contains("db_txns_committed{db=\"db\"} 2"));
    // The in-memory engine's logs are lists: all of the journal and all
    // six WAL records (two transactions) are resident, no file.
    let events = level(&m, "journal.events");
    assert!(prom.contains(&format!("journal_resident_records {events}")));
    assert!(prom.contains("journal_file_bytes 0"));
    assert!(prom.contains("db_wal_resident_records{db=\"db\"} 6"));
    assert!(prom.contains("db_wal_checkpoints{db=\"db\"} 0"));
}

/// What a mirrored journal keeps is visible: under `Batched` every
/// event since the last barrier is resident — in the frames no barrier
/// has written, the file still its header — nothing after a flush, and
/// `journal.file_bytes` is the file's length.
#[test]
fn mirrored_journal_reports_resident_records_and_file_bytes() {
    let dir = std::env::temp_dir().join(format!("wfms-obs-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.journal");
    let (fed, registry) = world();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            journal_path: Some(path.clone()),
            durability: txn_substrate::DurabilityPolicy::Batched { n: 64 },
            ..EngineConfig::default()
        },
    );
    engine.register(branching()).unwrap();
    engine.flush_journal().unwrap();
    let m = engine.metrics();
    let (flushed, header) = (level(&m, "journal.events"), level(&m, "journal.file_bytes"));
    for _ in 0..40 {
        let id = engine.start("branch", Container::empty()).unwrap();
        engine.run_to_quiescence(id).unwrap();
        let m = engine.metrics();
        let resident = level(&m, "journal.resident_records");
        assert_eq!(
            level(&m, "journal.events") - resident,
            flushed,
            "nothing since the barrier is written"
        );
        assert_eq!(level(&m, "journal.file_bytes"), header);
    }
    engine.flush_journal().unwrap();
    let m = engine.metrics();
    assert_eq!(level(&m, "journal.resident_records"), 0);
    assert_eq!(
        level(&m, "journal.file_bytes"),
        std::fs::metadata(&path).unwrap().len()
    );
    assert_eq!(
        level(&m, "journal.events"),
        engine.journal_events().len() as u64
    );
    let json = serde_json::to_string(&m).unwrap();
    assert!(json.contains(r#"{"name":"journal.resident_records","value":{"Gauge":0}}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_fixups_are_counted_on_unobserved_engines() {
    let dir = std::env::temp_dir().join(format!("wfms-obs-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rec.journal");
    let def = branching();
    let (fed, registry) = world();
    let engine = Engine::with_config(
        Arc::clone(&fed),
        Arc::clone(&registry),
        EngineConfig {
            journal_path: Some(path.clone()),
            ..EngineConfig::default()
        },
    );
    engine.register(def.clone()).unwrap();
    let id = engine.start("branch", Container::empty()).unwrap();
    engine.step(id).unwrap(); // A ran; B is ready, C is dead
    engine.crash();

    let recovered = recover(&path, vec![def], OrgModel::new(), fed, registry).unwrap();
    let m = recovered.metrics();
    // Cold-path recovery counters exist even though no observer was
    // ever configured; this run needed no fix-ups (clean step
    // boundary), so they read zero — but they are *present*.
    for key in [
        "recovery.fixups.running_restarted",
        "recovery.fixups.waiting_renavigated",
        "recovery.fixups.connectors_reevaluated",
        "recovery.fixups.exits_redecided",
    ] {
        assert!(m.counter(key).is_some(), "{key} registered");
    }
    assert_eq!(
        recovered.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The catalogue in `docs/observability.md` is what an engine exposes,
/// name for name: every series in its tables is in the snapshot of an
/// observed engine that ran the branching fixture, parked a claimed
/// work item, was reopened on a journal with a torn tail and migrated
/// the parked instance — and every series of that snapshot is in the
/// tables.
#[test]
fn the_documented_catalogue_is_what_an_engine_exposes() {
    let doc = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/observability.md");
    let doc = std::fs::read_to_string(doc).unwrap();
    let catalogue = doc
        .split("\n## ")
        .find(|s| s.starts_with("Metric catalogue"));
    let documented: std::collections::BTreeSet<&str> = catalogue
        .expect("the catalogue section")
        .lines()
        .filter_map(|row| row.strip_prefix("| `")?.split('`').next())
        .collect();

    let dir = std::env::temp_dir().join(format!("wfms-obs-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.journal");
    let desk = |tail: &str| {
        ProcessBuilder::new("desk")
            .activity(Activity::program("Sign", "mark_a").for_role("clerk"))
            .program(tail, "mark_b")
            .connect("Sign", tail)
            .build()
            .unwrap()
    };
    let config = || EngineConfig {
        org: OrgModel::new().person("ann", &["clerk"]),
        journal_path: Some(path.clone()),
        observer: Some(Arc::new(Observer::enabled())),
        ..EngineConfig::default()
    };
    let (fed, registry) = world();
    let engine = Engine::with_config(Arc::clone(&fed), Arc::clone(&registry), config());
    engine.register(branching()).unwrap();
    engine.register(desk("File")).unwrap();
    let id = engine.start("branch", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let parked = engine.start("desk", Container::empty()).unwrap();
    engine.claim(engine.worklist("ann")[0].id, "ann").unwrap();
    engine.crash();
    // The crash interrupted an append: half a frame reached the file.
    let mut torn = std::fs::read(&path).unwrap();
    torn.extend_from_slice(&[0x2a, 0, 0]);
    std::fs::write(&path, torn).unwrap();

    let templates = vec![branching(), desk("File")];
    let engine = Engine::open(fed, registry, config(), templates).unwrap();
    engine.register(desk("Archive")).unwrap();
    engine.migrate_to_default(parked).unwrap();
    let m = engine.metrics();
    assert_eq!(m.counter("journal.torn_tails_truncated"), Some(1));
    assert_eq!(m.counter("recovery.stale_claims_released"), Some(1));

    let exposed: std::collections::BTreeSet<&str> =
        m.series.iter().map(|s| s.name.as_str()).collect();
    let undocumented: Vec<_> = exposed.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "not in the tables: {undocumented:?}"
    );
    let unexposed: Vec<_> = documented.difference(&exposed).collect();
    assert!(unexposed.is_empty(), "in the tables only: {unexposed:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
