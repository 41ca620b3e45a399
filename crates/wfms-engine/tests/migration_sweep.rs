//! Crash-point sweeps and differential tests **through a live
//! migration**: a versioned deploy (`TemplateDeployed`) followed by a
//! scope-boundary migration (`Migrated`) must be exactly as
//! crash-proof as plain navigation — wherever the engine dies, the
//! recovered run lands on the same statuses, outputs, journal suffix
//! and database state as the uncrashed one.
//!
//! The scenario parks an instance on a manual work item (the scope
//! boundary), deploys a v2 that differs strictly downstream of the
//! park point, migrates, and completes the item so the tail runs under
//! v2. The sweep enumerates every crash point through that operator
//! sequence, including points between `TemplateDeployed` and
//! `Migrated` and points mid-manual-execution.

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::crashtest::{sweep_with_script, SweepConfig, SweepScript};
use wfms_engine::{recover, Engine, EngineConfig, InstanceStatus, MigrationOutcome, OrgModel};
use wfms_model::{Activity, Container, ProcessBuilder, ProcessDefinition};

/// v1: `A -> M(manual, clerk) -> B`.
fn v1() -> ProcessDefinition {
    ProcessBuilder::new("mig")
        .program("A", "p_A")
        .activity(Activity::program("M", "p_M").for_role("clerk"))
        .program("B", "p_B")
        .connect_when("A", "M", "RC = 1")
        .connect_when("M", "B", "RC = 1")
        .build()
        .unwrap()
}

/// v2: `A -> M(manual, clerk) -> C` — changed strictly downstream of
/// the manual park point, so a parked instance is at a scope boundary
/// the migration accepts.
fn v2() -> ProcessDefinition {
    ProcessBuilder::new("mig")
        .program("A", "p_A")
        .activity(Activity::program("M", "p_M").for_role("clerk"))
        .program("C", "p_C")
        .connect_when("A", "M", "RC = 1")
        .connect_when("M", "C", "RC = 1")
        .build()
        .unwrap()
}

fn org() -> OrgModel {
    OrgModel::new().person("ann", &["clerk"])
}

/// Fresh federation + programs; every program appends its name to the
/// `log` key, so the database state distinguishes a v1 tail (`p_B`)
/// from a v2 tail (`p_C`).
fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(7);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    for name in ["p_A", "p_M", "p_B", "p_C"] {
        let fed = Arc::clone(&fed);
        registry.register_fn(name, move |_| {
            let db = fed.db("db").unwrap();
            loop {
                let mut t = db.begin();
                let prev = match t.get("log") {
                    Ok(v) => v
                        .and_then(|v| v.as_str().map(str::to_owned))
                        .unwrap_or_default(),
                    Err(_) => continue,
                };
                let next = if prev.is_empty() {
                    name.to_owned()
                } else {
                    format!("{prev},{name}")
                };
                if t.put("log", next).is_err() {
                    continue;
                }
                if t.commit().is_ok() {
                    break;
                }
            }
            ProgramOutcome::committed()
        });
    }
    (fed, registry)
}

/// Sweep variant of [`world`]: programs mark `ran:<name>` instead of
/// appending. §3.3 re-executes an activity that was mid-flight at the
/// crash, so swept programs must be **idempotent** — and the marker
/// keys still distinguish a v1 tail (`ran:p_B`) from a v2 tail
/// (`ran:p_C`) in the federation-state comparison.
fn world_idempotent() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(7);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    for name in ["p_A", "p_M", "p_B", "p_C"] {
        let fed = Arc::clone(&fed);
        registry.register_fn(name, move |_| {
            let db = fed.db("db").unwrap();
            loop {
                let mut t = db.begin();
                if t.put(&format!("ran:{name}"), "done").is_err() {
                    continue;
                }
                if t.commit().is_ok() {
                    break;
                }
            }
            ProgramOutcome::committed()
        });
    }
    (fed, registry)
}

fn log_of(fed: &Arc<MultiDatabase>) -> String {
    fed.db("db")
        .unwrap()
        .peek("log")
        .and_then(|v| v.as_str().map(str::to_owned))
        .unwrap_or_default()
}

/// Satellite: the crash-point sweep through deploy + migration. Every
/// journal prefix — including prefixes cutting between
/// `TemplateDeployed` and `Migrated`, and mid-manual-execution — must
/// recover to the reference run's end state.
#[test]
fn migration_survives_every_crash_point() {
    let (v1, v2) = (v1(), v2());
    assert!(wfms_model::validate(&v1).is_empty());
    assert!(wfms_model::validate(&v2).is_empty());

    let drive = |engine: &Engine| -> Result<Vec<wfms_engine::InstanceId>, String> {
        engine
            .register(v1.clone())
            .map_err(|e| format!("register v1: {e}"))?;
        let id = engine
            .start("mig", Container::empty())
            .map_err(|e| format!("start: {e}"))?;
        engine.run_all().map_err(|e| format!("run: {e}"))?;
        engine
            .register(v2.clone())
            .map_err(|e| format!("register v2: {e}"))?;
        match engine
            .migrate_to_default(id)
            .map_err(|e| format!("migrate: {e}"))?
        {
            MigrationOutcome::Migrated { .. } => {}
            other => return Err(format!("expected a migration, got {other:?}")),
        }
        engine.run_all().map_err(|e| format!("run: {e}"))?;
        let items = engine.worklist("ann");
        if items.len() != 1 {
            return Err(format!("expected 1 work item, got {}", items.len()));
        }
        engine
            .execute_item(items[0].id, "ann")
            .map_err(|e| format!("execute: {e}"))?;
        engine.run_all().map_err(|e| format!("run: {e}"))?;
        Ok(vec![id])
    };
    // Idempotent re-drive: every step is a no-op when the journal
    // prefix already holds its effect (re-registering the deployed v2
    // journals nothing, re-migrating answers AlreadyCurrent, the
    // worklist only surfaces still-open items).
    let resume = |engine: &Engine| -> Result<(), String> {
        engine.run_all().map_err(|e| format!("resume run: {e}"))?;
        engine
            .register(v2.clone())
            .map_err(|e| format!("resume register v2: {e}"))?;
        for (id, _, status) in engine.instances() {
            if status == InstanceStatus::Running {
                engine
                    .migrate_to_default(id)
                    .map_err(|e| format!("resume migrate: {e}"))?;
            }
        }
        engine.run_all().map_err(|e| format!("resume run: {e}"))?;
        for item in engine.worklist("ann") {
            engine
                .execute_item(item.id, "ann")
                .map_err(|e| format!("resume execute: {e}"))?;
        }
        engine.run_all().map_err(|e| format!("resume run: {e}"))?;
        Ok(())
    };

    let recovery_templates = [v1.clone(), v2.clone()];
    for torn_tail in [true, false] {
        let report = sweep_with_script(
            "migration",
            &recovery_templates,
            &SweepScript {
                drive: &drive,
                resume: &resume,
                org: org(),
            },
            &world_idempotent,
            &SweepConfig { torn_tail },
        )
        .unwrap();
        assert!(report.ok(), "{}\n{:#?}", report.summary(), report.failures);
        assert!(report.total_events > 0);
    }
}

/// A deployed v2 becomes the default for *new* submits only: an
/// instance parked mid-run keeps its pinned v1, finishes under v1's
/// downstream (`p_B`), and a post-deploy instance runs v2's (`p_C`).
#[test]
fn deploy_does_not_disturb_running_instances() {
    let (fed, programs) = world();
    let engine = Engine::with_config(
        fed.clone(),
        programs,
        EngineConfig {
            org: org(),
            ..EngineConfig::default()
        },
    );
    let tv1 = engine.register(v1()).unwrap();
    let i1 = engine.start("mig", Container::empty()).unwrap();
    engine.run_all().unwrap();

    let tv2 = engine.register(v2()).unwrap();
    assert_ne!(tv1.version, tv2.version, "spec change must change the hash");
    let i2 = engine.start("mig", Container::empty()).unwrap();
    engine.run_all().unwrap();

    assert_eq!(engine.view(i1).unwrap().version, tv1.version);
    assert_eq!(engine.view(i2).unwrap().version, tv2.version);

    // Complete both parked work items; each instance's tail runs under
    // its own pinned version.
    let items = engine.worklist("ann");
    assert_eq!(items.len(), 2);
    for item in items {
        engine.execute_item(item.id, "ann").unwrap();
    }
    assert_eq!(engine.status(i1).unwrap(), InstanceStatus::Finished);
    assert_eq!(engine.status(i2).unwrap(), InstanceStatus::Finished);
    assert_eq!(engine.view(i1).unwrap().version, tv1.version);
    assert_eq!(engine.view(i2).unwrap().version, tv2.version);
    let log = log_of(&fed);
    assert!(log.contains("p_B"), "v1 instance must run B: {log}");
    assert!(log.contains("p_C"), "v2 instance must run C: {log}");
}

/// Differential: recovering a journal holding N versions must agree,
/// per instance, with single-version runs of the pinned definition —
/// same status, same output, same pinned version, same database tail.
#[test]
fn multi_version_recovery_matches_single_version_runs() {
    // Single-version reference runs on their own worlds.
    let single = |def: ProcessDefinition| -> (InstanceStatus, Container, String) {
        let (fed, programs) = world();
        let engine = Engine::with_config(
            fed.clone(),
            programs,
            EngineConfig {
                org: org(),
                ..EngineConfig::default()
            },
        );
        engine.register(def).unwrap();
        let id = engine.start("mig", Container::empty()).unwrap();
        engine.run_all().unwrap();
        let items = engine.worklist("ann");
        assert_eq!(items.len(), 1);
        engine.execute_item(items[0].id, "ann").unwrap();
        (
            engine.status(id).unwrap(),
            engine.output(id).unwrap(),
            log_of(&fed),
        )
    };
    let (s1, o1, l1) = single(v1());
    let (s2, o2, l2) = single(v2());
    assert_eq!(s1, InstanceStatus::Finished);
    assert_eq!(s2, InstanceStatus::Finished);
    assert_eq!(l1, "p_A,p_M,p_B");
    assert_eq!(l2, "p_A,p_M,p_C");

    // Multi-version run against a file journal: i1 completes under v1
    // *before* the v2 deploy, i2 starts after it.
    let dir = std::env::temp_dir().join(format!(
        "wfms-migration-diff-{}-{}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("multi.journal");
    let (fed, programs) = world();
    let (i1, i2, tv1, tv2);
    {
        let engine = Engine::with_config(
            fed.clone(),
            programs.clone(),
            EngineConfig {
                org: org(),
                journal_path: Some(path.clone()),
                ..EngineConfig::default()
            },
        );
        tv1 = engine.register(v1()).unwrap();
        i1 = engine.start("mig", Container::empty()).unwrap();
        engine.run_all().unwrap();
        let items = engine.worklist("ann");
        assert_eq!(items.len(), 1);
        engine.execute_item(items[0].id, "ann").unwrap();

        tv2 = engine.register(v2()).unwrap();
        i2 = engine.start("mig", Container::empty()).unwrap();
        engine.run_all().unwrap();
        let items = engine.worklist("ann");
        assert_eq!(items.len(), 1);
        engine.execute_item(items[0].id, "ann").unwrap();
        // Crash: the engine vanishes, journal and federation survive.
    }

    let recovered = recover(&path, vec![v1(), v2()], org(), fed.clone(), programs).unwrap();
    assert_eq!(recovered.status(i1).unwrap(), s1);
    assert_eq!(recovered.status(i2).unwrap(), s2);
    assert_eq!(recovered.output(i1).unwrap(), o1);
    assert_eq!(recovered.output(i2).unwrap(), o2);
    assert_eq!(recovered.view(i1).unwrap().version, tv1.version);
    assert_eq!(recovered.view(i2).unwrap().version, tv2.version);
    // The shared federation saw the v1 tail then the v2 tail.
    assert_eq!(log_of(&fed), format!("{l1},{}", l2));
    let _ = std::fs::remove_dir_all(&dir);
}
