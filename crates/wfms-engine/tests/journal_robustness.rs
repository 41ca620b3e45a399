//! Journal failure modes end to end: a real torn journal file
//! (committed fixture), mirror write failures parking instances
//! instead of killing the engine, compaction racing appends, and
//! recovery from a compacted journal after a crash.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_substrate::{DurabilityPolicy, KvProgram, MultiDatabase, ProgramRegistry};
use wfms_engine::journal::Upgrade;
use wfms_engine::{
    recover, recover_from, Engine, EngineConfig, EngineError, Event, InstanceStatus, Journal,
    OrgModel,
};
use wfms_model::{Container, ProcessBuilder, ProcessDefinition};

#[path = "../../../tests/support/renavigate.rs"]
mod renavigate;

/// The fixture process: a three-step chain writing markers A, B, C on
/// one database. Shared by the committed torn-tail fixture and its
/// regenerator so the journal can always be replayed.
fn fixture_process() -> ProcessDefinition {
    let mut b = ProcessBuilder::new("fix");
    for (i, step) in ["A", "B", "C"].iter().enumerate() {
        b = b.program(step, &format!("do_{step}"));
        if i > 0 {
            b = b.connect_when(["A", "B", "C"][i - 1], step, "RC = 1");
        }
    }
    b.build().unwrap()
}

fn fixture_world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("fixdb");
    let registry = Arc::new(ProgramRegistry::new());
    for step in ["A", "B", "C"] {
        registry.register(Arc::new(
            KvProgram::write(&format!("do_{step}"), "fixdb", step, 1i64).with_label(step),
        ));
    }
    (fed, registry)
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/torn_tail.journal")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfms-jrobust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same torn journal as the JSON lines the engine wrote before the
/// binary format — the `fmtm journal upgrade` fixture.
fn json_fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/torn_tail.jsonl")
}

/// A complete run of the fixture chain mirrored to `path`; returns the
/// events it journalled.
fn run_fixture_chain(path: &Path) -> Vec<Event> {
    let (fed, registry) = fixture_world();
    let engine = Engine::with_config(
        fed,
        registry,
        EngineConfig {
            journal_path: Some(path.to_path_buf()),
            ..EngineConfig::default()
        },
    );
    engine.register(fixture_process()).unwrap();
    let id = engine.start("fix", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    let events = engine.journal_events();
    engine.crash();
    events
}

/// Regression for the reopen path that used to fail with
/// `InvalidData`: a journal whose final record was half-written by a
/// dying engine (the committed fixture is a real engine-written
/// journal, truncated mid-frame — see
/// `regenerate_torn_tail_fixture`). Recovery must truncate the torn
/// tail, replay the intact prefix and finish the run.
#[test]
fn committed_torn_tail_fixture_recovers() {
    let dir = temp_dir("fixture");
    let path = dir.join("torn.journal");
    std::fs::copy(fixture_path(), &path).unwrap();
    let (intact, report) = Journal::read_file(&path).unwrap();
    assert_eq!(intact.len(), 8);
    assert!(
        report.torn_tail.is_some(),
        "fixture must end in a torn frame"
    );

    let (fed, registry) = fixture_world();
    // Databases are durable and survive the crash: the fixture journal
    // records activity A as finished, so its transaction had committed
    // on fixdb before the engine died. Replay never re-executes
    // finished activities — reproduce that committed state by invoking
    // the same program the pre-crash run did.
    let mut ctx = txn_substrate::ProgramContext::new(fed.clone());
    assert!(registry.invoke("do_A", &mut ctx).is_committed());
    let engine = recover(
        &path,
        vec![fixture_process()],
        OrgModel::new(),
        fed.clone(),
        registry,
    )
    .unwrap();
    // The repair is counted where an operator looks, not printed.
    let m = engine.metrics();
    assert_eq!(m.counter("journal.torn_tails_truncated"), Some(1));
    let damaged = m.counter("journal.crc_failures");
    assert_eq!(damaged, Some(0), "cut short, not damaged");
    assert_eq!(m.counter("journal.mirror_errors"), Some(0));
    engine.run_all().unwrap();
    let (id, _, status) = engine.instances()[0];
    assert_eq!(status, InstanceStatus::Finished);
    for step in ["A", "B", "C"] {
        assert_eq!(
            fed.db("fixdb").unwrap().peek(step),
            Some(1i64.into()),
            "{step}"
        );
    }
    drop(engine);

    // The reopen repaired the file in place: reading it again is clean
    // and ends exactly at the recovered run's last event.
    let (journal, report) = Journal::with_file_report(&path, DurabilityPolicy::default()).unwrap();
    assert!(report.torn_tail.is_none(), "file was repaired on reopen");
    assert!(journal
        .events()
        .iter()
        .any(|e| matches!(e, Event::InstanceFinished { instance, .. } if *instance == id)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed torn journal (version 1) is what the engine derives
/// from its start and its one journalled program outcome: re-navigated
/// on an engine with no programs, it is a prefix of the run (the
/// re-navigation oracle, `tests/support/renavigate.rs`).
#[test]
fn committed_torn_tail_fixture_renavigates() {
    let (events, report) = Journal::read_file(&fixture_path()).unwrap();
    assert!(report.torn_tail.is_some());
    let fresh = Engine::new(MultiDatabase::new(0), Arc::new(ProgramRegistry::new()));
    fresh.register(fixture_process()).unwrap();
    renavigate::renavigate(&fresh, &events).assert_counts(1, 0, 1);
}

/// Rebuilds `tests/fixtures/torn_tail.journal`: run the fixture chain
/// against a file journal, then cut the file after 8 complete events
/// plus the first half of event 9's frame — exactly what a crash
/// mid-append leaves behind. Run with
/// `cargo test -p wfms-engine --test journal_robustness -- --ignored`.
#[test]
#[ignore = "writes the committed fixture; run by hand when the journal format changes"]
fn regenerate_torn_tail_fixture() {
    let dir = temp_dir("regen");
    let path = dir.join("full.journal");
    let events = run_fixture_chain(&path);
    assert!(events.len() > 9, "fixture run too short: {}", events.len());
    let whole = std::fs::read(&path).unwrap();
    assert_eq!(whole, Journal::file_bytes(&events));
    let eight = Journal::file_bytes(&events[..8]).len();
    let nine = Journal::file_bytes(&events[..9]).len();
    std::fs::write(fixture_path(), &whole[..eight + (nine - eight) / 2]).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The binary fixture and the JSON one it replaced are the same
/// journal: upgrading the JSON lines gives the binary fixture's intact
/// frames, and drops the same half-written ninth event.
#[test]
fn json_fixture_upgrades_to_the_binary_fixture() {
    let dir = temp_dir("upgrade-fixture");
    let path = dir.join("old.journal");
    std::fs::copy(json_fixture_path(), &path).unwrap();
    let err = Journal::with_file(&path).unwrap_err();
    assert!(err.to_string().contains("fmtm journal upgrade"), "{err}");

    let outcome = Journal::upgrade_json_file(&path).unwrap();
    let Upgrade::Converted { events, torn_tail } = outcome else {
        panic!("the JSON fixture converts: {outcome:?}");
    };
    assert_eq!(events, 8);
    assert!(
        torn_tail.is_some(),
        "the half-written ninth line is dropped"
    );
    let (upgraded, report) = Journal::read_file(&path).unwrap();
    assert_eq!(report.torn_tail, None);
    assert_eq!(upgraded, Journal::read_file(&fixture_path()).unwrap().0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every byte prefix of a real journal file reopens to a prefix of its
/// events, truncating at most one torn frame, and accepts appends on
/// the repaired boundary.
#[test]
fn every_byte_prefix_reopens_to_an_event_prefix() {
    let dir = temp_dir("prefixes");
    let full = dir.join("full.journal");
    let events = run_fixture_chain(&full);
    let whole = std::fs::read(&full).unwrap();
    // Byte offset at which each event's frame ends.
    let ends: Vec<usize> = (1..=events.len())
        .map(|k| Journal::file_bytes(&events[..k]).len())
        .collect();
    let header = Journal::file_bytes(&[]).len();

    let path = dir.join("cut.journal");
    for cut in 0..=whole.len() {
        std::fs::write(&path, &whole[..cut]).unwrap();
        let (journal, report) =
            Journal::with_file_report(&path, DurabilityPolicy::PerEvent).unwrap();
        let k = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(journal.events(), events[..k], "cut at byte {cut}");
        let boundary = cut == 0 || cut == header || ends.contains(&cut);
        assert_eq!(report.torn_tail.is_none(), boundary, "cut at byte {cut}");
        if let Some(tail) = &report.torn_tail {
            let start = if cut < header {
                0
            } else {
                Journal::file_bytes(&events[..k]).len()
            };
            assert_eq!(tail.offset, start as u64, "cut at byte {cut}");
        }
        // The next append lands on a clean boundary.
        if let Some(next) = events.get(k) {
            journal.append(next.clone());
            drop(journal);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                whole[..ends[k]],
                "cut at byte {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One flipped bit in the last frame is a torn tail (the frame is
/// dropped, the rest survives); the same flip in any earlier frame is
/// mid-file corruption: `InvalidData` naming that frame's byte offset,
/// and the file is left as it was.
#[test]
fn flipped_bit_is_torn_at_the_tail_and_corrupt_before_it() {
    let dir = temp_dir("flips");
    let full = dir.join("full.journal");
    let events = run_fixture_chain(&full);
    let whole = std::fs::read(&full).unwrap();
    let starts: Vec<usize> = (0..events.len())
        .map(|k| Journal::file_bytes(&events[..k]).len())
        .collect();
    let last = *starts.last().unwrap();

    let path = dir.join("flipped.journal");
    for at in starts[0]..whole.len() {
        let mut bytes = whole.clone();
        bytes[at] ^= 1 << (at % 8);
        std::fs::write(&path, &bytes).unwrap();
        let frame = *starts.iter().rfind(|&&s| s <= at).unwrap();
        match Journal::with_file_report(&path, DurabilityPolicy::PerEvent) {
            Ok((journal, report)) => {
                assert_eq!(frame, last, "byte {at}: only the last frame may be dropped");
                assert_eq!(report.torn_tail.unwrap().offset, last as u64);
                assert_eq!(journal.events(), events[..events.len() - 1]);
            }
            Err(e) => {
                assert!(
                    frame < last,
                    "byte {at}: a damaged last frame is a torn tail"
                );
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                let msg = e.to_string();
                assert!(msg.contains(&format!("byte {frame}:")), "byte {at}: {msg}");
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "not repaired");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal whose file mirror cannot be written (here: the handle is
/// read-only, as after an fd mixup or a remount) must not panic the
/// engine. The first error is remembered, navigation parks with
/// [`EngineError::Journal`], and the instance's in-memory state stays
/// queryable.
#[test]
fn mirror_write_failure_parks_instances_not_the_engine() {
    let dir = temp_dir("park");
    let path = dir.join("readonly.journal");
    std::fs::write(&path, "").unwrap();
    let file = std::fs::OpenOptions::new().read(true).open(&path).unwrap();
    let journal = Journal::with_injected_file(file, path.clone(), DurabilityPolicy::default());

    let (fed, registry) = fixture_world();
    let engine = recover_from(
        journal,
        Vec::new(),
        vec![fixture_process()],
        OrgModel::new(),
        fed,
        registry,
    )
    .unwrap();
    let id = engine.start("fix", Container::empty()).unwrap();
    let err = engine.run_to_quiescence(id).unwrap_err();
    assert!(matches!(err, EngineError::Journal(_)), "{err}");

    // Parked, not dead: state and journal are still readable, and the
    // error is sticky rather than replaced by later failures.
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Running);
    assert!(!engine.journal_events().is_empty());
    let first = engine.run_to_quiescence(id).unwrap_err();
    assert_eq!(format!("{first}"), format!("{err}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The work-item and operator entry points park like `step` and
/// `run_to_quiescence` do. The journal writes per event into a pipe
/// whose reading end goes once the item is claimed: the disk fills
/// between the claim and the completion, so the first write that
/// fails — the barrier the completion's first event makes — falls
/// inside the navigation of `execute_item` / `force_finish`, which used
/// to answer `Ok(())` over the mirror they had just broken. (Under
/// `Batched` nothing inside either call writes: the server meets such
/// a failure at the barrier that ends its turn.)
#[test]
fn mirror_write_failure_inside_execute_item_and_force_finish_is_reported() {
    let def = ProcessBuilder::new("m")
        .activity(wfms_model::Activity::program("M", "do_A").for_role("clerk"))
        .build()
        .unwrap();
    let dir = temp_dir("park-manual");
    for by_hand in [true, false] {
        let path = dir.join(format!("piped-{by_hand}.journal"));
        std::fs::write(&path, "").unwrap();
        let (disk, writes) = std::io::pipe().unwrap();
        let file = std::fs::File::from(std::os::fd::OwnedFd::from(writes));
        let journal = Journal::with_injected_file(file, path.clone(), DurabilityPolicy::PerEvent);
        let (fed, registry) = fixture_world();
        let org = OrgModel::new().person("ann", &["clerk"]);
        let engine =
            recover_from(journal, Vec::new(), vec![def.clone()], org, fed, registry).unwrap();
        let id = engine.start("m", Container::empty()).unwrap();
        assert_eq!(
            engine.run_to_quiescence(id).unwrap(),
            InstanceStatus::Running
        );
        let item = engine.worklist("ann")[0].id;
        engine.claim(item, "ann").unwrap();
        drop(disk);
        let err = if by_hand {
            engine.execute_item(item, "ann").unwrap_err()
        } else {
            engine.force_finish(id, "M", 1).unwrap_err()
        };
        assert!(matches!(err, EngineError::Journal(_)), "{err}");
        // Parked, not dead: what the navigation did is in memory.
        assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
        assert!(engine.worklist("ann").is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends interleaved with `compact()` on a mirrored journal must keep
/// the file a consistent, parseable prefix-free copy of memory at all
/// times. The appender replays a real run's events — including its
/// `EngineCheckpoint`, so compaction genuinely drops lines — and a
/// compaction runs between appends, 200 in all. A journal has one
/// owner, so one thread does both: sharing it across threads no longer
/// compiles (the `compile_fail` example on `Journal`).
#[test]
fn interleaved_append_and_compact_keep_file_consistent() {
    // One real run, checkpointed halfway so its event stream contains
    // an EngineCheckpoint for compact() to find.
    let (fed, registry) = fixture_world();
    let engine = Engine::new(fed, registry);
    engine.register(fixture_process()).unwrap();
    let id = engine.start("fix", Container::empty()).unwrap();
    for _ in 0..6 {
        engine.step(id).unwrap();
    }
    engine.checkpoint();
    engine.run_to_quiescence(id).unwrap();
    let events = engine.journal_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::EngineCheckpoint { .. })));

    let dir = temp_dir("race");
    let path = dir.join("race.journal");
    let journal = Journal::with_file(&path).unwrap();
    let appends = 20 * events.len();
    let every = appends.div_ceil(200);
    let mut compactions = 0;
    for (i, ev) in events.iter().cycle().take(appends).enumerate() {
        journal.append(ev.clone());
        if i % every == 0 {
            journal.compact();
            compactions += 1;
        }
    }
    while compactions < 200 {
        journal.compact();
        compactions += 1;
    }
    journal.flush();
    assert!(journal.mirror_error().is_none());

    // The file parses cleanly (no torn tail, no interleaved garbage)
    // and holds exactly the in-memory events.
    let in_memory = journal.events();
    drop(journal);
    let (reopened, report) = Journal::with_file_report(&path, DurabilityPolicy::default()).unwrap();
    assert!(report.torn_tail.is_none());
    assert_eq!(reopened.events(), in_memory);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A work item claimed just before the crash (journal ends with
/// `WorkItemClaimed`, the activity never started) must not stay
/// claimed by the dead worker's session after recovery. The claim is a
/// lease: recovery replays it, then releases it back onto every
/// eligible worklist, so a colleague can pick the work up. This used
/// to leave the item parked on the dead worker forever.
#[test]
fn claimed_item_is_reoffered_after_crash_recovery() {
    let dir = temp_dir("stale-claim");
    let path = dir.join("claimed.journal");
    let def = ProcessBuilder::new("m")
        .activity(wfms_model::Activity::program("M", "do_A").for_role("clerk"))
        .build()
        .unwrap();
    let org = OrgModel::new()
        .person("ann", &["clerk"])
        .person("bob", &["clerk"]);
    let (fed, registry) = fixture_world();
    let engine = Engine::with_config(
        fed.clone(),
        Arc::clone(&registry),
        EngineConfig {
            org: org.clone(),
            journal_path: Some(path.clone()),
            ..EngineConfig::default()
        },
    );
    engine.register(def.clone()).unwrap();
    let id = engine.start("m", Container::empty()).unwrap();
    engine.run_to_quiescence(id).unwrap();
    let item = engine.worklist("ann")[0].id;
    engine.claim(item, "ann").unwrap();
    assert!(engine.worklist("bob").is_empty(), "claim hides the item");
    engine.crash();

    let recovered = recover(&path, vec![def], org, fed, registry).unwrap();
    // Ann's session died with the engine; the lease is gone and both
    // clerks see the offer again.
    assert_eq!(recovered.worklist("ann").len(), 1, "re-offered to ann");
    assert_eq!(recovered.worklist("bob").len(), 1, "re-offered to bob");
    recovered.execute_item(item, "bob").unwrap();
    assert_eq!(recovered.status(id).unwrap(), InstanceStatus::Finished);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash *after* a checkpoint compaction: the journal file starts at
/// the `EngineCheckpoint`, not at `InstanceStarted`, and recovery must
/// rebuild from the snapshot then resume the tail of the run.
#[test]
fn recovery_after_compaction_and_crash() {
    let dir = temp_dir("compact-crash");
    let path = dir.join("compacted.journal");
    let (fed, registry) = fixture_world();
    let engine = Engine::with_config(
        fed.clone(),
        Arc::clone(&registry),
        EngineConfig {
            journal_path: Some(path.clone()),
            ..EngineConfig::default()
        },
    );
    engine.register(fixture_process()).unwrap();
    let id = engine.start("fix", Container::empty()).unwrap();
    for _ in 0..6 {
        engine.step(id).unwrap();
    }
    let dropped = engine.checkpoint();
    assert!(dropped > 0, "checkpoint must compact the journal");
    // A little more progress after the checkpoint, then the crash.
    engine.step(id).unwrap();
    engine.step(id).unwrap();
    engine.crash();

    let engine2 = recover(
        &path,
        vec![fixture_process()],
        OrgModel::new(),
        fed.clone(),
        registry,
    )
    .unwrap();
    assert!(matches!(
        engine2.journal_events().first(),
        Some(Event::EngineCheckpoint { .. })
    ));
    assert_eq!(
        engine2.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    for step in ["A", "B", "C"] {
        assert_eq!(
            fed.db("fixdb").unwrap().peek(step),
            Some(1i64.into()),
            "{step}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
