//! A journal written in version 1 of the log format — one event per
//! frame, every name spelled out — still reads as it did, and is never
//! appended to: opening it rewrites it in the current version first,
//! and `Journal::upgrade_json_file` converts it the same way. The
//! committed `torn_tail.journal` is such a file (eight events, then
//! half a ninth).

use std::path::{Path, PathBuf};
use txn_substrate::DurabilityPolicy;
use wfms_engine::journal::Upgrade;
use wfms_engine::{Event, InstanceId, Journal};
use wfms_model::Container;

const V1: &[u8] = b"WFJL\x01";
const V2: &[u8] = b"WFJL\x02";

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/torn_tail.journal")
}

/// A copy of the fixture in a directory of its own.
fn copy(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("wfms-journal-v1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.journal");
    std::fs::copy(fixture(), &path).unwrap();
    (dir, path)
}

#[test]
fn opening_a_version_1_journal_rewrites_it_then_appends() {
    assert!(std::fs::read(fixture()).unwrap().starts_with(V1));
    let (dir, path) = copy("open");
    let (events, _) = Journal::read_file(&path).unwrap();
    assert_eq!(events.len(), 8);

    let (journal, report) =
        Journal::with_file_report(&path, DurabilityPolicy::Batched { n: 64 }).unwrap();
    let tail = report.torn_tail.expect("the half-written ninth event");
    assert!(!tail.checksum_failed, "cut short, not damaged");
    assert_eq!(report.records, 8);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        Journal::file_bytes(&events),
        "the intact events, one frame each, in the current version"
    );

    let next = Event::InstanceCancelled {
        instance: InstanceId(1),
        at: 9,
    };
    journal.append(next.clone());
    journal.flush();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(V2));
    let (reread, report) = Journal::read_file(&path).unwrap();
    assert_eq!(report.torn_tail, None);
    assert_eq!(reread[..8], events[..]);
    assert_eq!(reread[8], next);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn upgrade_converts_a_version_1_journal_once() {
    let (dir, path) = copy("upgrade");
    let (events, _) = Journal::read_file(&path).unwrap();
    let Upgrade::Converted {
        events: n,
        torn_tail,
    } = Journal::upgrade_json_file(&path).unwrap()
    else {
        panic!("a version-1 journal converts");
    };
    assert_eq!(n, 8);
    assert!(
        torn_tail.is_some(),
        "the half-written ninth event is dropped"
    );
    assert_eq!(std::fs::read(&path).unwrap(), Journal::file_bytes(&events));
    assert_eq!(
        Journal::upgrade_json_file(&path).unwrap(),
        Upgrade::AlreadyBinary
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version byte this build does not know is refused, naming it.
#[test]
fn an_unknown_version_is_refused() {
    let (dir, path) = copy("version");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = 3;
    std::fs::write(&path, &bytes).unwrap();
    let err = Journal::with_file(&path).unwrap_err();
    assert!(err.to_string().contains("format version 3"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "left untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `Batched` a flush of one instance is one frame that names its
/// path once; under `PerEvent` each event has its own frame. The next
/// instance opens a frame of its own, flush or not.
#[test]
fn a_flush_under_batched_is_one_frame_an_instance() {
    let dir = std::env::temp_dir().join(format!("wfms-journal-v2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let instance = |n| {
        let ready = |at| Event::ActivityReady {
            instance: InstanceId(n),
            path: "Forward/S1".into(),
            attempt: 0,
            at,
        };
        let started = Event::InstanceStarted {
            instance: InstanceId(n),
            process: "saga8".into(),
            tenant: None,
            input: Container::empty(),
            at: 0,
        };
        [started, ready(1), ready(2), ready(3)]
    };
    let events = [instance(1), instance(2)].concat();
    let write = |name: &str, policy| {
        let path = dir.join(name);
        let journal = Journal::with_file_policy(&path, policy).unwrap();
        events.iter().for_each(|e| journal.append(e.clone()));
        journal.flush();
        std::fs::read(&path).unwrap()
    };
    let per_event = write("per-event.journal", DurabilityPolicy::PerEvent);
    let batched = write("batched.journal", DurabilityPolicy::Batched { n: 64 });
    assert_eq!(per_event, Journal::file_bytes(&events));
    // Two frames, not eight: six headers fewer, and the path named by
    // index where it was spelled out (11 bytes) four times.
    assert_eq!(batched.len() + 6 * 12 + 4 * 10, per_event.len());
    let (back, _) = Journal::read_file(&dir.join("batched.journal")).unwrap();
    assert_eq!(back, events);
    let _ = std::fs::remove_dir_all(&dir);
}
