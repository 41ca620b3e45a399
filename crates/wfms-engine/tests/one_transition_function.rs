//! State changes by applying events, and in no other way: the engine's
//! state is one value with one owner, an event's effect on it is
//! written once (`EngineState::apply` and its per-instance half,
//! `effect`), replay folds that function over the journal and the
//! running engine `emit`s — effect, then append. The replay
//! differentials sample that property; this test keeps its *shape* by
//! reading the crate's own sources, so the day someone pairs a
//! transition with a `journal.append(` by hand again it fails here, not
//! in a divergence found months later.

use std::path::Path;

/// The eleven state transitions of `state.rs`, one per kind of effect.
const TRANSITIONS: [&str; 11] = [
    "activity_ready",
    "activity_started",
    "activity_finished",
    "activity_rescheduled",
    "activity_terminated",
    "connector_evaluated",
    "notification_sent",
    "instance_finished",
    "instance_cancelled",
    "seed_input",
    "migrate_to",
];

/// The code of `src/<file>`: no comment lines, nothing from the unit
/// tests (`#[cfg(test)]` to the end of the file) on.
fn code_of(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    text.lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| format!("{line}\n"))
        .collect()
}

fn count(file: &str, needle: &str) -> usize {
    code_of(file).matches(needle).count()
}

#[test]
fn the_navigator_decides_and_emits() {
    assert_eq!(count("navigator.rs", ".lock()"), 0, "no state of its own");
    assert_eq!(count("navigator.rs", "journal.append("), 0, "emit appends");
}

/// The files of `src/`, by name.
fn sources() -> Vec<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<String> = std::fs::read_dir(src)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    files
}

#[test]
fn every_transition_has_one_caller() {
    let mut files = sources();
    files.retain(|f| f != "state.rs");
    for name in TRANSITIONS {
        let call = format!("{name}(");
        let sites: Vec<_> = files
            .iter()
            .flat_map(|f| std::iter::repeat_n(f.as_str(), count(f, &call)))
            .collect();
        assert_eq!(sites, ["engine.rs"], "call sites of `{name}`");
    }
}

#[test]
fn one_append_in_emit_and_one_for_the_checkpoint() {
    let appends: usize = ["engine.rs", "navigator.rs", "recovery.rs"]
        .iter()
        .map(|f| count(f, "journal.append("))
        .sum();
    assert_eq!(appends, 2);
    let engine = code_of("engine.rs");
    let emit = engine.split("pub(crate) fn emit<E>(").nth(1).unwrap();
    let emit = &emit[..emit.find("\n}\n").unwrap()];
    assert!(emit.contains("journal.append(ev)"), "emit is where: {emit}");
    assert!(engine.contains("self.journal.append(Event::EngineCheckpoint {"));
}

/// What a scrape reads is state the events keep, not a walk over every
/// instance and work item ever held.
#[test]
fn the_tallies_are_read_not_recounted() {
    for (file, function) in [
        ("engine.rs", "pub fn instance_counts("),
        ("worklist.rs", "pub fn state_counts("),
    ] {
        let code = code_of(file);
        let body = code.split(function).nth(1).unwrap();
        let body = &body[..body.find("\n    }\n").unwrap()];
        assert!(!body.contains(".values()"), "{function} walks: {body}");
    }
}

/// The engine is the one owner of its state and its journal: cells,
/// not locks, so the compiler keeps every other thread out (the
/// `compile_fail` examples on `Engine` and `Journal`).
#[test]
fn one_state_one_owner() {
    assert_eq!(count("engine.rs", "RefCell<"), 1, "one cell");
    assert_eq!(count("engine.rs", "RefCell<EngineState>"), 1);
    assert_eq!(count("journal.rs", "RefCell<Log<Event>>"), 1);
    // No lock, once-cell or atomic anywhere but the crash sweep's
    // process-wide counter.
    for file in sources().iter().filter(|f| *f != "crashtest.rs") {
        for shared in ["Mutex", "RwLock", "OnceLock", "Atomic", "parking_lot"] {
            assert_eq!(count(file, shared), 0, "{file}: {shared}");
        }
    }
}
