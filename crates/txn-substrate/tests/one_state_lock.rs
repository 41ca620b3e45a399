//! A local database takes one lock per operation: its store, its log,
//! its undo lists, its transaction ids and its counters live in one
//! `State` behind one mutex, and the lock table keeps its own (a lock
//! wait sleeps, so it must not hold the state's). `db.rs`'s
//! `a_record_lock_wait_holds_no_database_lock` checks the lock order;
//! this test keeps the *shape* by reading the crate's own sources, so
//! the day a lock or an atomic creeps back into the store or the log —
//! each operation paying for it again — it fails here.

use std::path::Path;

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
fn the_store_and_the_log_take_no_lock_of_their_own() {
    for file in ["storage.rs", "wal.rs"] {
        for shared in ["Mutex", "RwLock", "Atomic"] {
            assert_eq!(count(file, shared), 0, "{file}: {shared}");
        }
    }
}

#[test]
fn a_database_has_one_state_lock_and_counts_under_it() {
    assert_eq!(count("db.rs", "Mutex<"), 1, "one lock");
    assert_eq!(count("db.rs", "Mutex<State>"), 1);
    // A counter is a plain integer in `State`; `Reading::Counter` is
    // only the kind a count is exposed as.
    let live = code_of("db.rs").replace("Reading::Counter(", "");
    assert!(!live.contains("Counter"), "a live counter in db.rs");
}
