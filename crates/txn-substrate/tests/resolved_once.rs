//! A program call resolves its site through its context: `KvProgram`
//! takes its database from the context's site cache, which reads the
//! federation's lock once per site and stamp, never from the federation
//! on every call. This test keeps that shape by reading the crate's own
//! sources; `program.rs`'s unit tests check that a site added or
//! replaced after a call is the one written.

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

#[test]
fn a_kv_program_takes_its_database_from_the_context() {
    let code = code_of("program.rs");
    let run = code
        .split("impl TxnProgram for KvProgram {")
        .nth(1)
        .expect("KvProgram is a program");
    let run = &run[..run.find("\n}\n").expect("the impl ends")];
    assert!(run.contains("sites.resolve("), "KvProgram::run: {run}");
    assert!(!run.contains("multidb.db("), "KvProgram::run: {run}");
}

#[test]
fn an_unplanned_decision_is_answered_before_the_lock() {
    let code = code_of("inject.rs");
    let decide = code
        .split("pub fn decide(&self, label: &str) -> FailureAction {")
        .nth(1)
        .expect("the injector decides");
    let (before, _) = decide
        .split_once("self.plans.lock()")
        .expect("a planned label takes the lock");
    assert!(
        before.contains("self.planned.load(Ordering::Acquire)"),
        "decide: {before}"
    );
}
