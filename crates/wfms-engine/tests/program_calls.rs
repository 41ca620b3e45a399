//! An engine resolves each program name once and runs every call in one
//! context; what it resolved must never outlive a registration. Each
//! test here registers after the engine has called the name, through the
//! `&self` registry the engine shares, and sees the next call run what
//! is registered now. The last test keeps the shape: the navigator
//! calls no program — it hands a program activity out as a dispatch —
//! and the engine's loop answers each through the engine's resolved
//! programs, not by name with a fresh context.

use std::path::Path;
use std::sync::Arc;
use txn_substrate::{KvProgram, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{Engine, Event, InstanceId, InstanceStatus};
use wfms_model::{Container, ProcessBuilder, RC_MEMBER};

/// An engine over one database `d` running the one-activity process
/// `one`, whose activity calls program `p`.
fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>, Engine) {
    let fed = MultiDatabase::new(0);
    fed.add_database("d");
    let programs = Arc::new(ProgramRegistry::new());
    let engine = Engine::new(Arc::clone(&fed), Arc::clone(&programs));
    let process = ProcessBuilder::new("one").program("A", "p").build();
    engine.register(process.expect("valid")).expect("registers");
    (fed, programs, engine)
}

/// Runs an instance of `one`: the return code its activity finished with.
fn run(engine: &Engine) -> i64 {
    let id = engine.start("one", Container::empty()).expect("registered");
    let status = engine.run_to_quiescence(id).expect("runs");
    assert_eq!(status, InstanceStatus::Finished);
    rc_of(engine, id)
}

fn rc_of(engine: &Engine, id: InstanceId) -> i64 {
    engine
        .events_for(id)
        .iter()
        .find_map(|ev| match ev {
            Event::ActivityFinished { output, .. } => match output.get(RC_MEMBER) {
                Some(Value::Int(rc)) => Some(*rc),
                other => panic!("RC is {other:?}"),
            },
            _ => None,
        })
        .expect("the activity finished")
}

fn peek(fed: &MultiDatabase) -> Option<Value> {
    fed.db("d").expect("provisioned").peek("k")
}

#[test]
fn a_program_replaced_after_its_instances_ran_is_the_one_run_next() {
    let (fed, programs, engine) = world();
    programs.register(Arc::new(KvProgram::write("p", "d", "k", 1i64)));
    for _ in 0..3 {
        assert_eq!(run(&engine), 1);
    }
    assert_eq!(peek(&fed), Some(Value::Int(1)));
    programs.register(Arc::new(KvProgram::write("p", "d", "k", 2i64)));
    assert_eq!(run(&engine), 1);
    assert_eq!(peek(&fed), Some(Value::Int(2)), "the replacement ran");
}

#[test]
fn a_program_registered_after_its_template_first_ran_runs_at_the_next_instance() {
    let (fed, programs, engine) = world();
    assert_eq!(run(&engine), 0, "not registered: the call fails safe");
    assert_eq!(run(&engine), 0);
    assert_eq!(peek(&fed), None);
    programs.register(Arc::new(KvProgram::write("p", "d", "k", 3i64)));
    assert_eq!(run(&engine), 1);
    assert_eq!(peek(&fed), Some(Value::Int(3)));
}

#[test]
fn a_database_replaced_after_a_call_is_the_one_written() {
    let (fed, programs, engine) = world();
    programs.register(Arc::new(KvProgram::write("p", "d", "k", 4i64)));
    assert_eq!(run(&engine), 1);
    let first = fed.db("d").expect("provisioned");
    let second = fed.add_database("d");
    assert_eq!(run(&engine), 1);
    assert_eq!(second.peek("k"), Some(Value::Int(4)));
    assert_eq!(
        first.stats().committed,
        1,
        "the replaced database is left alone"
    );
}

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

/// The engine's loop calls the programs, through what the engine
/// resolved; the navigator's program arm only hands out the dispatch,
/// and names no way to call a program.
#[test]
fn the_navigator_calls_what_the_engine_resolved() {
    let code = code_of("navigator.rs");
    let arm = code
        .split("CompiledKind::Program(program) =>")
        .nth(1)
        .expect("the navigator has a program arm");
    let arm = &arm[..arm
        .find("CompiledKind::Block(")
        .expect("the block arm follows")];
    assert!(arm.contains("Some(Dispatch {"), "the arm: {arm}");
    for by_name in ["ProgramContext::new", "programs.invoke", "calls."] {
        assert!(!code.contains(by_name), "navigator.rs names `{by_name}`");
    }
    let engine = code_of("engine.rs");
    assert!(
        engine.contains("calls.answer(d)"),
        "the loop answers from `calls`"
    );
    assert!(!engine.contains("ProgramContext::new"));
}
