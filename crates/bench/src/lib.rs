//! Shared workload builders for the benchmark harness (one Criterion
//! bench per experiment in EXPERIMENTS.md, plus the `report` binary
//! that prints the per-figure tables).

pub mod nav;

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::{Container, ProcessBuilder, ProcessDefinition};

/// A provisioned world: federation + program registry.
pub type World = (Arc<MultiDatabase>, Arc<ProgramRegistry>);

/// A world with the saga fixture programs for `n` steps installed.
pub fn saga_world(n: usize, seed: u64) -> World {
    let fed = MultiDatabase::new(seed);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_saga_programs(&fed, &registry, n);
    (fed, registry)
}

/// A world with the Figure 3 programs installed.
pub fn figure3_world(seed: u64) -> World {
    let fed = MultiDatabase::new(seed);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_figure3_programs(&fed, &registry);
    (fed, registry)
}

/// Applies failure plans to a world.
pub fn script(world: &World, plans: &[(&str, FailurePlan)]) {
    for (label, plan) in plans {
        world.0.injector().set_plan(label, plan.clone());
    }
}

/// Runs the native saga executor once; returns true iff committed.
pub fn run_saga_native(world: &World, spec: &atm::SagaSpec) -> bool {
    let exec = atm::SagaExecutor::new(Arc::clone(&world.0), Arc::clone(&world.1));
    exec.run(spec).expect("well-formed").is_committed()
}

/// Runs the native flexible executor once; returns true iff committed.
pub fn run_flex_native(world: &World, spec: &atm::FlexSpec) -> bool {
    let exec = atm::FlexExecutor::new(Arc::clone(&world.0), Arc::clone(&world.1));
    exec.run(spec).expect("well-formed").is_committed()
}

/// Runs a translated process on a fresh engine over `world`; returns
/// true iff the process output reports `Committed = 1`.
pub fn run_workflow(world: &World, def: &ProcessDefinition) -> bool {
    let engine = Engine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    engine.register(def.clone()).expect("validated");
    let id = engine
        .start(&def.name, Container::empty())
        .expect("template exists");
    let status = engine.run_to_quiescence(id).expect("no step limit");
    assert_eq!(status, InstanceStatus::Finished);
    engine
        .output(id)
        .expect("instance exists")
        .get("Committed")
        .and_then(|v| v.as_int())
        == Some(1)
}

/// Runs a process that does not report `Committed` (plain workloads);
/// returns the engine for inspection.
pub fn run_process(world: &World, def: &ProcessDefinition) -> Engine {
    let engine = Engine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    engine.register(def.clone()).expect("validated");
    let id = engine
        .start(&def.name, Container::empty())
        .expect("template exists");
    engine.run_to_quiescence(id).expect("no step limit");
    engine
}

/// A linear chain process of `n` activities where the first activity's
/// program is `first_prog` and the rest run `ok`; used by the dead
/// path elimination benchmark (a failing head kills the whole chain).
pub fn chain_process(n: usize, first_prog: &str) -> ProcessDefinition {
    let mut b = ProcessBuilder::new("chain");
    for i in 0..n {
        let prog = if i == 0 { first_prog } else { "ok" };
        b = b.program(&format!("A{i}"), prog);
    }
    for i in 1..n {
        b = b.connect_when(&format!("A{}", i - 1), &format!("A{i}"), "RC = 1");
    }
    b.build().expect("chain validates")
}

/// A fan-out/fan-in diamond: one head, `width` parallel branches of
/// `depth` activities each, one AND-join tail.
pub fn diamond_process(width: usize, depth: usize, head_prog: &str) -> ProcessDefinition {
    let mut b = ProcessBuilder::new("diamond").program("Head", head_prog);
    for w in 0..width {
        for d in 0..depth {
            b = b.program(&format!("B{w}_{d}"), "ok");
        }
        b = b.connect_when("Head", &format!("B{w}_0"), "RC = 1");
        for d in 1..depth {
            b = b.connect_when(&format!("B{w}_{}", d - 1), &format!("B{w}_{d}"), "RC = 1");
        }
    }
    b = b.program("Tail", "ok");
    for w in 0..width {
        b = b.connect_when(&format!("B{w}_{}", depth - 1), "Tail", "RC = 1");
    }
    b.build().expect("diamond validates")
}

/// A world with `ok` (always commits) and `fail` (always aborts)
/// programs, backed by one database.
pub fn plain_world(seed: u64) -> World {
    let fed = MultiDatabase::new(seed);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| txn_substrate::ProgramOutcome::committed());
    registry.register_fn("fail", |_| {
        txn_substrate::ProgramOutcome::aborted("scripted")
    });
    registry.register(Arc::new(KvProgram::write("write_one", "db", "k", 1i64)));
    (fed, registry)
}

/// Simple monotonic-time measurement helper: runs `f` `iters` times
/// and returns the per-iteration mean in microseconds.
pub fn time_us(iters: u32, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saga_workloads_run() {
        let spec = fixtures::linear_saga("s", 4);
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        let w = saga_world(4, 0);
        assert!(run_saga_native(&w, &spec));
        let w2 = saga_world(4, 0);
        assert!(run_workflow(&w2, &def));
    }

    #[test]
    fn chain_and_diamond_build() {
        let w = plain_world(0);
        let chain = chain_process(16, "fail");
        let engine = run_process(&w, &chain);
        let s = wfms_engine::audit::summarize(&engine.journal_events(), wfms_engine::InstanceId(1));
        assert_eq!(s.eliminated, 15, "whole chain dead-path-eliminated");

        let d = diamond_process(3, 2, "ok");
        let w2 = plain_world(0);
        let engine2 = run_process(&w2, &d);
        let s2 =
            wfms_engine::audit::summarize(&engine2.journal_events(), wfms_engine::InstanceId(1));
        assert_eq!(s2.executions, 3 * 2 + 2);
        assert_eq!(s2.eliminated, 0);
    }

    #[test]
    fn figure3_workloads_run() {
        let spec = fixtures::figure3_spec();
        let def = exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap();
        let w = figure3_world(0);
        script(&w, &[("T8", FailurePlan::Always)]);
        assert!(run_flex_native(&w, &spec));
        let w2 = figure3_world(0);
        script(&w2, &[("T8", FailurePlan::Always)]);
        assert!(run_workflow(&w2, &def));
    }
}
