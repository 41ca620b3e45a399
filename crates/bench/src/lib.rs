//! Shared workload builders for the `report` binary, the one producer
//! of EXPERIMENTS.md's tables.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry};
use wfms_engine::{CompiledProcess, Engine, InstanceStatus, RefEngine};
use wfms_model::{Activity, Container, ProcessBuilder, ProcessDefinition};

/// A provisioned world: federation + program registry.
pub type World = (Arc<MultiDatabase>, Arc<ProgramRegistry>);

/// A world with the saga fixture programs for `n` steps installed.
pub fn saga_world(n: usize, seed: u64) -> World {
    let fed = MultiDatabase::new(seed);
    let registry = Arc::new(ProgramRegistry::new());
    fixtures::register_saga_programs(&fed, &registry, n);
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

/// A reference interpreter (the string-keyed definition-walking
/// navigator kept as an executable specification) with `def`
/// registered once, so per-run timing measures navigation, not setup.
pub fn reference_engine(world: &World, def: &ProcessDefinition) -> RefEngine {
    let mut reference = RefEngine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    reference.register(def.clone());
    reference
}

/// A compiled engine with `def` registered (compiled and optimized at
/// registration); per-run timing then measures the indexed navigator.
pub fn compiled_engine(world: &World, def: &ProcessDefinition) -> Engine {
    let engine = Engine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    engine.register(def.clone()).expect("validated");
    engine
}

/// Like [`compiled_engine`], but registers the raw compiled template
/// without running the optimizer: the baseline of B13's `const_heavy`
/// row.
pub fn unoptimized_engine(world: &World, def: &ProcessDefinition) -> Engine {
    let engine = Engine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    engine.register_compiled(Arc::new(CompiledProcess::compile(def.clone())));
    engine
}

/// Starts one instance on the reference interpreter and drives it to
/// quiescence.
pub fn run_reference_once(reference: &mut RefEngine, process: &str) -> InstanceStatus {
    let id = reference.start(process, Container::empty());
    reference.run_to_quiescence(id)
}

/// Starts one instance on a compiled engine and drives it to
/// quiescence.
pub fn run_compiled_once(engine: &Engine, process: &str) -> InstanceStatus {
    let id = engine
        .start(process, Container::empty())
        .expect("template exists");
    engine.run_to_quiescence(id).expect("no step limit")
}

/// A constant-condition-heavy process: a live chain of `gates`
/// activities, each with the exit condition `RC = 1`, which pins the
/// return code for everything downstream. The connector to the next
/// gate tests `RC = 1` (propagation decides it true) and each gate also
/// guards a `dead_len` chain behind `RC = 0` (decided false). Compile
/// time can fold none of these conditions, but the optimizer's
/// condition propagation decides every plan and prunes every dead
/// branch, so optimized navigation walks just the live chain while the
/// unoptimized template evaluates each condition and dead-path
/// eliminates the false branches instance by instance.
pub fn const_heavy_process(gates: usize, dead_len: usize) -> ProcessDefinition {
    let mut b = ProcessBuilder::new("const_heavy");
    for g in 0..gates {
        b = b.activity(Activity::program(&format!("G{g}"), "ok").with_exit("RC = 1"));
    }
    for g in 1..gates {
        b = b.connect_when(&format!("G{}", g - 1), &format!("G{g}"), "RC = 1");
    }
    for g in 0..gates {
        for d in 0..dead_len {
            b = b.program(&format!("D{g}_{d}"), "ok");
        }
        b = b.connect_when(&format!("G{g}"), &format!("D{g}_0"), "RC = 0");
        for d in 1..dead_len {
            b = b.connect(&format!("D{g}_{}", d - 1), &format!("D{g}_{d}"));
        }
    }
    b.build().expect("const_heavy validates")
}

/// The workflow-pattern gallery shapes (`examples/patterns/`): a
/// parallel split meeting at an AND-join, a discriminator (OR-join
/// race) and a composed 2-of-3 quorum. Chains exercise the sequential
/// fast path; these exercise the join bookkeeping (AND/OR decisions,
/// dead-path elimination of the losing quorum pairs).
pub const PATTERN_WORKLOADS: &[&str] = &["parallel_split_sync", "discriminator", "n_of_m"];

/// Loads `examples/patterns/<name>.fdl` through the import → analyze
/// route `fmtm run` takes and provisions a world whose programs all
/// commit, so per-run timing measures the pattern's navigation.
pub fn pattern_workload(name: &str) -> (ProcessDefinition, World) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/patterns")
        .join(format!("{name}.fdl"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let imported = exotica::import(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        imported.diagnostics.is_empty(),
        "{name}: {:?}",
        imported.diagnostics
    );
    let world = exotica::provision(&exotica::steps_of_process(&imported.process), 0, &[]);
    (imported.process, world)
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
    fn a_failing_chain_head_eliminates_the_chain() {
        let w = plain_world(0);
        let chain = chain_process(16, "fail");
        let engine = run_process(&w, &chain);
        let s = wfms_engine::audit::summarize(&engine.journal_events(), wfms_engine::InstanceId(1));
        assert_eq!(s.eliminated, 15, "whole chain dead-path-eliminated");
    }

    #[test]
    fn const_heavy_runs_identically_optimized_or_not() {
        let def = const_heavy_process(6, 3);
        let w = plain_world(0);
        // The optimizer has real work to do on this shape…
        let (_, stats) = wfms_engine::optimize::optimize(&CompiledProcess::compile(def.clone()));
        assert!(stats.plans_fixed > 0, "constant plans should be decided");
        assert_eq!(stats.dead_acts, 6 * 3, "every dead-branch activity pruned");
        // …and both templates drive an instance to the same end state.
        let unopt = unoptimized_engine(&w, &def);
        assert_eq!(
            run_compiled_once(&unopt, "const_heavy"),
            InstanceStatus::Finished
        );
        let opt = compiled_engine(&w, &def);
        assert_eq!(
            run_compiled_once(&opt, "const_heavy"),
            InstanceStatus::Finished
        );
    }

    #[test]
    fn pattern_workloads_run_on_both_navigators() {
        for name in PATTERN_WORKLOADS {
            let (def, w) = pattern_workload(name);
            let mut reference = reference_engine(&w, &def);
            assert_eq!(
                run_reference_once(&mut reference, &def.name),
                InstanceStatus::Finished,
                "{name} on the reference interpreter"
            );
            let engine = compiled_engine(&w, &def);
            assert_eq!(
                run_compiled_once(&engine, &def.name),
                InstanceStatus::Finished,
                "{name} on the compiled engine"
            );
        }
    }
}
