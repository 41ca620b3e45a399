//! Shared workloads for the navigation benchmarks (B13 `nav_compiled`
//! and its `navbench` siblings): engines over a long chain process for
//! the compiled-vs-reference comparison, a constant-condition-heavy
//! process for the optimizer, and the pattern gallery.

use crate::World;
use std::sync::Arc;
use wfms_engine::{CompiledProcess, Engine, EngineConfig, InstanceStatus, Observer, RefEngine};
use wfms_model::{Container, ProcessBuilder, ProcessDefinition};

/// A reference interpreter (the string-keyed definition-walking
/// navigator kept as an executable specification) with `def`
/// registered. Registration happens once so per-run timing measures
/// navigation, not setup — mirror of [`compiled_engine`].
pub fn reference_engine(world: &World, def: &ProcessDefinition) -> RefEngine {
    let mut reference = RefEngine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    reference.register(def.clone());
    reference
}

/// A compiled engine with `def` registered (compiled at registration);
/// per-run timing then measures the indexed navigator alone.
pub fn compiled_engine(world: &World, def: &ProcessDefinition) -> Engine {
    let engine = Engine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    engine.register(def.clone()).expect("validated");
    engine
}

/// Starts one instance on the reference interpreter and drives it to
/// quiescence (the timed body of the `nav_compiled` baseline).
pub fn run_reference_once(reference: &mut RefEngine, process: &str) -> InstanceStatus {
    let id = reference.start(process, Container::empty());
    reference.run_to_quiescence(id)
}

/// Starts one instance on the compiled engine and drives it to
/// quiescence (the timed body of the `nav_compiled` measurement).
pub fn run_compiled_once(engine: &Engine, process: &str) -> InstanceStatus {
    let id = engine
        .start(process, Container::empty())
        .expect("template exists");
    engine.run_to_quiescence(id).expect("no step limit")
}

/// Like [`compiled_engine`], but with the observability layer turned
/// on (live metrics registry + trace sink). The `observe_overhead`
/// benchmark compares this against the default engine, whose observer
/// hooks collapse to a single branch on a disabled flag.
pub fn observed_engine(world: &World, def: &ProcessDefinition) -> Engine {
    let engine = Engine::with_config(
        Arc::clone(&world.0),
        Arc::clone(&world.1),
        EngineConfig {
            observer: Some(Arc::new(Observer::enabled())),
            ..EngineConfig::default()
        },
    );
    engine.register(def.clone()).expect("validated");
    engine
}

/// A constant-condition-heavy process for the `const_prune`
/// benchmark: a live chain of `gates` activities, each with an exit
/// condition `RC = 1` that pins the return code for everything
/// downstream. The connector to the next gate tests `RC = 1`
/// (propagation decides it true) and each gate also guards a
/// `dead_len` chain of activities behind `RC = 0` (decided false).
/// Syntactically every condition is environment-dependent — compile
/// time cannot fold any of them — but the optimizer's
/// condition-propagation pass decides every plan and prunes every
/// dead branch, so optimized navigation walks just the live chain
/// while the unoptimized template evaluates each condition and
/// dead-path eliminates the false branches instance by instance.
pub fn const_heavy_process(gates: usize, dead_len: usize) -> ProcessDefinition {
    use wfms_model::Activity;
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

/// Like [`compiled_engine`], but registers the raw compiled template
/// *without* running the optimizer — the baseline the `const_prune`
/// benchmark compares the analysis-driven optimization against.
pub fn unoptimized_engine(world: &World, def: &ProcessDefinition) -> Engine {
    let engine = Engine::new(Arc::clone(&world.0), Arc::clone(&world.1));
    let tpl = CompiledProcess::compile(def.clone());
    engine.register_compiled(Arc::new(tpl));
    engine
}

/// The workflow-pattern gallery shapes benchmarked by `navbench`'s
/// `patterns` section: a parallel split meeting at an AND-join, a
/// discriminator (OR-join race) and a composed 2-of-3 quorum. Chain
/// workloads exercise the sequential fast path; these exercise the
/// join bookkeeping (connector columns, AND/OR decisions, dead-path
/// elimination of the losing quorum pairs).
pub const PATTERN_WORKLOADS: &[&str] = &["parallel_split_sync", "discriminator", "n_of_m"];

/// Loads `examples/patterns/<name>.fdl` through the same import →
/// analyze route `fmtm run` takes and provisions a world whose
/// programs all commit — so per-run timing measures navigation of the
/// pattern's join structure, not program work.
pub fn pattern_workload(name: &str) -> (ProcessDefinition, World) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/patterns")
        .join(format!("{name}.fdl"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let (process, diags) =
        exotica::import_and_analyze(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(diags.is_empty(), "{name}: {diags:?}");
    let steps = exotica::steps_of_process(&process);
    let world = exotica::provision(&steps, 0, &[]);
    (process, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_process;

    #[test]
    fn reference_and_compiled_agree_on_chain() {
        let def = chain_process(20, "ok");
        let w = crate::plain_world(0);
        let mut reference = reference_engine(&w, &def);
        assert_eq!(
            run_reference_once(&mut reference, "chain"),
            InstanceStatus::Finished
        );
        let engine = compiled_engine(&w, &def);
        assert_eq!(
            run_compiled_once(&engine, "chain"),
            InstanceStatus::Finished
        );
    }

    #[test]
    fn observed_engine_records_latencies() {
        let def = chain_process(10, "ok");
        let w = crate::plain_world(0);
        let engine = observed_engine(&w, &def);
        assert_eq!(
            run_compiled_once(&engine, "chain"),
            InstanceStatus::Finished
        );
        let m = engine.metrics();
        let mut activities = m.family(wfms_engine::metrics::ACT_LATENCY_FAMILY);
        assert!(
            activities.any(|(_, s)| matches!(s, wfms_observe::Value::Summary(s) if s.count > 0))
        );
    }

    #[test]
    fn const_heavy_runs_identically_optimized_or_not() {
        let def = const_heavy_process(6, 3);
        let w = crate::plain_world(0);
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
