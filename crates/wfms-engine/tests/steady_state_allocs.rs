//! Steady-state allocation discipline of the hot navigation path.
//!
//! The arena-backed instance state (`StateSlab`), copy-on-write
//! containers, interned journal paths and prototype-cloned outputs
//! exist so that a navigation step in steady state — ready pop,
//! program call, journal appends, connector evaluation, successor
//! scheduling — performs (amortized) **zero** heap allocations beyond
//! the event values the journal must retain. This test pins that with
//! a counting global allocator on the chain workload: after a warm-up
//! instance, the per-step allocation count must stay under a small
//! constant bound (growth of the journal `Vec`, the ready heap and
//! the substrate's transaction scratch all amortize).

#[path = "../../../tests/support/counting.rs"]
mod counting;

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::{Activity, Container, ControlConnector, Expr, ProcessDefinition};

#[global_allocator]
static A: counting::Counting = counting::Counting;

fn chain(n: usize) -> ProcessDefinition {
    let mut def = ProcessDefinition::new("chain");
    for i in 0..n {
        def.activities
            .push(Activity::program(&format!("A{i}"), "ok"));
    }
    for i in 1..n {
        def.control.push(ControlConnector {
            from: format!("A{}", i - 1),
            to: format!("A{i}"),
            condition: Expr::var_eq_int("RC", 1),
        });
    }
    def
}

#[test]
fn navigation_steps_are_amortized_allocation_free() {
    const CHAIN: usize = 250;
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    let engine = Engine::new(fed, registry);
    engine.register(chain(CHAIN)).unwrap();

    // Warm-up: first instance pays one-time costs (template caches,
    // journal and heap capacity growth, substrate setup).
    let warm = engine.start("chain", Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(warm).unwrap(),
        InstanceStatus::Finished
    );

    // Steady state: a fresh instance over the warmed engine. Instance
    // creation itself allocates (the slab columns); count only the
    // navigation steps.
    let id = engine.start("chain", Container::empty()).unwrap();
    let before = counting::tally();
    let mut steps = 0u64;
    while engine.step(id).unwrap() {
        steps += 1;
    }
    let during = (counting::tally() - before).allocs;
    assert_eq!(engine.status(id).unwrap(), InstanceStatus::Finished);
    assert_eq!(steps, CHAIN as u64, "one step per chain activity");

    // Each step appends journal events whose containers and paths are
    // shared (Arc clones), so the only per-step heap traffic left is
    // amortized growth of long-lived vectors plus the substrate's
    // per-transaction scratch (measured: 1 allocation across the
    // whole 250-step run). The bound leaves headroom for allocator
    // and library drift, but a single accidental per-step
    // String/format!/BTreeMap clone in the hot path costs ≥ 250 and
    // trips it immediately.
    assert!(
        during < 64,
        "expected amortized-zero allocations per navigation step, \
         measured {during} over {steps} steps ({:.2}/step)",
        during as f64 / steps as f64
    );
}
