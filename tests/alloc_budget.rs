//! The allocation budget of the shapes the benchmark runs.
//!
//! `crates/wfms-engine/tests/steady_state_allocs.rs` pins a chain of
//! closure programs with empty containers — a workload with no
//! substrate transaction and no data flow. What `wfbench` measures is
//! the paper's own translations: the 8-step saga of Figure 2 and the
//! flexible transaction of Figures 3/4, taken through
//! `exotica::run_pipeline`, run against `exotica::provision`'s
//! three-site multidatabase of `KvProgram`s. This test counts heap
//! allocations per instance of exactly those shapes — in
//! `Engine::start` and in the whole start-and-run — and pins the
//! values, so a `String`, `BTreeMap` or `Vec` that creeps back into the
//! activity step trips it whichever layer it creeps into.
//!
//! One `#[test]` only: the counter is process-global and the harness
//! would run sibling tests on concurrent threads, polluting the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txn_substrate::{FailurePlan, Value};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::Container;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const WARM_UP: u64 = 200;
const INSTANCES: u64 = 2_000;

/// Allocations per instance `(inside Engine::start, start + run)` of
/// `process` over a world where every step in `failing` always aborts,
/// averaged (rounded up) over [`INSTANCES`] instances after
/// [`WARM_UP`]. Also returns the lock manager wake-ups the run caused.
fn per_instance(process: &str, failing: &[&str]) -> (u64, u64, u64) {
    let specs = [
        exotica::AtmSpec::Saga(atm::fixtures::linear_saga("saga8", 8)),
        exotica::AtmSpec::Flexible(atm::fixtures::figure3_spec()),
    ];
    let plans: Vec<(String, FailurePlan)> = failing
        .iter()
        .map(|label| ((*label).to_owned(), FailurePlan::Always))
        .collect();
    let (fed, programs) = exotica::provision(&exotica::steps_of_all(&specs), 7, &plans);
    let engine = Engine::new(Arc::clone(&fed), programs);
    for spec in &specs {
        let out = exotica::run_pipeline(&exotica::emit_spec(spec)).expect("fixture translates");
        engine.register_compiled(out.template);
    }

    let (mut in_start, mut total) = (0, 0);
    for i in 0..WARM_UP + INSTANCES {
        if i == WARM_UP {
            (in_start, total) = (0, 0);
        }
        let mut input = Container::empty();
        input.set("order", Value::Int(i as i64));
        let t0 = allocs();
        let id = engine.start(process, input).expect("registered");
        let t1 = allocs();
        let status = engine.run_to_quiescence(id).expect("runs");
        let t2 = allocs();
        assert_eq!(status, InstanceStatus::Finished);
        in_start += t1 - t0;
        total += t2 - t0;
    }
    let wakeups = fed
        .names()
        .iter()
        .map(|db| fed.db(db).expect("listed").lock_stats().wakeups)
        .sum();
    (
        in_start.div_ceil(INSTANCES),
        total.div_ceil(INSTANCES),
        wakeups,
    )
}

#[test]
fn the_benchmark_shapes_stay_inside_their_allocation_budget() {
    // A silently inert allocator hook would make every bound vacuous.
    let before = allocs();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert!(allocs() > before, "the allocator hook must count");

    // (shape, process, always-failing steps, budget per instance). The
    // budgets are the values this code reaches, debug and release
    // alike: an instance's three slab vectors and its ready heap, one
    // copy-on-write (one allocation: the reference count and the
    // members together) per scope output or mapped input that takes a
    // non-default value, an abort's reason string, and the amortised
    // growth of the instance map and the journal (`docs/performance.md`
    // has the table). Retiring the finished instance frees its slab
    // vectors and heap and allocates nothing: the four budgets read the
    // same before instances retired.
    for (shape, process, failing, budget) in [
        ("saga8 commit", "saga8", &[][..], 7),
        ("saga8 compensating at S6", "saga8", &["S6"][..], 11),
        ("Figure 3 p1", "figure3", &[][..], 8),
        ("Figure 3, T8 aborting", "figure3", &["T8"][..], 13),
    ] {
        let (in_start, total, wakeups) = per_instance(process, failing);
        println!("{shape}: {total} allocations per instance, {in_start} in Engine::start");
        assert!(
            total <= budget,
            "{shape}: {total} allocations per instance, budget {budget}"
        );
        assert!(
            in_start <= 5,
            "{shape}: {in_start} allocations in Engine::start, budget 5"
        );
        assert_eq!(
            wakeups, 0,
            "{shape}: a single-threaded run has no lock waiter to wake"
        );
    }
}
