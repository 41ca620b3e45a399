//! What a program call and an instance cost, counted.
//!
//! A rate moves from run to run; a count does not. This test counts,
//! on the thread that runs the instances, heap allocations (through
//! `support/counting.rs`, the allocator every allocation test
//! installs) and lock round-trips (`Mutex::lock`, `RwLock::read`,
//! `RwLock::write`) and condition-variable notifications (through the
//! `parking_lot` shim's `count` feature; every lock in the workspace is
//! the shim's), and pins them:
//!
//! * per `KvProgram` call, through the engine: a one-activity process,
//!   its label without a failure plan and with one. The engine takes no
//!   lock of its own, so an instance of it is one call;
//! * per instance of the shapes the benchmark runs: the 8-step saga of
//!   Figure 2 and the flexible transaction of Figures 3/4, through
//!   `exotica::run_pipeline` over `exotica::provision`'s three-site
//!   multidatabase of `KvProgram`s. Allocations are pinned in
//!   `Engine::start` and in the whole start-and-run, so a `String`,
//!   `BTreeMap` or `Vec` that creeps back into the activity step trips
//!   it whichever layer it creeps into;
//! * per reopened instance: the events `Engine::open` reads and applies
//!   of a journal of committed saga8 instances under `Batched`.
//!
//! A call's own transaction is five round-trips on its database: the
//! state lock at begin, at the write and at commit, and the lock table
//! at acquire and at release. Anything above that is sharing: before
//! programs, sites and plans were resolved once per engine, a call also
//! read the program registry and the federation under their `RwLock`s
//! and took the injector's mutex twice (its label and `"<db>/commit"`),
//! nine in all, and the four shapes read 72, 93, 54 and 75. A change
//! that moves a count re-pins it here with the reason beside it.

#[path = "support/counting.rs"]
mod counting;

use parking_lot::count::{counts, Counts};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry, Value};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::{Container, ProcessBuilder};

#[global_allocator]
static A: counting::Counting = counting::Counting;

const WARM_UP: u64 = 200;
const INSTANCES: u64 = 2_000;

/// What one instance costs, from `Engine::start` to quiescence.
#[derive(Debug)]
struct Cost {
    /// Allocations, averaged (rounded up).
    allocs: u64,
    /// Of which inside `Engine::start`, averaged (rounded up).
    in_start: u64,
    /// Lock round-trips and notifications, exactly.
    locks: Counts,
}

/// What one instance of `process` costs on `engine`, after [`WARM_UP`]
/// instances resolved what the engine resolves once, over
/// [`INSTANCES`] instances, each of which must take exactly the same
/// locks.
fn per_instance(engine: &Engine, process: &str) -> Cost {
    let (mut allocs, mut in_start, mut locks) = (0, 0, None);
    for i in 0..WARM_UP + INSTANCES {
        let mut input = Container::empty();
        input.set("order", Value::Int(i as i64));
        let (tally, count) = (counting::tally(), counts());
        let id = engine.start(process, input).expect("registered");
        let started = counting::tally() - tally;
        let status = engine.run_to_quiescence(id).expect("runs");
        assert_eq!(status, InstanceStatus::Finished);
        if i >= WARM_UP {
            allocs += (counting::tally() - tally).allocs;
            in_start += started.allocs;
            let spent = counts() - count;
            assert_eq!(
                *locks.get_or_insert(spent),
                spent,
                "{process}: instance {i} pays what the others do"
            );
        }
    }
    Cost {
        allocs: allocs.div_ceil(INSTANCES),
        in_start: in_start.div_ceil(INSTANCES),
        locks: locks.expect("instances ran"),
    }
}

/// `lock` mutex round-trips, and no other lock call.
fn mutexes(lock: u64) -> Counts {
    Counts {
        lock,
        ..Counts::default()
    }
}

#[test]
fn a_program_call_pays_for_its_own_transaction() {
    // Per call: the database's five, all mutexes. A planned label's
    // decision takes the injector's lock (and proceeds: `Never`).
    for (what, plan, round_trips) in [
        ("KvProgram call, no plan", None, 5),
        ("KvProgram call, planned label", Some(FailurePlan::Never), 6),
    ] {
        let fed = MultiDatabase::new(7);
        fed.add_database("d");
        let programs = Arc::new(ProgramRegistry::new());
        programs.register(Arc::new(KvProgram::write("p", "d", "k", 1i64)));
        if let Some(plan) = plan {
            fed.injector().set_plan("p", plan);
        }
        let engine = Engine::new(fed, programs);
        let process = ProcessBuilder::new("one").program("A", "p").build();
        engine.register(process.expect("valid")).expect("registers");
        let got = per_instance(&engine, "one").locks;
        println!("{what}: {} round-trips {got:?}", got.round_trips());
        assert_eq!(got, mutexes(round_trips), "{what}");
    }
}

#[test]
fn the_benchmark_shapes_stay_inside_their_allocation_budget() {
    // (shape, process, always-failing steps, allocations, round-trips)
    // per instance.
    //
    // The allocation budgets are the values this code reaches, debug
    // and release alike: an instance's three slab vectors and its ready
    // heap, one copy-on-write (one allocation: the reference count and
    // the members together) per scope output or mapped input that takes
    // a non-default value, an abort's reason string, and the amortised
    // growth of the instance map and the journal (`docs/performance.md`
    // has the table). Retiring the finished instance frees its slab
    // vectors and heap and allocates nothing: the four budgets read the
    // same before instances retired.
    //
    // The round-trips are exact: five per committing call, one for a
    // call whose planned label aborts before its transaction begins.
    // The saga compensating at S6 makes 5 forward calls, the aborted S6
    // and 5 compensations; Figure 3 with T8 aborting commits T1 T2 T4
    // T5 T6, aborts T8, compensates T6 and T5 and commits T7 on path p2.
    for (shape, process, failing, budget, round_trips) in [
        ("saga8 commit", "saga8", &[][..], 7, 40),
        ("saga8 compensating at S6", "saga8", &["S6"][..], 11, 51),
        ("Figure 3 p1", "figure3", &[][..], 8, 30),
        ("Figure 3, T8 aborting", "figure3", &["T8"][..], 13, 41),
    ] {
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

        let cost = per_instance(&engine, process);
        println!("{shape}: {cost:?} per instance");
        assert!(
            cost.allocs <= budget,
            "{shape}: {} allocations per instance, budget {budget}",
            cost.allocs
        );
        assert!(
            cost.in_start <= 5,
            "{shape}: {} allocations in Engine::start, budget 5",
            cost.in_start
        );
        assert_eq!(cost.locks, mutexes(round_trips), "{shape}");
        let wakeups: u64 = fed
            .names()
            .iter()
            .map(|db| fed.db(db).expect("listed").lock_stats().wakeups)
            .sum();
        assert_eq!(
            wakeups, 0,
            "{shape}: a single-threaded run has no lock waiter to wake"
        );
    }
}

/// What reopening costs a committed saga8, counted in events: the
/// events `Engine::open` hands `EngineState::apply`. Under `Batched` an
/// instance that runs between two flushes is one frame, so a finished
/// one is applied as its start and its finish: 2 of the 47 events it
/// journals. Before replay applied a frame at a time, every event read
/// was applied, 47 per instance.
#[test]
fn a_reopened_committed_saga_applies_its_start_and_its_finish() {
    const REOPENED: u64 = 256;
    let dir = std::env::temp_dir().join(format!("wftx-census-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = exotica::AtmSpec::Saga(atm::fixtures::linear_saga("saga8", 8));
    let def = exotica::run_pipeline(&exotica::emit_spec(&spec))
        .expect("saga8 translates")
        .template
        .def
        .as_ref()
        .clone();
    for per_flush in [1, 16] {
        let open = || {
            let steps = exotica::steps_of_all(std::slice::from_ref(&spec));
            let (fed, programs) = exotica::provision(&steps, 7, &[]);
            let config = wfms_engine::EngineConfig {
                journal_path: Some(dir.join(format!("per-{per_flush}.journal"))),
                durability: txn_substrate::DurabilityPolicy::Batched { n: 64 },
                ..wfms_engine::EngineConfig::default()
            };
            Engine::open(fed, programs, config, vec![def.clone()]).expect("opens")
        };
        let engine = open();
        for i in 1..=REOPENED {
            let mut input = Container::empty();
            input.set("order", Value::Int(i as i64));
            let id = engine.start("saga8", input).expect("registered");
            assert_eq!(
                engine.run_to_quiescence(id).unwrap(),
                InstanceStatus::Finished
            );
            if i % per_flush == 0 {
                engine.flush_journal().unwrap();
            }
        }
        drop(engine);
        let replayed = open().replayed();
        println!("saga8 reopened, a flush per {per_flush}: {replayed:?}");
        assert_eq!(
            (replayed.read, replayed.applied),
            (47 * REOPENED, 2 * REOPENED),
            "a flush per {per_flush}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The counting allocator's own test: a tally is the calling thread's,
/// whatever another thread allocates meanwhile, and a block stays live
/// in the tally of the thread that allocated it wherever it is freed.
/// A process-wide counter fails every assertion here.
#[test]
fn a_tally_counts_only_the_calling_thread() {
    let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let handed = Mutex::new(None::<Vec<u8>>);
    let freed = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                black_box(Box::new(0u64));
                started.store(true, Ordering::Relaxed);
                if let Some(block) = handed.lock().unwrap().take() {
                    drop(block);
                    freed.store(true, Ordering::Release);
                }
            }
        });
        while !started.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }

        let mut kept = Vec::with_capacity(98);
        let before = counting::tally();
        for i in 0..98u64 {
            kept.push(Box::new(i));
        }
        let mut grown = Vec::<u8>::with_capacity(16);
        let block = black_box(vec![7u8; 1000]);
        grown.reserve_exact(4096);
        *handed.lock().unwrap() = Some(block);
        while !freed.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let spent = counting::tally() - before;
        stop.store(true, Ordering::Relaxed);
        black_box((&kept, &grown));

        // 98 boxes, the two vectors, one `realloc`.
        assert_eq!(spent.allocs, 101);
        assert_eq!(spent.bytes, 98 * 8 + 16 + 1000 + 4096);
        // The block freed on the other thread is still live here.
        assert_eq!(spent.live, 98 * 8 + 1000 + 4096);
        let mut by_size = [0; counting::CLASSES];
        (by_size[1], by_size[125], by_size[512]) = (98, 1, 1);
        assert_eq!(spent.by_size, by_size);
    });
}
