//! Memory is bounded by what is live, not by what was ever logged.
//!
//! A log is its file followed by its unwritten frames: a mirrored
//! journal keeps an event only as its encoded frame, written at the
//! next barrier or once the writer's buffer passes its cap, and a
//! database checkpoints its own WAL once the log outgrows the store.
//! This test counts live heap bytes — allocated minus freed — around
//! 20 000 instances of each of the benchmark's two shapes, the 8-step
//! saga and the Figure 3 flexible transaction (`exotica::run_pipeline`
//! over `exotica::provision`'s three-site multidatabase), and pins what
//! one *finished* instance leaves behind, on an in-memory engine (whose
//! journal is still a list: it has no file to be instead) and on one
//! mirrored under the serving policy; then checks that the WAL of a
//! busy database stays inside its checkpoint rule.
//!
//! The allocator also counts live allocations by size class, and every
//! measurement prints what one instance keeps per class (`--nocapture`,
//! or with the output of a failing bound): when a bound trips, the
//! histogram names the allocation that grew.
//!
//! One `#[test]` only: the counter is process-global and the harness
//! would run sibling tests on concurrent threads, polluting the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use txn_substrate::durability::BUFFER_CAP;
use txn_substrate::{Database, DbConfig, DurabilityPolicy, Value};
use wfms_engine::{Engine, EngineConfig, InstanceStatus};
use wfms_model::Container;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

/// Size classes: 8-byte steps up to 4 KiB (class `i` holds sizes in
/// `(8 × (i − 1), 8 × i]`), then one class for everything larger.
const CLASSES: usize = 513;

/// Live allocations per size class.
static BY_SIZE: [AtomicI64; CLASSES] = [const { AtomicI64::new(0) }; CLASSES];

fn class(size: usize) -> &'static AtomicI64 {
    &BY_SIZE[size.div_ceil(8).min(CLASSES - 1)]
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        class(layout.size()).fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        class(layout.size()).fetch_sub(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        class(layout.size()).fetch_sub(1, Ordering::Relaxed);
        class(new_size).fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Live allocations per size class, read without allocating.
fn by_size() -> [i64; CLASSES] {
    std::array::from_fn(|i| BY_SIZE[i].load(Ordering::Relaxed))
}

const INSTANCES: i64 = 20_000;

/// What one instance keeps per size class between two [`by_size`]
/// readings: a row per class it keeps at least a hundredth of an
/// allocation of.
fn histogram(before: &[i64; CLASSES], after: &[i64; CLASSES]) -> String {
    let mut rows = String::new();
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        let per_instance = (a - b) as f64 / INSTANCES as f64;
        if per_instance.abs() >= 0.01 {
            let size = if i == CLASSES - 1 {
                format!("> {}", 8 * (CLASSES - 1))
            } else {
                format!("<= {}", 8 * i)
            };
            rows += &format!("  {size:>8} B  {per_instance:>6.2}\n");
        }
    }
    rows
}

/// Live heap bytes one finished instance of `spec` leaves behind, on an
/// engine whose journal is in memory or mirrored to `journal` under
/// `Batched`, an instance journalling `events`, measured after a
/// barrier. On the mirrored engine the journal's resident events are
/// watched too: no more than its writer's byte cap holds (the cap, and
/// not a barrier, writes here: the run makes none), none after a
/// flush; and what an instance leaves must not depend on how many ran
/// — the bytes per instance after twice as many agree within 5 %.
/// Prints the live allocations per instance by size class under
/// `label`.
fn bytes_per_finished_instance(
    label: &str,
    spec: &exotica::AtmSpec,
    events: i64,
    journal: Option<&std::path::Path>,
) -> i64 {
    let (fed, programs) =
        exotica::provision(&exotica::steps_of_all(std::slice::from_ref(spec)), 7, &[]);
    let engine = Engine::with_config(
        Arc::clone(&fed),
        programs,
        EngineConfig {
            journal_path: journal.map(std::path::Path::to_path_buf),
            durability: DurabilityPolicy::Batched { n: 64 },
            ..EngineConfig::default()
        },
    );
    let out = exotica::run_pipeline(&exotica::emit_spec(spec)).expect("fixture translates");
    let process = out.template.name().to_owned();
    engine.register_compiled(out.template);

    let run = |n: i64| {
        for i in 0..n {
            let mut input = Container::empty();
            input.set("order", Value::Int(i));
            let id = engine.start(&process, input).expect("registered");
            let status = engine.run_to_quiescence(id).expect("runs");
            assert_eq!(status, InstanceStatus::Finished);
            // Every seventh instance, once the cap has written, the
            // resident events fit the cap: at the file's bytes per
            // event, with 5 % for where the cap split a frame.
            if journal.is_some() && i % 7 == 0 {
                let m = engine.metrics();
                let resident = m.gauge("journal.resident_records").unwrap();
                let written = m.gauge("journal.events").unwrap() - resident;
                let file = m.gauge("journal.file_bytes").unwrap();
                let cap = BUFFER_CAP as i64;
                assert!(
                    written == 0 || resident * file * 100 <= cap * written * 105,
                    "{resident} events resident, {written} in {file} B of file"
                );
            }
        }
    };
    // Warm up past every one-off: lock-table keys, the slab's and the
    // pools' first growth, the first WAL checkpoint of each site, the
    // journal writer's buffer grown past its cap.
    run(2_000);
    engine.flush_journal().expect("flushes");
    let classes = by_size();
    let before = live();
    run(INSTANCES);
    engine.flush_journal().expect("flushes");
    let per_instance = (live() - before) / INSTANCES;
    println!(
        "{label}: {per_instance} B per finished instance; live allocations per instance by size:\n{}",
        histogram(&classes, &by_size())
    );

    if journal.is_some() {
        run(INSTANCES);
        let m = engine.metrics();
        assert!(
            m.gauge("journal.resident_records") < m.gauge("journal.events"),
            "the cap wrote without a barrier"
        );
        engine.flush_journal().expect("flushes");
        let twice = (live() - before) / (2 * INSTANCES);
        println!(
            "{label}: {twice} B per finished instance after {}",
            2 * INSTANCES
        );
        assert!(
            (twice - per_instance).abs() * 20 <= per_instance,
            "{label}: {per_instance} B per instance after {INSTANCES}, {twice} B after twice as many"
        );
        let m = engine.metrics();
        let resident = m.gauge("journal.resident_records");
        assert_eq!(resident, Some(0), "a flush empties memory");
        assert_eq!(
            m.gauge("journal.events"),
            Some(events * (2_000 + 2 * INSTANCES))
        );
    }
    per_instance
}

#[test]
fn memory_is_bounded_and_the_file_plus_memory_is_the_log() {
    // A silently inert allocator hook would make every bound vacuous.
    let before = live();
    let probe = std::hint::black_box(vec![0u8; 4096]);
    assert!(live() >= before + 4096, "the allocator hook must count");
    drop(probe);

    let dir = std::env::temp_dir().join(format!("wftx-log-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // In memory the journal is the list it has to be (47 events of
    // 80 B for saga8); the three WALs no longer grow. Mirrored, the
    // journal's share goes too, and a finished instance is retired:
    // what is left is its entry in the instance table and its process
    // output, one name-ordered allocation. The bounds are the values
    // reached plus some 3 %. While a finished instance kept its slab
    // they were 5 900 / 2 150 B for saga8 and 10 150 / 2 050 B for
    // Figure 3; over B-tree containers (a 544 B leaf behind each map)
    // before that, 6 562 / 2 892 B and 11 301 / 3 436 B.
    for (label, spec, events, in_memory_bound, mirrored_bound) in [
        (
            "saga8",
            exotica::AtmSpec::Saga(atm::fixtures::linear_saga("saga8", 8)),
            47,
            4_680,
            345,
        ),
        (
            "Figure 3",
            exotica::AtmSpec::Flexible(atm::fixtures::figure3_spec()),
            49,
            8_965,
            493,
        ),
    ] {
        let in_memory =
            bytes_per_finished_instance(&format!("{label}, in memory"), &spec, events, None);
        let mirrored = bytes_per_finished_instance(
            &format!("{label}, mirrored"),
            &spec,
            events,
            Some(&dir.join(format!("{label}.journal"))),
        );
        assert!(
            in_memory <= in_memory_bound,
            "{label}: {in_memory} B per instance in memory, bound {in_memory_bound}"
        );
        assert!(
            mirrored <= mirrored_bound,
            "{label}: {mirrored} B per instance mirrored, bound {mirrored_bound}"
        );
    }

    // A database that stays busy keeps its log inside the checkpoint
    // rule — max(4096, 4 × keys) records since the last checkpoint,
    // plus the transaction that trips it and the checkpoint itself —
    // and recovers from it to exactly what it held.
    let db = Database::new(DbConfig::named("busy"));
    for i in 0..100_000i64 {
        let mut t = db.begin();
        t.put(&format!("k{}", i % 16), i).unwrap();
        t.commit().unwrap();
    }
    let records = db.wal_records().len();
    assert!(records <= 4096 + 8, "{records} WAL records resident");
    assert_eq!(db.wal_stats().resident_records, records as u64);
    assert!(db.wal_stats().checkpoints >= 20);
    let snapshot = db.snapshot();
    db.crash();
    db.recover();
    assert_eq!(db.snapshot(), snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}
