//! Memory is bounded by what is live, not by what was ever logged.
//!
//! A log is its file followed by its memory: a mirrored journal keeps
//! an event only until its frame is written, and a database checkpoints
//! its own WAL once the log outgrows the store. This test counts live
//! heap bytes — allocated minus freed — around 20 000 instances of the
//! benchmark's 8-step saga (`exotica::run_pipeline` over
//! `exotica::provision`'s three-site multidatabase) and pins what one
//! *finished* instance leaves behind, on an in-memory engine (whose
//! journal is still a list: it has no file to be instead) and on one
//! mirrored under the serving policy; then checks that the WAL of a
//! busy database stays inside its checkpoint rule.
//!
//! One `#[test]` only: the counter is process-global and the harness
//! would run sibling tests on concurrent threads, polluting the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use txn_substrate::{Database, DbConfig, DurabilityPolicy, Value};
use wfms_engine::{Engine, EngineConfig, InstanceStatus};
use wfms_model::Container;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

const INSTANCES: i64 = 20_000;

/// Live heap bytes one finished saga8 instance leaves behind, on an
/// engine whose journal is in memory or mirrored to `journal` under
/// `Batched { n: 64 }`. On the mirrored engine the journal's resident
/// events are watched too: never a full batch, none after a flush.
fn bytes_per_finished_instance(journal: Option<&std::path::Path>) -> i64 {
    let spec = exotica::AtmSpec::Saga(atm::fixtures::linear_saga("saga8", 8));
    let (fed, programs) =
        exotica::provision(&exotica::steps_of_all(std::slice::from_ref(&spec)), 7, &[]);
    let engine = Engine::with_config(
        Arc::clone(&fed),
        programs,
        EngineConfig {
            journal_path: journal.map(std::path::Path::to_path_buf),
            durability: DurabilityPolicy::Batched { n: 64 },
            ..EngineConfig::default()
        },
    );
    let out = exotica::run_pipeline(&exotica::emit_spec(&spec)).expect("fixture translates");
    engine.register_compiled(out.template);

    let run = |n: i64| {
        for i in 0..n {
            let mut input = Container::empty();
            input.set("order", Value::Int(i));
            let id = engine.start("saga8", input).expect("registered");
            let status = engine.run_to_quiescence(id).expect("runs");
            assert_eq!(status, InstanceStatus::Finished);
            // Every seventh instance ends 329 events on: over a run the
            // samples land on every residue of the batch of 64.
            if journal.is_some() && i % 7 == 0 {
                let resident = engine.metrics().gauge("journal.resident_records").unwrap();
                assert!(
                    resident <= 63,
                    "{resident} events resident under Batched{{64}}"
                );
            }
        }
    };
    // Warm up past every one-off: lock-table keys, the slab's and the
    // pools' first growth, the first WAL checkpoint of each site.
    run(2_000);
    let before = live();
    run(INSTANCES);
    let per_instance = (live() - before) / INSTANCES;

    if journal.is_some() {
        engine.flush_journal().expect("flushes");
        let m = engine.metrics();
        let resident = m.gauge("journal.resident_records");
        assert_eq!(resident, Some(0), "a flush empties memory");
        assert_eq!(m.gauge("journal.events"), Some(47 * (2_000 + INSTANCES)));
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
    // 80 B) and the instance's slab stays; the three WALs no longer
    // grow. Mirrored, the journal's share goes too.
    let in_memory = bytes_per_finished_instance(None);
    let mirrored = bytes_per_finished_instance(Some(&dir.join("engine.journal")));
    println!("live bytes per finished saga8: {in_memory} in memory, {mirrored} mirrored");
    assert!(in_memory <= 7_000, "{in_memory} B per instance in memory");
    assert!(mirrored <= 3_000, "{mirrored} B per instance mirrored");

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
