//! `ShardPool::status` is a keyed lookup: what one call allocates does
//! not depend on how many instances the shard holds. (It used to build
//! `Engine::instances()` — a `String` per resident instance — to learn
//! one process name.) Counted on the calling thread, so the shard
//! worker's own allocations stay out of the window.

#[path = "../../../tests/support/counting.rs"]
mod counting;

use std::sync::Arc;
use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_model::{Container, ProcessBuilder};
use wfms_observe::Registry;
use wfms_server::{PoolConfig, ShardPool, SubmitOutcome};

#[global_allocator]
static A: counting::Counting = counting::Counting;

fn provision(_shard: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    registry.register_fn("ok", |_| ProgramOutcome::committed());
    (fed, registry)
}

/// Allocations of 100 `status` calls on `id`.
fn allocs_of_100_status_calls(pool: &ShardPool, id: u64) -> u64 {
    let before = counting::tally();
    for _ in 0..100 {
        let (process, ..) = pool.status(id).expect("the instance is resident");
        assert_eq!(process, "one");
    }
    (counting::tally() - before).allocs
}

#[test]
fn status_allocations_do_not_grow_with_resident_instances() {
    let dir = std::env::temp_dir().join(format!("wfms-status-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = PoolConfig::new(&dir);
    cfg.templates = vec![ProcessBuilder::new("one")
        .program("A", "ok")
        .build()
        .unwrap()];
    let pool = ShardPool::open(cfg, Arc::new(Registry::new()), &provision).unwrap();
    let submit = || match pool.submit("one", Container::empty()) {
        SubmitOutcome::Accepted { id, .. } => id,
        other => panic!("expected acceptance, got {other:?}"),
    };

    let first = submit();
    for _ in 1..100 {
        submit();
    }
    let at_100 = allocs_of_100_status_calls(&pool, first);
    for _ in 100..10_000 {
        submit();
    }
    assert_eq!(pool.instance_counts(), (0, 10_000, 0));
    let at_10k = allocs_of_100_status_calls(&pool, first);
    // A call allocates the process name and the version `String`s.
    assert_eq!(
        (at_100, at_10k),
        (2 * 100, 2 * 100),
        "status allocates the same at 10 000 resident instances as at 100"
    );
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}
