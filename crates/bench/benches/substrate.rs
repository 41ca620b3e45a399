//! Experiment B8 — substrate validation: local-database transaction
//! throughput under rising contention, and the deadlock-abort rate.
//!
//! Shape claim: single-thread throughput is flat; with more threads on
//! few keys, throughput saturates and deadlock aborts appear — the
//! unilateral aborts the flexible-transaction model is built around.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use txn_substrate::{Database, DbConfig};

fn uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(40);
    group.bench_function("rw_txn_single_thread", |b| {
        let db = Database::new(DbConfig::named("d"));
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("k{}", i % 64);
            i += 1;
            let mut t = db.begin();
            let cur = t.get(&key).unwrap().and_then(|v| v.as_int()).unwrap_or(0);
            t.put(&key, cur + 1).unwrap();
            t.commit().unwrap();
        })
    });
    group.bench_function("wal_replay_10k_updates", |b| {
        let db = Database::new(DbConfig::named("d"));
        for i in 0..10_000u64 {
            let mut t = db.begin();
            t.put(&format!("k{}", i % 256), i as i64).unwrap();
            t.commit().unwrap();
        }
        // The database checkpointed itself on the way (30 000 records
        // against a rule of max(4096, 4 × 256 keys)), so a replay
        // installs the last checkpoint's keys and redoes what the log
        // has grown by since — not all 10 000 updates.
        let before = db.snapshot();
        b.iter(|| {
            db.crash();
            let replayed = db.recover();
            assert!(replayed <= 256 + 4096, "{replayed} updates replayed");
            assert_eq!(db.snapshot(), before);
        })
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("contended_increment_threads", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let db = Arc::new(Database::new(DbConfig::named("d")));
                    let per = (iters as usize / threads).max(1);
                    let start = std::time::Instant::now();
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let db = Arc::clone(&db);
                            s.spawn(move || {
                                for i in 0..per {
                                    // 4 hot keys: heavy conflicts.
                                    let key = format!("hot{}", i % 4);
                                    loop {
                                        let mut t = db.begin();
                                        let cur = match t.get(&key) {
                                            Ok(v) => v.and_then(|v| v.as_int()).unwrap_or(0),
                                            Err(_) => continue,
                                        };
                                        if t.put(&key, cur + 1).is_err() {
                                            continue;
                                        }
                                        if t.commit().is_ok() {
                                            break;
                                        }
                                    }
                                }
                            });
                        }
                    });
                    start.elapsed()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, uncontended);
criterion_main!(benches);
