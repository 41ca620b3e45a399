//! Ablation — what does the Figure 2 block structure cost?
//!
//! The paper's construction wraps the forward phase and the
//! compensation phase in blocks (subprocess activities). The flat
//! variant produces the same behaviour with every activity at the top
//! level. Blocks buy modularity and per-phase containers; they cost a
//! child scope, extra navigation events and block finish/exit
//! processing per phase.
//!
//! Shape claim: the flat variant is slightly faster on the happy path
//! (no block overhead) and the gap narrows on compensating runs (the
//! work is dominated by compensation activities either way).

use bench::{run_workflow, saga_world, script};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txn_substrate::FailurePlan;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_blocks");
    group.sample_size(30);
    for n in [4usize, 16, 64] {
        let spec = atm::fixtures::linear_saga("s", n);
        let block = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        let flat = exotica::translate_saga_flat(&atm::check_saga(&spec).unwrap()).unwrap();
        group.bench_with_input(BenchmarkId::new("blocks_success", n), &n, |b, &n| {
            b.iter(|| {
                let w = saga_world(n, 0);
                assert!(run_workflow(&w, &block));
            })
        });
        group.bench_with_input(BenchmarkId::new("flat_success", n), &n, |b, &n| {
            b.iter(|| {
                let w = saga_world(n, 0);
                assert!(run_workflow(&w, &flat));
            })
        });
        let mid = format!("S{}", n / 2 + 1);
        group.bench_with_input(BenchmarkId::new("blocks_compensating", n), &n, |b, &n| {
            b.iter(|| {
                let w = saga_world(n, 0);
                script(&w, &[(&mid, FailurePlan::Always)]);
                assert!(!run_workflow(&w, &block));
            })
        });
        group.bench_with_input(BenchmarkId::new("flat_compensating", n), &n, |b, &n| {
            b.iter(|| {
                let w = saga_world(n, 0);
                script(&w, &[(&mid, FailurePlan::Always)]);
                assert!(!run_workflow(&w, &flat));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
