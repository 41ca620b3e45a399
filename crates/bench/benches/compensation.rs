//! Experiment B2 — compensation cost vs abort position: a 16-step saga
//! aborted at step j commits j−1 steps and compensates them in reverse;
//! dead path elimination retires the rest.
//!
//! Shape claim: run time grows with j (more forward work + more
//! compensations); the j = none (success) case is the upper envelope
//! of forward work with zero compensations.

use bench::{run_saga_native, run_workflow, saga_world, script};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txn_substrate::FailurePlan;

const N: usize = 16;

fn compensation(c: &mut Criterion) {
    let spec = atm::fixtures::linear_saga("s", N);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    let mut group = c.benchmark_group("compensation");
    group.sample_size(30);
    for j in [1usize, 4, 8, 12, 16] {
        let label = format!("S{j}");
        group.bench_with_input(BenchmarkId::new("workflow_abort_at", j), &j, |b, _| {
            b.iter(|| {
                let w = saga_world(N, 0);
                script(&w, &[(&label, FailurePlan::Always)]);
                assert!(!run_workflow(&w, &def));
            })
        });
        group.bench_with_input(BenchmarkId::new("native_abort_at", j), &j, |b, _| {
            b.iter(|| {
                let w = saga_world(N, 0);
                script(&w, &[(&label, FailurePlan::Always)]);
                assert!(!run_saga_native(&w, &spec));
            })
        });
    }
    group.bench_function("workflow_success", |b| {
        b.iter(|| {
            let w = saga_world(N, 0);
            assert!(run_workflow(&w, &def));
        })
    });
    group.finish();
}

criterion_group!(benches, compensation);
criterion_main!(benches);
