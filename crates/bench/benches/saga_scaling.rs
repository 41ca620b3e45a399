//! Experiment B1 — saga latency: native executor vs WFMS-hosted
//! (Figure 2 translation), sweeping the number of subtransactions.
//!
//! Shape claim: both are linear in n; the workflow engine adds a
//! modest constant factor (navigation, containers, journal) per step.

use bench::{run_saga_native, run_workflow, saga_world};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn saga_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("saga_scaling");
    group.sample_size(30);
    for n in [2usize, 4, 8, 16, 32, 64] {
        let spec = atm::fixtures::linear_saga("s", n);
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        group.bench_with_input(BenchmarkId::new("native", n), &n, |b, &n| {
            b.iter(|| {
                let w = saga_world(n, 0);
                assert!(run_saga_native(&w, &spec));
            })
        });
        group.bench_with_input(BenchmarkId::new("workflow", n), &n, |b, &n| {
            b.iter(|| {
                let w = saga_world(n, 0);
                assert!(run_workflow(&w, &def));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, saga_scaling);
criterion_main!(benches);
