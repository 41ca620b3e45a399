//! Experiment B3 — flexible-transaction path selection: the Figure 3
//! transaction under the paper's failure scenarios, native vs
//! workflow-hosted.
//!
//! Shape claim: deeper fallbacks (more compensation + retries) cost
//! more; the workflow adds a constant navigation factor; the relative
//! ordering of scenarios is identical in both implementations.

use bench::{figure3_world, run_flex_native, run_workflow, script};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txn_substrate::FailurePlan;

fn flex_paths(c: &mut Criterion) {
    let spec = atm::fixtures::figure3_spec();
    let def = exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap();
    let scenarios: &[(&str, Vec<(&str, FailurePlan)>)] = &[
        ("p1_happy", vec![]),
        ("p2_after_t8", vec![("T8", FailurePlan::Always)]),
        ("p3_after_t4", vec![("T4", FailurePlan::Always)]),
        ("abort_at_t2", vec![("T2", FailurePlan::Always)]),
    ];
    let mut group = c.benchmark_group("flex_paths");
    group.sample_size(30);
    for (name, plans) in scenarios {
        group.bench_with_input(BenchmarkId::new("native", name), name, |b, _| {
            b.iter(|| {
                let w = figure3_world(0);
                script(&w, plans);
                let _ = run_flex_native(&w, &spec);
            })
        });
        group.bench_with_input(BenchmarkId::new("workflow", name), name, |b, _| {
            b.iter(|| {
                let w = figure3_world(0);
                script(&w, plans);
                let _ = run_workflow(&w, &def);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, flex_paths);
criterion_main!(benches);
