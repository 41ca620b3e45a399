//! Experiment B5 — forward-recovery cost: journal replay time vs the
//! number of journalled events (instances of the translated 8-step
//! saga accumulated into one journal).
//!
//! Shape claim: replay is linear in journal length; recovery of an
//! idle engine never re-executes completed work.

use bench::{run_workflow, saga_world};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use wfms_engine::{recover_from, Journal, OrgModel};

/// Builds a journal with `instances` completed saga runs.
fn journal_events(instances: usize) -> (Vec<wfms_engine::Event>, wfms_model::ProcessDefinition) {
    let n = 8;
    let spec = atm::fixtures::linear_saga("s", n);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    let w = saga_world(n, 0);
    let engine = wfms_engine::Engine::new(Arc::clone(&w.0), Arc::clone(&w.1));
    engine.register(def.clone()).unwrap();
    for _ in 0..instances {
        let id = engine
            .start(&def.name, wfms_model::Container::empty())
            .unwrap();
        engine.run_to_quiescence(id).unwrap();
    }
    (engine.journal_events(), def)
}

fn recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group.sample_size(20);
    for instances in [2usize, 8, 32, 128] {
        let (events, def) = journal_events(instances);
        let label = events.len();
        group.bench_with_input(BenchmarkId::new("replay_events", label), &label, |b, _| {
            b.iter(|| {
                let w = saga_world(8, 0);
                let engine = recover_from(
                    Journal::new(),
                    events.clone(),
                    vec![def.clone()],
                    OrgModel::new(),
                    Arc::clone(&w.0),
                    Arc::clone(&w.1),
                )
                .unwrap();
                assert_eq!(engine.journal_events().len(), events.len());
            })
        });
    }
    // Baseline: running one instance from scratch, for comparison with
    // replaying one instance's journal.
    let spec = atm::fixtures::linear_saga("s", 8);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    group.bench_function("fresh_run_baseline", |b| {
        b.iter(|| {
            let w = saga_world(8, 0);
            assert!(run_workflow(&w, &def));
        })
    });
    group.finish();
}

criterion_group!(benches, recovery);
criterion_main!(benches);
