//! Experiment B7 — Exotica/FMTM pre-processor throughput: translation
//! time and emitted-FDL size vs specification size, plus the full
//! Figure 5 pipeline (spec text → validated template).
//!
//! Shape claim: translation is linear-ish in the number of steps
//! (quadratic lower-order terms from State-flag fan-out are visible
//! but small at realistic sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn translator(c: &mut Criterion) {
    let mut group = c.benchmark_group("translator");
    group.sample_size(40);
    for n in [4usize, 16, 64] {
        let spec = atm::fixtures::linear_saga("s", n);
        group.bench_with_input(BenchmarkId::new("translate_saga", n), &n, |b, _| {
            b.iter(|| exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap())
        });
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        group.bench_with_input(BenchmarkId::new("emit_fdl", n), &n, |b, _| {
            b.iter(|| wfms_fdl::emit(&def))
        });
        let fdl = wfms_fdl::emit(&def);
        group.bench_with_input(BenchmarkId::new("import_fdl", n), &n, |b, _| {
            b.iter(|| wfms_fdl::parse_and_validate(&fdl).unwrap())
        });
        let spec_text = exotica::emit_spec(&exotica::ParsedSpec::Saga(spec.clone()));
        group.bench_with_input(BenchmarkId::new("full_pipeline", n), &n, |b, _| {
            b.iter(|| exotica::run_pipeline(&spec_text).unwrap())
        });
    }
    group.bench_function("translate_flex_figure3", |b| {
        let spec = atm::fixtures::figure3_spec();
        b.iter(|| exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, translator);
criterion_main!(benches);
