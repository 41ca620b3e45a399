//! `txn_substrate::fast_hash` on the keys it was chosen for: the
//! journal paths of every compiled template the repository ships or
//! pins — the pattern gallery (`examples/patterns/`), the appendix
//! scenarios' sagas and the Figure 3 flexible transaction, and the
//! benchmark's `saga8`. Each template's paths go into a table of their
//! own count rounded up to a power of two, indexed by the low bits of
//! the hash as `hashbrown` indexes it.
//!
//! A uniform hash leaves `n − m·(1 − (1 − 1/m)^n)` of `n` keys in a
//! bucket already taken, on average, in `m` buckets. The bound, per
//! template and over all templates together: no more than that average
//! plus twice its square root (plus one key, per template: its sets are
//! small).

use std::hash::{BuildHasher, BuildHasherDefault};
use std::path::Path;
use std::sync::Arc;
use txn_substrate::fast_hash::FastHasher;
use wfms_engine::CompiledProcess;

fn templates() -> Vec<(String, Arc<CompiledProcess>)> {
    let compile = |def| Arc::new(CompiledProcess::compile(def));
    let saga = |name: &str, n| {
        let spec = atm::fixtures::linear_saga(name, n);
        compile(exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap())
    };
    let figure3 = atm::fixtures::figure3_spec();
    let figure3 = atm::check_flex(&figure3).unwrap();
    let mut out = vec![
        ("saga8".to_owned(), saga("saga8", 8)),
        ("appendix_saga/2".to_owned(), saga("appendix_saga", 2)),
        ("appendix_saga/3".to_owned(), saga("appendix_saga", 3)),
        (
            "figure3".to_owned(),
            compile(exotica::translate_flex(&figure3).unwrap()),
        ),
    ];
    let gallery = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/patterns");
    let mut files: Vec<_> = std::fs::read_dir(gallery)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    for file in files {
        let imported = exotica::import(&std::fs::read_to_string(&file).unwrap()).unwrap();
        out.push((file.display().to_string(), imported.template));
    }
    out
}

/// Keys that land in a bucket already taken, and what a uniform hash
/// averages, for `keys` in a table of their count rounded up to a power
/// of two.
fn shared_buckets(keys: &[&str]) -> (usize, f64) {
    let build = BuildHasherDefault::<FastHasher>::default();
    let m = keys.len().next_power_of_two();
    let mut taken = vec![false; m];
    let shared = keys
        .iter()
        .filter(|key| std::mem::replace(&mut taken[build.hash_one(**key) as usize & (m - 1)], true))
        .count();
    let (n, m) = (keys.len() as f64, m as f64);
    (shared, n - m * (1.0 - (1.0 - 1.0 / m).powf(n)))
}

#[test]
fn template_paths_spread_about_as_evenly_as_a_uniform_hash() {
    let (mut shared_all, mut uniform_all) = (0, 0.0);
    let templates = templates();
    assert_eq!(
        templates.len(),
        12,
        "four fixed templates and the gallery's eight"
    );
    for (name, template) in &templates {
        let paths: Vec<&str> = template.layout.paths.iter().map(|p| &**p).collect();
        let (shared, uniform) = shared_buckets(&paths);
        let bound = uniform + 2.0 * uniform.sqrt() + 1.0;
        assert!(
            shared as f64 <= bound,
            "{name}: {shared} of {} paths share a bucket; a uniform hash averages {uniform:.1}",
            paths.len()
        );
        shared_all += shared;
        uniform_all += uniform;
    }
    assert!(
        shared_all as f64 <= uniform_all + 2.0 * uniform_all.sqrt(),
        "{shared_all} paths share a bucket over all templates; a uniform hash averages {uniform_all:.1}"
    );
}
