//! The translations, byte for byte. The spec hash of a generated
//! process is the template version `server.meta.json` pins and shard
//! journals replay against, and its FDL is what `fmtm translate`
//! prints: a refactoring of the translators must move neither. Each
//! golden file under `tests/fixtures/translation_golden/` holds the
//! hash on its first line and the emitted FDL after it.

use std::path::Path;

use atm::fixtures::{figure3_spec, linear_saga};
use exotica::{parse_spec, translate_flex, translate_saga, translate_saga_flat, ParsedSpec};
use wfms_model::ProcessDefinition;

fn check(golden: &str, def: &ProcessDefinition) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/translation_golden")
        .join(format!("{golden}.golden"));
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {}: {e}", path.display()));
    let now = format!(
        "spec_hash {:016x}\n{}",
        wfms_engine::spec_hash_of(def),
        wfms_fdl::emit(def)
    );
    assert_eq!(now, pinned, "translation {golden} moved");
}

#[test]
fn the_fixture_translations_are_byte_identical() {
    let saga8 = linear_saga("saga8", 8);
    let saga8 = atm::check_saga(&saga8).unwrap();
    check("saga8", &translate_saga(&saga8).unwrap());
    check("saga8_flat", &translate_saga_flat(&saga8).unwrap());
    let figure3 = figure3_spec();
    let figure3 = atm::check_flex(&figure3).unwrap();
    check("figure3", &translate_flex(&figure3).unwrap());
}

#[test]
fn every_shipped_spec_translates_byte_identically() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&specs).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let def = match parse_spec(&text).unwrap() {
            ParsedSpec::Saga(saga) => translate_saga(&atm::check_saga(&saga).unwrap()),
            ParsedSpec::Flexible(flex) => translate_flex(&atm::check_flex(&flex).unwrap()),
        }
        .unwrap();
        let file = path.file_name().unwrap().to_str().unwrap();
        check(&format!("examples_{file}"), &def);
        checked += 1;
    }
    assert!(
        checked >= 2,
        "examples/specs holds trip.saga and figure3.flex"
    );
}
