//! Golden-file tests for the `wfms-analyzer` battery, driven through
//! the same front end as `fmtm lint`.
//!
//! Every file in `tests/fixtures/analyzer/` triggers the code named by
//! its filename prefix (`wa035_statically_dead.fdl` → `WA035`), and
//! every finding carries a source position. The shipped example specs
//! must come out clean.
//!
//! Four codes have no fixture on purpose: `WA015`, `WA016` and `WA053`
//! are not constructible from the textual formats (the FDL parser
//! mirrors block facade containers and its identifiers cannot contain
//! `/`; spec class inference never disagrees with the declaration)
//! and are covered programmatically in
//! `wfms-analyzer`'s unit tests, while `WA054` is reserved/defensive
//! (unreachable with the current four step classes).

use std::fs;
use std::path::Path;

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyzer")
}

/// The `WA0xx` code a fixture documents, from its filename.
fn expected_code(file_name: &str) -> String {
    file_name
        .split('_')
        .next()
        .expect("fixture names start with a code")
        .to_ascii_uppercase()
}

#[test]
fn every_fixture_triggers_its_code_with_a_position() {
    let mut seen = 0usize;
    for entry in fs::read_dir(fixtures_dir()).expect("fixtures dir exists") {
        let path = entry.expect("read fixture entry").path();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let code = expected_code(&name);
        let src = fs::read_to_string(&path).expect("read fixture");
        let diags = exotica::lint_source(&src, &[])
            .unwrap_or_else(|e| panic!("{name}: fixture must parse, got {e}"));
        assert!(
            diags.iter().any(|d| d.code == code),
            "{name}: expected {code} among {:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        for d in &diags {
            assert!(
                d.pos.is_some(),
                "{name}: diagnostic {} lacks a source position: {d:?}",
                d.code
            );
        }
        seen += 1;
    }
    assert!(
        seen >= 30,
        "expected the full fixture battery, found {seen}"
    );
}

#[test]
fn fixture_codes_cover_every_lint_family() {
    let mut codes: Vec<String> = fs::read_dir(fixtures_dir())
        .unwrap()
        .map(|e| expected_code(e.unwrap().path().file_name().unwrap().to_str().unwrap()))
        .collect();
    codes.sort();
    codes.dedup();
    for family in ["WA00", "WA01", "WA02", "WA03", "WA04", "WA05", "WA10"] {
        assert!(
            codes.iter().any(|c| c.starts_with(family)),
            "no fixture for family {family}*: {codes:?}"
        );
    }
    // Every dataflow pass has its positive fixture.
    for code in [
        "WA101", "WA102", "WA103", "WA104", "WA105", "WA106", "WA107", "WA108",
    ] {
        assert!(codes.iter().any(|c| c == code), "no fixture for {code}");
    }
}

#[test]
fn clean_fixtures_stay_clean() {
    // One negative fixture per dataflow pass: a near-miss the pass
    // must NOT flag (tests/fixtures/analyzer_clean/). Guards against
    // the passes growing false positives.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyzer_clean");
    let mut seen = 0usize;
    for entry in fs::read_dir(dir).expect("clean fixtures dir exists") {
        let path = entry.unwrap().path();
        let src = fs::read_to_string(&path).unwrap();
        let diags = exotica::lint_source(&src, &[]).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(diags.is_empty(), "{path:?} should lint clean: {diags:?}");
        seen += 1;
    }
    assert!(
        seen >= 4,
        "one clean fixture per dataflow pass, found {seen}"
    );
}

#[test]
fn every_fixture_code_has_an_explanation() {
    for entry in fs::read_dir(fixtures_dir()).unwrap() {
        let name = entry
            .unwrap()
            .path()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_owned();
        let code = expected_code(&name);
        assert!(
            wfms_analyzer::explain(&code).is_some(),
            "no --explain text for {code}"
        );
    }
}

#[test]
fn shipped_examples_are_clean() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut seen = 0usize;
    for entry in fs::read_dir(specs).expect("examples/specs exists") {
        let path = entry.unwrap().path();
        let src = fs::read_to_string(&path).unwrap();
        let diags = exotica::lint_source(&src, &[]).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(diags.is_empty(), "{path:?} should lint clean: {diags:?}");
        seen += 1;
    }
    assert!(
        seen >= 2,
        "expected trip.saga and figure3.flex, found {seen}"
    );
}

#[test]
fn error_fixtures_are_rejected_by_the_pipeline_gate() {
    // The stage-5 gate and `fmtm lint` agree: an FDL fixture whose
    // findings include an error-severity code must not import.
    let src = fs::read_to_string(fixtures_dir().join("wa035_statically_dead.fdl")).unwrap();
    let err = exotica::import(&src).unwrap_err();
    assert!(matches!(err, exotica::PipelineError::Analysis(_)), "{err}");

    // Warning-only fixtures pass the gate but keep their findings.
    let src = fs::read_to_string(fixtures_dir().join("wa043_dead_write.fdl")).unwrap();
    let diags = exotica::import(&src).unwrap().diagnostics;
    assert!(diags.iter().any(|d| d.code == "WA043"), "{diags:?}");
}
