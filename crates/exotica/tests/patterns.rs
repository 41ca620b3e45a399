//! The control-flow workflow-pattern gallery (`examples/patterns/`):
//! every pattern file must lint clean and execute to completion via
//! the same import → analyze → compile → optimize → run route
//! `fmtm run` takes for FDL sources.

use std::fs;
use std::path::{Path, PathBuf};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::Container;

fn patterns_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/patterns")
}

fn pattern_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(patterns_dir())
        .expect("examples/patterns exists")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

#[test]
fn gallery_is_complete() {
    let names: Vec<String> = pattern_files()
        .iter()
        .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
        .collect();
    for expected in [
        "sequence.fdl",
        "parallel_split_sync.fdl",
        "exclusive_choice.fdl",
        "multi_choice.fdl",
        "simple_merge.fdl",
        "discriminator.fdl",
        "n_of_m.fdl",
        "cancel_activity.fdl",
    ] {
        assert!(names.iter().any(|n| n == expected), "missing {expected}");
    }
}

#[test]
fn every_pattern_lints_clean() {
    for path in pattern_files() {
        let src = fs::read_to_string(&path).unwrap();
        let diags = exotica::lint_source(&src, &[]).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(diags.is_empty(), "{path:?} should lint clean: {diags:?}");
    }
}

#[test]
fn every_pattern_runs_to_completion() {
    for path in pattern_files() {
        let src = fs::read_to_string(&path).unwrap();
        let imported = exotica::import(&src).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(
            imported.diagnostics.is_empty(),
            "{path:?}: {:?}",
            imported.diagnostics
        );
        let steps = exotica::steps_of_process(&imported.process);
        assert!(
            !steps.is_empty(),
            "{path:?} provisions at least one program"
        );
        let (fed, registry) = exotica::provision(&steps, 0, &[]);
        let engine = Engine::new(fed, registry);
        engine.register_compiled(imported.template);
        let id = engine
            .start(&imported.process.name, Container::empty())
            .unwrap();
        engine.run_all().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert_eq!(
            engine.status(id).unwrap(),
            InstanceStatus::Finished,
            "{path:?} must run to completion"
        );
    }
}

#[test]
fn discriminator_fires_its_join_once() {
    // The OR-join races two branches; the journal must show exactly
    // one execution of Proceed.
    let src = fs::read_to_string(patterns_dir().join("discriminator.fdl")).unwrap();
    let imported = exotica::import(&src).unwrap();
    let steps = exotica::steps_of_process(&imported.process);
    let (fed, registry) = exotica::provision(&steps, 0, &[]);
    let engine = Engine::new(fed, registry);
    engine.register_compiled(imported.template);
    let id = engine.start("discriminator", Container::empty()).unwrap();
    engine.run_all().unwrap();
    let starts = wfms_engine::audit::trace(&engine.journal_events(), id)
        .into_iter()
        .filter(|t| t.starts_with("start:Proceed"))
        .count();
    assert_eq!(starts, 1, "OR-join must start exactly once");
}
