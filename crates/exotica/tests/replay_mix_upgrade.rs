//! The replay-mix golden (`crates/wfms-engine/tests/fixtures/replay_mix.*`,
//! see `replay_mix.rs`) is a journal in version 1 of the log format.
//! Opening it to append rewrites it in the current version, and what
//! the rewritten file replays to is the golden's views; `fmtm journal
//! upgrade` converts it to exactly `Journal::file_bytes` of its events,
//! which dumps as the golden dump.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wfms_engine::{Engine, EngineConfig, Journal};
use wfms_model::ProcessDefinition;

/// The golden's world: `replay_mix.rs`'s models, seed and failure plan.
const SEED: u64 = 11;
const PLAN: [(&str, f64); 7] = [
    ("S6", 0.3),
    ("T2", 0.1),
    ("T3", 0.3),
    ("T4", 0.2),
    ("T6", 0.3),
    ("T7", 0.3),
    ("T8", 0.5),
];

fn fixture(ext: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../wfms-engine/tests/fixtures/replay_mix.{ext}"))
}

fn models() -> (Vec<exotica::AtmSpec>, Vec<ProcessDefinition>) {
    let texts = [
        exotica::emit_spec(&exotica::AtmSpec::Saga(atm::fixtures::linear_saga(
            "saga8", 8,
        ))),
        exotica::emit_spec(&exotica::AtmSpec::Flexible(atm::fixtures::figure3_spec())),
    ];
    texts
        .iter()
        .map(|text| {
            let out = exotica::run_pipeline(text).expect("the fixed specs translate");
            (out.spec, out.process)
        })
        .unzip()
}

fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let plans: Vec<(String, FailurePlan)> = PLAN
        .iter()
        .map(|(label, p)| ((*label).to_owned(), FailurePlan::Probability { p: *p }))
        .collect();
    exotica::provision(&exotica::steps_of_all(&models().0), SEED, &plans)
}

/// Every instance's view after `Engine::open` on `journal`, as
/// `replay_mix.views.jsonl` has them.
fn views(journal: &Path) -> String {
    let (fed, programs) = world();
    let config = EngineConfig {
        journal_path: Some(journal.to_path_buf()),
        ..EngineConfig::default()
    };
    let engine = Engine::open(fed, programs, config, models().1).unwrap();
    engine
        .instances()
        .into_iter()
        .map(|(id, ..)| {
            let view = engine.view(id).unwrap();
            format!(
                "{{\"id\":{},\"process\":{},\"version\":{},\"tenant\":{},\"status\":{},\"output\":{}}}\n",
                id.0,
                json(&view.process),
                json(&view.version),
                json(&view.tenant),
                json(&view.status),
                json(&view.output),
            )
        })
        .collect()
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).expect("views serialize")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fmtm-mix-upgrade-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn open_rewrites_the_golden_in_version_2_and_it_replays_the_same() {
    assert!(std::fs::read(fixture("journal"))
        .unwrap()
        .starts_with(b"WFJL\x01"));
    let dir = scratch("open");
    let journal = dir.join("replay_mix.journal");
    std::fs::copy(fixture("journal"), &journal).unwrap();
    let want = std::fs::read_to_string(fixture("views.jsonl")).unwrap();
    assert_eq!(views(&journal), want, "the open that rewrites");
    assert!(std::fs::read(&journal).unwrap().starts_with(b"WFJL\x02"));
    assert_eq!(views(&journal), want, "a reopen of the rewritten file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fmtm_journal_upgrade_converts_the_golden() {
    let dir = scratch("cli");
    let journal = dir.join("replay_mix.journal");
    std::fs::copy(fixture("journal"), &journal).unwrap();
    let (events, _) = Journal::read_file(&journal).unwrap();
    let fmtm = |action: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
            .args(["journal", action, journal.to_str().unwrap()])
            .output()
            .expect("fmtm runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let said = fmtm("upgrade");
    assert!(
        said.ends_with(&format!(
            "{} event(s) rewritten as binary frames\n",
            events.len()
        )),
        "{said}"
    );
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        Journal::file_bytes(&events)
    );
    let golden = std::fs::read_to_string(fixture("dump.jsonl")).unwrap();
    assert_eq!(fmtm("dump"), golden);
    assert!(fmtm("upgrade").ends_with("already in the binary format, left as it is\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
