//! `fmtm run --metrics-out`, driven through the binary.
//!
//! `tests/fixtures/metrics_out_trip.golden` is the *shape* of the
//! exposition `--metrics-out x.prom` writes — every line with its
//! number replaced by `#`, `# TYPE` lines kept, sorted — as the commit
//! before the series-list snapshot wrote it: every name, label and type
//! an operator scrapes is pinned, the values are not.

use std::path::Path;

/// Runs `fmtm <args>`; returns (success, stdout).
fn fmtm(args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .args(args)
        .output()
        .expect("fmtm runs");
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

fn trip_saga() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs/trip.saga")
        .to_str()
        .unwrap()
        .to_owned()
}

/// The exposition with every sample's value replaced by `#`, sorted.
fn shape(exposition: &str) -> Vec<String> {
    let mut lines: Vec<String> = exposition
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => format!("{series} #"),
            _ => line.to_owned(),
        })
        .collect();
    lines.sort();
    lines
}

#[test]
fn metrics_out_prom_keeps_its_shape() {
    let out = std::env::temp_dir().join(format!("fmtm-metrics-{}.prom", std::process::id()));
    let (ok, stdout) = fmtm(&[
        "run",
        &trip_saga(),
        "--instances",
        "3",
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let written = std::fs::read_to_string(&out).unwrap();
    let _ = std::fs::remove_file(&out);

    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/metrics_out_trip.golden");
    let golden = std::fs::read_to_string(golden).unwrap();
    let pinned: Vec<&str> = golden.lines().filter(|l| !l.starts_with("//")).collect();
    assert_eq!(shape(&written), pinned, "the exposition's shape moved");
}

#[test]
fn run_surfaces_the_sources_warnings_before_it_runs() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analyzer/wa043_dead_write.fdl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .args(["run", fixture.to_str().unwrap()])
        .output()
        .expect("fmtm runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("warning[WA043] at 3:3: [p]"), "{stderr}");
}

#[test]
fn run_prints_a_translations_findings_as_lint_does() {
    // A spec's findings are on its translation, whose FDL is generated:
    // `run` names no position in it, exactly as `lint` renders them.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/flex_retriable_only.flex")
        .to_str()
        .unwrap()
        .to_owned();
    let (_, linted) = fmtm(&["lint", &fixture]);
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .args(["run", &fixture])
        .output()
        .expect("fmtm runs");
    assert_eq!(run.status.code(), Some(0));
    let stderr = String::from_utf8(run.stderr).unwrap();
    let finding = |text: &str| {
        text.lines()
            .filter(|l| l.contains("[WA043]"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(finding(&linted).len(), 1, "{linted}");
    assert_eq!(finding(&stderr), finding(&linted), "{stderr}");
}
