//! Flexible transactions outside the static translation class, driven
//! through the binary: `fmtm lint` finds nothing wrong with the model,
//! `fmtm check` and `fmtm run` refuse the translation at stage 3 and
//! say what they refused, and nothing panics (exit 101).
//!
//! Each fixture's header comment records what the commit before the
//! one switch rule did with it.

use std::path::Path;

/// Runs `fmtm <cmd> <fixture>`; returns (exit code, stdout + stderr).
fn fmtm(cmd: &str, fixture: &str) -> (i32, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .arg(cmd)
        .arg(path)
        .output()
        .expect("fmtm runs");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("fmtm exits, not killed"), text)
}

fn assert_refused_at_translation(fixture: &str, names: &str) {
    let (code, text) = fmtm("lint", fixture);
    assert_eq!(code, 0, "lint {fixture}: {text}");
    for cmd in ["check", "run"] {
        let (code, text) = fmtm(cmd, fixture);
        assert_eq!(code, 1, "{cmd} {fixture}: {text}");
        assert!(
            text.contains("[stage 3: translation] unsupported specification"),
            "{cmd} {fixture}: {text}"
        );
        assert!(
            text.contains(names),
            "{cmd} {fixture} names {names}: {text}"
        );
    }
}

#[test]
fn segment_kept_across_a_switch_is_refused_not_a_panic() {
    assert_refused_at_translation("flex_cd_cab.flex", "failure of \"D\"");
}

#[test]
fn unreachable_alternative_is_refused_not_a_second_start() {
    assert_refused_at_translation("flex_two_starts.flex", "path 1");
}
