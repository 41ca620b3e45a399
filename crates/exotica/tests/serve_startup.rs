//! `fmtm serve` says what each shard's reopen found and did, in one
//! startup line: how long it took, the events replayed, the instances it
//! holds and resumed, the torn tail it dropped, and recovery's repairs.
//! The `serving …` line before them names the pool's shape, and a flag
//! value `serve` cannot read stops it before anything binds.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wfms_engine::{Event, Journal};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fmtm-serve-startup-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trip_saga() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/trip.saga")
}

/// `fmtm serve` of the trip saga on `data` with the flags `extra`, on a
/// free port, and the lines it printed up to and including the first
/// that `last` accepts.
fn serve(data: &Path, extra: &[&str], last: impl Fn(&str) -> bool) -> (Child, Vec<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .arg("serve")
        .arg(trip_saga())
        .args(["--port", "0", "--data"])
        .arg(data)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("fmtm serve starts");
    let mut lines = Vec::new();
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.unwrap();
        let done = last(&line);
        lines.push(line);
        if done {
            return (child, lines);
        }
    }
    let status = child.wait();
    panic!("serve exited ({status:?}) after {lines:?}");
}

/// The address a `serving … at http://ADDR (…)` line names.
fn address(lines: &[String]) -> String {
    let serving = lines.iter().find(|l| l.starts_with("serving")).unwrap();
    let at = serving.split("http://").nth(1).unwrap();
    at.split_whitespace().next().unwrap().to_owned()
}

#[test]
fn the_startup_lines_name_the_pools_shape() {
    let dir = scratch("shape");
    let flags = [
        "--shards",
        "2",
        "--queue",
        "7",
        "--batch",
        "3",
        "--durability",
        "sync",
        "--person",
        "ann=clerk",
    ];
    let (mut server, lines) = serve(&dir, &flags, |l| l.starts_with("shard 1:"));
    server.kill().unwrap();
    server.wait().unwrap();
    let serving = lines.iter().find(|l| l.starts_with("serving")).unwrap();
    assert!(
        serving.contains("(shards 2, queue 7, batch 3, "),
        "{serving:?}"
    );
    for shard in ["shard 0:", "shard 1:"] {
        let n = lines.iter().filter(|l| l.starts_with(shard)).count();
        assert_eq!(n, 1, "{shard} in {lines:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_flag_value_stops_serve_before_it_binds() {
    let dir = scratch("refused");
    let _ = std::fs::remove_dir_all(&dir);
    for (flag, value) in [("--durability", "bogus"), ("--person", "ann")] {
        let out = Command::new(env!("CARGO_BIN_EXE_fmtm"))
            .arg("serve")
            .arg(trip_saga())
            .args(["--port", "0", "--data"])
            .arg(&dir)
            .args([flag, value])
            .output()
            .expect("fmtm serve runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            format!("fmtm serve: bad value {value:?} for {flag}\n")
        );
        assert_eq!(String::from_utf8(out.stdout).unwrap(), "", "{flag} {value}");
        assert!(!dir.exists(), "{flag} {value}: the data directory was made");
    }
}

#[test]
fn a_restart_names_the_torn_tail_and_what_it_resumed() {
    let dir = scratch("restart");
    let journal = dir.join("shard-0.journal");
    let (mut server, lines) = serve(&dir, &[], |l| l.starts_with("shard 0:"));
    assert!(
        lines.iter().any(|l| l.contains("0 events replayed")
            && l.contains("0 resumed")
            && l.contains("torn tail none")),
        "a fresh directory: {lines:?}"
    );

    // Kill it mid-load.
    let mut load = Command::new(env!("CARGO_BIN_EXE_fmtm"))
        .args(["load", "--url", &address(&lines), "--count", "100000"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("fmtm load starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while std::fs::metadata(&journal).map_or(0, |m| m.len()) < 64 * 1024 {
        assert!(Instant::now() < deadline, "the load journalled nothing");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill().unwrap();
    server.wait().unwrap();
    let _ = load.kill();
    let _ = load.wait();

    // The worker navigates one submission at a time, so every instance
    // before the last one started had finished: cut the journal three
    // events into the second-to-last, as a crash there would, and
    // append half of the frame that came next.
    let (events, _) = Journal::read_file(&journal).unwrap();
    let starts: Vec<usize> = (0..events.len())
        .filter(|&i| matches!(events[i], Event::InstanceStarted { .. }))
        .collect();
    let cut = starts[starts.len() - 2] + 3;
    let intact = Journal::file_bytes(&events[..cut]);
    let whole = Journal::file_bytes(&events[..cut + 1]);
    let half = intact.len() + (whole.len() - intact.len()) / 2;
    std::fs::write(&journal, &whole[..half]).unwrap();

    let (mut server, lines) = serve(&dir, &[], |l| l.starts_with("shard 0:"));
    let shard = lines.last().unwrap();
    server.kill().unwrap();
    server.wait().unwrap();
    let wanted = [
        format!("{cut} events replayed"),
        "1 resumed".to_owned(),
        format!(
            "torn tail at byte {}, dropped {} bytes",
            intact.len(),
            half - intact.len()
        ),
        "recovery.fixups running_restarted=".to_owned(),
    ];
    for part in &wanted {
        assert!(shard.contains(part.as_str()), "{part:?} not in {shard:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
