//! Hostile sizes stay linear: `merge` and `overlay` of two containers
//! of 50 000 members each are one walk over both name-ordered lists.
//! A write per member would copy the list once per member — 50 000
//! copies of 50 000 entries — and miss the bound by minutes.

use std::time::{Duration, Instant};
use txn_substrate::Value;
use wfms_model::Container;

const N: i64 = 50_000;

/// A linear walk takes milliseconds, on a debug build too.
const BOUND: Duration = Duration::from_secs(1);

/// Members `m<i>` for every `i < 2N` that `keep` admits, valued `value`.
fn container(keep: impl Fn(i64) -> bool, value: i64) -> Container {
    (0..2 * N)
        .filter(|&i| keep(i))
        .map(|i| (format!("m{i}"), Value::Int(value)))
        .collect()
}

fn timed(what: &str, op: impl FnOnce()) {
    let t0 = Instant::now();
    op();
    let took = t0.elapsed();
    assert!(took < BOUND, "{what}: {took:?}, bound {BOUND:?}");
}

#[test]
fn merge_and_overlay_of_large_containers_are_linear() {
    // Interleaved names: neither covers the other, so neither operation
    // can hand `from` over whole.
    let evens = container(|i| i % 2 == 0, 1);
    let thirds = container(|i| i % 3 == 0, 2);
    assert_eq!(evens.len() as i64, N);

    let mut merged = evens.clone();
    timed("merge", || merged.merge(&thirds));
    let union = (0..2 * N).filter(|i| i % 2 == 0 || i % 3 == 0).count();
    assert_eq!(merged.len(), union);
    assert_eq!(merged.get("m6"), Some(&Value::Int(2)), "from's value wins");
    assert_eq!(merged.get("m2"), Some(&Value::Int(1)));
    assert_eq!(merged.get("m3"), Some(&Value::Int(2)));

    let mut laid = evens.clone();
    timed("overlay", || laid.overlay(&thirds));
    assert_eq!(laid.len(), evens.len());
    assert_eq!(laid.get("m6"), Some(&Value::Int(2)));
    assert_eq!(laid.get("m2"), Some(&Value::Int(1)));
    assert!(!laid.has("m3"), "members only from has stay out");

    assert_eq!(
        evens.get("m6"),
        Some(&Value::Int(1)),
        "the original is untouched"
    );
}
