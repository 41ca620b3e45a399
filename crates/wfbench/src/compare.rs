//! `wfbench compare A.json B.json`: one row per workload × end-to-end
//! metric, with both readings and the quartiles of their rounds, the
//! ratio with its base, and a verdict read against the bounds of
//! [`END_TO_END`] (which a test keeps equal to `BENCHMARK.json`).

use std::process::ExitCode;

use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_FRAC};
use crate::report::{self, Json};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The rounds of one side spread wider than the bound, so a
    /// difference within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the metric's windows read the way `run` reads
/// them, plus how far that reading moves when any one round is left
/// out — the noise a single result file can show.
#[derive(Debug, Clone)]
pub struct Side {
    pub value: f64,
    leave_one_out: Vec<f64>,
    /// Median over windows of each round on its own.
    pub per_round: Vec<f64>,
}

impl Side {
    pub fn of(metric: &EndToEnd, windows: &[Vec<f64>]) -> Self {
        let value = metric.read(windows);
        let leave_one_out = if windows.len() < 2 {
            vec![value]
        } else {
            (0..windows.len())
                .map(|skip| {
                    let rest: Vec<Vec<f64>> = windows
                        .iter()
                        .enumerate()
                        .filter(|(r, _)| *r != skip)
                        .map(|(_, w)| w.clone())
                        .collect();
                    metric.read(&rest)
                })
                .collect()
        };
        Self {
            value,
            leave_one_out,
            per_round: windows.iter().map(|r| median(r)).collect(),
        }
    }

    /// Widest gap between leave-one-round-out readings, as a share of
    /// the reading.
    fn resolution(&self) -> f64 {
        let (lo, hi) = self
            .leave_one_out
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        (hi - lo) / self.value.abs()
    }
}

/// Reads `b` against its base `a`. A metric either side cannot resolve
/// to within its bound is `unresolved`, unless every leave-one-out
/// reading of `b` is better than every one of `a`.
pub fn verdict(metric: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if a.resolution() > metric.bound || b.resolution() > metric.bound {
        let b_wins_every_pair = b
            .leave_one_out
            .iter()
            .all(|x| a.leave_one_out.iter().all(|y| beats(*x, *y)));
        return if b_wins_every_pair {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match metric.better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `windows[round][position]` of a metric; one that carries only a
/// value (`failed_frac`) is one round of one window.
fn windows_of(section: &Json, metric: &str) -> Option<Vec<Vec<f64>>> {
    let m = section.get("end_to_end")?.get(metric)?;
    let rounds: Vec<Vec<f64>> = m
        .get("windows")
        .and_then(|w| w.items())
        .unwrap_or_default()
        .iter()
        .filter_map(|r| Some(r.items()?.iter().filter_map(Json::number).collect()))
        .collect();
    if rounds.is_empty() {
        m.number_at("value").map(|v| vec![vec![v]])
    } else {
        Some(rounds)
    }
}

fn meta(file: &Json, key: &str) -> Option<Json> {
    file.get("meta")?.get(key)
}

fn refuse_quick(path: &str, file: &Json) -> Result<(), String> {
    match meta(file, "quick").and_then(|q| q.truth()) {
        Some(false) => Ok(()),
        Some(true) => Err(format!(
            "{path} is a --quick smoke run; its numbers are not comparable"
        )),
        None => Err(format!("{path} is not a wfbench result file")),
    }
}

/// A reading depends on the inputs, and how far it can be trusted on
/// how many rounds it is read from, so only runs of the same seed and
/// `--seconds` compare.
fn refuse_different_runs(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["seed", "seconds"] {
        let of = |file: &Json| meta(file, key).and_then(|v| v.number());
        if of(a).is_none() || of(a) != of(b) {
            return Err(format!(
                "the runs differ in {key} ({:?} vs {:?}); their numbers are not comparable",
                of(a),
                of(b)
            ));
        }
    }
    Ok(())
}

pub fn command(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes two result files".to_owned());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    refuse_quick(path_a, &a)?;
    refuse_quick(path_b, &b)?;
    refuse_different_runs(&a, &b)?;
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?.entries();
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;

    println!(
        "{:<18} {:<24} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict (bound)",
        "workload", "metric", "A", "A rounds [q1, q3]", "B", "B rounds [q1, q3]", "B/A"
    );
    let mut worse = 0;
    for (workload, section_a) in &workloads_a {
        let section_b = workloads_b
            .get(workload)
            .ok_or_else(|| format!("{path_b} has no workload {workload}"))?;
        let rounds = |s: &Json| s.number_at("rounds");
        if rounds(section_a) != rounds(&section_b) {
            return Err(format!(
                "{workload}: {:?} rounds against {:?}",
                rounds(section_a),
                rounds(&section_b)
            ));
        }
        for m in &END_TO_END {
            let (Some(wa), Some(wb)) = (
                windows_of(section_a, m.name),
                windows_of(&section_b, m.name),
            ) else {
                return Err(format!("{workload}: metric {} missing on one side", m.name));
            };
            let (ra, rb) = (Side::of(m, &wa), Side::of(m, &wb));
            let (qa, qb) = (quartiles(&ra.per_round), quartiles(&rb.per_round));
            let v = verdict(m, &ra, &rb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{workload:<18} {:<24} {:>12.3} {:>25} {:>12.3} {:>25} {:>8.4}  {} ({})",
                m.name,
                ra.value,
                format!("[{:.3}, {:.3}]", qa.0, qa.2),
                rb.value,
                format!("[{:.3}, {:.3}]", qb.0, qb.2),
                rb.value / ra.value,
                v.word(),
                m.bound
            );
        }
        let frac = |s: &Json| windows_of(s, FAILED_FRAC).map_or(f64::NAN, |w| w[0][0]);
        let (fa, fb) = (frac(section_a), frac(&section_b));
        let v = if fb > fa || fb.is_nan() {
            worse += 1;
            Verdict::Worse
        } else {
            Verdict::Same
        };
        println!(
            "{workload:<18} {FAILED_FRAC:<24} {fa:>12.6} {:>25} {fb:>12.6} {:>25} {:>8}  {} (any rise)",
            "", "", "", v.word()
        );
        let tallies = |s: &Json| s.get("tallies").map(|t| t.line());
        if tallies(section_a) != tallies(&section_b) {
            println!(
                "{workload:<18} outcome tallies differ: {:?} vs {:?}",
                tallies(section_a),
                tallies(&section_b)
            );
        }
    }
    Ok(if worse > 0 {
        println!("{worse} row(s) worse");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{end_to_end, INST_PER_S, PEAK_RSS_MB, SUBMIT_P50_US};

    /// Three rounds of two positions around `level`.
    fn rounds(level: f64) -> Vec<Vec<f64>> {
        vec![
            vec![level, level * 1.01],
            vec![level * 1.01, level],
            vec![level * 1.02, level * 1.02],
        ]
    }

    /// `metric` with a bound of 0.10, to keep the arithmetic round.
    fn tenth(metric: &str) -> EndToEnd {
        EndToEnd {
            bound: 0.10,
            ..*end_to_end(metric).unwrap()
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        for (metric, good, bad) in [
            (tenth(SUBMIT_P50_US), 85.0, 115.0),
            (tenth(INST_PER_S), 115.0, 85.0),
        ] {
            let a = Side::of(&metric, &rounds(100.0));
            let read = |level: f64| verdict(&metric, &a, &Side::of(&metric, &rounds(level)));
            assert_eq!(read(105.0), Verdict::Same);
            assert_eq!(read(95.0), Verdict::Same);
            assert_eq!(read(bad), Verdict::Worse);
            assert_eq!(read(good), Verdict::Better);
        }
        // One reading per run: one round, one window, no noise shown.
        let rss = end_to_end(PEAK_RSS_MB).unwrap();
        let one = |v: f64| Side::of(rss, &[vec![v]]);
        assert_eq!(verdict(rss, &one(200.0), &one(203.0)), Verdict::Same);
        assert_eq!(verdict(rss, &one(200.0), &one(230.0)), Verdict::Worse);
    }

    #[test]
    fn a_reading_is_the_median_round() {
        // The second round was slow throughout.
        let windows = vec![vec![100.0, 102.0], vec![150.0, 160.0], vec![101.0, 100.0]];
        let side = Side::of(&tenth(SUBMIT_P50_US), &windows);
        assert_eq!(side.per_round, vec![101.0, 155.0, 100.5]);
        assert_eq!(side.value, 101.0);
    }

    #[test]
    fn a_reading_that_hangs_on_one_round_is_unresolved() {
        // The rounds disagree by half: leave the first out and the
        // reading moves with it.
        let p50 = tenth(SUBMIT_P50_US);
        let shaky = vec![vec![100.0, 100.0], vec![150.0, 152.0], vec![151.0, 149.0]];
        let a = Side::of(&p50, &shaky);
        assert_eq!(a.value, 150.0);
        assert!(a.resolution() > 0.15);
        let b = Side::of(&p50, &rounds(130.0));
        assert_eq!(verdict(&p50, &a, &b), Verdict::Unresolved);
        assert_eq!(verdict(&p50, &b, &a), Verdict::Unresolved);
        // …unless every leave-one-out reading of B beats every one of A.
        let fast = Side::of(&p50, &rounds(50.0));
        assert_eq!(verdict(&p50, &a, &fast), Verdict::Better);
    }

    #[test]
    fn quick_and_mismatched_runs_are_refused() {
        let file = |meta: &str| report::parse(&format!(r#"{{"meta":{meta}}}"#)).unwrap();
        assert!(refuse_quick("q.json", &file(r#"{"quick":true}"#)).is_err());
        assert!(refuse_quick("f.json", &file(r#"{"quick":false}"#)).is_ok());
        assert!(refuse_quick("x.json", &report::parse("{}").unwrap()).is_err());

        let run =
            |seed: u64, seconds: u64| file(&format!(r#"{{"seed":{seed},"seconds":{seconds}}}"#));
        assert!(refuse_different_runs(&run(1996, 30), &run(1996, 30)).is_ok());
        assert!(refuse_different_runs(&run(1996, 30), &run(1997, 30)).is_err());
        assert!(refuse_different_runs(&run(1996, 30), &run(1996, 60)).is_err());
        assert!(refuse_different_runs(&file("{}"), &file("{}")).is_err());
    }
}
