//! `wfbench` — the repository's benchmark.
//!
//! ```text
//! wfbench run [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//!             [--trace-out FILE] [--workload NAME]
//! wfbench compare A.json B.json
//! wfbench orders JOURNAL N        (what the workloads run as a child
//!                                  to read a journal back)
//! ```
//!
//! `run` without `--workload` runs every workload, each in a child
//! process of its own (so `peak_rss_mb` is per workload), prints every
//! metric by name with its unit and sample count, and writes the
//! result file. With `--workload` it runs that one workload in this
//! process and prints, as the last line of standard output, the one
//! JSON object the benchmark driver reads. See the crate README.

mod check;
mod compare;
mod host;
mod layers;
mod loadgen;
mod metrics;
mod probes;
mod report;
mod ruler;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use metrics::Workload;
use report::Json;
use workloads::Sizing;

const DEFAULT_SEED: u64 = 1996;
/// The `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        // `--trace` alone means on; the driver spells it `--trace 0|1`.
        let takes_value = match flag {
            "--quick" => false,
            "--trace" => matches!(value, Some("0" | "1")),
            "--workload" | "--seed" | "--seconds" | "--out" | "--trace-out" => true,
            other => return Err(format!("unknown option {other:?}")),
        };
        let value = if takes_value {
            Some(value.ok_or_else(|| format!("{flag} needs a value"))?)
        } else {
            None
        };
        let bad = || format!("bad value {:?} for {flag}", value.unwrap_or(""));
        match (flag, value) {
            ("--quick", _) => parsed.quick = true,
            ("--trace", v) => parsed.trace = v != Some("0"),
            ("--workload", Some(v)) => parsed.workload = Some(Workload::parse(v).ok_or_else(bad)?),
            ("--seed", Some(v)) => parsed.seed = v.parse().map_err(|_| bad())?,
            ("--seconds", Some(v)) => {
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(bad)?;
            }
            ("--out", Some(v)) => parsed.out = Some(v.to_owned()),
            ("--trace-out", Some(v)) => parsed.trace_out = Some(v.to_owned()),
            _ => unreachable!("flags narrowed above"),
        }
        i += 1 + usize::from(takes_value);
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workload {
            Some(w) => run_one(w, &a, process_start),
            None => run_all(&a),
        }),
        Some("compare") => compare::command(&args[1..]),
        Some("orders") => print_orders(&args[1..]),
        _ => Err(
            "usage: wfbench run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                  [--quick] [--out FILE] [--trace-out FILE]\n       \
                  wfbench compare A.json B.json"
                .to_owned(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `wfbench orders JOURNAL N`: the execution order of instances
/// `0..=N` of a journal file, one line each. The workloads run this
/// as a child, so the memory the program's journal reader needs is
/// not counted as the workload's.
fn print_orders(args: &[String]) -> Result<ExitCode, String> {
    let [journal, n] = args else {
        return Err("orders takes a journal file and an instance count".to_owned());
    };
    let n = n.parse().map_err(|_| format!("bad instance count {n:?}"))?;
    let orders = layers::journal_orders(std::path::Path::new(journal), n)?;
    let mut text = orders.join("\n");
    text.push('\n');
    std::io::Write::write_all(&mut std::io::stdout().lock(), text.as_bytes())
        .map_err(|e| format!("write orders: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn refuse_small_hosts() -> Result<usize, String> {
    let nproc = host::nproc();
    if nproc < 2 {
        return Err(format!(
            "nproc = {nproc}: generator and server need a core each; refusing to measure"
        ));
    }
    Ok(nproc)
}

/// One workload in this process: the timed rounds (tracing off), or
/// with `--trace` the traced pass and the per-layer probes.
fn run_one(workload: Workload, args: &RunArgs, process_start: Instant) -> Result<ExitCode, String> {
    refuse_small_hosts()?;
    let (section, summary) = if args.trace {
        run_traced(workload, args)?
    } else {
        let sizing = Sizing {
            seconds: args.seconds,
            quick: args.quick,
        };
        let result = workloads::run(workload, args.seed, sizing, process_start)?;
        print_result(&result, args.seed);
        let v = &result.verdict;
        let metrics = result.metrics.iter().filter_map(|m| {
            let def = metrics::end_to_end(m.name).expect("every measured metric is defined");
            def.driver.then(|| (m.name, m.value(), def.unit))
        });
        (
            result_json(&result),
            driver_line(v.attempted, v.failed, metrics),
        )
    };
    if let Some(path) = &args.out {
        std::fs::write(path, section.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", summary.line());
    Ok(ExitCode::SUCCESS)
}

/// The traced pass: prints every per-layer metric, writes the spans,
/// and returns the workload's result-file section and driver line.
fn run_traced(workload: Workload, args: &RunArgs) -> Result<(Json, Json), String> {
    let traced = probes::run(workload, args.seed, args.quick)?;
    println!(
        "{}: per-layer metrics (traced pass, seed {})",
        workload.name(),
        args.seed
    );
    let mut rows = Vec::with_capacity(metrics::PER_LAYER.len());
    for def in &metrics::PER_LAYER {
        let (_, value, n) = traced
            .values
            .iter()
            .find(|(name, _, _)| *name == def.name)
            .filter(|(_, value, _)| value.is_finite())
            .ok_or_else(|| format!("the traced pass produced no value for {}", def.name))?;
        println!(
            "  {:<48} {value:>14.3} {:<6} n={n}; {} is better",
            def.name,
            def.unit,
            def.better.word()
        );
        rows.push((def, *value, *n));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, traced.trace.line()).map_err(|e| format!("{path}: {e}"))?;
    }
    let per_layer = rows
        .iter()
        .map(|(def, value, n)| {
            let entry = Json::obj(vec![
                ("value", Json::num(*value)),
                ("unit", Json::str(def.unit)),
                ("n", Json::int(*n as u64)),
            ]);
            (def.name, entry)
        })
        .collect();
    let section = Json::obj(vec![
        ("attempted_traced", Json::int(traced.attempted)),
        ("failed_traced", Json::int(traced.failed)),
        ("per_layer", Json::obj(per_layer)),
        ("stages", traced.stages),
    ]);
    let metrics = rows
        .iter()
        .map(|(def, value, _)| (def.name, *value, def.unit));
    Ok((
        section,
        driver_line(traced.attempted, traced.failed, metrics),
    ))
}

/// The one line the benchmark driver reads.
fn driver_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> Json {
    let metrics = metrics
        .map(|(name, value, unit)| {
            let entry = Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))]);
            (name, entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::bool(failed == 0)),
        ("attempted", Json::int(attempted.max(1))),
        ("failed", Json::int(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_result(r: &workloads::RunResult, seed: u64) {
    println!(
        "{}: {} measured rounds + 1 warm-up, seed {seed}, all threads on CPU {}, data dir on {}",
        r.workload.name(),
        r.rounds,
        r.cpu,
        r.data_fs
    );
    for def in &metrics::END_TO_END {
        let Some(m) = r.metrics.iter().find(|m| m.name == def.name) else {
            continue;
        };
        let note = if m.name == metrics::SUBMIT_P99_US && !stats::supported(m.n, 99, 100) {
            " (fewer than 10 samples beyond p99)"
        } else {
            ""
        };
        println!(
            "  {:<24} {:>14.3} {:<4} (as measured {:.3}) median of n={} x {} windows x {} rounds; {} is better, bound {}{note}",
            m.name,
            m.value(),
            def.unit,
            m.raw_value(),
            m.n,
            m.windows[0].len(),
            m.windows.len(),
            def.better.word(),
            def.bound
        );
    }
    let v = &r.verdict;
    println!(
        "  {:<24} {:>14.6}      {} failed of {} attempted",
        metrics::FAILED_FRAC,
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    );
    let tallies: Vec<String> = v
        .tallies
        .fields()
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    println!("  outcomes per round: {}", tallies.join(" "));
    for note in &v.notes {
        println!("  FAILED: {note}");
    }
}

fn tallies_json(t: &check::Tallies) -> Json {
    Json::obj(
        t.fields()
            .iter()
            .map(|(k, n)| (*k, Json::int(*n)))
            .collect(),
    )
}

fn windows_json(windows: &[Vec<f64>]) -> Json {
    Json::arr(
        windows
            .iter()
            .map(|r| Json::arr(r.iter().map(|v| Json::num(*v)))),
    )
}

/// The workload's section of the result file.
fn result_json(r: &workloads::RunResult) -> Json {
    let v = &r.verdict;
    let mut end_to_end: Vec<(&str, Json)> = r
        .metrics
        .iter()
        .map(|m| {
            let def = metrics::end_to_end(m.name).expect("defined");
            (
                m.name,
                Json::obj(vec![
                    ("value", Json::num(m.value())),
                    ("unit", Json::str(def.unit)),
                    ("n", Json::int(m.n as u64)),
                    (
                        "samples",
                        Json::arr(m.per_round().into_iter().map(Json::num)),
                    ),
                    ("windows", windows_json(&m.windows)),
                    ("as_measured", windows_json(&m.raw)),
                ]),
            )
        })
        .collect();
    end_to_end.push((
        metrics::FAILED_FRAC,
        Json::obj(vec![
            (
                "value",
                Json::num(v.failed as f64 / v.attempted.max(1) as f64),
            ),
            ("unit", Json::str("ratio")),
            ("n", Json::int(v.attempted)),
            ("samples", Json::arr([])),
        ]),
    ));
    let mut section = Json::obj(vec![
        ("why", Json::str(r.workload.why())),
        ("rounds", Json::int(r.rounds as u64)),
        ("attempted", Json::int(v.attempted)),
        ("failed", Json::int(v.failed)),
        ("tallies", tallies_json(&v.tallies)),
        ("cpu", Json::int(u64::from(r.cpu))),
        (
            "ruler_per_round",
            Json::arr(r.ruler.iter().map(|f| Json::num(*f))),
        ),
        ("data_dir_fs", Json::str(&r.data_fs)),
        ("data_dir_mb", Json::num(r.data_dir_mb)),
        ("end_to_end", Json::obj(end_to_end)),
        ("notes", Json::arr(v.notes.iter().map(|n| Json::str(n)))),
    ]);
    if let Some(generated) = &r.generated {
        section.set("generated_tallies", tallies_json(generated));
    }
    section
}

/// Every workload, each in its own child process; then, with
/// `--trace`, the traced pass of each.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let nproc = refuse_small_hosts()?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let scratch = host::Scratch::create("results").map_err(|e| format!("scratch dir: {e}"))?;
    // Spans go where asked, else beside the result file.
    let trace_out = args.trace_out.clone().or_else(|| {
        let out = std::path::Path::new(args.out.as_deref()?);
        Some(
            out.with_file_name("trace.json")
                .to_string_lossy()
                .into_owned(),
        )
    });
    let mut sections: Vec<(&str, Json)> = Vec::new();
    let mut traces: Vec<(&str, Json)> = Vec::new();
    let mut failed = false;
    for workload in Workload::ALL {
        let mut section = Json::obj(vec![]);
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let out = scratch
                .root
                .join(format!("{}-{traced}.json", workload.name()));
            let spans = scratch.root.join(format!("{}-spans.json", workload.name()));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .arg("--trace-out")
                .arg(&spans);
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", workload.name()));
            }
            let text =
                std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            for (key, value) in report::parse(&text)?.entries() {
                if matches!(key.as_str(), "failed" | "failed_traced") && value.number() != Some(0.0)
                {
                    failed = true;
                }
                section.set(&key, value);
            }
            if traced {
                let text = std::fs::read_to_string(&spans)
                    .map_err(|e| format!("{}: {e}", spans.display()))?;
                traces.push((workload.name(), report::parse(&text)?));
            }
        }
        sections.push((workload.name(), section));
    }
    let meta = Json::obj(vec![
        ("seed", Json::int(args.seed)),
        ("seconds", Json::int(args.seconds)),
        ("quick", Json::bool(args.quick)),
        ("traced", Json::bool(args.trace)),
        ("nproc", Json::int(nproc as u64)),
        ("kernel", Json::str(&host::kernel())),
        ("data_dir_fs", Json::str(&scratch.fs)),
        ("flush_policy", Json::str(layers::FLUSH_POLICY)),
        ("batch_max", Json::int(layers::BATCH_MAX as u64)),
        ("queue_capacity", Json::int(layers::QUEUE_CAPACITY as u64)),
        ("shards", Json::int(1)),
        ("reactors", Json::int(1)),
        (
            "generator",
            Json::str("closed loop, blocking sockets, TCP_NODELAY, at most 2 connections"),
        ),
        (
            "placement",
            Json::str("every thread of a workload confined to one CPU"),
        ),
        (
            "ruler_nominal_us",
            Json::num(ruler::NOMINAL.as_secs_f64() * 1e6),
        ),
        ("commit", Json::str(&host::git_commit())),
    ]);
    let file = Json::obj(vec![
        ("wfbench", Json::int(1)),
        ("meta", meta),
        ("workloads", Json::obj(sections)),
    ]);
    match &args.out {
        Some(path) => std::fs::write(path, file.pretty()).map_err(|e| format!("{path}: {e}"))?,
        None => println!("(no --out given: result file not written)"),
    }
    if let (true, Some(path)) = (args.trace, &trace_out) {
        std::fs::write(path, Json::obj(traces).line()).map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn driver_spelling_and_bare_trace_flag_both_parse() {
        let a = parse_run(&args(&[
            "--workload",
            "flex_mix_http",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::FlexMixHttp));
        assert!(a.trace && !a.quick);
        assert_eq!((a.seed, a.seconds), (7, 10));
        assert!(!parse_run(&args(&["--trace", "0"])).unwrap().trace);
        let bare = parse_run(&args(&["--trace", "--quick", "--out", "x.json"])).unwrap();
        assert!(bare.trace && bare.quick);
        assert_eq!(bare.out.as_deref(), Some("x.json"));
        assert!(parse_run(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--seed"])).is_err());
        assert!(parse_run(&args(&["--frobnicate"])).is_err());
    }

    /// Program APIs are called from `layers.rs` only, so an API rename
    /// is a one-file follow-up.
    #[test]
    fn only_layers_rs_names_the_program_crates() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let crates = [
            "wfms_engine",
            "wfms_server",
            "wfms_model",
            "wfms_observe",
            "txn_substrate",
            "exotica::",
            "atm::",
        ];
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "layers.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
                for name in crates {
                    let quoted = format!("\"{name}");
                    assert!(
                        !line.contains(name) || line.contains(&quoted),
                        "{} calls into {name}: {line}",
                        path.display()
                    );
                }
            }
        }
    }
}
