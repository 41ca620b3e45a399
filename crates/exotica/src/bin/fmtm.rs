//! `fmtm` — the Exotica/FMTM pre-processor as a command-line tool.
//!
//! ```text
//! fmtm translate <spec-file>            emit the generated FDL
//! fmtm dot <spec-file>                  emit Graphviz DOT of the process
//! fmtm check <spec-file>                run all pipeline stages, report diagnostics
//! fmtm lint <file> [options]            static analysis of an FDL or ATM spec file
//! fmtm lint --explain CODE              describe one WAxxx analyzer code
//! fmtm run <file> [options]             execute a spec's translation or an FDL process
//! fmtm crashtest <spec-file> [options]  crash-point sweep of the translated process
//! fmtm serve <spec-file>... [options]   long-lived workflow service (HTTP/1.1 JSON)
//! fmtm deploy <spec-file> [options]     register a new template version into a
//!                                       running fmtm serve (POST /admin/deploy)
//! fmtm load [options]                   load generator / client for fmtm serve
//! fmtm journal dump <journal-file>      print a journal's events, one JSON
//!                                       object per line (read-only)
//! fmtm journal upgrade <journal-file>   convert a JSON-lines journal written
//!                                       before the binary format, in place
//!                                       (atomic; `serve` refuses such files)
//!
//! lint options:
//!   --format json                       machine-readable output
//!   --allow CODE                        suppress a WAxxx code (repeatable)
//!   --explain CODE                      print the prose explanation of an
//!                                       analyzer code and exit (no file)
//!
//! run options:
//!   --fail LABEL=always                 subtransaction LABEL always aborts
//!   --fail LABEL=first:N                LABEL aborts its first N attempts
//!   --fail LABEL=attempts:1,3           LABEL aborts exactly attempts 1 and 3
//!   --seed N                            injector seed (default 0)
//!   --trace                             print the execution trace
//!   --audit                             print the full audit trail
//!   --instances M                       start M instances (default 1)
//!   --metrics-out FILE                  enable the observability layer and
//!                                       write the metrics snapshot to FILE
//!                                       after the run (Prometheus text when
//!                                       FILE ends in .prom, JSON otherwise)
//!
//! crashtest options:
//!   --fail LABEL=PLAN                   as for run; applied to every scenario
//!   --seed N                            injector seed (default 0)
//!   --instances M                       start M instances per scenario
//!   --report PATH                       write the sweep reports as JSON
//!   --no-torn-tail                      skip the torn half-written event
//!   --quick                             sweep only the scenario given by
//!                                       --fail/--seed; the default also
//!                                       sweeps one always-fails variant
//!                                       per step (scenarios whose
//!                                       *reference* run does not terminate,
//!                                       e.g. a retriable step forced to
//!                                       always fail, are skipped)
//!
//! serve options:
//!   --shards N                          shard count: N engines, journals and
//!                                       worker threads (default 1; counts
//!                                       beyond the machine's available
//!                                       parallelism buy nothing — each shard
//!                                       runs its own worker thread)
//!   --port P                            TCP port (default 7313; 0 = ephemeral)
//!   --addr IP                           bind address (default 127.0.0.1)
//!   --data DIR                          data directory for server.meta.json and
//!                                       the shard journals (default fmtm-data)
//!   --queue H                           per-shard admission high-water mark
//!                                       (default 1024); submits beyond it are
//!                                       answered 429 Overloaded
//!   --batch B                           max submissions per group commit
//!                                       (default 64)
//!   --durability POLICY                 per-event | sync | group (default
//!                                       group: each turn's journal is written
//!                                       once, at the barrier before its
//!                                       replies; batched:N is read as group,
//!                                       N ignored)
//!   --seed N                            substrate seed (default 0)
//!   --person NAME=role[,role...]        add a person to the organization
//!                                       (repeatable; for specs with manual
//!                                       activities)
//!   --reactors N                        event-loop threads (default 0 = one
//!                                       per core, capped by the shard count)
//!   --tenants FILE                      enable multi-tenancy from a JSON
//!                                       tenants file ({"tenants":[{"name":..,
//!                                       "key":..,"weight":W,"max_inflight":Q}]}):
//!                                       Bearer API-key auth on the data plane,
//!                                       per-tenant inflight quotas and
//!                                       weighted-fair dequeue; the tenant-bit
//!                                       id layout is pinned in server.meta.json
//!                                       and the file is hot-reloadable via
//!                                       POST /admin/reload-tenants
//!
//! deploy options:
//!   --url URL                           target, e.g. http://127.0.0.1:7313
//!                                       (required)
//!   --policy drain-old|migrate          what happens to running instances of
//!                                       the process: keep their pinned version
//!                                       (default) or migrate those parked at a
//!                                       scope boundary to the new one
//!
//! load options:
//!   --url URL                           target, e.g. http://127.0.0.1:7313
//!   --process NAME                      process to start (server default
//!                                       otherwise)
//!   --count N | --duration S            stop after N requests or S seconds
//!   --rps R                             pace requests at R/sec (unpaced
//!                                       otherwise)
//!   --open-loop                         with --rps: measure latency from each
//!                                       request's scheduled arrival and never
//!                                       reset the schedule when the server
//!                                       lags (no coordinated omission)
//!   --curve R1,R2,...                   sweep these offered rates open-loop,
//!                                       --duration seconds each (default 5),
//!                                       and print latency-under-load per rate
//!   --connections C                     concurrent connections (default 4)
//!   --ids-out FILE                      write accepted instance ids, one per
//!                                       line
//!   --verify FILE                       poll the ids in FILE until every one
//!                                       is finished (exit 3 on timeout)
//!   --verify-timeout S                  verification deadline (default 60)
//!   --wait-ready S                      poll /healthz up to S seconds first
//!   --api-key KEY                       send `Authorization: Bearer KEY` with
//!                                       every request (tenancy-enabled servers)
//!   --drain                             POST /admin/drain when done
//!   --stop                              POST /admin/stop when done
//! ```
//!
//! Programs are auto-provisioned: each step's forward program writes
//! `<step> = 1` on a local database (round-robin over three sites,
//! mirroring the heterogeneous multidatabase), its compensation writes
//! `<step> = -1`; forward programs consult the failure injector under
//! the step name.

use exotica::{provision, steps_of, steps_of_all};
use std::process::ExitCode;
use std::sync::Arc;
use txn_substrate::{DurabilityPolicy, FailurePlan, MultiDatabase};
use wfms_engine::{audit, Engine, EngineConfig, InstanceId, InstanceStatus, Observer};
use wfms_model::Container;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("translate") => emit("translate", &args[1..], |out| out.fdl.clone()),
        Some("dot") => emit("dot", &args[1..], |out| wfms_model::to_dot(&out.process)),
        Some("check") => check(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("crashtest") => crashtest(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("deploy") => deploy_cmd(&args[1..]),
        Some("load") => load_cmd(&args[1..]),
        Some("journal") => journal_cmd(&args[1..]),
        _ => {
            eprintln!(
                "usage: fmtm <translate|dot|check|lint|run|crashtest|serve|deploy|load|journal> [options]"
            );
            eprintln!("see `crates/exotica/src/bin/fmtm.rs` for option details");
            ExitCode::from(2)
        }
    }
}

/// `fmtm journal dump|upgrade <file>`: the two places JSON still meets
/// the journal.
fn journal_cmd(args: &[String]) -> ExitCode {
    use std::io::Write as _;
    use wfms_engine::journal::{Journal, Upgrade};
    let [action, file] = args else {
        eprintln!("usage: fmtm journal <dump|upgrade> <journal-file>");
        return ExitCode::from(2);
    };
    let path = std::path::Path::new(file);
    let report_tail = |tail: &txn_substrate::durability::TornTail, what: &str| {
        eprintln!(
            "fmtm journal: torn tail at byte {} {what}: {}",
            tail.offset, tail.discarded
        );
    };
    match action.as_str() {
        "dump" => {
            let (events, report) = match Journal::read_file(path) {
                Ok(read) => read,
                Err(e) => {
                    eprintln!("fmtm journal dump: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            for event in &events {
                let line = serde_json::to_string(event).expect("Event is always serializable");
                if writeln!(out, "{line}").is_err() {
                    // The reader went away (`| head`): not an error.
                    return ExitCode::SUCCESS;
                }
            }
            if out.flush().is_err() {
                return ExitCode::SUCCESS;
            }
            if let Some(tail) = &report.torn_tail {
                report_tail(tail, "not shown (the next open will truncate it)");
            }
            ExitCode::SUCCESS
        }
        "upgrade" => match Journal::upgrade_json_file(path) {
            Ok(Upgrade::AlreadyBinary) => {
                println!("{file}: already in the binary format, left as it is");
                ExitCode::SUCCESS
            }
            Ok(Upgrade::Converted { events, torn_tail }) => {
                if let Some(tail) = &torn_tail {
                    report_tail(tail, "dropped");
                }
                println!("{file}: {events} event(s) rewritten as binary frames");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fmtm journal upgrade: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("fmtm journal: unknown action `{other}` (dump | upgrade)");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("fmtm: cannot read {path:?}: {e}");
        ExitCode::FAILURE
    })
}

/// One subcommand's arguments, walked left to right by a
/// `while let Some(arg) = flags.next()` loop. A usage error is printed
/// as `fmtm <cmd>: …` where it is met and ends the walk: `next` yields
/// nothing more and [`Flags::usage_error`] is exit code 2.
struct Flags<'a> {
    cmd: &'static str,
    rest: std::slice::Iter<'a, String>,
    failed: bool,
}

impl<'a> Flags<'a> {
    fn new(cmd: &'static str, args: &'a [String]) -> Self {
        Self {
            cmd,
            rest: args.iter(),
            failed: false,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        if self.failed {
            return None;
        }
        self.rest.next().map(String::as_str)
    }

    fn fail(&mut self, message: std::fmt::Arguments<'_>) {
        eprintln!("fmtm {}: {message}", self.cmd);
        self.failed = true;
    }

    fn unknown(&mut self, arg: &str) {
        self.fail(format_args!("unknown option {arg:?}"));
    }

    fn usage_error(&self) -> Option<ExitCode> {
        self.failed.then(|| ExitCode::from(2))
    }

    /// The argument after `flag` as `read` understands it; absent or
    /// not understood, the usage error "`flag` needs `what`".
    fn read<T>(
        &mut self,
        flag: &str,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let value = self.rest.next().and_then(|v| read(v));
        if value.is_none() {
            self.fail(format_args!("{flag} needs {what}"));
        }
        value
    }

    /// [`Flags::read`] by `FromStr`; a `String` takes the argument whole.
    fn value<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Option<T> {
        self.read(flag, what, |v| v.parse().ok())
    }

    /// [`Flags::read`] with the two messages of `serve` and `load`:
    /// "`flag` needs a value" and "bad value V for `flag`".
    fn read_value<T>(&mut self, flag: &str, read: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let text: String = self.value(flag, "a value")?;
        let value = read(&text);
        if value.is_none() {
            self.fail(format_args!("bad value {text:?} for {flag}"));
        }
        value
    }

    /// [`Flags::read_value`] by `FromStr`.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.read_value(flag, |v| v.parse().ok())
    }

    /// `--fail LABEL=PLAN` as `run` and `crashtest` report it.
    fn fail_plan(&mut self) -> Option<(String, FailurePlan)> {
        let kv: String = self.value("--fail", "LABEL=PLAN")?;
        let Some((label, plan_text)) = kv.split_once('=') else {
            self.fail(format_args!("--fail needs LABEL=PLAN, got {kv:?}"));
            return None;
        };
        let plan = parse_plan(plan_text);
        if plan.is_none() {
            self.fail(format_args!(
                "unknown plan {plan_text:?} (use always, first:N, attempts:..)"
            ));
        }
        Some((label.to_owned(), plan?))
    }
}

/// What `fmtm run` executes: the optimized template, the
/// auto-provision step list and the source's non-fatal findings,
/// obtained from either an ATM spec (the full pipeline) or a plain FDL
/// process (the pipeline's stages 4–7, [`exotica::import`]). `spec` is
/// `None` for FDL sources, which have no saga/flexible commit
/// semantics to report.
struct Prepared {
    spec: Option<exotica::ParsedSpec>,
    name: String,
    template: Arc<wfms_engine::CompiledProcess>,
    steps: Vec<(String, String, Option<String>)>,
    diagnostics: Vec<wfms_analyzer::Diagnostic>,
}

impl Prepared {
    fn kind(&self) -> &'static str {
        match &self.spec {
            Some(exotica::ParsedSpec::Saga(_)) => "saga",
            Some(exotica::ParsedSpec::Flexible(_)) => "flexible transaction",
            None => "process",
        }
    }
}

fn prepare(src: &str) -> Result<Prepared, String> {
    match exotica::run_pipeline(src) {
        Ok(out) => Ok(Prepared {
            name: out.process.name.clone(),
            steps: steps_of(&out.spec),
            template: out.template,
            spec: Some(out.spec),
            diagnostics: out.diagnostics,
        }),
        // Not a spec: decide by parsing, as `fmtm lint` does. A text
        // that parses as FDL gets the import gate's own verdict; one
        // that parses as neither reports both parsers' complaints.
        Err(exotica::PipelineError::SpecSyntax(spec_err)) => {
            if let Err(fdl_err) = wfms_fdl::parse_with_provenance(src) {
                return Err(format!(
                    "source parses as neither an ATM spec nor FDL\n  as spec: {spec_err}\n  as FDL: {fdl_err}"
                ));
            }
            let imported = exotica::import(src).map_err(|e| e.to_string())?;
            Ok(Prepared {
                spec: None,
                name: imported.process.name.clone(),
                template: imported.template,
                steps: exotica::steps_of_process(&imported.process),
                diagnostics: imported.diagnostics,
            })
        }
        Err(e) => Err(e.to_string()),
    }
}

/// The spec file named first in `args`, and its text; without one,
/// `cmd`'s usage error.
fn spec_file<'a>(cmd: &str, args: &'a [String]) -> Result<(&'a str, String), ExitCode> {
    let Some(path) = args.first() else {
        eprintln!("fmtm {cmd}: missing spec file");
        return Err(ExitCode::from(2));
    };
    Ok((path, load(path)?))
}

/// What `run` starts from: the source prepared (its non-fatal
/// findings on stderr, as `fmtm lint` renders them), the provisioned
/// multidatabase, an engine (observed when `observe`) with the template
/// registered, and the ids of the `instances` instances it started.
fn start(
    path: &str,
    src: &str,
    seed: u64,
    plans: &[(String, FailurePlan)],
    instances: usize,
    observe: bool,
) -> Result<(Prepared, Arc<MultiDatabase>, Engine, Vec<InstanceId>), ExitCode> {
    let out = prepare(src).map_err(|e| {
        eprintln!("fmtm: {e}");
        ExitCode::FAILURE
    })?;
    for d in &out.diagnostics {
        eprintln!("{path}: {}", d.render());
    }
    let (fed, registry) = provision(&out.steps, seed, plans);
    // The observability layer stays off (a disabled observer, one
    // branch per hook) unless it is asked for.
    let engine = Engine::with_config(
        Arc::clone(&fed),
        registry,
        EngineConfig {
            observer: observe.then(|| Arc::new(Observer::enabled())),
            ..EngineConfig::default()
        },
    );
    // The pipeline already validated, compiled and optimized the
    // process; hand the executable template straight to the engine.
    engine.register_compiled(Arc::clone(&out.template));
    let ids = (0..instances.max(1))
        .map(|_| {
            engine
                .start(&out.name, Container::empty())
                .expect("registered above")
        })
        .collect();
    Ok((out, fed, engine, ids))
}

/// `translate` and `dot`: the pipeline over the spec file, rendered.
fn emit(cmd: &str, args: &[String], render: fn(&exotica::PipelineOutput) -> String) -> ExitCode {
    let src = match spec_file(cmd, args) {
        Ok((_, src)) => src,
        Err(code) => return code,
    };
    match exotica::run_pipeline(&src) {
        Ok(out) => {
            print!("{}", render(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fmtm: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let src = match spec_file("check", args) {
        Ok((_, src)) => src,
        Err(code) => return code,
    };
    match exotica::run_pipeline(&src) {
        Ok(out) => {
            println!(
                "OK: {} {:?} -> process with {} activities ({} incl. blocks), {} connectors, {} bytes of FDL",
                match &out.spec {
                    exotica::ParsedSpec::Saga(_) => "saga",
                    exotica::ParsedSpec::Flexible(_) => "flexible transaction",
                },
                out.spec.name(),
                out.process.activities.len(),
                out.process.total_activities(),
                out.process.control.len(),
                out.fdl.len(),
            );
            let total: u128 = out.stage_nanos.iter().map(|(_, n)| n).sum();
            print!("stages ({:.1} ms):", total as f64 / 1e6);
            for (stage, nanos) in &out.stage_nanos {
                print!(" {stage}={:.0}us", *nanos as f64 / 1e3);
            }
            println!();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut allowed: Vec<String> = Vec::new();
    let mut flags = Flags::new("lint", args);
    while let Some(arg) = flags.next() {
        match arg {
            "--format" => match flags
                .value::<String>("--format", "human or json")
                .as_deref()
            {
                Some("json") => json = true,
                Some("human") => json = false,
                Some(other) => {
                    flags.fail(format_args!("--format needs human or json, got {other:?}"))
                }
                None => {}
            },
            "--allow" => allowed.extend(flags.value::<String>("--allow", "a WAxxx code")),
            "--explain" => {
                let Some(code) = flags.value::<String>("--explain", "a WAxxx code") else {
                    break;
                };
                return match wfms_analyzer::explain(&code) {
                    Some(text) => {
                        println!("{code}: {text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("fmtm lint: unknown analyzer code {code:?}");
                        ExitCode::from(2)
                    }
                };
            }
            other if other.starts_with('-') => flags.unknown(other),
            other => {
                if path.replace(other).is_some() {
                    flags.fail(format_args!("expected exactly one file"));
                }
            }
        }
    }
    if let Some(code) = flags.usage_error() {
        return code;
    }
    let Some(path) = path else {
        eprintln!("fmtm lint: missing file (FDL process or ATM spec)");
        return ExitCode::from(2);
    };
    let src = match load(path) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let diags = match exotica::lint_source(&src, &allowed) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("fmtm lint: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", wfms_analyzer::render_json(&diags));
    } else {
        for d in &diags {
            println!("{path}: {}", d.render());
        }
        if diags.is_empty() {
            println!("{path}: clean");
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_plan(text: &str) -> Option<FailurePlan> {
    if text == "always" {
        return Some(FailurePlan::Always);
    }
    if let Some(n) = text.strip_prefix("first:") {
        return n.parse().ok().map(FailurePlan::FirstN);
    }
    if let Some(list) = text.strip_prefix("attempts:") {
        let attempts: Option<std::collections::BTreeSet<u32>> =
            list.split(',').map(|p| p.trim().parse().ok()).collect();
        return attempts.map(FailurePlan::OnAttempts);
    }
    None
}

fn run(args: &[String]) -> ExitCode {
    let (path, src) = match spec_file("run", args) {
        Ok(file) => file,
        Err(code) => return code,
    };
    let mut plans: Vec<(String, FailurePlan)> = Vec::new();
    let mut seed = 0u64;
    let mut trace = false;
    let mut audit_flag = false;
    let mut instances = 1usize;
    let mut metrics_out: Option<String> = None;
    let mut flags = Flags::new("run", &args[1..]);
    while let Some(arg) = flags.next() {
        match arg {
            "--fail" => plans.extend(flags.fail_plan()),
            "--seed" => seed = flags.value("--seed", "a number").unwrap_or(seed),
            "--trace" => trace = true,
            "--audit" => audit_flag = true,
            "--instances" => {
                instances = flags.value("--instances", "a number").unwrap_or(instances)
            }
            "--metrics-out" => metrics_out = flags.value("--metrics-out", "a file path"),
            other => flags.unknown(other),
        }
    }
    if let Some(code) = flags.usage_error() {
        return code;
    }

    let (out, fed, engine, ids) =
        match start(path, &src, seed, &plans, instances, metrics_out.is_some()) {
            Ok(started) => started,
            Err(code) => return code,
        };
    if let Err(e) = engine.run_all() {
        eprintln!("fmtm: {e}");
        return ExitCode::FAILURE;
    }
    for &id in &ids {
        match engine.status(id).expect("instance exists") {
            InstanceStatus::Finished => {}
            other => {
                eprintln!("fmtm: instance {id} ended in state {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let id = *ids.first().expect("at least one instance");
    // Translated specs publish their outcome in the `Committed`
    // output member; a plain FDL process has no such protocol — every
    // instance finishing is its success.
    let committed = out.spec.is_none()
        || ids.iter().all(|&i| {
            engine
                .output(i)
                .expect("instance exists")
                .get("Committed")
                .and_then(|v| v.as_int())
                == Some(1)
        });
    println!(
        "{} {:?}: {}",
        out.kind(),
        out.name,
        if out.spec.is_none() {
            "FINISHED"
        } else if committed {
            "COMMITTED"
        } else {
            "ABORTED (compensated)"
        }
    );
    print!("markers:");
    for (step, _, _) in &out.steps {
        for site in fed.names() {
            if let Some(v) = fed.db(&site).unwrap().peek(step) {
                print!(" {step}={v}");
            }
        }
    }
    println!();
    if trace {
        println!("trace:");
        for t in audit::trace(&engine.journal_events(), id) {
            println!("  {t}");
        }
    }
    if audit_flag {
        println!("audit:");
        for line in audit::render(&engine.journal_events()) {
            println!("  {line}");
        }
    }
    if let Some(path) = metrics_out {
        let snapshot = engine.metrics();
        let body = if path.ends_with(".prom") {
            snapshot.to_prometheus()
        } else {
            serde_json::to_string_pretty(&snapshot).expect("a snapshot is always serializable")
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("fmtm run: cannot write metrics {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics: wrote {path}");
    }
    if committed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// `fmtm crashtest` — the §3.3 forward-recovery oracle from the
/// command line: for every journal prefix of the translated process's
/// reference run, simulate an engine crash (optionally with a torn
/// half-written trailing event), recover, resume, and require the
/// outcome to be indistinguishable from the uncrashed run.
fn crashtest(args: &[String]) -> ExitCode {
    let src = match spec_file("crashtest", args) {
        Ok((_, src)) => src,
        Err(code) => return code,
    };
    let mut plans: Vec<(String, FailurePlan)> = Vec::new();
    let mut seed = 0u64;
    let mut instances = 1usize;
    let mut report_path: Option<String> = None;
    let mut torn_tail = true;
    let mut quick = false;
    let mut flags = Flags::new("crashtest", &args[1..]);
    while let Some(arg) = flags.next() {
        match arg {
            "--fail" => plans.extend(flags.fail_plan()),
            "--seed" => seed = flags.value("--seed", "a number").unwrap_or(seed),
            "--instances" => {
                instances = flags.value("--instances", "a number").unwrap_or(instances)
            }
            "--report" => report_path = flags.value("--report", "a path"),
            "--no-torn-tail" => torn_tail = false,
            "--quick" => quick = true,
            other => flags.unknown(other),
        }
    }
    if let Some(code) = flags.usage_error() {
        return code;
    }

    let out = match exotica::run_pipeline(&src) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fmtm: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steps = steps_of(&out.spec);

    // The scenario matrix: the run as configured on the command line,
    // plus (unless --quick) one variant per step where that step
    // always refuses — the sweep then covers both the forward path and
    // every compensation/alternative-path routing the spec can take.
    let mut scenarios: Vec<(String, Vec<(String, FailurePlan)>)> =
        vec![("as-configured".to_owned(), plans.clone())];
    if !quick {
        for (step, _, _) in &steps {
            let mut with = plans.clone();
            with.push((step.clone(), FailurePlan::Always));
            scenarios.push((format!("fail-{step}"), with));
        }
    }

    let starts: Vec<(String, Container)> = (0..instances.max(1))
        .map(|_| (out.process.name.clone(), Container::empty()))
        .collect();
    let cfg = wfms_engine::SweepConfig { torn_tail };
    let mut reports: Vec<wfms_engine::SweepReport> = Vec::new();
    let mut skipped = 0usize;
    for (label, scenario_plans) in &scenarios {
        let result = wfms_engine::crashtest::sweep(
            label,
            std::slice::from_ref(&out.process),
            &starts,
            &|| provision(&steps, seed, scenario_plans),
            &cfg,
        );
        match result {
            Ok(report) => {
                println!("{}", report.summary());
                reports.push(report);
            }
            Err(e) if label == "as-configured" => {
                eprintln!("fmtm crashtest: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                // An auto-generated variant whose reference run does
                // not terminate (e.g. a retriable step forced to
                // always fail) poses no recovery question: skip it.
                println!("{label}: skipped ({e})");
                skipped += 1;
            }
        }
    }

    let all_ok = reports.iter().all(|r| r.ok());
    let points: usize = reports.iter().map(|r| r.total_events + 1).sum();
    println!(
        "crashtest {:?}: {} scenario(s), {} crash point(s), {} skipped: {}",
        out.spec.name(),
        reports.len(),
        points,
        skipped,
        if all_ok { "OK" } else { "FAILED" }
    );
    // What recovery actually repaired across the sweep — a sweep that
    // passes with all-zero fix-ups exercised nothing.
    let mut fixups: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for r in &reports {
        for (name, v) in &r.recovery_fixups {
            *fixups.entry(name.as_str()).or_insert(0) += v;
        }
    }
    print!("recovery fix-ups:");
    if fixups.is_empty() {
        print!(" none");
    }
    for (name, v) in &fixups {
        print!(" {}={v}", name.strip_prefix("recovery.").unwrap_or(name));
    }
    println!();

    if let Some(p) = report_path {
        let body = format!(
            "[{}]",
            reports
                .iter()
                .map(|r| r.to_json())
                .collect::<Vec<_>>()
                .join(",")
        );
        if let Err(e) = std::fs::write(&p, body) {
            eprintln!("fmtm crashtest: cannot write report {p:?}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// `fmtm serve` — the long-lived workflow service: translates the
/// given specs once, opens (or reopens) the sharded instance manager
/// on the data directory, and serves the HTTP/1.1 JSON protocol until
/// `POST /admin/stop`.
fn serve(args: &[String]) -> ExitCode {
    let mut spec_paths: Vec<String> = Vec::new();
    let mut cfg = wfms_server::PoolConfig::new("fmtm-data");
    let mut server_cfg = wfms_server::ServerConfig::new("");
    server_cfg.port = 7313;
    let mut seed = 0u64;
    let at_least_one = |v: &str| v.parse().ok().map(|n: usize| n.max(1));
    let mut flags = Flags::new("serve", args);
    while let Some(arg) = flags.next() {
        match arg {
            "--shards" => cfg.shards = flags.read_value(arg, at_least_one).unwrap_or(cfg.shards),
            "--port" => server_cfg.port = flags.parsed(arg).unwrap_or(server_cfg.port),
            "--addr" => server_cfg.addr = flags.parsed(arg).unwrap_or(server_cfg.addr),
            "--data" => cfg.data_dir = flags.parsed(arg).unwrap_or(cfg.data_dir),
            "--queue" => {
                cfg.queue_capacity = flags
                    .read_value(arg, at_least_one)
                    .unwrap_or(cfg.queue_capacity)
            }
            "--batch" => {
                cfg.batch_max = flags.read_value(arg, at_least_one).unwrap_or(cfg.batch_max)
            }
            "--durability" => {
                cfg.durability = flags
                    .read_value(arg, parse_durability)
                    .unwrap_or(cfg.durability)
            }
            "--seed" => seed = flags.parsed(arg).unwrap_or(seed),
            "--person" => {
                let person = flags.read_value(arg, |v| {
                    let (name, roles) = v.split_once('=')?;
                    Some((name.to_owned(), roles.to_owned()))
                });
                if let Some((name, roles)) = person {
                    let roles: Vec<&str> = roles.split(',').collect();
                    cfg.org = std::mem::take(&mut cfg.org).person(&name, &roles);
                }
            }
            "--reactors" => server_cfg.reactors = flags.parsed(arg).unwrap_or(server_cfg.reactors),
            "--tenants" => server_cfg.tenants_path = flags.parsed(arg),
            other if other.starts_with('-') => flags.unknown(other),
            path => spec_paths.push(path.to_owned()),
        }
    }
    if let Some(code) = flags.usage_error() {
        return code;
    }
    if spec_paths.is_empty() {
        eprintln!("fmtm serve: at least one spec file is required");
        return ExitCode::from(2);
    }

    let mut templates = Vec::new();
    let mut specs = Vec::new();
    for path in &spec_paths {
        let src = match load(path) {
            Ok(s) => s,
            Err(c) => return c,
        };
        match exotica::run_pipeline(&src) {
            Ok(out) => {
                if server_cfg.default_process.is_empty() {
                    server_cfg.default_process = out.process.name.clone();
                }
                templates.push(out.process);
                specs.push(out.spec);
            }
            Err(e) => {
                eprintln!("fmtm serve: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let steps = steps_of_all(&specs);
    cfg.templates = templates;
    if let Some(path) = &server_cfg.tenants_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fmtm serve: tenants file {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match wfms_server::parse_tenants(&text) {
            Ok(specs) => cfg.tenants = specs,
            Err(e) => {
                eprintln!("fmtm serve: tenants file {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let ntenants = cfg.tenants.len();
    let startup = format!(
        "(shards {}, queue {}, batch {}, data {})",
        cfg.shards,
        cfg.queue_capacity,
        cfg.batch_max,
        cfg.data_dir.display(),
    );

    let registry = Arc::new(wfms_observe::Registry::new());
    let provision_shard =
        move |shard: usize| provision(&steps, seed.wrapping_add(shard as u64), &[]);
    let pool = match wfms_server::ShardPool::open(cfg, registry, &provision_shard) {
        Ok(pool) => Arc::new(pool),
        Err(e) => {
            eprintln!("fmtm serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opened: Vec<String> = pool.opened().iter().map(ToString::to_string).collect();

    let server = match wfms_server::Server::start(pool, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fmtm serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving {} template(s) at http://{} {startup}",
        spec_paths.len(),
        server.local_addr(),
    );
    for line in &opened {
        println!("{line}");
    }
    if ntenants > 0 {
        println!("tenancy enabled: {ntenants} tenant(s), API-key auth on the data plane");
    }
    server.wait_stop();
    server.shutdown(true);
    println!("stopped (journals drained and checkpointed)");
    ExitCode::SUCCESS
}

/// `group` is the group commit; `batched:N`, its spelling before a
/// group was a turn, still reads as it, `N` ignored.
fn parse_durability(text: &str) -> Option<DurabilityPolicy> {
    match text {
        "per-event" => Some(DurabilityPolicy::PerEvent),
        "sync" => Some(DurabilityPolicy::PerEventSync),
        "group" => Some(DurabilityPolicy::Batched { n: 64 }),
        _ => text
            .strip_prefix("batched:")
            .and_then(|n| n.parse::<usize>().ok())
            .map(|_| DurabilityPolicy::Batched { n: 64 }),
    }
}

/// `fmtm deploy` — translates a spec and registers the resulting
/// process definition as a new template version in a running
/// `fmtm serve`, via `POST /admin/deploy`.
fn deploy_cmd(args: &[String]) -> ExitCode {
    let mut spec_path: Option<String> = None;
    let mut url: Option<String> = None;
    let mut policy = "drain-old".to_owned();
    let mut flags = Flags::new("deploy", args);
    while let Some(arg) = flags.next() {
        match arg {
            "--url" => url = flags.value(arg, "a value"),
            "--policy" => policy = flags.value(arg, "a value").unwrap_or(policy),
            other if other.starts_with('-') => flags.unknown(other),
            path => spec_path = Some(path.to_owned()),
        }
    }
    if let Some(code) = flags.usage_error() {
        return code;
    }
    let Some(path) = spec_path else {
        eprintln!("fmtm deploy: missing spec file");
        return ExitCode::from(2);
    };
    let Some(url) = url else {
        eprintln!("fmtm deploy: --url is required");
        return ExitCode::from(2);
    };
    let src = match load(&path) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let out = match exotica::run_pipeline(&src) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fmtm deploy: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let body = serde_json::to_string(&wfms_server::api::DeployRequest {
        definition: out.process,
        policy: Some(policy),
    })
    .expect("deploy request serializes");
    match wfms_server::client::deploy(&url, &body) {
        Ok((200, answer)) => {
            match serde_json::from_str::<wfms_server::api::DeployResponse>(&answer) {
                Ok(resp) => {
                    println!(
                        "deployed {}@{} (now the default for new submits)",
                        resp.process, resp.version
                    );
                    println!(
                        "instances: {} migrated, {} draining on old versions, {} already current",
                        resp.migrated, resp.skipped, resp.already_current
                    );
                }
                Err(_) => println!("deployed: {answer}"),
            }
            ExitCode::SUCCESS
        }
        Ok((code, answer)) => {
            eprintln!("fmtm deploy: server answered {code}: {answer}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fmtm deploy: {url}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `fmtm load` — load generator and drill client for `fmtm serve`.
fn load_cmd(args: &[String]) -> ExitCode {
    let mut url: Option<String> = None;
    let mut process: Option<String> = None;
    let mut count: Option<u64> = None;
    let mut duration: Option<u64> = None;
    let mut rps: Option<f64> = None;
    let mut connections = 4usize;
    let mut ids_out: Option<String> = None;
    let mut verify: Option<String> = None;
    let mut verify_timeout = 60u64;
    let mut wait_ready: Option<u64> = None;
    let mut do_drain = false;
    let mut do_stop = false;
    let mut open_loop = false;
    let mut curve: Option<Vec<f64>> = None;
    let mut api_key: Option<String> = None;
    let mut flags = Flags::new("load", args);
    while let Some(arg) = flags.next() {
        match arg {
            "--drain" => do_drain = true,
            "--stop" => do_stop = true,
            "--open-loop" => open_loop = true,
            "--url" => url = flags.parsed(arg),
            "--process" => process = flags.parsed(arg),
            "--count" => count = flags.parsed(arg),
            "--duration" => duration = flags.parsed(arg),
            "--rps" => rps = flags.parsed(arg),
            "--connections" => {
                connections = flags.parsed(arg).map_or(connections, |c: usize| c.max(1))
            }
            "--ids-out" => ids_out = flags.parsed(arg),
            "--verify" => verify = flags.parsed(arg),
            "--verify-timeout" => verify_timeout = flags.parsed(arg).unwrap_or(verify_timeout),
            "--wait-ready" => wait_ready = flags.parsed(arg),
            "--curve" => {
                curve = flags.read_value(arg, |v| {
                    v.split(',').map(|r| r.trim().parse().ok()).collect()
                })
            }
            "--api-key" => api_key = flags.parsed(arg),
            other => flags.unknown(other),
        }
    }
    if let Some(code) = flags.usage_error() {
        return code;
    }
    let Some(url) = url else {
        eprintln!("fmtm load: --url is required");
        return ExitCode::from(2);
    };
    if count.is_none()
        && duration.is_none()
        && verify.is_none()
        && curve.is_none()
        && !do_drain
        && !do_stop
        && wait_ready.is_none()
    {
        eprintln!(
            "fmtm load: nothing to do (give --count, --duration, --curve, --verify, --drain or --stop)"
        );
        return ExitCode::from(2);
    }
    if open_loop && rps.is_none() && curve.is_none() {
        eprintln!("fmtm load: --open-loop needs --rps (or use --curve)");
        return ExitCode::from(2);
    }

    if let Some(secs) = wait_ready {
        if !wfms_server::wait_ready(&url, std::time::Duration::from_secs(secs)) {
            eprintln!("fmtm load: server at {url} not ready after {secs}s");
            return ExitCode::FAILURE;
        }
    }

    if let Some(rates) = &curve {
        let base = wfms_server::LoadOptions {
            url: url.clone(),
            process: process.clone(),
            count: None,
            duration: None,
            rps: None,
            connections,
            collect_ids: false,
            open_loop: true,
            api_key: api_key.clone(),
        };
        let per_rate = std::time::Duration::from_secs(duration.unwrap_or(5));
        let points = wfms_server::latency_curve(&base, rates, per_rate);
        println!("curve: offered_rps achieved_rps sent accepted errors p50_us p95_us p99_us");
        for p in &points {
            println!(
                "curve: {:.0} {:.0} {} {} {} {} {} {}",
                p.offered_rps,
                p.achieved_rps,
                p.sent,
                p.accepted,
                p.errors,
                p.p50_us,
                p.p95_us,
                p.p99_us,
            );
        }
    } else if count.is_some() || duration.is_some() {
        let opts = wfms_server::LoadOptions {
            url: url.clone(),
            process,
            count,
            duration: duration.map(std::time::Duration::from_secs),
            rps,
            connections,
            collect_ids: ids_out.is_some(),
            open_loop,
            api_key: api_key.clone(),
        };
        let report = wfms_server::run_load(&opts);
        println!(
            "load: {} sent, {} accepted, {} overloaded, {} errors in {:.3}s",
            report.sent,
            report.accepted,
            report.overloaded,
            report.errors,
            report.elapsed.as_secs_f64(),
        );
        println!(
            "throughput: {:.0} accepted/sec | latency p50={}us p95={}us p99={}us",
            report.rps(),
            report.p50_us,
            report.p95_us,
            report.p99_us,
        );
        if let Some(path) = &ids_out {
            let body: String = report.ids.iter().map(|id| format!("{id}\n")).collect();
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("fmtm load: cannot write {path:?}: {e}");
                return ExitCode::FAILURE;
            }
            println!("ids: wrote {} to {path}", report.ids.len());
        }
    }

    if let Some(path) = &verify {
        let text = match load(path) {
            Ok(t) => t,
            Err(c) => return c,
        };
        let ids: Vec<u64> = text.lines().filter_map(|l| l.trim().parse().ok()).collect();
        let failed = wfms_server::verify_ids(
            &url,
            api_key.as_deref(),
            &ids,
            std::time::Duration::from_secs(verify_timeout),
        );
        if failed.is_empty() {
            println!("verify: all {} instance(s) finished", ids.len());
        } else {
            eprintln!(
                "verify: {} of {} instance(s) did not finish:",
                failed.len(),
                ids.len()
            );
            for (id, state) in failed.iter().take(20) {
                eprintln!("  instance {id}: {state}");
            }
            return ExitCode::from(3);
        }
    }

    if do_drain && !wfms_server::client::drain(&url) {
        eprintln!("fmtm load: drain request failed");
        return ExitCode::FAILURE;
    }
    if do_stop && !wfms_server::client::stop(&url) {
        eprintln!("fmtm load: stop request failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_durability;
    use txn_substrate::DurabilityPolicy;

    /// `group` is the group commit, and `batched:N`, its spelling
    /// before, still reads as it whatever `N` is; a count that is not
    /// one is still refused.
    #[test]
    fn group_and_its_old_spelling_read_alike() {
        let group = parse_durability("group");
        assert!(matches!(group, Some(DurabilityPolicy::Batched { .. })));
        assert_eq!(parse_durability("batched:64"), group);
        assert_eq!(parse_durability("batched:1"), group);
        assert_eq!(parse_durability("batched:"), None);
        assert_eq!(
            parse_durability("sync"),
            Some(DurabilityPolicy::PerEventSync)
        );
        assert_eq!(
            parse_durability("per-event"),
            Some(DurabilityPolicy::PerEvent)
        );
    }
}
