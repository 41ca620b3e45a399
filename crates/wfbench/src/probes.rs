//! The traced pass: per-layer probes and the hand-replayed trace.
//!
//! Separate from the timed rounds, which always run untraced. Two
//! parts:
//!
//! 1. **Probes** — each calls one public function of one layer in a
//!    loop of fixed count and reports the median. They are the same
//!    for every workload, so a layer's number can be read next to any
//!    workload's end-to-end figure.
//! 2. **The trace** — the workload's operation replayed by hand on
//!    one thread, one span around each call into a layer, once with
//!    the tracer off and once on. `trace.coverage` is the share of
//!    the operation's outside-view time the stage self times explain;
//!    the remainder is socket and wake-up time the outside view
//!    cannot split.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::Verdict;
use crate::host::{self, Scratch};
use crate::layers::{self, Eng, Pool, Reply, State, Translated, FLEX, SAGA};
use crate::loadgen::{script, Accepted, Conn, Op, Rng, Wire, BURST};
use crate::metrics::Workload;
use crate::report::Json;
use crate::spans::{summarize, StageSummary, Tracer};
use crate::stats::{median, Samples};
use crate::workloads::{http_config, ENGINE_FAILS, SAGA_FAILS};

/// Batches a micro-probe repeats; the median batch is reported.
const BATCHES: usize = 9;
/// Requests (or instances) in the hand-replayed trace.
const TRACED_OPS: usize = 2_000;
/// Finished instances in the checkpoint the reopen probe recovers.
const CHECKPOINTED: usize = 100;

pub struct Traced {
    pub values: Vec<(&'static str, f64, usize)>,
    /// Per-stage summary of the trace.
    pub stages: Json,
    /// Every span, for `trace.json`.
    pub trace: Json,
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Default)]
struct Out {
    values: Vec<(&'static str, f64, usize)>,
    verdict: Verdict,
}

impl Out {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.push((name, value, n));
    }

    fn expect(&mut self, ok: bool, what: &str) {
        if ok {
            self.verdict.pass();
        } else {
            eprintln!("traced pass: {what}");
            self.verdict.fail(|| what.to_owned());
        }
    }
}

/// Per-call nanoseconds of `f`: median over [`BATCHES`] batches of
/// `iters` calls.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

fn p50_us(samples: &Samples) -> f64 {
    samples.clone().sorted().quantile_us(50, 100)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(workload: Workload, seed: u64, quick: bool) -> Result<Traced, String> {
    let scratch = Scratch::create(&format!("trace-{}", workload.name()))
        .map_err(|e| format!("scratch dir: {e}"))?;
    host::confine_to_one_cpu().map_err(|e| format!("confine to one CPU: {e}"))?;
    let div = if quick { 4 } else { 1 };
    let mut out = Out::default();
    let saga = layers::translate(&layers::saga_text());
    let flex = layers::translate(&layers::flex_text());

    let started = Instant::now();
    let progress = |what: &str| {
        eprintln!(
            "traced pass: {what} done at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    engine_probes(&mut out, &scratch, &saga, &flex, seed, div)?;
    progress("engine probes");
    small_probes(&mut out, &scratch, &saga, &flex, seed, div)?;
    wire_probes(&mut out, &saga);
    progress("set-up, model and wire probes");
    pool_probes(&mut out, &scratch, &saga, &flex, seed, div)?;
    progress("pool and server probes");
    generator_probe(&mut out, div)?;
    progress("generator probe");

    let trace = match workload {
        Workload::SagaCommitHttp | Workload::FlexMixHttp => {
            let template = if workload == Workload::SagaCommitHttp {
                &saga
            } else {
                &flex
            };
            trace_http(&mut out, &scratch, workload, template, seed, div)?
        }
        Workload::EngineAtmMix => trace_engine(&mut out, &saga, &flex, seed, div),
        Workload::RecoverReplay => trace_recover(&mut out, &scratch, &saga, seed, div)?,
    };
    progress("trace");
    let stages = summarize(&trace.tracer, |req| trace.counted(req));
    let explained: f64 = stages
        .iter()
        .filter(|s| !s.root)
        .map(|s| s.median_self_us)
        .sum();
    let (untraced, traced) = (median(&trace.untraced_us), median(&trace.traced_us));
    out.put("trace.op_us", trace.outside_us, trace.untraced_us.len());
    out.put(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        trace.traced_us.len(),
    );
    out.put(
        "trace.coverage",
        explained / trace.outside_us,
        trace.traced_us.len(),
    );
    out.put(
        "trace.spans",
        trace.tracer.spans.len() as f64,
        trace.tracer.spans.len(),
    );

    Ok(Traced {
        values: out.values,
        stages: stages_json(&stages),
        trace: trace_json(&trace.tracer),
        attempted: out.verdict.attempted,
        failed: out.verdict.failed,
    })
}

fn stages_json(stages: &[StageSummary]) -> Json {
    Json::arr(stages.iter().map(|s| {
        Json::obj(vec![
            ("name", Json::str(s.name)),
            ("count", Json::int(s.count as u64)),
            ("median_self_us", Json::num(s.median_self_us)),
            ("median_total_us", Json::num(s.median_total_us)),
        ])
    }))
}

/// Spans as rows of `[name, start_ns, end_ns, parent, req]`; `name`
/// indexes `names`, `parent` indexes `spans` (−1 for a root).
fn trace_json(tracer: &Tracer) -> Json {
    Json::obj(vec![
        (
            "names",
            Json::arr(tracer.names.iter().map(|n| Json::str(n))),
        ),
        (
            "columns",
            Json::arr(["name", "start_ns", "end_ns", "parent", "req"].map(Json::str)),
        ),
        (
            "spans",
            Json::arr(tracer.spans.iter().map(|s| {
                let parent = if s.parent == crate::spans::ROOT {
                    Json::num(-1.0)
                } else {
                    Json::int(u64::from(s.parent))
                };
                Json::arr([
                    Json::int(u64::from(s.name)),
                    Json::int(s.start_ns),
                    Json::int(s.end_ns),
                    parent,
                    Json::int(u64::from(s.req)),
                ])
            })),
        ),
    ])
}

// ---------------------------------------------------------------- probes

struct Drive {
    total: Duration,
    starts: Samples,
    runs: Samples,
    flushes: Samples,
}

/// `n` instances of `process`, start and run timed apart, one flush
/// per group-commit's worth of instances — the shard worker's loop.
fn drive(out: &mut Out, eng: &Eng, process: &str, n: usize, rng: &mut Rng) -> Drive {
    let mut d = Drive {
        total: Duration::ZERO,
        starts: Samples::with_capacity(n),
        runs: Samples::with_capacity(n),
        flushes: Samples::default(),
    };
    let mut finished = 0;
    let wall = Instant::now();
    for i in 0..n {
        let order = rng.order();
        let (id, took) = timed(|| eng.start(process, order));
        d.starts.push(took);
        let (state, took) = timed(|| eng.run(id));
        d.runs.push(took);
        finished += usize::from(state == State::Finished);
        if (i + 1) % layers::BATCH_MAX == 0 {
            d.flushes.push(timed(|| eng.flush()).1);
        }
    }
    eng.flush();
    d.total = wall.elapsed();
    out.expect(finished == n, "an instance did not finish");
    d
}

/// The engine on its own: navigation, state, journal, recovery.
/// Runs first — `state.rss_kb_per_inst` needs a heap nothing else has
/// grown yet.
fn engine_probes(
    out: &mut Out,
    scratch: &Scratch,
    saga: &Translated,
    flex: &Translated,
    seed: u64,
    div: usize,
) -> Result<(), String> {
    let both = [saga, flex];
    let n = 10_000 / div;
    let mut rng = Rng::new(seed, "probes/engine");

    let world = layers::world(&both, seed, &[]);
    let rss = host::rss_bytes();
    let memory = layers::engine(&world, &both, None, false);
    let in_memory = drive(out, &memory, SAGA, n, &mut rng);
    out.put(
        "wfms-engine.state.rss_kb_per_inst",
        host::rss_bytes().saturating_sub(rss) as f64 / 1024.0 / n as f64,
        n,
    );
    let (start_us, run_us) = (p50_us(&in_memory.starts), p50_us(&in_memory.runs));
    out.put("wfms-engine.engine.start_us", start_us, n);
    out.put("wfms-engine.navigator.run_us.saga_commit", run_us, n);
    let executions = memory.executions(1);
    out.put(
        "wfms-engine.navigator.us_per_activity",
        run_us / executions as f64,
        n,
    );

    // The journal codec, on events captured from that run.
    let journal = memory.journal();
    let events_per_inst = journal.len() as f64 / n as f64;
    out.put("wfms-engine.journal.events_per_inst", events_per_inst, n);
    let commit = layers::BATCH_MAX * events_per_inst.round() as usize;
    let sample = journal.truncated(16 * commit);
    let appended = scratch.sub("append.journal");
    let file = layers::journal_file(&appended);
    let appends: Vec<f64> = sample
        .chunks(commit)
        .into_iter()
        .map(|chunk| {
            let len = chunk.len();
            timed(|| file.append_batch(chunk)).1.as_secs_f64() * 1e6 / len as f64
        })
        .collect();
    file.flush();
    out.put(
        "wfms-engine.journal.bytes_per_event",
        appended.metadata().map_or(f64::NAN, |m| m.len() as f64) / sample.len() as f64,
        sample.len(),
    );
    out.put(
        "wfms-engine.journal.append_us_per_event",
        median(&appends),
        appends.len(),
    );
    drop((memory, file));

    // The same loop with the journal mirrored to a file.
    let path = scratch.sub("engine.journal");
    let world = layers::world(&both, seed, &[]);
    let mirrored = layers::engine(&world, &both, Some(&path), false);
    let on_file = drive(out, &mirrored, SAGA, n, &mut rng);
    out.put(
        "wfms-engine.journal.flush_us",
        p50_us(&on_file.flushes),
        on_file.flushes.len(),
    );
    out.put(
        "wfms-engine.journal.mirror_cost_us_per_inst",
        (on_file.total.as_secs_f64() - in_memory.total.as_secs_f64()) * 1e6 / n as f64,
        n,
    );

    // Recovery from that journal as a crash would leave it, then the
    // checkpoint a drain would write.
    let crashed = scratch.sub("crashed.journal");
    std::fs::copy(&path, &crashed).map_err(|e| format!("copy journal: {e}"))?;
    let events = mirrored.journal().len();
    let (recovered, took) =
        timed(|| layers::recover(&crashed, &both, &layers::world(&both, seed, &[])));
    out.expect(recovered.instances() == n, "recovery lost instances");
    out.put(
        "wfms-engine.recovery.replay_us_per_event",
        took.as_secs_f64() * 1e6 / events as f64,
        events,
    );
    drop(recovered);
    let (dropped, took) = timed(|| mirrored.checkpoint());
    out.expect(dropped > 0, "checkpoint compacted nothing");
    out.put("wfms-engine.engine.checkpoint_ms", ms(took), n);
    drop(mirrored);

    // The other ways an instance can go, forced by the failure plan.
    let m = 1_000 / div;
    for (name, process, plan) in [
        (
            "wfms-engine.navigator.run_us.saga_compensate",
            SAGA,
            &[("S6", 1.0)][..],
        ),
        ("wfms-engine.navigator.run_us.flex_p1", FLEX, &[][..]),
        (
            "wfms-engine.navigator.run_us.flex_alt",
            FLEX,
            &[("T8", 1.0)][..],
        ),
    ] {
        let eng = layers::engine(&layers::world(&both, seed, plan), &both, None, false);
        let driven = drive(out, &eng, process, m, &mut rng);
        out.put(name, p50_us(&driven.runs), m);
    }

    // The reference interpreter on the same saga.
    let mut reference = layers::ref_engine(&layers::world(&both, seed, &[]), &both);
    let mut runs = Samples::default();
    for _ in 0..500 / div {
        let (state, took) = timed(|| reference.run_once(SAGA, 123_456));
        runs.push(took);
        out.expect(state == State::Finished, "reference run did not finish");
    }
    out.put("wfms-engine.interp.ref_run_us", p50_us(&runs), runs.len());

    // Every metric hook on, against the default; rounds interleaved so
    // both sides see the same machine.
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (totals, on) in [(&mut plain, false), (&mut observed, true)] {
            let eng = layers::engine(&layers::world(&both, seed, &[]), &both, None, on);
            totals.push(drive(out, &eng, SAGA, m, &mut rng).total.as_secs_f64());
        }
    }
    out.put(
        "wfms-engine.metrics.observe_overhead_pct",
        (median(&observed) - median(&plain)) / median(&plain) * 100.0,
        5 * m,
    );

    // What the workflow engine costs over running the model natively.
    let native_world = layers::world(&both, seed, &[]);
    let flex_run_us = out
        .values
        .iter()
        .find(|(name, _, _)| *name == "wfms-engine.navigator.run_us.flex_p1")
        .map_or(f64::NAN, |(_, v, _)| *v);
    for (native, ratio, template, workflow_us) in [
        (
            "atm.saga.native_run_us",
            "exotica.wf_over_native.saga",
            saga,
            start_us + run_us,
        ),
        (
            "atm.flexible.native_run_us",
            "exotica.wf_over_native.flex",
            flex,
            start_us + flex_run_us,
        ),
    ] {
        let mut runs = Samples::default();
        for _ in 0..2 * m {
            let (committed, took) = timed(|| layers::run_native(template, &native_world));
            runs.push(took);
            out.expect(committed, "native run did not commit");
        }
        out.put(native, p50_us(&runs), runs.len());
        out.put(ratio, workflow_us / p50_us(&runs), runs.len());
    }

    let invoke_us = per_call_ns(2_000 / div, || {
        std::hint::black_box(native_world.invoke("do_S1"));
    }) / 1e3;
    out.put(
        "txn-substrate.program.invoke_us",
        invoke_us,
        BATCHES * 2_000 / div,
    );
    out.put(
        "txn-substrate.program.share_of_run",
        layers::SAGA_STEPS as f64 * invoke_us / run_us,
        n,
    );
    Ok(())
}

/// Set-up costs and the single-function layers.
fn small_probes(
    out: &mut Out,
    scratch: &Scratch,
    saga: &Translated,
    flex: &Translated,
    seed: u64,
    div: usize,
) -> Result<(), String> {
    // The pipeline, both specs, stage by stage.
    let repeats = 9 / div + 1;
    let (saga_text, flex_text) = (layers::saga_text(), layers::flex_text());
    let runs: Vec<Vec<(&'static str, f64)>> = (0..repeats)
        .map(|_| {
            let (s, f) = (layers::translate(&saga_text), layers::translate(&flex_text));
            s.stage_us()
                .into_iter()
                .zip(f.stage_us())
                .map(|((stage, a), (_, b))| (stage, a + b))
                .collect()
        })
        .collect();
    const STAGES: [(&str, &str); 6] = [
        ("parse", "exotica.pipeline.parse_us"),
        ("model-rules", "exotica.pipeline.model-rules_us"),
        ("translate", "exotica.pipeline.translate_us"),
        ("import-analyze", "exotica.pipeline.import-analyze_us"),
        ("compile", "exotica.pipeline.compile_us"),
        ("optimize", "exotica.pipeline.optimize_us"),
    ];
    let mut total = 0.0;
    for (stage, name) in STAGES {
        let per_run: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(s, _)| *s == stage).map(|(_, us)| *us))
            .collect();
        out.expect(per_run.len() == repeats, "a pipeline stage went missing");
        total += median(&per_run);
        out.put(name, median(&per_run), per_run.len());
    }
    out.put("exotica.pipeline.total_us", total, repeats);

    let world = layers::world(&[saga, flex], seed, &[]);
    let registers: Vec<f64> = (0..repeats)
        .map(|_| {
            let eng = layers::engine(&world, &[], None, false);
            timed(|| eng.register(saga)).1.as_secs_f64() * 1e6
        })
        .collect();
    out.put(
        "wfms-engine.registry.register_us",
        median(&registers),
        repeats,
    );

    let mut opens = Vec::new();
    for _ in 0..repeats {
        let dir = scratch.sub("empty");
        let (pool, took) = timed(|| layers::open_pool(&dir, &[saga, flex], false, seed, &[]));
        pool?.stop();
        opens.push(ms(took));
    }
    out.put("wfms-server.shard.open_empty_ms", median(&opens), repeats);

    let iters = 20_000 / div;
    let expr = layers::ExprProbe::default();
    out.put(
        "wfms-model.expr.eval_ns",
        per_call_ns(iters, || {
            std::hint::black_box(expr.eval());
        }),
        BATCHES * iters,
    );
    out.put(
        "wfms-model.container.clone_ns",
        per_call_ns(iters, || {
            std::hint::black_box(expr.clone_env());
        }),
        BATCHES * iters,
    );
    let histogram = layers::HistogramProbe::default();
    let mut v = 0u64;
    out.put(
        "wfms-observe.histogram.record_ns",
        per_call_ns(iters, || {
            v = v.wrapping_add(7_919);
            histogram.record(std::hint::black_box(v % 1_000_000));
        }),
        BATCHES * iters,
    );
    out.expect(
        histogram.count() == (BATCHES * iters) as u64,
        "histogram lost records",
    );
    Ok(())
}

/// The wire codec, on the bytes the generator really sends.
fn wire_probes(out: &mut Out, saga: &Translated) {
    let wire = Wire {
        host: "127.0.0.1:7313".to_owned(),
        process: SAGA,
        keys: vec![layers::TENANTS[0].1.to_owned()],
    };
    let known = [Accepted {
        id: 4_321,
        tenant: 0,
    }];
    let (mut post, mut get) = (Vec::new(), Vec::new());
    wire.render(
        Op::Submit {
            tenant: 0,
            order: 123_456,
        },
        &known,
        &mut post,
    );
    wire.render(Op::Read { pick: 0 }, &known, &mut get);
    let iters = 2_000;
    let mut decoder = layers::HttpDecoder::default();
    for (name, bytes) in [
        ("wfms-server.http.decode_post_ns", &post),
        ("wfms-server.http.decode_get_ns", &get),
    ] {
        let ns = per_call_ns(iters, || {
            std::hint::black_box(decoder.decode(bytes).is_some());
        });
        out.put(name, ns, BATCHES * iters);
    }
    let request = decoder.decode(&post);
    out.expect(
        request.as_ref().and_then(|r| r.submit_body()) == Some((SAGA.to_owned(), 123_456)),
        "the decoded submit body does not match what was sent",
    );
    if let Some(request) = request {
        let ns = per_call_ns(iters, || {
            std::hint::black_box(request.submit_body());
        });
        out.put("wfms-server.api.body_parse_ns", ns, BATCHES * iters);
    }
    // A reply to render: one real instance's.
    let world = layers::world(&[saga], 0, &[]);
    let eng = layers::engine(&world, &[saga], None, false);
    let id = eng.start(SAGA, 123_456);
    eng.run(id);
    let (state, output) = eng.read(id).expect("the instance just run");
    let reply = Reply { id, state, output };
    let ns = per_call_ns(iters, || {
        std::hint::black_box(layers::render_submit_body(&reply));
    });
    out.put("wfms-server.api.body_render_ns", ns, BATCHES * iters);
    let body = layers::render_submit_body(&reply);
    let mut rendered = Vec::with_capacity(256);
    let ns = per_call_ns(iters, || {
        rendered.clear();
        layers::render_http(201, &body, &mut rendered);
    });
    out.put("wfms-server.http.render_ns", ns, BATCHES * iters);
}

/// `n` submits through `submit_with`, a group commit's worth in
/// flight; per-submit microseconds of each burst.
fn burst_fill(out: &mut Out, pool: &Pool, n: usize, rng: &mut Rng) -> Vec<f64> {
    let (tx, rx) = std::sync::mpsc::channel();
    let mut per_submit = Vec::new();
    let mut left = n;
    while left > 0 {
        let burst = left.min(layers::BATCH_MAX);
        let t = Instant::now();
        for _ in 0..burst {
            let tx = tx.clone();
            let queued = pool.submit_with(SAGA, rng.order(), None, move |r| {
                let _ = tx.send(r);
            });
            out.expect(queued, "pool refused a burst submit");
        }
        for _ in 0..burst {
            let reply = rx.recv_timeout(Duration::from_secs(30));
            out.expect(
                matches!(&reply, Ok(Ok(r)) if r.state == State::Finished),
                "a burst submit did not finish",
            );
        }
        per_submit.push(t.elapsed().as_secs_f64() * 1e6 / burst as f64);
        left -= burst;
    }
    per_submit
}

/// The shard pool and the HTTP front end.
fn pool_probes(
    out: &mut Out,
    scratch: &Scratch,
    saga: &Translated,
    flex: &Translated,
    seed: u64,
    div: usize,
) -> Result<(), String> {
    let mut rng = Rng::new(seed, "probes/pool");
    let n = 2_000 / div;

    // Authentication, on a tenanted pool.
    let dir = scratch.sub("tenanted");
    let tenanted = layers::open_pool(&dir, &[flex], true, seed, &[])?;
    let key = layers::TENANTS[1].1;
    out.expect(
        tenanted.authenticate(key).is_some(),
        "a configured key did not authenticate",
    );
    let iters = 2_000;
    let ns = per_call_ns(iters, || {
        std::hint::black_box(tenanted.authenticate(key).is_some());
    });
    out.put("wfms-server.tenant.auth_ns", ns, BATCHES * iters);
    tenanted.stop();
    drop(tenanted);

    // Over the socket: the floor (no shard involved) and a submit.
    let dir = scratch.sub("served");
    let pool = layers::open_pool(&dir, &[saga], false, seed, &[])?;
    let http = layers::serve(&pool, SAGA).map_err(|e| format!("server start: {e}"))?;
    let mut conn = Conn::open(http.addr()).map_err(|e| format!("connect: {e}"))?;
    let healthz = format!("GET /healthz HTTP/1.1\r\nhost: {}\r\n\r\n", http.addr());
    let mut rtts = Samples::with_capacity(n);
    let mut arena = Vec::new();
    for _ in 0..n {
        let t = Instant::now();
        let answer = conn
            .send(healthz.as_bytes())
            .and_then(|()| conn.recv(&mut arena));
        rtts.push(t.elapsed());
        out.expect(matches!(answer, Ok((200, _))), "healthz did not answer 200");
    }
    out.put("wfms-server.server.rtt_floor_us", p50_us(&rtts), n);
    let wire = Wire {
        host: http.addr().to_string(),
        process: SAGA,
        keys: Vec::new(),
    };
    let over_http = conn.run(&wire, &script(&mut rng, n, 0, 1), 1, n, &[], &mut || 1.0);
    out.expect(
        over_http.accepted.len() == n,
        "a submit over HTTP was not accepted",
    );
    drop(conn);
    http.stop();

    // The same submit straight into the pool, then the pool filled to
    // 1 000 and 10 000 resident instances for the status read.
    let dir = scratch.sub("pool");
    let pool = layers::open_pool(&dir, &[saga], false, seed, &[])?;
    let mut submits = Samples::with_capacity(n);
    let mut ids = Vec::new();
    for _ in 0..n.min(1_000 / div) {
        let (reply, took) = timed(|| pool.submit(SAGA, rng.order(), None));
        submits.push(took);
        match reply {
            Ok(r) if r.state == State::Finished => ids.push(r.id),
            other => out.expect(false, &format!("blocking submit: {other:?}")),
        }
    }
    let submit_us = p50_us(&submits);
    out.put("wfms-server.shard.submit_us", submit_us, submits.len());
    out.put(
        "wfms-server.server.wire_overhead_us",
        p50_us(&over_http.submits()) - submit_us,
        n,
    );
    let mut bursts = Vec::new();
    for (name, resident) in [
        ("wfms-server.shard.status_us_at_1k", 1_000 / div),
        ("wfms-server.shard.status_us_at_10k", 10_000 / div),
    ] {
        let have: usize = pool.counts().1 as usize;
        bursts.extend(burst_fill(
            out,
            &pool,
            resident.saturating_sub(have),
            &mut rng,
        ));
        let mut reads = Samples::default();
        for at in 0..200 / div {
            let id = ids[at * 7 % ids.len()];
            let (got, took) = timed(|| pool.status(id));
            reads.push(took);
            out.expect(
                matches!(got, Some((p, r)) if p == SAGA && r.id == id),
                "status read went wrong",
            );
        }
        out.put(name, p50_us(&reads), reads.len());
    }
    out.put(
        "wfms-server.shard.submit_burst_us",
        median(&bursts),
        bursts.len(),
    );

    let renders: Vec<f64> = (0..20)
        .map(|_| timed(|| pool.metrics_text().len()).1.as_secs_f64() * 1e6)
        .collect();
    out.put(
        "wfms-observe.registry.render_us",
        median(&renders),
        renders.len(),
    );

    // Drain: barrier, flush, checkpoint, flush.
    let (drained, took) = timed(|| pool.drain());
    out.expect(drained.is_ok(), "drain failed");
    out.put("wfms-server.shard.drain_ms", ms(took), 10_000 / div);
    pool.stop();
    drop(pool);

    // Reopen on a checkpoint. Sized small on purpose: at the seed,
    // reopening a checkpointed journal is quadratic in its instances
    // (0.15 s at 50, 0.6 s at 100, 2.5 s at 200, 11.9 s at 400).
    let dir = scratch.sub("checkpointed");
    let pool = layers::open_pool(&dir, &[saga], false, seed, &[])?;
    burst_fill(out, &pool, CHECKPOINTED, &mut rng);
    out.expect(pool.drain().is_ok(), "drain failed");
    pool.stop();
    drop(pool);
    let (reopened, took) = timed(|| layers::open_pool(&dir, &[saga], false, seed, &[]));
    let reopened = reopened?;
    out.expect(
        reopened.counts().1 as usize == CHECKPOINTED,
        "the checkpointed pool reopened with other instances",
    );
    out.put(
        "wfms-engine.recovery.checkpointed_open_ms",
        ms(took),
        CHECKPOINTED,
    );
    reopened.stop();
    Ok(())
}

/// The generator's own CPU per operation, against a listener that
/// answers every request with the same canned `201`: what share of
/// `cpu_us_per_inst` is the benchmark's and not the program's.
fn generator_probe(out: &mut Out, div: usize) -> Result<(), String> {
    let n = 8_000 / div;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("stub listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("stub listener: {e}"))?;
    let wire = Wire {
        host: addr.to_string(),
        process: SAGA,
        keys: Vec::new(),
    };
    let ops = script(&mut Rng::new(0, "probes/generator"), n, 0, 1);
    let mut one = Vec::new();
    wire.render(ops[0], &[], &mut one);
    let request_len = one.len();
    let mut canned = Vec::new();
    layers::render_http(
        201,
        r#"{"id":1,"status":"finished","output":{"values":{"Committed":{"Int":1}}}}"#,
        &mut canned,
    );

    std::thread::scope(|s| {
        // Every submit of this script has the same length, so the stub
        // frames by counting bytes.
        let stub = s.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut chunk = [0u8; 16 * 1024];
            let (mut pending, mut answered) = (0, 0);
            while answered < n {
                let got = stream.read(&mut chunk)?;
                if got == 0 {
                    break;
                }
                pending += got;
                let whole = pending / request_len;
                pending -= whole * request_len;
                stream.write_all(&canned.repeat(whole))?;
                answered += whole;
            }
            Ok(())
        });
        let cpu = host::thread_cpu();
        let transcript =
            Conn::open(addr).map(|mut conn| conn.run(&wire, &ops, BURST, n, &[], &mut || 1.0));
        let cpu = host::thread_cpu() - cpu;
        let accepted = transcript.map_or(0, |t| t.accepted.len());
        out.expect(
            accepted == n,
            "the stub listener did not answer every request",
        );
        out.expect(
            matches!(stub.join(), Ok(Ok(()))),
            "the stub listener failed",
        );
        out.put(
            "loadgen.cpu_us_per_op",
            cpu.as_secs_f64() * 1e6 / n as f64,
            n,
        );
    });
    Ok(())
}

// ----------------------------------------------------------------- trace

struct Trace {
    tracer: Tracer,
    /// What the operation costs seen from outside, untraced: over the
    /// socket for the HTTP workloads, `ShardPool::open` for recovery.
    outside_us: f64,
    /// Root durations of the hand replay, tracer off and on.
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    /// Requests that are not the workload's operation of record (the
    /// reads of the mixed workload) are traced but not summarized.
    skip: Vec<bool>,
}

impl Trace {
    fn counted(&self, req: u32) -> bool {
        !self.skip.get(req as usize).copied().unwrap_or(false)
    }
}

/// One HTTP submit (or status read) by hand: request bytes → decoder
/// → body parse → authenticate → submit and wait → body render →
/// response render.
fn trace_http(
    out: &mut Out,
    scratch: &Scratch,
    workload: Workload,
    template: &Translated,
    seed: u64,
    div: usize,
) -> Result<Trace, String> {
    let cfg = http_config(workload);
    let mut ops = script(
        &mut Rng::new(seed, &format!("{}/a", cfg.process)),
        TRACED_OPS / div,
        cfg.reads_per_write,
        cfg.tenants(),
    );
    ops.truncate(TRACED_OPS / div);

    // Outside view: the same requests over a socket, depth 1.
    let dir = scratch.sub("outside");
    let pool = layers::open_pool(&dir, &[template], cfg.tenancy, seed, cfg.plan)?;
    let http = layers::serve(&pool, cfg.process).map_err(|e| format!("server start: {e}"))?;
    let wire = cfg.wire(http.addr().to_string());
    let mut conn = Conn::open(http.addr()).map_err(|e| format!("connect: {e}"))?;
    let outside = conn.run(&wire, &ops, 1, ops.len(), &[], &mut || 1.0);
    out.expect(
        outside
            .answers
            .iter()
            .all(|a| matches!(a.status, 200 | 201)),
        "an outside-view request was refused",
    );
    drop(conn);
    http.stop();

    let mut replay = |on: bool| -> Result<(Tracer, Vec<f64>), String> {
        let dir = scratch.sub(if on { "traced" } else { "untraced" });
        let pool = layers::open_pool(&dir, &[template], cfg.tenancy, seed, cfg.plan)?;
        let mut tracer = Tracer::new(on);
        let mut decoder = layers::HttpDecoder::default();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut accepted: Vec<Accepted> = Vec::new();
        let (mut bytes, mut rendered) = (Vec::new(), Vec::new());
        let mut roots = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let req = i as u32;
            bytes.clear();
            wire.render(op, &accepted, &mut bytes);
            let t = Instant::now();
            let started: Option<Option<Reply>> = tracer.span("request", req, |t| {
                let request = t.span("wfms-server.http.decode", req, |_| decoder.decode(&bytes))?;
                let tenant = match cfg.tenancy {
                    true => Some(t.span("wfms-server.tenant.auth", req, |_| {
                        request.bearer().and_then(|key| pool.authenticate(key))
                    })?),
                    false => None,
                };
                let (body, reply) = if request.is_post() {
                    let (process, order) =
                        t.span("wfms-server.api.body_parse", req, |_| request.submit_body())?;
                    let reply = t.span("wfms-server.shard.submit", req, |_| {
                        let tx = tx.clone();
                        pool.submit_with(&process, order, tenant.as_ref(), move |r| {
                            let _ = tx.send(r);
                        });
                        rx.recv_timeout(Duration::from_secs(30)).ok()?.ok()
                    })?;
                    let body = t.span("wfms-server.api.body_render", req, |_| {
                        layers::render_submit_body(&reply)
                    });
                    (body, Some(reply))
                } else {
                    let (process, reply) = t.span("wfms-server.shard.status", req, |_| {
                        pool.status(request.instance_id()?)
                    })?;
                    let body = t.span("wfms-server.api.body_render", req, |_| {
                        layers::render_status_body(&process, &reply)
                    });
                    (body, None)
                };
                rendered.clear();
                t.span("wfms-server.http.render", req, |_| {
                    layers::render_http(
                        if reply.is_some() { 201 } else { 200 },
                        &body,
                        &mut rendered,
                    )
                });
                Some(reply)
            });
            let took = t.elapsed();
            match (op, started) {
                (Op::Submit { tenant, .. }, Some(Some(reply)))
                    if reply.state == State::Finished =>
                {
                    accepted.push(Accepted {
                        id: reply.id,
                        tenant,
                    });
                    roots.push(took.as_secs_f64() * 1e6);
                    out.expect(true, "");
                }
                (Op::Read { .. }, Some(None)) => out.expect(true, ""),
                _ => out.expect(false, &format!("hand-replayed request {i} ({op:?}) failed")),
            }
        }
        pool.stop();
        Ok((tracer, roots))
    };
    let (_, untraced_us) = replay(false)?;
    let (tracer, traced_us) = replay(true)?;
    Ok(Trace {
        tracer,
        outside_us: p50_us(&outside.submits()),
        untraced_us,
        traced_us,
        skip: ops.iter().map(|op| matches!(op, Op::Read { .. })).collect(),
    })
}

/// One embedded instance by hand: start → run to quiescence → flush.
fn trace_engine(
    out: &mut Out,
    saga: &Translated,
    flex: &Translated,
    seed: u64,
    div: usize,
) -> Trace {
    let both = [saga, flex];
    let n = TRACED_OPS / div;
    let mut replay = |on: bool| {
        let eng = layers::engine(
            &layers::world(&both, seed, ENGINE_FAILS),
            &both,
            None,
            false,
        );
        let mut rng = Rng::new(seed, "engine_atm_mix");
        let mut tracer = Tracer::new(on);
        let mut roots = Vec::with_capacity(n);
        for i in 0..n {
            let req = i as u32;
            let process = if i % 2 == 0 { SAGA } else { FLEX };
            let order = rng.order();
            let (state, took) = timed(|| {
                tracer.span("instance", req, |t| {
                    let id = t.span("wfms-engine.engine.start", req, |_| {
                        eng.start(process, order)
                    });
                    let state = t.span("wfms-engine.navigator.run", req, |_| eng.run(id));
                    t.span("wfms-engine.journal.flush", req, |_| eng.flush());
                    state
                })
            });
            out.expect(
                state == State::Finished,
                "a hand-run instance did not finish",
            );
            roots.push(took.as_secs_f64() * 1e6);
        }
        (tracer, roots)
    };
    let (_, untraced_us) = replay(false);
    let (tracer, traced_us) = replay(true);
    Trace {
        tracer,
        outside_us: median(&untraced_us),
        untraced_us,
        traced_us,
        skip: Vec::new(),
    }
}

/// One recovery by hand: decode the journal, then replay it — the two
/// halves `ShardPool::open` does in one call.
fn trace_recover(
    out: &mut Out,
    scratch: &Scratch,
    saga: &Translated,
    seed: u64,
    div: usize,
) -> Result<Trace, String> {
    let n = TRACED_OPS / div;
    let origin = scratch.sub("origin");
    let pool = layers::open_pool(&origin, &[saga], false, seed, SAGA_FAILS)?;
    burst_fill(out, &pool, n, &mut Rng::new(seed, "recover_replay"));
    pool.stop();
    drop(pool);

    let open = |dir: &Path| -> Result<f64, String> {
        host::copy_dir(&origin, dir).map_err(|e| format!("copy data dir: {e}"))?;
        let (pool, took) = timed(|| layers::open_pool(dir, &[saga], false, seed, SAGA_FAILS));
        let pool = pool?;
        let recovered = pool.counts().1 as usize;
        pool.stop();
        if recovered != n {
            return Err(format!(
                "reopened pool holds {recovered} finished instances, not {n}"
            ));
        }
        Ok(took.as_secs_f64() * 1e6)
    };
    let outside: Vec<f64> = (0..3)
        .map(|_| open(&scratch.sub("reopened")))
        .collect::<Result<_, _>>()?;

    let journal = layers::shard_journal(&origin);
    let mut replay = |on: bool| {
        let mut tracer = Tracer::new(on);
        let mut roots = Vec::new();
        for req in 0..3 {
            let world = layers::world(&[saga], seed, SAGA_FAILS);
            let (eng, took) = timed(|| {
                tracer.span("open", req, |t| {
                    let events = t.span("wfms-engine.journal.read", req, |_| {
                        layers::journal_read(&journal).expect("the generated journal decodes")
                    });
                    t.span("wfms-engine.recovery.replay", req, |_| {
                        layers::replay(events, &[saga], &world)
                    })
                })
            });
            out.expect(eng.instances() == n, "hand recovery lost instances");
            roots.push(took.as_secs_f64() * 1e6);
        }
        (tracer, roots)
    };
    let (_, untraced_us) = replay(false);
    let (tracer, traced_us) = replay(true);
    Ok(Trace {
        tracer,
        outside_us: median(&outside),
        untraced_us,
        traced_us,
        skip: Vec::new(),
    })
}
