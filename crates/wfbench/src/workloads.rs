//! The four workloads. Each is count-bounded and run in rounds: a
//! round builds a fresh pool or engine in a fresh data directory,
//! performs a fixed number of operations, is verified, and is
//! dropped. One warm-up round runs first, is verified like the rest,
//! and is charged to `setup_s`.
//!
//! Time-bounded rounds are not allowed: throughput depends on how
//! many instances are resident, so a faster commit would otherwise
//! run a different experiment.
//!
//! Inside a round every phase is cut into windows of a fixed number
//! of operations, so window `k` covers the same work in every round,
//! and the [`Ruler`] is read between windows, while the program
//! idles: a window's time is divided (a rate multiplied) by what the
//! ruler read at its two ends. A round's reading is its median
//! window, a run's its median round ([`metrics::EndToEnd::read`]).
//! `submit_p99_us` is taken over all of a round's samples, one value
//! a round.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::{judge, Tallies, Verdict};
use crate::host::{self, Scratch};
use crate::layers::{self, Plan, Pool, Reply, State, Translated, FLEX, SAGA};
use crate::loadgen::{script, Accepted, Conn, Op, Rng, Transcript, Window, Wire, BURST};
use crate::metrics::{self, Workload};
use crate::ruler::Ruler;
use crate::stats::{median, Samples};

/// Failure plans. The saga of `saga_commit_http` never fails; the
/// other workloads draw aborts from seeded per-step streams.
pub const SAGA_FAILS: Plan<'static> = &[("S6", 0.3)];
const FLEX_HTTP_FAILS: Plan<'static> = &[("T8", 0.5), ("T4", 0.2)];
pub const ENGINE_FAILS: Plan<'static> = &[("S6", 0.3), ("T8", 0.5)];

/// How an HTTP workload is served and loaded.
pub struct HttpConfig {
    pub process: &'static str,
    pub tenancy: bool,
    pub plan: Plan<'static>,
    /// Status reads per submit in phases A and B.
    pub reads_per_write: usize,
    counts: Counts,
}

impl HttpConfig {
    /// Tenants the generator submits as (one when tenancy is off).
    pub fn tenants(&self) -> usize {
        if self.tenancy {
            layers::TENANTS.len()
        } else {
            1
        }
    }

    /// How the generator addresses a server of this workload at `host`.
    pub fn wire(&self, host: String) -> Wire {
        let keys = if self.tenancy {
            &layers::TENANTS[..]
        } else {
            &[]
        };
        Wire {
            host,
            process: self.process,
            keys: keys.iter().map(|(_, key)| (*key).to_owned()).collect(),
        }
    }
}

/// The configuration of `saga_commit_http` or `flex_mix_http`.
pub fn http_config(workload: Workload) -> HttpConfig {
    match workload {
        Workload::FlexMixHttp => HttpConfig {
            process: FLEX,
            tenancy: true,
            plan: FLEX_HTTP_FAILS,
            reads_per_write: 2,
            counts: FLEX_HTTP,
        },
        _ => HttpConfig {
            process: SAGA,
            tenancy: false,
            plan: &[],
            reads_per_write: 0,
            counts: SAGA_HTTP,
        },
    }
}

/// Operation counts of one round (÷ 4 in quick mode).
struct Counts {
    /// Phase A submits, 1 connection at depth 1 (latency).
    a_writes: usize,
    /// Phase B submits, 2 connections pipelining bursts (capacity).
    b_writes: usize,
    /// Phase C: status reads at depth 1 after the writes, for
    /// workloads whose phases A and B carry none.
    c_reads: usize,
    /// Submits per window of phase A, and per connection and window
    /// of phase B. Windows are short (30–70 ms): the ruler is read
    /// only between them, and the machine can change its mood several
    /// times a second.
    a_window_writes: usize,
    b_window_writes: usize,
}

const SAGA_HTTP: Counts = Counts {
    a_writes: 8_000,
    b_writes: 24_000,
    c_reads: 256,
    a_window_writes: 250,
    b_window_writes: 250,
};
const FLEX_HTTP: Counts = Counts {
    a_writes: 2_000,
    b_writes: 6_000,
    c_reads: 0,
    a_window_writes: 125,
    b_window_writes: 40,
};
/// Reads per window of phase C.
const READ_WINDOW: usize = 16;
/// Instances of each model per `engine_atm_mix` round.
const ENGINE_PAIRS: usize = 10_000;
/// Timed embedded reads per `engine_atm_mix` round, in batches of
/// [`READ_BATCH`] (one read is shorter than a clock read).
const ENGINE_READS: usize = 4_096;
const READ_BATCH: usize = 16;
/// Instances, and reads, per window of an `engine_atm_mix` round.
const ENGINE_WINDOW: usize = 1_000;
const ENGINE_READ_WINDOW: usize = 512;
/// Instances in the journal `recover_replay` reopens. Reopening is
/// one call the ruler cannot be read inside, so it has to be short
/// beside the stretches in which the machine changes its mood: 4 000
/// instances reopen in ≈ 0.9 s (16 000 in ≈ 3.3 s, at the same
/// 4 600–5 200 instances a second), and a run affords three times
/// the rounds.
const RECOVER_INSTANCES: usize = 4_000;
/// Submits and status reads against the recovered pool, depth 1.
const RECOVER_SUBMITS: usize = 1_000;
const RECOVER_READS: usize = 256;
/// Submits, and reads, per window.
const RECOVER_WINDOW_SUBMITS: usize = 250;
const RECOVER_WINDOW_READS: usize = 64;
/// Ruler samples at each end of a recovery.
const RECOVER_RULER: usize = 8;
/// In-flight window while generating the journal to recover.
const GENERATE_WINDOW: usize = 256;

/// How much to run.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub seconds: u64,
    pub quick: bool,
}

impl Sizing {
    fn scale(self, n: usize) -> usize {
        if self.quick {
            n / 4
        } else {
            n
        }
    }
}

/// One end-to-end metric of a finished run.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    /// `windows[r][k]`: round `r`, window `k` (one round of one window
    /// for `peak_rss_mb`, which the process has one of). A time is
    /// divided, a rate multiplied, by what the ruler read beside the
    /// window.
    pub windows: Vec<Vec<f64>>,
    /// The same as measured, before the ruler was applied.
    pub raw: Vec<Vec<f64>>,
    /// Observations behind each window (operations, instances).
    pub n: usize,
}

impl Measured {
    /// The reported value: the metric's reading of the windows.
    pub fn value(&self) -> f64 {
        metrics::end_to_end(self.name)
            .expect("every measured metric is defined")
            .read(&self.windows)
    }

    /// What the value would have been without the ruler.
    pub fn raw_value(&self) -> f64 {
        metrics::end_to_end(self.name)
            .expect("every measured metric is defined")
            .read(&self.raw)
    }

    /// Each round's reading: the median over its windows.
    pub fn per_round(&self) -> Vec<f64> {
        self.windows.iter().map(|r| median(r)).collect()
    }
}

/// A finished run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub rounds: usize,
    pub metrics: Vec<Measured>,
    pub verdict: Verdict,
    /// `recover_replay` only: outcomes of the instances in the
    /// journal it reopens.
    pub generated: Option<Tallies>,
    /// What the ruler read, on average, in each round (warm-up first).
    pub ruler: Vec<f64>,
    /// The CPU every thread of the run was confined to.
    pub cpu: u32,
    pub data_fs: String,
    pub data_dir_mb: f64,
}

/// What one round reports back.
struct Round {
    /// Building the round's pool/engine, data directory, connections.
    setup: Duration,
    /// The round's operations, from the end of set-up until the
    /// program is stopped. Checking them afterwards is the
    /// benchmark's own cost and is charged to nothing.
    run: Duration,
    set_up_at: Instant,
    /// Per metric: one value per window position — as measured, and
    /// with the ruler applied — and the observations behind each.
    values: Vec<(&'static str, Vec<f64>, Vec<f64>, usize)>,
    /// Every ruler sample taken in the round.
    ruler: Vec<f64>,
    verdict: Verdict,
}

impl Round {
    /// A round whose set-up just finished.
    fn after(setup: Instant) -> Self {
        Self {
            setup: setup.elapsed(),
            run: Duration::ZERO,
            set_up_at: Instant::now(),
            values: Vec::new(),
            ruler: Vec::new(),
            verdict: Verdict::default(),
        }
    }

    /// The round's operations are over; what follows is checking.
    fn ran(&mut self) {
        self.run = self.set_up_at.elapsed();
    }

    /// `raw[k]` was measured while the machine ran `slow[k]` times
    /// slower than the ruler's nominal; `slow` is empty for what is
    /// not a time.
    fn push(&mut self, name: &'static str, raw: Vec<f64>, slow: &[f64], n: usize) {
        if raw.is_empty() {
            return;
        }
        let metric = metrics::end_to_end(name).expect("every measured metric is defined");
        let applied = raw
            .iter()
            .enumerate()
            .map(|(k, value)| match (slow.get(k), metric.better) {
                (None, _) => *value,
                (Some(factor), metrics::Better::Lower) => value / factor,
                (Some(factor), metrics::Better::Higher) => value * factor,
            })
            .collect();
        self.values.push((name, raw, applied, n));
    }

    /// One more ruler sample, kept.
    fn gauge(&mut self, ruler: &mut Ruler) -> f64 {
        let factor = ruler.sample();
        self.ruler.push(factor);
        factor
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs `workload` and returns its metrics, or why it could not be
/// measured (`footprint_exceeded`, a socket that would not open).
pub fn run(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    process_start: Instant,
) -> Result<RunResult, String> {
    let scratch = Scratch::create(workload.name()).map_err(|e| format!("scratch dir: {e}"))?;
    let cpu = host::confine_to_one_cpu().map_err(|e| format!("confine to one CPU: {e}"))?;
    let rounds = workload.rounds(sizing.seconds, sizing.quick);
    let mut ruler = Ruler::start().map_err(|e| format!("start the ruler: {e}"))?;
    let mut state: Box<dyn Rounds> = match workload {
        Workload::SagaCommitHttp | Workload::FlexMixHttp => {
            Box::new(HttpWorkload::new(http_config(workload), seed, sizing))
        }
        Workload::EngineAtmMix => Box::new(EngineWorkload::new(seed, sizing)),
        Workload::RecoverReplay => Box::new(RecoverWorkload::generate(&scratch, seed, sizing)?),
    };
    let one_time = process_start.elapsed();

    let mut verdict = Verdict::default();
    let mut generated = None;
    if let Some(g) = state.before_rounds() {
        generated = Some(g.tallies);
        verdict.absorb(g);
    }
    let mut set_ups = Measured {
        name: metrics::SETUP_S,
        n: 1,
        windows: Vec::new(),
        raw: Vec::new(),
    };
    let mut columns: Vec<Measured> = Vec::new();
    let mut data_dir_bytes = 0;
    // Read after the first measured round. The threads of each dropped
    // pool leave their freed memory in whichever allocator arena they
    // happened to get, and whether a later round reuses it or grows
    // another is luck: the high-water mark of one binary crept to 425
    // MiB in one `saga_commit_http` run and 453 in the next, from 422
    // after the first measured round in both.
    let mut peak_rss = 0;
    let mut ruler_read = Vec::new();
    for round in 0..=rounds {
        let started = Instant::now();
        // Reading a journal back through the program's reader costs as
        // much as the round that wrote it, so one round pays for it:
        // the last, when nothing is left to measure.
        let r = state.round(&scratch.sub("round"), round == rounds, &mut ruler)?;
        data_dir_bytes = data_dir_bytes.max(host::dir_bytes(&scratch.root));
        host::check_footprint(host::peak_rss_bytes(), data_dir_bytes).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(scratch.root.join("round"));
        eprintln!(
            "{} round {round}: set-up {:.3} s, run {:.3} s, check {:.3} s, ruler {:.3}, RSS {} MiB (peak {}), data dir {} MiB",
            workload.name(),
            r.setup.as_secs_f64(),
            r.run.as_secs_f64(),
            started.elapsed().saturating_sub(r.setup + r.run).as_secs_f64(),
            mean(&r.ruler),
            host::rss_bytes() >> 20,
            host::peak_rss_bytes() >> 20,
            data_dir_bytes >> 20
        );
        // What the process would have spent before its first measured
        // round had this round been the warm-up: every round does the
        // warm-up's work, so each is a sample of it.
        ruler_read.push(mean(&r.ruler));
        let before_measuring = (one_time + r.setup + r.run).as_secs_f64();
        set_ups.raw.push(vec![before_measuring]);
        set_ups
            .windows
            .push(vec![before_measuring / mean(&r.ruler)]);
        verdict.merge_round(r.verdict);
        if round == 0 {
            continue;
        }
        if round == 1 {
            peak_rss = host::peak_rss_bytes();
        }
        for (name, raw, applied, n) in r.values {
            match columns.iter_mut().find(|c| c.name == name) {
                Some(c) => {
                    c.windows.push(applied);
                    c.raw.push(raw);
                }
                None => columns.push(Measured {
                    name,
                    windows: vec![applied],
                    raw: vec![raw],
                    n,
                }),
            }
        }
    }
    // A value that must repeat exactly across rounds and did not is a
    // failed operation of its own.
    if let Some(c) = columns
        .iter()
        .find(|c| c.name == metrics::JOURNAL_BYTES_PER_INST)
    {
        if c.windows.iter().any(|r| *r != c.windows[0]) {
            verdict.fail(|| format!("{} differs between rounds: {:?}", c.name, c.windows));
        } else {
            verdict.pass();
        }
    }
    // Set-up: what ran once (translation, input generation, for
    // `recover_replay` the journal to reopen) plus one round's set-up
    // and run, the warm-up; all rounds are its samples, one window
    // each.
    columns.push(set_ups);
    let peak_rss = vec![vec![peak_rss as f64 / (1 << 20) as f64]];
    columns.push(Measured {
        name: metrics::PEAK_RSS_MB,
        n: 1,
        windows: peak_rss.clone(),
        raw: peak_rss,
    });
    Ok(RunResult {
        workload,
        rounds,
        metrics: columns,
        verdict,
        generated,
        ruler: ruler_read,
        cpu,
        data_fs: scratch.fs.clone(),
        data_dir_mb: data_dir_bytes as f64 / (1 << 20) as f64,
    })
}

/// A workload, as the round loop sees it.
trait Rounds {
    /// One round in the fresh data directory `dir` (not yet created).
    /// Every answer is checked in every round; with `audit` the
    /// round's journal is read as well and every instance's execution
    /// order held against what the program answered for it.
    ///
    /// The round reads `ruler` at both ends of every window it times.
    fn round(&mut self, dir: &Path, audit: bool, ruler: &mut Ruler) -> Result<Round, String>;

    /// Verdict of work done before the first round; its tallies are
    /// reported on their own, not held against the rounds'.
    fn before_rounds(&mut self) -> Option<Verdict> {
        None
    }
}

// ------------------------------------------------------- HTTP workloads

struct HttpWorkload {
    cfg: HttpConfig,
    template: Translated,
    seed: u64,
    phase_a: Vec<Op>,
    phase_b: [Vec<Op>; 2],
    phase_c: Vec<Op>,
}

impl HttpWorkload {
    fn new(cfg: HttpConfig, seed: u64, sizing: Sizing) -> Self {
        let HttpConfig {
            process,
            reads_per_write,
            ..
        } = cfg;
        let text = if process == SAGA {
            layers::saga_text()
        } else {
            layers::flex_text()
        };
        let tenants = cfg.tenants();
        let ops = |label: &str, writes: usize| {
            let mut rng = Rng::new(seed, &format!("{process}/{label}"));
            script(&mut rng, writes, reads_per_write, tenants)
        };
        let b_each = sizing.scale(cfg.counts.b_writes) / 2;
        let mut picks = Rng::new(seed, &format!("{process}/c"));
        Self {
            template: layers::translate(&text),
            seed,
            phase_a: ops("a", sizing.scale(cfg.counts.a_writes)),
            phase_b: [ops("b0", b_each), ops("b1", b_each)],
            phase_c: (0..sizing.scale(cfg.counts.c_reads))
                .map(|_| Op::Read {
                    pick: picks.next_u64() as u32,
                })
                .collect(),
            cfg,
        }
    }
}

fn is_write(op: &Op) -> bool {
    matches!(op, Op::Submit { .. })
}

impl Rounds for HttpWorkload {
    fn round(&mut self, dir: &Path, audit: bool, ruler: &mut Ruler) -> Result<Round, String> {
        let setup = Instant::now();

        let pool = layers::open_pool(
            dir,
            &[&self.template],
            self.cfg.tenancy,
            self.seed,
            self.cfg.plan,
        )?;
        let http =
            layers::serve(&pool, self.cfg.process).map_err(|e| format!("server start: {e}"))?;
        let wire = self.cfg.wire(http.addr().to_string());
        let connect = || Conn::open(http.addr()).map_err(|e| format!("connect: {e}"));
        let (mut conn_a, mut conn_b0, mut conn_b1) = (connect()?, connect()?, connect()?);
        let mut round = Round::after(setup);

        // Phase A: one connection, one operation in flight.
        let per_write = 1 + self.cfg.reads_per_write;
        let window = self.cfg.counts.a_window_writes * per_write;
        let a = conn_a.run(&wire, &self.phase_a, 1, window, &[], &mut || {
            round.gauge(ruler)
        });

        // Phase B: two connections, bursts pipelined. Their scripts
        // have one shape, so their windows close at the same counts:
        // there both wait, one reads the ruler for both while the
        // server is idle, and both go on.
        let window = self.cfg.counts.b_window_writes * per_write;
        let met = std::sync::Barrier::new(2);
        let read = std::sync::Mutex::new((&mut round, &mut *ruler, 1.0));
        let together = || {
            if met.wait().is_leader() {
                let mut read = read.lock().expect("the other generator panicked");
                let (round, ruler, factor) = &mut *read;
                *factor = round.gauge(ruler);
            }
            met.wait();
            read.lock().expect("the other generator panicked").2
        };
        let (b0, b1) = std::thread::scope(|s| {
            let known = &a.accepted;
            let h0 = s.spawn(|| {
                conn_b0.run(&wire, &self.phase_b[0], BURST, window, known, &mut || {
                    together()
                })
            });
            let h1 = s.spawn(|| {
                conn_b1.run(&wire, &self.phase_b[1], BURST, window, known, &mut || {
                    together()
                })
            });
            (h0.join(), h1.join())
        });
        let b0 = b0.map_err(|_| "generator thread panicked".to_owned())?;
        let b1 = b1.map_err(|_| "generator thread panicked".to_owned())?;

        // Phase C: reads at depth 1 over everything accepted.
        let mut everything = a.accepted.clone();
        everything.extend_from_slice(&b0.accepted[a.accepted.len()..]);
        everything.extend_from_slice(&b1.accepted[a.accepted.len()..]);
        let c = conn_a.run(
            &wire,
            &self.phase_c,
            1,
            READ_WINDOW,
            &everything,
            &mut || round.gauge(ruler),
        );

        // Capacity, position by position: both connections work
        // through the same script shape side by side, so window `k`
        // of one runs beside window `k` of the other and their rates
        // add. Process CPU is read on the first connection's clock.
        let rate = |of: fn(&Window) -> usize| -> Vec<f64> {
            b0.windows
                .iter()
                .zip(&b1.windows)
                .map(|(x, y)| {
                    of(x) as f64 / x.wall.as_secs_f64() + of(y) as f64 / y.wall.as_secs_f64()
                })
                .collect()
        };
        let per_window = b0.windows.first().map_or(0, |w| w.writes) * 2;
        let slow = |windows: &[Window]| -> Vec<f64> { windows.iter().map(|w| w.ruler).collect() };
        let (during_a, during_b) = (slow(&a.windows), slow(&b0.windows));
        round.push(
            metrics::INST_PER_S,
            rate(|w| w.writes),
            &during_b,
            per_window,
        );
        round.push(
            metrics::OPS_PER_S,
            rate(|w| w.ops),
            &during_b,
            per_window * (1 + self.cfg.reads_per_write),
        );
        round.push(
            metrics::CPU_US_PER_INST,
            b0.windows
                .iter()
                .zip(&b1.windows)
                .map(|(x, y)| x.cpu.as_secs_f64() * 1e6 / (x.writes + y.writes) as f64)
                .collect(),
            &during_b,
            per_window,
        );
        let quantile = |of: fn(&Window) -> &Samples, windows: &[Window], pct: u64| -> Vec<f64> {
            windows
                .iter()
                .map(|w| of(w).clone().sorted().quantile_us(pct, 100))
                .collect()
        };
        let submits = a.windows.first().map_or(0, |w| w.submit_ns.len());
        round.push(
            metrics::SUBMIT_P50_US,
            quantile(|w| &w.submit_ns, &a.windows, 50),
            &during_a,
            submits,
        );
        let all_submits = a.submits().sorted();
        round.push(
            metrics::SUBMIT_P99_US,
            vec![all_submits.quantile_us(99, 100)],
            &[mean(&during_a)],
            all_submits.len(),
        );
        let read_windows = if self.phase_c.is_empty() {
            &a.windows
        } else {
            &c.windows
        };
        round.push(
            metrics::READ_P50_US,
            quantile(|w| &w.read_ns, read_windows, 50),
            &slow(read_windows),
            read_windows.first().map_or(0, |w| w.read_ns.len()),
        );
        let instances = everything.len();

        // Stop without draining: the journal stays as a crash would
        // leave it, every acknowledged start already flushed.
        drop((conn_a, conn_b0, conn_b1));
        http.stop();
        drop(pool);
        round.ran();
        let journal = layers::shard_journal(dir);
        let journal_bytes = journal.metadata().map_or(0, |m| m.len());
        round.push(
            metrics::JOURNAL_BYTES_PER_INST,
            vec![journal_bytes as f64 / instances as f64],
            &[],
            instances,
        );
        let orders = match audit {
            true => Some(journal_orders(&journal, instances)?),
            false => None,
        };
        let transcripts = [&a, &b0, &b1, &c];
        self.verify(
            &mut round.verdict,
            &transcripts,
            orders.as_deref(),
            instances,
        );
        Ok(round)
    }
}

impl HttpWorkload {
    /// Every answer is checked: submits for a `201` and a legal
    /// ending — against the journal's execution `orders` where they
    /// were read — and reads against what the submit of the same
    /// instance answered.
    fn verify(
        &self,
        v: &mut Verdict,
        transcripts: &[&Transcript],
        orders: Option<&[String]>,
        instances: usize,
    ) {
        let mut started: HashMap<u64, Reply> = HashMap::with_capacity(instances);
        for t in transcripts {
            for answer in t.answers.iter().filter(|a| is_write(&a.op)) {
                let reply = match (answer.status, layers::parse_submit_body(t.body(answer))) {
                    (201, Some(reply)) => reply,
                    (status, _) => {
                        v.fail(|| format!("submit answered {status}: {}", lossy(t.body(answer))));
                        continue;
                    }
                };
                let local = layers::local_id(reply.id, self.cfg.tenancy) as usize;
                let order = orders.map(|o| o.get(local).map_or("", String::as_str));
                match judge(self.cfg.process, order, &reply) {
                    Some(ending) if !started.contains_key(&reply.id) => v.ended(ending),
                    Some(_) => v.fail(|| format!("instance id {} answered twice", reply.id)),
                    None => v.fail(|| {
                        format!("instance {} ran {order:?} but answered {reply:?}", reply.id)
                    }),
                }
                started.insert(reply.id, reply);
            }
        }
        if started.len() != instances {
            v.fail(|| {
                format!(
                    "{} distinct instances started, {instances} submitted",
                    started.len()
                )
            });
        }
        for t in transcripts {
            for answer in t.answers.iter().filter(|a| !is_write(&a.op)) {
                let wanted: Option<Accepted> =
                    answer.target.and_then(|at| t.accepted.get(at).copied());
                let got = match answer.status {
                    200 => layers::parse_status_body(t.body(answer)),
                    _ => None,
                };
                match (wanted.and_then(|w| started.get(&w.id)), got) {
                    (Some(first), Some((process, now)))
                        if process == self.cfg.process && *first == now =>
                    {
                        v.pass()
                    }
                    _ => v.fail(|| {
                        format!(
                            "read of {wanted:?} answered {}: {}",
                            answer.status,
                            lossy(t.body(answer))
                        )
                    }),
                }
            }
        }
    }
}

/// [`layers::journal_orders`] in a child process (`wfbench orders`),
/// one line per instance. The program's reader decodes a journal
/// whole: a `saga_commit_http` round's takes it ≈ 600 MiB, more than
/// the server under test ever holds. In this process that would be
/// what `peak_rss_mb` reports and what trips the footprint guard.
fn journal_orders(journal: &Path, n: usize) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let child = std::process::Command::new(exe)
        .arg("orders")
        .arg(journal)
        .arg(n.to_string())
        .output()
        .map_err(|e| format!("spawn the journal reader: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "journal reader: {}",
            String::from_utf8_lossy(&child.stderr).trim()
        ));
    }
    let orders: Vec<String> = String::from_utf8(child.stdout)
        .map_err(|e| format!("journal reader: {e}"))?
        .lines()
        .map(str::to_owned)
        .collect();
    if orders.len() == n + 1 {
        Ok(orders)
    } else {
        Err(format!(
            "journal reader answered {} lines for {n} instances",
            orders.len()
        ))
    }
}

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(&bytes[..bytes.len().min(160)]).into_owned()
}

// ------------------------------------------------------- engine_atm_mix

struct EngineWorkload {
    saga: Translated,
    flex: Translated,
    seed: u64,
    /// The `order` input of instance `i + 1`; odd ids are sagas.
    orders: Vec<u32>,
    read_picks: Vec<u64>,
    /// Journal bytes per instance and journal events, taken once from
    /// the warm-up round by writing its events through the program's
    /// file journal (that costs as much as running the round); the
    /// audited round must have journalled the same number of events.
    journal: Option<(f64, usize)>,
}

impl EngineWorkload {
    fn new(seed: u64, sizing: Sizing) -> Self {
        let pairs = sizing.scale(ENGINE_PAIRS);
        let mut rng = Rng::new(seed, "engine_atm_mix");
        Self {
            saga: layers::translate(&layers::saga_text()),
            flex: layers::translate(&layers::flex_text()),
            seed,
            orders: (0..2 * pairs).map(|_| rng.order()).collect(),
            read_picks: (0..sizing.scale(ENGINE_READS))
                .map(|_| 1 + rng.below(2 * pairs as u64))
                .collect(),
            journal: None,
        }
    }

    fn process_of(id: u64) -> &'static str {
        if id % 2 == 1 {
            SAGA
        } else {
            FLEX
        }
    }
}

impl Rounds for EngineWorkload {
    fn round(&mut self, dir: &Path, audit: bool, ruler: &mut Ruler) -> Result<Round, String> {
        let setup = Instant::now();
        let both = [&self.saga, &self.flex];
        let world = layers::world(&both, self.seed, ENGINE_FAILS);
        let eng = layers::engine(&world, &both, None, false);
        let mut round = Round::after(setup);
        let n = self.orders.len();

        let mut states = Vec::with_capacity(n);
        let (mut rates, mut cpus, mut p50s, mut slows) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut all_latencies = Samples::with_capacity(n);
        let mut before = round.gauge(ruler);
        for (w, orders) in self.orders.chunks(ENGINE_WINDOW).enumerate() {
            let mut latency = Samples::with_capacity(orders.len());
            let (cpu, wall) = (host::process_cpu(), Instant::now());
            for (i, order) in orders.iter().enumerate() {
                let t = Instant::now();
                let id = eng.start(Self::process_of((w * ENGINE_WINDOW + i) as u64 + 1), *order);
                states.push((id, eng.run(id)));
                latency.push(t.elapsed());
            }
            let (wall, cpu) = (wall.elapsed(), host::process_cpu() - cpu);
            let after = round.gauge(ruler);
            let slow = (before + after) / 2.0;
            before = after;
            slows.push(slow);
            rates.push(orders.len() as f64 / wall.as_secs_f64());
            cpus.push(cpu.as_secs_f64() * 1e6 / orders.len() as f64);
            all_latencies.extend(&latency);
            p50s.push(latency.sorted().quantile_us(50, 100));
        }
        round.push(metrics::INST_PER_S, rates.clone(), &slows, ENGINE_WINDOW);
        round.push(metrics::OPS_PER_S, rates, &slows, ENGINE_WINDOW);
        round.push(metrics::CPU_US_PER_INST, cpus, &slows, ENGINE_WINDOW);
        round.push(metrics::SUBMIT_P50_US, p50s, &slows, ENGINE_WINDOW);
        round.push(
            metrics::SUBMIT_P99_US,
            vec![all_latencies.sorted().quantile_us(99, 100)],
            &[mean(&slows)],
            n,
        );

        // The read windows are shorter than a ruler sample: one factor
        // for them all, from the samples at both ends of the phase.
        let reads: Vec<f64> = self
            .read_picks
            .chunks(ENGINE_READ_WINDOW)
            .map(|window| {
                let mut batches = Samples::with_capacity(window.len() / READ_BATCH);
                for batch in window.chunks(READ_BATCH) {
                    let t = Instant::now();
                    for id in batch {
                        std::hint::black_box(eng.read(*id));
                    }
                    batches.push(t.elapsed());
                }
                batches.sorted().quantile_us(50, 100) / READ_BATCH as f64
            })
            .collect();
        let slow = (before + round.gauge(ruler)) / 2.0;
        let slows = vec![slow; reads.len()];
        round.push(metrics::READ_P50_US, reads, &slows, ENGINE_READ_WINDOW);
        round.ran();

        let (bytes_per_inst, first_events) = match self.journal {
            Some(first) => first,
            None => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let journal = eng.journal();
                let events = journal.len();
                let bytes = layers::journal_bytes(journal, &dir.join("round.journal"))?;
                *self.journal.insert((bytes as f64 / n as f64, events))
            }
        };
        round.push(
            metrics::JOURNAL_BYTES_PER_INST,
            vec![bytes_per_inst],
            &[],
            n,
        );

        let orders = if audit {
            let journal = eng.journal();
            let events = journal.len();
            if events != first_events {
                round
                    .verdict
                    .fail(|| format!("{events} journal events, first round had {first_events}"));
            }
            Some(journal.orders(n)?)
        } else {
            None
        };
        for (at, (id, state)) in states.into_iter().enumerate() {
            let reply = eng.read(id).map(|(now, output)| Reply {
                id,
                state: now,
                output,
            });
            match reply {
                Some(reply) if id == at as u64 + 1 && state == State::Finished => {
                    let order = orders.as_ref().map(|o| o[id as usize].as_str());
                    match judge(Self::process_of(id), order, &reply) {
                        Some(ending) => round.verdict.ended(ending),
                        None => round
                            .verdict
                            .fail(|| format!("instance {id} ran {order:?} but reads {reply:?}")),
                    }
                }
                _ => round
                    .verdict
                    .fail(|| format!("instance {id} (#{at}) ended {state:?}")),
            }
        }
        Ok(round)
    }
}

// ------------------------------------------------------- recover_replay

struct RecoverWorkload {
    saga: Translated,
    seed: u64,
    origin: std::path::PathBuf,
    /// What each instance answered before the stop, by local id − 1.
    before: Vec<Reply>,
    generation: Verdict,
    journal_bytes: u64,
    new_orders: Vec<u32>,
    read_picks: Vec<usize>,
}

impl RecoverWorkload {
    /// Drives the instances through a pool and stops it without a
    /// drain: the journal is left uncheckpointed, as a crash leaves
    /// it. Part of set-up, not of any round.
    fn generate(scratch: &Scratch, seed: u64, sizing: Sizing) -> Result<Self, String> {
        let saga = layers::translate(&layers::saga_text());
        let origin = scratch.sub("origin");
        let n = sizing.scale(RECOVER_INSTANCES);
        let mut rng = Rng::new(seed, "recover_replay");
        let pool = layers::open_pool(&origin, &[&saga], false, seed, SAGA_FAILS)?;
        let (tx, rx) = std::sync::mpsc::channel::<Result<Reply, String>>();
        let mut replies: Vec<Option<Reply>> = vec![None; n];
        let mut generation = Verdict::default();
        let (mut sent, mut answered) = (0, 0);
        while answered < n {
            while sent < n && sent - answered < GENERATE_WINDOW {
                let tx = tx.clone();
                let order = rng.order();
                if !pool.submit_with(SAGA, order, None, move |reply| {
                    let _ = tx.send(reply);
                }) {
                    return Err("pool refused a submit below its queue bound".to_owned());
                }
                sent += 1;
            }
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(Ok(reply)) => {
                    let at = (reply.id as usize).wrapping_sub(1);
                    match replies.get_mut(at) {
                        Some(slot @ None) => *slot = Some(reply),
                        _ => generation.fail(|| format!("unexpected instance id {}", reply.id)),
                    }
                }
                Ok(Err(e)) => generation.fail(|| format!("submit failed: {e}")),
                Err(_) => return Err("shard worker went silent".to_owned()),
            }
            answered += 1;
        }
        pool.stop();
        drop(pool);

        let before: Vec<Reply> = replies.into_iter().flatten().collect();
        if before.len() != n {
            return Err(format!(
                "generated {} of {n} instances: {:?}",
                before.len(),
                generation.notes
            ));
        }
        Ok(Self {
            saga,
            seed,
            journal_bytes: layers::shard_journal(&origin)
                .metadata()
                .map_or(0, |m| m.len()),
            origin,
            before,
            generation,
            new_orders: (0..sizing.scale(RECOVER_SUBMITS))
                .map(|_| rng.order())
                .collect(),
            read_picks: (0..sizing.scale(RECOVER_READS))
                .map(|_| rng.below(n as u64) as usize)
                .collect(),
        })
    }
}

impl Rounds for RecoverWorkload {
    /// What generation answered. The journal it left is read in the
    /// audited round, which reopens a copy of it.
    fn before_rounds(&mut self) -> Option<Verdict> {
        let mut generation = std::mem::take(&mut self.generation);
        for reply in &self.before {
            match judge(SAGA, None, reply) {
                Some(ending) => generation.ended(ending),
                None => generation.fail(|| format!("generated instance answered {reply:?}")),
            }
        }
        Some(generation)
    }

    fn round(&mut self, dir: &Path, audit: bool, ruler: &mut Ruler) -> Result<Round, String> {
        let setup = Instant::now();
        host::copy_dir(&self.origin, dir).map_err(|e| format!("copy data dir: {e}"))?;
        let mut round = Round::after(setup);
        let n = self.before.len();

        // The measured operation: open until ready. It is one call,
        // a second long, so the ruler is read several times at each
        // end of it.
        let mut gauge = |round: &mut Round| {
            let samples: Vec<f64> = (0..RECOVER_RULER).map(|_| round.gauge(ruler)).collect();
            mean(&samples)
        };
        let before = gauge(&mut round);
        let (cpu, wall) = (host::process_cpu(), Instant::now());
        let pool: Pool = layers::open_pool(dir, &[&self.saga], false, self.seed, SAGA_FAILS)?;
        let (wall, cpu) = (wall.elapsed(), host::process_cpu() - cpu);
        let after = gauge(&mut round);
        let slow = [(before + after) / 2.0];
        let rate = n as f64 / wall.as_secs_f64();
        round.push(metrics::INST_PER_S, vec![rate], &slow, n);
        round.push(metrics::OPS_PER_S, vec![rate], &slow, n);
        round.push(
            metrics::CPU_US_PER_INST,
            vec![cpu.as_secs_f64() * 1e6 / n as f64],
            &slow,
            n,
        );
        round.push(
            metrics::JOURNAL_BYTES_PER_INST,
            vec![self.journal_bytes as f64 / n as f64],
            &[],
            n,
        );

        // Everything that had finished is back, nothing is left
        // running, nothing was invented.
        let finished = self
            .before
            .iter()
            .filter(|r| r.state == State::Finished)
            .count() as u64;
        match pool.counts() {
            (0, f, 0) if f == finished && f == n as u64 => round.verdict.pass(),
            counts => round
                .verdict
                .fail(|| format!("recovered (running, finished, cancelled) = {counts:?}, stopped with {finished} finished")),
        }

        // What a client sees next: reads of recovered instances, then
        // new work, both at depth 1 against the recovered pool, in
        // windows with the ruler read between them.
        let mut before = after;
        let (mut read_p50s, mut read_slows) = (Vec::new(), Vec::new());
        for picks in self.read_picks.chunks(RECOVER_WINDOW_READS) {
            let mut reads = Samples::with_capacity(picks.len());
            for &at in picks {
                let t = Instant::now();
                let got = pool.status(self.before[at].id);
                reads.push(t.elapsed());
                match got {
                    Some((process, now)) if process == SAGA && now == self.before[at] => {
                        round.verdict.pass()
                    }
                    got => round.verdict.fail(|| {
                        format!(
                            "instance {} was {:?}, recovered as {got:?}",
                            at + 1,
                            self.before[at]
                        )
                    }),
                }
            }
            let after = round.gauge(ruler);
            read_p50s.push(reads.sorted().quantile_us(50, 100));
            read_slows.push((before + after) / 2.0);
            before = after;
        }
        round.push(
            metrics::READ_P50_US,
            read_p50s,
            &read_slows,
            RECOVER_WINDOW_READS,
        );

        let mut all_submits = Samples::with_capacity(self.new_orders.len());
        let mut fresh = Vec::with_capacity(self.new_orders.len());
        let (mut submit_p50s, mut submit_slows) = (Vec::new(), Vec::new());
        for orders in self.new_orders.chunks(RECOVER_WINDOW_SUBMITS) {
            let mut submits = Samples::with_capacity(orders.len());
            for order in orders {
                let t = Instant::now();
                let reply = pool.submit(SAGA, *order, None);
                submits.push(t.elapsed());
                fresh.push(reply);
            }
            let after = round.gauge(ruler);
            all_submits.extend(&submits);
            submit_p50s.push(submits.sorted().quantile_us(50, 100));
            submit_slows.push((before + after) / 2.0);
            before = after;
        }
        let all_submits = all_submits.sorted();
        round.push(
            metrics::SUBMIT_P99_US,
            vec![all_submits.quantile_us(99, 100)],
            &[mean(&submit_slows)],
            all_submits.len(),
        );
        round.push(
            metrics::SUBMIT_P50_US,
            submit_p50s,
            &submit_slows,
            RECOVER_WINDOW_SUBMITS,
        );
        pool.stop();
        drop(pool);
        round.ran();

        let orders = match audit {
            true => Some(journal_orders(
                &layers::shard_journal(dir),
                n + fresh.len(),
            )?),
            false => None,
        };
        let order_of = |id: usize| orders.as_ref().map(|o| o[id].as_str());
        if audit {
            // The recovered journal still holds everything generated.
            for (at, reply) in self.before.iter().enumerate() {
                match judge(SAGA, order_of(at + 1), reply) {
                    Some(_) => round.verdict.pass(),
                    None => round.verdict.fail(|| {
                        format!(
                            "generated instance {} ran {:?} but answered {reply:?}",
                            at + 1,
                            order_of(at + 1)
                        )
                    }),
                }
            }
        }
        for (at, reply) in fresh.into_iter().enumerate() {
            let id = n + at + 1;
            match reply {
                Ok(reply) if reply.id == id as u64 => match judge(SAGA, order_of(id), &reply) {
                    Some(ending) => round.verdict.ended(ending),
                    None => round.verdict.fail(|| {
                        format!(
                            "new instance {id} ran {:?} but answered {reply:?}",
                            order_of(id)
                        )
                    }),
                },
                other => round
                    .verdict
                    .fail(|| format!("new instance {id}: {other:?}")),
            }
        }
        Ok(round)
    }
}
