//! A seeded, single-threaded simulator of a [`ShardPool`].
//!
//! The pool is opened as [`ShardPool::open`] opens it, minus the
//! drivers (`ShardPool::undriven`), and the simulator is its only
//! thread: it holds each shard's engine, as a driver would. It owns
//! time — a step is its clock — and arrivals, which enter through the
//! pool's own entry points (`submit_with`, `complete_with`,
//! `deploy_with`, `reload_tenants`, `drain_with`). It
//! owns the disk: a crash drops the pool and gives each journal back
//! exactly the bytes it had been handed at the crash point, or tears
//! what the last step wrote at a random byte. It steps one shard at a
//! time with the drivers' own [`step`] — a step that unwinds takes its
//! engine with it, as a dying driver does — and checks the server's
//! contracts after every step:
//!
//! - each submission is admitted or refused exactly as the model says
//!   (the tenant's quota, then the shard's `--queue` bound), a refusal
//!   reports `depth ≤ capacity`, and nothing queues beyond the bound;
//! - each tenant's in-flight level is its submissions not yet answered,
//!   never above its quota, and each sink is called at most once;
//! - while two lanes of a shard stay backlogged, each one's service
//!   stays within one DRR round's quantum of its weighted share;
//! - no read is older than the last finished step: each `201` reads
//!   back through [`ShardPool::status`] with the status and output it
//!   carries, at the moment its sink is called, and so does each
//!   completion's instance and item; [`ShardPool::instance_counts`]
//!   tallies what the model knows of, and after a reopen every
//!   instance it knows of that survived reads back as it knew it.
//!
//! Each schedule runs a fixed list of seeds, then a sweep. A failure
//! names the schedule and the seed and prints what the simulator did;
//! to replay a seed, add it to its schedule's list.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, TryRecvError};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramOutcome, ProgramRegistry};
use wfms_engine::{spec_hash_of, Engine, Event, InstanceStatus, OrgModel};
use wfms_model::{Activity, Container, ProcessBuilder, ProcessDefinition};
use wfms_observe::Registry;

use super::{
    answer_of, step, CloseOnExit, PoolConfig, ShardPool, Sink, SubmitDispatch, SubmitReply,
};
use crate::tenant::{parse_tenants, Tenant};
use crate::MigrationPolicy;

/// A seeded stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn index(&mut self, len: usize) -> usize {
        self.pick(0, len as u64 - 1) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

thread_local! {
    /// What the simulator did under the current seed.
    static TRACE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn note(line: String) {
    TRACE.with(|t| t.borrow_mut().push(line));
}

/// Runs `schedule` under each of the `fixed` seeds, then under
/// `0..sweep`. A failure names the schedule and the seed, and prints the
/// last events of the schedule.
fn check(schedule: &str, fixed: &[u64], sweep: u64, run: impl Fn(&mut Rng)) {
    for seed in fixed.iter().copied().chain(0..sweep) {
        TRACE.with(|t| t.borrow_mut().clear());
        let Err(cause) = catch_unwind(AssertUnwindSafe(|| run(&mut Rng(seed)))) else {
            continue;
        };
        let cause = (cause.downcast_ref::<String>().cloned())
            .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        let done = TRACE.with(|t| t.take());
        let from = done.len().saturating_sub(80);
        panic!(
            "schedule `{schedule}` failed at seed {seed} (to replay it, add {seed} to the \
             schedule's seed list): {cause}\nevents {from}..{} of the schedule:\n  {}",
            done.len(),
            done[from..].join("\n  ")
        );
    }
}

/// `auto`: two automatic steps. `manual`: a step for `clerk`, then an
/// automatic one. `boom`: a program that panics.
fn templates() -> Vec<ProcessDefinition> {
    let auto = ProcessBuilder::new("auto")
        .program("A", "ok")
        .program("B", "ok")
        .connect_when("A", "B", "RC = 1")
        .build()
        .unwrap();
    let manual = ProcessBuilder::new("manual")
        .activity(Activity::program("M", "ok").for_role("clerk"))
        .program("Tail", "ok")
        .connect_when("M", "Tail", "RC = 1")
        .build()
        .unwrap();
    let boom = ProcessBuilder::new("boom")
        .program("A", "boom")
        .build()
        .unwrap();
    vec![auto, manual, boom]
}

/// Version `step` of process `one`: a single automatic step.
fn one(step: &str) -> ProcessDefinition {
    ProcessBuilder::new("one")
        .program(step, "ok")
        .build()
        .unwrap()
}

fn provision(_: usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let programs = Arc::new(ProgramRegistry::new());
    programs.register_fn("ok", |_| ProgramOutcome::committed());
    programs.register_fn("boom", |_| panic!("boom: the schedule's panicking program"));
    (fed, programs)
}

/// One line of a tenants file: name, key, weight, quota.
type TenantRow = (&'static str, String, u64, i64);

fn tenants_file(rows: &[TenantRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(name, key, weight, quota)| {
            format!(r#"{{"name":"{name}","key":"{key}","weight":{weight},"max_inflight":{quota}}}"#)
        })
        .collect();
    format!(r#"{{"tenants":[{}]}}"#, rows.join(","))
}

/// What a simulated pool is opened with.
struct Setup {
    shards: usize,
    capacity: usize,
    batch_max: usize,
    durability: DurabilityPolicy,
    /// Empty: tenancy off.
    tenants: Vec<TenantRow>,
    templates: Vec<ProcessDefinition>,
}

impl Setup {
    /// 1–2 shards, a tight or a roomy queue, 2–3 tenants of weights 1–4
    /// and quotas 1–12.
    fn random(rng: &mut Rng) -> Setup {
        let names = ["acme", "beta", "gamma"];
        let tenants: Vec<TenantRow> = names[..rng.pick(2, 3) as usize]
            .iter()
            .map(|name| {
                (
                    *name,
                    format!("k-{name}"),
                    rng.pick(1, 4),
                    rng.pick(1, 12) as i64,
                )
            })
            .collect();
        let quotas: i64 = tenants.iter().map(|t| t.3).sum();
        let capacity = if rng.chance(50) {
            rng.pick(1, 8) as usize
        } else {
            quotas as usize + rng.pick(0, 4) as usize
        };
        Setup {
            shards: rng.pick(1, 2) as usize,
            capacity,
            batch_max: rng.pick(1, 8) as usize,
            durability: DurabilityPolicy::Batched { n: 64 },
            tenants,
            templates: templates(),
        }
    }

    fn config(&self, dir: &Path) -> PoolConfig {
        let mut cfg = PoolConfig::new(dir);
        cfg.shards = self.shards;
        cfg.queue_capacity = self.capacity;
        cfg.batch_max = self.batch_max;
        cfg.durability = self.durability;
        cfg.org = OrgModel::new().person("ann", &["clerk"]);
        cfg.templates = self.templates.clone();
        if !self.tenants.is_empty() {
            cfg.tenants = parse_tenants(&tenants_file(&self.tenants)).unwrap();
        }
        cfg
    }
}

/// What a submission's sink heard, the journals' lengths then, and —
/// for a `201` — what its id read back then: `(status, output)`.
struct Heard {
    ticket: usize,
    reply: SubmitReply,
    lengths: Vec<u64>,
    seen: Option<(InstanceStatus, Container)>,
}

/// What a completion's sink heard, and what read back then: its
/// instance's status and whether its item was still on the worklist.
struct Completed {
    item: u64,
    instance: u64,
    reply: Result<(), String>,
    seen: Option<(Option<InstanceStatus>, bool)>,
}

/// What the model knows of the pool's instances: each `201`'s status
/// and output (a completion moves it to finished, its output unknown),
/// and how many more instances the pool holds whose status it does not
/// know — each started by a submission answered with the flush's
/// failure, or found by a reopen.
#[derive(Default)]
struct Model {
    known: BTreeMap<u64, (InstanceStatus, Option<Container>)>,
    unknown: u64,
    /// Answers already taken into the model: submissions, completions.
    taken: (usize, usize),
}

/// The bytes each journal holds right now: what was handed to the OS.
fn lengths(paths: &[PathBuf]) -> Vec<u64> {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .collect()
}

/// A pool with no driver, each shard's engine, the data directory
/// under them, and what every submission's and completion's sink
/// heard. The sinks hold the pool weakly, so a crash drops it.
struct Sim {
    setup: Setup,
    dir: PathBuf,
    journals: Arc<[PathBuf]>,
    pool: Arc<ShardPool>,
    /// Shard `i`'s engine; none once a step of it unwound.
    engines: Vec<Option<Engine>>,
    /// Each ticket's tenant, and whether the pool took it.
    sent: Vec<(Option<Arc<Tenant>>, bool)>,
    heard: Arc<Mutex<Vec<Heard>>>,
    completed: Arc<Mutex<Vec<Completed>>>,
    model: Model,
    /// The last step: its shard, the journals' lengths and how many
    /// answers had been heard before it.
    last: Option<(usize, Vec<u64>, usize)>,
    /// Per shard and pair of backlogged lanes (`(shard, a, b)`).
    windows: BTreeMap<(usize, u16, u16), Window>,
}

/// Two lanes' weights, and the service each got since both were last
/// backlogged: `(w_a, w_b, s_a, s_b)`.
type Window = (u64, u64, u64, u64);

impl Sim {
    fn open(setup: Setup, tag: &str) -> Sim {
        let dir = std::env::temp_dir().join(format!("wfms-sim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (pool, engines) =
            ShardPool::undriven(setup.config(&dir), Arc::new(Registry::new()), &provision).unwrap();
        let journals = (0..pool.shards.len())
            .map(|i| pool.dir.journal(i))
            .collect();
        Sim {
            setup,
            dir,
            journals,
            pool: Arc::new(pool),
            engines: engines.into_iter().map(Some).collect(),
            sent: Vec::new(),
            heard: Arc::default(),
            completed: Arc::default(),
            model: Model::default(),
            last: None,
            windows: BTreeMap::new(),
        }
    }

    /// The live tenant named `name`.
    fn tenant(&self, name: &str) -> Arc<Tenant> {
        Arc::clone(
            self.pool
                .tenants
                .read()
                .by_name(name)
                .expect("a live tenant"),
        )
    }

    fn live(&self) -> Vec<Arc<Tenant>> {
        self.pool.tenants.read().live().cloned().collect()
    }

    fn lengths(&self) -> Vec<u64> {
        lengths(&self.journals)
    }

    /// Submits `process` as `tenant` and checks that the pool decided as
    /// the model does: the tenant's quota first, then — unless the
    /// inbox is closed and answers at once — the owning shard's bound.
    /// Returns whether it was taken.
    fn submit(&mut self, tenant: Option<&Arc<Tenant>>, process: &str) -> bool {
        let at = self.pool.rr.load(Ordering::Relaxed) % self.pool.shards.len();
        let (queued, closed) = {
            let inbox = self.pool.shards[at].inbox.lock();
            (inbox.queued, inbox.stop)
        };
        let capacity = self.pool.queue_capacity;
        let level = tenant.map(|t| t.inflight.load(Ordering::Relaxed));
        let expected = match tenant {
            Some(t) if level >= Some(t.max_inflight) => Some((level.unwrap(), t.max_inflight)),
            _ if !closed && queued >= capacity => Some((queued as i64, capacity as i64)),
            _ => None,
        };
        let ticket = self.sent.len();
        let (heard, journals) = (Arc::clone(&self.heard), Arc::clone(&self.journals));
        let pool = Arc::downgrade(&self.pool);
        let sink: Sink<SubmitReply> = Box::new(move |reply| {
            let lengths = lengths(&journals);
            let seen = (reply.as_ref().ok())
                .and_then(|(ext, ..)| pool.upgrade()?.status(*ext))
                .map(|(_, status, _, output)| (status, output));
            heard.lock().push(Heard {
                ticket,
                reply,
                lengths,
                seen,
            })
        });
        let who = tenant.map_or("-", |t| t.name.as_str()).to_owned();
        let dispatch = self
            .pool
            .submit_with(process, Container::empty(), tenant.cloned(), sink);
        note(format!(
            "#{ticket} {who} submits {process} to shard {at} ({queued} queued, {level:?} in flight): {dispatch:?}"
        ));
        let taken = match dispatch {
            SubmitDispatch::Dispatched => {
                assert_eq!(expected, None, "#{ticket} admitted past a bound");
                true
            }
            SubmitDispatch::Overloaded { depth, capacity } => {
                assert!(
                    depth <= capacity as i64,
                    "a refusal reports {depth}/{capacity}"
                );
                assert_eq!(
                    expected,
                    Some((depth, capacity as i64)),
                    "#{ticket} refused"
                );
                let quotas: i64 = self.live().iter().map(|t| t.max_inflight).sum();
                let within = tenant.is_some_and(|t| level < Some(t.max_inflight));
                assert!(
                    !within || quotas > self.pool.queue_capacity as i64,
                    "#{ticket}: a tenant within its quota refused although the quotas fit the queue"
                );
                false
            }
        };
        self.sent.push((tenant.cloned(), taken));
        taken
    }

    /// Completes work item `item` of instance `instance` as `ann`.
    fn complete(&self, item: u64, instance: u64) {
        let (completed, pool) = (Arc::clone(&self.completed), Arc::downgrade(&self.pool));
        let sink = Box::new(move |reply: Result<(), wfms_engine::EngineError>| {
            let seen = (reply.is_ok())
                .then(|| read_item(&pool, item, instance))
                .flatten();
            completed.lock().push(Completed {
                item,
                instance,
                reply: reply.map_err(|e| e.to_string()),
                seen,
            })
        });
        note(format!("complete item {item} of {instance}"));
        self.pool.complete_with(item, "ann".to_owned(), sink);
    }

    /// Each lane of shard `at`: its length and weight.
    fn lanes(&self, at: usize) -> BTreeMap<u16, (usize, u64)> {
        let inbox = self.pool.shards[at].inbox.lock();
        (inbox.lanes.iter())
            .map(|(slot, lane)| (*slot, (lane.fifo.len(), lane.weight)))
            .collect()
    }

    /// Steps shard `at` as its driver does — should the step unwind,
    /// closing its inbox and dropping its engine, as the driver's exit
    /// does — and checks the contracts.
    fn step(&mut self, at: usize) {
        let before = self.lanes(at);
        self.last = Some((at, self.lengths(), self.heard.lock().len()));
        let engine = self.engines[at]
            .take()
            .expect("a shard whose steps never unwound");
        let pool = &self.pool;
        let shard = &pool.shards[at];
        let close = CloseOnExit(&shard.inbox);
        step(
            shard,
            &engine,
            at,
            pool.ids,
            pool.batch_max,
            &pool.accepted,
            &pool.failed,
        );
        std::mem::forget(close);
        self.engines[at] = Some(engine);
        note(format!(
            "step shard {at}: lanes {before:?} → {:?}",
            self.lanes(at)
        ));
        self.fair(at, &before);
        self.invariants();
        self.read_back();
    }

    /// No read is older than the last finished step: each `201` and each
    /// completion answered since the last check read back as answered
    /// when its sink was called, and the published tallies are what the
    /// model knows of.
    fn read_back(&mut self) {
        let model = &mut self.model;
        for h in &self.heard.lock()[model.taken.0..] {
            match &h.reply {
                Ok((ext, status, output)) => {
                    assert_eq!(
                        h.seen,
                        Some((*status, output.clone())),
                        "#{}'s 201 for {ext} did not read back before it was sent",
                        h.ticket
                    );
                    model.known.insert(*ext, (*status, Some(output.clone())));
                }
                Err((error, _)) if error.starts_with("journal flush failed") => model.unknown += 1,
                Err(_) => {}
            }
            model.taken.0 += 1;
        }
        for c in &self.completed.lock()[model.taken.1..] {
            assert_eq!(c.reply, Ok(()), "item {} of {}", c.item, c.instance);
            assert_eq!(
                c.seen,
                Some((Some(InstanceStatus::Finished), false)),
                "item {} of {}: (status, still listed) when its completion was answered",
                c.item,
                c.instance
            );
            if let Some(known) = model.known.get_mut(&c.instance) {
                *known = (InstanceStatus::Finished, None);
            }
            model.taken.1 += 1;
        }
        self.tallied();
    }

    /// [`ShardPool::instance_counts`] holds each instance the model
    /// knows of under its status, and as many more as it does not know.
    fn tallied(&self) {
        let counts = self.pool.instance_counts();
        let mut known = (0, 0, 0);
        for (status, _) in self.model.known.values() {
            match status {
                InstanceStatus::Running => known.0 += 1,
                InstanceStatus::Finished => known.1 += 1,
                InstanceStatus::Cancelled => known.2 += 1,
            }
        }
        let total = |(r, f, c): (u64, u64, u64)| r + f + c;
        assert!(
            known.0 <= counts.0
                && known.1 <= counts.1
                && known.2 <= counts.2
                && total(counts) == total(known) + self.model.unknown,
            "the pool counts {counts:?}; the model knows of {known:?} and {} more",
            self.model.unknown
        );
    }

    /// True when no shard holds a submission or a control job.
    fn idle(&self) -> bool {
        (self.pool.shards.iter()).all(|s| {
            let inbox = s.inbox.lock();
            inbox.queued == 0 && inbox.control.is_empty()
        })
    }

    /// Steps every shard in turn until none has work.
    fn settle(&mut self) {
        while !self.idle() {
            for at in 0..self.pool.shards.len() {
                self.step(at);
            }
        }
    }

    /// While two lanes of shard `at` stay backlogged through a step,
    /// the service each got since both were backlogged stays within one
    /// DRR round's quantum of its weighted share: `|s_a − (s_a + s_b) ·
    /// w_a / (w_a + w_b)| ≤ w_a + w_b`.
    fn fair(&mut self, at: usize, before: &BTreeMap<u16, (usize, u64)>) {
        let after = self.lanes(at);
        let wet = |slot: &u16| {
            before.get(slot).is_some_and(|l| l.0 > 0) && after.get(slot).is_some_and(|l| l.0 > 0)
        };
        for (a, (len_a, wa)) in before {
            for (b, (len_b, wb)) in before.range(a + 1..) {
                let key = (at, *a, *b);
                if !(wet(a) && wet(b)) {
                    self.windows.remove(&key);
                    continue;
                }
                let window = self.windows.entry(key).or_insert((*wa, *wb, 0, 0));
                if (window.0, window.1) != (*wa, *wb) {
                    *window = (*wa, *wb, 0, 0); // a reload changed the shares
                }
                window.2 += (len_a - after[a].0) as u64;
                window.3 += (len_b - after[b].0) as u64;
                let (sa, sb) = (window.2, window.3);
                assert!(
                    (sa * wb).abs_diff(sb * wa) <= (wa + wb) * (wa + wb),
                    "shard {at}: lanes {a} (weight {wa}) and {b} (weight {wb}), both backlogged, \
                     were served {sa} and {sb}"
                );
            }
        }
    }

    /// The bounds hold: nothing queued beyond `--queue` and no gauge
    /// reading above it; each tenant's in-flight level is its
    /// submissions not yet answered, within its quota; no sink was
    /// called twice or for a submission the pool did not take.
    fn invariants(&self) {
        let capacity = self.pool.queue_capacity;
        for (at, shard) in self.pool.shards.iter().enumerate() {
            let queued = shard.inbox.lock().queued;
            assert!(
                queued <= capacity,
                "shard {at} queues {queued} > {capacity}"
            );
            let gauge = shard.depth.get();
            assert!(gauge <= capacity as i64, "shard {at}'s gauge reads {gauge}");
        }
        let heard = self.heard.lock();
        let mut answered = vec![0; self.sent.len()];
        for h in heard.iter() {
            answered[h.ticket] += 1;
            assert!(
                self.sent[h.ticket].1,
                "#{} answered after a refusal",
                h.ticket
            );
            assert_eq!(answered[h.ticket], 1, "#{} answered twice", h.ticket);
        }
        for t in self.live() {
            let waiting = (self.sent.iter().zip(&answered))
                .filter(|((who, taken), n)| {
                    *taken && **n == 0 && who.as_ref().is_some_and(|w| w.name == t.name)
                })
                .count() as i64;
            let level = t.inflight.load(Ordering::Relaxed);
            assert_eq!(level, waiting, "{} holds {level} slots", t.name);
            assert!(level <= t.max_inflight, "{} is {level} in flight", t.name);
        }
    }

    /// Every ticket the pool took was answered exactly once; each `201`
    /// reads back for its own tenant, and not for any other.
    fn all_answered(&self) {
        let heard = self.heard.lock();
        let taken = self.sent.iter().filter(|(_, taken)| *taken).count();
        assert_eq!(
            heard.len(),
            taken,
            "answers heard for the submissions taken"
        );
        let table = self.pool.tenants.read();
        for h in heard.iter() {
            let Ok((ext, ..)) = h.reply else { continue };
            let (shard, local, slot) = self.pool.ids.decode(ext).unwrap();
            let owner = self.sent[h.ticket].0.as_ref().map_or(0, |t| t.slot);
            assert_eq!(slot, owner, "#{}'s id {ext} names its tenant", h.ticket);
            assert!(self.pool.status(ext).is_some(), "#{} reads back", h.ticket);
            for other in table.live().filter(|t| t.slot != owner) {
                let forged = self.pool.ids.encode(local, shard, other.slot);
                assert!(
                    self.pool.status(forged).is_none(),
                    "{} reads #{}",
                    other.name,
                    h.ticket
                );
            }
        }
    }

    /// Every ticket taken was answered once, each with the flush's error.
    fn all_answered_failed(&self) {
        let heard = self.heard.lock();
        assert_eq!(heard.len(), self.sent.iter().filter(|s| s.1).count());
        for h in heard.iter() {
            match &h.reply {
                Err((error, false)) if error.starts_with("journal flush failed") => {}
                other => panic!("#{} answered {other:?}", h.ticket),
            }
        }
    }

    /// Crashes the pool: drops it, gives each journal back `keep` bytes,
    /// and opens the pool again on the same directory. Each instance the
    /// model knows of that survived reads back as it knew it, and the
    /// rest of what the reopen found is what it does not know.
    fn crash(self, keep: &[u64]) -> Sim {
        let Sim {
            setup,
            dir,
            journals,
            pool,
            engines,
            sent,
            heard,
            completed,
            model,
            ..
        } = self;
        drop((pool, engines));
        for (path, keep) in journals.iter().zip(keep) {
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            assert!(
                file.metadata().unwrap().len() >= *keep,
                "journals only grow"
            );
            file.set_len(*keep).unwrap();
        }
        note(format!("crash, journals cut to {keep:?}"));
        let (pool, engines) =
            ShardPool::undriven(setup.config(&dir), Arc::new(Registry::new()), &provision).unwrap();
        let mut survived = Model {
            taken: (heard.lock().len(), completed.lock().len()),
            ..Model::default()
        };
        for (ext, (status, output)) in model.known {
            let Some((_, read, _, read_output)) = pool.status(ext) else {
                continue;
            };
            assert_eq!(read, status, "{ext} after the reopen");
            if let Some(output) = &output {
                assert_eq!(&read_output, output, "{ext}'s output after the reopen");
            }
            survived.known.insert(ext, (status, output));
        }
        let (r, f, c) = pool.instance_counts();
        survived.unknown = (r + f + c)
            .checked_sub(survived.known.len() as u64)
            .expect("the reopen counts every instance that survived");
        let sim = Sim {
            setup,
            dir,
            journals,
            pool: Arc::new(pool),
            engines: engines.into_iter().map(Some).collect(),
            sent,
            heard,
            completed,
            model: survived,
            last: None,
            windows: BTreeMap::new(),
        };
        sim.tallied();
        sim
    }

    fn remove(self) {
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What completed item `item` of `instance` reads back as: the
/// instance's status, and whether the item is still on `ann`'s
/// worklist. `None` once the pool is gone.
fn read_item(
    pool: &Weak<ShardPool>,
    item: u64,
    instance: u64,
) -> Option<(Option<InstanceStatus>, bool)> {
    let pool = pool.upgrade()?;
    let status = pool.status(instance).map(|(_, status, ..)| status);
    let listed = (pool.worklist("ann", None).iter()).any(|(id, ..)| *id == item);
    Some((status, listed))
}

/// One arrival: a burst from one tenant (a hot one most often), or a
/// step of one shard.
fn arrive(sim: &mut Sim, rng: &mut Rng, tenants: &[Arc<Tenant>]) {
    if rng.chance(55) {
        let who = if rng.chance(50) {
            0
        } else {
            rng.index(tenants.len())
        };
        let process = if rng.chance(10) { "manual" } else { "auto" };
        for _ in 0..rng.pick(1, 6) {
            sim.submit(Some(&tenants[who]), process);
        }
    } else {
        let at = rng.index(sim.pool.shards.len());
        sim.step(at);
    }
}

/// Bursts from two or three tenants of different weights and quotas
/// against tight and roomy queues and small batches.
#[test]
fn arrivals_keep_every_bound_and_share_by_weight() {
    check("arrivals", &[], 48, |rng| {
        let mut sim = Sim::open(Setup::random(rng), "arrivals");
        let tenants = sim.live();
        for _ in 0..240 {
            arrive(&mut sim, rng, &tenants);
        }
        sim.settle();
        sim.all_answered();
        sim.remove();
    });
}

/// A crash at any step: at the moment a `201` is heard, between steps,
/// or with the last step's writes torn at a random byte. Every
/// submission answered `201` before the crash is found by its wire id
/// after the reopen and runs to its end.
#[test]
fn an_acknowledged_start_survives_a_crash_at_any_step() {
    check("crash", &[], 48, |rng| {
        let mut setup = Setup::random(rng);
        setup.durability = if rng.chance(30) {
            DurabilityPolicy::PerEvent
        } else {
            DurabilityPolicy::Batched {
                n: rng.pick(1, 16) as usize,
            }
        };
        let mut sim = Sim::open(setup, "crash");
        let tenants = sim.live();
        for _ in 0..rng.pick(1, 160) {
            arrive(&mut sim, rng, &tenants);
        }
        let heard: Vec<(u64, Vec<u64>)> = (sim.heard.lock().iter())
            .filter_map(|h| {
                h.reply
                    .as_ref()
                    .ok()
                    .map(|(ext, ..)| (*ext, h.lengths.clone()))
            })
            .collect();
        let (keep, acked) = match rng.pick(0, 2) {
            // When the k-th 201 is heard.
            0 if !heard.is_empty() => {
                let k = rng.index(heard.len());
                (heard[k].1.clone(), k + 1)
            }
            // Inside the last step, its writes torn: its answers were
            // never heard.
            1 if sim.last.is_some() => {
                let (at, before, answered) = sim.last.clone().unwrap();
                let mut keep = sim.lengths();
                if keep[at] > before[at] {
                    keep[at] = rng.pick(before[at], keep[at] - 1);
                }
                let acked = (sim.heard.lock()[..answered].iter())
                    .filter(|h| h.reply.is_ok())
                    .count();
                (keep, acked)
            }
            _ => (sim.lengths(), heard.len()),
        };
        let mut sim = sim.crash(&keep);
        for (ext, _) in &heard[..acked] {
            let status = sim.pool.status(*ext).map(|s| s.1);
            assert!(status.is_some(), "acknowledged id {ext} is lost");
        }
        for (item, instance, _) in sim.pool.worklist("ann", None) {
            sim.complete(item, instance);
        }
        sim.settle();
        for (ext, _) in &heard[..acked] {
            let status = sim.pool.status(*ext).map(|s| s.1);
            assert_eq!(
                status,
                Some(InstanceStatus::Finished),
                "acknowledged id {ext}"
            );
        }
        sim.remove();
    });
}

/// A deploy crashed after each shard's hop reopens with each shard's
/// default what its own journal's last `TemplateDeployed` says: the
/// shards the chain reached move to v2, the others stay on v1.
#[test]
fn a_deploy_crashed_after_any_hop_leaves_each_default_to_its_journal() {
    let (v1, v2) = (one("A"), one("B"));
    let hex = |def: &ProcessDefinition| format!("{:016x}", spec_hash_of(def));
    check("deploy crash", &[], 6, |rng| {
        let shards = rng.pick(2, 3) as usize;
        for hop in 0..shards {
            let mut setup = Setup::random(rng);
            (setup.shards, setup.capacity, setup.tenants) = (shards, 64, Vec::new());
            setup.templates = vec![v1.clone()];
            let mut sim = Sim::open(setup, "deploy");
            for _ in 0..rng.pick(0, 6) {
                sim.submit(None, "one");
            }
            let (tx, rx) = channel();
            sim.pool.deploy_with(
                v2.clone(),
                MigrationPolicy::DrainOld,
                Box::new(move |done| tx.send(done.is_ok()).unwrap()),
            );
            for at in 0..=hop {
                for _ in 0..rng.pick(0, 2) {
                    sim.submit(None, "one");
                }
                sim.step(at);
            }
            assert_eq!(rx.try_recv().ok(), (hop + 1 == shards).then_some(true));
            let keep = sim.lengths();
            let sim = sim.crash(&keep);
            for (at, engine) in sim.engines.iter().enumerate() {
                let engine = engine.as_ref().unwrap();
                let journalled = (engine.journal_events().into_iter())
                    .filter_map(|e| match e {
                        Event::TemplateDeployed {
                            process, version, ..
                        } if process == "one" => Some(version.to_string()),
                        _ => None,
                    })
                    .last()
                    .unwrap_or_else(|| hex(&v1));
                let default = hex(&engine.template("one").unwrap().def);
                assert_eq!(default, journalled, "shard {at} after hop {hop}");
                let moved = if at <= hop { hex(&v2) } else { hex(&v1) };
                assert_eq!(default, moved, "shard {at} after hop {hop}");
            }
            sim.remove();
        }
    });
}

/// `reload-tenants` before, between and after runs of submits: keys
/// rotate, weights and quotas move, tenants come and go. A reload is
/// answered by the step of shard 0 that runs it; from then on the file's
/// keys authenticate, each name on its pinned slot, and the others do
/// not; quota accounting carries across every swap.
#[test]
fn tenant_reloads_between_runs_of_submits_keep_the_accounting() {
    check("reload", &[], 24, |rng| {
        let mut setup = Setup::random(rng);
        setup.capacity = 64;
        let mut rows = setup.tenants.clone();
        let mut sim = Sim::open(setup, "reload");
        let path = sim.dir.join("tenants.json");
        let mut slots = BTreeMap::new();
        let mut quotas: BTreeMap<&str, i64> = rows.iter().map(|r| (r.0, r.3)).collect();
        for t in sim.live() {
            slots.insert(t.name.to_string(), t.slot);
        }
        for run in 0..=3 {
            // A new file: every key may rotate, weights move, quotas
            // never fall below what a name once had, and any tenant but
            // acme may leave or return.
            let previous = rows.clone();
            rows.clear();
            for name in ["acme", "beta", "gamma"] {
                if name == "acme" || rng.chance(70) {
                    let quota = quotas.entry(name).or_insert(1);
                    *quota += rng.pick(0, 3) as i64;
                    let key = format!("k-{name}-{}", rng.pick(0, 2));
                    rows.push((name, key, rng.pick(1, 4), *quota));
                }
            }
            std::fs::write(&path, tenants_file(&rows)).unwrap();
            let (tx, rx) = channel();
            sim.pool.reload_tenants(
                path.clone(),
                Box::new(move |n| tx.send(n.unwrap()).unwrap()),
            );
            note(format!("reload {rows:?}"));
            loop {
                let at = rng.index(sim.pool.shards.len());
                if rng.chance(50) {
                    let keyed = previous[rng.index(previous.len())].1.clone();
                    let tenant = sim.pool.authenticate(keyed.as_bytes());
                    sim.submit(tenant.as_ref(), "auto");
                    continue;
                }
                sim.step(at);
                if at == 0 {
                    assert_eq!(rx.try_recv(), Ok(rows.len()), "answered by its step");
                    break;
                }
                assert_eq!(
                    rx.try_recv(),
                    Err(TryRecvError::Empty),
                    "only shard 0 runs it"
                );
            }
            for (name, key, ..) in &previous {
                let held = sim.pool.authenticate(key.as_bytes());
                let kept = rows.iter().any(|r| &r.1 == key);
                assert_eq!(held.is_some(), kept, "{name}'s key {key}");
            }
            for (name, key, weight, quota) in &rows {
                let t = sim
                    .pool
                    .authenticate(key.as_bytes())
                    .expect("a key of the file");
                let slot = *slots.entry(name.to_string()).or_insert(t.slot);
                assert_eq!((t.slot, t.weight, t.max_inflight), (slot, *weight, *quota));
            }
            if run < 3 {
                let tenants = sim.live();
                for _ in 0..rng.pick(0, 40) {
                    arrive(&mut sim, rng, &tenants);
                }
            }
        }
        sim.settle();
        sim.all_answered();
        sim.remove();
    });
}

/// A when-dry drain against lanes that never run dry is answered only
/// once they do — after every submission taken before it.
#[test]
fn a_drain_waits_for_lanes_that_never_run_dry() {
    check("drain when dry", &[], 16, |rng| {
        let mut setup = Setup::random(rng);
        setup.batch_max = rng.pick(1, 4) as usize;
        setup.capacity = 64;
        for row in &mut setup.tenants {
            row.3 = 256;
        }
        let mut sim = Sim::open(setup, "drain");
        let tenants = sim.live();
        let wet = |sim: &Sim| {
            (sim.pool.shards.iter()).all(|s| s.inbox.lock().queued > sim.setup.batch_max)
        };
        let mut next = 0;
        let mut top_up = |sim: &mut Sim| {
            while !wet(sim) {
                sim.submit(Some(&tenants[next % tenants.len()]), "auto");
                next += 1;
            }
        };
        top_up(&mut sim);
        let before = sim.sent.len();
        let (heard, drained) = (Arc::clone(&sim.heard), Arc::new(Mutex::new(None)));
        let answer = Arc::clone(&drained);
        sim.pool.drain_with(Box::new(move |done| {
            *answer.lock() = Some((heard.lock().len(), done.is_ok()));
        }));
        for _ in 0..rng.pick(1, 24) {
            top_up(&mut sim);
            let at = rng.index(sim.pool.shards.len());
            sim.step(at);
            assert!(
                drained.lock().is_none(),
                "a drain answered beside backlogged lanes"
            );
        }
        sim.settle();
        let answered = *drained.lock();
        let (answered_after, ok) = answered.expect("the drain is answered");
        assert!(ok);
        let heard = sim.heard.lock();
        let first = heard[..answered_after]
            .iter()
            .filter(|h| h.ticket < before)
            .count();
        assert_eq!(
            first, before,
            "every submission taken before the drain answered first"
        );
        drop(heard);
        sim.remove();
    });
}

/// The write system calls this thread has made (`syscw` of
/// `/proc/thread-self/io`).
fn writes() -> u64 {
    let io = std::fs::read_to_string("/proc/thread-self/io").unwrap();
    (io.lines().find_map(|line| line.strip_prefix("syscw:")))
        .and_then(|n| n.trim().parse().ok())
        .expect("a syscw line")
}

/// A step is one group commit, and one `write`: a step of 1, 16 or 64
/// submissions of an eight-step chain, each journalling 41 events, hands
/// its journal to the OS once, at the barrier that ends it. A journal
/// that also wrote whenever 64 records were unwritten would make one
/// `write` per submission here: 16 for 16, 64 for 64.
#[test]
fn a_step_is_one_write() {
    let mut chain = ProcessBuilder::new("chain").program("S0", "ok");
    for i in 1..8 {
        let (before, step) = (format!("S{}", i - 1), format!("S{i}"));
        chain = chain
            .program(&step, "ok")
            .connect_when(&before, &step, "RC = 1");
    }
    let chain = chain.build().unwrap();
    for n in [1, 16, 64] {
        let setup = Setup {
            shards: 1,
            capacity: 64,
            batch_max: 64,
            durability: DurabilityPolicy::Batched { n: 64 },
            tenants: Vec::new(),
            templates: vec![chain.clone()],
        };
        let mut sim = Sim::open(setup, &format!("one-write-{n}"));
        for _ in 0..n {
            assert!(sim.submit(None, "chain"));
        }
        let journalled = |sim: &Sim| {
            let tallies = sim.engines[0].as_ref().unwrap().tallies();
            tallies
                .into_iter()
                .find(|t| t.0 == "journal.events")
                .unwrap()
                .1
        };
        let (events, before) = (journalled(&sim), writes());
        sim.step(0);
        let made = writes() - before;
        let events = journalled(&sim) - events;
        assert_eq!(events, 41 * n, "what the step journalled");
        assert_eq!(made, 1, "{n} submissions, {events} events: writes");
        assert!(sim.idle());
        sim.all_answered();
        sim.remove();
    }
}

/// A shard whose journal is `/dev/full` answers every reply of every
/// batch with the flush failure, counts none accepted, and gives back
/// every quota slot.
#[test]
fn a_full_disk_fails_every_batch_and_gives_back_every_slot() {
    check("full disk", &[], 16, |rng| {
        let mut setup = Setup::random(rng);
        setup.shards = 1;
        let n = rng.pick(8, 64) as usize;
        let mut sim = Sim::open(setup, "full-disk");
        let (engine, path) = super::tests::on_a_full_disk(
            DurabilityPolicy::Batched { n },
            templates(),
            &format!("sim-{n}"),
        );
        sim.engines[0] = Some(engine);
        let tenants = sim.live();
        for _ in 0..rng.pick(1, 80) {
            arrive(&mut sim, rng, &tenants);
        }
        sim.settle();
        sim.all_answered_failed();
        assert_eq!(sim.pool.accepted.get(), 0);
        sim.remove();
        std::fs::remove_file(path).unwrap();
    });
}

/// A program that panics takes its shard's step down, and its engine
/// with it. Every submission the worker abandons — the rest of the
/// batch, the lanes behind it — is answered `shard worker stopped` and
/// gives its quota back; a control job queued behind it is dropped, its
/// sink uncalled (the pool's contract: over HTTP, the sink
/// `routes::answer_later` made answers `500 shard worker stopped` as it
/// drops — the loopback test
/// `an_abandoned_completion_still_answers_over_http`). So is every job
/// that comes later — a completion, a deploy's hop, a tenant reload, a
/// drain: each is answered as abandoned, at once, and none runs. A
/// later submission is answered `shard worker stopped` at once.
#[test]
fn a_dying_worker_answers_what_it_abandons() {
    let stopped = Err(("shard worker stopped".to_owned(), false));
    check("dead worker", &[], 16, |rng| {
        let mut setup = Setup::random(rng);
        (setup.shards, setup.capacity) = (1, 64);
        setup.tenants[0].3 = 64;
        let mut sim = Sim::open(setup, "dead-worker");
        let acme = sim.tenant("acme");
        assert!(sim.submit(Some(&acme), "manual"));
        sim.settle();
        assert!(
            sim.heard.lock()[0].reply.is_ok(),
            "flushed before the panic"
        );
        let (item, instance, _) = sim.pool.worklist("ann", None)[0];

        let first = sim.sent.len();
        assert!(sim.submit(Some(&acme), "boom"));
        for _ in 0..rng.pick(0, 6) {
            let process = if rng.chance(30) { "boom" } else { "auto" };
            assert!(sim.submit(Some(&acme), process));
        }
        let (tx, rx) = channel();
        sim.pool.complete_with(
            item,
            "ann".to_owned(),
            Box::new(move |r| tx.send(r).unwrap()),
        );
        let unwound = catch_unwind(AssertUnwindSafe(|| sim.step(0)));
        assert!(unwound.is_err(), "the program's panic unwinds the step");
        assert!(sim.engines[0].is_none(), "the engine went with its step");
        for h in &sim.heard.lock()[1..] {
            assert!(h.ticket >= first);
            assert_eq!(h.reply, stopped, "#{}", h.ticket);
        }
        sim.invariants();
        sim.all_answered();
        assert_eq!(acme.inflight.load(Ordering::Relaxed), 0, "quota given back");
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);

        // What a job would leave if it ran: a written template file, a
        // checkpoint in the journal, a key that authenticates.
        let files = |dir: &Path| std::fs::read_dir(dir).unwrap().count();
        let (before, lengths) = (files(&sim.dir.join("templates")), sim.lengths());
        let path = sim.dir.join("tenants.json");
        std::fs::write(
            &path,
            tenants_file(&[("delta", "k-delta".to_owned(), 1, 1)]),
        )
        .unwrap();
        let pool = &sim.pool;
        let completed = answer_of(|sink| pool.complete_with(item, "ann".to_owned(), sink));
        assert!(completed.is_none(), "a completion answered");
        let deployed =
            answer_of(|sink| pool.deploy_with(one("B"), MigrationPolicy::DrainOld, sink));
        assert!(deployed.is_none(), "a deploy answered");
        let reloaded = answer_of(|sink| pool.reload_tenants(path, sink));
        assert!(reloaded.is_none(), "a reload answered");
        assert!(
            answer_of(|sink| pool.drain_with(sink)).is_none(),
            "a drain answered"
        );
        assert_eq!(files(&sim.dir.join("templates")), before, "a deploy ran");
        assert_eq!(sim.lengths(), lengths, "a job wrote the journal");
        assert!(pool.authenticate(b"k-delta").is_none(), "a reload ran");
        let status = pool.status(instance).map(|(_, status, ..)| status);
        assert_eq!(status, Some(InstanceStatus::Running), "a completion ran");

        let late = sim.sent.len();
        assert!(sim.submit(Some(&acme), "auto"));
        let heard = sim.heard.lock();
        let last = heard.last().unwrap();
        assert_eq!((last.ticket, &last.reply), (late, &stopped));
        drop(heard);
        assert_eq!(acme.inflight.load(Ordering::Relaxed), 0);
        sim.remove();
    });
}
