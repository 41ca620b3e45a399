//! The sharded instance manager.
//!
//! A [`ShardPool`] owns N shards; each shard is an [`Engine`] with its
//! own durable journal file (`shard-<i>.journal` under the data
//! directory), one bounded admission queue (its `Inbox`) and a
//! dedicated worker thread, the engine's one owner once
//! [`ShardPool::open`] has returned. Submissions are spread round-robin.
//!
//! ## A turn and its driver
//!
//! What a shard does with a batch is one step, `turn`: navigate each
//! submission to quiescence, flush the journal, and pair each
//! submission with the reply it may now be given — group commit. Under
//! the default policy the batch-end flush is the turn's one write (only
//! `per-event` and `sync` write earlier parts of the batch already); it
//! is the barrier no acknowledgement precedes, and when it fails every
//! reply of the batch is that failure. An acknowledgement therefore
//! implies durability: after `kill -9`, every accepted submission is
//! recovered from its shard journal. A turn takes no lock of the
//! shard's, reads no clock and starts no thread, so a test makes one
//! directly.
//!
//! What the worker does with its inbox is one step, `step`: take a
//! batch, publish the queue depth, make the turn, publish what reads
//! need of it, count the replies and answer them — each reservation
//! given back before its sink is called, and every reactor's wake held
//! until the last reply is posted — then run the control jobs that came
//! due. The worker thread is the
//! step's driver, `drive`, and the only code that waits on the inbox:
//! it waits until there is work, then steps. A test steps a pool's
//! shards itself, with no driver (`sim.rs`).
//!
//! ## One queue, one guard
//!
//! A submission waits in exactly one place: its tenant's lane of the
//! owning shard's `Inbox`, which submitters and the worker share under
//! one mutex. [`ShardPool::submit_with`] admits into it iff fewer than
//! [`PoolConfig::queue_capacity`] submissions are waiting there, and
//! answers [`SubmitDispatch::Overloaded`] otherwise — so a shard holds
//! at most `queue_capacity` admitted submissions beyond the batch its
//! worker is navigating, and the depth a refusal reports never exceeds
//! the capacity. The worker sleeps only on an empty inbox and is woken
//! only then: a submitter that finds it busy pays no system call.
//!
//! A tenant's in-flight slot is a `Reservation` that travels with the
//! submission and is given back by its `Drop` and nowhere else:
//! answered, refused, or abandoned because the worker died, the quota
//! cannot leak. An abandoned submission is still answered, `shard
//! worker stopped`: its `Pending` answers when it is dropped unsent.
//! Queue depth and accept/reject counts are published through the
//! pool's [`Registry`]. What the data directory pins across reopens
//! lives in `store.rs`.
//!
//! ## One writer
//!
//! Whatever else changes a shard — a work-item completion, a deploy, a
//! tenant reload, a drain — is a *control job*: a closure queued in the
//! same inbox, which the worker runs after a batch's flush and answers,
//! in arrival order (a drain's only once the lanes have run dry, so
//! that everything admitted before it is answered first). Each job
//! flushes what it journalled and publishes what it changed before it
//! calls its sink, so "answered ⇒ durable, and readable" holds for it
//! as for a submission. A completion runs on its item's shard; a
//! deploy (`deploy.rs`) runs on every shard in turn, shard 0's worker
//! doing the file work first and each worker handing it to the next,
//! so the order "template file → meta → each shard's flushed
//! `TemplateDeployed`" is that of one chain, not of a lock; a tenant
//! reload (`tenant.rs`) runs on shard 0; a drain on every shard at
//! once, the last to finish answering with the sum.
//! [`ShardPool::complete_with`], [`ShardPool::deploy_with`],
//! [`ShardPool::reload_tenants`] and [`ShardPool::drain_with`] queue
//! such a job and return; the blocking spellings wait for the sink.
//! Races between a deploy, a reload, a checkpoint and a submit are
//! orderings of one queue. A closed inbox — its worker was stopped or
//! died — drops a job unrun, its sink uncalled, as it drops the jobs a
//! dying worker abandons: a dead shard runs no job, as it takes no
//! submission.
//!
//! ## What reads see
//!
//! A shard's engine is not in the `Shard` the reactors share: its
//! driver owns it — the worker thread, by value; in a test, the
//! simulator (`sim.rs`) — and hands it to `step`, `turn`,
//! `Shard::publish` and every control job as `&Engine`. An `Engine`
//! is not `Sync`, so no other thread can reach it. Reads —
//! [`ShardPool::status`], [`ShardPool::worklist`],
//! [`ShardPool::instance_counts`], the engine half of
//! [`ShardPool::snapshot`] — see what the driver last published
//! (`published.rs`), and wait for no navigation; the scrape reads the
//! shard's databases live, through the `MultiDatabase` the shard
//! keeps.
//!
//! ## External ids
//!
//! Each shard allocates local instance and work-item ids from 1. On
//! the wire they are folded with the shard index:
//! `ext = local * nshards + shard`. When tenancy is enabled the owning
//! tenant's slot additionally occupies the top
//! [`TENANT_BITS`](crate::TENANT_BITS) bits:
//! `ext = (slot << (64 - TENANT_BITS)) | (local * nshards + shard)`.
//! The mapping (`tenant.rs`'s `WireIds`) is stable across restarts as
//! long as the shard count and tenant-bit layout are unchanged — which
//! is why the pool records both in `server.meta.json` and refuses to
//! reopen a data directory with a different `--shards` or a flipped
//! tenancy mode.
//!
//! ## Tenancy
//!
//! With a tenant table installed ([`PoolConfig::tenants`]), each
//! submission is attributed to a tenant. Admission is two checks:
//! a per-tenant in-flight quota (breach →
//! [`SubmitDispatch::Overloaded`], i.e. `429`), then the inbox bound.
//! Inside the inbox each tenant has its own FIFO lane and the worker
//! assembles every group-commit batch by weighted deficit-round-robin
//! over the non-empty lanes, so a hot tenant saturating its quota
//! cannot starve a quiet one. Group commit is preserved: one batch-end
//! flush regardless of how many tenants contributed to the batch.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use txn_substrate::frame::Name;
use txn_substrate::{DurabilityPolicy, MirrorError, MultiDatabase, ProgramRegistry, TailReport};
use wfms_engine::metrics::database_series;
use wfms_engine::{
    Engine, EngineConfig, EngineError, InstanceId, InstanceStatus, OrgModel, WorkItem, WorkItemId,
    WorklistError,
};
use wfms_model::{Container, ProcessDefinition};
use wfms_observe::{Counter, Observer, Registry, Snapshot, Value};

use crate::server::{Wake, WakeHold};
use crate::store::{self, DataDir};
use crate::tenant::{self, Tenant, TenantSpec, TenantTable, WireIds};

mod published;

pub(crate) use published::Entry;
use published::{Published, UNOWNED};

/// How long a blocking call waits for its shard worker to answer
/// before giving up: the worker panicked, or — a drain — its lanes never
/// ran dry.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
pub(crate) const UNANSWERED: &str = "shard worker did not answer";
/// What a job its worker abandoned by dying is answered.
pub(crate) const STOPPED: &str = "shard worker stopped";

/// The blocking spelling of a sink-form call: hands `call` a sink and
/// waits for what the sink is given. `None` when nothing came — the
/// sink was dropped uncalled (the call was refused, or its worker died
/// holding it) or the worker stayed silent for [`REPLY_TIMEOUT`].
pub(crate) fn answer_of<T: Send + 'static>(call: impl FnOnce(Sink<T>)) -> Option<T> {
    let (tx, rx) = sync_channel(1);
    call(Box::new(move |answer| {
        let _ = tx.send(answer);
    }));
    rx.recv_timeout(REPLY_TIMEOUT).ok()
}

/// What a blocking completion or drain reports when its worker never
/// answered: nothing it asked for can be taken as durable.
fn unanswered() -> EngineError {
    EngineError::Journal(MirrorError {
        kind: std::io::ErrorKind::TimedOut,
        message: UNANSWERED.to_owned(),
    })
}

/// Errors opening a [`ShardPool`].
#[derive(Debug)]
pub enum PoolError {
    /// The data directory or meta file could not be read/written.
    Io(std::io::Error),
    /// The data directory was created with a different shard count.
    ShardMismatch {
        /// Count recorded in `server.meta.json`.
        on_disk: usize,
        /// Count requested now.
        requested: usize,
    },
    /// A definition supplied at open names a process this directory
    /// already knows, but its content hash matches none of the stored
    /// versions — the spec changed out of band.
    SpecMismatch {
        /// Process name both specs carry.
        process: String,
        /// Current default version (hex hash) recorded on disk.
        on_disk: String,
        /// Hash of the definition supplied now.
        requested: String,
    },
    /// The data directory was created with a different tenant-bit
    /// layout (tenancy flipped on or off across a reopen).
    TenancyMismatch {
        /// Tenant bits recorded in `server.meta.json`.
        on_disk: usize,
        /// Tenant bits implied by the current configuration.
        requested: usize,
    },
    /// A deployed definition failed validation or compilation — a
    /// client error, not a server fault.
    Rejected(String),
    /// A shard journal could not be recovered.
    Recovery(wfms_engine::RecoveryError),
    /// The tenants file a reload was pointed at could not be read.
    TenantsFile(PathBuf, std::io::Error),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "data directory: {e}"),
            PoolError::ShardMismatch { on_disk, requested } => write!(
                f,
                "data directory was created with --shards {on_disk}, \
                 reopened with --shards {requested}; external ids would shift"
            ),
            PoolError::SpecMismatch {
                process,
                on_disk,
                requested,
            } => write!(
                f,
                "process {process:?} is pinned to version {on_disk} on disk, but the \
                 supplied definition hashes to {requested}; the spec changed — reopen \
                 with the original definition, or deploy the new one side-by-side \
                 (POST /admin/deploy)"
            ),
            PoolError::TenancyMismatch { on_disk, requested } => write!(
                f,
                "data directory was created with {on_disk} tenant bits in its wire ids, \
                 reopened with a configuration implying {requested}; external ids would \
                 shift — reopen with the same tenancy mode (--tenants present or absent \
                 as at creation)"
            ),
            PoolError::Rejected(e) => write!(f, "deploy rejected: {e}"),
            PoolError::Recovery(e) => write!(f, "shard recovery: {e}"),
            PoolError::TenantsFile(path, e) => write!(f, "tenants file {}: {e}", path.display()),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<std::io::Error> for PoolError {
    fn from(e: std::io::Error) -> Self {
        PoolError::Io(e)
    }
}

/// Result of a submission attempt.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The instance was started, navigated to quiescence and its
    /// journal records flushed — durable.
    Accepted {
        /// External instance id.
        id: u64,
        /// Status at quiescence.
        status: InstanceStatus,
        /// Process output container.
        output: Container,
    },
    /// The shard's queue is at the high-water mark; retry later.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: i64,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The engine rejected the submission.
    Failed {
        /// Engine error rendering.
        error: String,
        /// True when the process template does not exist (a client
        /// error, not a server fault).
        unknown_process: bool,
    },
}

/// Immediate result of [`ShardPool::submit_with`].
#[derive(Debug)]
pub enum SubmitDispatch {
    /// The job is queued (or was answered through the sink already):
    /// the sink fires after the owning shard's group commit.
    Dispatched,
    /// The shard's queue is at the high-water mark; the sink was
    /// dropped uncalled. Answer `429` immediately.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: i64,
        /// Configured queue capacity.
        capacity: usize,
    },
}

/// What a [`ShardPool::submit_with`] sink receives after the owning
/// shard's group commit: external id + status + output, or
/// `(error rendering, unknown_process)`.
pub type SubmitReply = Result<(u64, InstanceStatus, Container), (String, bool)>;

/// Where a sink-form call ([`ShardPool::submit_with`] and the `_with`
/// spellings beside it) delivers its answer: invoked by a shard worker,
/// after the flush that makes the answer true, or by the caller in
/// place, when the call is refused before it is queued. A shard whose
/// worker was stopped or died answers no job: a submission's sink is
/// invoked with `shard worker stopped`, and a control job's is dropped
/// uncalled — whether the worker died holding the job or the job came
/// later — so a blocking spelling reports `shard worker did not answer`
/// at once. A sink is invoked at most once, a submission's exactly
/// once. It must not block on the pool — the worker it would wait for
/// may be the thread it runs on — nor panic: it may be called while
/// that worker unwinds.
pub type Sink<T> = Box<dyn FnOnce(T) + Send + 'static>;

/// A job for a shard's worker other than a submission — a work-item
/// completion, a deploy's share, a tenant reload, a drain's checkpoint:
/// run between batches, on the shard, by its driver, which hands it the
/// engine it owns. It flushes what it journalled and publishes what it
/// changed before it answers anyone.
type Control = Box<dyn FnOnce(&Shard, &Engine) + Send + 'static>;

/// One of a tenant's `max_inflight` slots, held from admission until
/// the submission is answered or dropped unanswered: this `Drop` is the
/// only place a slot is given back. Holds nothing with tenancy off.
struct Reservation(Option<Arc<Tenant>>);

impl Reservation {
    /// Takes a slot of `tenant`'s quota, or refuses with the level
    /// found when the quota is spent.
    fn take(tenant: Option<Arc<Tenant>>) -> Result<Reservation, SubmitDispatch> {
        let taken = Reservation(tenant);
        if let Some(t) = &taken.0 {
            let level = t.inflight.fetch_add(1, Ordering::Relaxed);
            if level >= t.max_inflight {
                t.overloaded.inc();
                return Err(SubmitDispatch::Overloaded {
                    depth: level,
                    capacity: t.max_inflight as usize,
                });
            }
            t.inflight_gauge.set(t.inflight.load(Ordering::Relaxed));
        }
        Ok(taken)
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if let Some(t) = &self.0 {
            t.inflight.fetch_sub(1, Ordering::Relaxed);
            t.inflight_gauge.set(t.inflight.load(Ordering::Relaxed));
        }
    }
}

/// One admitted submission, waiting in its tenant's lane.
struct QueuedSubmit {
    process: String,
    input: Container,
    pending: Pending,
}

/// Who a submission's reply goes to: its tenant's slot (none with
/// tenancy off: it selects the lane and names the tenant journalled on
/// the instance) and its sink, called exactly once — *after* the
/// batch's journal flush, or with `shard worker stopped` when dropped
/// unsent because its worker died.
struct Pending {
    reservation: Reservation,
    sink: Option<Sink<SubmitReply>>,
}

impl Pending {
    /// Gives the slot back, then calls the sink with `reply`: a
    /// resubmission from the sink is never refused by its predecessor.
    fn send(&mut self, reply: SubmitReply) {
        if let Some(sink) = self.sink.take() {
            drop(std::mem::replace(&mut self.reservation, Reservation(None)));
            sink(reply);
        }
    }

    fn tenant(&self) -> Option<&Arc<Tenant>> {
        self.reservation.0.as_ref()
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.send(Err((STOPPED.to_owned(), false)));
    }
}

/// Per-tenant FIFO, keyed by slot (slot 0 = untenanted). `deficit` is
/// the DRR credit in whole submissions.
#[derive(Default)]
struct Lane {
    fifo: VecDeque<QueuedSubmit>,
    deficit: u64,
    weight: u64,
}

/// A shard's one queue: every admitted submission its worker has not
/// yet taken, in per-tenant lanes the worker empties by weighted
/// deficit-round-robin, and the control jobs it runs between batches.
///
/// Fairness: a round gives every backlogged lane a turn, in slot
/// order; a turn credits the lane `weight` submissions and dequeues
/// until the credit is spent. A batch that fills mid-turn leaves the
/// turn to the next batch, so over any backlogged interval tenants
/// progress proportionally to their weights, whatever the batch size —
/// a hot tenant with a deep FIFO cannot starve a quiet one whose
/// occasional submission is always near the front of its own lane. A
/// lane that empties forfeits its remaining deficit (classic DRR:
/// credit does not accrue while idle).
#[derive(Default)]
struct Inbox {
    lanes: BTreeMap<u16, Lane>,
    /// The first slot whose lane may have the next turn: the lane whose
    /// turn a full batch cut short, or the one after the last turn.
    next: u16,
    /// Submissions in the lanes: never above the pool's queue capacity.
    queued: usize,
    /// Control jobs, in arrival order. `true` marks one that is due
    /// only once the lanes have run dry — a drain's checkpoint: every
    /// submission admitted before it is then answered and durable.
    control: Vec<(bool, Control)>,
    /// Closed to admissions and control jobs: the worker hands out what
    /// is queued and exits, or is gone already.
    stop: bool,
    /// The worker sleeps on the shard's condition variable; whoever
    /// gives it something to do clears this and wakes it.
    parked: bool,
}

impl Inbox {
    /// Admits `job` into its tenant's lane iff fewer than `capacity`
    /// are queued; refused, it is dropped with its sink uncalled (a
    /// refusal's one answer is the caller's). `Err` hands the job back:
    /// the inbox is closed, answer it yourself.
    fn admit(
        &mut self,
        capacity: usize,
        mut job: QueuedSubmit,
    ) -> Result<SubmitDispatch, QueuedSubmit> {
        if self.stop {
            return Err(job);
        }
        let tenant = job.pending.tenant();
        if self.queued >= capacity {
            if let Some(t) = tenant {
                t.overloaded.inc();
            }
            job.pending.sink = None;
            return Ok(SubmitDispatch::Overloaded {
                depth: self.queued as i64,
                capacity,
            });
        }
        let (slot, weight) = tenant.map_or((0, 1), |t| (t.slot, t.weight));
        let lane = self.lanes.entry(slot).or_default();
        lane.weight = weight; // reloads may rebalance shares
        lane.fifo.push_back(job);
        self.queued += 1;
        Ok(SubmitDispatch::Dispatched)
    }

    /// Queues a control job. `Err` hands it back: the inbox is closed,
    /// and the job is to be dropped unrun.
    fn enqueue(&mut self, when_dry: bool, job: Control) -> Result<(), Control> {
        if self.stop {
            return Err(job);
        }
        self.control.push((when_dry, job));
        Ok(())
    }

    /// Takes the next group-commit batch — up to `batch_max`
    /// submissions, by DRR over the backlogged lanes — and the control
    /// jobs to run once it is flushed and answered: in arrival order,
    /// all of them when the batch leaves the lanes dry, otherwise all
    /// but those waiting for that.
    fn take_batch(&mut self, batch_max: usize) -> (Vec<QueuedSubmit>, Vec<(bool, Control)>) {
        let mut batch = Vec::with_capacity(batch_max.min(self.queued));
        while batch.len() < batch_max && self.queued > 0 {
            let (&slot, lane) = match self
                .lanes
                .range_mut(self.next..)
                .find(|(_, l)| !l.fifo.is_empty())
            {
                Some(turn) => turn,
                None => {
                    self.next = 0; // a new round
                    continue;
                }
            };
            if lane.deficit == 0 {
                lane.deficit = lane.weight;
            }
            while lane.deficit > 0 && batch.len() < batch_max {
                let Some(job) = lane.fifo.pop_front() else {
                    break;
                };
                lane.deficit -= 1;
                self.queued -= 1;
                batch.push(job);
            }
            if lane.fifo.is_empty() {
                lane.deficit = 0;
            }
            self.next = if lane.deficit == 0 {
                slot.wrapping_add(1)
            } else {
                slot
            };
        }
        let dry = self.queued == 0;
        let (due, waiting) = std::mem::take(&mut self.control)
            .into_iter()
            .partition(|(when_dry, _)| dry || !when_dry);
        self.control = waiting;
        (batch, due)
    }
}

/// One shard as its reactors and its driver share it: what reads need
/// of its engine, its databases, and the inbox its worker takes from.
/// The engine is the driver's alone.
pub(crate) struct Shard {
    /// What the driver last published of the engine (`published.rs`).
    published: Mutex<Published>,
    inbox: Mutex<Inbox>,
    /// Where the worker sleeps on an inbox with nothing to do.
    wake: Arc<Condvar>,
    /// `server.queue.depth.shard<i>`: submissions in the inbox.
    depth: Arc<wfms_observe::Gauge>,
    /// The engine's databases, which a scrape reads live.
    multidb: Arc<MultiDatabase>,
}

impl Shard {
    /// Publishes what reads need after the driver changed `engine`,
    /// before it answers anyone: `started`, the entries of the instances
    /// it started, each under its slot; the instances in `changed` as
    /// they stand now; the open work items of both; and the engine's
    /// tallies. Nothing else is read or copied, so a step costs what it
    /// changed. Everything is read from the engine first; the lock is
    /// held only to store it.
    pub(crate) fn publish(&self, engine: &Engine, started: Started, changed: &[InstanceId]) {
        // An update keeps the slot published at start: it carries none.
        let updated: Vec<_> = (changed.iter())
            .filter_map(|&id| engine.read(id, |i| (id, Entry::of(i, UNOWNED))).ok())
            .collect();
        // A started instance with no item has no list to replace.
        let items: Vec<_> = (started.iter().map(|(id, _)| *id))
            .chain(changed.iter().copied())
            .map(|id| (id, open_items(engine, id)))
            .filter(|(id, open)| !open.is_empty() || changed.contains(id))
            .collect();
        let tallies = engine.tallies();
        let mut published = self.published.lock();
        for (id, entry) in started {
            published.append(id, entry);
        }
        for (id, entry) in updated {
            published.update(id, entry);
        }
        for (id, open) in items {
            published.set_items(id, open);
        }
        published.tallies = tallies;
    }

    /// Runs `f` on the inbox, then wakes the worker if it sleeps — it
    /// sleeps only on an inbox with nothing to do, so any change may be
    /// work. A busy worker costs the caller no system call. Under a
    /// [`WakeHold`] (a reactor's pass) the wake is owed until the hold
    /// drops, so the worker takes the whole pass's work in one batch.
    fn with_inbox<R>(&self, f: impl FnOnce(&mut Inbox) -> R) -> R {
        let mut inbox = self.inbox.lock();
        let out = f(&mut inbox);
        if std::mem::take(&mut inbox.parked) {
            drop(inbox);
            WakeHold::owe(Wake::Worker(Arc::clone(&self.wake)));
        }
        out
    }

    /// Hands `job` to the worker, to run after its next batch — with
    /// `when_dry`, after the batch that leaves the lanes dry. A closed
    /// inbox drops it unrun, its sink uncalled: no thread but the
    /// shard's driver runs a job.
    pub(crate) fn control(&self, when_dry: bool, job: Control) {
        // Refused, the job drops here, outside the inbox's lock: its
        // sink may run code as it drops.
        drop(self.with_inbox(|inbox| inbox.enqueue(when_dry, job)));
    }

    /// Waits until the inbox holds work; `false` once it is stopped
    /// with nothing left.
    fn has_work(&self) -> bool {
        let mut inbox = self.inbox.lock();
        while inbox.queued == 0 && inbox.control.is_empty() {
            if inbox.stop {
                return false;
            }
            inbox.parked = true;
            self.wake.wait(&mut inbox);
        }
        true
    }
}

/// Pool configuration.
pub struct PoolConfig {
    /// Data directory holding `server.meta.json` and the shard
    /// journals. Created if absent.
    pub data_dir: PathBuf,
    /// Number of shards (worker threads + journals).
    pub shards: usize,
    /// Submission queue high-water mark per shard.
    pub queue_capacity: usize,
    /// Maximum submissions navigated per group commit.
    pub batch_max: usize,
    /// Journal durability policy for every shard.
    pub durability: DurabilityPolicy,
    /// Organization model installed into every shard.
    pub org: OrgModel,
    /// Process definitions registered into every shard (also the
    /// template set recovery replays against).
    pub templates: Vec<ProcessDefinition>,
    /// Tenant table. Empty = tenancy disabled: wire ids carry no
    /// tenant bits and submissions are unattributed. Non-empty =
    /// [`TENANT_BITS`](crate::TENANT_BITS) are reserved in every wire
    /// id and the layout is pinned in `server.meta.json`.
    pub tenants: Vec<TenantSpec>,
}

impl PoolConfig {
    /// Conventional defaults: 1 shard, queue 1024, group commits of at
    /// most 64 submissions, the journal written at each one's barrier.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            shards: 1,
            queue_capacity: 1024,
            batch_max: 64,
            durability: DurabilityPolicy::Batched { n: 64 },
            org: OrgModel::new(),
            templates: Vec::new(),
            tenants: Vec::new(),
        }
    }
}

/// The sharded instance manager (see module docs).
pub struct ShardPool {
    /// Each engine its driver handed back on stopping, never read: it
    /// drops with the pool, just before the shards whose published
    /// entries share its outputs. Dropped apart from them, on its
    /// driver's thread, it left that thread's allocator arena
    /// untrimmed, and a pool opened next in the same process grew the
    /// peak RSS by that arena.
    stopped: Mutex<Vec<Engine>>,
    pub(crate) shards: Arc<[Shard]>,
    /// Each shard's worker thread, until `stop` joins it and takes back
    /// its engine.
    workers: Mutex<Vec<std::thread::JoinHandle<Engine>>>,
    /// The wire-id layout pinned in `server.meta.json`.
    ids: WireIds,
    rr: AtomicUsize,
    queue_capacity: usize,
    batch_max: usize,
    pub(crate) dir: Arc<DataDir>,
    registry: Arc<Registry>,
    overloaded: Arc<Counter>,
    accepted: Arc<Counter>,
    failed: Arc<Counter>,
    completions: Arc<Counter>,
    /// What opening each shard found and did, in shard order.
    opened: Vec<ShardOpened>,
    /// Live tenant table, swapped atomically on hot reload. Empty when
    /// tenancy is disabled.
    tenants: Arc<RwLock<Arc<TenantTable>>>,
}

impl ShardPool {
    /// Opens (or creates) the pool's data directory: every shard engine
    /// is opened on its journal — which replays whatever the journal
    /// holds — and its in-flight instances are navigated onward.
    /// `provision` supplies the multidatabase + program registry for
    /// each shard index (each shard gets its own, so shard workers
    /// never contend on substrate locks).
    pub fn open(
        cfg: PoolConfig,
        registry: Arc<Registry>,
        provision: &dyn Fn(usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>),
    ) -> Result<Self, PoolError> {
        let (pool, engines) = Self::undriven(cfg, registry, provision)?;
        for (at, engine) in engines.into_iter().enumerate() {
            let all = Arc::clone(&pool.shards);
            let (ids, batch_max) = (pool.ids, pool.batch_max);
            let (accepted, failed) = (Arc::clone(&pool.accepted), Arc::clone(&pool.failed));
            let worker = std::thread::Builder::new()
                .name(format!("wfms-shard-{at}"))
                .spawn(move || drive(&all[at], engine, at, ids, batch_max, &accepted, &failed))
                .expect("spawn shard worker");
            pool.workers.lock().push(worker);
        }
        Ok(pool)
    }

    /// [`ShardPool::open`] without the drivers: the pool, and each
    /// shard's engine, in shard order, for its caller to drive.
    fn undriven(
        cfg: PoolConfig,
        registry: Arc<Registry>,
        provision: &dyn Fn(usize) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>),
    ) -> Result<(Self, Vec<Engine>), PoolError> {
        let nshards = cfg.shards.max(1);
        let ids = WireIds::new(nshards, !cfg.tenants.is_empty());
        let (dir, templates) = store::open(cfg.data_dir, ids, &cfg.templates)?;
        let table =
            TenantTable::build(&dir.pin_slots(&cfg.tenants)?, &cfg.tenants, None, &registry);
        // The slot each recovered instance was started under; none
        // without tenancy.
        let slot_of = |tenant: Option<&str>| match tenant {
            Some(name) if ids.tenant_bits > 0 => table.slot_of_name(name).unwrap_or(UNOWNED),
            _ => 0,
        };

        let mut shards = Vec::with_capacity(nshards);
        let mut engines = Vec::with_capacity(nshards);
        let mut opened = Vec::with_capacity(nshards);
        let resume_failures = registry.counter("server.resume.failures");
        for i in 0..nshards {
            let (multidb, programs) = provision(i);
            let started = Instant::now();
            let engine = Engine::open(
                multidb,
                programs,
                EngineConfig {
                    org: cfg.org.clone(),
                    journal_path: Some(dir.journal(i)),
                    durability: cfg.durability,
                    // Hot hooks off. What an engine counts regardless —
                    // journal faults, recovery and migration fix-ups —
                    // lands in the pool's registry, where shards sum by
                    // adding into the counter of the same name.
                    observer: Some(Arc::new(Observer::over(Arc::clone(&registry), false))),
                    ..EngineConfig::default()
                },
                templates.clone(),
            )
            .map_err(PoolError::Recovery)?;
            let resumed = resume_running(&engine, &resume_failures);
            let instances = engine.instance_counts();
            opened.push(ShardOpened {
                shard: i,
                took: started.elapsed(),
                journal: engine.reopened().clone(),
                instances,
                resumed,
                fixups: engine.repaired(),
            });
            let shard = Shard {
                published: Mutex::default(),
                inbox: Mutex::default(),
                wake: Arc::default(),
                depth: registry.gauge(&format!("server.queue.depth.shard{i}")),
                multidb: Arc::clone(engine.multidb()),
            };
            // No read reaches the shard before the pool is returned: its
            // instances go straight into the table, with no copy first.
            let mut published = shard.published.lock();
            for id in (1..=instances.0 + instances.1 + instances.2).map(InstanceId) {
                let entry = engine.read(id, |i| Entry::of(i, slot_of(i.tenant.as_deref())));
                published.append(id, entry.expect("instance ids are dense"));
                published.set_items(id, open_items(&engine, id));
            }
            published.tallies = engine.tallies();
            drop(published);
            shards.push(shard);
            engines.push(engine);
        }

        let pool = Self {
            stopped: Mutex::default(),
            shards: shards.into(),
            workers: Mutex::default(),
            ids,
            rr: AtomicUsize::new(0),
            queue_capacity: cfg.queue_capacity.max(1),
            batch_max: cfg.batch_max.max(1),
            dir: Arc::new(dir),
            registry: Arc::clone(&registry),
            overloaded: registry.counter("server.submit.overloaded"),
            accepted: registry.counter("server.submit.accepted"),
            failed: registry.counter("server.submit.failed"),
            completions: registry.counter("server.worklist.completions"),
            opened,
            tenants: Arc::new(RwLock::new(Arc::new(table))),
        };
        Ok((pool, engines))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Instances resumed from shard journals when the pool opened.
    pub fn recovered_instances(&self) -> u64 {
        self.opened.iter().map(|o| o.resumed).sum()
    }

    /// What opening each shard found and did, in shard order.
    pub fn opened(&self) -> &[ShardOpened] {
        &self.opened
    }

    /// The metrics registry the pool publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// True when this pool was opened with a tenant table (wire ids
    /// carry tenant bits, submissions require attribution).
    pub fn tenancy_enabled(&self) -> bool {
        self.ids.tenant_bits > 0
    }

    /// Resolves an API key to its tenant — constant-time over the
    /// whole table (see [`TenantTable::authenticate`]).
    pub fn authenticate(&self, key: &[u8]) -> Option<Arc<Tenant>> {
        self.tenants.read().authenticate(key)
    }

    /// Replaces the live tenant set from the tenants file at `path`,
    /// read and parsed by shard 0's worker, which also rewrites the
    /// meta file when the slot list grows; `sink` receives the number
    /// of live tenants. Slot assignments are append-only: names this
    /// directory has seen keep their slot (pinned in
    /// `server.meta.json`), new names are appended, and names absent
    /// from the file keep their slot reserved but can no longer
    /// authenticate. In-flight counters are carried over by name so
    /// quota accounting survives the swap. A file that cannot be read
    /// or fails validation leaves the live table as it was.
    pub fn reload_tenants(&self, path: PathBuf, sink: Sink<Result<usize, PoolError>>) {
        if !self.tenancy_enabled() {
            return sink(Err(PoolError::Rejected(
                "tenancy is not enabled on this server (start with --tenants)".to_owned(),
            )));
        }
        let (dir, tenants) = (Arc::clone(&self.dir), Arc::clone(&self.tenants));
        let registry = Arc::clone(&self.registry);
        let reload =
            move |_: &Shard, _: &Engine| sink(tenant::reload(&path, &dir, &tenants, &registry));
        self.shards[0].control(false, Box::new(reload));
    }

    /// Submits one instance start *without blocking*: `sink` is
    /// invoked — from the shard worker thread — exactly once, after
    /// the batch's journal flush, so a `201` rendered from it
    /// still implies durability. This is the event-loop entry point;
    /// [`ShardPool::submit`] is the blocking convenience built on it.
    ///
    /// Admission is two checks and one queue: the tenant's in-flight
    /// quota, then the owning shard's inbox bound. Either refusal
    /// returns [`SubmitDispatch::Overloaded`] and drops `sink`
    /// uncalled; otherwise [`SubmitDispatch::Dispatched`] — the sink
    /// has been or will be called, possibly with an error.
    pub fn submit_with(
        &self,
        process: &str,
        input: Container,
        tenant: Option<Arc<Tenant>>,
        sink: Sink<SubmitReply>,
    ) -> SubmitDispatch {
        let reservation = match Reservation::take(tenant) {
            Ok(reservation) => reservation,
            Err(refused) => {
                self.overloaded.inc();
                return refused;
            }
        };
        let job = QueuedSubmit {
            process: process.to_owned(),
            input,
            pending: Pending {
                reservation,
                sink: Some(sink),
            },
        };
        let idx = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        match self.shards[idx].with_inbox(|inbox| inbox.admit(self.queue_capacity, job)) {
            Ok(SubmitDispatch::Dispatched) => SubmitDispatch::Dispatched,
            Ok(refused) => {
                self.overloaded.inc();
                refused
            }
            Err(job) => {
                // The worker is stopped or gone; dropped, the job
                // answers through its sink, `shard worker stopped`.
                self.failed.inc();
                drop(job);
                SubmitDispatch::Dispatched
            }
        }
    }

    /// Submits one instance start, blocking until the owning shard's
    /// group commit has made it durable (or until it is rejected).
    pub fn submit(&self, process: &str, input: Container) -> SubmitOutcome {
        self.submit_as(process, input, None)
    }

    /// [`ShardPool::submit`] attributed to a tenant: quota-checked,
    /// DRR-scheduled, and the returned external id carries the
    /// tenant's slot.
    pub fn submit_as(
        &self,
        process: &str,
        input: Container,
        tenant: Option<Arc<Tenant>>,
    ) -> SubmitOutcome {
        let mut dispatch = SubmitDispatch::Dispatched;
        let reply = answer_of(|sink| dispatch = self.submit_with(process, input, tenant, sink));
        if let SubmitDispatch::Overloaded { depth, capacity } = dispatch {
            return SubmitOutcome::Overloaded { depth, capacity };
        }
        match reply {
            Some(Ok((id, status, output))) => SubmitOutcome::Accepted { id, status, output },
            Some(Err((error, unknown_process))) => SubmitOutcome::Failed {
                error,
                unknown_process,
            },
            None => {
                self.failed.inc();
                SubmitOutcome::Failed {
                    error: UNANSWERED.to_owned(),
                    unknown_process: false,
                }
            }
        }
    }

    /// `(process name, status, pinned version, output)` of the
    /// instance behind an external id, as its shard last published it.
    /// An ext id whose tenant slot is not the one the instance was
    /// started under resolves to nothing — a forged slot cannot reach
    /// another tenant's instance.
    pub fn status(&self, ext: u64) -> Option<(String, InstanceStatus, String, Container)> {
        let (shard, local, slot) = self.ids.decode(ext)?;
        let entry = self.shards[shard].published.lock().instance(local)?.clone();
        (entry.slot == slot).then(|| {
            let process = entry.tpl.name().to_owned();
            let version = entry.tpl.version().to_string();
            (process, entry.status, version, entry.output)
        })
    }

    /// The tenant slot folded into an external id (0 = untenanted, or
    /// tenancy disabled). `None` when the id is malformed.
    pub fn slot_of(&self, ext: u64) -> Option<u16> {
        self.ids.decode(ext).map(|(_, _, slot)| slot)
    }

    /// Open work items of `person` across every shard, as the shards
    /// last published them, with external ids, sorted by external item
    /// id. Each item's ids carry the slot its instance was started
    /// under; `scope` restricts the listing to one slot (a tenant sees
    /// only its own items).
    /// A person the process never named holds no item: the name is
    /// looked up, not interned.
    pub fn worklist(&self, person: &str, scope: Option<u16>) -> Vec<(u64, u64, WorkItem)> {
        let Some(person) = Name::find(person) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let items = shard.published.lock().worklist(person);
            for (item, slot) in items {
                if slot == UNOWNED || scope.is_some_and(|s| s != slot) {
                    continue;
                }
                out.push((
                    self.ids.encode(item.id.0, idx, slot),
                    self.ids.encode(item.instance.0, idx, slot),
                    WorkItem::clone(&item),
                ));
            }
        }
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Completes (claim + execute) a work item by external id as
    /// `person`, on the owning shard's worker, which flushes the
    /// shard's journal and publishes the item's instance before `sink`
    /// hears of it: answered means durable, and readable. The slot in
    /// the wire id must be the one the item's instance was started
    /// under — a forged slot resolves to "no such item".
    pub fn complete_with(
        &self,
        ext_item: u64,
        person: String,
        sink: Sink<Result<(), EngineError>>,
    ) {
        let no_such_item =
            move || EngineError::Worklist(WorklistError::NoSuchItem(WorkItemId(ext_item)));
        let Some((shard, local, slot)) = self.ids.decode(ext_item) else {
            return sink(Err(no_such_item()));
        };
        let completions = Arc::clone(&self.completions);
        let complete = move |shard: &Shard, engine: &Engine| {
            let item = WorkItemId(local);
            // The driver may read its engine: a closed item has an owner
            // too, so the caller's own closed item answers "closed".
            let owner = engine.work_item(item).ok_or_else(no_such_item)?.instance;
            if shard.published.lock().instance(owner.0).map(|e| e.slot) != Some(slot) {
                return Err(no_such_item());
            }
            let done = (engine.execute_item(item, &person)).and_then(|()| engine.flush_journal());
            shard.publish(engine, Vec::new(), &[owner]);
            done?;
            completions.inc();
            Ok(())
        };
        self.shards[shard].control(false, Box::new(move |s, engine| sink(complete(s, engine))));
    }

    /// [`ShardPool::complete_with`], blocking until the completion is
    /// durable.
    pub fn complete(&self, ext_item: u64, person: &str) -> Result<(), EngineError> {
        answer_of(|sink| self.complete_with(ext_item, person.to_owned(), sink))
            .unwrap_or_else(|| Err(unanswered()))
    }

    /// Drains every shard at once: each worker, once its lanes have run
    /// dry — every submission admitted before the drain is then
    /// answered and durable — drains its own engine (flush, checkpoint,
    /// flush). The last to finish hands `sink` the total journal events
    /// dropped by compaction, or the first error.
    pub fn drain_with(&self, sink: Sink<Result<usize, EngineError>>) {
        // Shards still to answer, their total so far, the sink.
        let gather = Arc::new(Mutex::new((self.shards.len(), Ok(0), Some(sink))));
        for shard in self.shards.iter() {
            let gather = Arc::clone(&gather);
            let drain = move |shard: &Shard, engine: &Engine| {
                let dropped = engine.drain();
                shard.publish(engine, Vec::new(), &[]);
                let mut gather = gather.lock();
                let (left, total, sink) = &mut *gather;
                *total = match (std::mem::replace(total, Ok(0)), dropped) {
                    (Ok(sum), Ok(n)) => Ok(sum + n),
                    (Err(e), _) | (Ok(_), Err(e)) => Err(e),
                };
                *left -= 1;
                if *left == 0 {
                    // The last shard: nobody takes this lock again.
                    let sink = sink.take().expect("only the last shard answers");
                    sink(std::mem::replace(total, Ok(0)));
                }
            };
            shard.control(true, Box::new(drain));
        }
    }

    /// [`ShardPool::drain_with`], blocking until every shard is
    /// checkpointed. A shard whose lanes do not run dry within
    /// `REPLY_TIMEOUT` (30 s) fails the drain; nothing is checkpointed
    /// beside a busy worker.
    pub fn drain(&self) -> Result<usize, EngineError> {
        answer_of(|sink| self.drain_with(sink)).unwrap_or_else(|| Err(unanswered()))
    }

    /// Stops every shard worker and joins it, keeping the engine it
    /// hands back until the pool drops. Queued jobs submitted before
    /// the stop are still processed and flushed. Idempotent.
    pub fn stop(&self) {
        for shard in self.shards.iter() {
            shard.with_inbox(|inbox| inbox.stop = true);
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        let engines = workers.into_iter().filter_map(|w| w.join().ok());
        self.stopped.lock().extend(engines);
    }

    /// Instance counts `(running, finished, cancelled)` across shards,
    /// as they last published them.
    pub fn instance_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for shard in self.shards.iter() {
            let (running, finished, cancelled) = shard.published.lock().instance_counts();
            counts.0 += running;
            counts.1 += finished;
            counts.2 += cancelled;
        }
        counts
    }

    /// What a scrape prints: one snapshot of the registry every shard
    /// counts on, then each shard's engine tallies
    /// ([`Engine::tallies`]) as its driver last published them — at
    /// most one step old — and its databases' series
    /// ([`database_series`]), read live; all summed by name over shards
    /// and databases, the engines' `engine.instances_*` under the
    /// server's name for them, `server.instances.*`. No engine is
    /// reached: the shards' drivers own them.
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = self.registry.snapshot();
        for shard in self.shards.iter() {
            let tallies = shard.published.lock().tallies;
            for (name, level) in tallies {
                let name = name.replace("engine.instances_", "server.instances.");
                snapshot.add(&name, None, Value::Gauge(level as i64));
            }
            database_series(&shard.multidb, |name, _, reading| {
                snapshot.add(name, None, reading)
            });
        }
        snapshot
    }

    /// Total queued submissions across shards right now.
    pub fn queue_depth(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| s.inbox.lock().queued as i64)
            .sum()
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What opening one shard found and did, from what its engine and
/// journal count. Displayed, it is the one line `fmtm serve` prints per
/// shard at startup.
#[derive(Debug, Clone)]
pub struct ShardOpened {
    /// The shard's index.
    pub shard: usize,
    /// Opening it: replaying its journal, recovery's repairs, and
    /// navigating onward what was running.
    pub took: Duration,
    /// The events replayed and the torn tail truncated, if any.
    pub journal: TailReport,
    /// Its instances once open: `(running, finished, cancelled)`.
    pub instances: (u64, u64, u64),
    /// Instances that were running and were navigated onward.
    pub resumed: u64,
    /// Recovery's repairs by kind (`recovery.fixups.<kind>`).
    pub fixups: [(&'static str, u64); 4],
}

impl std::fmt::Display for ShardOpened {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (running, finished, cancelled) = self.instances;
        write!(
            f,
            "shard {}: opened in {:.1} ms, {} events replayed, {} resumed; instances {running} \
             running, {finished} finished, {cancelled} cancelled; torn tail ",
            self.shard,
            self.took.as_secs_f64() * 1e3,
            self.journal.records,
            self.resumed,
        )?;
        match &self.journal.torn_tail {
            Some(tail) => write!(f, "at byte {}, dropped {}", tail.offset, tail.discarded)?,
            None => f.write_str("none")?,
        }
        f.write_str("; recovery.fixups")?;
        self.fixups
            .iter()
            .try_for_each(|(kind, n)| write!(f, " {kind}={n}"))
    }
}

/// Instance `id`'s open work items as a shard publishes them.
fn open_items(engine: &Engine, id: InstanceId) -> Vec<Arc<WorkItem>> {
    engine.open_items(id).into_iter().map(Arc::new).collect()
}

/// Resumes every instance a recovered shard reports as running —
/// recovery re-readies what was in flight; this navigates it onward.
/// Returns how many instances were resumed; the shard opens whatever
/// [`navigate_onward`] met.
fn resume_running(engine: &Engine, failures: &Counter) -> u64 {
    let mut resumed = 0;
    for (id, _, status) in engine.instances() {
        if status == InstanceStatus::Running {
            resumed += 1;
            navigate_onward(engine, id, failures);
        }
    }
    resumed
}

/// Navigates instance `id` onward — at reopen, and after a migration.
/// One that cannot be navigated stays parked where it is (its status
/// says why) and is counted in `failures`.
pub(crate) fn navigate_onward(engine: &Engine, id: InstanceId, failures: &Counter) {
    if engine.run_to_quiescence(id).is_err() {
        failures.inc();
    }
}

/// A submission's slot and sink, paired with the reply the sink is to
/// be given.
type Answer = (Pending, SubmitReply);

/// The instances a step started, each with its entry: what the driver
/// publishes of them before it answers.
type Started = Vec<(InstanceId, Entry)>;

/// One step of shard `at`: navigates each submission of `batch` to
/// quiescence, makes the batch's one group commit, and pairs each
/// submission with its reply — the flush's failure, for every one of
/// them, if the flush failed: an acknowledgement certifies durability.
/// Also returns the entry of each instance it started: what the driver
/// publishes before it answers.
fn turn(
    engine: &Engine,
    at: usize,
    ids: WireIds,
    batch: Vec<QueuedSubmit>,
) -> (Vec<Answer>, Started) {
    let mut answers = Vec::with_capacity(batch.len());
    let mut started = Vec::with_capacity(batch.len());
    for job in batch {
        let tenant = job.pending.tenant().map(Arc::as_ref);
        let slot = tenant.map_or(0, |t| t.slot);
        let reply: SubmitReply = engine
            .start_for_tenant(&job.process, job.input, tenant.map(|t| t.name))
            .and_then(|id| {
                let navigated = engine.run_to_quiescence(id);
                let entry = engine.read(id, |inst| Entry::of(inst, slot))?;
                let reply = (
                    ids.encode(id.0, at, slot),
                    entry.status,
                    entry.output.clone(),
                );
                started.push((id, entry));
                navigated.map(|_| reply)
            })
            .map_err(|e| {
                let unknown = matches!(e, EngineError::UnknownProcess(_));
                (e.to_string(), unknown)
            });
        answers.push((job.pending, reply));
    }
    if let Err(e) = engine.flush_journal() {
        for (_, reply) in &mut answers {
            *reply = Err((format!("journal flush failed: {e}"), false));
        }
    }
    (answers, started)
}

/// Counts a turn's replies in `server.submit.{accepted, failed}` and
/// the tenants' own counters, and answers them, each slot free before
/// its caller hears of it.
fn answer(answers: Vec<Answer>, accepted: &Counter, failed: &Counter) {
    for (mut pending, reply) in answers {
        match &reply {
            Ok(_) => {
                accepted.inc();
                if let Some(t) = pending.tenant() {
                    t.accepted.inc();
                }
            }
            Err(_) => failed.inc(),
        }
        pending.send(reply);
    }
}

/// Closes an inbox when its worker leaves, by `stop` or by unwinding:
/// what is still queued is dropped — each submission answered `shard
/// worker stopped` with its reservation given back, each control job
/// unrun and its sink uncalled — and so is everything that comes
/// later.
struct CloseOnExit<'a>(&'a Mutex<Inbox>);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        let abandoned = {
            let mut inbox = self.0.lock();
            inbox.stop = true;
            inbox.queued = 0;
            (
                std::mem::take(&mut inbox.lanes),
                std::mem::take(&mut inbox.control),
            )
        };
        drop(abandoned); // outside the lock: sinks and guards run code
    }
}

/// One step of shard `at`, what its driver runs each time there is
/// work: takes a batch of up to `batch_max` submissions, publishes the
/// queue depth, makes the batch's [`turn`], publishes what reads need
/// of it and answers it under one [`WakeHold`]; then runs the control
/// jobs that came due, each waking its reactor as it answers.
fn step(
    shard: &Shard,
    engine: &Engine,
    at: usize,
    ids: WireIds,
    batch_max: usize,
    accepted: &Counter,
    failed: &Counter,
) {
    let (batch, control) = {
        let mut inbox = shard.inbox.lock();
        let taken = inbox.take_batch(batch_max);
        shard.depth.set(inbox.queued as i64);
        taken
    };
    let (answers, started) = turn(engine, at, ids, batch);
    shard.publish(engine, started, &[]);
    // One hand-off per batch: every reply is posted before any reactor
    // is woken, and each reactor posted to is woken once.
    let hold = WakeHold::open();
    answer(answers, accepted, failed);
    drop(hold);
    for (_, job) in control {
        job(shard, engine);
    }
}

/// Shard `at`'s worker thread, the one driver and owner of its engine:
/// waits until there is work, then makes a [`step`]. Stopped, it hands
/// the engine back.
fn drive(
    shard: &Shard,
    engine: Engine,
    at: usize,
    ids: WireIds,
    batch_max: usize,
    accepted: &Counter,
    failed: &Counter,
) -> Engine {
    let _close = CloseOnExit(&shard.inbox);
    while shard.has_work() {
        step(shard, &engine, at, ids, batch_max, accepted, failed);
    }
    // Final barrier so nothing accepted is left unflushed.
    let _ = engine.flush_journal();
    engine
}

#[cfg(test)]
mod sim;

#[cfg(test)]
pub(crate) mod tests {
    use super::{
        answer, resume_running, step, turn, Control, Entry, Inbox, Pending, QueuedSubmit,
        Reservation, Shard, SubmitDispatch,
    };
    use crate::server::{Completion, Deferred, ReactorShared, WakeHold};
    use crate::tenant::{parse_tenants, Tenant, TenantTable, WireIds};
    use parking_lot::Mutex;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::TryRecvError;
    use std::sync::Arc;
    use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramOutcome, ProgramRegistry};
    use wfms_engine::{recover_from, Engine, EngineConfig, InstanceStatus, Journal, OrgModel};
    use wfms_model::{Activity, Container, ProcessBuilder, ProcessDefinition};
    use wfms_observe::Registry;

    // ---- the inbox alone: no worker, no thread, no socket

    /// `acme` (slot 1) and `beta` (slot 2) with the given weights.
    fn table(acme: u64, beta: u64, previous: Option<&TenantTable>) -> TenantTable {
        let specs = parse_tenants(&format!(
            r#"{{"tenants":[{{"name":"acme","key":"a","weight":{acme}}},
                            {{"name":"beta","key":"b","weight":{beta}}}]}}"#
        ))
        .unwrap();
        let names = ["acme".to_owned(), "beta".to_owned()];
        TenantTable::build(&names, &specs, previous, &Registry::new())
    }

    fn job(tenant: Option<&Arc<Tenant>>, tag: &str) -> QueuedSubmit {
        QueuedSubmit {
            process: tag.to_owned(),
            input: Container::empty(),
            pending: Pending {
                reservation: Reservation::take(tenant.cloned()).unwrap(),
                sink: Some(Box::new(|_| {})),
            },
        }
    }

    /// Admits `n` jobs tagged `<prefix>0..` for `tenant`.
    fn backlog(inbox: &mut Inbox, tenant: &Arc<Tenant>, prefix: &str, n: usize) {
        for i in 0..n {
            let admitted = inbox.admit(usize::MAX, job(Some(tenant), &format!("{prefix}{i}")));
            assert!(matches!(admitted, Ok(SubmitDispatch::Dispatched)));
        }
    }

    fn tags(batch: &[QueuedSubmit]) -> Vec<&str> {
        batch.iter().map(|j| j.process.as_str()).collect()
    }

    #[test]
    fn the_bound_is_exact_and_a_refusal_gives_the_reservation_back() {
        let table = table(1, 1, None);
        let acme = table.by_name("acme").unwrap();
        let mut inbox = Inbox::default();
        for i in 0..3 {
            let admitted = inbox.admit(3, job(Some(acme), &format!("a{i}")));
            assert!(matches!(admitted, Ok(SubmitDispatch::Dispatched)));
        }
        match inbox.admit(3, job(Some(acme), "a3")) {
            Ok(SubmitDispatch::Overloaded { depth, capacity }) => {
                assert_eq!((depth, capacity), (3, 3))
            }
            _ => panic!("the fourth admit must be refused"),
        }
        assert_eq!(inbox.queued, 3);
        assert_eq!(acme.inflight.load(Ordering::Relaxed), 3);
        assert_eq!(acme.overloaded.get(), 1);

        // Room again once the worker has taken one.
        let (batch, _) = inbox.take_batch(1);
        assert_eq!(tags(&batch), ["a0"]);
        assert!(inbox.admit(3, job(Some(acme), "a4")).is_ok());
        drop((batch, inbox));
        assert_eq!(acme.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backlogged_lanes_share_a_batch_by_weight_and_stay_fifo() {
        let table = table(4, 1, None);
        let (acme, beta) = (
            table.by_name("acme").unwrap(),
            table.by_name("beta").unwrap(),
        );
        let mut inbox = Inbox::default();
        backlog(&mut inbox, beta, "b", 8);
        backlog(&mut inbox, acme, "a", 12);
        let (batch, _) = inbox.take_batch(5);
        assert_eq!(tags(&batch), ["a0", "a1", "a2", "a3", "b0"]);
        let (batch, _) = inbox.take_batch(10);
        assert_eq!(
            tags(&batch),
            ["a4", "a5", "a6", "a7", "b1", "a8", "a9", "a10", "a11", "b2"]
        );
        assert_eq!(inbox.queued, 5);
    }

    #[test]
    fn a_lane_that_empties_forfeits_its_deficit() {
        let table = table(4, 1, None);
        let (acme, beta) = (
            table.by_name("acme").unwrap(),
            table.by_name("beta").unwrap(),
        );
        let mut inbox = Inbox::default();
        backlog(&mut inbox, acme, "a", 1);
        backlog(&mut inbox, beta, "b", 4);
        // acme is credited 4, has 1 to give: the other 3 are not saved up.
        let (batch, _) = inbox.take_batch(2);
        assert_eq!(tags(&batch), ["a0", "b0"]);
        assert_eq!(inbox.lanes[&acme.slot].deficit, 0);
        backlog(&mut inbox, acme, "A", 8);
        let (batch, _) = inbox.take_batch(6);
        assert_eq!(tags(&batch), ["A0", "A1", "A2", "A3", "b1", "A4"]);
    }

    #[test]
    fn a_reloaded_weight_applies_from_the_next_round() {
        let before = table(4, 1, None);
        let mut inbox = Inbox::default();
        backlog(&mut inbox, before.by_name("acme").unwrap(), "a", 9);
        backlog(&mut inbox, before.by_name("beta").unwrap(), "b", 9);
        let (batch, _) = inbox.take_batch(5);
        assert_eq!(tags(&batch), ["a0", "a1", "a2", "a3", "b0"]);

        // The shares swap; the next admission of each tenant carries them in.
        let after = table(1, 4, Some(&before));
        backlog(&mut inbox, after.by_name("acme").unwrap(), "a", 1);
        backlog(&mut inbox, after.by_name("beta").unwrap(), "b", 1);
        let (batch, _) = inbox.take_batch(5);
        assert_eq!(tags(&batch), ["a4", "b1", "b2", "b3", "b4"]);
    }

    #[test]
    fn a_barrier_leaves_with_the_batch_that_empties_the_lanes() {
        let mut inbox = Inbox::default();
        for tag in ["x0", "x1", "x2"] {
            assert!(inbox.admit(8, job(None, tag)).is_ok());
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let barrier = Box::new(move |_: &Shard, _: &Engine| tx.send(()).unwrap());
        assert!(inbox.enqueue(true, barrier).is_ok());
        let (batch, released) = inbox.take_batch(2);
        assert_eq!((tags(&batch), released.len()), (vec!["x0", "x1"], 0));
        let (batch, released) = inbox.take_batch(2);
        assert_eq!((tags(&batch), released.len()), (vec!["x2"], 1));
        assert!(inbox.control.is_empty());
        assert!(
            rx.try_recv().is_err(),
            "released by the worker, after its flush"
        );

        // On dry lanes a barrier leaves with the next (empty) batch.
        inbox.control.extend(released);
        let (batch, released) = inbox.take_batch(2);
        assert_eq!((batch.len(), released.len()), (0, 1));
    }

    /// A control job that logs `tag` when it is run.
    fn logging(log: &Arc<Mutex<Vec<&'static str>>>, tag: &'static str) -> Control {
        let log = Arc::clone(log);
        Box::new(move |_, _| log.lock().push(tag))
    }

    /// A shard with no worker, and the engine its driver would own.
    fn undriven_shard(engine: Engine) -> (Shard, Engine) {
        let shard = Shard {
            published: Mutex::default(),
            inbox: Mutex::default(),
            wake: Arc::default(),
            depth: Arc::default(),
            multidb: Arc::clone(engine.multidb()),
        };
        (shard, engine)
    }

    /// Runs the control jobs a batch came with, as the worker would,
    /// and returns what they logged.
    fn run(due: Vec<(bool, Control)>, log: &Arc<Mutex<Vec<&'static str>>>) -> Vec<&'static str> {
        let fed = MultiDatabase::new(0);
        let (shard, engine) = undriven_shard(Engine::new(fed, Arc::new(ProgramRegistry::new())));
        for (_, job) in due {
            job(&shard, &engine);
        }
        std::mem::take(&mut *log.lock())
    }

    #[test]
    fn control_jobs_are_due_in_arrival_order_and_only_a_when_dry_one_waits() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let control = |tag| logging(&log, tag);
        let mut inbox = Inbox::default();
        for tag in ["x0", "x1", "x2"] {
            assert!(inbox.admit(8, job(None, tag)).is_ok());
        }
        assert!(inbox.enqueue(false, control("complete")).is_ok());
        assert!(inbox.enqueue(true, control("drain")).is_ok());
        assert!(inbox.enqueue(false, control("deploy")).is_ok());
        assert!(inbox.enqueue(false, control("reload")).is_ok());

        // Under backlog: every plain job with the next batch, in the
        // order they came; the drain stays.
        let (batch, due) = inbox.take_batch(2);
        assert_eq!(tags(&batch), ["x0", "x1"]);
        assert_eq!(run(due, &log), ["complete", "deploy", "reload"]);

        // With the batch that empties the lanes: the drain, still ahead
        // of what came after it.
        assert!(inbox.enqueue(false, control("late")).is_ok());
        let (batch, due) = inbox.take_batch(2);
        assert_eq!(tags(&batch), ["x2"]);
        assert_eq!(run(due, &log), ["drain", "late"]);
        assert!(inbox.control.is_empty());
    }

    /// A job that comes to a closed inbox is dropped there, unrun, and
    /// its sink with it: the caller runs nothing.
    #[test]
    fn after_stop_a_late_control_job_is_dropped() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let fed = MultiDatabase::new(0);
        let (shard, _engine) = undriven_shard(Engine::new(fed, Arc::new(ProgramRegistry::new())));
        shard.control(true, logging(&log, "queued"));
        shard.with_inbox(|inbox| inbox.stop = true);
        let (tx, rx) = std::sync::mpsc::sync_channel::<()>(1);
        let late = logging(&log, "late");
        shard.control(
            false,
            Box::new(move |shard, engine| {
                late(shard, engine);
                tx.send(()).unwrap()
            }),
        );
        assert_eq!(
            rx.try_recv(),
            Err(TryRecvError::Disconnected),
            "its sink dropped"
        );
        assert!(log.lock().is_empty(), "nothing ran");
        let queued = std::mem::take(&mut shard.inbox.lock().control);
        assert_eq!(queued.len(), 1, "what was queued stays for the worker");
        assert_eq!(run(queued, &log), ["queued"]);
    }

    #[test]
    fn after_stop_what_is_queued_is_still_handed_out() {
        let mut inbox = Inbox::default();
        assert!(inbox.admit(8, job(None, "x0")).is_ok());
        assert!(inbox.admit(8, job(None, "x1")).is_ok());
        inbox.stop = true;
        let Err(handed_back) = inbox.admit(8, job(None, "late")) else {
            panic!("a stopped inbox admits nothing");
        };
        assert_eq!(handed_back.process, "late");
        let (batch, _) = inbox.take_batch(8);
        assert_eq!(tags(&batch), ["x0", "x1"]);
        assert_eq!(inbox.queued, 0);
    }

    // ---- what a step publishes

    /// A step re-reads only the instances it started or changed: with
    /// many items open, a completion replaces its own instance's items
    /// and publishes nothing new of the others — every other item is the
    /// very allocation published when it was offered.
    #[test]
    fn a_step_publishes_only_what_it_changed() {
        let programs = Arc::new(ProgramRegistry::new());
        programs.register_fn("ok", |_| ProgramOutcome::committed());
        let cfg = EngineConfig {
            org: OrgModel::new().person("ann", &["clerk"]),
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(MultiDatabase::new(0), programs, cfg);
        let manual = ProcessBuilder::new("manual")
            .activity(Activity::program("M", "ok").for_role("clerk"))
            .build()
            .unwrap();
        engine.register(manual).unwrap();
        let (shard, engine) = undriven_shard(engine);
        for _ in 0..64 {
            let id = engine.start("manual", Container::empty()).unwrap();
            engine.run_to_quiescence(id).unwrap();
            let entry = engine.read(id, |i| Entry::of(i, 0)).unwrap();
            shard.publish(&engine, vec![(id, entry)], &[]);
        }
        let before = shard.published.lock().worklist("ann".into());
        assert_eq!(before.len(), 64);

        let done = &before[7].0;
        engine.execute_item(done.id, "ann").unwrap();
        shard.publish(&engine, Vec::new(), &[done.instance]);
        let after = shard.published.lock().worklist("ann".into());
        assert_eq!(after.len(), 63);
        let unchanged = before.iter().filter(|(it, _)| it.id != done.id);
        for ((was, _), (is, _)) in unchanged.zip(&after) {
            assert!(Arc::ptr_eq(was, is), "{:?} was copied", is.id);
        }
        let entry = shard.published.lock().instance(done.instance.0).cloned();
        assert_eq!(entry.map(|e| e.status), Some(InstanceStatus::Finished));
    }

    // ---- how a step wakes the reactors it answers: real reactor
    // queues and `eventfd`s, no reactor thread

    /// A submission of `one` whose sink posts its reply to `reactor`,
    /// for slot `slot`, then empties the reactor's queue at once — as a
    /// reactor that preempts the worker between two posts does — and
    /// logs the slots it took in `heard`.
    fn answered_on(
        reactor: &Arc<ReactorShared>,
        slot: u64,
        heard: &Arc<Mutex<Vec<u64>>>,
    ) -> QueuedSubmit {
        let (reactor, heard) = (Arc::clone(reactor), Arc::clone(heard));
        QueuedSubmit {
            process: "one".to_owned(),
            input: Container::empty(),
            pending: Pending {
                reservation: Reservation(None),
                sink: Some(Box::new(move |reply| {
                    reactor.post(Completion {
                        conn: 0,
                        slot,
                        close: false,
                        stop: false,
                        answer: Deferred::Submit(reply),
                    });
                    let mut taken = Vec::new();
                    reactor.take(&mut taken);
                    heard.lock().extend(taken.iter().map(|done| done.slot));
                })),
            },
        }
    }

    /// Admits `batch` and `control` to a shard with no driver, and makes
    /// one step of it.
    fn step_once(batch: Vec<QueuedSubmit>, control: Option<Control>) {
        let programs = Arc::new(ProgramRegistry::new());
        programs.register_fn("ok", |_| ProgramOutcome::committed());
        let engine = Engine::new(MultiDatabase::new(0), programs);
        engine.register(one()).unwrap();
        let (shard, engine) = undriven_shard(engine);
        for job in batch {
            let admitted = shard.with_inbox(|inbox| inbox.admit(usize::MAX, job));
            assert!(matches!(admitted, Ok(SubmitDispatch::Dispatched)));
        }
        if let Some(job) = control {
            shard.control(false, job);
        }
        let registry = Registry::new();
        let (accepted, failed) = (registry.counter("accepted"), registry.counter("failed"));
        step(
            &shard,
            &engine,
            0,
            WireIds::new(1, false),
            64,
            &accepted,
            &failed,
        );
    }

    /// A step answers its whole batch before any reactor hears of it,
    /// then writes each reactor's `eventfd` once: at 1, 16 and 64
    /// submissions, one wake for one reactor, and one for each of two.
    /// Posting a wake whenever the queue was empty made 1, 16 and 64
    /// here. A control job runs after the batch and wakes at once.
    #[test]
    fn a_step_wakes_each_reactor_it_answers_once() {
        for n in [1, 16, 64] {
            let reactor = ReactorShared::new().unwrap();
            let heard = Arc::default();
            let (late, wakes) = (Arc::clone(&reactor), Arc::new(Mutex::new((0, 0))));
            let seen = Arc::clone(&wakes);
            let control: Control = Box::new(move |_, _| {
                let batch = late.waker.drain();
                let heard = Arc::new(Mutex::new(Vec::new()));
                drop(answered_on(&late, n, &heard));
                *seen.lock() = (batch, late.waker.drain());
            });
            let batch = (0..n).map(|slot| answered_on(&reactor, slot, &heard));
            step_once(batch.collect(), Some(control));
            assert_eq!(*heard.lock(), Vec::from_iter(0..n), "every reply, in order");
            assert_eq!(*wakes.lock(), (1, 1), "{n} replies, then a job's: wakes");
            assert_eq!(reactor.waker.drain(), 0);

            let pair = [ReactorShared::new().unwrap(), ReactorShared::new().unwrap()];
            let heard = Arc::default();
            let batch = (0..n).map(|slot| answered_on(&pair[slot as usize % 2], slot, &heard));
            step_once(batch.collect(), None);
            assert_eq!(*heard.lock(), Vec::from_iter(0..n));
            let each = if n == 1 { [1, 0] } else { [1, 1] };
            assert_eq!(
                pair.map(|r| r.waker.drain()),
                each,
                "{n} replies on two reactors"
            );
        }
    }

    /// A reactor's pass admits under one hold: the parked worker hears
    /// of nothing until the hold drops, then is notified once and takes
    /// all 16 submissions in one batch. Notifying at the first admitted
    /// submission woke it to a batch of one, or a few. The owed wake and
    /// the cleared `parked` flag are exact; the batch of 16 also assumes
    /// the condition variable does not wake the worker spuriously while
    /// the 16 admissions run (a window of microseconds, with no sleep).
    #[test]
    fn a_pass_wakes_a_parked_worker_once() {
        let fed = MultiDatabase::new(0);
        let (shard, _engine) = undriven_shard(Engine::new(fed, Arc::new(ProgramRegistry::new())));
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut batches = Vec::new();
                while batches.iter().sum::<usize>() < 16 && shard.has_work() {
                    batches.push(shard.inbox.lock().take_batch(64).0.len());
                }
                batches
            });
            while !shard.inbox.lock().parked {
                std::thread::yield_now();
            }
            let hold = WakeHold::open();
            for i in 0..16 {
                let admitted =
                    shard.with_inbox(|inbox| inbox.admit(64, job(None, &format!("s{i}"))));
                assert!(matches!(admitted, Ok(SubmitDispatch::Dispatched)));
            }
            assert_eq!(WakeHold::owed(), 1, "one wake owed for 16 submissions");
            let inbox = shard.inbox.lock();
            assert!(!inbox.parked, "the wake is owed, not lost");
            assert_eq!(inbox.queued, 16, "nothing notified the worker yet");
            drop(inbox);
            drop(hold);
            assert_eq!(worker.join().unwrap(), [16], "one wake, one batch");
        });
    }

    /// Outside a hold a submission wakes a parked worker at once, as the
    /// blocking `ShardPool::submit` and the tests need.
    #[test]
    fn an_admission_outside_a_hold_wakes_at_once() {
        let fed = MultiDatabase::new(0);
        let (shard, _engine) = undriven_shard(Engine::new(fed, Arc::new(ProgramRegistry::new())));
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| shard.has_work());
            while !shard.inbox.lock().parked {
                std::thread::yield_now();
            }
            let admitted = shard.with_inbox(|inbox| inbox.admit(64, job(None, "s")));
            assert!(matches!(admitted, Ok(SubmitDispatch::Dispatched)));
            assert!(worker.join().unwrap());
        });
    }

    /// Outside a step nothing is held: a reply a dying worker abandons
    /// — dropped unsent, it answers `shard worker stopped` — wakes its
    /// reactor at once.
    #[test]
    fn a_post_outside_a_step_wakes_at_once() {
        let reactor = ReactorShared::new().unwrap();
        let heard = Arc::default();
        drop(answered_on(&reactor, 7, &heard));
        assert_eq!(*heard.lock(), [7]);
        assert_eq!(reactor.waker.drain(), 1);
    }

    /// A sink that panics unwinds the step, and the held wake still
    /// fires: the reply posted before it, and the one its worker
    /// abandons after it, are not stranded.
    #[test]
    fn a_panicking_sink_still_wakes_its_reactor() {
        let reactor = ReactorShared::new().unwrap();
        let heard = Arc::default();
        let mut batch: Vec<_> = (0..3)
            .map(|slot| answered_on(&reactor, slot, &heard))
            .collect();
        batch[1].pending.sink = Some(Box::new(|_| panic!("a sink that panics")));
        let unwound = catch_unwind(AssertUnwindSafe(|| step_once(batch, None)));
        assert!(unwound.is_err(), "the sink's panic unwinds the step");
        assert_eq!(*heard.lock(), [0, 2]);
        assert_eq!(reactor.waker.drain(), 1);
    }

    // ---- a shard over a full disk: a turn and what answers it

    /// An engine whose journal file is `/dev/full` under `policy`: an
    /// append is buffered until the policy writes, and every write
    /// fails. Programs named `ok` commit; one named `big` commits an
    /// output of 2 MiB, past the journal writer's cap, so its event
    /// makes a write under any policy. `ann` is a `clerk`. The path is
    /// the journal's (empty) file name: remove it when done.
    pub(crate) fn on_a_full_disk(
        policy: DurabilityPolicy,
        templates: Vec<ProcessDefinition>,
        tag: &str,
    ) -> (Engine, PathBuf) {
        let path = std::env::temp_dir().join(format!("wfms-full-{tag}-{}", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let journal = Journal::with_injected_file(full, path.clone(), policy);
        let fed = MultiDatabase::new(0);
        fed.add_database("db");
        let programs = Arc::new(ProgramRegistry::new());
        programs.register_fn("ok", |_| ProgramOutcome::committed());
        programs.register_fn("big", |_| ProgramOutcome::Committed {
            rc: 1,
            outputs: [("blob".to_owned(), "x".repeat(2 << 20).into())].into(),
        });
        let org = OrgModel::new().person("ann", &["clerk"]);
        let engine = recover_from(journal, Vec::new(), templates, org, fed, programs).unwrap();
        (engine, path)
    }

    /// `one`: a single automatic step.
    fn one() -> ProcessDefinition {
        ProcessBuilder::new("one")
            .program("A", "ok")
            .build()
            .unwrap()
    }

    /// A batch whose group commit fails is failed whole: every reply is
    /// the flush's error, nothing is counted accepted, and each tenant
    /// slot is back before its sink hears of it. The journal writes
    /// only at barriers, so the batch navigates and only its flush
    /// meets the full disk.
    #[test]
    fn a_failed_group_commit_fails_every_reply_of_its_batch() {
        let (engine, path) =
            on_a_full_disk(DurabilityPolicy::Batched { n: 64 }, vec![one()], "turn");
        let table = table(1, 1, None);
        let acme = table.by_name("acme").unwrap();
        let heard = Arc::new(Mutex::new(Vec::new()));
        let batch = (0..3)
            .map(|_| {
                let (tenant, heard) = (Arc::clone(acme), Arc::clone(&heard));
                QueuedSubmit {
                    process: "one".to_owned(),
                    input: Container::empty(),
                    pending: Pending {
                        reservation: Reservation::take(Some(Arc::clone(acme))).unwrap(),
                        sink: Some(Box::new(move |reply| {
                            heard
                                .lock()
                                .push((tenant.inflight.load(Ordering::Relaxed), reply))
                        })),
                    },
                }
            })
            .collect();

        let registry = Registry::new();
        let (accepted, failed) = (
            registry.counter("server.submit.accepted"),
            registry.counter("server.submit.failed"),
        );
        answer(
            turn(&engine, 0, WireIds::new(1, true), batch).0,
            &accepted,
            &failed,
        );
        assert_eq!(engine.instance_counts(), (0, 3, 0), "the batch navigated");
        assert_eq!(
            (accepted.get(), failed.get(), acme.accepted.get()),
            (0, 3, 0)
        );
        let heard = heard.lock();
        let levels: Vec<i64> = heard.iter().map(|(level, _)| *level).collect();
        assert_eq!(levels, [2, 1, 0], "each slot is back before its sink runs");
        for (_, reply) in heard.iter() {
            match reply {
                Err((error, false)) => {
                    assert!(error.starts_with("journal flush failed"), "{error}")
                }
                other => panic!("answered {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// An instance that cannot be navigated onward at reopen (here: the
    /// journal mirror refuses writes) is counted, not printed, and does
    /// not stop the other instances from being resumed.
    #[test]
    fn failed_resumes_are_counted() {
        let (engine, path) = on_a_full_disk(DurabilityPolicy::PerEvent, vec![one()], "resume");
        engine.start("one", Container::empty()).unwrap();
        engine.start("one", Container::empty()).unwrap();

        let failures = wfms_observe::Counter::new();
        assert_eq!(resume_running(&engine, &failures), 2);
        assert_eq!(failures.get(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
