//! The sharded instance manager.
//!
//! A [`ShardPool`] owns N shards; each shard is an [`Engine`] with its
//! own durable journal file (`shard-<i>.journal` under the data
//! directory), a bounded submission queue and a dedicated worker
//! thread. Submissions are spread round-robin; the worker pops a
//! *batch* of queued submissions, navigates each to quiescence, then
//! issues **one** journal flush for the whole batch before
//! acknowledging any of them — group commit. An acknowledgement
//! therefore implies durability: after `kill -9`, every accepted
//! submission is recovered from its shard journal.
//!
//! Admission control is the queue bound itself: when a shard's queue
//! is at the high-water mark, [`ShardPool::submit`] returns
//! [`SubmitOutcome::Overloaded`] immediately instead of queueing
//! without bound. Queue depth and accept/reject counts are published
//! through the pool's [`Registry`].
//!
//! ## External ids
//!
//! Each shard allocates local instance and work-item ids from 1. On
//! the wire they are folded with the shard index:
//! `ext = local * nshards + shard`. When tenancy is enabled the owning
//! tenant's slot additionally occupies the top [`TENANT_BITS`] bits:
//! `ext = (slot << (64 - TENANT_BITS)) | (local * nshards + shard)`.
//! The mapping is stable across restarts as long as the shard count
//! and tenant-bit layout are unchanged — which is why the pool records
//! both in `server.meta.json` and refuses to reopen a data directory
//! with a different `--shards` or a flipped tenancy mode.
//!
//! ## Tenancy
//!
//! With a tenant table installed ([`PoolConfig::tenants`]), each
//! submission is attributed to a tenant. Admission is two-staged:
//! a per-tenant in-flight quota checked at dispatch (breach →
//! [`SubmitDispatch::Overloaded`], i.e. `429`), then weighted
//! deficit-round-robin inside the shard worker — each tenant has its
//! own FIFO and the worker assembles every group-commit batch by
//! DRR over the non-empty FIFOs, so a hot tenant saturating its quota
//! cannot starve a quiet one. Group commit is preserved: one flush
//! per batch regardless of how many tenants contributed to it.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use txn_substrate::durability::atomic_rewrite;
use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramRegistry};
use wfms_engine::{
    spec_hash_of, Engine, EngineConfig, EngineError, InstanceId, InstanceStatus, MigrationOutcome,
    OrgModel, WorkItem, WorkItemId,
};
use wfms_model::{Container, ProcessDefinition};
use wfms_observe::{Counter, Registry};

use crate::tenant::{Tenant, TenantSpec, TenantTable, MAX_TENANTS, TENANT_BITS};

/// How long a submitter waits for its shard worker to answer before
/// giving up (the worker only goes silent if it panicked).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Persisted pool invariants, stored as `server.meta.json` in the
/// data directory.
///
/// Older shapes still open: a pre-tenancy meta (no tenant fields) reads
/// as `tenant_bits: 0` — exactly the layout those directories' wire
/// ids use — and the pre-versioning shape (only a shard count)
/// additionally reads as an empty template list, the supplied
/// definitions then being adopted as the initial versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServerMeta {
    shards: usize,
    /// Spec content hashes (hex) of every template version ever
    /// registered into this directory, in deploy order. The definition
    /// behind each hash lives in `templates/<hash>.json`; together they
    /// are the exact template set shard journals replay against.
    #[serde(default)]
    templates: Vec<String>,
    /// Wire-id bits reserved for the tenant slot: [`TENANT_BITS`] when
    /// the directory was created with tenancy enabled, 0 otherwise.
    /// Pinned for the same reason the shard count is — changing it
    /// shifts every external id.
    #[serde(default)]
    tenant_bits: usize,
    /// Ordered tenant slot list (slot = index + 1), first-seen order.
    /// Append-only: hot reloads add names, never move or drop them.
    #[serde(default)]
    tenants: Vec<String>,
}

impl ServerMeta {
    /// The slot-pinning rule, at open and at every reload: a tenant
    /// name this directory has not seen yet is appended to the slot
    /// list, a name it has seen keeps its slot, and a name past
    /// [`MAX_TENANTS`] is refused. Returns whether the list grew (the
    /// meta file must then be rewritten).
    fn pin_slots(&mut self, specs: &[TenantSpec]) -> Result<bool, PoolError> {
        let pinned = self.tenants.len();
        for spec in specs {
            if !self.tenants.iter().any(|n| n == &spec.name) {
                if self.tenants.len() >= MAX_TENANTS {
                    return Err(PoolError::Rejected(format!(
                        "tenant slot space exhausted ({MAX_TENANTS} names already pinned)"
                    )));
                }
                self.tenants.push(spec.name.clone());
            }
        }
        Ok(self.tenants.len() > pinned)
    }
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
        }
    }
}

impl std::error::Error for PoolError {}

impl From<std::io::Error> for PoolError {
    fn from(e: std::io::Error) -> Self {
        PoolError::Io(e)
    }
}

/// What happens to running instances of a process when a new version
/// of it is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Old instances keep their pinned version and finish under it;
    /// only new submissions see the deployed version.
    DrainOld,
    /// Running instances parked at a scope boundary are migrated to
    /// the deployed version (journalled as `Migrated`); instances with
    /// an activity mid-flight fall back to draining under their old
    /// version.
    MigrateAtScopeBoundary,
}

impl MigrationPolicy {
    /// Parses the wire/CLI spelling of a policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drain-old" => Some(Self::DrainOld),
            "migrate" | "migrate-at-scope-boundary" => Some(Self::MigrateAtScopeBoundary),
            _ => None,
        }
    }
}

/// Outcome of [`ShardPool::deploy`].
#[derive(Debug)]
pub struct DeployReport {
    /// Process template name.
    pub process: String,
    /// Version (hex hash) now the default for new submissions.
    pub version: String,
    /// Running instances migrated to the new version.
    pub migrated: u64,
    /// Running instances left on their old version (mid-flight, or
    /// policy was [`MigrationPolicy::DrainOld`]).
    pub skipped: u64,
    /// Running instances that were already on the deployed version.
    pub already_current: u64,
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

/// Worker-side submit result: *local* instance id (shard encoding not
/// yet applied).
type InnerReply = Result<(InstanceId, InstanceStatus, Container), (String, bool)>;

/// What a [`ShardPool::submit_with`] sink receives after the owning
/// shard's group commit: external id + status + output, or
/// `(error rendering, unknown_process)`.
pub type SubmitReply = Result<(u64, InstanceStatus, Container), (String, bool)>;

/// Invoked exactly once, *after* the batch's journal flush.
type ReplySink = Box<dyn FnOnce(InnerReply) + Send + 'static>;

enum Job {
    Submit {
        process: String,
        input: Container,
        /// Owning tenant (`None` when tenancy is disabled): selects the
        /// DRR lane and names the tenant journalled on the instance.
        tenant: Option<Arc<Tenant>>,
        reply: ReplySink,
    },
    /// FIFO barrier: answered only after every job queued before it
    /// has been processed *and flushed*.
    Barrier(SyncSender<()>),
    /// Worker shutdown sentinel.
    Stop,
}

struct Shard {
    engine: Arc<Engine>,
    tx: SyncSender<Job>,
    depth: Arc<AtomicI64>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
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
    /// Artificial per-submission delay in the worker, for drills that
    /// need a deterministically slow consumer. `None` in production.
    pub throttle: Option<Duration>,
    /// Tenant table. Empty = tenancy disabled: wire ids carry no
    /// tenant bits and submissions are unattributed. Non-empty =
    /// [`TENANT_BITS`] are reserved in every wire id and the layout is
    /// pinned in `server.meta.json`.
    pub tenants: Vec<TenantSpec>,
}

impl PoolConfig {
    /// Conventional defaults: 1 shard, queue 1024, group commit of 64.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            shards: 1,
            queue_capacity: 1024,
            batch_max: 64,
            durability: DurabilityPolicy::Batched { n: 64 },
            org: OrgModel::new(),
            templates: Vec::new(),
            throttle: None,
            tenants: Vec::new(),
        }
    }
}

/// The sharded instance manager (see module docs).
pub struct ShardPool {
    shards: Vec<Shard>,
    nshards: u64,
    rr: AtomicUsize,
    queue_capacity: usize,
    data_dir: PathBuf,
    /// In-memory mirror of `server.meta.json`; the lock also
    /// serializes concurrent deploys.
    meta: Mutex<ServerMeta>,
    registry: Arc<Registry>,
    accepted: Arc<Counter>,
    overloaded: Arc<Counter>,
    failed: Arc<Counter>,
    completions: Arc<Counter>,
    recovered: u64,
    /// Wire-id bits reserved for the tenant slot ([`TENANT_BITS`] with
    /// tenancy enabled, 0 without); mirrors the pinned meta value.
    tenant_bits: u32,
    /// Live tenant table, swapped atomically on hot reload. Empty when
    /// tenancy is disabled.
    tenants: RwLock<Arc<TenantTable>>,
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
        let nshards = cfg.shards.max(1);
        let tenant_bits = if cfg.tenants.is_empty() {
            0
        } else {
            TENANT_BITS as usize
        };
        std::fs::create_dir_all(&cfg.data_dir)?;
        let (meta, templates) = check_meta(
            &cfg.data_dir,
            nshards,
            tenant_bits,
            &cfg.tenants,
            &cfg.templates,
        )?;
        let table = TenantTable::build(&meta.tenants, &cfg.tenants, None, &registry);

        let mut shards = Vec::with_capacity(nshards);
        let mut recovered = 0u64;
        let resume_failures = registry.counter("server.resume.failures");
        for i in 0..nshards {
            let journal_path = cfg.data_dir.join(format!("shard-{i}.journal"));
            let (multidb, programs) = provision(i);
            let engine = Engine::open(
                multidb,
                programs,
                EngineConfig {
                    org: cfg.org.clone(),
                    journal_path: Some(journal_path),
                    durability: cfg.durability,
                    ..EngineConfig::default()
                },
                templates.clone(),
            )
            .map_err(PoolError::Recovery)?;
            recovered += resume_running(&engine, &resume_failures);
            let engine = Arc::new(engine);
            let (tx, rx) = sync_channel::<Job>(cfg.queue_capacity);
            let depth = Arc::new(AtomicI64::new(0));
            let gauge = registry.gauge(&format!("server.queue.depth.shard{i}"));
            let worker = {
                let engine = Arc::clone(&engine);
                let depth = Arc::clone(&depth);
                let gauge = Arc::clone(&gauge);
                let batch_max = cfg.batch_max.max(1);
                let throttle = cfg.throttle;
                let capacity = cfg.queue_capacity;
                std::thread::Builder::new()
                    .name(format!("wfms-shard-{i}"))
                    .spawn(move || {
                        worker_loop(engine, rx, depth, gauge, batch_max, capacity, throttle)
                    })
                    .expect("spawn shard worker")
            };
            shards.push(Shard {
                engine,
                tx,
                depth,
                worker: Mutex::new(Some(worker)),
            });
        }

        Ok(Self {
            shards,
            nshards: nshards as u64,
            rr: AtomicUsize::new(0),
            queue_capacity: cfg.queue_capacity,
            data_dir: cfg.data_dir,
            meta: Mutex::new(meta),
            registry: Arc::clone(&registry),
            accepted: registry.counter("server.submit.accepted"),
            overloaded: registry.counter("server.submit.overloaded"),
            failed: registry.counter("server.submit.failed"),
            completions: registry.counter("server.worklist.completions"),
            recovered,
            tenant_bits: tenant_bits as u32,
            tenants: RwLock::new(Arc::new(table)),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Instances resumed from shard journals when the pool opened.
    pub fn recovered_instances(&self) -> u64 {
        self.recovered
    }

    /// The metrics registry the pool publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// True when this pool was opened with a tenant table (wire ids
    /// carry tenant bits, submissions require attribution).
    pub fn tenancy_enabled(&self) -> bool {
        self.tenant_bits > 0
    }

    /// The live tenant table (hot-swapped on reload).
    pub fn tenant_table(&self) -> Arc<TenantTable> {
        Arc::clone(&self.tenants.read())
    }

    /// Resolves an API key to its tenant — constant-time over the
    /// whole table (see [`TenantTable::authenticate`]).
    pub fn authenticate(&self, key: &[u8]) -> Option<Arc<Tenant>> {
        self.tenants.read().authenticate(key)
    }

    /// Replaces the live tenant set from a freshly parsed tenants
    /// file. Slot assignments are append-only: names this directory
    /// has seen keep their slot (pinned in `server.meta.json`), new
    /// names are appended, and names absent from `specs` keep their
    /// slot reserved but can no longer authenticate. In-flight
    /// counters are carried over by name so quota accounting survives
    /// the swap. Returns the number of live tenants.
    pub fn reload_tenants(&self, specs: &[TenantSpec]) -> Result<usize, PoolError> {
        if self.tenant_bits == 0 {
            return Err(PoolError::Rejected(
                "tenancy is not enabled on this server (start with --tenants)".to_owned(),
            ));
        }
        let mut meta = self.meta.lock();
        if meta.pin_slots(specs)? {
            write_meta(&self.data_dir.join("server.meta.json"), &meta)?;
        }
        let mut table = self.tenants.write();
        *table = Arc::new(TenantTable::build(
            &meta.tenants,
            specs,
            Some(&table),
            &self.registry,
        ));
        Ok(table.live().count())
    }

    /// Submits one instance start *without blocking*: `sink` is
    /// invoked — from the shard worker thread — exactly once, after
    /// the batch's single journal flush, so a `201` rendered from it
    /// still implies durability. This is the event-loop entry point;
    /// [`ShardPool::submit`] is the blocking convenience built on it.
    ///
    /// Returns [`SubmitDispatch::Overloaded`] (and drops `sink`
    /// uncalled) when the shard queue is at its high-water mark;
    /// otherwise [`SubmitDispatch::Dispatched`] — the sink has been
    /// or will be called, possibly with an error.
    pub fn submit_with(
        &self,
        process: &str,
        input: Container,
        tenant: Option<Arc<Tenant>>,
        sink: Box<dyn FnOnce(SubmitReply) + Send + 'static>,
    ) -> SubmitDispatch {
        // Per-tenant admission quota, stage one: the in-flight level is
        // reserved *before* the queue, and released by the reply sink
        // (every dispatched submission is answered exactly once) or on
        // a queue rejection below.
        if let Some(t) = &tenant {
            let prev = t.inflight.fetch_add(1, Ordering::Relaxed);
            if prev >= t.max_inflight {
                t.inflight.fetch_sub(1, Ordering::Relaxed);
                t.overloaded.inc();
                self.overloaded.inc();
                return SubmitDispatch::Overloaded {
                    depth: prev,
                    capacity: t.max_inflight as usize,
                };
            }
            t.inflight_gauge.set(t.inflight.load(Ordering::Relaxed));
        }
        let idx = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[idx];
        let accepted = Arc::clone(&self.accepted);
        let failed = Arc::clone(&self.failed);
        let nshards = self.nshards;
        let tenant_bits = self.tenant_bits;
        let sink_tenant = tenant.clone();
        let reply: ReplySink = Box::new(move |inner| {
            if let Some(t) = &sink_tenant {
                t.inflight.fetch_sub(1, Ordering::Relaxed);
                t.inflight_gauge.set(t.inflight.load(Ordering::Relaxed));
            }
            match inner {
                Ok((local, status, output)) => {
                    accepted.inc();
                    let slot = sink_tenant.as_ref().map(|t| t.slot).unwrap_or(0);
                    if let Some(t) = &sink_tenant {
                        t.accepted.inc();
                    }
                    sink(Ok((
                        encode_ext(local.0, idx, nshards, slot, tenant_bits),
                        status,
                        output,
                    )));
                }
                Err(e) => {
                    failed.inc();
                    sink(Err(e));
                }
            }
        });
        let job = Job::Submit {
            process: process.to_owned(),
            input,
            tenant: tenant.clone(),
            reply,
        };
        match shard.tx.try_send(job) {
            Ok(()) => {
                shard.depth.fetch_add(1, Ordering::Relaxed);
                SubmitDispatch::Dispatched
            }
            Err(TrySendError::Full(_)) => {
                // The job (and its sink) is dropped uncalled: release
                // the quota reservation here.
                if let Some(t) = &tenant {
                    t.inflight.fetch_sub(1, Ordering::Relaxed);
                    t.inflight_gauge.set(t.inflight.load(Ordering::Relaxed));
                    t.overloaded.inc();
                }
                self.overloaded.inc();
                SubmitDispatch::Overloaded {
                    depth: shard.depth.load(Ordering::Relaxed),
                    capacity: self.queue_capacity,
                }
            }
            Err(TrySendError::Disconnected(job)) => {
                // Only during shutdown; answer through the sink so the
                // caller sees one uniform completion path.
                if let Job::Submit { reply, .. } = job {
                    reply(Err(("shard worker stopped".to_owned(), false)));
                }
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
        let (reply_tx, reply_rx) = sync_channel::<SubmitReply>(1);
        let sink = Box::new(move |reply: SubmitReply| {
            let _ = reply_tx.send(reply);
        });
        match self.submit_with(process, input, tenant, sink) {
            SubmitDispatch::Overloaded { depth, capacity } => {
                return SubmitOutcome::Overloaded { depth, capacity };
            }
            SubmitDispatch::Dispatched => {}
        }
        match reply_rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(Ok((id, status, output))) => SubmitOutcome::Accepted { id, status, output },
            Ok(Err((error, unknown_process))) => SubmitOutcome::Failed {
                error,
                unknown_process,
            },
            Err(_) => {
                self.failed.inc();
                SubmitOutcome::Failed {
                    error: "shard worker did not answer".to_owned(),
                    unknown_process: false,
                }
            }
        }
    }

    /// `(process name, status, pinned version, output)` of the
    /// instance behind an external id. With tenancy enabled, an ext id
    /// whose tenant slot does not match the tenant journalled on the
    /// instance resolves to nothing — a forged slot cannot reach
    /// another tenant's instance.
    pub fn status(&self, ext: u64) -> Option<(String, InstanceStatus, String, Container)> {
        let (shard, local, slot) = self.decode(ext)?;
        let engine = &self.shards[shard].engine;
        let id = InstanceId(local);
        if !self.slot_owns_instance(engine, id, slot) {
            return None;
        }
        let status = engine.status(id).ok()?;
        let process = engine.instance_process(id).ok()?;
        let version = engine.instance_version(id).ok()?;
        let output = engine.output(id).ok()?;
        Some((process, status, version, output))
    }

    /// The tenant slot folded into an external id (0 = untenanted, or
    /// tenancy disabled). `None` when the id is malformed.
    pub fn slot_of(&self, ext: u64) -> Option<u16> {
        self.decode(ext).map(|(_, _, slot)| slot)
    }

    /// True when the tenant slot claimed by a wire id matches the
    /// tenant journalled on the instance (trivially true with tenancy
    /// disabled).
    fn slot_owns_instance(&self, engine: &Engine, id: InstanceId, slot: u16) -> bool {
        if self.tenant_bits == 0 {
            return slot == 0;
        }
        let journalled = match engine.instance_tenant(id) {
            Ok(t) => t,
            Err(_) => return false,
        };
        match (slot, journalled) {
            (0, None) => true,
            (0, Some(_)) | (_, None) => false,
            (s, Some(name)) => self.tenants.read().slot_of_name(&name) == Some(s),
        }
    }

    /// Registers a new version of a process into every shard and makes
    /// it the default for new submissions; existing instances are
    /// handled per `policy`. Durable in stages: the definition file is
    /// written first, then the meta hash list, then each shard journals
    /// its `TemplateDeployed` (and any `Migrated`) events and flushes —
    /// a crash between any two stages recovers to a consistent state.
    pub fn deploy(
        &self,
        def: ProcessDefinition,
        policy: MigrationPolicy,
    ) -> Result<DeployReport, PoolError> {
        // Validate before anything is persisted: a rejected definition
        // must leave no trace in the templates directory or the meta.
        let errors = wfms_model::validate(&def);
        if !errors.is_empty() {
            let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            return Err(PoolError::Rejected(rendered.join("; ")));
        }
        let version = format!("{:016x}", spec_hash_of(&def));
        let process = def.name.clone();
        {
            let mut meta = self.meta.lock();
            if !meta.templates.contains(&version) {
                persist_template(&self.data_dir.join("templates"), &version, &def)?;
                meta.templates.push(version.clone());
                write_meta(&self.data_dir.join("server.meta.json"), &meta)?;
            }
        }
        let mut report = DeployReport {
            process: process.clone(),
            version: version.clone(),
            migrated: 0,
            skipped: 0,
            already_current: 0,
        };
        let flush_err =
            |e: EngineError| PoolError::Io(std::io::Error::other(format!("journal flush: {e}")));
        for shard in &self.shards {
            shard
                .engine
                .register(def.clone())
                .map_err(|e| PoolError::Rejected(e.to_string()))?;
            shard.engine.flush_journal().map_err(flush_err)?;
        }
        if policy == MigrationPolicy::MigrateAtScopeBoundary {
            for shard in &self.shards {
                let engine = &shard.engine;
                for (id, p, status) in engine.instances() {
                    if p != process || status != InstanceStatus::Running {
                        continue;
                    }
                    match engine.migrate_to_default(id) {
                        Ok(MigrationOutcome::Migrated { .. }) => {
                            report.migrated += 1;
                            // Migration fixups may have re-readied
                            // automatic work; navigate it onward.
                            let _ = engine.run_to_quiescence(id);
                        }
                        Ok(MigrationOutcome::AlreadyCurrent) => report.already_current += 1,
                        Ok(MigrationOutcome::Skipped { .. }) | Err(_) => report.skipped += 1,
                    }
                }
                engine.flush_journal().map_err(flush_err)?;
            }
        }
        Ok(report)
    }

    /// Open work items of `person` across every shard, with external
    /// ids, sorted by external item id. With tenancy enabled, each
    /// item's ids carry the slot of the instance's tenant; `scope`
    /// restricts the listing to one slot (a tenant sees only its own
    /// items).
    pub fn worklist(&self, person: &str, scope: Option<u16>) -> Vec<(u64, u64, WorkItem)> {
        let table = self.tenants.read();
        let mut out = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            for item in shard.engine.worklist(person) {
                let slot = if self.tenant_bits == 0 {
                    0
                } else {
                    shard
                        .engine
                        .instance_tenant(item.instance)
                        .ok()
                        .flatten()
                        .and_then(|name| table.slot_of_name(&name))
                        .unwrap_or(0)
                };
                if scope.is_some_and(|s| s != slot) {
                    continue;
                }
                out.push((
                    self.encode(item.id.0, idx, slot),
                    self.encode(item.instance.0, idx, slot),
                    item,
                ));
            }
        }
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Completes (claim + execute) a work item by external id as
    /// `person`, then flushes the owning shard's journal so the
    /// completion is durable before the call returns. With tenancy
    /// enabled, the slot in the wire id must match the owning
    /// instance's tenant — a forged slot resolves to "no such item".
    pub fn complete(&self, ext_item: u64, person: &str) -> Result<(), EngineError> {
        let no_such_item =
            || EngineError::Worklist(wfms_engine::WorklistError::NoSuchItem(WorkItemId(ext_item)));
        let (shard, local, slot) = self.decode(ext_item).ok_or_else(no_such_item)?;
        let engine = &self.shards[shard].engine;
        let owner = engine
            .item_instance(WorkItemId(local))
            .ok_or_else(no_such_item)?;
        if !self.slot_owns_instance(engine, owner, slot) {
            return Err(no_such_item());
        }
        engine.execute_item(WorkItemId(local), person)?;
        engine.flush_journal()?;
        self.completions.inc();
        Ok(())
    }

    /// Flushes every queued submission through its shard (FIFO
    /// barriers), then drains every engine (flush + checkpoint +
    /// flush). Returns total journal events dropped by compaction.
    pub fn drain(&self) -> Result<usize, EngineError> {
        let mut waits = Vec::new();
        for shard in &self.shards {
            let (tx, rx) = sync_channel::<()>(1);
            if shard.tx.send(Job::Barrier(tx)).is_ok() {
                waits.push(rx);
            }
        }
        for rx in waits {
            let _ = rx.recv_timeout(REPLY_TIMEOUT);
        }
        let mut dropped = 0;
        for shard in &self.shards {
            dropped += shard.engine.drain()?;
        }
        Ok(dropped)
    }

    /// Stops every shard worker and joins it. Queued jobs submitted
    /// before the stop are still processed and flushed. Idempotent.
    pub fn stop(&self) {
        for shard in &self.shards {
            let _ = shard.tx.send(Job::Stop);
        }
        for shard in &self.shards {
            if let Some(handle) = shard.worker.lock().take() {
                let _ = handle.join();
            }
        }
    }

    /// Instance counts `(running, finished, cancelled)` across shards.
    pub fn instance_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for shard in &self.shards {
            let (running, finished, cancelled) = shard.engine.instance_counts();
            counts.0 += running;
            counts.1 += finished;
            counts.2 += cancelled;
        }
        counts
    }

    /// Every shard engine's metrics snapshot
    /// ([`wfms_engine::Engine::metrics`]), for the scrape to fold.
    pub fn engine_metrics(&self) -> Vec<wfms_engine::EngineMetrics> {
        self.shards.iter().map(|s| s.engine.metrics()).collect()
    }

    /// Total queued submissions across shards right now.
    pub fn queue_depth(&self) -> i64 {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum()
    }

    fn encode(&self, local: u64, shard: usize, slot: u16) -> u64 {
        encode_ext(local, shard, self.nshards, slot, self.tenant_bits)
    }

    fn decode(&self, ext: u64) -> Option<(usize, u64, u16)> {
        decode_ext(ext, self.nshards, self.tenant_bits)
    }
}

/// Folds a shard-local id into the wire id: `ext = local * nshards +
/// shard`, with the tenant slot in the top `tenant_bits` bits when
/// tenancy is enabled (`tenant_bits == 0` keeps the pre-tenancy
/// layout, bit for bit). Template version identity is deliberately
/// *not* encoded in wire ids — an instance keeps its external id
/// across a live migration, and ids stay stable as long as the shard
/// count and tenant-bit layout do.
fn encode_ext(local: u64, shard: usize, nshards: u64, slot: u16, tenant_bits: u32) -> u64 {
    let base = local * nshards + shard as u64;
    if tenant_bits == 0 {
        base
    } else {
        (u64::from(slot) << (64 - tenant_bits)) | (base & (u64::MAX >> tenant_bits))
    }
}

/// Inverse of [`encode_ext`]: `(shard, local, slot)`. Locals are
/// allocated from 1, so a base that would fold to local 0 is rejected
/// rather than resolved to a nonexistent instance.
fn decode_ext(ext: u64, nshards: u64, tenant_bits: u32) -> Option<(usize, u64, u16)> {
    let (slot, base) = if tenant_bits == 0 {
        (0u16, ext)
    } else {
        (
            (ext >> (64 - tenant_bits)) as u16,
            ext & (u64::MAX >> tenant_bits),
        )
    };
    let shard = (base % nshards) as usize;
    let local = base / nshards;
    (local > 0).then_some((shard, local, slot))
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Validates (or writes) `server.meta.json` in `dir` and reconciles
/// the supplied definitions with the versions stored on disk.
///
/// Returns the meta record plus the full deploy-ordered template set —
/// every stored version followed by any genuinely new processes from
/// `cli` — which every shard engine is opened with. A `cli` definition
/// whose *name* is already recorded but whose content hash matches no
/// stored version is refused with [`PoolError::SpecMismatch`]: the spec
/// changed out of band, and silently replaying old journals against it
/// would corrupt recovery.
fn check_meta(
    dir: &Path,
    shards: usize,
    tenant_bits: usize,
    tenant_specs: &[TenantSpec],
    cli: &[ProcessDefinition],
) -> Result<(ServerMeta, Vec<ProcessDefinition>), PoolError> {
    let meta_path = dir.join("server.meta.json");
    let tpl_dir = dir.join("templates");
    let mut meta = match std::fs::read_to_string(&meta_path) {
        Ok(text) => {
            let meta = parse_meta(&text)?;
            if meta.shards != shards {
                return Err(PoolError::ShardMismatch {
                    on_disk: meta.shards,
                    requested: shards,
                });
            }
            if meta.tenant_bits != tenant_bits {
                return Err(PoolError::TenancyMismatch {
                    on_disk: meta.tenant_bits,
                    requested: tenant_bits,
                });
            }
            meta
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => ServerMeta {
            shards,
            templates: Vec::new(),
            tenant_bits,
            tenants: Vec::new(),
        },
        Err(e) => return Err(PoolError::Io(e)),
    };

    let mut dirty = meta.pin_slots(tenant_specs)?;

    // Load every stored version in deploy order; the *last* hash per
    // name is that process's current default.
    let mut templates: Vec<ProcessDefinition> = Vec::with_capacity(meta.templates.len());
    let mut default_of: std::collections::HashMap<String, String> =
        std::collections::HashMap::new();
    for hash in &meta.templates {
        let path = tpl_dir.join(format!("{hash}.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            PoolError::Io(std::io::Error::other(format!(
                "stored template {hash}: {e}"
            )))
        })?;
        let def: ProcessDefinition = serde_json::from_str(&text).map_err(|e| {
            PoolError::Io(std::io::Error::other(format!(
                "stored template {hash}: {e}"
            )))
        })?;
        default_of.insert(def.name.clone(), hash.clone());
        templates.push(def);
    }

    for def in cli {
        let hash = format!("{:016x}", spec_hash_of(def));
        if meta.templates.contains(&hash) {
            continue; // already stored — possibly no longer the default
        }
        if let Some(on_disk) = default_of.get(def.name.as_str()) {
            return Err(PoolError::SpecMismatch {
                process: def.name.clone(),
                on_disk: on_disk.clone(),
                requested: hash,
            });
        }
        // A process name this directory has never seen: adopt it.
        persist_template(&tpl_dir, &hash, def)?;
        default_of.insert(def.name.clone(), hash.clone());
        meta.templates.push(hash);
        templates.push(def.clone());
        dirty = true;
    }
    if dirty || !meta_path.exists() {
        write_meta(&meta_path, &meta)?;
    }
    Ok((meta, templates))
}

/// Parses `server.meta.json` (older shapes included — see
/// [`ServerMeta`]'s `Deserialize`).
fn parse_meta(text: &str) -> Result<ServerMeta, PoolError> {
    serde_json::from_str(text)
        .map_err(|e| PoolError::Io(std::io::Error::other(format!("bad meta: {e}"))))
}

/// Writes one definition to `templates/<hash>.json`, atomically. A
/// file already there is rewritten, not trusted: the name is a content
/// hash, so the bytes are the same unless a crash cut the earlier write
/// short.
fn persist_template(tpl_dir: &Path, hash: &str, def: &ProcessDefinition) -> Result<(), PoolError> {
    std::fs::create_dir_all(tpl_dir)?;
    let text = serde_json::to_string(def).expect("definition serializes");
    atomic_rewrite(&tpl_dir.join(format!("{hash}.json")), text.as_bytes())?;
    Ok(())
}

/// Rewrites `server.meta.json`, atomically: a crash leaves the old meta
/// or the new one, never a truncated file the next open would refuse.
fn write_meta(meta_path: &Path, meta: &ServerMeta) -> Result<(), PoolError> {
    let text = serde_json::to_string(meta).expect("meta serializes");
    atomic_rewrite(meta_path, text.as_bytes())?;
    Ok(())
}

/// Resumes every instance a recovered shard reports as running —
/// recovery re-readies what was in flight; this navigates it onward.
/// Returns how many instances were resumed. One that cannot be
/// navigated stays parked where recovery left it (its status says why)
/// and is counted in `failures`; the shard still opens.
fn resume_running(engine: &Engine, failures: &Counter) -> u64 {
    let mut resumed = 0;
    for (id, _, status) in engine.instances() {
        if status == InstanceStatus::Running {
            resumed += 1;
            if engine.run_to_quiescence(id).is_err() {
                failures.inc();
            }
        }
    }
    resumed
}

/// One queued submission, parked in its tenant's DRR lane.
struct QueuedSubmit {
    process: String,
    input: Container,
    tenant: Option<Arc<Tenant>>,
    reply: ReplySink,
}

/// Per-tenant FIFO inside a shard worker, keyed by slot (slot 0 =
/// untenanted). `deficit` is the DRR credit in whole submissions.
struct Lane {
    fifo: VecDeque<QueuedSubmit>,
    deficit: u64,
    weight: u64,
}

/// The shard worker: drain the channel into per-tenant lanes, assemble
/// a batch by weighted deficit-round-robin over the non-empty lanes,
/// navigate it, flush once, answer.
///
/// Fairness: each DRR round credits every backlogged lane `weight`
/// submissions and dequeues up to its accumulated deficit, so over any
/// backlogged interval tenants progress proportionally to their
/// weights — a hot tenant with a deep FIFO cannot starve a quiet one
/// whose occasional submission is always near the front of its own
/// lane. A lane that empties forfeits its remaining deficit (classic
/// DRR: credit does not accrue while idle).
fn worker_loop(
    engine: Arc<Engine>,
    rx: Receiver<Job>,
    depth: Arc<AtomicI64>,
    gauge: Arc<wfms_observe::Gauge>,
    batch_max: usize,
    capacity: usize,
    throttle: Option<Duration>,
) {
    let capacity = capacity.max(1);
    let mut lanes: BTreeMap<u16, Lane> = BTreeMap::new();
    let mut queued = 0usize;
    let mut barriers: Vec<SyncSender<()>> = Vec::new();
    let mut stop = false;
    let mut disconnected = false;

    fn stash(
        lanes: &mut BTreeMap<u16, Lane>,
        queued: &mut usize,
        barriers: &mut Vec<SyncSender<()>>,
        stop: &mut bool,
        job: Job,
    ) {
        match job {
            Job::Submit {
                process,
                input,
                tenant,
                reply,
            } => {
                let (slot, weight) = tenant
                    .as_ref()
                    .map(|t| (t.slot, t.weight))
                    .unwrap_or((0, 1));
                let lane = lanes.entry(slot).or_insert_with(|| Lane {
                    fifo: VecDeque::new(),
                    deficit: 0,
                    weight,
                });
                lane.weight = weight; // reloads may rebalance shares
                lane.fifo.push_back(QueuedSubmit {
                    process,
                    input,
                    tenant,
                    reply,
                });
                *queued += 1;
            }
            Job::Barrier(reply) => barriers.push(reply),
            Job::Stop => *stop = true,
        }
    }

    loop {
        // Block for work only when every lane is dry and no barrier is
        // pending; otherwise just drain whatever has arrived.
        if queued == 0 && barriers.is_empty() {
            if stop || disconnected {
                break;
            }
            match rx.recv() {
                Ok(job) => stash(&mut lanes, &mut queued, &mut barriers, &mut stop, job),
                Err(_) => break,
            }
        }
        // Opportunistic drain, bounded so lanes can hold at most one
        // channel's worth of backlog — the channel bound stays the
        // admission high-water mark instead of an ever-draining relay.
        if !disconnected {
            while queued < capacity {
                match rx.try_recv() {
                    Ok(job) => stash(&mut lanes, &mut queued, &mut barriers, &mut stop, job),
                    Err(std::sync::mpsc::TryRecvError::Empty) => break,
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
        }

        // Deficit-round-robin batch assembly.
        let mut batch: Vec<QueuedSubmit> = Vec::new();
        while batch.len() < batch_max && queued > 0 {
            for lane in lanes.values_mut() {
                if lane.fifo.is_empty() {
                    lane.deficit = 0;
                    continue;
                }
                lane.deficit += lane.weight;
                while lane.deficit > 0 && batch.len() < batch_max {
                    match lane.fifo.pop_front() {
                        Some(job) => {
                            lane.deficit -= 1;
                            queued -= 1;
                            batch.push(job);
                        }
                        None => {
                            lane.deficit = 0;
                            break;
                        }
                    }
                }
                if batch.len() >= batch_max {
                    break;
                }
            }
        }

        let mut replies: Vec<(ReplySink, InnerReply)> = Vec::with_capacity(batch.len());
        for job in batch {
            depth.fetch_sub(1, Ordering::Relaxed);
            if let Some(pause) = throttle {
                std::thread::sleep(pause);
            }
            let tenant_name = job.tenant.as_ref().map(|t| t.name.clone());
            let result = engine
                .start_for_tenant(&job.process, job.input, tenant_name)
                .and_then(|id| engine.run_to_quiescence(id).map(|s| (id, s)))
                .and_then(|(id, status)| engine.output(id).map(|out| (id, status, out)))
                .map_err(|e| {
                    let unknown = matches!(e, EngineError::UnknownProcess(_));
                    (e.to_string(), unknown)
                });
            replies.push((job.reply, result));
        }
        gauge.set(depth.load(Ordering::Relaxed));

        // One group commit for the whole batch, *then* the
        // acknowledgements: an ACK certifies durability.
        match engine.flush_journal() {
            Err(e) => {
                for (reply, _) in replies {
                    reply(Err((format!("journal flush failed: {e}"), false)));
                }
            }
            Ok(()) => {
                for (reply, result) in replies {
                    reply(result);
                }
            }
        }
        // A barrier answers only once every job queued before it has
        // been processed and flushed — i.e. once the lanes are dry.
        if queued == 0 && !barriers.is_empty() {
            for b in barriers.drain(..) {
                let _ = b.send(());
            }
        }
    }
    // Final barrier so nothing accepted is left unflushed.
    let _ = engine.flush_journal();
}

#[cfg(test)]
mod tests {
    use super::{
        decode_ext, encode_ext, parse_meta, resume_running, spec_hash_of, MigrationPolicy,
        PoolConfig, PoolError, ServerMeta, ShardPool, SubmitOutcome, TENANT_BITS,
    };
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use txn_substrate::{MultiDatabase, ProgramOutcome, ProgramRegistry};
    use wfms_model::{Container, ProcessBuilder, ProcessDefinition};
    use wfms_observe::Registry;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wfms-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A version of process `one`: a single step named `step`.
    fn one(step: &str) -> ProcessDefinition {
        ProcessBuilder::new("one")
            .program(step, "ok")
            .build()
            .unwrap()
    }

    fn open(dir: &Path, templates: Vec<ProcessDefinition>) -> Result<ShardPool, PoolError> {
        let mut cfg = PoolConfig::new(dir);
        cfg.templates = templates;
        ShardPool::open(cfg, Arc::new(Registry::new()), &|_| {
            let fed = MultiDatabase::new(0);
            fed.add_database("db");
            let programs = Arc::new(ProgramRegistry::new());
            programs.register_fn("ok", |_| ProgramOutcome::committed());
            (fed, programs)
        })
    }

    /// The version a new submission of `one` is pinned to.
    fn submitted_version(pool: &ShardPool) -> String {
        let SubmitOutcome::Accepted { id, .. } = pool.submit("one", Container::empty()) else {
            panic!("submit rejected");
        };
        pool.status(id).expect("just accepted").2
    }

    /// A crash while `templates/<hash>.json` was being written leaves
    /// an empty or half-length file under a name that promises the
    /// content. The next open rewrites it: existence proves nothing.
    #[test]
    fn a_torn_template_file_is_rewritten_not_trusted() {
        let dir = temp_dir("torn-template");
        let def = one("A");
        let file = dir
            .join("templates")
            .join(format!("{:016x}.json", spec_hash_of(&def)));
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, "").unwrap();

        drop(open(&dir, vec![def.clone()]).unwrap());
        let stored: ProcessDefinition =
            serde_json::from_str(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert_eq!(spec_hash_of(&stored), spec_hash_of(&def));
        open(&dir, vec![def]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One rule for defaults, whatever the journal holds: the first
    /// stored version of a name is its initial default and only a
    /// journalled `TemplateDeployed` moves it. (Before `Engine::open`, a
    /// shard whose journal was absent registered the stored versions
    /// live instead, which left the *last* one the default.) A shard
    /// that lost its journal therefore starts `one` on v1 again, like a
    /// shard whose journal never saw the deploy; deploying v2 again
    /// moves it.
    #[test]
    fn only_the_journal_moves_a_default() {
        let dir = temp_dir("defaults");
        let v1 = format!("{:016x}", spec_hash_of(&one("A")));
        let v2 = format!("{:016x}", spec_hash_of(&one("B")));
        {
            let pool = open(&dir, vec![one("A")]).unwrap();
            pool.deploy(one("B"), MigrationPolicy::DrainOld).unwrap();
            assert_eq!(submitted_version(&pool), v2);
        }
        assert_eq!(submitted_version(&open(&dir, Vec::new()).unwrap()), v2);

        std::fs::remove_file(dir.join("shard-0.journal")).unwrap();
        let pool = open(&dir, Vec::new()).unwrap();
        assert_eq!(submitted_version(&pool), v1);
        pool.deploy(one("B"), MigrationPolicy::DrainOld).unwrap();
        assert_eq!(submitted_version(&pool), v2);
        drop(pool);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The three `server.meta.json` shapes ever written each parse to
    /// the meta they upgrade to; anything else is a "bad meta" error.
    #[test]
    fn every_meta_shape_ever_written_still_parses() {
        let h = |s: &str| vec![s.to_owned()];
        let current = ServerMeta {
            shards: 4,
            templates: h("00ab"),
            tenant_bits: TENANT_BITS as usize,
            tenants: h("acme"),
        };
        let text = serde_json::to_string(&current).unwrap();
        assert_eq!(parse_meta(&text).unwrap(), current);

        let pre_tenancy = parse_meta(r#"{"shards":2,"templates":["00ab"]}"#).unwrap();
        assert_eq!(
            pre_tenancy,
            ServerMeta {
                shards: 2,
                templates: h("00ab"),
                tenant_bits: 0,
                tenants: Vec::new(),
            }
        );

        let pre_versioning = parse_meta(r#"{"shards":3}"#).unwrap();
        assert_eq!(
            pre_versioning,
            ServerMeta {
                shards: 3,
                templates: Vec::new(),
                tenant_bits: 0,
                tenants: Vec::new(),
            }
        );

        for garbage in [
            "",
            "not json",
            "{}",
            r#"{"shards":"two"}"#,
            r#"{"templates":[]}"#,
        ] {
            match parse_meta(garbage) {
                Err(PoolError::Io(e)) => {
                    assert!(e.to_string().starts_with("bad meta: "), "{garbage:?}: {e}")
                }
                other => panic!("{garbage:?} parsed as {other:?}"),
            }
        }
    }

    /// An instance that cannot be navigated onward at reopen (here: the
    /// journal mirror refuses writes) is counted, not printed, and does
    /// not stop the other instances from being resumed.
    #[test]
    fn failed_resumes_are_counted() {
        use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramOutcome, ProgramRegistry};
        use wfms_engine::{recover_from, Journal, OrgModel};
        use wfms_model::{Container, ProcessBuilder};

        let path = std::env::temp_dir().join(format!("wfms-resume-{}", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let read_only = std::fs::File::open(&path).unwrap();
        let journal =
            Journal::with_injected_file(read_only, path.clone(), DurabilityPolicy::PerEvent);
        let fed = MultiDatabase::new(0);
        fed.add_database("db");
        let programs = std::sync::Arc::new(ProgramRegistry::new());
        programs.register_fn("ok", |_| ProgramOutcome::committed());
        let template = ProcessBuilder::new("one")
            .program("A", "ok")
            .build()
            .unwrap();
        let engine = recover_from(
            journal,
            Vec::new(),
            vec![template],
            OrgModel::new(),
            fed,
            programs,
        )
        .unwrap();
        engine.start("one", Container::empty()).unwrap();
        engine.start("one", Container::empty()).unwrap();

        let failures = wfms_observe::Counter::new();
        assert_eq!(resume_running(&engine, &failures), 2);
        assert_eq!(failures.get(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every (local, shard) pair round-trips through the wire fold,
    /// including locals at the top of the representable range. With
    /// tenancy disabled (`tenant_bits == 0`) the fold is byte-identical
    /// to the pre-tenancy layout.
    #[test]
    fn ext_ids_roundtrip_near_u64_boundaries() {
        for &n in &[1u64, 3, 16] {
            let max_local = u64::MAX / n;
            for &local in &[1u64, 2, 7, 1000, max_local - 1, max_local] {
                for shard in 0..n as usize {
                    if local == max_local && shard as u64 > u64::MAX - local * n {
                        continue; // ext would not be representable
                    }
                    let ext = encode_ext(local, shard, n, 0, 0);
                    assert_eq!(ext, local * n + shard as u64, "layout is pinned");
                    assert_eq!(
                        decode_ext(ext, n, 0),
                        Some((shard, local, 0)),
                        "nshards={n} local={local} shard={shard}"
                    );
                }
            }
        }
    }

    /// With tenancy enabled the top [`TENANT_BITS`] carry the slot and
    /// the base fold round-trips in the remaining low bits, including
    /// locals at the top of the narrowed range.
    #[test]
    fn tenanted_ext_ids_roundtrip_near_base_boundaries() {
        let base_max = u64::MAX >> TENANT_BITS;
        for &n in &[1u64, 3, 16] {
            let max_local = base_max / n;
            for &slot in &[0u16, 1, 5, 255] {
                for &local in &[1u64, 2, 1000, max_local - 1, max_local] {
                    for shard in 0..n as usize {
                        if local * n + shard as u64 > base_max {
                            continue; // base would spill into the slot bits
                        }
                        let ext = encode_ext(local, shard, n, slot, TENANT_BITS);
                        assert_eq!(
                            ext >> (64 - TENANT_BITS),
                            u64::from(slot),
                            "slot occupies the top bits"
                        );
                        assert_eq!(
                            decode_ext(ext, n, TENANT_BITS),
                            Some((shard, local, slot)),
                            "nshards={n} local={local} shard={shard} slot={slot}"
                        );
                    }
                }
            }
        }
    }

    /// Locals are allocated from 1, so a base that folds to local 0
    /// never names an instance and must decode to `None` — with and
    /// without tenant bits — and the first representable id per shard
    /// decodes cleanly.
    #[test]
    fn small_ext_ids_decode_to_none() {
        for &n in &[1u64, 3, 16] {
            for ext in 0..n {
                assert_eq!(decode_ext(ext, n, 0), None, "nshards={n} ext={ext}");
                let tenanted = (7u64 << (64 - TENANT_BITS)) | ext;
                assert_eq!(decode_ext(tenanted, n, TENANT_BITS), None);
            }
            for shard in 0..n as usize {
                assert_eq!(decode_ext(n + shard as u64, n, 0), Some((shard, 1, 0)));
                let tenanted = (7u64 << (64 - TENANT_BITS)) | (n + shard as u64);
                assert_eq!(
                    decode_ext(tenanted, n, TENANT_BITS),
                    Some((shard, 1, 7)),
                    "nshards={n} shard={shard}"
                );
            }
        }
    }
}
