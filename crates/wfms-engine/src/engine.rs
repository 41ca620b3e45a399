//! The engine — the public API tying templates, instances, programs,
//! the organization, worklists, the journal and the clock together.
//!
//! State is split into independently locked fields (templates,
//! instances, organization, worklists; the journal synchronises
//! internally and the id allocators are atomics) instead of one big
//! mutex. Navigation of one instance only ever holds the instances
//! lock plus, transiently, the org/worklist locks.
//!
//! There is one way to build an engine, [`Engine::open`]: recovery is
//! what opening does when the journal is not empty. And one way to
//! drive many instances, [`Engine::run_all`]; parallelism is a shard
//! per core, each shard its own engine over its own substrate
//! (`wfms-server`).

use crate::compiled::CompiledProcess;
use crate::event::{Event, InstanceId, WorkItemId};
use crate::journal::Journal;
use crate::metrics::{act_probes, ActProbes, EngineObs, JournalProbes};
use crate::navigator::{self, NavServices};
use crate::org::OrgModel;
use crate::recovery::{self, RecoveryError, Replayed};
use crate::registry::{TemplateRegistry, TemplateVersion};
use crate::state::{ActState, Instance, InstanceStatus};
use crate::worklist::{WorkItem, WorkItemState, WorklistError, WorklistStore};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txn_substrate::{DurabilityPolicy, MirrorError, MultiDatabase, ProgramRegistry, VirtualClock};
use wfms_model::{validate, Container, ProcessDefinition, ValidationError};
use wfms_observe::Observer;

/// Errors surfaced by the engine API.
#[derive(Debug)]
pub enum EngineError {
    /// `register` rejected a definition.
    Validation(Vec<ValidationError>),
    /// No template with this name.
    UnknownProcess(String),
    /// No instance with this id.
    UnknownInstance(InstanceId),
    /// A worklist operation failed.
    Worklist(WorklistError),
    /// The addressed activity does not exist or is in the wrong state.
    BadActivityState {
        /// Activity path.
        path: String,
        /// What the operation needed.
        expected: &'static str,
    },
    /// `run_to_quiescence` exceeded the configured step limit — almost
    /// always a livelock from an exit condition that can never become
    /// true.
    StepLimit(usize),
    /// The journal's file mirror failed (disk full, permissions, …).
    /// The in-memory journal and all instance state are intact — the
    /// engine *parks* rather than panicking — but nothing further is
    /// durable, so the caller must decide whether to carry on
    /// memory-only or stop and repair.
    Journal(MirrorError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Validation(errs) => {
                writeln!(f, "definition rejected with {} error(s):", errs.len())?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            EngineError::UnknownProcess(p) => write!(f, "no process template named {p:?}"),
            EngineError::UnknownInstance(i) => write!(f, "no instance {i}"),
            EngineError::Worklist(e) => write!(f, "worklist: {e}"),
            EngineError::BadActivityState { path, expected } => {
                write!(f, "activity {path:?} is not {expected}")
            }
            EngineError::StepLimit(n) => {
                write!(f, "step limit of {n} reached; livelocked exit condition?")
            }
            EngineError::Journal(e) => {
                write!(f, "journal mirror failed (instances parked): {e}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<WorklistError> for EngineError {
    fn from(e: WorklistError) -> Self {
        EngineError::Worklist(e)
    }
}

impl From<MirrorError> for EngineError {
    fn from(e: MirrorError) -> Self {
        EngineError::Journal(e)
    }
}

/// Construction-time options.
pub struct EngineConfig {
    /// Organization database.
    pub org: OrgModel,
    /// Mirror the journal to this file (enables recovery across real
    /// process restarts).
    pub journal_path: Option<PathBuf>,
    /// When the journal mirror flushes/syncs (ignored without
    /// `journal_path`). See [`DurabilityPolicy`].
    pub durability: DurabilityPolicy,
    /// Upper bound on navigation steps per `run_to_quiescence` call.
    pub step_limit: usize,
    /// Observability: pass [`Observer::enabled`] to record per-activity
    /// latency histograms, navigator counters and journal flush timing.
    /// `None` (the default) installs a disabled observer — every
    /// hot-path hook reduces to one branch and records nothing.
    pub observer: Option<Arc<Observer>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            org: OrgModel::new(),
            journal_path: None,
            durability: DurabilityPolicy::default(),
            step_limit: 1_000_000,
            observer: None,
        }
    }
}

/// What [`Engine::migrate_to_default`] did to the instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// The instance now runs under the default version; a `Migrated`
    /// event was journalled before the state transfer.
    Migrated {
        /// Version the instance was pinned to (hex spec hash).
        from: String,
        /// The new default it migrated to.
        to: String,
    },
    /// The instance was already pinned to the default version.
    AlreadyCurrent,
    /// The instance stays on its pinned version — it is not at a
    /// migratable point (an activity or nested block is mid-flight),
    /// its begun work has no counterpart in the new version, or it is
    /// no longer running. Drain-old semantics apply: it finishes under
    /// the version it started with.
    Skipped {
        /// Why the instance was left on its pinned version.
        reason: String,
    },
}

/// Figure 5's import stage — specification → validated model →
/// executable template: validate, compile, optimize. The one route a
/// definition takes into a template registry, at open and at
/// [`Engine::register`] alike, so a reopened engine navigates exactly
/// the templates the crashed one did.
pub(crate) fn import(def: ProcessDefinition) -> Result<Arc<CompiledProcess>, Vec<ValidationError>> {
    let errors = validate(&def);
    if !errors.is_empty() {
        return Err(errors);
    }
    let tpl = CompiledProcess::compile_arc(Arc::new(def));
    Ok(Arc::new(crate::optimize::optimize(&tpl).0))
}

/// The workflow engine.
pub struct Engine {
    pub(crate) templates: Mutex<TemplateRegistry>,
    pub(crate) instances: Mutex<BTreeMap<InstanceId, Instance>>,
    pub(crate) org: Mutex<OrgModel>,
    pub(crate) worklists: Mutex<WorklistStore>,
    pub(crate) journal: Journal,
    pub(crate) next_instance: AtomicU64,
    pub(crate) next_item: AtomicU64,
    pub(crate) step_limit: usize,
    pub(crate) programs: Arc<ProgramRegistry>,
    pub(crate) multidb: Arc<MultiDatabase>,
    pub(crate) clock: VirtualClock,
    pub(crate) obs: EngineObs,
    /// Per-template latency probes, built lazily on first start and
    /// shared by every instance of the template.
    pub(crate) probes: Mutex<HashMap<u64, ActProbes>>,
}

impl Engine {
    /// Opens an engine over the journal `config` names — the one way an
    /// engine is built. `templates` are imported like [`Engine::register`]
    /// imports them (validate → compile → optimize) without journalling
    /// anything: the first definition of a name is that name's initial
    /// default, and only `TemplateDeployed` events in the journal move
    /// it. Whatever the journal already holds is then replayed and the
    /// interrupted navigation repaired (see [`crate::recovery`]) —
    /// nothing, for a new or absent file, so restart after a crash and
    /// first start are the same call. `templates` must contain every
    /// definition the journal's instances were started from. The engine
    /// appends to the same journal, so crash–reopen cycles chain, and it
    /// shares the multidatabase's virtual clock so database events and
    /// navigation events are on one timeline.
    pub fn open(
        multidb: Arc<MultiDatabase>,
        programs: Arc<ProgramRegistry>,
        config: EngineConfig,
        templates: Vec<ProcessDefinition>,
    ) -> Result<Self, RecoveryError> {
        // A journal file is replayed by the pass that opens it: each
        // event is decoded, applied and dropped.
        let mut replayed = Replayed::over(templates)?;
        let journal = match &config.journal_path {
            Some(p) => {
                Journal::replaying(p, config.durability, |ev| replayed.feed(&ev))
                    .map_err(RecoveryError::Io)?
                    .0
            }
            None => Journal::new(),
        };
        Self::open_on(journal, replayed, multidb, programs, config)
    }

    /// The engine over `journal` (`config.journal_path` is not
    /// consulted) and the state `replayed` from it, with the navigation
    /// the crash interrupted repaired.
    pub(crate) fn open_on(
        journal: Journal,
        replayed: Replayed,
        multidb: Arc<MultiDatabase>,
        programs: Arc<ProgramRegistry>,
        config: EngineConfig,
    ) -> Result<Self, RecoveryError> {
        let Replayed {
            registry,
            instances,
            mut worklists,
            next_instance,
            next_item,
            max_tick,
            ..
        } = replayed.finish()?;

        // Claims are leases held by a live session: the replay just
        // re-claimed items for workers that died with the crashed engine,
        // which would park those items on dead worklists forever. Put them
        // back on offer. Not journalled — replaying the same journal again
        // (a chained crash–reopen cycle) re-claims and re-releases
        // identically, so the repair is deterministic.
        let stale_claims = worklists.release_stale_claims();

        let clock = multidb.clock().clone();
        clock.advance_to(max_tick);

        let observer = config
            .observer
            .unwrap_or_else(|| Arc::new(Observer::disabled()));
        if observer.is_enabled() {
            journal.attach_probes(JournalProbes::new(observer.registry()));
        }
        journal.attach_fault_counters(observer.registry());
        if stale_claims > 0 {
            observer
                .registry()
                .counter("recovery.stale_claims_released")
                .add(stale_claims as u64);
        }
        let engine = Self {
            templates: Mutex::new(registry),
            instances: Mutex::new(instances),
            org: Mutex::new(config.org),
            worklists: Mutex::new(worklists),
            journal,
            next_instance: AtomicU64::new(next_instance),
            next_item: AtomicU64::new(next_item),
            step_limit: config.step_limit,
            programs,
            multidb,
            clock,
            obs: EngineObs::new(observer),
            probes: Mutex::new(HashMap::new()),
        };
        if engine.obs.enabled() {
            for inst in engine.instances.lock().values_mut() {
                inst.probes = Some(engine.probes_for(&inst.tpl));
            }
        }
        recovery::resume(&engine);
        Ok(engine)
    }

    /// [`Engine::open`] with default configuration and no templates.
    pub fn new(multidb: Arc<MultiDatabase>, programs: Arc<ProgramRegistry>) -> Self {
        Self::with_config(multidb, programs, EngineConfig::default())
    }

    /// [`Engine::open`] with no templates, for a journal that holds no
    /// instances yet; register templates afterwards.
    ///
    /// # Panics
    /// Panics if the journal file cannot be opened, or if it already
    /// holds history — replaying that needs the templates, which only
    /// [`Engine::open`] takes.
    pub fn with_config(
        multidb: Arc<MultiDatabase>,
        programs: Arc<ProgramRegistry>,
        config: EngineConfig,
    ) -> Self {
        Self::open(multidb, programs, config, Vec::new())
            .unwrap_or_else(|e| panic!("cannot open engine: {e}"))
    }

    /// Surfaces a journal-mirror failure as [`EngineError::Journal`].
    /// Checked at every navigation entry point: once the mirror is
    /// broken nothing further would be durable, so affected instances
    /// park (their in-memory state is untouched and still queryable)
    /// instead of the engine panicking mid-navigation.
    fn check_journal(&self) -> Result<(), EngineError> {
        match self.journal.mirror_error() {
            Some(e) => Err(EngineError::Journal(e)),
            None => Ok(()),
        }
    }

    /// The engine's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The shared multidatabase.
    pub fn multidb(&self) -> &Arc<MultiDatabase> {
        &self.multidb
    }

    /// The program registry.
    pub fn programs(&self) -> &Arc<ProgramRegistry> {
        &self.programs
    }

    /// The navigation services of this engine.
    pub(crate) fn services(&self) -> NavServices<'_> {
        NavServices {
            journal: &self.journal,
            clock: &self.clock,
            org: &self.org,
            worklists: &self.worklists,
            next_item: &self.next_item,
            programs: &self.programs,
            multidb: &self.multidb,
            obs: &self.obs,
        }
    }

    /// The probes for `tpl`, built on first use and cached. Keyed by
    /// the spec hash, as the template registry is: two versions of one
    /// process can have different slot layouts.
    fn probes_for(&self, tpl: &Arc<CompiledProcess>) -> ActProbes {
        let mut cache = self.probes.lock();
        Arc::clone(
            cache
                .entry(tpl.spec_hash)
                .or_insert_with(|| act_probes(&tpl.layout, self.obs.observer.registry())),
        )
    }

    /// Validates a definition and registers its **compiled template**
    /// (Figure 5's import stage: specification → validated model →
    /// executable template). Compilation interns activity names,
    /// builds the connector adjacency, constant-folds every transition
    /// and exit condition and flattens the data-connector maps — all
    /// navigation then runs on the indexed form. The compiled template
    /// is then [optimized](crate::optimize): condition values are
    /// propagated through the graph, decidable plans become constants
    /// and statically-dead activities are pruned from the data and
    /// deadline indexes (the event stream is unchanged).
    ///
    /// Templates are versioned by the content hash of the definition
    /// ([`crate::compiled::spec_hash_of`]); the returned
    /// [`TemplateVersion`] names the version this definition compiled
    /// to. Registering a *different* definition under an existing name
    /// journals a `TemplateDeployed` event and makes the new version
    /// the default for future [`Engine::start`]s; running instances
    /// stay pinned to the version they started under (their own
    /// `Arc`). Re-registering the current default is an idempotent
    /// no-op.
    pub fn register(&self, def: ProcessDefinition) -> Result<TemplateVersion, EngineError> {
        import(def)
            .map(|tpl| self.register_compiled(tpl))
            .map_err(EngineError::Validation)
    }

    /// Registers an already compiled template (e.g. one produced by a
    /// front-end pipeline that validated the definition itself). Same
    /// versioning semantics as [`Engine::register`].
    pub fn register_compiled(&self, tpl: Arc<CompiledProcess>) -> TemplateVersion {
        // The deploy event is journalled while the registry lock is
        // held: anything that resolves the default (`start`) also
        // journals under this lock, so journal order always matches
        // which default each instance actually got.
        let mut registry = self.templates.lock();
        let (version, deployed) = registry.insert(tpl, true);
        if deployed {
            self.journal.append(Event::TemplateDeployed {
                process: version.process.clone(),
                version: version.version.clone(),
                at: self.clock.now(),
            });
        }
        version
    }

    /// The current default template of `name`.
    pub fn template(&self, name: &str) -> Option<Arc<CompiledProcess>> {
        self.templates.lock().default_tpl(name)
    }

    /// Registered template names, sorted.
    pub fn template_names(&self) -> Vec<String> {
        self.templates.lock().names()
    }

    /// Every version registered under `name` (hex spec hashes, in
    /// registration order).
    pub fn template_versions(&self, name: &str) -> Vec<String> {
        self.templates.lock().versions(name)
    }

    /// The default version of `name` — what a new instance would be
    /// pinned to.
    pub fn default_version(&self, name: &str) -> Option<String> {
        self.templates.lock().default_tpl(name).map(|t| t.version())
    }

    /// The template version instance `id` is pinned to.
    pub fn instance_version(&self, id: InstanceId) -> Result<String, EngineError> {
        self.instances
            .lock()
            .get(&id)
            .map(|i| i.tpl.version())
            .ok_or(EngineError::UnknownInstance(id))
    }

    /// Starts an instance of `process` with `input` seeding the
    /// process input container, and navigates its start activities to
    /// ready. Does not run anything yet — call
    /// [`Engine::run_to_quiescence`]. The instance is pinned to the
    /// current default version of `process` for its whole life (unless
    /// explicitly migrated).
    pub fn start(&self, process: &str, input: Container) -> Result<InstanceId, EngineError> {
        self.start_for_tenant(process, input, None)
    }

    /// [`Engine::start`] with an owning tenant: the tenant name is
    /// journalled on the `InstanceStarted` event and restored by
    /// recovery, so instance→tenant attribution survives `kill -9`.
    pub fn start_for_tenant(
        &self,
        process: &str,
        input: Container,
        tenant: Option<String>,
    ) -> Result<InstanceId, EngineError> {
        // Hold the registry lock until InstanceStarted is journalled:
        // a deploy journalled before this event is then guaranteed to
        // have been the default this instance resolved, which is what
        // lets replay re-resolve the pin from journal order alone.
        let registry = self.templates.lock();
        let tpl = registry
            .default_tpl(process)
            .ok_or_else(|| EngineError::UnknownProcess(process.to_owned()))?;
        let mut instances = self.instances.lock();
        let id = InstanceId(self.next_instance.fetch_add(1, Ordering::Relaxed));
        let mut inst = Instance::new(id, tpl);
        inst.tenant = tenant;
        if self.obs.enabled() {
            inst.probes = Some(self.probes_for(&inst.tpl));
        }
        inst.seed_input(&input);
        navigator::start_instance(&mut inst, &self.services());
        instances.insert(id, inst);
        drop(registry);
        Ok(id)
    }

    /// The tenant instance `id` was started under (`None` for
    /// untenanted instances).
    pub fn instance_tenant(&self, id: InstanceId) -> Result<Option<String>, EngineError> {
        self.instances
            .lock()
            .get(&id)
            .map(|i| i.tenant.clone())
            .ok_or(EngineError::UnknownInstance(id))
    }

    /// Migrates a running instance to the current default version of
    /// its process — the `migrate-at-scope-boundary` policy. The
    /// transfer is only attempted at a quiescent scope boundary (no
    /// activity and no nested block mid-flight) and only when every
    /// begun activity has a same-named counterpart in the target
    /// version; otherwise the instance is left pinned
    /// ([`MigrationOutcome::Skipped`] — drain-old semantics). On
    /// success a `Migrated{from,to}` event is journalled **before**
    /// the in-memory state transfer (write-ahead, like every other
    /// navigation event), so a crash at any point either replays the
    /// instance fully un-migrated or re-applies the same deterministic
    /// transfer.
    pub fn migrate_to_default(&self, id: InstanceId) -> Result<MigrationOutcome, EngineError> {
        self.check_journal()?;
        // Lock order elsewhere is registry → instances, so resolve the
        // target before locking the instance map (no nesting at all).
        // It still matters under a server whose shard worker is the
        // engine's only writer: readers (status, worklist, the scrape)
        // take these locks from other threads.
        let name = self
            .instances
            .lock()
            .get(&id)
            .map(|i| i.tpl.name().to_owned())
            .ok_or(EngineError::UnknownInstance(id))?;
        let target = self
            .template(&name)
            .ok_or(EngineError::UnknownProcess(name))?;
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        if inst.tpl.spec_hash == target.spec_hash {
            return Ok(MigrationOutcome::AlreadyCurrent);
        }
        if inst.status != InstanceStatus::Running {
            return Ok(MigrationOutcome::Skipped {
                reason: format!("instance is {:?}", inst.status),
            });
        }
        let mut migrated = match inst.migrate_to(&target) {
            Ok(m) => m,
            Err(reason) => return Ok(MigrationOutcome::Skipped { reason }),
        };
        let from = inst.tpl.version();
        let to = target.version();
        self.journal.append(Event::Migrated {
            instance: id,
            from: from.clone(),
            to: to.clone(),
            at: self.clock.now(),
        });
        if self.obs.enabled() {
            migrated.probes = Some(self.probes_for(&target));
        }
        *inst = migrated;
        // The transferred frontier may owe navigation the new version
        // introduces (fresh edges out of terminated activities, joins
        // that are now decidable). Repair it with exactly recovery's
        // resume pass — live and post-crash migration then journal the
        // same continuation events.
        let counts = recovery::fixup_instance(inst, &self.services());
        counts.record(self.obs.observer.registry(), "migration.fixups");
        self.check_journal()?;
        Ok(MigrationOutcome::Migrated { from, to })
    }

    /// Executes at most one ready automatic activity of `id`. Returns
    /// `Ok(true)` if an activity ran, `Ok(false)` at quiescence. Used
    /// by crash tests and benchmarks that need to stop an instance at
    /// an exact point.
    pub fn step(&self, id: InstanceId) -> Result<bool, EngineError> {
        self.check_journal()?;
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let Some(slot) = navigator::find_runnable(inst) else {
            return Ok(false);
        };
        navigator::execute_activity(inst, &self.services(), slot, None);
        self.check_journal()?;
        Ok(true)
    }

    /// Runs every ready automatic activity of `id` (including those
    /// that become ready as a consequence) until none is runnable.
    /// Manual activities stay on worklists. Returns the instance
    /// status at quiescence.
    pub fn run_to_quiescence(&self, id: InstanceId) -> Result<InstanceStatus, EngineError> {
        self.check_journal()?;
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        match navigator::drive_to_quiescence(inst, &self.services(), self.step_limit) {
            Some(_) => {
                self.check_journal()?;
                Ok(inst.status)
            }
            None => Err(EngineError::StepLimit(self.step_limit)),
        }
    }

    /// Runs every instance to quiescence, in id order.
    pub fn run_all(&self) -> Result<(), EngineError> {
        let ids: Vec<InstanceId> = self.instances.lock().keys().copied().collect();
        for id in ids {
            self.run_to_quiescence(id)?;
        }
        Ok(())
    }

    /// The worklist of `person` (clones of the visible items).
    pub fn worklist(&self, person: &str) -> Vec<WorkItem> {
        self.worklists
            .lock()
            .worklist(person)
            .into_iter()
            .cloned()
            .collect()
    }

    /// The instance a work item belongs to, if the item exists.
    pub fn item_instance(&self, item: WorkItemId) -> Option<InstanceId> {
        self.worklists.lock().get(item).map(|it| it.instance)
    }

    /// Claims a work item for `person`; it disappears from every other
    /// worklist.
    pub fn claim(&self, item: WorkItemId, person: &str) -> Result<(), EngineError> {
        let at = self.clock.now();
        self.worklists.lock().claim(item, person)?;
        self.journal.append(Event::WorkItemClaimed {
            item,
            person: person.to_owned(),
            at,
        });
        Ok(())
    }

    /// Releases a claimed work item back to every eligible worklist
    /// (§3.3: a user may stop work they selected; the activity
    /// becomes available for load balancing again).
    pub fn release(&self, item: WorkItemId, person: &str) -> Result<(), EngineError> {
        let at = self.clock.now();
        let mut worklists = self.worklists.lock();
        worklists.release(item, person)?;
        let (instance, path) = worklists
            .get(item)
            .map(|it| (it.instance, it.path.clone()))
            .unwrap_or((InstanceId(0), String::new()));
        drop(worklists);
        self.journal.append(Event::UserIntervention {
            instance,
            path: path.into(),
            action: format!("release {item} by {person}"),
            at,
        });
        Ok(())
    }

    /// Marks a person absent (optionally naming a substitute) or
    /// present again. Affects *future* work-item offers; items already
    /// offered stay with their original offerees (§3.3's organization
    /// is consulted at staff-resolution time).
    pub fn set_absent(&self, person: &str, absent: bool, substitute: Option<&str>) {
        self.org.lock().set_absent(person, absent, substitute);
    }

    /// The process (template name) instance `id` was started from — a
    /// keyed lookup, unlike scanning [`Engine::instances`].
    pub fn instance_process(&self, id: InstanceId) -> Result<String, EngineError> {
        self.instances
            .lock()
            .get(&id)
            .map(|i| i.tpl.name().to_owned())
            .ok_or(EngineError::UnknownInstance(id))
    }

    /// Instance counts `(running, finished, cancelled)`, tallied under
    /// the lock without materialising [`Engine::instances`].
    pub fn instance_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for inst in self.instances.lock().values() {
            match inst.status {
                InstanceStatus::Running => counts.0 += 1,
                InstanceStatus::Finished => counts.1 += 1,
                InstanceStatus::Cancelled => counts.2 += 1,
            }
        }
        counts
    }

    /// All instances: `(id, process name, status)`.
    pub fn instances(&self) -> Vec<(InstanceId, String, InstanceStatus)> {
        self.instances
            .lock()
            .values()
            .map(|i| (i.id, i.tpl.name().to_owned(), i.status))
            .collect()
    }

    /// Executes a work item `person` has claimed (claiming it first if
    /// still offered), then continues automatic navigation of the
    /// instance.
    pub fn execute_item(&self, item: WorkItemId, person: &str) -> Result<(), EngineError> {
        self.check_journal()?;
        let it = {
            let mut worklists = self.worklists.lock();
            let it = worklists
                .get(item)
                .ok_or(EngineError::Worklist(WorklistError::NoSuchItem(item)))?
                .clone();
            match &it.state {
                WorkItemState::Offered => {
                    worklists.claim(item, person)?;
                    let at = self.clock.now();
                    self.journal.append(Event::WorkItemClaimed {
                        item,
                        person: person.to_owned(),
                        at,
                    });
                }
                WorkItemState::Claimed(p) if p == person => {}
                WorkItemState::Claimed(p) => {
                    return Err(EngineError::Worklist(WorklistError::AlreadyClaimed {
                        item,
                        by: p.clone(),
                    }))
                }
                WorkItemState::Closed => {
                    return Err(EngineError::Worklist(WorklistError::Closed(item)))
                }
            }
            it
        };
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(&it.instance)
            .ok_or(EngineError::UnknownInstance(it.instance))?;
        // The underlying activity must still be ready at the claimed
        // attempt.
        let slot = inst
            .live_slot(&it.path)
            .filter(|&slot| inst.slab.acts[slot as usize].state == ActState::Ready)
            .ok_or_else(|| EngineError::BadActivityState {
                path: it.path.clone(),
                expected: "ready",
            })?;
        let svc = self.services();
        navigator::execute_activity(inst, &svc, slot, Some(person.to_owned()));
        match navigator::drive_to_quiescence(inst, &svc, self.step_limit) {
            Some(_) => Ok(()),
            None => Err(EngineError::StepLimit(self.step_limit)),
        }
    }

    /// Operator intervention (§3.3): forces a ready or running
    /// activity to finish with return code `rc` and no outputs, then
    /// continues navigation.
    pub fn force_finish(&self, id: InstanceId, path: &str, rc: i64) -> Result<(), EngineError> {
        self.check_journal()?;
        let mut instances = self.instances.lock();
        let at = self.clock.now();
        let inst = instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        let slot = inst
            .live_slot(path)
            .filter(|&slot| {
                matches!(
                    inst.slab.acts[slot as usize].state,
                    ActState::Ready | ActState::Running
                )
            })
            .ok_or_else(|| EngineError::BadActivityState {
                path: path.to_owned(),
                expected: "ready or running",
            })?;
        self.journal.append(Event::UserIntervention {
            instance: id,
            path: path.into(),
            action: format!("force-finish rc={rc}"),
            at,
        });
        let svc = self.services();
        navigator::complete_execution(inst, &svc, slot, rc, &Container::empty());
        match navigator::drive_to_quiescence(inst, &svc, self.step_limit) {
            Some(_) => Ok(()),
            None => Err(EngineError::StepLimit(self.step_limit)),
        }
    }

    /// Cancels a running instance.
    pub fn cancel(&self, id: InstanceId) -> Result<(), EngineError> {
        let mut instances = self.instances.lock();
        let inst = instances
            .get_mut(&id)
            .ok_or(EngineError::UnknownInstance(id))?;
        navigator::cancel_instance(inst, &self.services());
        Ok(())
    }

    /// Advances the virtual clock and delivers due deadline
    /// notifications. Returns `(activity path, notified person)`
    /// pairs. Instances whose compiled template declares no deadline
    /// at all are skipped without touching their state.
    pub fn advance_clock(&self, ticks: txn_substrate::Tick) -> Vec<(String, String)> {
        self.clock.advance(ticks);
        let mut instances = self.instances.lock();
        let svc = self.services();
        let mut sent = Vec::new();
        for inst in instances.values_mut() {
            if inst.status != InstanceStatus::Running || !inst.tpl.root.any_deadlines {
                continue;
            }
            sent.extend(navigator::check_deadlines(inst, &svc));
        }
        sent
    }

    /// Current status of an instance.
    pub fn status(&self, id: InstanceId) -> Result<InstanceStatus, EngineError> {
        self.instances
            .lock()
            .get(&id)
            .map(|i| i.status)
            .ok_or(EngineError::UnknownInstance(id))
    }

    /// The process output container of an instance (final once the
    /// instance is finished).
    pub fn output(&self, id: InstanceId) -> Result<Container, EngineError> {
        self.instances
            .lock()
            .get(&id)
            .map(|i| i.root_output().clone())
            .ok_or(EngineError::UnknownInstance(id))
    }

    /// Runtime inspection: `(state, executed, attempt)` of the
    /// activity at `path`.
    pub fn activity_state(
        &self,
        id: InstanceId,
        path: &str,
    ) -> Result<(ActState, bool, u32), EngineError> {
        let instances = self.instances.lock();
        let inst = instances.get(&id).ok_or(EngineError::UnknownInstance(id))?;
        inst.live_slot(path)
            .map(|slot| {
                let act = &inst.slab.acts[slot as usize];
                (act.state, act.executed, act.attempt)
            })
            .ok_or(EngineError::BadActivityState {
                path: path.to_owned(),
                expected: "present",
            })
    }

    /// All journal events (copy).
    pub fn journal_events(&self) -> Vec<Event> {
        self.journal.events()
    }

    /// Journal events of one instance.
    pub fn events_for(&self, id: InstanceId) -> Vec<Event> {
        self.journal.events_for(id)
    }

    /// Writes an engine checkpoint — a complete snapshot of every
    /// instance, the worklists and the allocators — into the journal
    /// and compacts it, bounding recovery replay time (the engine-side
    /// mirror of [`txn_substrate::Database::checkpoint`]). Safe at any
    /// quiescent point (no navigation in flight — guaranteed here by
    /// holding the instances lock). Returns the number of journal
    /// events dropped.
    pub fn checkpoint(&self) -> usize {
        let registry = self.templates.lock();
        let instances = self.instances.lock();
        let worklists = self.worklists.lock();
        let snaps: Vec<crate::event::InstanceSnapshot> = instances
            .values()
            .map(|i| crate::event::InstanceSnapshot {
                id: i.id,
                process: i.tpl.name().to_owned(),
                tenant: i.tenant.clone(),
                status: i.status,
                version: i.tpl.version(),
                root: i.snapshot_root(),
            })
            .collect();
        let items: Vec<WorkItem> = worklists.live_items().cloned().collect();
        self.journal.append(Event::EngineCheckpoint {
            instances: snaps,
            items,
            next_instance: self.next_instance.load(Ordering::Relaxed),
            next_item: self.next_item.load(Ordering::Relaxed),
            at: self.clock.now(),
        });
        // Compaction drops everything before the checkpoint, including
        // any TemplateDeployed events that moved a default off its
        // initial version. Re-journal the current default of every
        // multi-version name *after* the snapshot so they survive;
        // single-version names journal nothing (their default is the
        // recovery template set's, exactly as pre-versioning).
        for (process, version) in registry.multi_version_defaults() {
            self.journal.append(Event::TemplateDeployed {
                process,
                version,
                at: self.clock.now(),
            });
        }
        self.journal.compact()
    }

    /// Forces the journal mirror to disk — a durability barrier under
    /// any [`DurabilityPolicy`]. After this returns `Ok`, every event
    /// appended so far survives a crash. Group-commit callers (a
    /// server shard batching submissions) append under `Batched{n}`
    /// and call this once per batch before acknowledging any of it.
    pub fn flush_journal(&self) -> Result<(), EngineError> {
        self.journal.flush();
        self.check_journal()
    }

    /// Drains the engine for shutdown: flushes the journal, writes a
    /// checkpoint (compacting the replay history), and flushes again
    /// so the checkpoint itself is durable. Returns the number of
    /// journal events the compaction dropped. The engine stays usable
    /// afterwards — drain is a durability barrier, not a poison pill.
    pub fn drain(&self) -> Result<usize, EngineError> {
        self.flush_journal()?;
        let dropped = self.checkpoint();
        self.flush_journal()?;
        Ok(dropped)
    }

    /// Simulates a crash: drops all volatile state, keeping only what
    /// the journal file (if any) holds. Use [`Engine::open`] on the same
    /// journal to rebuild. Consumes the engine so
    /// no handle can observe the dead state.
    pub fn crash(self) {
        drop(self);
    }
}
