//! The engine — the public API tying templates, instances, programs,
//! the organization, worklists, the journal and the clock together —
//! and the state all of that is.
//!
//! What the journal describes (template defaults, instances, work
//! items, the work-item id allocator) is one value, `EngineState`,
//! with one owner, and it changes one way: an [`Event`] takes effect.
//! The engine takes no lock: that value and the journal are cells its
//! owner borrows, one call at a time.
//! Instance ids are dense — 1, 2, 3, … and none is forgotten — so an
//! instance is found by its id, as its place in the table, and the next
//! id is the table's length + 1. An instance that has stopped running
//! keeps its place but is retired: its slab goes, its outcome stays
//! (`crate::state`). Live, it is retired when the call that navigated it
//! returns; on replay, when `apply` has applied the event that stopped
//! it.
//! `EngineState::apply` is that effect, written once. Replay folds it
//! over the journal; a running engine `emit`s — the same effect, then
//! the event appended — so "replay rebuilds what live navigation
//! built" is not a property to test for but the only way state moves.
//! Two exceptions, both named where they happen: the `EngineCheckpoint`
//! event describes the state instead of changing it (only replay
//! applies it), and [`Engine::release`] hands a claim back with no
//! event (claims are leases of the live session; opening drops them
//! all).
//!
//! There is one way to build an engine, [`Engine::open`]: recovery is
//! what opening does when the journal is not empty. And one way to
//! drive many instances, [`Engine::run_all`]; parallelism is a shard
//! per core, each shard its own engine over its own substrate
//! (`wfms-server`).

use crate::calls::ProgramCalls;
use crate::compiled::CompiledProcess;
use crate::event::{Checkpoint, Event, InstanceId, WorkItemId};
use crate::journal::Journal;
use crate::metrics::{EngineObs, ProbeCache};
use crate::navigator::{self, Dispatch, NavServices};
use crate::org::OrgModel;
use crate::recovery::{self, RecoveryError, Replay, Replayed};
use crate::registry::{TemplateRegistry, TemplateVersion};
use crate::state::{ActState, Instance, InstanceStatus};
use crate::worklist::{WorkItem, WorkItemState, WorklistError, WorklistStore};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use txn_substrate::frame::Name;
use txn_substrate::{
    DurabilityPolicy, MirrorError, MultiDatabase, ProgramRegistry, TailReport, VirtualClock,
};
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
    /// [`Engine::activity_state`] of an instance that has stopped
    /// running: its activities are read back from its journalled
    /// events, and a checkpoint has compacted them away.
    HistoryCompacted(InstanceId),
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
            EngineError::HistoryCompacted(i) => write!(
                f,
                "{i} has stopped running and a checkpoint compacted its history: \
                 its activities are no longer known"
            ),
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
    /// Upper bound on the activities one navigating call runs
    /// (`run_to_quiescence`, `run_with`, `step`, …): one more answers
    /// [`EngineError::StepLimit`]. `step` counts against it too, so an
    /// engine with a limit of `0` answers `StepLimit` from `step`.
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

/// Why an event's effect was refused. A running engine does not journal
/// a refused event (`emit`).
#[derive(Debug)]
pub(crate) enum Refused {
    /// `WorkItemClaimed`: the item is not this person's to claim. Not an
    /// error on replay — a release is not journalled, so the journal of
    /// a claim, a release and a second claim replays as a claim and a
    /// refused one, and opening drops every claim anyway.
    Claim(WorklistError),
    /// The event names a template, a version or a state transfer the
    /// supplied templates do not have.
    Replay(RecoveryError),
}

impl From<RecoveryError> for Refused {
    fn from(e: RecoveryError) -> Self {
        Refused::Replay(e)
    }
}

impl From<Refused> for EngineError {
    fn from(refused: Refused) -> Self {
        match refused {
            Refused::Claim(e) => EngineError::Worklist(e),
            Refused::Replay(RecoveryError::MissingTemplate(p)) => EngineError::UnknownProcess(p),
            Refused::Replay(e) => unreachable!("the engine emitted what it cannot apply: {e}"),
        }
    }
}

/// The engine's state: everything the journal describes, plus the
/// organization — consulted while deciding, written by no event — and
/// the latency probes instances are handed. Built by folding
/// `EngineState::apply` over a journal, changed afterwards by the same
/// function.
pub(crate) struct EngineState {
    pub(crate) registry: TemplateRegistry,
    /// Every instance ever started, in id order: instance `id` at
    /// `id - 1` ([`index_of`]).
    pub(crate) instances: Vec<Instance>,
    /// `instances` by status, `(running, finished, cancelled)`: moved by
    /// the effects that start, finish and cancel one.
    pub(crate) counts: (u64, u64, u64),
    pub(crate) worklists: WorklistStore,
    pub(crate) next_item: u64,
    pub(crate) org: OrgModel,
    /// Built lazily, for a template's first instance while the engine
    /// is observed. Not state the journal describes.
    pub(crate) probes: ProbeCache,
    /// The program names the engine has resolved and the context its
    /// calls run in: what answers a dispatch unless the caller of
    /// [`Engine::run_with`] does. Not state the journal describes
    /// either, nor one replay needs: opening binds it.
    calls: Option<ProgramCalls>,
}

/// Where instance `id` sits in `EngineState::instances` — past the end
/// for an id no instance has, 0 included.
pub(crate) fn index_of(id: InstanceId) -> usize {
    usize::try_from(id.0).map_or(usize::MAX, |id| id.wrapping_sub(1))
}

impl EngineState {
    /// The state before any event, over `templates` imported like
    /// [`Engine::register`] imports them. The registry's defaults are
    /// the *initial* ones (the first supplied definition per name);
    /// `TemplateDeployed` events advance them — so every
    /// `InstanceStarted` resolves against the default the engine had at
    /// that journal position.
    pub(crate) fn over(templates: Vec<ProcessDefinition>) -> Result<Self, RecoveryError> {
        let mut registry = TemplateRegistry::new();
        for def in templates {
            let process = def.name.clone();
            let tpl =
                import(def).map_err(|errors| RecoveryError::InvalidTemplate { process, errors })?;
            registry.insert(tpl);
        }
        Ok(Self {
            registry,
            instances: Vec::new(),
            counts: (0, 0, 0),
            worklists: WorklistStore::new(),
            next_item: 1,
            org: OrgModel::new(),
            probes: ProbeCache::default(),
            calls: None,
        })
    }

    /// The id the next started instance gets.
    pub(crate) fn next_instance(&self) -> InstanceId {
        InstanceId(self.instances.len() as u64 + 1)
    }

    /// Puts `inst` in its place: after the last instance if it is the
    /// next id, over the instance of its id if that was started. An id
    /// further out is one the engine cannot have allocated — refused,
    /// not allocated for.
    fn place(&mut self, inst: Instance) -> Result<(), RecoveryError> {
        let at = index_of(inst.id);
        if at > self.instances.len() {
            return Err(RecoveryError::UnexpectedInstanceId {
                id: inst.id,
                next: self.next_instance(),
            });
        }
        *count_of(&mut self.counts, inst.status) += 1;
        if at == self.instances.len() {
            self.instances.push(inst);
        } else {
            let old = std::mem::replace(&mut self.instances[at], inst);
            *count_of(&mut self.counts, old.status) -= 1;
        }
        Ok(())
    }

    /// The effect of `InstanceStarted` (`ev`) with its template
    /// resolved: `apply` resolves it by name,
    /// [`Engine::start_for_tenant`] once for the event it emits.
    pub(crate) fn instance_started(
        &mut self,
        tpl: Arc<CompiledProcess>,
        ev: &Event,
    ) -> Result<(), Refused> {
        Ok(self.place(started(tpl, ev))?)
    }

    /// The effect of `ev` on the engine's state — the one transition
    /// function. Events about one activity, connector or instance are
    /// resolved (instance by id, journalled path to its **live** slot:
    /// every enclosing scope must be open) and handed to `effect`;
    /// one that addresses nothing live has no effect.
    pub(crate) fn apply(&mut self, ev: &Event) -> Result<(), Refused> {
        match ev {
            Event::InstanceStarted { process, .. } => {
                let tpl = self
                    .registry
                    .default_tpl(process)
                    .ok_or_else(|| RecoveryError::MissingTemplate(process.to_string()))?;
                self.instance_started(tpl, ev)?;
            }
            Event::WorkItemClaimed { item, person, .. } => {
                self.worklists
                    .claim(*item, person)
                    .map_err(Refused::Claim)?;
            }
            Event::TemplateDeployed {
                process, version, ..
            } => {
                let hash = u64::from_str_radix(version, 16).unwrap_or(0);
                if !self.registry.set_default(*process, hash) {
                    return Err(missing_version(process, version));
                }
            }
            Event::Migrated { instance, to, .. } => {
                // The state transfer only; the fix-up events of the
                // engine that migrated follow in the journal (or, after
                // a crash right here, `resume` re-derives them).
                let inst = self.instances.get_mut(index_of(*instance));
                if let Some(inst) = inst.filter(|inst| !inst.is_retired()) {
                    let target = self
                        .registry
                        .by_version(to)
                        .ok_or_else(|| missing_version(inst.tpl.name(), to))?;
                    migrated(inst, &target).map_err(|detail| RecoveryError::Migration {
                        instance: *instance,
                        detail,
                    })?;
                }
            }
            Event::EngineCheckpoint(checkpoint) => {
                let Checkpoint {
                    instances,
                    items,
                    next_instance,
                    next_item,
                    ..
                } = &**checkpoint;
                // A checkpoint is the complete state: replace what was
                // built so far; the tail of the journal applies on top.
                self.instances.clear();
                self.counts = (0, 0, 0);
                for snap in instances {
                    // By pinned version, not by name — two instances of
                    // one process may be on different versions.
                    let tpl = self
                        .registry
                        .by_version(&snap.version)
                        .ok_or_else(|| missing_version(&snap.process, &snap.version))?;
                    // One that stopped running is restored retired: a
                    // checkpoint of it is its outcome (one written before
                    // retirement has its outcome at the root of a full
                    // tree).
                    let mut inst = if snap.status == InstanceStatus::Running {
                        let mut inst = Instance::new(snap.id, tpl);
                        inst.restore_root(&snap.root);
                        inst
                    } else {
                        let output = snap.root.output.clone();
                        Instance::retired(snap.id, tpl, snap.status, output)
                    };
                    inst.tenant = snap.tenant;
                    self.place(inst)?;
                }
                // The allocator is written for readers of the journal;
                // the engine's is the table, and the two must agree.
                if *next_instance != self.next_instance().0 {
                    return Err(RecoveryError::UnexpectedInstanceId {
                        id: InstanceId(*next_instance),
                        next: self.next_instance(),
                    }
                    .into());
                }
                self.worklists = WorklistStore::new();
                for item in items {
                    self.worklists.offer(item.clone());
                }
                self.next_item = *next_item;
            }
            _ => {
                let inst = ev
                    .instance()
                    .and_then(|id| self.instances.get_mut(index_of(id)));
                if let Some(inst) = inst {
                    if let Some(slot) = slot_of(inst, ev) {
                        let (worklists, next_item) = (&mut self.worklists, &mut self.next_item);
                        effect(inst, slot, &mut self.counts, worklists, next_item, ev);
                        // Replay is done with an instance this stopped.
                        inst.retire();
                    }
                }
            }
        }
        Ok(())
    }

    /// What retired `inst` held when it stopped running: its journalled
    /// `events` folded through `effect` — the function that built it
    /// live — on a fresh instance that is never retired. `None` unless
    /// the events begin with its start: a checkpoint compacted them.
    fn unretired(&self, inst: &Instance, events: &[Event]) -> Option<Instance> {
        let (start @ Event::InstanceStarted { .. }, rest) = events.split_first()? else {
            return None;
        };
        // Only a migration moves an instance to another template: it
        // started on the one its first migration left.
        let from = events.iter().find_map(|ev| match ev {
            Event::Migrated { from, .. } => Some(from),
            _ => None,
        });
        let tpl = match from {
            Some(version) => self.registry.by_version(version)?,
            None => Arc::clone(&inst.tpl),
        };
        let mut folded = started(tpl, start);
        let (mut counts, mut worklists, mut next_item) = ((1, 0, 0), WorklistStore::new(), 0);
        for ev in rest {
            if let Event::Migrated { to, .. } = ev {
                migrated(&mut folded, &self.registry.by_version(to)?).ok()?;
            } else if let Some(slot) = slot_of(&folded, ev) {
                effect(
                    &mut folded,
                    slot,
                    &mut counts,
                    &mut worklists,
                    &mut next_item,
                    ev,
                );
            }
        }
        Some(folded)
    }
}

/// The instance `InstanceStarted` (`ev`) starts on `tpl`.
fn started(tpl: Arc<CompiledProcess>, ev: &Event) -> Instance {
    let Event::InstanceStarted {
        instance,
        tenant,
        input,
        ..
    } = ev
    else {
        unreachable!("only `InstanceStarted` starts an instance")
    };
    let mut inst = Instance::new(*instance, tpl);
    inst.tenant = *tenant;
    inst.seed_input(input);
    inst
}

/// The tally of `status` in `(running, finished, cancelled)`.
fn count_of(counts: &mut (u64, u64, u64), status: InstanceStatus) -> &mut u64 {
    match status {
        InstanceStatus::Running => &mut counts.0,
        InstanceStatus::Finished => &mut counts.1,
        InstanceStatus::Cancelled => &mut counts.2,
    }
}

fn missing_version(process: &str, version: &str) -> Refused {
    Refused::Replay(RecoveryError::MissingVersion {
        process: process.to_owned(),
        version: version.to_owned(),
    })
}

/// The slot a journalled event addresses in `inst`: the act slot of its
/// path, the edge slot of a `ConnectorEvaluated` — `None` unless every
/// enclosing scope is open — and 0 for an event about the instance as a
/// whole. Nothing, in a retired instance.
fn slot_of(inst: &Instance, ev: &Event) -> Option<u32> {
    match ev {
        Event::ActivityReady { path, .. }
        | Event::ActivityStarted { path, .. }
        | Event::ActivityFinished { path, .. }
        | Event::ActivityRescheduled { path, .. }
        | Event::ActivityTerminated { path, .. }
        | Event::WorkItemOffered { path, .. }
        | Event::NotificationSent { path, .. } => inst.live_slot(path),
        Event::ConnectorEvaluated {
            scope, from, to, ..
        } => {
            let m = inst.tpl.layout.scope(inst.live_scope(scope)?);
            Some(m.edge_base + m.cs.edge_id(from, to)?)
        }
        _ => (!inst.is_retired()).then_some(0),
    }
}

/// The per-instance half of `EngineState::apply`: the effect of `ev`
/// on the instance it is about, at the slot it addresses (see
/// `slot_of`), on the tally of instances by status and on the work
/// items. The navigator holds them already — its `emit` is this plus
/// the append, with no lookup and no path hash. Work items are touched
/// only for templates that have a manual activity at all.
pub(crate) fn effect(
    inst: &mut Instance,
    slot: u32,
    counts: &mut (u64, u64, u64),
    worklists: &mut WorklistStore,
    next_item: &mut u64,
    ev: &Event,
) {
    let manual = inst.tpl.root.any_manual;
    let before = inst.status;
    match ev {
        Event::ActivityReady {
            path, attempt, at, ..
        } => {
            inst.activity_ready(slot, *attempt, *at);
            // A readiness period begins with nothing on offer: the item
            // of one a crash caught `Running` closes here. (Everywhere
            // else `ActivityFinished` / `ActivityTerminated` closed it.)
            if manual {
                worklists.close_for(inst.id, *path);
            }
        }
        // A started block opens its child scope.
        Event::ActivityStarted { input, .. } => inst.activity_started(slot, input),
        Event::ActivityFinished { path, output, .. } => {
            inst.activity_finished(slot, output);
            // A reschedule offers a fresh item.
            if manual {
                worklists.close_for(inst.id, *path);
            }
        }
        Event::ActivityRescheduled { next_attempt, .. } => {
            inst.activity_rescheduled(slot, *next_attempt)
        }
        Event::ActivityTerminated { path, executed, .. } => {
            inst.activity_terminated(slot, *executed);
            if manual {
                worklists.close_for(inst.id, *path);
            }
        }
        Event::ConnectorEvaluated { value, .. } => inst.connector_evaluated(slot, *value),
        Event::WorkItemOffered {
            instance,
            path,
            item,
            persons,
            at,
        } => {
            *next_item = (*next_item).max(item.0 + 1);
            worklists.offer(WorkItem {
                id: *item,
                instance: *instance,
                path: *path,
                attempt: inst.slab.acts[slot as usize].attempt,
                offered_to: persons.to_vec(),
                state: WorkItemState::Offered,
                offered_at: *at,
            });
        }
        Event::NotificationSent { .. } => inst.notification_sent(slot),
        Event::InstanceFinished { output, .. } => inst.instance_finished(output),
        Event::InstanceCancelled { .. } => {
            inst.instance_cancelled();
            if manual {
                worklists.close_offered_of(inst.id);
            }
        }
        // `UserIntervention` is a record, not a change; the rest are
        // not about one instance (`EngineState::apply`).
        _ => {}
    }
    if inst.status != before {
        *count_of(counts, before) -= 1;
        *count_of(counts, inst.status) += 1;
    }
}

/// The effect of `Migrated`: `inst`'s state transferred onto `target`
/// — or why it cannot be, and then `inst` is untouched.
pub(crate) fn migrated(inst: &mut Instance, target: &Arc<CompiledProcess>) -> Result<(), String> {
    *inst = inst.migrate_to(target)?;
    Ok(())
}

/// How state changes while the engine runs: `effect` — what `ev` does
/// to the state its caller holds — then, unless that refused it, `ev`
/// appended to the journal.
pub(crate) fn emit<E>(
    journal: &Journal,
    ev: Event,
    effect: impl FnOnce(&Event) -> Result<(), E>,
) -> Result<(), E> {
    effect(&ev)?;
    journal.append(ev);
    Ok(())
}

/// The live slot of the activity at `path` in `inst`, if it is in one
/// of `states`; else what it is `expected` to be.
fn slot_in(
    inst: &Instance,
    path: &str,
    states: &[ActState],
    expected: &'static str,
) -> Result<u32, EngineError> {
    inst.live_slot(path)
        .filter(|&slot| states.contains(&inst.slab.acts[slot as usize].state))
        .ok_or_else(|| EngineError::BadActivityState {
            path: path.to_owned(),
            expected,
        })
}

/// One instance as clients see it ([`Engine::view`]).
#[derive(Debug, Clone)]
pub struct InstanceView {
    /// The process (template name) it was started from.
    pub process: String,
    /// The template version it is pinned to.
    pub version: String,
    /// The tenant it was started under (`None`: untenanted).
    pub tenant: Option<String>,
    /// Where it stands.
    pub status: InstanceStatus,
    /// The process output container (final once finished).
    pub output: Container,
}

/// The workflow engine.
///
/// An engine has one owner and takes no lock: its state and its
/// journal are cells its owner borrows, so it is `Send` but not `Sync`,
/// and a thread that does not own it cannot reach it. Sharing one
/// across threads does not compile:
///
/// ```compile_fail,E0277
/// use std::sync::Arc;
/// use txn_substrate::{MultiDatabase, ProgramRegistry};
/// use wfms_engine::Engine;
///
/// let engine = Engine::new(MultiDatabase::new(0), Arc::new(ProgramRegistry::new()));
/// std::thread::scope(|s| {
///     s.spawn(|| engine.instance_counts());
/// });
/// ```
pub struct Engine {
    pub(crate) state: RefCell<EngineState>,
    pub(crate) journal: Journal,
    pub(crate) step_limit: usize,
    pub(crate) multidb: Arc<MultiDatabase>,
    pub(crate) clock: VirtualClock,
    pub(crate) obs: EngineObs,
    /// What opening found in the journal file.
    reopened: TailReport,
    /// What opening read of the journal and applied.
    replayed: Replayed,
    /// What opening's recovery repaired.
    repaired: recovery::FixupCounts,
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
        // frame is decoded, applied and dropped.
        let mut replay = Replay::over(templates)?;
        let (journal, reopened) = match &config.journal_path {
            Some(p) => Journal::replaying(p, config.durability, |frame, ev| replay.feed(frame, ev))
                .map_err(RecoveryError::Io)?,
            None => (Journal::new(), TailReport::default()),
        };
        let mut engine = Self::open_on(journal, replay, multidb, programs, config)?;
        engine.reopened = reopened;
        Ok(engine)
    }

    /// The engine over `journal` (`config.journal_path` is not
    /// consulted) and the state `replay` folded from it, running the
    /// programs of `programs` against `multidb`, with the navigation the
    /// crash interrupted repaired.
    pub(crate) fn open_on(
        mut journal: Journal,
        replay: Replay,
        multidb: Arc<MultiDatabase>,
        programs: Arc<ProgramRegistry>,
        config: EngineConfig,
    ) -> Result<Self, RecoveryError> {
        let (mut state, max_tick, replayed) = replay.finish()?;
        state.org = config.org;
        state.calls = Some(ProgramCalls::new(programs, Arc::clone(&multidb)));

        // Claims are leases held by a live session: the replay just
        // re-claimed items for workers that died with the crashed engine,
        // which would park those items on dead worklists forever. Put them
        // back on offer. Not journalled — replaying the same journal again
        // (a chained crash–reopen cycle) re-claims and re-releases
        // identically, so the repair is deterministic.
        let stale_claims = state.worklists.release_stale_claims();

        let clock = multidb.clock().clone();
        clock.advance_to(max_tick);

        let observer = config
            .observer
            .unwrap_or_else(|| Arc::new(Observer::disabled()));
        journal.observe(&observer);
        if stale_claims > 0 {
            observer
                .registry()
                .counter("recovery.stale_claims_released")
                .add(stale_claims as u64);
        }
        let obs = EngineObs::new(observer);
        if obs.enabled() {
            for inst in state.instances.iter_mut().filter(|i| !i.is_retired()) {
                inst.probes = Some(obs.act_probes(&mut state.probes, &inst.tpl));
            }
        }
        let mut engine = Self {
            state: RefCell::new(state),
            journal,
            step_limit: config.step_limit,
            multidb,
            clock,
            obs,
            reopened: TailReport::default(),
            replayed,
            repaired: recovery::FixupCounts::default(),
        };
        engine.repaired = recovery::resume(&engine);
        Ok(engine)
    }

    /// What [`Engine::open`] found in the journal file: the events it
    /// replayed and the torn tail it truncated, if any. Nothing, for an
    /// engine without a journal file.
    pub fn reopened(&self) -> &TailReport {
        &self.reopened
    }

    /// The events opening read from the journal, and of those the
    /// events it applied: a finished instance whose start and finish
    /// one frame holds is applied as those two (see
    /// [`crate::recovery`]).
    pub fn replayed(&self) -> Replayed {
        self.replayed
    }

    /// What opening's recovery repaired in the instances it found
    /// running, by kind: what it added to each `recovery.fixups.<kind>`
    /// counter.
    pub fn repaired(&self) -> [(&'static str, u64); 4] {
        std::array::from_fn(|k| (recovery::FIXUP_KINDS[k], self.repaired.0[k]))
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
    /// Checked around every navigation: once the mirror is broken
    /// nothing further would be durable, so affected instances park
    /// (their in-memory state is untouched and still queryable) instead
    /// of the engine panicking mid-navigation.
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

    /// `st` as the navigator takes it: the instances, one of which it
    /// drives, and the services over everything else it reads or emits
    /// into — and, beside them, the programs that answer its dispatches.
    pub(crate) fn nav<'a>(
        &'a self,
        st: &'a mut EngineState,
    ) -> (&'a mut [Instance], NavServices<'a>, &'a mut ProgramCalls) {
        let svc = NavServices {
            journal: &self.journal,
            clock: &self.clock,
            org: &st.org,
            counts: &mut st.counts,
            worklists: &mut st.worklists,
            next_item: &mut st.next_item,
            probes: &mut st.probes,
            obs: &self.obs,
        };
        let calls = st.calls.as_mut().expect("opening binds the programs");
        (&mut st.instances, svc, calls)
    }

    /// `emit` for an event that is not about an instance the caller
    /// holds: its effect is `EngineState::apply`'s.
    fn emit(&self, st: &mut EngineState, ev: Event) -> Result<(), Refused> {
        emit(&self.journal, ev, |ev| st.apply(ev))
    }

    /// Reads instance `id`: `f` runs while the engine's one owner is
    /// reading it, so what it reads agrees with itself.
    pub fn read<T>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&Instance) -> T,
    ) -> Result<T, EngineError> {
        let st = self.state.borrow();
        st.instances
            .get(index_of(id))
            .map(f)
            .ok_or(EngineError::UnknownInstance(id))
    }

    /// Navigates instance `id`: `f` gets the instance, the services to
    /// decide and emit with and the engine's programs, and the instance
    /// is retired once `f` returns if it has stopped running — whatever
    /// `f` answers. A broken journal mirror is reported before (nothing
    /// is attempted) and after (what `f` emitted is in memory, not on
    /// disk).
    fn write<T>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&mut Instance, &mut NavServices<'_>, &mut ProgramCalls) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        self.check_journal()?;
        let mut st = self.state.borrow_mut();
        let (instances, mut svc, calls) = self.nav(&mut st);
        let inst = instances
            .get_mut(index_of(id))
            .ok_or(EngineError::UnknownInstance(id))?;
        let done = f(inst, &mut svc, calls);
        inst.retire();
        let done = done?;
        self.check_journal()?;
        Ok(done)
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
        let mut st = self.state.borrow_mut();
        let (process, hex) = (tpl.layout.process, tpl.version());
        let (version, deploys) = st.registry.insert(tpl);
        if deploys {
            let ev = Event::TemplateDeployed {
                process,
                version: hex,
                at: self.clock.now(),
            };
            self.emit(&mut st, ev).expect("the version is registered");
        }
        version
    }

    /// The current default template of `name`.
    pub fn template(&self, name: &str) -> Option<Arc<CompiledProcess>> {
        self.state.borrow().registry.default_tpl(name)
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
    /// The tenant is a [`Name`] its table interned when it was loaded;
    /// `process` is only looked up, so a start interns nothing.
    pub fn start_for_tenant(
        &self,
        process: &str,
        input: Container,
        tenant: Option<Name>,
    ) -> Result<InstanceId, EngineError> {
        let mut st = self.state.borrow_mut();
        let tpl = st
            .registry
            .default_tpl(process)
            .ok_or_else(|| EngineError::UnknownProcess(process.to_owned()))?;
        // The event carries the input as the instance holds it: the
        // caller's members over the template's prototype.
        let mut seeded = tpl.layout.scope(0).input_proto.clone();
        seeded.merge(&input);
        let id = st.next_instance();
        let ev = Event::InstanceStarted {
            instance: id,
            process: tpl.layout.process,
            tenant,
            input: seeded,
            at: self.clock.now(),
        };
        let started = Arc::clone(&tpl);
        emit(&self.journal, ev, |ev| st.instance_started(started, ev))?;
        let (instances, mut svc, _) = self.nav(&mut st);
        let inst = &mut instances[index_of(id)];
        if self.obs.enabled() {
            inst.probes = Some(self.obs.act_probes(svc.probes, &tpl));
        }
        navigator::seed_scope(&tpl, inst, &mut svc, 0);
        inst.retire();
        Ok(id)
    }

    /// Migrates a running instance to the current default version of
    /// its process — the `migrate-at-scope-boundary` policy. The
    /// transfer is only attempted at a quiescent scope boundary (no
    /// activity and no nested block mid-flight) and only when every
    /// begun activity has a same-named counterpart in the target
    /// version; otherwise the instance is left pinned
    /// ([`MigrationOutcome::Skipped`] — drain-old semantics) and
    /// nothing is journalled. On success the `Migrated{from,to}` event
    /// is the state transfer, so a crash at any point either replays
    /// the instance fully un-migrated or re-applies the same
    /// deterministic transfer.
    pub fn migrate_to_default(&self, id: InstanceId) -> Result<MigrationOutcome, EngineError> {
        let name = self.read(id, |i| i.tpl.name().to_owned())?;
        let target = self
            .template(&name)
            .ok_or(EngineError::UnknownProcess(name))?;
        self.write(id, |inst, svc, _| {
            if inst.tpl.spec_hash == target.spec_hash {
                return Ok(MigrationOutcome::AlreadyCurrent);
            }
            if inst.status != InstanceStatus::Running {
                return Ok(MigrationOutcome::Skipped {
                    reason: format!("instance is {:?}", inst.status),
                });
            }
            let (from, to) = (inst.tpl.version(), target.version());
            let ev = Event::Migrated {
                instance: id,
                from,
                to,
                at: self.clock.now(),
            };
            if let Err(reason) = emit(svc.journal, ev, |_| migrated(inst, &target)) {
                return Ok(MigrationOutcome::Skipped { reason });
            }
            if self.obs.enabled() {
                inst.probes = Some(self.obs.act_probes(svc.probes, &target));
            }
            // The transferred frontier may owe navigation the new version
            // introduces (fresh edges out of terminated activities, joins
            // that are now decidable). Repair it with exactly recovery's
            // resume pass — live and post-crash migration then journal the
            // same continuation events.
            let counts = recovery::fixup_instance(inst, svc);
            counts.record(self.obs.observer.registry(), "migration.fixups");
            Ok(MigrationOutcome::Migrated {
                from: from.to_string(),
                to: to.to_string(),
            })
        })
    }

    /// Executes at most one ready automatic activity of `id`. Returns
    /// `Ok(true)` if an activity ran, `Ok(false)` at quiescence. Used
    /// by crash tests and benchmarks that need to stop an instance at
    /// an exact point.
    pub fn step(&self, id: InstanceId) -> Result<bool, EngineError> {
        self.write(id, |inst, svc, calls| {
            Ok(self.drive(inst, svc, None, 1, |d| calls.answer(d))? == 1)
        })
    }

    /// Runs every ready automatic activity of `id` (including those
    /// that become ready as a consequence) until none is runnable,
    /// each program activity running its program. Manual activities
    /// stay on worklists. Returns the instance status at quiescence.
    pub fn run_to_quiescence(&self, id: InstanceId) -> Result<InstanceStatus, EngineError> {
        self.write(id, |inst, svc, calls| {
            self.drive(inst, svc, None, usize::MAX, |d| calls.answer(d))?;
            Ok(inst.status)
        })
    }

    /// [`Engine::run_to_quiescence`], with `answer` in place of the
    /// programs: each program activity that starts is handed to it as a
    /// [`Dispatch`], and finishes with the return code and outputs it
    /// answers — as if its program had committed with them (an abort is
    /// a return code and no outputs). Navigation is a function of these
    /// outcomes: answering what a journal recorded re-derives that
    /// journal. `answer` runs while the engine is borrowed, so it must
    /// not call the engine.
    pub fn run_with(
        &self,
        id: InstanceId,
        answer: impl FnMut(&Dispatch<'_>) -> (i64, Container),
    ) -> Result<InstanceStatus, EngineError> {
        self.write(id, |inst, svc, _| {
            self.drive(inst, svc, None, usize::MAX, answer)?;
            Ok(inst.status)
        })
    }

    /// The one navigation loop: starts `first` (an activity and who
    /// executes it), if any, then runnable automatic activities one
    /// step at a time until none is left or `steps` have run — or
    /// [`EngineError::StepLimit`] once that would take more than the
    /// engine's limit. A program activity's dispatch is answered by
    /// `answer` and finished before the next step, so every cascade of
    /// a step is over before the next one starts. Returns the steps run.
    fn drive(
        &self,
        inst: &mut Instance,
        svc: &mut NavServices<'_>,
        first: Option<(u32, Option<Name>)>,
        steps: usize,
        mut answer: impl FnMut(&Dispatch<'_>) -> (i64, Container),
    ) -> Result<usize, EngineError> {
        let tpl = Arc::clone(&inst.tpl);
        let (mut next, mut ran) = (first, 0);
        loop {
            if next.is_none() && ran < steps {
                next = navigator::find_runnable(inst).map(|slot| (slot, None));
                ran += usize::from(next.is_some());
            }
            let Some((slot, by)) = next.take() else {
                return Ok(ran);
            };
            if ran > self.step_limit {
                return Err(EngineError::StepLimit(self.step_limit));
            }
            if let Some(dispatch) = navigator::execute_activity(&tpl, inst, svc, slot, by) {
                let started = dispatch.started;
                let (rc, outputs) = answer(&dispatch);
                navigator::finish(&tpl, inst, svc, slot, started, rc, &outputs);
            }
        }
    }

    /// Runs every instance to quiescence, in id order.
    pub fn run_all(&self) -> Result<(), EngineError> {
        let started = self.state.borrow().instances.len() as u64;
        for id in (1..=started).map(InstanceId) {
            self.run_to_quiescence(id)?;
        }
        Ok(())
    }

    /// The worklist of `person` (clones of the visible items): empty
    /// for a name no offer could hold, which is looked up, not interned.
    pub fn worklist(&self, person: &str) -> Vec<WorkItem> {
        let Some(person) = Name::find(person) else {
            return Vec::new();
        };
        let st = self.state.borrow();
        st.worklists.worklist(person).into_iter().cloned().collect()
    }

    /// The offered and claimed work items of instance `id`, in id order
    /// (clones).
    pub fn open_items(&self, id: InstanceId) -> Vec<WorkItem> {
        let st = self.state.borrow();
        let items = st.worklists.items_of(id);
        items
            .filter(|it| it.state != WorkItemState::Closed)
            .cloned()
            .collect()
    }

    /// Work item `item` in any state, closed too (a clone).
    pub fn work_item(&self, item: WorkItemId) -> Option<WorkItem> {
        self.state.borrow().worklists.get(item).cloned()
    }

    /// Claims a work item for `person`; it disappears from every other
    /// worklist.
    pub fn claim(&self, item: WorkItemId, person: &str) -> Result<(), EngineError> {
        self.claim_as(item, person).map(drop)
    }

    /// [`Engine::claim`], answering the claimant's name. The person is
    /// looked up, never interned: every name an offer holds is interned,
    /// so the store refuses one that is not, and says why.
    fn claim_as(&self, item: WorkItemId, person: &str) -> Result<Name, EngineError> {
        let mut st = self.state.borrow_mut();
        let Some(person) = Name::find(person) else {
            let refused = st.worklists.claim(item, person).map(drop);
            return Err(refused
                .expect_err("no offer holds a name never interned")
                .into());
        };
        let ev = Event::WorkItemClaimed {
            item,
            person,
            at: self.clock.now(),
        };
        self.emit(&mut st, ev)?;
        Ok(person)
    }

    /// Releases a claimed work item back to every eligible worklist
    /// (§3.3: a user may stop work they selected; the activity
    /// becomes available for load balancing again). The one state
    /// change no event describes: a claim is a lease of the live
    /// session — [`Engine::open`] drops them all — so handing one back
    /// is journalled as an intervention, for the audit trail, and not
    /// as a change.
    pub fn release(&self, item: WorkItemId, person: &str) -> Result<(), EngineError> {
        let mut st = self.state.borrow_mut();
        let it = st.worklists.release(item, person)?;
        let ev = Event::UserIntervention {
            instance: it.instance,
            path: it.path,
            action: format!("release {item} by {person}"),
            at: self.clock.now(),
        };
        Ok(self.emit(&mut st, ev)?)
    }

    /// Marks a person absent (optionally naming a substitute) or
    /// present again. Affects *future* work-item offers; items already
    /// offered stay with their original offerees (§3.3's organization
    /// is consulted at staff-resolution time).
    pub fn set_absent(&self, person: &str, absent: bool, substitute: Option<&str>) {
        let mut st = self.state.borrow_mut();
        st.org.set_absent(person, absent, substitute);
    }

    /// Instance counts `(running, finished, cancelled)`: a tally the
    /// events keep, read in constant time.
    pub fn instance_counts(&self) -> (u64, u64, u64) {
        self.state.borrow().counts
    }

    /// All instances: `(id, process name, status)`.
    pub fn instances(&self) -> Vec<(InstanceId, String, InstanceStatus)> {
        let st = self.state.borrow();
        st.instances
            .iter()
            .map(|i| (i.id, i.tpl.name().to_owned(), i.status))
            .collect()
    }

    /// Executes a work item `person` has claimed (claiming it first if
    /// still offered), then continues automatic navigation of the
    /// instance.
    pub fn execute_item(&self, item: WorkItemId, person: &str) -> Result<(), EngineError> {
        // Before the claim too: nothing is attempted on a broken mirror.
        self.check_journal()?;
        let (instance, path, mine) = {
            let st = self.state.borrow();
            let it = st
                .worklists
                .get(item)
                .ok_or(WorklistError::NoSuchItem(item))?;
            let mine = match it.state {
                WorkItemState::Claimed(p) if p == person => Some(p),
                _ => None,
            };
            (it.instance, it.path, mine)
        };
        let by = match mine {
            Some(by) => by,
            None => self.claim_as(item, person)?,
        };
        self.write(instance, |inst, svc, calls| {
            // The underlying activity must still be ready at the claimed
            // attempt.
            let slot = slot_in(inst, &path, &[ActState::Ready], "ready")?;
            let first = Some((slot, Some(by)));
            self.drive(inst, svc, first, usize::MAX, |d| calls.answer(d))
                .map(drop)
        })
    }

    /// Operator intervention (§3.3): forces a ready or running
    /// activity to finish with return code `rc` and no outputs, then
    /// continues navigation.
    pub fn force_finish(&self, id: InstanceId, path: &str, rc: i64) -> Result<(), EngineError> {
        self.write(id, |inst, svc, calls| {
            let states = [ActState::Ready, ActState::Running];
            let slot = slot_in(inst, path, &states, "ready or running")?;
            let ev = Event::UserIntervention {
                instance: id,
                path: path.into(),
                action: format!("force-finish rc={rc}"),
                at: self.clock.now(),
            };
            navigator::emit(inst, svc, slot, ev);
            let tpl = Arc::clone(&inst.tpl);
            navigator::finish(&tpl, inst, svc, slot, None, rc, &Container::empty());
            self.drive(inst, svc, None, usize::MAX, |d| calls.answer(d))
                .map(drop)
        })
    }

    /// Cancels a running instance.
    pub fn cancel(&self, id: InstanceId) -> Result<(), EngineError> {
        self.write(id, |inst, svc, _| {
            navigator::cancel_instance(inst, svc);
            Ok(())
        })
    }

    /// Advances the virtual clock and delivers due deadline
    /// notifications. Returns `(activity path, notified person)`
    /// pairs. Instances whose compiled template declares no deadline
    /// at all are skipped without touching their state.
    pub fn advance_clock(&self, ticks: txn_substrate::Tick) -> Vec<(String, String)> {
        self.clock.advance(ticks);
        let mut st = self.state.borrow_mut();
        let (instances, mut svc, _) = self.nav(&mut st);
        let mut sent = Vec::new();
        for inst in instances.iter_mut() {
            if inst.status != InstanceStatus::Running || !inst.tpl.root.any_deadlines {
                continue;
            }
            let tpl = Arc::clone(&inst.tpl);
            sent.extend(navigator::check_deadlines(&tpl, inst, &mut svc));
        }
        sent
    }

    /// What a client is told of instance `id`, read in one
    /// [`Engine::read`]: the parts agree with each other.
    pub fn view(&self, id: InstanceId) -> Result<InstanceView, EngineError> {
        self.read(id, |i| InstanceView {
            process: i.tpl.name().to_owned(),
            version: i.tpl.version().to_string(),
            tenant: i.tenant.map(|t| t.to_string()),
            status: i.status,
            output: i.root_output().clone(),
        })
    }

    /// Current status of an instance.
    pub fn status(&self, id: InstanceId) -> Result<InstanceStatus, EngineError> {
        self.read(id, |i| i.status)
    }

    /// The process output container of an instance (final once the
    /// instance is finished).
    pub fn output(&self, id: InstanceId) -> Result<Container, EngineError> {
        self.read(id, |i| i.root_output().clone())
    }

    /// Runtime inspection: `(state, executed, attempt)` of the
    /// activity at `path`.
    ///
    /// An instance that has stopped running keeps no activities: for
    /// one, they are rebuilt by folding the instance's journal events
    /// ([`Engine::events_for`], O(journal)) as they stood when it
    /// stopped, or — once a checkpoint has compacted those events away —
    /// [`EngineError::HistoryCompacted`].
    pub fn activity_state(
        &self,
        id: InstanceId,
        path: &str,
    ) -> Result<(ActState, bool, u32), EngineError> {
        let st = self.state.borrow();
        let inst = st
            .instances
            .get(index_of(id))
            .ok_or(EngineError::UnknownInstance(id))?;
        let unretired;
        let inst = if inst.is_retired() {
            let events = self.journal.events_for(id);
            unretired = st
                .unretired(inst, &events)
                .ok_or(EngineError::HistoryCompacted(id))?;
            &unretired
        } else {
            inst
        };
        let slot = inst
            .live_slot(path)
            .ok_or_else(|| EngineError::BadActivityState {
                path: path.to_owned(),
                expected: "present",
            })?;
        let act = &inst.slab.acts[slot as usize];
        Ok((act.state, act.executed, act.attempt))
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
    /// borrowing the state). Returns the number of journal events
    /// dropped.
    pub fn checkpoint(&self) -> usize {
        let mut st = self.state.borrow_mut();
        let snaps: Vec<crate::event::InstanceSnapshot> = st
            .instances
            .iter()
            .map(|i| crate::event::InstanceSnapshot {
                id: i.id,
                process: i.tpl.layout.process,
                tenant: i.tenant,
                status: i.status,
                version: i.tpl.version(),
                root: i.snapshot_root(),
            })
            .collect();
        let checkpoint = Event::EngineCheckpoint(Box::new(Checkpoint {
            instances: snaps,
            items: st.worklists.live_items().cloned().collect(),
            next_instance: st.next_instance().0,
            next_item: st.next_item,
            at: self.clock.now(),
        }));
        // The one append outside `emit`: a checkpoint describes the
        // state, it does not change it — only replay applies it.
        self.journal.append(checkpoint);
        // Compaction drops everything before the checkpoint, including
        // any TemplateDeployed events that moved a default off its
        // initial version. Re-journal the current default of every
        // multi-version name *after* the snapshot so they survive;
        // single-version names journal nothing (their default is the
        // recovery template set's, exactly as pre-versioning).
        for (process, version) in st.registry.multi_version_defaults() {
            let ev = Event::TemplateDeployed {
                process,
                version,
                at: self.clock.now(),
            };
            self.emit(&mut st, ev).expect("the default is registered");
        }
        self.journal.compact()
    }

    /// Forces the journal mirror to disk — a durability barrier under
    /// any [`DurabilityPolicy`]. After this returns `Ok`, every event
    /// appended so far survives a crash. Group-commit callers (a
    /// server shard batching submissions) append under `Batched`,
    /// which writes nothing between barriers, and call this once per
    /// batch before acknowledging any of it.
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
