//! Forward recovery — §3.3 of the paper:
//!
//! > "In most WFMSs the execution of a process is persistent in the
//! > sense that forward recovery is always guaranteed … In case of
//! > failures, the process execution will stop. Once the failures have
//! > been repaired, the process execution is resumed from the point
//! > where the failure occurred."
//!
//! Restart *is* recovery: [`Engine::open`] replays whatever its journal
//! holds — nothing, the first time — so there is no separate recovery
//! entry point, only the [`recover`] wrappers that spell `open` the way
//! older callers do. This module is the replay (`Replay`) and the
//! repair (`resume`) that `open` runs.
//!
//! Replay is a fold: `EngineState::apply` — the function every live
//! state change went through when its event was emitted — over the
//! journal, a frame at a time, less what retirement would erase: of an
//! instance whose start and finish one frame holds, only those two
//! (`Replay::end_frame`). The journal records human-readable
//! string paths (it is an audit trail first); `apply` resolves each to
//! its slot with one lookup against the **compiled template**
//! (`Instance::live_slot`). Compilation is deterministic, so slots
//! assigned at recovery address exactly the state the crashed engine
//! used.
//!
//! The repair then applies the paper's explicit caveat: activities that
//! were mid-execution at the crash are **re-executed from the
//! beginning** (workflow activities are not failure atomic; it is the
//! designer's job to make programs re-runnable — our substrate
//! programs are transactions, so an interrupted one simply never
//! committed). A repair is navigation like any other: it changes state
//! by emitting events, so replaying a repaired journal needs no repair
//! of its own for what the first one fixed.

use crate::compiled::ScopeId;
use crate::engine::{index_of, Engine, EngineConfig, EngineState, Refused};
use crate::event::{Event, InstanceId};
use crate::journal::Journal;
use crate::navigator::{self, NavServices};
use crate::org::OrgModel;
use crate::state::{ActState, Instance, InstanceStatus};
use std::path::Path;
use std::sync::Arc;
use txn_substrate::{DurabilityPolicy, MultiDatabase, ProgramRegistry};
use wfms_model::{ProcessDefinition, ValidationError};

/// Errors surfaced by recovery.
#[derive(Debug)]
pub enum RecoveryError {
    /// The journal references a process template that was not supplied
    /// to [`Engine::open`]. Templates are definitions, not state, so they
    /// are re-registered by the operator, exactly as in FlowMark where
    /// process templates live in the definition database.
    MissingTemplate(String),
    /// The journal pins an instance to a template *version* (spec
    /// content hash) that none of the supplied definitions hashes to —
    /// the operator re-registered an **edited** spec, which would
    /// silently replay the journal against the wrong template.
    MissingVersion {
        /// Process name.
        process: String,
        /// The pinned version (hex spec hash) no supplied definition
        /// matches.
        version: String,
    },
    /// A journalled `Migrated` event could not be re-applied — the
    /// journal and the supplied templates disagree about the state
    /// transfer that succeeded live.
    Migration {
        /// The instance being migrated.
        instance: InstanceId,
        /// Why the transfer was refused.
        detail: String,
    },
    /// The journal names an instance id the engine cannot have
    /// allocated: ids are 1, 2, 3, … with none skipped, so an
    /// `InstanceStarted` or a checkpoint snapshot names at most the
    /// next one, and a checkpoint's `next_instance` is exactly it.
    UnexpectedInstanceId {
        /// The id the journal names.
        id: InstanceId,
        /// The next id at that point of the journal.
        next: InstanceId,
    },
    /// A supplied definition does not validate.
    InvalidTemplate {
        /// Name of the rejected definition.
        process: String,
        /// What validation found.
        errors: Vec<ValidationError>,
    },
    /// The journal file could not be read.
    Io(std::io::Error),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::MissingTemplate(t) => {
                write!(f, "journal references unknown template {t:?}")
            }
            RecoveryError::MissingVersion { process, version } => write!(
                f,
                "journal pins process {process:?} to version {version}, but no supplied \
                 definition has that content hash — the spec changed; re-register the \
                 original definition (or deploy the new one side-by-side)"
            ),
            RecoveryError::Migration { instance, detail } => {
                write!(
                    f,
                    "cannot re-apply journalled migration of {instance}: {detail}"
                )
            }
            RecoveryError::UnexpectedInstanceId { id, next } => write!(
                f,
                "journal names instance {id} where the next id is {next}: instance ids \
                 are allocated 1, 2, 3, … with none skipped"
            ),
            RecoveryError::InvalidTemplate { process, errors } => {
                write!(f, "template {process:?} rejected:")?;
                errors.iter().try_for_each(|e| write!(f, " {e};"))
            }
            RecoveryError::Io(e) => write!(f, "journal unreadable: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// [`Engine::open`] on the journal at `journal_path`, spelled the way
/// callers that only ever reopen spell it.
pub fn recover(
    journal_path: &Path,
    templates: Vec<ProcessDefinition>,
    org: OrgModel,
    multidb: Arc<MultiDatabase>,
    programs: Arc<ProgramRegistry>,
) -> Result<Engine, RecoveryError> {
    recover_with_policy(
        journal_path,
        DurabilityPolicy::default(),
        templates,
        org,
        multidb,
        programs,
    )
}

/// [`recover`] with an explicit [`DurabilityPolicy`] for the reopened
/// journal.
pub fn recover_with_policy(
    journal_path: &Path,
    policy: DurabilityPolicy,
    templates: Vec<ProcessDefinition>,
    org: OrgModel,
    multidb: Arc<MultiDatabase>,
    programs: Arc<ProgramRegistry>,
) -> Result<Engine, RecoveryError> {
    let config = EngineConfig {
        org,
        journal_path: Some(journal_path.to_path_buf()),
        durability: policy,
        ..EngineConfig::default()
    };
    Engine::open(multidb, programs, config, templates)
}

/// In-memory variant used by tests and benchmarks: [`Engine::open`]
/// over `journal`, into which `events` are moved first if it is empty
/// (a journal that already has history is replayed as it is).
pub fn recover_from(
    journal: Journal,
    events: Vec<Event>,
    templates: Vec<ProcessDefinition>,
    org: OrgModel,
    multidb: Arc<MultiDatabase>,
    programs: Arc<ProgramRegistry>,
) -> Result<Engine, RecoveryError> {
    if journal.is_empty() {
        journal.append_batch(events);
    }
    let config = EngineConfig {
        org,
        ..EngineConfig::default()
    };
    // A journal's memory has no group commits: each event is applied
    // as it comes.
    let mut replay = Replay::over(templates)?;
    journal.for_each(|ev| replay.apply(&ev));
    Engine::open_on(journal, replay, multidb, programs, config)
}

/// What opening read of its journal, and what of that it applied
/// ([`Engine::replayed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Events decoded.
    pub read: u64,
    /// Of those, the events `EngineState::apply` was handed.
    pub applied: u64,
}

impl Replayed {
    /// Events read and not applied: those of finished instances between
    /// their start and their finish, which retirement would erase.
    pub fn elided(&self) -> u64 {
        self.read - self.applied
    }
}

/// A journal being folded into an `EngineState` a frame — one group
/// commit — at a time: the events come straight from the pass that
/// decodes the file, and are held only until their frame ends.
pub(crate) struct Replay {
    state: EngineState,
    max_tick: txn_substrate::Tick,
    /// The first event that could not be applied; the events after it
    /// are skipped (the pass still validates their frames).
    failed: Option<RecoveryError>,
    /// The byte offset of the frame being read, and its events so far.
    frame: usize,
    held: Vec<Event>,
    replayed: Replayed,
}

impl Replay {
    /// The fold's start: `EngineState::over` `templates`. Replay runs
    /// no program: every outcome it needs is in the journal.
    pub(crate) fn over(templates: Vec<ProcessDefinition>) -> Result<Self, RecoveryError> {
        Ok(Self {
            state: EngineState::over(templates)?,
            max_tick: 0,
            failed: None,
            frame: 0,
            held: Vec::new(),
            replayed: Replayed::default(),
        })
    }

    /// Takes the journal's next event, read from the frame at byte
    /// offset `frame` of its file: a frame is applied once it is whole.
    pub(crate) fn feed(&mut self, frame: usize, ev: Event) {
        if frame != self.frame {
            self.end_frame();
            self.frame = frame;
        }
        self.read(&ev);
        self.held.push(ev);
    }

    /// Takes and applies the journal's next event, alone.
    pub(crate) fn apply(&mut self, ev: &Event) {
        self.read(ev);
        self.fold(ev);
    }

    /// Counts `ev` read; its tick is the latest so far if it is later.
    fn read(&mut self, ev: &Event) {
        self.replayed.read += 1;
        self.max_tick = self.max_tick.max(ev.at());
    }

    /// Hands `ev` to `EngineState::apply`, unless the fold has stopped.
    fn fold(&mut self, ev: &Event) {
        if self.failed.is_none() {
            self.replayed.applied += 1;
            if let Err(Refused::Replay(e)) = self.state.apply(ev) {
                self.failed = Some(e);
            }
        }
    }

    /// Applies the held frame in order — but of the instance it holds
    /// the whole life of ([`whole_life`]), only the `InstanceStarted`
    /// and the `InstanceFinished`. What the events in between build is
    /// a slab that retirement drops right after the finish, and the
    /// output retirement keeps is the finish's own. An instance whose
    /// template has a manual activity is folded whole: its events move
    /// the work items.
    fn end_frame(&mut self) {
        let mut held = std::mem::take(&mut self.held);
        let whole = whole_life(&held);
        let mut events = held.drain(..);
        if let Some(start) = whole.and_then(|_| events.next()) {
            self.fold(&start);
        }
        // The instance is in place now, unless the fold stopped.
        let eliding = whole.filter(|&id| {
            self.failed.is_none() && !self.state.instances[index_of(id)].tpl.root.any_manual
        });
        for ev in events {
            let id = ev.instance();
            if eliding.is_none() || id != eliding || matches!(ev, Event::InstanceFinished { .. }) {
                self.fold(&ev);
            }
        }
        self.held = held;
    }

    /// The journal has been fed whole: the state, the latest tick it
    /// mentions and what was read and applied, or why the fold stopped.
    pub(crate) fn finish(
        mut self,
    ) -> Result<(EngineState, txn_substrate::Tick, Replayed), RecoveryError> {
        self.end_frame();
        self.failed.take().map_or(Ok(()), Err)?;
        // The ready queues are not state an event describes: queueing
        // is the navigator's side of a live step. (A retired instance
        // has none.)
        for inst in self.state.instances.iter_mut() {
            if !inst.is_retired() {
                inst.rebuild_ready();
            }
        }
        Ok((self.state, self.max_tick, self.replayed))
    }
}

/// The instance the frame `events` holds the whole life of: the one
/// whose `InstanceStarted` opens it — a frame holds at most one, as an
/// `InstanceStarted` always opens a frame — if the frame holds its
/// `InstanceFinished` too, and neither a `Migrated` of it (its template
/// changes) nor an `InstanceCancelled` (a cancelled instance keeps the
/// output its events built).
fn whole_life(events: &[Event]) -> Option<InstanceId> {
    let (Event::InstanceStarted { instance, .. }, rest) = events.split_first()? else {
        return None;
    };
    let mut finished = false;
    for ev in rest.iter().filter(|ev| ev.instance() == Some(*instance)) {
        match ev {
            Event::InstanceFinished { .. } => finished = true,
            Event::Migrated { .. } | Event::InstanceCancelled { .. } => return None,
            _ => {}
        }
    }
    finished.then_some(*instance)
}

/// Post-replay fix-ups for the (at most one) navigation operation the
/// crash interrupted mid-append. Each is the navigation the crashed
/// engine would have done next, so each changes state by emitting the
/// events that engine would have emitted — none acts silently:
///
/// * re-offer `Ready` manual activities whose offer was cut off
///   (`WorkItemOffered`);
/// * re-ready crashed `Running` program activities (§3.3: re-executed
///   from the beginning) — `ActivityReady`, whose effect closes the
///   work item the interrupted execution left open, then a fresh
///   `WorkItemOffered` if manual;
/// * re-seed/re-decide `Waiting` activities whose ready/dead decision
///   event was cut off (lost seeding after `InstanceStarted`, lost
///   re-ready after `ActivityRescheduled`, lost join decision after
///   the final `ConnectorEvaluated`) — `ActivityReady` or
///   `ActivityTerminated`, and what cascades from them;
/// * complete the outgoing-connector evaluations of `Terminated`
///   activities interrupted mid-cascade (`ConnectorEvaluated`) —
///   processed innermost-first (reverse order of their
///   `ActivityTerminated` events), unwinding the crashed navigation's
///   call stack the way the live run would have;
/// * re-decide `Finished` activities whose exit decision was lost
///   (`ActivityTerminated` or `ActivityRescheduled`);
/// * re-check scope completion, in case the crash hit between the last
///   termination and the completion event (`ActivityFinished` of the
///   block, or `InstanceFinished`).
///
/// An instance a repair finishes is retired after it, as after any
/// live navigation.
///
/// Returns what it repaired, summed over the instances.
pub(crate) fn resume(engine: &Engine) -> FixupCounts {
    let mut st = engine.state.borrow_mut();
    let (instances, mut svc, _) = engine.nav(&mut st);
    // Recovery is cold: count every fix-up category unconditionally so
    // `Engine::metrics` answers "what did recovery repair" even on
    // engines without an enabled observer.
    let reg = engine.obs.observer.registry();
    let mut total = FixupCounts::default();
    for inst in instances.iter_mut() {
        if inst.status != InstanceStatus::Running {
            continue;
        }
        let counts = fixup_instance(inst, &mut svc);
        inst.retire();
        counts.record(reg, "recovery.fixups");
        for (sum, n) in total.0.iter_mut().zip(counts.0) {
            *sum += n;
        }
    }
    total
}

/// The kinds of repair a fix-up pass counts, in [`FixupCounts`]
/// order, as its `<prefix>.<kind>` counters name them.
pub(crate) const FIXUP_KINDS: [&str; 4] = [
    "running_restarted",
    "waiting_renavigated",
    "connectors_reevaluated",
    "exits_redecided",
];

/// How much navigation one fix-up pass repaired, by kind.
#[derive(Default)]
pub(crate) struct FixupCounts(pub(crate) [u64; 4]);

impl FixupCounts {
    /// Adds the counts to `prefix`-namespaced registry counters
    /// (`recovery.fixups` for cold recovery, `migration.fixups` for
    /// live migration repair).
    pub(crate) fn record(&self, reg: &wfms_observe::Registry, prefix: &str) {
        for (kind, n) in FIXUP_KINDS.iter().zip(self.0) {
            reg.counter(&format!("{prefix}.{kind}")).add(n);
        }
    }
}

/// Repairs the navigation one instance is owed: the per-instance body
/// of [`resume`], also applied after a live
/// [`Engine::migrate_to_default`](crate::Engine::migrate_to_default)
/// state transfer (a migrated frontier owes exactly the same kinds of
/// navigation as a crashed one — joins to re-decide, connector
/// cascades to finish, exits to re-check). Journals live events
/// through `svc`, whose journal also orders the terminated-cascade
/// repairs.
pub(crate) fn fixup_instance(inst: &mut Instance, svc: &mut NavServices<'_>) -> FixupCounts {
    // Collect fix-up targets (deepest scopes last-in so child
    // fixes land before parent completion checks).
    let tpl = Arc::clone(&inst.tpl);
    let lay = &tpl.layout;
    let mut fx = Fixups::default();
    collect_fixups(inst, 0, &mut fx);
    let counts = FixupCounts([
        fx.running_programs.len() as u64,
        fx.waiting.len() as u64,
        fx.terminated_missing.len() as u64,
        fx.finished.len() as u64,
    ]);

    // A crash inside a dead-path cascade leaves a *stack* of
    // terminated activities with unevaluated outgoing connectors:
    // terminate(A) → update_target(B) → terminate(B) → … died
    // somewhere inside B. The live run would finish B's edges
    // before returning to A's remaining ones, so process the
    // stack innermost-first — i.e. in reverse order of the
    // `ActivityTerminated` events in the journal, looked up (one pass,
    // which re-reads a mirrored journal's file: this is rare) before
    // the repairs below append anything.
    let mut terminated: Vec<(usize, u32)> = fx
        .terminated_missing
        .iter()
        .map(|&slot| (0, slot))
        .collect();
    if !terminated.is_empty() {
        let mut pos = 0;
        svc.journal.for_each(|e| {
            if let Event::ActivityTerminated { instance, path, .. } = &*e {
                if *instance == inst.id {
                    for (last, slot) in &mut terminated {
                        if **path == *lay.paths[*slot as usize] {
                            *last = pos;
                        }
                    }
                }
            }
            pos += 1;
        });
    }

    // Offers come first: the live run journals `WorkItemOffered`
    // immediately after `ActivityReady`, so a lost offer is the
    // earliest missing event a crash can leave behind. Restarts,
    // waiting decisions, the terminated stack and exits follow.
    terminated.sort_by_key(|(pos, _)| std::cmp::Reverse(*pos));
    let terminated = terminated.into_iter().map(|(_, slot)| slot);
    let repairs = fx
        .ready
        .into_iter()
        .chain(fx.running_programs)
        .chain(fx.waiting)
        .chain(terminated)
        .chain(fx.finished);
    for slot in repairs {
        navigator::repair(&tpl, inst, svc, slot);
    }
    fx.scopes
        .sort_by_key(|&s| std::cmp::Reverse(lay.scope(s).depth));
    for scope in fx.scopes {
        if inst.status != InstanceStatus::Running {
            break;
        }
        navigator::check_scope_completion(&tpl, inst, svc, scope);
    }
    counts
}

/// Fix-up targets gathered in one depth-first declaration-order walk,
/// as global act slots (and [`ScopeId`]s for the completion checks).
#[derive(Default)]
struct Fixups {
    running_programs: Vec<u32>,
    waiting: Vec<u32>,
    terminated_missing: Vec<u32>,
    finished: Vec<u32>,
    /// `Ready` manual activities — re-offered if their work item was
    /// lost with the crash (offer not yet durable).
    ready: Vec<u32>,
    scopes: Vec<ScopeId>,
}

fn collect_fixups(inst: &Instance, s: ScopeId, fx: &mut Fixups) {
    let lay = &inst.tpl.layout;
    fx.scopes.push(s);
    let m = lay.scope(s);
    for i in 0..m.cs.acts.len() {
        let slot = m.act_base + i as u32;
        let sl = slot as usize;
        match inst.slab.acts[sl].state {
            ActState::Running => match lay.block_child[sl] {
                Some(c) if inst.slab.scopes[c as usize].live => collect_fixups(inst, c, fx),
                // Block recorded running but its child scope was never
                // opened (crash inside execute): restart it, exactly
                // like an interrupted program.
                _ => fx.running_programs.push(slot),
            },
            ActState::Waiting => fx.waiting.push(slot),
            ActState::Terminated => {
                if m.cs.acts[i]
                    .outgoing
                    .iter()
                    .any(|&e| inst.slab.connectors[(m.edge_base + e) as usize].is_none())
                {
                    fx.terminated_missing.push(slot);
                }
            }
            ActState::Finished => fx.finished.push(slot),
            ActState::Ready => {
                if !lay.automatic[sl] {
                    fx.ready.push(slot);
                }
            }
        }
    }
}
