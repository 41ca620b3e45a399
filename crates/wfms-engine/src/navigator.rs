//! The navigator — FlowMark's execution semantics (§3.2, appendix).
//!
//! All navigation is deterministic and synchronous: given the same
//! definition, the same program outcomes and the same user actions,
//! the journal is byte-for-byte identical. That determinism is what
//! the golden-trace reproductions of the paper's appendix rely on,
//! and what makes forward recovery a replay.
//!
//! The rules implemented here, straight from the paper:
//!
//! * Activities without incoming control connectors are the start
//!   activities; they become ready when the process starts.
//! * When an activity terminates, its outgoing connectors' transition
//!   conditions are evaluated over its output container.
//! * A target becomes ready when its start condition is met — AND:
//!   all incoming connectors true; OR: one true.
//! * **Dead path elimination**: "if an activity will never be executed
//!   because its start condition evaluates to false, the activity is
//!   marked as terminated and all the outgoing control connectors from
//!   that activity are evaluated to false".
//! * After execution the exit condition is checked over the output
//!   container; if false the activity is reset to ready.
//! * The process is finished when all its activities are terminated.
//! * Blocks are embedded processes: when a block's scope finishes, the
//!   block activity itself finishes with the scope's output (and loops
//!   if its own exit condition says so).
//!
//! Navigation runs entirely on **global slots**: the compiled
//! template's [`ScopeLayout`](crate::compiled::ScopeLayout) flattens
//! every activity, connector and scope into contiguous index spaces,
//! and the per-instance [`StateSlab`](crate::state::StateSlab) holds
//! one record per slot. A navigation step is indexing — no path
//! vectors, no scope-tree walks — and everything an event needs
//! (journal path strings, activity names, container prototypes) is
//! interned in the layout; containers cross from data connector to
//! dispatch to event by reference count, so a step allocates only where
//! a container takes a value its prototype does not have
//! (`tests/cost_census.rs`).
//! The navigator only *decides*, and calls nothing. It changes nothing
//! itself: every change is an event handed to `emit` — the event's
//! effect (`crate::engine::effect`, the same function replay folds over
//! the journal), then the event appended. A program activity it starts
//! is handed back to its caller as a [`Dispatch`], whose outcome comes
//! back through [`finish`]: navigation is a function of the program
//! outcomes, and who produces them — the engine's programs, a journal,
//! a test — is the caller's business (`Engine::run_with`). What it reads
//! to decide is the instance it drives, the [`NavServices`] it is lent
//! and the compiled template the instance runs under, which every
//! function takes as `tpl`: the caller that starts a drive takes the
//! instance's template once and lends it down, since no navigation
//! event changes it (only a migration does, and a migration is not
//! navigation).

use crate::compiled::{CompiledKind, CompiledProcess, DataSource, ScopeId};
use crate::engine;
use crate::event::{Event, InstanceId, WorkItemId};
use crate::journal::Journal;
use crate::metrics::{EngineObs, ProbeCache};
use crate::org::OrgModel;
use crate::state::{ActState, Instance, InstanceStatus};
use crate::worklist::WorklistStore;
use std::convert::Infallible;
use std::time::Instant;
use txn_substrate::frame::Name;
use txn_substrate::{Value, VirtualClock};
use wfms_model::{Container, StartCondition, RC_MEMBER};

/// What the navigator is lent while it drives an instance
/// ([`crate::Engine`] hands it out, borrowing the engine's state): the
/// services it reads, and the part of the engine's state besides that
/// instance that a navigation event's effect writes.
pub(crate) struct NavServices<'a> {
    /// Event journal (append-only).
    pub(crate) journal: &'a Journal,
    /// Virtual clock for event timestamps and deadlines.
    pub(crate) clock: &'a VirtualClock,
    /// Organization database for staff resolution.
    pub(crate) org: &'a OrgModel,
    /// Instances by status: written by `emit` alone.
    pub(crate) counts: &'a mut (u64, u64, u64),
    /// Work items of manual activities: read to decide, written by
    /// `emit` alone.
    pub(crate) worklists: &'a mut WorklistStore,
    /// Work-item id allocator: the next id to offer under; advanced by
    /// the offer's effect.
    pub(crate) next_item: &'a mut u64,
    /// Latency probes by template, for an instance that starts or
    /// migrates while the engine is observed.
    pub(crate) probes: &'a mut ProbeCache,
    /// Observability instruments (pre-resolved counters/gauges; see
    /// [`crate::metrics`]). Hot-path hooks are gated on
    /// [`EngineObs::enabled`]; none of them journal events or read the
    /// clock, so journals stay byte-identical with metrics on.
    pub(crate) obs: &'a EngineObs,
}

impl NavServices<'_> {
    fn now(&self) -> txn_substrate::Tick {
        self.clock.now()
    }
}

/// The one way the navigator changes anything: the effect of `ev` on
/// `inst` at `slot` — the act slot `ev` is about, the edge slot of a
/// `ConnectorEvaluated`, unread otherwise — then `ev` in the journal.
pub(crate) fn emit(inst: &mut Instance, svc: &mut NavServices<'_>, slot: u32, ev: Event) {
    let Ok(()) = engine::emit(svc.journal, ev, |ev| {
        engine::effect(inst, slot, svc.counts, svc.worklists, svc.next_item, ev);
        Ok::<(), Infallible>(())
    });
}

/// True if `tpl` is the template `inst` runs under: what a caller
/// lends the navigator.
fn runs_under(tpl: &CompiledProcess, inst: &Instance) -> bool {
    std::ptr::eq(tpl, &*inst.tpl)
}

/// Makes the start activities of scope `s` ready (scope 0: starts the
/// instance).
pub(crate) fn seed_scope(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    s: ScopeId,
) {
    debug_assert!(runs_under(tpl, inst));
    let m = tpl.layout.scope(s);
    for &start in &m.cs.starts {
        make_ready(tpl, inst, svc, m.act_base + start);
    }
}

/// Transitions the activity at `slot` to ready: queues it for the
/// engine if automatic, offers a work item if manual.
fn make_ready(tpl: &CompiledProcess, inst: &mut Instance, svc: &mut NavServices<'_>, slot: u32) {
    let instance = inst.id;
    let now = svc.now();
    let lay = &tpl.layout;
    let sl = slot as usize;
    let ev = Event::ActivityReady {
        instance,
        path: lay.paths[sl],
        attempt: inst.slab.acts[sl].attempt,
        at: now,
    };
    emit(inst, svc, slot, ev);
    if lay.automatic[sl] {
        inst.push_ready(lay.rank[sl]);
        if svc.obs.enabled() {
            svc.obs.ready_depth.record_max(inst.ready.len() as i64);
        }
    } else {
        if svc.obs.enabled() {
            svc.obs.items_offered.inc();
        }
        offer_item(tpl, inst, svc, slot, now);
    }
}

/// Offers the manual activity at `slot`, at its current attempt, to
/// the persons its staff assignment resolves to, under a fresh id.
fn offer_item(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    slot: u32,
    now: txn_substrate::Tick,
) {
    let lay = &tpl.layout;
    let ev = Event::WorkItemOffered {
        instance: inst.id,
        path: lay.paths[slot as usize],
        item: WorkItemId(*svc.next_item),
        persons: svc.org.resolve(&lay.act(slot).staff).into(),
        at: now,
    };
    emit(inst, svc, slot, ev);
}

/// A program activity started and waiting for its outcome: what its
/// program is asked, borrowed from the compiled template and the
/// instance. Whoever drives the instance answers it with a return code
/// and outputs, and the activity finishes with them
/// ([`crate::Engine::run_with`]).
#[derive(Debug)]
pub struct Dispatch<'a> {
    /// The instance the activity belongs to.
    pub instance: InstanceId,
    /// The activity's path, as its events journal it.
    pub path: Name,
    /// Which execution of the activity this is (0 first; an exit
    /// condition's reschedule counts up).
    pub attempt: u32,
    /// The program the activity names.
    pub program: &'a str,
    /// The input container, as `ActivityStarted` journalled it.
    pub input: &'a Container,
    /// When the activity started, on an observed engine: its latency
    /// probe's start.
    pub(crate) started: Option<Instant>,
}

/// Pops the next runnable activity (ready + automatic) off the
/// instance's ready queue, as a global act slot. The queue is a
/// min-heap of execution ranks (depth-first declaration order); stale
/// entries are validated away here.
pub(crate) fn find_runnable(inst: &mut Instance) -> Option<u32> {
    if inst.status != InstanceStatus::Running {
        return None;
    }
    while let Some(std::cmp::Reverse(rank)) = inst.ready.pop() {
        let slot = inst.tpl.layout.rank_to_slot[rank as usize];
        if is_runnable(inst, slot) {
            return Some(slot);
        }
    }
    None
}

/// A queued slot is still runnable iff every enclosing block is
/// `Running` with its child scope open and the activity itself is
/// `Ready` and automatic.
fn is_runnable(inst: &Instance, slot: u32) -> bool {
    inst.slab.acts[slot as usize].state == ActState::Ready
        && inst.tpl.layout.automatic[slot as usize]
        && inst.ancestors_open(slot)
}

/// Starts the activity at `slot` (which must be ready). `by` names the
/// person for manual executions; `None` means the engine runs it. A
/// program activity is handed back as its [`Dispatch`], to be answered
/// and [`finish`]ed before the next step; a no-op finishes and a block
/// opens its scope here, and both answer `None`.
pub(crate) fn execute_activity<'a>(
    tpl: &'a CompiledProcess,
    inst: &'a mut Instance,
    svc: &mut NavServices<'_>,
    slot: u32,
    by: Option<Name>,
) -> Option<Dispatch<'a>> {
    debug_assert!(runs_under(tpl, inst));
    let instance = inst.id;
    let lay = &tpl.layout;
    let sl = slot as usize;
    let act = lay.act(slot);
    let s = lay.owner[sl];
    let m = lay.scope(s);

    // Materialise the input container from the data connectors whose
    // sources are available (§3.2 flow of data). With no data
    // connectors this is a clone of the interned prototype — a
    // reference-count bump.
    let mut input = lay.input_proto[sl].clone();
    for d in &act.data_in {
        let source = match &d.source {
            DataSource::ProcessInput => Some(&inst.slab.scopes[s as usize].input),
            DataSource::ActivityOutput(src) => {
                let src = &inst.slab.acts[(m.act_base + *src) as usize];
                (src.state == ActState::Terminated && src.executed).then_some(&src.output)
            }
        };
        let Some(source) = source else { continue };
        for (from, to) in &d.mappings {
            if let Some(v) = source.get(from) {
                input.set(to, v.clone());
            }
        }
    }

    debug_assert_eq!(
        inst.slab.acts[sl].state,
        ActState::Ready,
        "execute requires ready"
    );
    let attempt = inst.slab.acts[sl].attempt;
    let ev = Event::ActivityStarted {
        instance,
        path: lay.paths[sl],
        attempt,
        by,
        input: input.clone(),
        at: svc.now(),
    };
    emit(inst, svc, slot, ev);

    if svc.obs.enabled() {
        svc.obs.executions.inc();
        if attempt > 0 {
            svc.obs.retries.inc();
        }
    }
    // Start→finish latency clock: probes are only handed to instances
    // of observed engines, so this is one `None` check otherwise.
    let started = inst.probes.as_ref().map(|_| Instant::now());

    match &act.kind {
        CompiledKind::NoOp => {
            // A no-op activity "commits" immediately with rc 1 and
            // passes its input container through to its output (only
            // members declared in the output schema survive). The
            // Figure 2 compensation trigger relies on this to expose
            // the State_i flags to its outgoing transition conditions.
            finish(tpl, inst, svc, slot, started, 1, &input);
            None
        }
        CompiledKind::Program(program) => Some(Dispatch {
            instance,
            path: lay.paths[sl],
            attempt,
            program,
            input: &inst.slab.acts[sl].input,
            started,
        }),
        CompiledKind::Block(_) => {
            // Starting the block opened its child scope; the block
            // stays running until that scope finishes.
            let c = lay.block_child[sl].expect("compiled block has a child scope");
            seed_scope(tpl, inst, svc, c);
            // An empty block (no activities) finishes immediately;
            // validation forbids it, but stay safe.
            check_scope_completion(tpl, inst, svc, c);
            // No latency probe for blocks: a block "runs" across many
            // navigation steps, so its wall-clock span is the sum of
            // its inner activities' probes.
            None
        }
    }
}

/// Records the outcome of the execution at `slot`: builds the output
/// container (schema defaults + the declared members of `outputs` +
/// `RC`), emits the finish and decides the exit condition — then, if
/// the activity has a `started` time (only observed engines take one),
/// records its start→finish latency into the instance's probe for
/// `slot`.
pub(crate) fn finish(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    slot: u32,
    started: Option<Instant>,
    rc: i64,
    outputs: &Container,
) {
    debug_assert!(runs_under(tpl, inst));
    let instance = inst.id;
    let lay = &tpl.layout;
    let sl = slot as usize;

    // From the interned prototype (schema defaults + `RC = 1`), by
    // reference count until something differs from it. Only declared
    // members enter the container: schema discipline (undeclared
    // program outputs are dropped, as in FlowMark where the API only
    // exposes declared container members).
    let mut output = lay.output_rc1[sl].clone();
    output.overlay(outputs);
    output.set(RC_MEMBER, Value::Int(rc));

    if svc.obs.enabled() {
        // Count executions that ran inside a compensation block (the
        // saga translation nests undo activities in a block named
        // "Compensation" — see the atm crate's saga lowering).
        if let Some((_, pslot)) = lay.scope(lay.owner[sl]).parent {
            if lay.act(pslot).name == "Compensation" {
                svc.obs.compensations.inc();
            }
        }
    }

    let ev = Event::ActivityFinished {
        instance,
        path: lay.paths[sl],
        attempt: inst.slab.acts[sl].attempt,
        output,
        at: svc.now(),
    };
    emit(inst, svc, slot, ev);
    decide_exit(tpl, inst, svc, slot);
    if let (Some(t0), Some(probes)) = (started, &inst.probes) {
        probes[sl].record(t0.elapsed().as_nanos() as u64);
    }
}

/// Decides the exit condition of a *finished* activity: terminate on
/// true, reschedule on false (§3.2).
fn decide_exit(tpl: &CompiledProcess, inst: &mut Instance, svc: &mut NavServices<'_>, slot: u32) {
    debug_assert!(runs_under(tpl, inst));
    let instance = inst.id;
    let lay = &tpl.layout;
    let sl = slot as usize;
    let exit_ok = lay.act(slot).exit.eval_exit(&inst.slab.acts[sl].output);
    if exit_ok {
        terminate_activity(tpl, inst, svc, slot, true);
    } else {
        if svc.obs.enabled() {
            svc.obs.reschedules.inc();
        }
        let ev = Event::ActivityRescheduled {
            instance,
            path: lay.paths[sl],
            next_attempt: inst.slab.acts[sl].attempt + 1,
            at: svc.now(),
        };
        emit(inst, svc, slot, ev);
        make_ready(tpl, inst, svc, slot);
    }
}

/// Repairs the navigation a crash — or a migration's state transfer —
/// left owed to the activity at `slot`, by its state, with exactly the
/// events the interrupted run would have appended next. Nothing, for
/// one an earlier repair's cascade has already decided.
///
/// * `Ready` and **manual** with no open work item: the crash fell
///   between `ActivityReady` and `WorkItemOffered`, so the offer never
///   became durable. Re-offered at the same attempt (fresh item id). An
///   automatic one needs nothing: replaying `ActivityReady` re-enqueues
///   it.
/// * `Running`: re-executed from the beginning (§3.3: "the activity
///   will be rescheduled to be executed from the beginning") — the
///   dispatch nobody answered is handed out again. `ActivityReady`
///   closes the item the interrupted execution left open; a manual
///   activity is offered afresh.
/// * `Waiting`: its deciding events were cut off. A **start activity**
///   (no incoming connectors) lost its `ActivityReady` — the crash hit
///   between the `InstanceStarted`/block-`ActivityStarted` event and the
///   seeding of the scope, or between an `ActivityRescheduled` and its
///   re-ready — and is made ready unconditionally, as seeding does. A
///   joined activity whose incoming connectors were all evaluated lost
///   its ready/dead decision, which is re-run; an undecidable join is
///   left waiting, exactly as live.
/// * `Terminated`, interrupted mid-[`terminate_activity`]: the outgoing
///   connectors the replay found unevaluated are evaluated, in
///   declaration order, exactly as the live path would have continued.
/// * `Finished`: its exit decision was lost, and is decided.
pub(crate) fn repair(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    slot: u32,
) {
    debug_assert!(runs_under(tpl, inst));
    let sl = slot as usize;
    let lay = &tpl.layout;
    match inst.slab.acts[sl].state {
        ActState::Ready => {
            if !lay.automatic[sl] && !svc.worklists.has_live_item(inst.id, lay.paths[sl]) {
                offer_item(tpl, inst, svc, slot, svc.now());
            }
        }
        ActState::Running => make_ready(tpl, inst, svc, slot),
        ActState::Waiting if lay.act(slot).incoming.is_empty() => make_ready(tpl, inst, svc, slot),
        ActState::Waiting => update_target(tpl, inst, svc, slot),
        ActState::Terminated => evaluate_outgoing(tpl, inst, svc, slot),
        ActState::Finished => decide_exit(tpl, inst, svc, slot),
    }
}

/// Evaluates the outgoing connectors of the terminated activity at
/// `slot` that have no value yet, in declaration order, cascading to
/// each target. Live that is all of them — no outgoing connector is
/// evaluated before its activity terminates, and reopening a scope
/// resets its connectors; after a crash it is those the interrupted
/// cascade had not reached. A dead activity's connectors are all false
/// (§3.2); an executed one evaluates its precompiled transition plans
/// over the output container (evaluation errors are false — fail safe
/// — and statically constant conditions were folded at compile time).
/// It stops once a target's cascade has finished the instance: the
/// connectors left lead to activities already terminated, and nothing
/// of an instance is journalled after its `InstanceFinished`.
fn evaluate_outgoing(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    slot: u32,
) {
    let instance = inst.id;
    let lay = &tpl.layout;
    let sl = slot as usize;
    let executed = inst.slab.acts[sl].executed;
    let m = lay.scope(lay.owner[sl]);
    for &edge_id in &lay.act(slot).outgoing {
        if inst.status != InstanceStatus::Running {
            return;
        }
        let edge = &m.cs.edges[edge_id as usize];
        let es = (m.edge_base + edge_id) as usize;
        if inst.slab.connectors[es].is_some() {
            continue;
        }
        let ev = Event::ConnectorEvaluated {
            instance,
            scope: m.path,
            from: lay.edge_names[es].0,
            to: lay.edge_names[es].1,
            value: executed && edge.cond.eval_transition(&inst.slab.acts[sl].output),
            at: svc.now(),
        };
        emit(inst, svc, es as u32, ev);
        update_target(tpl, inst, svc, m.act_base + edge.to);
    }
}

/// Terminates the activity at `slot`. `executed = false` is the dead
/// path elimination case. Evaluates outgoing connectors, cascades to
/// targets and checks scope completion.
fn terminate_activity(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    slot: u32,
    executed: bool,
) {
    debug_assert!(runs_under(tpl, inst));
    let instance = inst.id;
    let lay = &tpl.layout;
    let sl = slot as usize;
    if !executed && svc.obs.enabled() {
        svc.obs.dead_paths.inc();
    }
    // An executed activity's data connectors to the scope's output
    // container take effect with this event.
    let ev = Event::ActivityTerminated {
        instance,
        path: lay.paths[sl],
        executed,
        at: svc.now(),
    };
    emit(inst, svc, slot, ev);

    evaluate_outgoing(tpl, inst, svc, slot);
    check_scope_completion(tpl, inst, svc, lay.owner[sl]);
}

/// Re-examines a waiting activity's start condition after one of its
/// incoming connectors was evaluated; makes it ready or dead.
fn update_target(tpl: &CompiledProcess, inst: &mut Instance, svc: &mut NavServices<'_>, slot: u32) {
    let lay = &tpl.layout;
    let sl = slot as usize;
    if inst.slab.acts[sl].state != ActState::Waiting {
        // Already ready/running/terminated; OR-joins latch on the
        // first true connector.
        return;
    }
    let act = lay.act(slot);
    let m = lay.scope(lay.owner[sl]);
    let mut any_true = false;
    let mut any_false = false;
    let mut any_pending = false;
    for &e in &act.incoming {
        match inst.slab.connectors[(m.edge_base + e) as usize] {
            Some(true) => any_true = true,
            Some(false) => any_false = true,
            None => any_pending = true,
        }
    }
    let decision = match act.start {
        StartCondition::And => {
            if any_false {
                Some(false) // dead
            } else if !any_pending {
                Some(true) // ready
            } else {
                None // still waiting
            }
        }
        StartCondition::Or => {
            if any_true {
                Some(true)
            } else if !any_pending {
                Some(false)
            } else {
                None
            }
        }
    };
    match decision {
        Some(true) => make_ready(tpl, inst, svc, slot),
        Some(false) => terminate_activity(tpl, inst, svc, slot, false),
        None => {}
    }
}

/// If every activity of scope `s` is terminated (tracked as a counter,
/// not a scan), the scope is finished: the root scope finishes the
/// instance; a block scope finishes its block activity (which may loop
/// via its exit condition).
pub(crate) fn check_scope_completion(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
    s: ScopeId,
) {
    let instance = inst.id;
    let scope = &inst.slab.scopes[s as usize];
    if !scope.live || scope.remaining != 0 {
        return;
    }
    let output = inst.slab.scopes[s as usize].output.clone();

    if s == 0 {
        if inst.status == InstanceStatus::Running {
            let ev = Event::InstanceFinished {
                instance,
                output,
                at: svc.now(),
            };
            emit(inst, svc, 0, ev);
        }
        return;
    }

    // A block scope finished: complete the block activity with the
    // scope's output. The block's return code is the scope output's
    // RC member when declared, else 1 ("the block ran").
    let (_, pslot) = (tpl.layout.scope(s).parent).expect("non-root scope has a parent block");
    if inst.slab.acts[pslot as usize].state != ActState::Running {
        return; // already completed (idempotence guard)
    }
    let rc = output.get(RC_MEMBER).and_then(|v| v.as_int()).unwrap_or(1);
    finish(tpl, inst, svc, pslot, None, rc, &output);
}

/// Cancels the instance (its offered work items close with it).
/// Non-terminated activities simply stop navigating.
pub(crate) fn cancel_instance(inst: &mut Instance, svc: &mut NavServices<'_>) {
    if inst.status == InstanceStatus::Running {
        let ev = Event::InstanceCancelled {
            instance: inst.id,
            at: svc.now(),
        };
        emit(inst, svc, 0, ev);
    }
}

/// Sends deadline notifications (§3.3) for ready manual activities
/// whose deadline elapsed: each eligible person's manager is notified
/// once per readiness period (`NotificationSent` is what marks the
/// period notified — with nobody to notify it stays due, and is
/// resolved again at the next check). Returns `(path, person)` pairs
/// notified.
///
/// The compiled template indexes deadline-bearing activities per scope
/// ([`CompiledScope::deadline_acts`](crate::compiled::CompiledScope::deadline_acts))
/// and records whether any exist at all
/// ([`CompiledScope::any_deadlines`](crate::compiled::CompiledScope::any_deadlines)),
/// so instances without deadlines return without scanning anything.
/// Scopes are visited in preorder, skipping scopes that are not
/// actively executing.
pub(crate) fn check_deadlines(
    tpl: &CompiledProcess,
    inst: &mut Instance,
    svc: &mut NavServices<'_>,
) -> Vec<(String, String)> {
    debug_assert!(runs_under(tpl, inst));
    if !tpl.root.any_deadlines {
        return Vec::new();
    }

    let now = svc.now();
    let lay = &tpl.layout;
    let org = svc.org;
    let mut due: Vec<(u32, Vec<Name>)> = Vec::new();
    for s in 0..lay.n_scopes() as ScopeId {
        let m = lay.scope(s);
        if m.cs.deadline_acts.is_empty() || !inst.scope_active(s) {
            continue;
        }
        for &id in &m.cs.deadline_acts {
            let slot = m.act_base + id;
            let sl = slot as usize;
            if inst.slab.acts[sl].state != ActState::Ready || inst.slab.acts[sl].notified {
                continue;
            }
            let act = lay.act(slot);
            if let (Some(deadline), Some(since)) = (act.deadline, inst.slab.acts[sl].ready_since) {
                if since + deadline <= now {
                    let mut managers: Vec<Name> = org
                        .resolve(&act.staff)
                        .iter()
                        .filter_map(|p| org.manager_of(p).map(|mg| mg.name))
                        .collect();
                    managers.sort();
                    managers.dedup();
                    due.push((slot, managers));
                }
            }
        }
    }

    let mut sent = Vec::new();
    for (slot, managers) in due {
        let path = lay.paths[slot as usize];
        for person in managers {
            let ev = Event::NotificationSent {
                instance: inst.id,
                path,
                person,
                at: now,
            };
            emit(inst, svc, slot, ev);
            sent.push((path.to_string(), person.to_string()));
        }
    }
    // Deadline checks run off the clock-advance path (cold), so count
    // unconditionally — recovered engines report them too.
    if !sent.is_empty() {
        svc.obs.notifications.add(sent.len() as u64);
    }
    sent
}
