//! Run-time state of process instances.
//!
//! §3.2 fixes the activity lifecycle: *ready* → *running* → *finished*
//! (execution completed) → *terminated* (completed and exit condition
//! satisfied). We add the implicit pre-state *waiting* (start
//! condition not yet met); activities removed by dead path elimination
//! go straight from waiting to terminated with `executed = false`.
//!
//! Live state is a [`StateSlab`]: one arena over the compiled
//! template's **global slots** (see [`ScopeLayout`]) — a vector of
//! activity records, one of connector values and one of scope records.
//! A new instance clones the template's prototype slab
//! (`ScopeLayout::fresh`): three allocations, after which
//! steady-state navigation indexes them and never allocates. Scope
//! nesting is flattened: a block's child scope is a slot range plus a
//! liveness bit, not a heap-allocated subtree.
//!
//! **This module is the slab's only writer, and `apply` its only
//! caller.** The state effect of each journal event is one [`Instance`]
//! method taking a slot (`Instance::activity_ready`,
//! `Instance::activity_started`, …), called from one place: the
//! event's arm in `EngineState::apply` / `effect` (`engine.rs`). Replay
//! gets there by resolving the journalled path
//! (`Instance::live_slot`), the navigator by emitting the event it
//! decided on — so §3.3's "resumed from the point where the failure
//! occurred" holds because there is one description of what an event
//! does, not two kept in step by hand
//! (`tests/one_transition_function.rs`).
//!
//! **An instance that stops running is retired** (`Instance::retire`):
//! its slab, ready queue and probes are dropped, and what is left is
//! what a client is served — template, tenant, status and the process
//! output. The history is the journal's. Retiring is not an event's
//! effect but what happens *after* one: the engine retires once the
//! call that navigated the instance returns (callers unwinding past
//! `InstanceFinished` still index the slab), replay once it applied
//! `InstanceFinished` / `InstanceCancelled`. Afterwards an event about
//! the instance addresses nothing live and has no effect.
//!
//! [`ScopeState`] is the checkpoint payload: a scope tree of plain
//! data with no reference to a template, because a checkpoint record
//! is decoded before any template is known (the decoder has no
//! registry). [`Instance::snapshot_root`] and
//! [`Instance::restore_root`] convert losslessly; a retired instance's
//! tree is its outcome alone.

use crate::compiled::{ActId, CompiledProcess, ScopeId, ScopeLayout};
use crate::event::InstanceId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use txn_substrate::frame::Name;
use txn_substrate::Tick;
use wfms_model::{Container, ProcessDefinition};

/// Lifecycle state of one activity instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActState {
    /// Start condition not yet met.
    Waiting,
    /// Eligible to run (on a worklist if manual).
    Ready,
    /// Currently executing (for a block: the child scope is active).
    Running,
    /// Execution completed; exit condition not yet decided.
    Finished,
    /// Final: either executed successfully or removed by dead path
    /// elimination (see [`ActivityRt::executed`]).
    Terminated,
}

/// Run-time record of one activity: the element of
/// the slab's activity vector, and what [`ScopeState`] snapshots carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityRt {
    /// Current lifecycle state.
    pub state: ActState,
    /// Meaningful when `Terminated`: true if the activity actually
    /// ran; false if dead path elimination removed it.
    pub executed: bool,
    /// Zero-based attempt counter (incremented by exit-condition
    /// reschedules).
    pub attempt: u32,
    /// Materialised input container (valid from `Running` on).
    pub input: Container,
    /// Output container (valid from `Finished` on; contains `RC`).
    pub output: Container,
    /// Tick at which the activity last became ready (deadline base).
    pub ready_since: Option<Tick>,
    /// A deadline notification has been sent for the current readiness
    /// period.
    pub notified: bool,
}

impl ActivityRt {
    /// Fresh waiting activity.
    pub fn new() -> Self {
        Self {
            state: ActState::Waiting,
            executed: false,
            attempt: 0,
            input: Container::empty(),
            output: Container::empty(),
            ready_since: None,
            notified: false,
        }
    }

    /// True once the activity reached its final state.
    pub fn is_terminated(&self) -> bool {
        self.state == ActState::Terminated
    }
}

impl Default for ActivityRt {
    fn default() -> Self {
        Self::new()
    }
}

/// Serialized state of one (sub)process scope, indexed by the compiled
/// template's dense ids — plain data, the payload of `EngineCheckpoint`
/// snapshots. The navigator runs on the [`StateSlab`];
/// [`Instance::snapshot_root`] / [`Instance::restore_root`] convert
/// between the two.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScopeState {
    /// Per-activity state, indexed by [`ActId`].
    pub activities: Vec<ActivityRt>,
    /// Evaluated transition-condition values, indexed by
    /// [`crate::compiled::EdgeId`]. `None` = not yet evaluated.
    pub connectors: Vec<Option<bool>>,
    /// The scope's input container (process input, or the block
    /// activity's materialised input).
    pub input: Container,
    /// The scope's output container, filled by data connectors to
    /// `PROCESS.OUTPUT` as activities terminate.
    pub output: Container,
    /// Child scopes of block activities that have started, as
    /// `(block ActId, state)` pairs sorted by id. (A vector of pairs,
    /// not a map, so the serialized form has string-free keys — JSON
    /// maps require string keys.)
    pub children: Vec<(ActId, ScopeState)>,
}

/// Overall status of a process instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceStatus {
    /// Navigation in progress (possibly idle waiting on humans).
    Running,
    /// Every activity terminated; output container final.
    Finished,
    /// Cancelled by an operator.
    Cancelled,
}

/// Run-time record of one scope, indexed by [`ScopeId`].
#[derive(Debug, Clone)]
pub(crate) struct ScopeRt {
    /// The scope is open — its block activity started it and no
    /// reschedule closed it since. The root is always open. A
    /// completed block's scope stays open for inspection; only a
    /// reschedule closes it.
    pub(crate) live: bool,
    /// Activities not yet terminated — the §3.2 completion rule as a
    /// counter instead of a scan.
    pub(crate) remaining: u32,
    /// The scope's input container.
    pub(crate) input: Container,
    /// The scope's output container.
    pub(crate) output: Container,
}

/// Arena holding one instance's entire run-time state, indexed by the
/// template's global slots ([`ScopeLayout`]). Opening, closing and
/// resetting block scopes are range operations (subtrees are
/// contiguous slot ranges by preorder construction) — no per-scope
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct StateSlab {
    /// Per act slot.
    pub(crate) acts: Vec<ActivityRt>,
    /// Per edge slot: evaluated transition-condition value.
    pub(crate) connectors: Vec<Option<bool>>,
    /// Per scope.
    pub(crate) scopes: Vec<ScopeRt>,
}

impl StateSlab {
    /// The state every instance of the layout's template starts in:
    /// every activity waiting, no connector evaluated, the root scope
    /// open on its container prototypes. Built once per template
    /// (`ScopeLayout::fresh`); an instance clones it.
    pub(crate) fn fresh(layout: &ScopeLayout) -> Self {
        let mut scopes = vec![
            ScopeRt {
                live: false,
                remaining: 0,
                input: Container::empty(),
                output: Container::empty(),
            };
            layout.n_scopes()
        ];
        let root = layout.scope(0);
        scopes[0] = ScopeRt {
            live: true,
            remaining: root.cs.acts.len() as u32,
            input: root.input_proto.clone(),
            output: root.output_proto.clone(),
        };
        Self {
            acts: vec![ActivityRt::new(); layout.n_acts()],
            connectors: vec![None; layout.n_edges()],
            scopes,
        }
    }
}

/// One process instance: a compiled template plus its state slab and a
/// ready queue of automatic activities — while it runs. Once it has
/// finished or been cancelled the engine retires it, and it keeps only
/// its outcome: template, tenant, status and process output
/// ([`crate::Engine::view`]).
///
/// The ready queue is a min-heap of execution **ranks**
/// ([`ScopeLayout::rank`]): rank order is depth-first declaration
/// order, the execution order the journal format fixes, so popping the
/// heap keeps journals byte-for-byte reproducible with `u32`
/// comparisons and no per-entry allocation. Entries are
/// validated lazily at pop time; stale ones (the activity moved on, or
/// its enclosing block closed) are discarded.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance identifier.
    pub id: InstanceId,
    /// The compiled template this instance runs.
    pub tpl: Arc<CompiledProcess>,
    /// The state arena.
    pub(crate) slab: StateSlab,
    /// Overall status.
    pub status: InstanceStatus,
    /// Owning tenant, when the instance was started under one.
    /// Journalled on `InstanceStarted` and carried through snapshots,
    /// so recovery restores it.
    pub tenant: Option<Name>,
    /// Ready automatic activities as execution ranks (min-heap; may
    /// hold stale entries).
    pub(crate) ready: BinaryHeap<Reverse<u32>>,
    /// Pre-resolved latency probes for this instance's template, one
    /// per act slot; `None` unless the owning engine's observer is
    /// enabled. Runtime-only — never serialised into snapshots or the
    /// journal.
    pub(crate) probes: Option<crate::metrics::ActProbes>,
    /// The process output once retired; until then the root scope's
    /// output in the slab is it.
    output: Container,
}

impl Instance {
    /// Creates a fresh instance of `tpl`.
    pub fn new(id: InstanceId, tpl: Arc<CompiledProcess>) -> Self {
        Self {
            id,
            slab: tpl.layout.fresh.clone(),
            tpl,
            status: InstanceStatus::Running,
            tenant: None,
            ready: BinaryHeap::new(),
            probes: None,
            output: Container::empty(),
        }
    }

    /// An instance of `tpl` that stopped running (`status`) with the
    /// process output `output`: retired from the start. What a
    /// checkpoint restores of one.
    pub(crate) fn retired(
        id: InstanceId,
        tpl: Arc<CompiledProcess>,
        status: InstanceStatus,
        output: Container,
    ) -> Self {
        Self {
            id,
            tpl,
            slab: StateSlab::default(),
            status,
            tenant: None,
            ready: BinaryHeap::new(),
            probes: None,
            output,
        }
    }

    /// The source process definition.
    pub fn def(&self) -> &Arc<ProcessDefinition> {
        &self.tpl.def
    }

    /// Merges the caller's process input over the root scope's
    /// prototype — the state effect of `InstanceStarted`.
    pub(crate) fn seed_input(&mut self, input: &Container) {
        self.slab.scopes[0].input.merge(input);
    }

    /// The root scope's output container (the process output).
    pub fn root_output(&self) -> &Container {
        self.slab
            .scopes
            .first()
            .map_or(&self.output, |root| &root.output)
    }

    /// True once the instance has been retired: it has no slab left.
    pub(crate) fn is_retired(&self) -> bool {
        self.slab.scopes.is_empty()
    }

    /// Retires the instance if it has stopped running: moves the
    /// process output out of the slab, then drops the slab, the ready
    /// queue and the probes. Allocates nothing; a no-op while the
    /// instance runs and once it is retired.
    pub(crate) fn retire(&mut self) {
        if self.status == InstanceStatus::Running || self.is_retired() {
            return;
        }
        self.output = std::mem::take(&mut self.slab.scopes[0].output);
        self.slab = StateSlab::default();
        self.ready = BinaryHeap::new();
        self.probes = None;
    }

    /// (Re)opens scope `s`: resets the subtree's slot ranges to fresh
    /// waiting state, closes stale descendant scopes and installs the
    /// scope's container prototypes. Pure range operations on the
    /// slab.
    fn open_scope(&mut self, s: ScopeId) {
        let lay = &self.tpl.layout;
        self.slab.acts[lay.subtree_act_range(s)].fill(ActivityRt::new());
        self.slab.connectors[lay.subtree_edge_range(s)].fill(None);
        self.close_scope(s);
        let m = self.tpl.layout.scope(s);
        self.slab.scopes[s as usize] = ScopeRt {
            live: true,
            remaining: m.cs.acts.len() as u32,
            input: m.input_proto.clone(),
            output: m.output_proto.clone(),
        };
    }

    /// Closes scope `s` and every descendant (a rescheduled block
    /// discards its child scope; a fresh one opens on restart).
    fn close_scope(&mut self, s: ScopeId) {
        for sc in &mut self.slab.scopes[self.tpl.layout.subtree_scope_range(s)] {
            sc.live = false;
        }
    }

    /// Sets the lifecycle state of `slot`, maintaining the owning
    /// scope's non-terminated counter.
    fn set_act_state(&mut self, slot: u32, new: ActState) {
        let remaining =
            &mut self.slab.scopes[self.tpl.layout.owner[slot as usize] as usize].remaining;
        let act = &mut self.slab.acts[slot as usize];
        if act.state != ActState::Terminated && new == ActState::Terminated {
            *remaining = remaining.saturating_sub(1);
        } else if act.state == ActState::Terminated && new != ActState::Terminated {
            *remaining += 1;
        }
        act.state = new;
    }

    /// `ActivityReady`: the activity becomes ready at `attempt`, and a
    /// new readiness period (deadline base, notification flag) begins.
    pub(crate) fn activity_ready(&mut self, slot: u32, attempt: u32, at: Tick) {
        self.set_act_state(slot, ActState::Ready);
        let act = &mut self.slab.acts[slot as usize];
        act.attempt = attempt;
        act.ready_since = Some(at);
        act.notified = false;
    }

    /// `ActivityStarted`: the activity runs on `input`. A block opens
    /// a fresh child scope whose input container is the block's
    /// materialised input merged over the scope's prototype.
    pub(crate) fn activity_started(&mut self, slot: u32, input: &Container) {
        self.set_act_state(slot, ActState::Running);
        self.slab.acts[slot as usize].input = input.clone();
        if let Some(c) = self.tpl.layout.block_child[slot as usize] {
            self.open_scope(c);
            self.slab.scopes[c as usize].input.merge(input);
        }
    }

    /// `ActivityFinished`: execution completed with `output`; the exit
    /// condition is not yet decided.
    pub(crate) fn activity_finished(&mut self, slot: u32, output: &Container) {
        self.set_act_state(slot, ActState::Finished);
        self.slab.acts[slot as usize].output = output.clone();
    }

    /// `ActivityRescheduled`: the exit condition failed, the activity
    /// waits again at `next_attempt`. A block discards its child scope
    /// (a fresh one opens on restart).
    pub(crate) fn activity_rescheduled(&mut self, slot: u32, next_attempt: u32) {
        if let Some(c) = self.tpl.layout.block_child[slot as usize] {
            self.close_scope(c);
        }
        self.set_act_state(slot, ActState::Waiting);
        self.slab.acts[slot as usize].attempt = next_attempt;
    }

    /// `ActivityTerminated`: final state. An executed activity's data
    /// connectors to the scope's output container take effect here.
    pub(crate) fn activity_terminated(&mut self, slot: u32, executed: bool) {
        let sl = slot as usize;
        self.set_act_state(slot, ActState::Terminated);
        self.slab.acts[sl].executed = executed;
        if executed {
            let lay = &self.tpl.layout;
            let scope_output = &mut self.slab.scopes[lay.owner[sl] as usize].output;
            for (from, to) in &lay.act(slot).data_out {
                if let Some(v) = self.slab.acts[sl].output.get(from) {
                    scope_output.set(to, v.clone());
                }
            }
        }
    }

    /// `ConnectorEvaluated`: the connector at global edge slot `edge`
    /// evaluated to `value`.
    pub(crate) fn connector_evaluated(&mut self, edge: u32, value: bool) {
        self.slab.connectors[edge as usize] = Some(value);
    }

    /// `NotificationSent`: the deadline notification of the current
    /// readiness period went out.
    pub(crate) fn notification_sent(&mut self, slot: u32) {
        self.slab.acts[slot as usize].notified = true;
    }

    /// `InstanceFinished`: every root activity terminated; `output` is
    /// the final process output. The terminations before it already
    /// built that container here — live it *is* `output`, and replay
    /// rebuilt it from the same transitions — so the journalled copy
    /// is taken only where it differs, and a recovered instance does
    /// not end up sharing its output with the journal record.
    pub(crate) fn instance_finished(&mut self, output: &Container) {
        self.status = InstanceStatus::Finished;
        if self.slab.scopes[0].output != *output {
            self.slab.scopes[0].output = output.clone();
        }
    }

    /// `InstanceCancelled`.
    pub(crate) fn instance_cancelled(&mut self) {
        self.status = InstanceStatus::Cancelled;
    }

    /// True when scope `s` and every enclosing scope is open — never,
    /// once the instance is retired.
    fn scope_open(&self, s: ScopeId) -> bool {
        let mut cur = Some(s);
        while let Some(s) = cur {
            if !self.slab.scopes.get(s as usize).is_some_and(|sc| sc.live) {
                return false;
            }
            cur = self.tpl.layout.scope(s).parent.map(|(ps, _)| ps);
        }
        true
    }

    /// Resolves a scope's journal path (`""` is the root) to the
    /// **open** scope it addresses.
    pub(crate) fn live_scope(&self, path: &str) -> Option<ScopeId> {
        let s = *self.tpl.layout.scope_by_path.get(path)?;
        self.scope_open(s).then_some(s)
    }

    /// Resolves an activity's journal path to its global act slot,
    /// requiring every enclosing scope to be open.
    pub(crate) fn live_slot(&self, path: &str) -> Option<u32> {
        let slot = *self.tpl.layout.slot_by_path.get(path)?;
        self.scope_open(self.tpl.layout.owner[slot as usize])
            .then_some(slot)
    }

    /// True when scope `s` is actively executing: it is open and every
    /// enclosing block activity is `Running` with an open child scope.
    pub(crate) fn scope_active(&self, s: ScopeId) -> bool {
        let lay = &self.tpl.layout;
        let mut s = s;
        loop {
            if !self.slab.scopes[s as usize].live {
                return false;
            }
            match lay.scope(s).parent {
                None => return true,
                Some((ps, pslot)) => {
                    if self.slab.acts[pslot as usize].state != ActState::Running {
                        return false;
                    }
                    s = ps;
                }
            }
        }
    }

    /// True when every enclosing block of `slot` is `Running` with an
    /// open child scope — the validity condition for queued ready
    /// entries and recovered state alike.
    pub(crate) fn ancestors_open(&self, slot: u32) -> bool {
        self.scope_active(self.tpl.layout.owner[slot as usize])
    }

    /// Queues a ready automatic activity by its execution rank.
    pub(crate) fn push_ready(&mut self, rank: u32) {
        self.ready.push(Reverse(rank));
    }

    /// Rebuilds the ready queue from the slab — used after recovery
    /// replay and checkpoint restore, which mutate state without
    /// navigating.
    pub(crate) fn rebuild_ready(&mut self) {
        let tpl = Arc::clone(&self.tpl);
        let lay = &tpl.layout;
        let mut ready = BinaryHeap::new();
        for slot in 0..lay.n_acts() {
            if self.slab.acts[slot].state == ActState::Ready
                && lay.automatic[slot]
                && self.ancestors_open(slot as u32)
            {
                ready.push(Reverse(lay.rank[slot]));
            }
        }
        self.ready = ready;
    }

    /// Snapshots the slab as a [`ScopeState`] tree (checkpoints,
    /// inspection). Open child scopes become tree children. A retired
    /// instance's tree is its outcome: the process output, nothing else.
    pub fn snapshot_root(&self) -> ScopeState {
        if self.is_retired() {
            return ScopeState {
                output: self.output.clone(),
                ..ScopeState::default()
            };
        }
        self.snap_scope(0)
    }

    fn snap_scope(&self, s: ScopeId) -> ScopeState {
        let lay = &self.tpl.layout;
        let m = lay.scope(s);
        let acts = m.act_base as usize..m.act_base as usize + m.cs.acts.len();
        let edges = m.edge_base as usize..m.edge_base as usize + m.cs.edges.len();
        let sc = &self.slab.scopes[s as usize];
        ScopeState {
            activities: self.slab.acts[acts.clone()].to_vec(),
            connectors: self.slab.connectors[edges].to_vec(),
            input: sc.input.clone(),
            output: sc.output.clone(),
            children: acts
                .clone()
                .filter_map(|slot| {
                    let c = lay.block_child[slot]?;
                    let id = (slot - acts.start) as ActId;
                    self.slab.scopes[c as usize]
                        .live
                        .then(|| (id, self.snap_scope(c)))
                })
                .collect(),
        }
    }

    /// Restores the slab from a [`ScopeState`] tree (checkpoint
    /// replay). The tree must describe this instance's template.
    pub fn restore_root(&mut self, root: &ScopeState) {
        self.open_scope(0);
        self.restore_scope(0, root);
    }

    fn restore_scope(&mut self, s: ScopeId, st: &ScopeState) {
        let tpl = Arc::clone(&self.tpl);
        let lay = &tpl.layout;
        let m = lay.scope(s);
        let base = m.act_base as usize;
        let n = m.cs.acts.len().min(st.activities.len());
        self.slab.acts[base..base + n].clone_from_slice(&st.activities[..n]);
        let terminated = st.activities[..n].iter().filter(|rt| rt.is_terminated());
        self.slab.scopes[s as usize] = ScopeRt {
            live: true,
            remaining: (m.cs.acts.len() - terminated.count()) as u32,
            input: st.input.clone(),
            output: st.output.clone(),
        };
        for (e, v) in st.connectors.iter().enumerate().take(m.cs.edges.len()) {
            self.slab.connectors[m.edge_base as usize + e] = *v;
        }
        for (id, child) in &st.children {
            if let Some(Some(c)) = lay.block_child.get(base + *id as usize).copied() {
                self.restore_scope(c, child);
            }
        }
    }

    /// Builds this instance's state transferred onto template `to` —
    /// the `migrate-at-scope-boundary` state transfer. Activities and
    /// connectors are matched **by name**, never by position: a new
    /// version may insert, remove or reorder declarations, and a
    /// positional copy (what [`Instance::restore_root`] does for
    /// same-template checkpoints) would silently land state on the
    /// wrong activities.
    ///
    /// Refused (`Err` with the reason) unless the instance is at a
    /// scope boundary — no activity mid-execution and no nested block
    /// scope in flight — and every *begun* activity has a same-named
    /// counterpart in `to`. Pristine activities (waiting, first
    /// attempt, never notified) that the new version dropped are
    /// simply absent afterwards; activities the new version adds start
    /// out waiting and owe navigation, which the caller repairs with
    /// the recovery fix-up pass. Deterministic: same source state and
    /// target template, same result — replaying a journalled
    /// `Migrated` event re-applies the identical transfer.
    pub(crate) fn migrate_to(&self, to: &Arc<CompiledProcess>) -> Result<Instance, String> {
        let old_lay = &self.tpl.layout;
        for slot in 0..old_lay.n_acts() {
            if self.slab.acts[slot].state == ActState::Running {
                let p: &str = &old_lay.paths[slot];
                return Err(format!(
                    "activity {p:?} is mid-flight; instance is not at a scope boundary"
                ));
            }
        }
        let old_m = old_lay.scope(0);
        let new_lay = &to.layout;
        let new_m = new_lay.scope(0);
        let mut out = Instance::new(self.id, Arc::clone(to));
        out.status = self.status;
        // Root containers, member-wise into the new prototypes (a
        // member the new version dropped is discarded with it).
        out.slab.scopes[0].input.merge(&self.slab.scopes[0].input);
        out.slab.scopes[0].output.merge(&self.slab.scopes[0].output);
        for (i, act) in old_m.cs.acts.iter().enumerate() {
            let old = &self.slab.acts[old_m.act_base as usize + i];
            let state = old.state;
            let pristine = state == ActState::Waiting && old.attempt == 0 && !old.notified;
            let Some(nid) = new_m.cs.id(&act.name) else {
                if pristine {
                    continue;
                }
                return Err(format!(
                    "activity {:?} has begun ({state:?}) and has no counterpart in version {}",
                    act.name,
                    to.version()
                ));
            };
            let nsl = new_lay.slot(0, nid);
            out.set_act_state(nsl, state);
            out.slab.acts[nsl as usize] = old.clone();
        }
        // Evaluated connectors carry over where the same named edge
        // exists in both versions; edges only one side has stay (or
        // start) unevaluated.
        for (e, edge) in old_m.cs.edges.iter().enumerate() {
            let Some(v) = self.slab.connectors[old_m.edge_base as usize + e] else {
                continue;
            };
            let from = &old_m.cs.act(edge.from).name;
            let to_name = &old_m.cs.act(edge.to).name;
            if let Some(ne) = new_m.cs.edge_id(from, to_name) {
                out.slab.connectors[(new_m.edge_base + ne) as usize] = Some(v);
            }
        }
        out.rebuild_ready();
        Ok(out)
    }
}

/// Joins a path as the slash-separated form used in journal events.
pub fn join_path(path: &[String]) -> String {
    path.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_model::ProcessBuilder;

    fn def_with_block() -> ProcessDefinition {
        let inner = ProcessBuilder::new("inner")
            .program("X", "px")
            .build()
            .unwrap();
        ProcessBuilder::new("outer")
            .program("A", "pa")
            .block("B", inner)
            .connect("A", "B")
            .build()
            .unwrap()
    }

    fn tpl() -> Arc<CompiledProcess> {
        Arc::new(CompiledProcess::compile(def_with_block()))
    }

    /// Slot of the activity at `path`, by structure alone.
    fn slot(t: &CompiledProcess, path: &str) -> u32 {
        t.layout.slot_by_path[path]
    }

    /// An instance whose block `B` is running with its child scope open.
    fn with_open_block(t: &Arc<CompiledProcess>) -> Instance {
        let mut inst = Instance::new(InstanceId(1), Arc::clone(t));
        inst.activity_started(slot(t, "B"), &Container::empty());
        inst
    }

    #[test]
    fn fresh_instance_snapshot_is_all_waiting() {
        let t = tpl();
        let snap = Instance::new(InstanceId(1), Arc::clone(&t)).snapshot_root();
        assert_eq!(snap.activities, vec![ActivityRt::new(); 2]);
        assert_eq!(snap.connectors, vec![None]);
        assert_eq!(snap.input, t.root.input.instantiate());
        assert_eq!(snap.output, t.root.output.instantiate());
        assert!(snap.children.is_empty(), "no block started yet");
    }

    #[test]
    fn live_slot_requires_every_enclosing_scope_open() {
        let t = tpl();
        let mut inst = Instance::new(InstanceId(1), Arc::clone(&t));
        // Root activities resolve from the start; nested ones only once
        // their block opened its scope.
        assert_eq!(inst.live_slot("A"), Some(0));
        assert_eq!(inst.live_slot("B"), Some(1));
        assert_eq!(inst.live_slot("B/X"), None, "child not started");
        inst.activity_started(slot(&t, "B"), &Container::empty());
        assert_eq!(inst.live_slot("B/X"), Some(slot(&t, "B/X")));
        // A finished block keeps its scope open for inspection …
        inst.activity_finished(slot(&t, "B"), &Container::empty());
        assert!(inst.live_slot("B/X").is_some());
        // … a rescheduled one closes it.
        inst.activity_rescheduled(slot(&t, "B"), 1);
        assert_eq!(inst.live_slot("B/X"), None, "scope closed by reschedule");
        assert_eq!(inst.live_slot("B"), Some(1), "the block itself stays");
        // Scope paths and unknown paths are not activity paths.
        assert_eq!(inst.live_slot(""), None, "root scope path");
        assert_eq!(inst.live_slot("Ghost"), None);
        assert_eq!(inst.live_slot("A/X"), None, "A is not a block");
        assert_eq!(inst.live_slot("B/X/"), None);
    }

    #[test]
    fn live_scope_resolves_open_scopes_only() {
        let t = tpl();
        let mut inst = Instance::new(InstanceId(1), Arc::clone(&t));
        assert_eq!(inst.live_scope(""), Some(0));
        assert_eq!(inst.live_scope("B"), None, "child not started");
        inst.activity_started(slot(&t, "B"), &Container::empty());
        let s = inst.live_scope("B").unwrap();
        assert_eq!(&*t.layout.scope(s).cs.name, "inner");
        // Activity paths are not scope paths.
        assert_eq!(inst.live_scope("A"), None, "A is not a block");
        assert_eq!(inst.live_scope("B/X"), None);
        assert_eq!(inst.live_scope("Ghost"), None);
        inst.activity_rescheduled(slot(&t, "B"), 1);
        assert_eq!(inst.live_scope("B"), None, "closed by reschedule");
    }

    #[test]
    fn rebuild_ready_finds_nested_ready_autos() {
        let t = tpl();
        let mut inst = with_open_block(&t);
        let lay = &t.layout;
        inst.activity_ready(slot(&t, "B/X"), 0, 0);
        inst.activity_ready(slot(&t, "A"), 0, 0);
        inst.rebuild_ready();
        let mut popped = Vec::new();
        while let Some(Reverse(r)) = inst.ready.pop() {
            popped.push(&*lay.paths[lay.rank_to_slot[r as usize] as usize]);
        }
        assert_eq!(popped, vec!["A", "B/X"]);
    }

    #[test]
    fn close_scope_invalidates_ready_entries() {
        let t = tpl();
        let mut inst = with_open_block(&t);
        let x_slot = slot(&t, "B/X");
        inst.activity_ready(x_slot, 0, 0);
        assert!(inst.ancestors_open(x_slot));
        inst.close_scope(t.layout.block_child[slot(&t, "B") as usize].unwrap());
        assert!(!inst.ancestors_open(x_slot));
    }

    #[test]
    fn set_act_state_maintains_remaining() {
        let t = tpl();
        let mut inst = Instance::new(InstanceId(1), t);
        assert_eq!(inst.slab.scopes[0].remaining, 2);
        inst.set_act_state(0, ActState::Terminated);
        assert_eq!(inst.slab.scopes[0].remaining, 1);
        inst.set_act_state(0, ActState::Terminated);
        assert_eq!(inst.slab.scopes[0].remaining, 1, "idempotent");
        inst.set_act_state(0, ActState::Waiting);
        assert_eq!(inst.slab.scopes[0].remaining, 2);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let t = tpl();
        let mut inst = with_open_block(&t);
        let c = t.layout.block_child[slot(&t, "B") as usize].unwrap();
        inst.activity_terminated(0, true);
        inst.slab.acts[0].attempt = 2;
        inst.connector_evaluated(0, true);
        let snap = inst.snapshot_root();
        assert_eq!(snap.children.len(), 1, "open child scope serialized");

        let mut back = Instance::new(InstanceId(2), Arc::clone(&t));
        back.restore_root(&snap);
        assert_eq!(back.snapshot_root(), snap);
        assert_eq!(back.slab.scopes[0].remaining, 1);
        assert!(back.slab.scopes[c as usize].live);
    }

    #[test]
    fn retiring_keeps_the_outcome_and_nothing_live() {
        let t = tpl();
        let mut inst = with_open_block(&t);
        inst.retire();
        assert!(!inst.is_retired(), "a running instance stays");
        let mut output = Container::empty();
        output.set("x", txn_substrate::Value::Int(1));
        inst.instance_finished(&output);
        inst.retire();
        assert!(inst.is_retired());
        assert_eq!(inst.root_output(), &output);
        assert_eq!(inst.status, InstanceStatus::Finished);
        for path in ["A", "B", "B/X"] {
            assert_eq!(inst.live_slot(path), None, "{path}");
        }
        assert_eq!(inst.live_scope(""), None);
        let snap = inst.snapshot_root();
        assert_eq!(
            snap,
            ScopeState {
                output,
                ..ScopeState::default()
            }
        );
        inst.retire();
        assert_eq!(inst.snapshot_root(), snap, "retiring twice is a no-op");
    }

    #[test]
    fn path_join() {
        let p = vec!["Fwd".to_string(), "T1".to_string()];
        assert_eq!(join_path(&p), "Fwd/T1");
        assert_eq!(join_path(&[]), "");
    }

    #[test]
    fn serde_round_trip_of_scope_state() {
        let t = tpl();
        let mut inst = with_open_block(&t);
        inst.connector_evaluated(0, true);
        let s = inst.snapshot_root();
        assert_eq!(s.children.len(), 1);
        let json = serde_json::to_string(&s).unwrap();
        let back: ScopeState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
