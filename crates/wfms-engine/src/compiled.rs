//! Compiled process templates — the "executable process template" at
//! the end of the paper's Figure 5 pipeline.
//!
//! [`Engine::register`](crate::Engine::register) lowers each validated
//! [`ProcessDefinition`] into a [`CompiledProcess`] once, so the
//! navigator never rescans the definition on the hot path:
//!
//! * activity names are interned to dense `u32` ids in declaration
//!   order ([`wfms_model::Interner`]), so per-scope runtime state is a
//!   plain vector indexed by id;
//! * control connectors become a CSR-style adjacency: edges live in
//!   one vector (in declaration order, which fixes journal event
//!   order), and every activity carries its incoming/outgoing edge-id
//!   lists;
//! * transition and exit conditions are constant-folded
//!   ([`wfms_model::Expr::const_fold`]) into [`CondPlan`]s — statically
//!   true/false conditions (including guaranteed evaluation errors,
//!   which the engine maps to a constant) skip expression evaluation
//!   entirely at run time;
//! * data connectors are flattened into per-activity mapping tables
//!   ([`DataIn`] for input materialisation, `data_out` for
//!   process-output propagation);
//! * the effective output schema (declared members + the reserved `RC`
//!   member) is precomputed per activity;
//! * deadline-bearing and manual activities are indexed so the
//!   navigator's deadline check ([`crate::Engine::advance_clock`]) and
//!   worklist maintenance skip instances that cannot need them.
//!
//! Compilation is deterministic: ids are declaration positions, so a
//! template compiled at recovery time addresses the same state slots
//! as the one that produced the journal.

use crate::state::StateSlab;
use std::sync::Arc;
use txn_substrate::fast_hash::FastMap;
use txn_substrate::frame::Name;
use txn_substrate::{Tick, Value};
use wfms_model::{
    ActivityKind, Container, ContainerSchema, DataEndpoint, Expr, Interner, ProcessDefinition,
    StaffAssignment, StartCondition, RC_MEMBER,
};

/// Dense per-scope activity id (declaration position).
pub type ActId = u32;

/// Dense per-scope control-connector id (declaration position).
pub type EdgeId = u32;

/// Dense scope id: the position of a (sub)process scope in the
/// preorder flattening of the block tree ([`ScopeLayout`]). The root
/// scope is always id 0.
pub type ScopeId = u32;

/// A precompiled condition: the constant-folded expression, or the
/// constant it folds to. Guaranteed evaluation errors fold to the
/// constant the engine would produce at run time (transition
/// conditions error to `false`, exit conditions to `true`), so the
/// run-time error path disappears from compiled templates.
#[derive(Debug, Clone)]
pub enum CondPlan {
    /// Statically true — no evaluation needed.
    AlwaysTrue,
    /// Statically false — no evaluation needed.
    AlwaysFalse,
    /// Genuinely dynamic; the stored expression is already folded.
    Dynamic(Expr),
}

impl CondPlan {
    /// Compiles a transition condition. The engine evaluates these as
    /// `expr.eval_bool(output).unwrap_or(false)`, so a guaranteed
    /// error is statically false.
    pub fn transition(expr: &Expr) -> Self {
        let folded = expr.const_fold();
        match folded.const_value() {
            Some(v) => {
                if v.as_bool() == Some(true) {
                    CondPlan::AlwaysTrue
                } else {
                    // A non-boolean constant errors at eval time,
                    // which the transition rule maps to false.
                    CondPlan::AlwaysFalse
                }
            }
            None => {
                if folded.const_error().is_some() {
                    CondPlan::AlwaysFalse
                } else {
                    CondPlan::Dynamic(folded)
                }
            }
        }
    }

    /// Compiles an exit condition. The engine evaluates these as
    /// `expr.eval_bool(output).unwrap_or(true)`, so a guaranteed error
    /// is statically true; an absent condition is always true.
    pub fn exit(expr: &Option<Expr>) -> Self {
        let Some(expr) = expr else {
            return CondPlan::AlwaysTrue;
        };
        let folded = expr.const_fold();
        match folded.const_value() {
            Some(v) => {
                if v.as_bool() == Some(false) {
                    CondPlan::AlwaysFalse
                } else {
                    // True, or a non-boolean constant (eval error →
                    // exit-ok).
                    CondPlan::AlwaysTrue
                }
            }
            None => {
                if folded.const_error().is_some() {
                    CondPlan::AlwaysTrue
                } else {
                    CondPlan::Dynamic(folded)
                }
            }
        }
    }

    /// Evaluates a transition plan over `output` (errors are false).
    pub fn eval_transition(&self, output: &Container) -> bool {
        match self {
            CondPlan::AlwaysTrue => true,
            CondPlan::AlwaysFalse => false,
            CondPlan::Dynamic(e) => e.eval_bool(output).unwrap_or(false),
        }
    }

    /// Evaluates an exit plan over `output` (errors are true).
    pub fn eval_exit(&self, output: &Container) -> bool {
        match self {
            CondPlan::AlwaysTrue => true,
            CondPlan::AlwaysFalse => false,
            CondPlan::Dynamic(e) => e.eval_bool(output).unwrap_or(true),
        }
    }
}

/// One compiled control connector.
#[derive(Debug, Clone)]
pub struct CompiledEdge {
    /// Source activity id.
    pub from: ActId,
    /// Target activity id.
    pub to: ActId,
    /// Precompiled transition condition.
    pub cond: CondPlan,
}

/// Source side of a flattened input-data mapping.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// The scope's input container.
    ProcessInput,
    /// The output container of the activity with this id (applies only
    /// once that activity terminated after executing).
    ActivityOutput(ActId),
}

/// One flattened data connector feeding an activity's input container.
#[derive(Debug, Clone)]
pub struct DataIn {
    /// Where the values come from.
    pub source: DataSource,
    /// `(from_member, to_member)` copies, in declaration order.
    pub mappings: Vec<(String, String)>,
}

/// What a compiled activity executes.
#[derive(Debug, Clone)]
pub enum CompiledKind {
    /// Pass-through no-op (commits with `RC = 1`).
    NoOp,
    /// Invokes the named transactional program.
    Program(String),
    /// Runs an embedded subprocess.
    Block(Arc<CompiledScope>),
}

/// One activity, fully indexed.
#[derive(Debug, Clone)]
pub struct CompiledActivity {
    /// Activity name (for journal paths and API lookups).
    pub name: String,
    /// Program / block / no-op.
    pub kind: CompiledKind,
    /// Engine-started when ready (vs worklist-offered).
    pub automatic: bool,
    /// AND/OR join semantics.
    pub start: StartCondition,
    /// Precompiled exit condition.
    pub exit: CondPlan,
    /// Staff assignment for manual activities.
    pub staff: StaffAssignment,
    /// Deadline in ticks for manual activities.
    pub deadline: Option<Tick>,
    /// Input container schema.
    pub input: ContainerSchema,
    /// Effective output schema: declared members plus `RC`.
    pub eff_output: ContainerSchema,
    /// Incoming control-connector edge ids, in declaration order.
    pub incoming: Vec<EdgeId>,
    /// Outgoing control-connector edge ids, in declaration order.
    pub outgoing: Vec<EdgeId>,
    /// Flattened data connectors into this activity's input.
    pub data_in: Vec<DataIn>,
    /// `(from_member, to_member)` copies from this activity's output
    /// into the scope's output container, applied at termination.
    pub data_out: Vec<(String, String)>,
}

/// One compiled (sub)process scope.
#[derive(Debug, Clone)]
pub struct CompiledScope {
    /// Scope name (process or block name).
    pub name: String,
    /// Activities indexed by [`ActId`] (declaration order).
    pub acts: Vec<CompiledActivity>,
    /// `name → ActId` for API path resolution.
    pub interner: Interner,
    /// Control connectors indexed by [`EdgeId`] (declaration order).
    pub edges: Vec<CompiledEdge>,
    /// Activities with no incoming connectors, in declaration order.
    pub starts: Vec<ActId>,
    /// Manual activities with a deadline, directly in this scope.
    pub deadline_acts: Vec<ActId>,
    /// True if this scope or any nested block has a deadline-bearing
    /// manual activity.
    pub any_deadlines: bool,
    /// True if this scope or any nested block has a manual activity.
    pub any_manual: bool,
    /// Scope input container schema.
    pub input: ContainerSchema,
    /// Scope output container schema.
    pub output: ContainerSchema,
}

impl CompiledScope {
    fn compile(def: &ProcessDefinition) -> Self {
        let mut interner = Interner::new();
        for a in &def.activities {
            interner.intern(&a.name);
        }
        let id_of = |name: &str| -> Option<ActId> { interner.get(name) };

        let mut edges = Vec::with_capacity(def.control.len());
        let mut incoming: Vec<Vec<EdgeId>> = vec![Vec::new(); def.activities.len()];
        let mut outgoing: Vec<Vec<EdgeId>> = vec![Vec::new(); def.activities.len()];
        for c in &def.control {
            let (Some(from), Some(to)) = (id_of(&c.from), id_of(&c.to)) else {
                // Validation rejects dangling connectors; tolerate
                // them here so compile is total.
                continue;
            };
            let e = edges.len() as EdgeId;
            edges.push(CompiledEdge {
                from,
                to,
                cond: CondPlan::transition(&c.condition),
            });
            outgoing[from as usize].push(e);
            incoming[to as usize].push(e);
        }

        let mut acts = Vec::with_capacity(def.activities.len());
        let mut any_deadlines = false;
        let mut any_manual = false;
        let mut deadline_acts = Vec::new();
        for (i, a) in def.activities.iter().enumerate() {
            let kind = match &a.kind {
                ActivityKind::NoOp => CompiledKind::NoOp,
                ActivityKind::Program { program } => CompiledKind::Program(program.clone()),
                ActivityKind::Block { process } => {
                    let child = CompiledScope::compile(process);
                    any_deadlines |= child.any_deadlines;
                    any_manual |= child.any_manual;
                    CompiledKind::Block(Arc::new(child))
                }
            };
            if !a.automatic_start {
                any_manual = true;
                if a.deadline.is_some() {
                    any_deadlines = true;
                    deadline_acts.push(i as ActId);
                }
            }

            let mut data_in = Vec::new();
            let mut data_out = Vec::new();
            for d in &def.data {
                if matches!(&d.to, DataEndpoint::ActivityInput(t) if t == &a.name) {
                    let source = match &d.from {
                        DataEndpoint::ProcessInput => Some(DataSource::ProcessInput),
                        DataEndpoint::ActivityOutput(s) => id_of(s).map(DataSource::ActivityOutput),
                        _ => None,
                    };
                    if let Some(source) = source {
                        data_in.push(DataIn {
                            source,
                            mappings: d
                                .mappings
                                .iter()
                                .map(|m| (m.from_member.clone(), m.to_member.clone()))
                                .collect(),
                        });
                    }
                }
                if matches!(&d.from, DataEndpoint::ActivityOutput(s) if s == &a.name)
                    && d.to == DataEndpoint::ProcessOutput
                {
                    for m in &d.mappings {
                        data_out.push((m.from_member.clone(), m.to_member.clone()));
                    }
                }
            }

            acts.push(CompiledActivity {
                name: a.name.clone(),
                kind,
                automatic: a.automatic_start,
                start: a.start,
                exit: CondPlan::exit(&a.exit.expr),
                staff: a.staff.clone(),
                deadline: a.deadline,
                input: a.input.clone(),
                eff_output: def.effective_output(a),
                incoming: std::mem::take(&mut incoming[i]),
                outgoing: std::mem::take(&mut outgoing[i]),
                data_in,
                data_out,
            });
        }

        let starts: Vec<ActId> = acts
            .iter()
            .enumerate()
            .filter(|(_, a)| a.incoming.is_empty())
            .map(|(i, _)| i as ActId)
            .collect();

        Self {
            name: def.name.clone(),
            acts,
            interner,
            edges,
            starts,
            deadline_acts,
            any_deadlines,
            any_manual,
            input: def.input.clone(),
            output: def.output.clone(),
        }
    }

    /// The compiled activity behind `id`.
    #[inline]
    pub fn act(&self, id: ActId) -> &CompiledActivity {
        &self.acts[id as usize]
    }

    /// The id of `name`, if the scope declares it.
    #[inline]
    pub fn id(&self, name: &str) -> Option<ActId> {
        self.interner.get(name)
    }

    /// The edge id of the connector `from → to`, if declared.
    pub fn edge_id(&self, from: &str, to: &str) -> Option<EdgeId> {
        let (f, t) = (self.id(from)?, self.id(to)?);
        self.acts[f as usize]
            .outgoing
            .iter()
            .copied()
            .find(|&e| self.edges[e as usize].to == t)
    }

    /// Number of activities.
    pub fn len(&self) -> usize {
        self.acts.len()
    }

    /// True when the scope declares no activities.
    pub fn is_empty(&self) -> bool {
        self.acts.is_empty()
    }
}

/// Metadata of one scope in the flattened preorder [`ScopeLayout`].
#[derive(Debug)]
pub struct ScopeMeta {
    /// The compiled scope this entry describes.
    pub cs: Arc<CompiledScope>,
    /// Parent scope and the **global act slot** of the block activity
    /// that opens this scope; `None` for the root.
    pub parent: Option<(ScopeId, u32)>,
    /// First global act slot of this scope's activities (slots are
    /// contiguous: `act_base..act_base + cs.acts.len()`).
    pub act_base: u32,
    /// First global edge slot of this scope's connectors.
    pub edge_base: u32,
    /// Last [`ScopeId`] in this scope's preorder subtree (inclusive).
    /// Preorder numbering makes every subtree a contiguous id range —
    /// and, because slots are assigned in the same order, a contiguous
    /// act/edge slot range too.
    pub subtree_last: ScopeId,
    /// Block-nesting depth (root = 0).
    pub depth: u32,
    /// Slash path of the scope in journal form (`""` for the root).
    pub path: Name,
    /// Prototype input container (schema defaults), cloned — an `Arc`
    /// bump — whenever the scope opens.
    pub input_proto: Container,
    /// Prototype output container (schema defaults).
    pub output_proto: Container,
}

/// The arena layout of one compiled template: every activity and
/// connector of every (possibly nested) scope mapped to a **global
/// slot** in one contiguous index space, with everything the hot path
/// would otherwise recompute per step — journal path strings,
/// container prototypes, execution-order ranks — precomputed per slot,
/// plus the two maps that turn a boundary string path (journal, audit,
/// HTTP/CLI) into a slot or a scope with one lookup.
///
/// The per-instance [`StateSlab`] is three vectors over this slot
/// space, cloned from the prototype the layout carries
/// (`ScopeLayout::fresh`), so instance state is three contiguous
/// allocations instead of a pointer tree, and navigation steps index
/// them instead of walking scopes.
#[derive(Debug)]
pub struct ScopeLayout {
    /// Scopes in preorder (root first).
    pub scopes: Vec<ScopeMeta>,
    /// Per act slot: the owning scope.
    pub owner: Vec<ScopeId>,
    /// Per act slot: the scope-local [`ActId`].
    pub local: Vec<ActId>,
    /// Per act slot: the child scope a block activity opens (`None`
    /// for non-blocks).
    pub block_child: Vec<Option<ScopeId>>,
    /// Per act slot: engine-started when ready.
    pub automatic: Vec<bool>,
    /// Per act slot: full slash path in journal form, interned once so
    /// event construction is a copy.
    pub paths: Vec<Name>,
    /// Per act slot: prototype input container (schema defaults).
    pub input_proto: Vec<Container>,
    /// Per act slot: prototype output container with `RC = 1` — the
    /// completion fast path for executions that produce no outputs.
    pub output_rc1: Vec<Container>,
    /// Per act slot: the slot's position in depth-first
    /// declaration-order execution — a block's activities rank right
    /// after the block and before its later siblings, although their
    /// slots come after the whole enclosing scope. The per-instance
    /// ready queue is a min-heap of these ranks (`u32` comparisons, no
    /// allocation), and popping it runs activities in the order the
    /// journal format fixes: declaration order, depth first.
    pub rank: Vec<u32>,
    /// Inverse of [`ScopeLayout::rank`].
    pub rank_to_slot: Vec<u32>,
    /// Full journal path → act slot (keys are the names in
    /// [`ScopeLayout::paths`], looked up by `&str` too). Validation
    /// rejects `/` in activity names and duplicate names within a scope,
    /// so the keys are unique by construction.
    pub slot_by_path: FastMap<Name, u32>,
    /// Scope path → [`ScopeId`] (keys are the [`ScopeMeta::path`]s;
    /// `""` is the root).
    pub scope_by_path: FastMap<Name, ScopeId>,
    /// Per edge slot: interned `(from, to)` activity names for
    /// `ConnectorEvaluated` events.
    pub edge_names: Vec<(Name, Name)>,
    /// The process name, interned for `InstanceStarted` events.
    pub process: Name,
    /// The template version (spec content hash, fixed-width hex),
    /// interned for `TemplateDeployed`, `Migrated` and checkpoints.
    pub version: Name,
    /// The slab every instance starts as a clone of: initialised once
    /// per template instead of once per instance.
    pub(crate) fresh: StateSlab,
}

impl ScopeLayout {
    fn build(root: &Arc<CompiledScope>, spec_hash: u64) -> Self {
        let mut l = ScopeLayout {
            scopes: Vec::new(),
            owner: Vec::new(),
            local: Vec::new(),
            block_child: Vec::new(),
            automatic: Vec::new(),
            paths: Vec::new(),
            input_proto: Vec::new(),
            output_rc1: Vec::new(),
            rank: Vec::new(),
            rank_to_slot: Vec::new(),
            slot_by_path: FastMap::default(),
            scope_by_path: FastMap::default(),
            edge_names: Vec::new(),
            process: Name::new(&root.name),
            version: Name::new(&format!("{spec_hash:016x}")),
            fresh: StateSlab::default(),
        };
        visit_scope(&mut l, root, None, Name::new(""), 0);
        l.fresh = StateSlab::fresh(&l);
        l
    }

    /// Number of global activity slots.
    #[inline]
    pub fn n_acts(&self) -> usize {
        self.owner.len()
    }

    /// Number of global connector slots.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edge_names.len()
    }

    /// Number of scopes.
    #[inline]
    pub fn n_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// The scope metadata of `s`.
    #[inline]
    pub fn scope(&self, s: ScopeId) -> &ScopeMeta {
        &self.scopes[s as usize]
    }

    /// The compiled activity behind a global act slot.
    #[inline]
    pub fn act(&self, slot: u32) -> &CompiledActivity {
        let m = &self.scopes[self.owner[slot as usize] as usize];
        &m.cs.acts[self.local[slot as usize] as usize]
    }

    /// The global act slot of activity `id` in scope `s`.
    #[inline]
    pub fn slot(&self, s: ScopeId, id: ActId) -> u32 {
        self.scopes[s as usize].act_base + id
    }

    /// Act-slot range covering the scope's whole subtree (contiguous
    /// by preorder construction).
    pub fn subtree_act_range(&self, s: ScopeId) -> std::ops::Range<usize> {
        let m = &self.scopes[s as usize];
        let last = &self.scopes[m.subtree_last as usize];
        m.act_base as usize..last.act_base as usize + last.cs.acts.len()
    }

    /// Edge-slot range covering the scope's whole subtree.
    pub fn subtree_edge_range(&self, s: ScopeId) -> std::ops::Range<usize> {
        let m = &self.scopes[s as usize];
        let last = &self.scopes[m.subtree_last as usize];
        m.edge_base as usize..last.edge_base as usize + last.cs.edges.len()
    }

    /// Scope-id range covering the scope's whole subtree (inclusive of
    /// `s` itself).
    pub fn subtree_scope_range(&self, s: ScopeId) -> std::ops::Range<usize> {
        s as usize..self.scopes[s as usize].subtree_last as usize + 1
    }
}

/// Preorder flattening: records the scope, assigns its act/edge slots,
/// then walks the activities in declaration order, ranking each and
/// descending into a block's child scope before its next sibling.
fn visit_scope(
    l: &mut ScopeLayout,
    cs: &Arc<CompiledScope>,
    parent: Option<(ScopeId, u32)>,
    scope_path: Name,
    depth: u32,
) -> ScopeId {
    let sid = l.scopes.len() as ScopeId;
    let act_base = l.owner.len() as u32;
    let edge_base = l.edge_names.len() as u32;
    l.scope_by_path.insert(scope_path, sid);
    l.scopes.push(ScopeMeta {
        cs: Arc::clone(cs),
        parent,
        act_base,
        edge_base,
        subtree_last: sid,
        depth,
        path: scope_path,
        input_proto: cs.input.instantiate(),
        output_proto: cs.output.instantiate(),
    });
    for (i, act) in cs.acts.iter().enumerate() {
        let path = if scope_path.is_empty() {
            Name::new(&act.name)
        } else {
            Name::new(&format!("{scope_path}/{}", act.name))
        };
        l.slot_by_path.insert(path, act_base + i as u32);
        l.owner.push(sid);
        l.local.push(i as ActId);
        l.block_child.push(None);
        l.automatic.push(act.automatic);
        l.paths.push(path);
        l.rank.push(0);
        l.input_proto.push(act.input.instantiate());
        let mut rc1 = act.eff_output.instantiate();
        rc1.set(RC_MEMBER, Value::Int(1));
        l.output_rc1.push(rc1);
    }
    for e in &cs.edges {
        l.edge_names.push((
            Name::new(&cs.act(e.from).name),
            Name::new(&cs.act(e.to).name),
        ));
    }
    for (i, act) in cs.acts.iter().enumerate() {
        let slot = act_base + i as u32;
        l.rank[slot as usize] = l.rank_to_slot.len() as u32;
        l.rank_to_slot.push(slot);
        if let CompiledKind::Block(child) = &act.kind {
            let child_path = l.paths[slot as usize];
            let c = visit_scope(l, child, Some((sid, slot)), child_path, depth + 1);
            l.block_child[slot as usize] = Some(c);
        }
    }
    l.scopes[sid as usize].subtree_last = (l.scopes.len() - 1) as ScopeId;
    sid
}

/// A process definition lowered into its executable form. Cheap to
/// clone (`Arc` inside); templates are shared by every instance and
/// every worker thread.
#[derive(Debug, Clone)]
pub struct CompiledProcess {
    /// The source definition (kept for API compatibility, FDL
    /// re-emission and diagnostics; the navigator never reads it).
    pub def: Arc<ProcessDefinition>,
    /// The compiled root scope.
    pub root: Arc<CompiledScope>,
    /// The flattened arena layout (global slots, precomputed paths,
    /// execution ranks) the slab-backed instance state runs on.
    pub layout: Arc<ScopeLayout>,
    /// Content hash of the definition — the template's version
    /// identity. See [`spec_hash_of`].
    pub spec_hash: u64,
}

/// Content hash of a process definition: FNV-1a 64 over the canonical
/// JSON serialization of the *validated definition*, not its source
/// text. Two spec files that parse to the same definition (whitespace,
/// comments, declaration formatting) share a version; any semantic
/// edit — an activity, an edge, a condition constant — produces a new
/// one. Deterministic because every serialized model type keeps its
/// collections ordered (`Vec` / `BTreeMap`), and stable across
/// compile/optimize/recovery because all of them hash the same
/// definition.
pub fn spec_hash_of(def: &ProcessDefinition) -> u64 {
    let canon = serde_json::to_string(def).expect("ProcessDefinition is always serializable");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in canon.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl CompiledProcess {
    /// Compiles `def`. Deterministic: ids are declaration positions.
    pub fn compile(def: ProcessDefinition) -> Self {
        Self::compile_arc(Arc::new(def))
    }

    /// Compiles a definition already behind an `Arc`.
    pub fn compile_arc(def: Arc<ProcessDefinition>) -> Self {
        let root = Arc::new(CompiledScope::compile(&def));
        Self::from_parts(def, root)
    }

    /// Assembles a template from an already-compiled root scope,
    /// computing the [`ScopeLayout`] — the one constructor every
    /// template passes through.
    pub fn from_parts(def: Arc<ProcessDefinition>, root: Arc<CompiledScope>) -> Self {
        let spec_hash = spec_hash_of(&def);
        let layout = Arc::new(ScopeLayout::build(&root, spec_hash));
        Self {
            def,
            root,
            layout,
            spec_hash,
        }
    }

    /// The process name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// The version identity as journals and APIs render it: the spec
    /// content hash in fixed-width hex.
    pub fn version(&self) -> Name {
        self.layout.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_model::ProcessBuilder;

    fn nested() -> ProcessDefinition {
        let inner = ProcessBuilder::new("inner")
            .program("X", "px")
            .program("Y", "py")
            .connect_when("X", "Y", "RC = 1")
            .build()
            .unwrap();
        ProcessBuilder::new("outer")
            .program("A", "pa")
            .block("B", inner)
            .connect_when("A", "B", "RC = 1")
            .build()
            .unwrap()
    }

    #[test]
    fn ids_are_declaration_positions() {
        let t = CompiledProcess::compile(nested());
        assert_eq!(t.root.id("A"), Some(0));
        assert_eq!(t.root.id("B"), Some(1));
        assert_eq!(t.root.starts, vec![0]);
        let CompiledKind::Block(b) = &t.root.acts[1].kind else {
            panic!("B is a block");
        };
        assert_eq!(b.id("X"), Some(0));
        assert_eq!(b.id("Y"), Some(1));
        assert_eq!(b.edges.len(), 1);
        assert_eq!(b.edges[0].from, 0);
        assert_eq!(b.edges[0].to, 1);
    }

    #[test]
    fn adjacency_matches_declaration() {
        let t = CompiledProcess::compile(nested());
        assert_eq!(t.root.act(0).outgoing, vec![0]);
        assert_eq!(t.root.act(1).incoming, vec![0]);
        assert_eq!(t.root.edge_id("A", "B"), Some(0));
        assert_eq!(t.root.edge_id("B", "A"), None);
    }

    #[test]
    fn constant_conditions_fold() {
        let e = Expr::parse("1 = 1").unwrap();
        assert!(matches!(CondPlan::transition(&e), CondPlan::AlwaysTrue));
        let f = Expr::parse("1 = 2").unwrap();
        assert!(matches!(CondPlan::transition(&f), CondPlan::AlwaysFalse));
        // Guaranteed evaluation error: transition false, exit true.
        let err = Expr::parse("1 / 0 = 1").unwrap();
        assert!(matches!(CondPlan::transition(&err), CondPlan::AlwaysFalse));
        assert!(matches!(CondPlan::exit(&Some(err)), CondPlan::AlwaysTrue));
        let dynamic = Expr::parse("RC = 1").unwrap();
        assert!(matches!(
            CondPlan::transition(&dynamic),
            CondPlan::Dynamic(_)
        ));
        assert!(matches!(CondPlan::exit(&None), CondPlan::AlwaysTrue));
    }

    #[test]
    fn effective_output_includes_rc() {
        let t = CompiledProcess::compile(nested());
        assert!(t.root.act(0).eff_output.has(wfms_model::RC_MEMBER));
    }

    #[test]
    fn layout_flattens_scopes_in_preorder() {
        let t = CompiledProcess::compile(nested());
        let l = &t.layout;
        assert_eq!(l.n_scopes(), 2);
        assert_eq!(l.n_acts(), 4, "A, B, B/X, B/Y");
        assert_eq!(l.n_edges(), 2);
        // Root scope: acts 0..2, child scope opens at slot 1.
        assert_eq!(l.scope(0).act_base, 0);
        assert_eq!(l.scope(0).subtree_last, 1);
        assert_eq!(l.block_child[1], Some(1));
        assert_eq!(l.scope(1).parent, Some((0, 1)));
        assert_eq!(l.scope(1).act_base, 2);
        assert_eq!(&*l.scope(1).path, "B");
        // Interned paths line up with the path maps.
        assert_eq!(&*l.paths[2], "B/X");
        assert_eq!(l.slot(1, 1), 3);
        assert_eq!(l.slot_by_path.len(), 4);
        for slot in 0..l.n_acts() {
            assert_eq!(l.slot_by_path.get(&*l.paths[slot]), Some(&(slot as u32)));
        }
        assert_eq!(l.scope_by_path.get(""), Some(&0));
        assert_eq!(l.scope_by_path.get("B"), Some(&1));
        assert_eq!(l.scope_by_path.get("A"), None, "A is not a block");
        assert_eq!(l.slot_by_path.get("B/Ghost"), None);
    }

    #[test]
    fn layout_ranks_follow_depth_first_declaration_order() {
        // A block declared *before* a sibling: its activities rank
        // between the two although their slots come after both.
        let inner = ProcessBuilder::new("inner")
            .program("X", "px")
            .program("Y", "py")
            .build()
            .unwrap();
        let def = ProcessBuilder::new("outer")
            .program("A", "pa")
            .block("B", inner)
            .program("C", "pc")
            .build()
            .unwrap();
        let t = CompiledProcess::compile(def);
        let l = &t.layout;
        let order: Vec<&str> = (0..l.n_acts())
            .map(|r| &*l.paths[l.rank_to_slot[r] as usize])
            .collect();
        assert_eq!(order, vec!["A", "B", "B/X", "B/Y", "C"]);
        for slot in 0..l.n_acts() {
            assert_eq!(l.rank_to_slot[l.rank[slot] as usize] as usize, slot);
        }
    }

    #[test]
    fn layout_prototypes_carry_defaults_and_rc() {
        let t = CompiledProcess::compile(nested());
        let l = &t.layout;
        for slot in 0..l.n_acts() {
            let proto = &l.output_rc1[slot];
            assert_eq!(
                proto.get(RC_MEMBER),
                Some(&Value::Int(1)),
                "rc-1 prototype at slot {slot}"
            );
            let mut rebuilt = l.act(slot as u32).eff_output.instantiate();
            rebuilt.set(RC_MEMBER, Value::Int(1));
            assert_eq!(proto, &rebuilt);
        }
    }

    #[test]
    fn manual_and_deadline_flags() {
        let auto = CompiledProcess::compile(nested());
        assert!(!auto.root.any_manual);
        assert!(!auto.root.any_deadlines);
        assert!(auto.root.deadline_acts.is_empty());

        let m = wfms_model::Activity::program("M", "pm")
            .for_role("clerk")
            .with_deadline(5);
        let def = ProcessBuilder::new("p").activity(m).build().unwrap();
        let t = CompiledProcess::compile(def);
        assert!(t.root.any_manual);
        assert!(t.root.any_deadlines);
        assert_eq!(t.root.deadline_acts, vec![0]);
    }
}
