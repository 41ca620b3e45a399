//! # wfms-analyzer
//!
//! A unified static-analysis and lint pass over compiled workflow
//! process graphs ([`wfms_model::ProcessDefinition`]) and
//! advanced-transaction-model specifications ([`atm::SagaSpec`],
//! [`atm::FlexSpec`]).
//!
//! The paper's Figure 5 pipeline runs a *translator* that "checks the
//! semantics" of an imported definition before it reaches the engine.
//! This crate extends that checkpoint from hard meta-model rules to a
//! full lint battery: every finding is a [`Diagnostic`] with a stable
//! `WA0xx` code, a [`Severity`], the slash-separated process path, and
//! — when the definition came from FDL text — the source position of
//! the offending element via [`wfms_fdl::Provenance`].
//!
//! Code ranges (see `docs/analyzer.md` for the full table):
//!
//! * `WA001`–`WA016` — meta-model rules lifted from
//!   [`wfms_model::validate()`] (severity error).
//! * `WA020`–`WA022` — control-flow graph shape: orphan activities,
//!   unreachable activities, cycles with a witness path.
//! * `WA031`–`WA035` — condition analysis via constant folding on
//!   [`wfms_model::Expr`]: statically false/true conditions,
//!   guaranteed evaluation errors, statically dead activities.
//! * `WA041`–`WA043` — data-flow def-use over containers:
//!   read-before-write, overwritten writes, dead writes.
//! * `WA051`–`WA057` — ATM-level rules: the S/F well-formedness
//!   conditions of [`atm::wellformed`] plus saga pivot placement.
//! * `WA101`–`WA108` — semantic passes on the [`dataflow::framework`]
//!   fixpoint engine: feasible-path def-use, graph-wide constant
//!   propagation (shared with the engine's template optimizer),
//!   compensation soundness with witness paths, and deadline
//!   feasibility with critical-path bounds.
//!
//! Every code has a prose explanation via [`explain`], surfaced by
//! `fmtm lint --explain CODE`.
//!
//! ```
//! let src = r#"
//!     PROCESS p
//!       ACTIVITY A PROGRAM "a" END
//!       ACTIVITY B PROGRAM "b" END
//!       CONTROL FROM A TO B WHEN "1 = 2"
//!     END
//! "#;
//! let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
//! let diags = wfms_analyzer::Analyzer::new().check_process(&def, Some(&prov));
//! assert!(diags.iter().any(|d| d.code == "WA031")); // always-false connector
//! assert!(diags.iter().any(|d| d.code == "WA035")); // B statically dead
//! ```

pub mod atmlint;
pub mod conditions;
pub mod dataflow;
pub mod graph;
pub mod model;

use std::collections::BTreeSet;
use std::fmt;

use wfms_engine::compiled::{ActId, CompiledScope, ScopeId, ScopeLayout};
use wfms_engine::optimize::{analyze_scope, ScopeFacts};
use wfms_engine::CompiledProcess;
use wfms_fdl::{Pos, Provenance};
use wfms_model::{ActivityKind, ProcessDefinition, ValidationError};

/// How serious a finding is.
///
/// Ordered by severity: `Error < Warning < Note` in sort order so the
/// most severe findings list first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The process will misbehave at run time (or violates a hard
    /// model rule); the Exotica pipeline refuses to ship it.
    Error,
    /// Suspicious but not definitely broken.
    Warning,
    /// Stylistic or informational.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        })
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `"WA021"`.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Slash-separated process path (`outer/Fwd`), or the spec name
    /// for ATM-level findings.
    pub process: String,
    /// The element concerned — an activity, connector label, or step
    /// name — when the finding is narrower than the whole process.
    pub element: Option<String>,
    /// Human-readable description.
    pub message: String,
    /// Source position in the originating FDL or spec text, when the
    /// definition was parsed from text.
    pub pos: Option<Pos>,
}

impl Diagnostic {
    /// Builds a position-less diagnostic.
    pub fn new(
        code: &'static str,
        severity: Severity,
        process: impl Into<String>,
        element: Option<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity,
            process: process.into(),
            element,
            message: message.into(),
            pos: None,
        }
    }

    /// Attaches a source position.
    pub fn with_pos(mut self, pos: Option<Pos>) -> Self {
        self.pos = pos;
        self
    }

    /// Renders the finding for terminals:
    /// `error[WA021] at 3:5: [p] activity "B" can never start`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code);
        if let Some(pos) = self.pos {
            out.push_str(&format!(" at {pos}"));
        }
        out.push_str(": ");
        if !self.process.is_empty() {
            out.push_str(&format!("[{}] ", self.process));
        }
        out.push_str(&self.message);
        out
    }

    /// Renders the finding as a JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"code\":{}", json_str(self.code)),
            format!("\"severity\":{}", json_str(&self.severity.to_string())),
            format!("\"process\":{}", json_str(&self.process)),
        ];
        if let Some(e) = &self.element {
            fields.push(format!("\"element\":{}", json_str(e)));
        }
        if let Some(pos) = self.pos {
            fields.push(format!("\"line\":{}", pos.line));
            fields.push(format!("\"col\":{}", pos.col));
        }
        fields.push(format!("\"message\":{}", json_str(&self.message)));
        format!("{{{}}}", fields.join(","))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders a slice of diagnostics as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything a process-level lint can see: the process under
/// analysis, its slash path, optional source provenance, the whole
/// definition's meta-model violations and, when there are none, this
/// level of the compiled template.
pub struct ProcessCtx<'a> {
    /// The process (or nested block) being checked.
    pub process: &'a ProcessDefinition,
    /// Slash-separated path from the root definition.
    pub path: String,
    /// Source positions, when the definition came from FDL text.
    pub provenance: Option<&'a Provenance>,
    /// Every meta-model violation of the whole definition: the
    /// analyzer's one [`wfms_model::validate()`], read by `WA001`–`WA016`.
    pub violations: &'a [ValidationError],
    /// This level's scope of the compiled template, with its
    /// propagation facts. `None` unless `violations` is empty: the
    /// fixpoint passes (`WA101`–`WA108`) assume a well-formed graph.
    pub level: Option<Level<'a>>,
}

/// One scope of the compiled template the engine runs, with its
/// condition-value propagation facts. The analyzer computes every
/// scope's facts once, and every pass at every level reads them.
#[derive(Clone, Copy)]
pub struct Level<'a> {
    layout: &'a ScopeLayout,
    /// Every scope's facts, by [`ScopeId`] ([`scope_facts`]).
    facts: &'a [ScopeFacts],
    id: ScopeId,
}

impl<'a> Level<'a> {
    /// The compiled scope.
    pub fn scope(&self) -> &'a CompiledScope {
        &self.layout.scope(self.id).cs
    }

    /// The scope's propagation facts ([`analyze_scope`]).
    pub fn facts(&self) -> &'a ScopeFacts {
        &self.facts[self.id as usize]
    }

    /// The level block activity `act` opens, if it is a block.
    pub fn block(&self, act: ActId) -> Option<Level<'a>> {
        let id = self.layout.block_child[self.layout.slot(self.id, act) as usize]?;
        Some(Level { id, ..*self })
    }
}

/// Every scope's propagation facts, by [`ScopeId`].
fn scope_facts(template: &CompiledProcess) -> Vec<ScopeFacts> {
    let scopes = &template.layout.scopes;
    scopes.iter().map(|s| analyze_scope(&s.cs)).collect()
}

impl ProcessCtx<'_> {
    /// Position of an activity in this process, if known.
    pub fn pos_activity(&self, name: &str) -> Option<Pos> {
        self.provenance.and_then(|p| p.activity(&self.path, name))
    }

    /// Position of a control connector in this process, if known.
    pub fn pos_control(&self, from: &str, to: &str) -> Option<Pos> {
        self.provenance
            .and_then(|p| p.control(&self.path, from, to))
    }

    /// Position of a data connector (by `from => to` label), if known.
    pub fn pos_data(&self, label: &str) -> Option<Pos> {
        self.provenance.and_then(|p| p.data(&self.path, label))
    }

    /// Position of the process header itself, if known.
    pub fn pos_process(&self) -> Option<Pos> {
        self.provenance.and_then(|p| p.process(&self.path))
    }
}

/// A single lint pass over one process level.
///
/// Implementations push findings into `out`; the [`Analyzer`] walks
/// nested blocks and applies the allow-list afterwards.
pub trait Lint {
    /// The pass's label in per-stage timings: `analyze:` and a short
    /// machine name (`"analyze:graph"`, `"analyze:dataflow"`, …).
    fn name(&self) -> &'static str;

    /// `true` if the lint must run only once, at the root definition
    /// (used by lints that recurse into blocks themselves).
    fn root_only(&self) -> bool {
        false
    }

    /// Runs the lint over one process level.
    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// The analyzer: a configured battery of [`Lint`]s plus an allow-list
/// of suppressed codes.
pub struct Analyzer {
    lints: Vec<Box<dyn Lint>>,
    allowed: BTreeSet<String>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer {
    /// An analyzer with the full built-in battery.
    pub fn new() -> Self {
        Self {
            lints: vec![
                Box::new(model::ModelLint),
                Box::new(graph::GraphLint),
                Box::new(conditions::ConditionLint),
                Box::new(dataflow::DataFlowLint),
                Box::new(dataflow::LivenessLint),
                Box::new(dataflow::ConstPropLint),
                Box::new(dataflow::DeadlineLint),
            ],
            allowed: BTreeSet::new(),
        }
    }

    /// Suppresses a diagnostic code (e.g. `"WA032"`).
    pub fn allow(mut self, code: &str) -> Self {
        self.allowed.insert(code.to_owned());
        self
    }

    /// Runs every applicable lint over the definition and all nested
    /// blocks, returning findings sorted by severity, then position.
    /// The definition is validated once and, if that finds nothing,
    /// compiled once for the semantic passes.
    pub fn check_process(
        &self,
        def: &ProcessDefinition,
        provenance: Option<&Provenance>,
    ) -> Vec<Diagnostic> {
        let violations = wfms_model::validate(def);
        let template = violations
            .is_empty()
            .then(|| CompiledProcess::compile(def.clone()));
        self.check(def, provenance, &violations, template.as_ref())
            .0
    }

    /// The battery over a template compiled from a definition that
    /// validates clean (the Exotica pipeline's stage-6 template), so
    /// nothing is validated or compiled again. Also returns the
    /// wall-clock nanoseconds each lint pass spent, summed over all
    /// nested scopes, in battery order; the pipeline surfaces these as
    /// `analyze:<pass>` entries in its per-stage timings.
    pub fn check_template_timed(
        &self,
        template: &CompiledProcess,
        provenance: Option<&Provenance>,
    ) -> (Vec<Diagnostic>, Vec<(&'static str, u128)>) {
        self.check(&template.def, provenance, &[], Some(template))
    }

    fn check(
        &self,
        def: &ProcessDefinition,
        provenance: Option<&Provenance>,
        violations: &[ValidationError],
        template: Option<&CompiledProcess>,
    ) -> (Vec<Diagnostic>, Vec<(&'static str, u128)>) {
        let facts = template.map(scope_facts).unwrap_or_default();
        let mut out = Vec::new();
        let mut nanos: Vec<(&'static str, u128)> =
            self.lints.iter().map(|l| (l.name(), 0)).collect();
        let root = ProcessCtx {
            process: def,
            path: def.name.clone(),
            provenance,
            violations,
            level: template.map(|t| Level {
                layout: &t.layout,
                facts: &facts,
                id: 0,
            }),
        };
        self.walk(&root, true, &mut out, &mut nanos);
        (self.finish(out), nanos)
    }

    /// Runs the battery at one level, then at each block's level: the
    /// definition's blocks and the template's child scopes walked
    /// together (a block's activity id is its declaration position).
    fn walk(
        &self,
        ctx: &ProcessCtx<'_>,
        is_root: bool,
        out: &mut Vec<Diagnostic>,
        nanos: &mut [(&'static str, u128)],
    ) {
        for (lint, pass_nanos) in self.lints.iter().zip(nanos.iter_mut()) {
            if lint.root_only() && !is_root {
                continue;
            }
            let started = std::time::Instant::now();
            lint.check(ctx, out);
            pass_nanos.1 += started.elapsed().as_nanos();
        }
        for (i, act) in ctx.process.activities.iter().enumerate() {
            if let ActivityKind::Block { process } = &act.kind {
                let block = ProcessCtx {
                    process,
                    path: format!("{}/{}", ctx.path, process.name),
                    provenance: ctx.provenance,
                    violations: ctx.violations,
                    level: ctx.level.and_then(|l| l.block(i as ActId)),
                };
                self.walk(&block, false, out, nanos);
            }
        }
    }

    /// Checks the specification `name` against the ATM-level lints,
    /// given what resolving it ([`atm::Resolved::saga`] /
    /// [`atm::Resolved::flexible`]) gave. A caller that goes on to
    /// translate checks the same resolved form
    /// ([`atm::Resolved::check`]), so the spec is resolved once.
    pub fn check_spec(
        &self,
        name: &str,
        resolved: &Result<atm::Resolved, Vec<atm::WellFormedError>>,
    ) -> Vec<Diagnostic> {
        self.finish(atmlint::check_spec(name, resolved))
    }

    fn finish(&self, mut out: Vec<Diagnostic>) -> Vec<Diagnostic> {
        out.retain(|d| !self.allowed.contains(d.code));
        out.sort_by(|a, b| {
            (
                a.severity,
                &a.process,
                a.pos.map(|p| (p.line, p.col)),
                a.code,
            )
                .cmp(&(
                    b.severity,
                    &b.process,
                    b.pos.map(|p| (p.line, p.col)),
                    b.code,
                ))
        });
        out.dedup();
        out
    }
}

/// Whether any finding is [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// A prose explanation of a diagnostic code — what the finding means,
/// why it matters, and the usual fix. Backs `fmtm lint --explain`.
/// Returns `None` for unknown codes.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        "WA001" => {
            "The process declares no activities. An empty process can never \
             produce work items; the navigator would finish it immediately. \
             Add at least one activity."
        }
        "WA002" => {
            "Two activities in the same scope share a name. Control and data \
             connectors address activities by name, so the reference is \
             ambiguous. Rename one of them."
        }
        "WA003" => {
            "A data container declares the same member twice. Later \
             declarations would silently shadow earlier ones. Remove or \
             rename the duplicate."
        }
        "WA004" => {
            "A program activity has an empty program name, so the resource \
             broker has nothing to invoke. Name the registered program the \
             activity should run."
        }
        "WA005" => {
            "A control connector names an activity that does not exist in \
             this scope. Fix the typo or add the missing activity."
        }
        "WA006" => {
            "A control connector loops an activity back to itself. The \
             navigator model is acyclic (loops are expressed by blocks with \
             exit conditions); a self-loop can never be scheduled."
        }
        "WA007" => {
            "Two control connectors join the same ordered pair of \
             activities. The second is either redundant or a contradiction; \
             merge the conditions into one connector."
        }
        "WA008" => {
            "A data connector flows in an impossible direction, e.g. from an \
             activity's input or into an activity's output. Data flows from \
             outputs (or the process input) to inputs (or the process \
             output)."
        }
        "WA009" => {
            "A data connector names an activity that does not exist in this \
             scope. Fix the typo or add the missing activity."
        }
        "WA010" => {
            "A data mapping names a container member that the endpoint's \
             schema does not declare. Check the member lists of the source \
             and target containers."
        }
        "WA011" => {
            "A data mapping connects members of different declared types. \
             The materializer would fail at run time; align the types or map \
             a different member."
        }
        "WA012" => {
            "A data connector runs against control flow: the reader is not \
             a control-flow descendant of the writer, so the value may not \
             exist when the reader starts. Add a control connector or \
             reverse the mapping."
        }
        "WA013" => {
            "A condition references a variable that is neither a member of \
             the source activity's output container nor the reserved RC. \
             At run time the lookup errors and the condition evaluates \
             false. Declare the member or fix the name."
        }
        "WA014" => {
            "The reserved member RC is declared with a non-integer type. \
             The engine writes the program's integer return code there; a \
             different type can never be satisfied."
        }
        "WA015" => {
            "A block activity's containers do not match the sub-process \
             they wrap: members missing or typed differently. The navigator \
             copies containers across the boundary member-by-member, so the \
             schemas must agree."
        }
        "WA016" => {
            "An activity name contains '/'. Journals, audit trails and the \
             API address a nested activity by its slash-joined path, so \
             \"A/B\" could not be told from block A's child B. Rename the \
             activity."
        }
        "WA020" => {
            "An activity has no control connectors at all. It becomes a \
             start activity and runs detached from the rest of the process \
             — usually a forgotten connector rather than an intended \
             parallel branch."
        }
        "WA021" => {
            "An activity is unreachable from every start activity: no chain \
             of control connectors leads to it, so it can never start. \
             Connect it or delete it."
        }
        "WA022" => {
            "Control connectors form a cycle. Navigation would deadlock: \
             each activity in the cycle waits for a predecessor inside the \
             same cycle. The paper's model is a DAG; iteration belongs in a \
             block with an exit condition."
        }
        "WA031" => {
            "A transition condition is constant false on its own (no \
             run-time data needed). The connector can never fire; its \
             target may be dead code. Delete the connector or fix the \
             condition."
        }
        "WA032" => {
            "A condition is constant true, so the test is redundant: the \
             connector is effectively unconditional (or the exit condition \
             always satisfied). Drop the WHEN clause to state the intent."
        }
        "WA033" => {
            "An exit condition can never evaluate true — it is constant \
             false or always errors. The navigator would reschedule the \
             activity forever; the process cannot terminate."
        }
        "WA034" => {
            "A condition always fails to evaluate (type error, division by \
             zero, unset variable) regardless of data. The engine treats \
             evaluation errors as false, so the connector silently never \
             fires."
        }
        "WA035" => {
            "An activity is reachable in the raw graph, but every control \
             path to it crosses a connector whose condition is constant \
             false. It is statically dead without any propagation needed."
        }
        "WA041" => {
            "An activity reads an input member that no data connector \
             writes and that has no DEFAULT. The member would be unset at \
             run time and any condition or program reading it errors."
        }
        "WA042" => {
            "One sink member is written several times from the same source \
             endpoint. The materializer applies writes in connector order; \
             later writes silently overwrite earlier ones."
        }
        "WA043" => {
            "A declared output member is never read by any data connector \
             or condition — a dead write. Either wire it somewhere or \
             remove the declaration."
        }
        "WA051" => {
            "The transaction specification is structurally broken: no steps, \
             no or empty paths, duplicate or unknown step names. Fix the \
             structure before the semantic rules can be checked."
        }
        "WA052" => {
            "A saga step has no compensating transaction: a saga undoes \
             every committed step when a later one aborts, so each step \
             needs one (rule S1). RETRIABLE does not satisfy it — a saga \
             retries no forward step. Give the step a compensation."
        }
        "WA053" => {
            "A step declares a compensation that does not match a \
             registered program (or a compensatable class without naming \
             one). The recovery manager would have nothing to run."
        }
        "WA054" => {
            "A non-compensatable step sits between two pivots. Once the \
             first pivot commits, recovery can neither roll back across \
             this step nor complete forward past it."
        }
        "WA055" => {
            "The last alternative path of a flexible transaction contains a \
             step that may fail without compensation. The final fallback \
             must be guaranteed — retriable steps only — or the whole \
             transaction can wedge."
        }
        "WA056" => {
            "A step can fail with no way out: no fallback path to switch \
             to and no compensation chain back. Every reachable failure \
             needs either a forward alternative or a backward recovery."
        }
        "WA057" => {
            "A non-compensatable saga step is followed by steps that may \
             still fail — in a saga every step may, since no forward step is \
             retried. Once it commits, a later abort cannot roll back past \
             it. Give the step a compensation, or move it to the end."
        }
        "WA101" => {
            "Dataflow liveness found a feasible path on which an input \
             member is read before any of its writers has executed — the \
             diagnostic names one such witness path. Add a control \
             dependency on a writer, or give the member a DEFAULT."
        }
        "WA102" => {
            "A data connector's source or sink activity is statically dead, \
             so the value it carries is never produced or never consumed. \
             The connector is a dead write; remove it or revive the \
             endpoint."
        }
        "WA103" => {
            "Constant propagation decided a transition condition always \
             false: substituting the completion facts pinned by upstream \
             activities (a no-op's RC = 1, an exit condition's RC = k) \
             folds it to false. The connector can never fire even though \
             the condition is dynamic in isolation."
        }
        "WA104" => {
            "Constant propagation decided a transition condition always \
             true given upstream completion facts. The test is redundant; \
             the template optimizer replaces it with an unconditional \
             connector."
        }
        "WA105" => {
            "An activity is statically dead under constant propagation: \
             every control path to it crosses a connector decided false by \
             upstream constants (or a dead predecessor). The template \
             optimizer prunes it; it will never run."
        }
        "WA106" => {
            "Compensation soundness: from this failure point, backward \
             recovery cannot reach a consistent state. The diagnostic shows \
             a witness execution (failing step starred) and the committed \
             step the compensation chain wedges against. Give that step a \
             compensation or, in a flexible transaction, make later steps \
             retriable or add a fallback path covering the failure."
        }
        "WA107" => {
            "A manual activity declares DEADLINE 0. Deadlines are measured \
             from the moment the work item becomes ready (ready_since + \
             deadline <= now), so a zero-tick deadline escalates on the \
             first scheduler scan — no schedule can meet it. The message \
             includes the scope's critical-path bounds for calibration."
        }
        "WA108" => {
            "A deadline is declared on an activity that can never sit on a \
             worklist — it is automatic (started by the navigator, never \
             claimed) or statically dead. The deadline can never fire; \
             remove it or make the activity manual."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_errors_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Note);
    }

    #[test]
    fn render_includes_code_position_and_path() {
        let d = Diagnostic::new(
            "WA021",
            Severity::Error,
            "p",
            Some("B".into()),
            "activity \"B\" can never start",
        )
        .with_pos(Some(Pos { line: 3, col: 5 }));
        assert_eq!(
            d.render(),
            "error[WA021] at 3:5: [p] activity \"B\" can never start"
        );
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let d = Diagnostic::new("WA013", Severity::Warning, "p", None, "unknown \"var\"\n");
        assert_eq!(
            d.to_json(),
            "{\"code\":\"WA013\",\"severity\":\"warning\",\"process\":\"p\",\
             \"message\":\"unknown \\\"var\\\"\\n\"}"
        );
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("WA013").count(), 2);
    }

    #[test]
    fn allow_filters_codes() {
        let src = r#"
            PROCESS p
              ACTIVITY A PROGRAM "a" END
              ACTIVITY B PROGRAM "b" END
              CONTROL FROM A TO B WHEN "1 = 1"
            END
        "#;
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        let diags = Analyzer::new().check_process(&def, Some(&prov));
        assert!(diags.iter().any(|d| d.code == "WA032"));
        let diags = Analyzer::new()
            .allow("WA032")
            .check_process(&def, Some(&prov));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn semantic_passes_wait_for_the_whole_definition_to_validate() {
        // The block alone is clean and holds a propagated-false
        // connector; the root breaks a meta-model rule. WA101–WA108
        // run only on a definition WA001–WA016 find nothing in.
        let src = r#"
            PROCESS p
              ACTIVITY S PROGRAM "s" END
              BLOCK B
                ACTIVITY A PROGRAM "a" EXIT WHEN "RC = 1" END
                ACTIVITY C PROGRAM "c" END
                CONTROL FROM A TO C WHEN "RC = 0"
              END
              CONTROL FROM S TO B
              CONTROL FROM S TO Ghost
            END
        "#;
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        let diags = Analyzer::new().check_process(&def, Some(&prov));
        assert!(diags.iter().any(|d| d.code == "WA005"), "{diags:?}");
        assert!(
            diags.iter().all(|d| !d.code.starts_with("WA10")),
            "{diags:?}"
        );
    }

    #[test]
    fn clean_process_has_no_findings() {
        let src = r#"
            PROCESS p
              OUTPUT ( total: INT )
              ACTIVITY A PROGRAM "a" OUTPUT ( x: INT ) END
              ACTIVITY B PROGRAM "b" INPUT ( y: INT ) OUTPUT ( total: INT ) END
              CONTROL FROM A TO B WHEN "RC = 0"
              DATA FROM A.OUTPUT TO B.INPUT MAP x -> y
              DATA FROM B.OUTPUT TO PROCESS.OUTPUT MAP total -> total
            END
        "#;
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        let diags = Analyzer::new().check_process(&def, Some(&prov));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
