//! The end-to-end Figure 5 pipeline.
//!
//! "The user creates a specification that contains the advanced
//! transaction model to be used and the set of transactions to be
//! executed. The pre-processor checks that the user specification
//! meets the format of the advanced transaction model specified. It
//! then takes the user specification and converts it into a FlowMark
//! process in FDL format. … This FDL output is then imported into
//! FlowMark and an internal representation of the process is created.
//! During this conversion the import module checks for inconsistencies
//! in the syntax of the process definition. Finally this internal
//! format is translated into an executable FlowMark process."
//!
//! [`run_pipeline`] performs all stages and reports failures with a
//! stage-tagged error taxonomy; [`PipelineOutput`] carries the
//! artifacts of every stage so callers (examples, benchmarks, tests)
//! can inspect each one.

use crate::flexible::translate_flex;
use crate::saga::translate_saga;
use crate::specfmt::{parse_spec, ParsedSpec, SpecSyntaxError};
use crate::TranslateError;
use atm::{Checked, Resolved, Source, WellFormedError};
use std::sync::Arc;
use wfms_analyzer::{Analyzer, Diagnostic, Severity};
use wfms_engine::CompiledProcess;
use wfms_fdl::FdlError;
use wfms_model::ProcessDefinition;

/// Re-export under the name used throughout the documentation.
pub type AtmSpec = ParsedSpec;

/// Failure at one pipeline stage.
#[derive(Debug)]
pub enum PipelineError {
    /// Stage 1: the specification text does not parse.
    SpecSyntax(SpecSyntaxError),
    /// Stage 2: the specification violates its model's rules
    /// ("the pre-processor checks that the user specification meets
    /// the format of the advanced transaction model specified").
    ModelRules(Vec<WellFormedError>),
    /// Stage 3: the translation to a workflow process failed.
    Translation(TranslateError),
    /// Stage 4: the emitted FDL failed to re-import — a translator or
    /// emitter bug, surfaced for completeness of the taxonomy.
    FdlImport(Vec<FdlError>),
    /// Stage 5: the imported process failed static analysis — the
    /// `wfms-analyzer` battery found error-severity defects
    /// (unreachable activities, read-before-write container accesses,
    /// statically dead compensation paths, …).
    Analysis(Vec<Diagnostic>),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::SpecSyntax(e) => write!(f, "[stage 1: spec syntax] {e}"),
            PipelineError::ModelRules(errs) => {
                writeln!(f, "[stage 2: model rules]")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            PipelineError::Translation(e) => write!(f, "[stage 3: translation] {e}"),
            PipelineError::FdlImport(errs) => {
                writeln!(f, "[stage 4: FDL import]")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            PipelineError::Analysis(diags) => {
                writeln!(f, "[stage 5: analysis]")?;
                for d in diags {
                    writeln!(f, "  - {}", d.render())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Artifacts of a successful pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The parsed specification (stage 1).
    pub spec: AtmSpec,
    /// The FDL text emitted by the pre-processor (stage 3 output).
    pub fdl: String,
    /// The validated, executable process template (stage 4 output) —
    /// re-imported from the FDL, proving the textual hand-off works.
    pub process: ProcessDefinition,
    /// Non-fatal analyzer findings (stage 5): warnings and notes that
    /// did not block the pipeline. Error-severity findings abort with
    /// [`PipelineError::Analysis`] instead.
    pub diagnostics: Vec<Diagnostic>,
    /// The compiled executable template (stage 6, then optimized) —
    /// Figure 5's final step, "this internal format is translated
    /// into an executable FlowMark process": interned activity ids,
    /// indexed connector adjacency, constant-folded condition plans,
    /// with statically decided connectors rewritten and statically
    /// dead activities pruned by [`wfms_engine::optimize`]. Hand it
    /// to [`wfms_engine::Engine::register_compiled`] to run instances
    /// without recompiling (and without re-optimizing).
    pub template: Arc<CompiledProcess>,
    /// What the template optimizer did (stage 7): condition plans
    /// fixed to constants, activities pruned, data connectors
    /// dropped. All zeros for templates with nothing to decide.
    pub opt_stats: wfms_engine::OptStats,
    /// Wall-clock nanoseconds spent in each pipeline stage: parse,
    /// model rules, translate+emit, import+analyze (followed by one
    /// `analyze:<pass>` entry per analyzer pass, breaking the analysis
    /// time down), compile, optimize. `compile` is the one compile:
    /// it runs between import and analysis, and the analyzer and the
    /// optimizer both read its template, so `import-analyze` does not
    /// include it. Observability for the pre-processor itself —
    /// `fmtm check` prints these alongside the stage report.
    pub stage_nanos: Vec<(&'static str, u128)>,
}

/// What stages 4–7 make of FDL text (see [`import`]).
#[derive(Debug, Clone)]
pub struct Imported {
    /// The validated process definition.
    pub process: ProcessDefinition,
    /// Non-fatal analyzer findings: warnings and notes.
    pub diagnostics: Vec<Diagnostic>,
    /// The optimized executable template.
    pub template: Arc<CompiledProcess>,
    /// What the template optimizer did.
    pub opt_stats: wfms_engine::OptStats,
    /// `import-analyze`, one `analyze:<pass>` entry per analyzer pass,
    /// `compile` and `optimize`, as [`PipelineOutput::stage_nanos`]
    /// lists them.
    pub stage_nanos: Vec<(&'static str, u128)>,
}

/// Stages 4–7 on FDL text: imports the definition (syntax + semantic
/// validation, with source provenance), compiles it once, runs the
/// `wfms-analyzer` battery over that template and optimizes the same
/// template. Error-severity findings reject the process; the surviving
/// warnings and notes are returned with the template.
///
/// `fmtm run` applies it to an FDL file; it is public so externally
/// produced FDL can be held to the same standard. Findings carry their
/// line and column in `fdl`.
pub fn import(fdl: &str) -> Result<Imported, PipelineError> {
    import_located(fdl, true)
}

/// [`import`], with findings located in `fdl` only when `located`.
/// `run_pipeline` imports its own translation unlocated: a position in
/// generated FDL means nothing to the spec's author, so the findings
/// read as [`lint_source`](crate::lint_source) renders a translation's.
fn import_located(fdl: &str, located: bool) -> Result<Imported, PipelineError> {
    // Stage 4: import — syntax, then the meta-model rules, once.
    let t0 = std::time::Instant::now();
    let (process, provenance) =
        wfms_fdl::parse_with_provenance(fdl).map_err(|e| PipelineError::FdlImport(vec![e]))?;
    let semantic: Vec<FdlError> = wfms_model::validate(&process)
        .iter()
        .map(|e| FdlError::new(provenance.locate(e).unwrap_or_default(), e.to_string()))
        .collect();
    if !semantic.is_empty() {
        return Err(PipelineError::FdlImport(semantic));
    }
    let import = t0.elapsed();

    // Stage 6: lower the validated process into the engine's compiled
    // executable template — the one compile analysis and stage 7 read.
    let t0 = std::time::Instant::now();
    let template = CompiledProcess::compile(process.clone());
    let compile = t0.elapsed();

    // Stage 5: static analysis over that template.
    let t0 = std::time::Instant::now();
    let (diags, pass_nanos) =
        Analyzer::new().check_template_timed(&template, located.then_some(&provenance));
    let (errors, diagnostics): (Vec<Diagnostic>, Vec<Diagnostic>) = diags
        .into_iter()
        .partition(|d| d.severity == Severity::Error);
    if !errors.is_empty() {
        return Err(PipelineError::Analysis(errors));
    }
    let analyze = t0.elapsed();

    // Stage 7: analysis-driven template optimization — decided
    // condition plans become constants, statically dead activities
    // and their data connectors are pruned. The same rewrite
    // `Engine::register` applies; running it here means
    // `register_compiled` callers (fmtm run/top/serve) get the
    // optimized template too.
    let t0 = std::time::Instant::now();
    let (template, opt_stats) = wfms_engine::optimize::optimize(&template);
    let optimize = t0.elapsed();

    let mut stage_nanos = vec![("import-analyze", (import + analyze).as_nanos())];
    stage_nanos.extend(pass_nanos);
    stage_nanos.push(("compile", compile.as_nanos()));
    stage_nanos.push(("optimize", optimize.as_nanos()));
    Ok(Imported {
        process,
        diagnostics,
        template: Arc::new(template),
        opt_stats,
        stage_nanos,
    })
}

/// Runs the full pipeline on a specification text.
///
/// ```
/// let out = exotica::run_pipeline(r#"
///     SAGA order
///       STEP Reserve PROGRAM "reserve" COMPENSATION "release"
///       STEP Charge  PROGRAM "charge"  COMPENSATION "refund"
///     END
/// "#).unwrap();
/// assert_eq!(out.spec.name(), "order");
/// assert!(out.fdl.starts_with("PROCESS order"));
/// assert_eq!(out.process.total_activities(), 2 + 2 + 3);
/// ```
pub fn run_pipeline(spec_text: &str) -> Result<PipelineOutput, PipelineError> {
    let mut stage_nanos: Vec<(&'static str, u128)> = Vec::with_capacity(5);

    // Stage 1: parse the user specification.
    let t0 = std::time::Instant::now();
    let spec = parse_spec(spec_text).map_err(PipelineError::SpecSyntax)?;
    stage_nanos.push(("parse", t0.elapsed().as_nanos()));

    // Stage 2: model-rule checking, once, into the checked form every
    // later stage reads.
    let t0 = std::time::Instant::now();
    let checked = resolve(&spec)
        .and_then(Resolved::check)
        .map_err(PipelineError::ModelRules)?;
    stage_nanos.push(("model-rules", t0.elapsed().as_nanos()));

    // Stage 3: translate to a workflow process and emit FDL.
    let t0 = std::time::Instant::now();
    let translated = translate(&checked).map_err(PipelineError::Translation)?;
    let fdl = wfms_fdl::emit(&translated);
    stage_nanos.push(("translate", t0.elapsed().as_nanos()));
    drop(checked); // it borrows `spec`, which the output takes

    // Stages 4–7: import the FDL, compile it once, analyse and
    // optimize that template.
    let Imported {
        process,
        diagnostics,
        template,
        opt_stats,
        stage_nanos: import_nanos,
    } = import_located(&fdl, false)?;
    debug_assert_eq!(process, translated, "FDL round trip must be lossless");
    stage_nanos.extend(import_nanos);

    Ok(PipelineOutput {
        spec,
        fdl,
        process,
        diagnostics,
        template,
        opt_stats,
        stage_nanos,
    })
}

/// The spec's paths of steps, or its structural errors: what the ATM
/// lints read and stage 2 checks ([`Resolved::check`]).
pub(crate) fn resolve(spec: &AtmSpec) -> Result<Resolved<'_>, Vec<WellFormedError>> {
    match spec {
        AtmSpec::Saga(s) => Resolved::saga(s),
        AtmSpec::Flexible(x) => Resolved::flexible(x),
    }
}

/// Stage 3: the model's construction — Figure 2 for a saga, Figure 4
/// for a flexible transaction.
pub(crate) fn translate(checked: &Checked) -> Result<ProcessDefinition, TranslateError> {
    match checked.source() {
        Source::Saga(_) => translate_saga(checked),
        Source::Flexible(_) => translate_flex(checked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAGA_SRC: &str = r#"
        SAGA trip
          STEP T1 PROGRAM "do_S1" COMPENSATION "undo_S1"
          STEP T2 PROGRAM "do_S2" COMPENSATION "undo_S2"
        END
    "#;

    #[test]
    fn saga_pipeline_produces_executable_template() {
        let out = run_pipeline(SAGA_SRC).unwrap();
        assert_eq!(out.spec.name(), "trip");
        assert!(out.fdl.contains("PROCESS trip"));
        assert!(out.fdl.contains("BLOCK Forward"));
        assert!(out.fdl.contains("BLOCK Compensation"));
        assert_eq!(out.process.name, "trip");
        assert!(wfms_model::validate(&out.process).is_empty());
        // Stage 6: the compiled template is over the same definition.
        assert_eq!(out.template.name(), "trip");
        assert_eq!(*out.template.def, out.process);
        assert_eq!(
            out.template.root.len(),
            out.process.activities.len(),
            "root scope compiles one slot per declared activity"
        );
    }

    #[test]
    fn flexible_pipeline_runs_figure3() {
        let src = crate::specfmt::emit_spec(&AtmSpec::Flexible(atm::fixtures::figure3_spec()));
        let out = run_pipeline(&src).unwrap();
        assert!(out.fdl.contains("BLOCK Blk_T5_T6"));
        assert!(out.process.has_activity("T8"));
    }

    #[test]
    fn pipeline_reports_per_stage_timings() {
        let out = run_pipeline(SAGA_SRC).unwrap();
        let stages: Vec<&str> = out.stage_nanos.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            stages,
            [
                "parse",
                "model-rules",
                "translate",
                "import-analyze",
                "analyze:model",
                "analyze:graph",
                "analyze:conditions",
                "analyze:dataflow",
                "analyze:liveness",
                "analyze:constprop",
                "analyze:deadline",
                "compile",
                "optimize",
            ]
        );
        // The per-pass breakdown is bounded by its parent stage.
        let import = out
            .stage_nanos
            .iter()
            .find(|(s, _)| *s == "import-analyze")
            .unwrap()
            .1;
        let passes: u128 = out
            .stage_nanos
            .iter()
            .filter(|(s, _)| s.starts_with("analyze:"))
            .map(|(_, n)| n)
            .sum();
        assert!(passes <= import, "passes {passes} > stage {import}");
    }

    #[test]
    fn pipeline_template_is_optimized() {
        // Analyzer-clean translations leave the optimizer nothing to
        // do: no WA103/WA104/WA105 findings means no decidable plans
        // and no dead activities. The two share one analysis
        // (`wfms_engine::optimize::analyze_scope`), so this is a
        // consistency check, not a coincidence.
        let out = run_pipeline(SAGA_SRC).unwrap();
        assert!(out.diagnostics.is_empty());
        assert!(out.opt_stats.is_noop(), "{:?}", out.opt_stats);
        // And the shipped template is a fixpoint either way:
        // re-optimizing finds nothing.
        let (_, again) = wfms_engine::optimize::optimize(&out.template);
        assert!(again.is_noop(), "second pass found work: {again:?}");
    }

    #[test]
    fn shipped_templates_keep_their_identity() {
        // Version hashes and optimizer verdicts of the shipped specs,
        // as the build that compiled each definition three more times
        // for its analysis wrote them.
        for (spec, hash) in [
            (
                include_str!("../../../examples/specs/trip.saga"),
                0x414f_b7ed_1401_0dde,
            ),
            (
                include_str!("../../../examples/specs/figure3.flex"),
                0x55ee_2a1a_c251_f70b,
            ),
        ] {
            let out = run_pipeline(spec).unwrap();
            assert_eq!(out.template.spec_hash, hash, "{}", out.spec.name());
            assert!(out.opt_stats.is_noop(), "{:?}", out.opt_stats);
        }
    }

    #[test]
    fn stage1_errors() {
        let err = run_pipeline("SAGA\nEND").unwrap_err();
        assert!(matches!(err, PipelineError::SpecSyntax(_)));
        assert!(err.to_string().contains("stage 1"));
    }

    #[test]
    fn stage2_errors() {
        // A saga step without compensation violates the saga rules.
        let err = run_pipeline("SAGA s\nSTEP A PROGRAM \"p\"\nEND").unwrap_err();
        assert!(matches!(err, PipelineError::ModelRules(_)));
        assert!(err.to_string().contains("stage 2"));
    }

    #[test]
    fn translations_are_analyzer_clean() {
        let out = run_pipeline(SAGA_SRC).unwrap();
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        let src = crate::specfmt::emit_spec(&AtmSpec::Flexible(atm::fixtures::figure3_spec()));
        let out = run_pipeline(&src).unwrap();
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn stage5_rejects_unreachable_compensation_block() {
        // Break the translator's own output: make the Forward →
        // Compensation trigger statically false. The compensation
        // block is then dead code and the import gate must refuse it,
        // naming the block and its FDL position.
        let out = run_pipeline(SAGA_SRC).unwrap();
        let needle = "WHEN \"(RC = 0)\"";
        assert!(out.fdl.contains(needle), "fdl:\n{}", out.fdl);
        let doctored = out.fdl.replace(needle, "WHEN \"(1 = 0)\"");
        let err = import(&doctored).unwrap_err();
        let PipelineError::Analysis(diags) = &err else {
            panic!("expected analysis rejection, got {err}");
        };
        let d = diags
            .iter()
            .find(|d| d.code == "WA035")
            .unwrap_or_else(|| panic!("expected WA035 in {diags:?}"));
        assert_eq!(d.element.as_deref(), Some("Compensation"));
        assert!(d.pos.is_some_and(|p| p.line > 1), "position: {:?}", d.pos);
        assert!(err.to_string().contains("stage 5"));
    }

    #[test]
    fn stage5_rejects_read_before_write() {
        let fdl = "PROCESS p\n  ACTIVITY A PROGRAM \"a\" END\n  ACTIVITY B PROGRAM \"b\" INPUT ( amount: INT ) END\n  CONTROL FROM A TO B\nEND\n";
        let err = import(fdl).unwrap_err();
        let PipelineError::Analysis(diags) = &err else {
            panic!("expected analysis rejection, got {err}");
        };
        let d = diags
            .iter()
            .find(|d| d.code == "WA041")
            .unwrap_or_else(|| panic!("expected WA041 in {diags:?}"));
        assert_eq!(d.element.as_deref(), Some("B"));
        assert_eq!(d.pos.map(|p| p.line), Some(3));
    }

    #[test]
    fn stage5_passes_warnings_through() {
        // A dead write is a warning: the process ships, with the
        // finding attached to the output.
        let fdl = "PROCESS p\n  ACTIVITY A PROGRAM \"a\" OUTPUT ( unused: INT ) END\nEND\n";
        let imported = import(fdl).unwrap();
        assert_eq!(imported.process.name, "p");
        let diags = &imported.diagnostics;
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "WA043");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn stage3_errors() {
        // Well-formed flexible transaction outside the static
        // translation class: a step in two continuations.
        let src = r#"
            FLEXIBLE f
              STEP A PROGRAM "p" COMPENSATION "c"
              STEP B PROGRAM "p" RETRIABLE
              STEP C PROGRAM "p" COMPENSATION "c"
              PATH A B
              PATH C B
            END
        "#;
        let err = run_pipeline(src).unwrap_err();
        assert!(matches!(err, PipelineError::Translation(_)), "{err}");
        assert!(err.to_string().contains("stage 3"));
    }
}
