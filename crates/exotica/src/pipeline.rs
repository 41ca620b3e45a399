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
use atm::{Checked, Source, WellFormedError};
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
    /// Wall-clock nanoseconds spent in each pipeline stage, in stage
    /// order: parse, model rules, translate+emit, import+analyze
    /// (followed by one `analyze:<pass>` entry per analyzer pass,
    /// breaking the analysis time down), compile, optimize.
    /// Observability for the pre-processor itself — `fmtm check`
    /// prints these alongside the stage report.
    pub stage_nanos: Vec<(&'static str, u128)>,
}

/// Stages 4–5 on FDL text: imports the definition (syntax + semantic
/// validation, with source provenance) and runs the `wfms-analyzer`
/// battery over it. Error-severity findings reject the process; the
/// surviving warnings and notes are returned alongside it.
///
/// This is the verification gate `run_pipeline` applies to its own
/// translator output; it is public so externally produced FDL can be
/// held to the same standard.
pub fn import_and_analyze(
    fdl: &str,
) -> Result<(ProcessDefinition, Vec<Diagnostic>), PipelineError> {
    import_and_analyze_timed(fdl).map(|(process, diags, _)| (process, diags))
}

/// Wall-clock nanoseconds spent per analyzer pass, by pass name (see
/// [`Analyzer::check_process_timed`]).
pub type PassNanos = Vec<(&'static str, u128)>;

/// [`import_and_analyze`], additionally returning the wall-clock
/// nanoseconds each analyzer pass spent.
pub fn import_and_analyze_timed(
    fdl: &str,
) -> Result<(ProcessDefinition, Vec<Diagnostic>, PassNanos), PipelineError> {
    let (process, provenance) =
        wfms_fdl::parse_with_provenance(fdl).map_err(|e| PipelineError::FdlImport(vec![e]))?;
    let semantic: Vec<FdlError> = wfms_model::validate(&process)
        .iter()
        .map(|e| FdlError::new(provenance.locate(e).unwrap_or_default(), e.to_string()))
        .collect();
    if !semantic.is_empty() {
        return Err(PipelineError::FdlImport(semantic));
    }

    // Stage 5: static analysis over the imported process.
    let (diags, pass_nanos) = Analyzer::new().check_process_timed(&process, Some(&provenance));
    let (errors, rest): (Vec<Diagnostic>, Vec<Diagnostic>) = diags
        .into_iter()
        .partition(|d| d.severity == Severity::Error);
    if !errors.is_empty() {
        return Err(PipelineError::Analysis(errors));
    }
    Ok((process, rest, pass_nanos))
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
    let checked = check(&spec).map_err(PipelineError::ModelRules)?;
    stage_nanos.push(("model-rules", t0.elapsed().as_nanos()));

    // Stage 3: translate to a workflow process and emit FDL.
    let t0 = std::time::Instant::now();
    let translated = translate(&checked).map_err(PipelineError::Translation)?;
    let fdl = wfms_fdl::emit(&translated);
    stage_nanos.push(("translate", t0.elapsed().as_nanos()));
    drop(checked); // it borrows `spec`, which the output takes

    // Stages 4–5: import the FDL (syntax + semantic validation) and
    // statically analyse it, yielding the executable template.
    let t0 = std::time::Instant::now();
    let (process, diagnostics, pass_nanos) = import_and_analyze_timed(&fdl)?;
    debug_assert_eq!(process, translated, "FDL round trip must be lossless");
    stage_nanos.push(("import-analyze", t0.elapsed().as_nanos()));
    for (pass, nanos) in pass_nanos {
        stage_nanos.push((analyze_stage_label(pass), nanos));
    }

    // Stage 6: lower the validated process into the engine's compiled
    // executable template.
    let t0 = std::time::Instant::now();
    let template = CompiledProcess::compile(process.clone());
    stage_nanos.push(("compile", t0.elapsed().as_nanos()));

    // Stage 7: analysis-driven template optimization — decided
    // condition plans become constants, statically dead activities
    // and their data connectors are pruned. The same rewrite
    // `Engine::register` applies; running it here means
    // `register_compiled` callers (fmtm run/top/serve) get the
    // optimized template too.
    let t0 = std::time::Instant::now();
    let (template, opt_stats) = wfms_engine::optimize::optimize(&template);
    let template = Arc::new(template);
    stage_nanos.push(("optimize", t0.elapsed().as_nanos()));

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

/// Stage 2: the spec's model rules, into the form the translators take.
pub(crate) fn check(spec: &AtmSpec) -> Result<Checked<'_>, Vec<WellFormedError>> {
    match spec {
        AtmSpec::Saga(s) => atm::check_saga(s),
        AtmSpec::Flexible(x) => atm::check_flex(x),
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

/// The `stage_nanos` label for one analyzer pass. The names are the
/// analyzer battery's [`Lint::name`](wfms_analyzer::Lint::name)s,
/// prefixed so the per-pass breakdown sorts with its parent stage.
fn analyze_stage_label(pass: &'static str) -> &'static str {
    match pass {
        "model" => "analyze:model",
        "graph" => "analyze:graph",
        "conditions" => "analyze:conditions",
        "dataflow" => "analyze:dataflow",
        "liveness" => "analyze:liveness",
        "constprop" => "analyze:constprop",
        "deadline" => "analyze:deadline",
        other => other,
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
        let err = import_and_analyze(&doctored).unwrap_err();
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
        let err = import_and_analyze(fdl).unwrap_err();
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
        let (process, diags) = import_and_analyze(fdl).unwrap();
        assert_eq!(process.name, "p");
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
