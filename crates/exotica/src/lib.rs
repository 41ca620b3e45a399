//! # exotica — the Exotica/FMTM pre-processor
//!
//! The paper's §5 prototype: "a middleware module … which acts as a
//! pre-processor that converts high level specifications of advanced
//! transaction models into workflow processes". This crate implements
//! the full Figure 5 pipeline:
//!
//! ```text
//!  ATM spec text ──specfmt──▶ SagaSpec / FlexSpec
//!        │                         │  model rules, once (atm::check_saga / check_flex)
//!        │                         ▼
//!        │                   atm::Checked (steps resolved, route table)
//!        │                         │  translate (Figure 2 / Figure 4 constructions)
//!        │                         ▼
//!        └────────────▶ FDL text ──import──▶ validated ProcessDefinition
//!                                                (executable template)
//! ```
//!
//! The translators take the checked form, never a raw specification:
//! the model rules run once, at pipeline stage 2, and nothing after it
//! checks again or looks a step up by name.
//!
//! * [`saga`] — the Figure 2 construction: forward block +
//!   compensation block with the NOP trigger and `State_i` bookkeeping.
//! * [`flexible`] — the §4.2 seven-step construction generalised from
//!   Figure 4: prefix-merged alternative paths, segment blocks for
//!   maximal compensatable runs, pivot branch points, retriable exit
//!   conditions, and failure routing through compensation blocks.
//! * [`specfmt`] — the textual specification format the pre-processor
//!   accepts (the "user specification" of Figure 5).
//! * [`pipeline`] — the end-to-end driver with the per-stage error
//!   taxonomy (spec syntax → model rules → translation → FDL import →
//!   static analysis).
//! * [`lint`] — the `fmtm lint` front end: decides by parsing whether
//!   a file is an ATM spec or FDL and runs the matching
//!   `wfms-analyzer` battery with source positions attached.
//! * [`verify`] — the equivalence harness: runs a specification both
//!   natively (`atm::native`) and as a translated workflow process
//!   under identical failure scripts and compares outcomes, database
//!   state and compensation activity.
//! * [`mod@provision`] — substrate synthesis shared by the CLI and the
//!   `fmtm serve` shard pool: a three-site multidatabase and a
//!   program registry derived from a spec's steps.

pub mod flexible;
pub mod lint;
pub mod pipeline;
pub mod provision;
pub mod saga;
pub mod specfmt;
pub mod verify;

pub use flexible::translate_flex;
pub use lint::lint_source;
pub use pipeline::{import, run_pipeline, AtmSpec, Imported, PipelineError, PipelineOutput};
pub use provision::{provision, steps_of, steps_of_all, steps_of_process};
pub use saga::{translate_saga, translate_saga_flat};
pub use specfmt::{emit_spec, parse_spec, parse_spec_spanned, ParsedSpec, SpecSpans};
pub use verify::{compare, EquivalenceReport};

use wfms_model::ValidationError;

/// Errors produced by the translation stage. A specification that
/// breaks its model's rules never gets here: the translators take the
/// [`atm::Checked`] form, which only a passed check produces.
#[derive(Debug)]
pub enum TranslateError {
    /// The specification is well-formed but outside the structural
    /// class the static translation supports (the error text explains
    /// which assumption failed): a flexible transaction given to the
    /// Figure 2 construction, or one whose routes Figure 4 cannot
    /// decide statically.
    Unsupported(String),
    /// The generated process failed meta-model validation — a bug in
    /// the translator; surfaced rather than panicking so the pipeline
    /// can report it.
    Model(Vec<ValidationError>),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Unsupported(msg) => write!(f, "unsupported specification: {msg}"),
            TranslateError::Model(errs) => {
                writeln!(f, "translator produced an invalid process (bug):")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TranslateError {}
