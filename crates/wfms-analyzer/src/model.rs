//! `WA001`–`WA016`: meta-model rules lifted from
//! [`wfms_model::validate()`] into the diagnostic framework.
//!
//! The validator already recurses into nested blocks and reports every
//! violation in one pass; the analyzer runs it once, at its entry, and
//! this lint maps each [`ValidationError`] of that one result to a
//! stable code at the root, attaching source positions via
//! [`wfms_fdl::Provenance::locate`]. The one exception
//! is `ValidationError::Cycle`, which is *not* lifted here: the graph
//! lint reports cycles as `WA022` with a witness path, which subsumes
//! the validator's process-level finding.

use crate::{Diagnostic, Lint, ProcessCtx, Severity};
use wfms_model::ValidationError;

/// Lints lifted from the meta-model validator.
pub struct ModelLint;

/// Maps a validation error to its diagnostic code, or `None` for
/// variants covered by a richer dedicated lint.
pub fn code_of(err: &ValidationError) -> Option<&'static str> {
    use ValidationError::*;
    Some(match err {
        EmptyProcess { .. } => "WA001",
        DuplicateActivity { .. } => "WA002",
        DuplicateMember { .. } => "WA003",
        MissingProgramName { .. } => "WA004",
        UnknownEndpoint { .. } => "WA005",
        SelfLoop { .. } => "WA006",
        DuplicateControl { .. } => "WA007",
        Cycle { .. } => return None, // WA022 reports a witness instead
        BadDataDirection { .. } => "WA008",
        UnknownDataActivity { .. } => "WA009",
        UnknownMember { .. } => "WA010",
        MappingTypeMismatch { .. } => "WA011",
        DataAgainstControlFlow { .. } => "WA012",
        UnresolvedConditionVar { .. } => "WA013",
        ReservedRcWrongType { .. } => "WA014",
        BlockContainerMismatch { .. } => "WA015",
        SlashInActivityName { .. } => "WA016",
    })
}

/// The process path a validation error concerns.
fn process_of(err: &ValidationError) -> &str {
    use ValidationError::*;
    match err {
        EmptyProcess { process }
        | DuplicateActivity { process, .. }
        | SlashInActivityName { process, .. }
        | DuplicateMember { process, .. }
        | MissingProgramName { process, .. }
        | UnknownEndpoint { process, .. }
        | SelfLoop { process, .. }
        | DuplicateControl { process, .. }
        | Cycle { process }
        | BadDataDirection { process, .. }
        | UnknownDataActivity { process, .. }
        | UnknownMember { process, .. }
        | MappingTypeMismatch { process, .. }
        | DataAgainstControlFlow { process, .. }
        | UnresolvedConditionVar { process, .. }
        | ReservedRcWrongType { process, .. }
        | BlockContainerMismatch { process, .. } => process,
    }
}

/// The element label (activity or connector) an error concerns.
fn element_of(err: &ValidationError) -> Option<String> {
    use ValidationError::*;
    match err {
        DuplicateActivity { activity, .. }
        | SlashInActivityName { activity, .. }
        | MissingProgramName { activity, .. }
        | SelfLoop { activity, .. }
        | BlockContainerMismatch { activity, .. } => Some(activity.clone()),
        UnknownEndpoint { connector, .. }
        | BadDataDirection { connector, .. }
        | UnknownDataActivity { connector, .. }
        | UnknownMember { connector, .. }
        | MappingTypeMismatch { connector, .. }
        | DataAgainstControlFlow { connector, .. } => Some(connector.clone()),
        DuplicateControl { from, to, .. } => Some(format!("{from} -> {to}")),
        DuplicateMember { container, .. } | ReservedRcWrongType { container, .. } => {
            Some(container.clone())
        }
        UnresolvedConditionVar { location, .. } => Some(location.clone()),
        EmptyProcess { .. } | Cycle { .. } => None,
    }
}

/// A validation error's message without its `[path] ` prefix (the
/// diagnostic carries the path separately).
fn message_of(err: &ValidationError) -> String {
    let full = err.to_string();
    let prefix = format!("[{}] ", process_of(err));
    full.strip_prefix(&prefix).unwrap_or(&full).to_owned()
}

impl Lint for ModelLint {
    fn name(&self) -> &'static str {
        "analyze:model"
    }

    fn root_only(&self) -> bool {
        true // the violations cover the nested blocks too
    }

    fn check(&self, ctx: &ProcessCtx<'_>, out: &mut Vec<Diagnostic>) {
        for err in ctx.violations {
            let Some(code) = code_of(err) else { continue };
            let pos = ctx.provenance.and_then(|p| p.locate(err));
            out.push(
                Diagnostic::new(
                    code,
                    Severity::Error,
                    process_of(err),
                    element_of(err),
                    message_of(err),
                )
                .with_pos(pos),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (def, prov) = wfms_fdl::parse_with_provenance(src).unwrap();
        Analyzer::new().check_process(&def, Some(&prov))
    }

    #[test]
    fn lifts_validation_errors_with_positions() {
        let src = "PROCESS p\n  ACTIVITY A PROGRAM \"x\" END\n  CONTROL FROM A TO Ghost\nEND";
        let diags = lint(src);
        let d = diags.iter().find(|d| d.code == "WA005").expect("WA005");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.process, "p");
        assert_eq!(d.element.as_deref(), Some("A -> Ghost"));
        assert_eq!(d.pos.map(|p| p.line), Some(3));
        assert!(!d.message.starts_with("[p]"), "path prefix stripped");
    }

    #[test]
    fn every_variant_maps_to_a_distinct_code_or_none() {
        use std::collections::BTreeSet;
        let errs = [
            ValidationError::EmptyProcess {
                process: "p".into(),
            },
            ValidationError::DuplicateActivity {
                process: "p".into(),
                activity: "A".into(),
            },
            ValidationError::Cycle {
                process: "p".into(),
            },
            ValidationError::ReservedRcWrongType {
                process: "p".into(),
                container: "A.INPUT".into(),
            },
        ];
        let codes: BTreeSet<_> = errs.iter().filter_map(code_of).collect();
        assert_eq!(codes.len(), 3, "cycle maps to None, rest distinct");
    }

    #[test]
    fn block_container_mismatch_flagged_programmatically() {
        use wfms_model::{Activity, ActivityKind, ContainerSchema, DataType, ProcessDefinition};
        // Not constructible from FDL text (the parser mirrors facade
        // containers), so build the broken definition by hand.
        let mut inner = ProcessDefinition::new("Blk");
        inner.activities.push(Activity::program("T", "t"));
        let mut facade = Activity::noop("Blk");
        facade.kind = ActivityKind::Block {
            process: Box::new(inner),
        };
        facade.output = ContainerSchema::of(&[("extra", DataType::Int)]);
        let mut def = ProcessDefinition::new("p");
        def.activities.push(facade);
        let diags = Analyzer::new().check_process(&def, None);
        assert!(
            diags.iter().any(|d| d.code == "WA015"),
            "expected WA015 in {diags:?}"
        );
    }

    #[test]
    fn slash_in_activity_name_flagged_programmatically() {
        // Not constructible from FDL text: identifiers cannot contain '/'.
        let mut def = wfms_model::ProcessDefinition::new("p");
        def.activities
            .push(wfms_model::Activity::program("A/B", "t"));
        let diags = Analyzer::new().check_process(&def, None);
        let d = diags.iter().find(|d| d.code == "WA016").expect("WA016");
        assert_eq!(d.element.as_deref(), Some("A/B"));
        assert!(crate::explain("WA016").is_some());
    }
}
