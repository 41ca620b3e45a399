//! Lint front end shared by `fmtm lint` and the golden tests.
//!
//! Accepts either kind of source text the toolchain works with and
//! runs the appropriate `wfms-analyzer` battery:
//!
//! * **ATM specs** (`SAGA`/`FLEXIBLE`) — the ATM-level lints run
//!   against the parsed spec with step positions from
//!   [`SpecSpans`](crate::specfmt::SpecSpans); if those are clean,
//!   the spec is translated and the generated process is analysed too
//!   (position-less, since the FDL it would point into is
//!   machine-generated).
//! * **FDL** (a `PROCESS`) — parsed with provenance, so every finding
//!   carries the line/column of the offending element.
//!
//! The kind is decided by *parsing*, not by keyword sniffing: the
//! spec grammar is tried first, FDL second, and when neither accepts
//! the text the error reports both parsers' complaints. (An earlier
//! version dispatched on the first keyword, which turned every
//! mis-spelled header into an unhelpful "unrecognised source".)

use crate::pipeline::{resolve, translate};
use crate::specfmt::parse_spec_spanned;
use wfms_analyzer::{has_errors, Analyzer, Diagnostic};
use wfms_fdl::Pos;

/// Lints one source text. `allowed` suppresses the given `WA0xx`
/// codes. Returns `Err` with a message when the text does not parse
/// at all (lints need a parsed artifact to look at).
///
/// The source kind is decided by parsing: the spec grammar first
/// (specs are the common `fmtm` input), then FDL. When both reject
/// the text the error carries both complaints, so a near-miss spec
/// shows its actual spec parse error rather than FDL's.
pub fn lint_source(src: &str, allowed: &[String]) -> Result<Vec<Diagnostic>, String> {
    let analyzer = || {
        let mut a = Analyzer::new();
        for code in allowed {
            a = a.allow(code);
        }
        a
    };
    let spec_err = match parse_spec_spanned(src) {
        Ok((spec, spans)) => {
            let resolved = resolve(&spec);
            let mut diags = analyzer().check_spec(spec.name(), &resolved);
            for d in &mut diags {
                if d.pos.is_none() {
                    let line = d
                        .element
                        .as_ref()
                        .and_then(|e| spans.steps.get(e).copied())
                        .unwrap_or(spans.header);
                    if line > 0 {
                        d.pos = Some(Pos { line, col: 1 });
                    }
                }
            }
            // Spec-level errors make the translation meaningless;
            // likewise a spec outside the supported translation class
            // is `fmtm check`'s concern, not a lint finding.
            if !has_errors(&diags) {
                let checked = resolved.and_then(|r| r.check());
                if let Some(process) = checked.ok().and_then(|c| translate(&c).ok()) {
                    diags.extend(analyzer().check_process(&process, None));
                }
            }
            return Ok(diags);
        }
        Err(e) => e.to_string(),
    };
    match wfms_fdl::parse_with_provenance(src) {
        Ok((def, prov)) => Ok(analyzer().check_process(&def, Some(&prov))),
        Err(fdl_err) => Err(format!(
            "source parses as neither an ATM spec nor FDL\n  as spec: {spec_err}\n  as FDL: {fdl_err}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdl_findings_have_positions() {
        let src = "PROCESS p\n  ACTIVITY A PROGRAM \"a\" END\n  ACTIVITY B PROGRAM \"b\" END\n  CONTROL FROM A TO B WHEN \"1 = 2\"\nEND";
        let diags = lint_source(src, &[]).unwrap();
        assert!(diags.iter().any(|d| d.code == "WA031"));
        assert!(diags.iter().all(|d| d.pos.is_some()), "{diags:?}");
    }

    #[test]
    fn spec_findings_point_at_step_lines() {
        let src = "SAGA s\n  STEP A PROGRAM \"p\" COMPENSATION \"c\"\n  STEP B PROGRAM \"q\"\nEND";
        let diags = lint_source(src, &[]).unwrap();
        let d = diags.iter().find(|d| d.code == "WA052").expect("WA052");
        assert_eq!(d.pos.map(|p| p.line), Some(3));
    }

    #[test]
    fn clean_spec_also_lints_its_translation() {
        let src = "SAGA s\n  STEP A PROGRAM \"p\" COMPENSATION \"c\"\nEND";
        let diags = lint_source(src, &[]).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_list_respected() {
        let src = "SAGA s\n  STEP A PROGRAM \"p\"\nEND";
        let diags = lint_source(src, &[]).unwrap();
        assert!(!diags.is_empty());
        let codes: Vec<String> = diags.iter().map(|d| d.code.to_owned()).collect();
        let diags = lint_source(src, &codes).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unparseable_source_reports_both_parsers() {
        let err = lint_source("neither fish nor fowl", &[]).unwrap_err();
        assert!(err.contains("as spec:"), "{err}");
        assert!(err.contains("as FDL:"), "{err}");
        let err = lint_source("PROCESS p ACTIVITY END", &[]).unwrap_err();
        assert!(err.contains("as spec:"), "{err}");
        assert!(err.contains("as FDL:"), "{err}");
    }

    #[test]
    fn kind_is_decided_by_parsing_not_keyword() {
        // An FDL file whose first word the old keyword sniffer did not
        // know (a leading pragma comment marker it skipped is fine,
        // but the real test: a spec with a broken header used to be
        // "unrecognised" — now it gets its actual spec parse error).
        let err = lint_source("SAGA\n  STEP A PROGRAM \"p\"\nEND", &[]).unwrap_err();
        assert!(err.contains("as spec:"), "{err}");
    }
}
