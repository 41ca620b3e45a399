//! The textual ATM specification format — the "user specification"
//! entering the Figure 5 pipeline.
//!
//! ```text
//! SAGA book_trip
//!   STEP T1 PROGRAM "book_flight" COMPENSATION "cancel_flight"
//!   STEP T2 PROGRAM "book_hotel"  COMPENSATION "cancel_hotel"
//! END
//!
//! FLEXIBLE figure3
//!   STEP T1 PROGRAM "prog_T1" COMPENSATION "comp_T1"
//!   STEP T2 PROGRAM "prog_T2" PIVOT
//!   STEP T3 PROGRAM "prog_T3" RETRIABLE
//!   STEP T6 PROGRAM "prog_T6" COMPENSATION "comp_T6" RETRIABLE
//!   PATH T1 T2 T3
//! END
//! ```
//!
//! Classes are inferred: `COMPENSATION` ⇒ compensatable, `RETRIABLE`
//! ⇒ retriable, both ⇒ compensatable-and-retriable, `PIVOT` (or
//! nothing, for flexible transactions) ⇒ pivot. Saga steps must all
//! carry a `COMPENSATION`; the model checkers report violations
//! downstream.
//!
//! `RETRIABLE` on a saga step is accepted but is not a retry: a saga
//! never re-submits a forward step (it checks into a one-path flexible
//! transaction with forward retry off), so one abort of the step rolls
//! the saga back, natively and in both translations.

use atm::{FlexSpec, SagaSpec, StepSpec};
use txn_substrate::StepClass;

/// A parsed specification: which model, and its content.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedSpec {
    /// A (linear) saga.
    Saga(SagaSpec),
    /// A flexible transaction.
    Flexible(FlexSpec),
}

impl ParsedSpec {
    /// The specification's name.
    pub fn name(&self) -> &str {
        match self {
            ParsedSpec::Saga(s) => &s.name,
            ParsedSpec::Flexible(f) => &f.name,
        }
    }
}

/// A specification syntax error with its (1-based) line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecSyntaxError {
    /// Line the error was detected on.
    pub line: u32,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for SpecSyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SpecSyntaxError {}

/// Line numbers (1-based) of the elements of a parsed specification,
/// recorded by [`parse_spec_spanned`] so analysis diagnostics can
/// point back at the spec text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecSpans {
    /// Line of the `SAGA`/`FLEXIBLE` header.
    pub header: u32,
    /// Line of each `STEP`, by step name (last occurrence wins, which
    /// points duplicate-step findings at the offending line).
    pub steps: std::collections::BTreeMap<String, u32>,
    /// Line of each `PATH`, in declaration order.
    pub paths: Vec<u32>,
}

/// Parses one specification.
pub fn parse_spec(src: &str) -> Result<ParsedSpec, SpecSyntaxError> {
    parse_spec_spanned(src).map(|(spec, _)| spec)
}

/// Parses one specification, also recording the line number of each
/// element (see [`SpecSpans`]).
pub fn parse_spec_spanned(src: &str) -> Result<(ParsedSpec, SpecSpans), SpecSyntaxError> {
    let mut steps: Vec<StepSpec> = Vec::new();
    let mut paths: Vec<Vec<String>> = Vec::new();
    let mut header: Option<(bool, String)> = None; // (is_saga, name)
    let mut ended = false;
    let mut spans = SpecSpans::default();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno as u32 + 1;
        let text = raw.split("--").next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if ended {
            return Err(SpecSyntaxError {
                line,
                msg: "content after END".into(),
            });
        }
        let tokens = tokenize(text, line)?;
        let head = tokens[0].to_ascii_uppercase();
        match head.as_str() {
            "SAGA" | "FLEXIBLE" => {
                if header.is_some() {
                    return Err(SpecSyntaxError {
                        line,
                        msg: "duplicate specification header".into(),
                    });
                }
                if tokens.len() != 2 {
                    return Err(SpecSyntaxError {
                        line,
                        msg: format!("{head} needs exactly one name"),
                    });
                }
                header = Some((head == "SAGA", tokens[1].clone()));
                spans.header = line;
            }
            "STEP" => {
                if header.is_none() {
                    return Err(SpecSyntaxError {
                        line,
                        msg: "STEP before the SAGA/FLEXIBLE header".into(),
                    });
                }
                let step = parse_step(&tokens, line)?;
                spans.steps.insert(step.name.clone(), line);
                steps.push(step);
            }
            "PATH" => {
                match &header {
                    Some((false, _)) => {}
                    Some((true, _)) => {
                        return Err(SpecSyntaxError {
                            line,
                            msg: "PATH is only valid in FLEXIBLE specifications".into(),
                        })
                    }
                    None => {
                        return Err(SpecSyntaxError {
                            line,
                            msg: "PATH before the FLEXIBLE header".into(),
                        })
                    }
                }
                if tokens.len() < 2 {
                    return Err(SpecSyntaxError {
                        line,
                        msg: "PATH needs at least one step".into(),
                    });
                }
                spans.paths.push(line);
                paths.push(tokens[1..].to_vec());
            }
            "END" => ended = true,
            other => {
                return Err(SpecSyntaxError {
                    line,
                    msg: format!("unexpected {other:?}"),
                })
            }
        }
    }

    let Some((is_saga, name)) = header else {
        return Err(SpecSyntaxError {
            line: 1,
            msg: "missing SAGA or FLEXIBLE header".into(),
        });
    };
    if !ended {
        return Err(SpecSyntaxError {
            line: src.lines().count() as u32,
            msg: "missing END".into(),
        });
    }
    let spec = if is_saga {
        ParsedSpec::Saga(SagaSpec::linear(&name, steps))
    } else {
        ParsedSpec::Flexible(FlexSpec { name, steps, paths })
    };
    Ok((spec, spans))
}

/// Renders a specification back to its textual form (canonical).
pub fn emit_spec(spec: &ParsedSpec) -> String {
    let mut out = String::new();
    match spec {
        ParsedSpec::Saga(s) => {
            out.push_str(&format!("SAGA {}\n", s.name));
            for step in s.steps() {
                out.push_str(&emit_step(step));
            }
        }
        ParsedSpec::Flexible(f) => {
            out.push_str(&format!("FLEXIBLE {}\n", f.name));
            for step in &f.steps {
                out.push_str(&emit_step(step));
            }
            for p in &f.paths {
                out.push_str(&format!("  PATH {}\n", p.join(" ")));
            }
        }
    }
    out.push_str("END\n");
    out
}

fn emit_step(step: &StepSpec) -> String {
    let mut line = format!("  STEP {} PROGRAM \"{}\"", step.name, step.program);
    if let Some(c) = &step.compensation {
        line.push_str(&format!(" COMPENSATION \"{c}\""));
    }
    if step.class.is_retriable() {
        line.push_str(" RETRIABLE");
    }
    if step.class.is_pivot() {
        line.push_str(" PIVOT");
    }
    line.push('\n');
    line
}

fn parse_step(tokens: &[String], line: u32) -> Result<StepSpec, SpecSyntaxError> {
    if tokens.len() < 2 {
        return Err(SpecSyntaxError {
            line,
            msg: "STEP needs a name".into(),
        });
    }
    let name = tokens[1].clone();
    let mut program: Option<String> = None;
    let mut compensation: Option<String> = None;
    let mut retriable = false;
    let mut pivot = false;
    let mut i = 2;
    while i < tokens.len() {
        match tokens[i].to_ascii_uppercase().as_str() {
            "PROGRAM" => {
                program = Some(
                    tokens
                        .get(i + 1)
                        .ok_or_else(|| SpecSyntaxError {
                            line,
                            msg: "PROGRAM needs a value".into(),
                        })?
                        .clone(),
                );
                i += 2;
            }
            "COMPENSATION" => {
                compensation = Some(
                    tokens
                        .get(i + 1)
                        .ok_or_else(|| SpecSyntaxError {
                            line,
                            msg: "COMPENSATION needs a value".into(),
                        })?
                        .clone(),
                );
                i += 2;
            }
            "RETRIABLE" => {
                retriable = true;
                i += 1;
            }
            "PIVOT" => {
                pivot = true;
                i += 1;
            }
            other => {
                return Err(SpecSyntaxError {
                    line,
                    msg: format!("unexpected {other:?} in STEP"),
                })
            }
        }
    }
    let Some(program) = program else {
        return Err(SpecSyntaxError {
            line,
            msg: format!("step {name:?} names no PROGRAM"),
        });
    };
    if pivot && (retriable || compensation.is_some()) {
        return Err(SpecSyntaxError {
            line,
            msg: format!("step {name:?}: PIVOT excludes RETRIABLE/COMPENSATION"),
        });
    }
    let class = match (compensation.is_some(), retriable) {
        (true, true) => StepClass::CompensatableRetriable,
        (true, false) => StepClass::Compensatable,
        (false, true) => StepClass::Retriable,
        (false, false) => StepClass::Pivot,
    };
    Ok(StepSpec {
        name,
        program,
        compensation,
        class,
    })
}

/// Splits a line into words, treating double-quoted substrings as one
/// token (without the quotes).
fn tokenize(text: &str, line: u32) -> Result<Vec<String>, SpecSyntaxError> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    None => {
                        return Err(SpecSyntaxError {
                            line,
                            msg: "unterminated string".into(),
                        })
                    }
                    Some('"') => break,
                    Some(ch) => s.push(ch),
                }
            }
            out.push(s);
        } else {
            let mut s = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() {
                    break;
                }
                s.push(ch);
                chars.next();
            }
            out.push(s);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm::fixtures::figure3_spec;

    #[test]
    fn saga_round_trip() {
        let src = r#"
            SAGA trip
              STEP T1 PROGRAM "book" COMPENSATION "cancel"
              STEP T2 PROGRAM "pay" COMPENSATION "refund"
            END
        "#;
        let spec = parse_spec(src).unwrap();
        let ParsedSpec::Saga(s) = &spec else { panic!() };
        assert_eq!(s.steps.len(), 2);
        let emitted = emit_spec(&spec);
        assert_eq!(parse_spec(&emitted).unwrap(), spec);
    }

    #[test]
    fn figure3_text_matches_fixture() {
        let src = r#"
            FLEXIBLE figure3
              STEP T1 PROGRAM "prog_T1" COMPENSATION "comp_T1"
              STEP T2 PROGRAM "prog_T2" PIVOT
              STEP T3 PROGRAM "prog_T3" RETRIABLE
              STEP T4 PROGRAM "prog_T4" PIVOT
              STEP T5 PROGRAM "prog_T5" COMPENSATION "comp_T5"
              STEP T6 PROGRAM "prog_T6" COMPENSATION "comp_T6"
              STEP T7 PROGRAM "prog_T7" RETRIABLE
              STEP T8 PROGRAM "prog_T8" PIVOT
              PATH T1 T2 T4 T5 T6 T8
              PATH T1 T2 T4 T7
              PATH T1 T2 T3
            END
        "#;
        let spec = parse_spec(src).unwrap();
        assert_eq!(spec, ParsedSpec::Flexible(figure3_spec()));
        // Canonical emission round-trips.
        assert_eq!(parse_spec(&emit_spec(&spec)).unwrap(), spec);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "SAGA s -- the name\n\n  STEP A PROGRAM \"p\" COMPENSATION \"c\"\nEND\n";
        assert!(parse_spec(src).is_ok());
    }

    #[test]
    fn error_taxonomy() {
        let cases: &[(&str, &str)] = &[
            ("STEP A PROGRAM \"p\"\nEND", "header"),
            ("SAGA s\nSTEP A\nEND", "PROGRAM"),
            ("SAGA s\nPATH A\nEND", "FLEXIBLE"),
            (
                "SAGA s\nSTEP A PROGRAM \"p\" PIVOT COMPENSATION \"c\"\nEND",
                "excludes",
            ),
            ("SAGA s\nSTEP A PROGRAM \"p\"\n", "missing END"),
            ("SAGA s\nEND\nextra", "after END"),
            ("SAGA a b\nEND", "one name"),
            ("FLEXIBLE f\nPATH\nEND", "at least one step"),
            ("SAGA s\nWHAT\nEND", "unexpected"),
            ("SAGA s\nSTEP A PROGRAM \"unclosed\nEND", "unterminated"),
        ];
        for (src, needle) in cases {
            let err = parse_spec(src).unwrap_err();
            assert!(
                err.msg.to_lowercase().contains(&needle.to_lowercase()),
                "source {src:?} produced {err:?}, expected {needle:?}"
            );
        }
    }

    #[test]
    fn spans_record_element_lines() {
        let src = "SAGA s\n  STEP A PROGRAM \"p\" COMPENSATION \"c\"\n\n  STEP B PROGRAM \"q\" COMPENSATION \"d\"\nEND\n";
        let (_, spans) = parse_spec_spanned(src).unwrap();
        assert_eq!(spans.header, 1);
        assert_eq!(spans.steps.get("A"), Some(&2));
        assert_eq!(spans.steps.get("B"), Some(&4));
        assert!(spans.paths.is_empty());

        let src = "FLEXIBLE f\n  STEP A PROGRAM \"p\" RETRIABLE\n  PATH A\nEND\n";
        let (_, spans) = parse_spec_spanned(src).unwrap();
        assert_eq!(spans.paths, vec![3]);
    }

    #[test]
    fn class_inference() {
        let src = r#"
            FLEXIBLE f
              STEP A PROGRAM "p"
              STEP B PROGRAM "p" RETRIABLE
              STEP C PROGRAM "p" COMPENSATION "c"
              STEP D PROGRAM "p" COMPENSATION "c" RETRIABLE
              PATH A B C D
            END
        "#;
        let ParsedSpec::Flexible(f) = parse_spec(src).unwrap() else {
            panic!()
        };
        let class = |name| f.step(name).unwrap().class;
        assert!(class("A").is_pivot());
        assert!(class("B").is_retriable() && !class("B").is_compensatable());
        assert!(class("C").is_compensatable() && !class("C").is_retriable());
        assert!(class("D").is_compensatable() && class("D").is_retriable());
    }
}
