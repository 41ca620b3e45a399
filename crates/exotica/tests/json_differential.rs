//! The streaming path and the `Content` path agree. For the workspace's
//! JSON shapes — `Event`, `ProcessDefinition`, `SubmitRequest`,
//! `StatusResponse`, `Container` and the tenants file — a text read
//! straight from the parser (`from_str::<T>`) and read as a tree then
//! walked (`from_str::<Content>`, `T::from_content`) is `Ok` and equal
//! on both, or `Err` on both; and a value read is written to the same
//! bytes, compact and pretty, straight and through its tree
//! (`to_content`). The texts are the committed JSON fixtures, values
//! rendered from the shipped specs and FDL fixtures, and those texts
//! mutated: duplicate and unknown keys, nesting past 512 (in a field
//! that is read and in one that is skipped), bad escapes, stray and
//! trailing bytes.
//!
//! Both paths run the same derived code, so a change in what the
//! derive reads or writes shows here on neither side; the JSON goldens
//! (translation, event, dump, retire, lint) pin that against earlier
//! builds.

use std::fmt::Debug;
use std::path::Path;
use std::sync::LazyLock;

use proptest::prelude::*;
use serde::{Content, Deserialize, Serialize};
use wfms_engine::Event;
use wfms_model::{Container, ProcessDefinition};
use wfms_server::api::{StatusResponse, SubmitRequest};
use wfms_server::tenant::TenantSpec;

/// The tenants file as `fmtm serve --tenants` reads it.
#[derive(Debug, Deserialize)]
struct TenantsFile {
    #[allow(dead_code)]
    tenants: Vec<TenantSpec>,
}

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `text` read as a `T` both ways: `Ok(Some(value))` when both read the
/// same value, `Ok(None)` when both refuse it.
fn agree_on_read<T: Deserialize + Debug>(text: &str) -> Result<Option<T>, String> {
    let streamed = serde_json::from_str::<T>(text);
    let walked = serde_json::from_str::<Content>(text)
        .map_err(|e| e.to_string())
        .and_then(|tree| T::from_content(&tree).map_err(|e| e.to_string()));
    let name = std::any::type_name::<T>();
    match (streamed, walked) {
        (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => Ok(Some(a)),
        (Err(_), Err(_)) => Ok(None),
        (a, b) => Err(format!(
            "{name} from {text:?}:\n  streamed {a:?}\n  walked   {b:?}"
        )),
    }
}

/// `value` written both ways, compact and pretty, to the same bytes.
fn agree_on_write<T: Serialize + Debug>(value: &T) -> Result<(), String> {
    let tree = value.to_content();
    let compact = (serde_json::to_string(value), serde_json::to_string(&tree));
    let pretty = (
        serde_json::to_string_pretty(value),
        serde_json::to_string_pretty(&tree),
    );
    for (streamed, walked) in [compact, pretty] {
        let (streamed, walked) = (
            streamed.map_err(|e| e.to_string())?,
            walked.map_err(|e| e.to_string())?,
        );
        if streamed != walked {
            return Err(format!(
                "{value:?} written:\n  streamed {streamed}\n  walked   {walked}"
            ));
        }
    }
    Ok(())
}

fn agree_as<T: Deserialize + Serialize + Debug>(text: &str) -> Result<bool, String> {
    match agree_on_read::<T>(text)? {
        Some(value) => agree_on_write(&value).map(|()| true),
        None => Ok(false),
    }
}

/// Every shape on `text`; which of them read it.
fn agree_on(text: &str) -> Result<[bool; 6], String> {
    Ok([
        agree_as::<Event>(text)?,
        agree_as::<ProcessDefinition>(text)?,
        agree_as::<SubmitRequest>(text)?,
        agree_as::<StatusResponse>(text)?,
        agree_as::<Container>(text)?,
        agree_on_read::<TenantsFile>(text)?.is_some(),
    ])
}

/// The base texts, each with the shape (index into [`agree_on`]'s
/// answer) it is a text of.
static TEXTS: LazyLock<Vec<(usize, String)>> = LazyLock::new(|| {
    let mut texts = Vec::new();
    let events = [
        "crates/wfms-engine/tests/fixtures/event_json_golden.jsonl",
        "crates/wfms-engine/tests/fixtures/replay_mix.dump.jsonl",
    ];
    for path in events {
        texts.extend(read(path).lines().map(|l| (0, l.to_owned())));
    }
    let mut journals: Vec<_> =
        std::fs::read_dir(root().join("crates/exotica/tests/fixtures/journal_json"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
    journals.sort();
    for path in journals {
        let text = std::fs::read_to_string(path).unwrap();
        texts.extend(text.lines().map(|l| (0, l.to_owned())));
    }
    for spec in ["examples/specs/trip.saga", "examples/specs/figure3.flex"] {
        let out = exotica::run_pipeline(&read(spec)).unwrap();
        texts.push((1, serde_json::to_string(&out.process).unwrap()));
        texts.push((1, serde_json::to_string_pretty(&out.process).unwrap()));
    }
    let mut fdl: Vec<_> = std::fs::read_dir(root().join("crates/exotica/tests/fixtures/analyzer"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "fdl"))
        .collect();
    fdl.sort();
    for path in fdl {
        if let Ok(def) = wfms_fdl::parse(&std::fs::read_to_string(path).unwrap()) {
            texts.push((1, serde_json::to_string(&def).unwrap()));
        }
    }
    let submits = [
        r#"{"process":"saga8","input":{"values":{"order":{"Int":123456}}}}"#,
        r#"{"process":"trip"}"#,
        r#"{"input":{"values":{"who":{"Str":"ann \"b\" \u00e9"},"ok":{"Bool":true},"raw":{"Bytes":[0,255]}}}}"#,
        "{}",
    ];
    texts.extend(submits.iter().map(|t| (2, (*t).to_owned())));
    let statuses = [
        r#"{"id":4321,"process":"saga8","status":"finished","version":"2ff46d6cd1ede51c","output":{"values":{"RC":{"Int":1},"order":{"Int":123456}}}}"#,
        r#"{"id":1,"process":"trip","status":"running","version":"0000000000000000","output":{"values":{}}}"#,
    ];
    texts.extend(statuses.iter().map(|t| (3, (*t).to_owned())));
    let containers = [
        r#"{"values":{"b":{"Int":-9223372036854775808},"a":{"Str":"x\ny"},"c":{"Int":2},"a":{"Int":3}}}"#,
        r#"{"values":{}}"#,
    ];
    texts.extend(containers.iter().map(|t| (4, (*t).to_owned())));
    let tenants = [
        r#"{"tenants":[{"name":"acme","key":"k-acme","weight":3},{"name":"beta","key":"k-beta","max_inflight":8}]}"#,
        r#"{"tenants":[]}"#,
    ];
    texts.extend(tenants.iter().map(|t| (5, (*t).to_owned())));
    texts
});

fn nest(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

/// Every base text reads as its shape, and each shape reads the same
/// on both paths from every text.
#[test]
fn the_fixtures_read_and_write_the_same_both_ways() {
    let texts = &*TEXTS;
    assert!(texts.len() > 500, "{} texts", texts.len());
    for (shape, text) in texts {
        let read = agree_on(text).unwrap_or_else(|e| panic!("{e}"));
        assert!(read[*shape], "shape {shape} does not read {text}");
    }
    // The event golden is compact output: written straight, each line
    // is itself.
    for line in read("crates/wfms-engine/tests/fixtures/event_json_golden.jsonl").lines() {
        let event: Event = serde_json::from_str(line).unwrap();
        assert_eq!(serde_json::to_string(&event).unwrap(), line);
    }
}

/// Nesting deeper than 512 is refused on both paths — in a field that
/// is read, in an unknown field that is skipped, and under a repeated
/// key — and 512 deep is not.
#[test]
fn nesting_past_512_is_refused_where_read_and_where_skipped() {
    for depth in [510, 511, 512, 513, 600, 10_000] {
        let deep = nest(depth, "1");
        let texts = [
            format!(r#"{{"process":"p","input":{deep}}}"#),
            format!(r#"{{"process":"p","unknown":{deep}}}"#),
            format!(r#"{{"process":"p","process":{deep}}}"#),
            format!(r#"{{"values":{{"x":{{"Bytes":{deep}}}}}}}"#),
            format!(r#"{{"tenants":[],"x":{deep}}}"#),
            format!(r#"{{"InstanceFinished":{{"instance":1,"extra":{deep}}}}}"#),
            deep.clone(),
        ];
        for text in &texts {
            agree_on(text).unwrap_or_else(|e| panic!("{e}"));
        }
        let skipped: Result<SubmitRequest, _> = serde_json::from_str(&texts[1]);
        assert_eq!(skipped.is_ok(), depth < 512, "depth {depth}");
    }
}

const TOKENS: &[&str] = &[
    "\"",
    "\\",
    "\\u12",
    "\\ud800",
    "\\q",
    ",",
    ":",
    "{",
    "}",
    "[",
    "]",
    "null",
    " ",
    "\n",
    "\"\\u0041\"",
    "x",
    "-",
    "0",
    ".5",
    "é",
    "1e5",
    "tru",
];

const KEYS: &[&str] = &[
    "instance",
    "process",
    "input",
    "values",
    "output",
    "id",
    "status",
    "version",
    "tenants",
    "name",
    "key",
    "weight",
    "max_inflight",
    "Int",
    "Str",
    "Bool",
    "at",
    "path",
    "attempt",
    "by",
    "tenant",
    "InstanceStarted",
    "x",
    "",
];

const VALUES: &[&str] = &[
    "1",
    "-1",
    "\"s\"",
    "\"7\"",
    "null",
    "true",
    "{}",
    "[]",
    "{\"Int\":5}",
    "{\"Str\":\"x\"}",
    "\"\\u00e9\\n\\/\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800x\"",
    "1.5",
    "18446744073709551616",
    "-9223372036854775809",
    "[1,{\"a\":[]}]",
];

/// A char boundary of `text` at or after `at`.
fn boundary(text: &str, mut at: usize) -> usize {
    at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at += 1;
    }
    at
}

fn value(r: u64) -> String {
    match r % (VALUES.len() as u64 + 4) {
        n if (n as usize) < VALUES.len() => VALUES[n as usize].to_owned(),
        n => nest(510 + n as usize - VALUES.len(), "0"),
    }
}

/// One edit of `text`, chosen by `kind` and `r`.
fn mutate(text: &str, kind: usize, r: u64) -> String {
    let at = boundary(text, (r >> 16) as usize % (text.len() + 1));
    let pick = |list: &[&str]| list[(r % list.len() as u64) as usize].to_owned();
    let (head, tail) = text.split_at(at);
    match kind {
        // A stray token.
        0 => format!("{head}{}{tail}", pick(TOKENS)),
        // A few bytes gone.
        1 => {
            let end = boundary(text, at + 1 + (r % 8) as usize);
            format!("{head}{}", &text[end..])
        }
        // A key, known or not, first in the next object: it wins over
        // a later one of its name.
        2 => match tail.find('{') {
            Some(i) => {
                let key = KEYS[((r >> 8) % KEYS.len() as u64) as usize];
                let (before, after) = tail.split_at(i + 1);
                format!("{head}{before}\"{key}\":{},{after}", value(r))
            }
            None => format!("{text} "),
        },
        // A key last in the next object: a repeated one loses.
        3 => match tail.find('}') {
            Some(i) => {
                let key = KEYS[((r >> 8) % KEYS.len() as u64) as usize];
                let (before, after) = tail.split_at(i);
                format!("{head}{before},\"{key}\":{}{after}", value(r))
            }
            None => format!("{text} "),
        },
        // Trailing bytes.
        4 => format!(
            "{text}{}",
            pick(&[" ", "\n", "x", "}", "{}", " 1", "\t\r\n"])
        ),
        // A value swapped for another.
        _ => match tail.find(':') {
            Some(i) => format!("{head}{}:{}", &tail[..i], value(r)),
            None => format!("{}{text}", value(r)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn mutated_texts_read_and_write_the_same_both_ways(
        shape in 0usize..6,
        pick in any::<usize>(),
        edits in prop::collection::vec((0usize..6, any::<u64>()), 1..4),
    ) {
        // A shape first, then one of its texts: events far outnumber
        // the rest.
        let texts: Vec<&String> = TEXTS.iter().filter(|(s, _)| *s == shape).map(|(_, t)| t).collect();
        let mut text = texts[pick % texts.len()].clone();
        for (kind, r) in edits {
            text = mutate(&text, kind, r);
        }
        if let Err(e) = agree_on(&text) {
            prop_assert!(false, "{}", e);
        }
    }
}
