//! The name-ordered container against the map it replaced.
//!
//! Random sequences of operations run on a [`Container`] and on a
//! `BTreeMap` kept only here, and after every step the two agree:
//! members, order and length, and every rendering a container has — its
//! JSON body, its journal bytes and its `Debug` text — is the one the
//! `BTreeMap` form gave. A clone taken before each step keeps what it
//! held (copy-on-write never writes through a shared map), and a journal
//! map written out of name order or with a name twice reads back as
//! collecting it into the `BTreeMap` does.

use proptest::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use txn_substrate::frame::{
    decode_file, encode_frame, file_bytes, put_str, put_u64, put_value, Field, Reader, Record,
    FILE_HEADER_LEN,
};
use txn_substrate::Value;
use wfms_model::Container;

/// The map a container was before it was a name-ordered allocation.
type Oracle = BTreeMap<Arc<str>, Value>;

/// The shape `Container`'s JSON had over the `BTreeMap`.
#[derive(Serialize)]
struct OracleJson {
    values: Oracle,
}

/// One step of a sequence; the lists may name a member twice.
#[derive(Debug, Clone)]
enum Op {
    Set(String, Value),
    Merge(Vec<(String, Value)>),
    Overlay(Vec<(String, Value)>),
    Collect(Vec<(String, Value)>),
}

/// Few names, so that lists collide with each other and themselves.
const NAMES: [&str; 7] = ["RC", "a", "ab", "b", "order", "z", "zz"];

fn name() -> impl Strategy<Value = String> {
    (0..NAMES.len()).prop_map(|i| NAMES[i].to_owned())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-2i64..3).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[xy]{0,2}".prop_map(Value::Str),
    ]
}

fn members() -> impl Strategy<Value = Vec<(String, Value)>> {
    prop::collection::vec((name(), value()), 0..9)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (name(), value()).prop_map(|(n, v)| Op::Set(n, v)),
        members().prop_map(Op::Merge),
        members().prop_map(Op::Overlay),
        members().prop_map(Op::Collect),
    ]
}

fn oracle_of(members: &[(String, Value)]) -> Oracle {
    members
        .iter()
        .map(|(n, v)| (Arc::from(n.as_str()), v.clone()))
        .collect()
}

fn container_of(members: &[(String, Value)]) -> Container {
    members
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect()
}

/// Applies `op` to both.
fn apply(op: &Op, c: &mut Container, o: &mut Oracle) {
    match op {
        Op::Set(name, value) => {
            c.set(name, value.clone());
            o.insert(name.as_str().into(), value.clone());
        }
        Op::Merge(members) => {
            c.merge(&container_of(members));
            o.extend(oracle_of(members));
        }
        Op::Overlay(members) => {
            c.overlay(&container_of(members));
            for (name, value) in oracle_of(members) {
                if let Some(slot) = o.get_mut(&name) {
                    *slot = value;
                }
            }
        }
        Op::Collect(members) => {
            *c = container_of(members);
            *o = oracle_of(members);
        }
    }
}

/// A journal frame holding one map, written by [`put_map`] and read by
/// `Reader::shared_params`.
#[derive(Debug)]
struct MapRecord(Container);

impl Record for MapRecord {
    const HEADER: [u8; FILE_HEADER_LEN] = *b"MAPT\x01";
    const NAME: &'static str = "map test log";

    fn not_this_log(path: &Path) -> String {
        path.display().to_string()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_map(out, self.0.iter());
    }

    fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
        Ok(Self(Container::from_params(r.shared_params()?)))
    }

    fn is_checkpoint(&self) -> bool {
        false
    }
}

/// The journal's encoding of a map: a count, then each name and value.
fn put_map<'a>(out: &mut Vec<u8>, members: impl IntoIterator<Item = (&'a str, &'a Value)>) {
    let members: Vec<_> = members.into_iter().collect();
    put_u64(out, members.len() as u64);
    for (name, value) in members {
        put_str(out, name);
        put_value(out, value);
    }
}

fn journal_bytes<'a>(members: impl IntoIterator<Item = (&'a str, &'a Value)>) -> Vec<u8> {
    let mut out = Vec::new();
    put_map(&mut out, members);
    out
}

/// The container and the oracle are the same map, in every form.
fn agree(c: &Container, o: &Oracle) -> Result<(), TestCaseError> {
    prop_assert_eq!(c.len(), o.len());
    prop_assert_eq!(c.is_empty(), o.is_empty());
    let listed: Vec<(&str, &Value)> = c.iter().collect();
    let expected: Vec<(&str, &Value)> = o.iter().map(|(n, v)| (&**n, v)).collect();
    prop_assert_eq!(listed, expected);
    for name in NAMES {
        prop_assert_eq!(c.get(name), o.get(name));
        prop_assert_eq!(c.has(name), o.contains_key(name));
        prop_assert_eq!(c.params().contains_key(name), o.contains_key(name));
        if let Some(value) = o.get(name) {
            prop_assert_eq!(&c.params()[name], value);
        }
    }
    prop_assert!(c.params().keys().map(|n| &**n).eq(o.keys().map(|n| &**n)));

    prop_assert_eq!(
        serde_json::to_string(c).unwrap(),
        serde_json::to_string(&OracleJson { values: o.clone() }).unwrap()
    );
    prop_assert_eq!(format!("{c:?}"), format!("Container {{ values: {o:?} }}"));
    prop_assert_eq!(
        journal_bytes(c.iter()),
        journal_bytes(o.iter().map(|(n, v)| (&**n, v)))
    );
    if o.is_empty() {
        prop_assert!(txn_substrate::Params::ptr_eq(
            c.params(),
            Container::empty().params()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every step leaves the container and the oracle equal, and the
    /// clone taken before it unchanged.
    #[test]
    fn a_container_behaves_as_the_btreemap_it_replaced(ops in prop::collection::vec(op(), 1..12)) {
        let (mut c, mut o) = (Container::empty(), Oracle::new());
        for op in &ops {
            let (before, before_oracle) = (c.clone(), o.clone());
            apply(op, &mut c, &mut o);
            agree(&c, &o)?;
            agree(&before, &before_oracle)?;
        }
    }

    /// `FromIterator`, JSON and the journal read the last of two
    /// members with one name, in any arrival order, as the `BTreeMap`.
    #[test]
    fn every_reader_keeps_the_last_of_a_name(members in members()) {
        let o = oracle_of(&members);
        agree(&container_of(&members), &o)?;

        let body = format!(
            "{{\"values\":{{{}}}}}",
            members
                .iter()
                .map(|(n, v)| format!("{:?}:{}", n, serde_json::to_string(v).unwrap()))
                .collect::<Vec<_>>()
                .join(",")
        );
        agree(&serde_json::from_str::<Container>(&body).unwrap(), &o)?;

        // Written as they come — out of order, a name twice — then
        // written as the encoder writes them.
        let arrived = Raw(journal_bytes(members.iter().map(|(n, v)| (n.as_str(), v))));
        let mut file = file_bytes(&[arrived]);
        encode_frame(&MapRecord(container_of(&members)), &mut file);
        let decoded = decode_file::<MapRecord>(&file).unwrap().records;
        prop_assert_eq!(decoded.len(), 2);
        agree(&decoded[0].0, &o)?;
        agree(&decoded[1].0, &o)?;
    }
}

/// A payload written as it is.
struct Raw(Vec<u8>);

impl Record for Raw {
    const HEADER: [u8; FILE_HEADER_LEN] = MapRecord::HEADER;
    const NAME: &'static str = MapRecord::NAME;

    fn not_this_log(path: &Path) -> String {
        MapRecord::not_this_log(path)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(_: &mut Reader<'_, '_>) -> Field<Self> {
        unreachable!("only encoded")
    }

    fn is_checkpoint(&self) -> bool {
        false
    }
}
