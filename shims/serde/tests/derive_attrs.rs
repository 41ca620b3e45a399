//! What the shim's derive and `Deserialize` took over from upstream so
//! that no crate hand-writes a codec: the three field attributes, the
//! absent-`Option` rule and `Arc<str>`. (The refusal of every other
//! attribute is the `compile_fail` doctest on the derives' re-export.)
#![cfg(feature = "derive")]

use std::sync::Arc;

use serde::{Content, Deserialize, Serialize};

fn map(entries: &[(&str, Content)]) -> Content {
    Content::Map(
        entries
            .iter()
            .map(|(k, v)| (Content::Str((*k).to_owned()), v.clone()))
            .collect(),
    )
}

fn four() -> u64 {
    4
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Spec {
    name: String,
    #[serde(default)]
    tags: Vec<String>,
    #[serde(default = "four")]
    weight: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    tenant: Option<String>,
    by: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Record {
    Started {
        id: u64,
        #[serde(skip_serializing_if = "Option::is_none")]
        tenant: Option<String>,
        #[serde(default = "four")]
        at: u64,
    },
    Stopped,
}

#[test]
fn default_fills_an_absent_field_and_a_present_one_wins() {
    let bare = Spec::from_content(&map(&[("name", Content::Str("a".into()))])).unwrap();
    assert_eq!(
        bare,
        Spec {
            name: "a".into(),
            tags: vec![],
            weight: 4,
            tenant: None,
            by: None,
        }
    );
    let full = Spec::from_content(&map(&[
        ("name", Content::Str("a".into())),
        ("tags", Content::Seq(vec![Content::Str("x".into())])),
        ("weight", Content::U64(9)),
    ]))
    .unwrap();
    assert_eq!((full.tags, full.weight), (vec!["x".to_owned()], 9));
}

#[test]
fn a_required_field_is_still_required() {
    let err = Spec::from_content(&map(&[("weight", Content::U64(1))])).unwrap_err();
    assert_eq!(err.to_string(), "missing field `name` in Spec");
    // `default` covers absence only: a present value of the wrong type
    // is refused, `null` included.
    let null_weight = map(&[
        ("name", Content::Str("a".into())),
        ("weight", Content::Null),
    ]);
    assert!(Spec::from_content(&null_weight).is_err());
}

/// A field is matched as its key arrives: the first occurrence wins,
/// and a repeated or unknown key is skipped as a value — what looking
/// the field up in the tree found.
#[test]
fn the_first_occurrence_of_a_field_wins_and_other_keys_are_skipped() {
    let tree = map(&[
        ("extra", Content::Seq(vec![Content::Null])),
        ("name", Content::Str("first".into())),
        ("weight", Content::U64(2)),
        ("name", Content::Str("second".into())),
        ("weight", Content::Str("not a number".into())),
    ]);
    let spec = Spec::from_content(&tree).unwrap();
    assert_eq!((spec.name.as_str(), spec.weight), ("first", 2));
    // A value that is not a map has no fields: every one is absent.
    assert_eq!(
        Spec::from_content(&Content::U64(1))
            .unwrap_err()
            .to_string(),
        "missing field `name` in Spec"
    );
}

#[test]
fn an_option_reads_absent_and_null_as_none_and_a_value_as_some() {
    let with = |by: Option<Content>| {
        let mut entries = vec![("name", Content::Str("a".into()))];
        entries.extend(by.map(|v| ("by", v)));
        Spec::from_content(&map(&entries)).unwrap().by
    };
    assert_eq!(with(None), None);
    assert_eq!(with(Some(Content::Null)), None);
    assert_eq!(with(Some(Content::Str("ann".into()))), Some("ann".into()));
}

#[test]
fn skip_serializing_if_drops_the_key_and_nothing_else() {
    let mut spec = Spec {
        name: "a".into(),
        tags: vec![],
        weight: 1,
        tenant: None,
        by: None,
    };
    let keys = |c: Content| match c {
        Content::Map(entries) => entries.into_iter().map(|(k, _)| k).collect::<Vec<_>>(),
        other => panic!("{other:?}"),
    };
    let strs = |names: &[&str]| -> Vec<Content> {
        names.iter().map(|n| Content::Str((*n).into())).collect()
    };
    // An unskipped `None` is written as `null`; declaration order holds.
    assert_eq!(
        keys(spec.to_content()),
        strs(&["name", "tags", "weight", "by"])
    );
    assert_eq!(spec.to_content().field("by"), Some(&Content::Null));
    spec.tenant = Some("acme".into());
    assert_eq!(
        keys(spec.to_content()),
        strs(&["name", "tags", "weight", "tenant", "by"])
    );
    assert_eq!(Spec::from_content(&spec.to_content()).unwrap(), spec);
}

#[test]
fn a_struct_variant_carries_the_attributes() {
    let bare = Record::Started {
        id: 1,
        tenant: None,
        at: 7,
    };
    assert_eq!(
        bare.to_content(),
        map(&[(
            "Started",
            map(&[("id", Content::U64(1)), ("at", Content::U64(7))])
        )])
    );
    let sparse = map(&[("Started", map(&[("id", Content::U64(1))]))]);
    assert_eq!(
        Record::from_content(&sparse).unwrap(),
        Record::Started {
            id: 1,
            tenant: None,
            at: 4,
        }
    );
    let err = Record::from_content(&map(&[("Started", map(&[]))])).unwrap_err();
    assert_eq!(err.to_string(), "missing field `id` in Record::Started");
    assert!(Record::from_content(&map(&[("Paused", map(&[]))])).is_err());
    assert_eq!(
        Record::from_content(&Content::Str("Stopped".into())).unwrap(),
        Record::Stopped
    );
}

#[test]
fn arc_str_round_trips_as_a_plain_string_and_shares_nothing() {
    let name: Arc<str> = Arc::from("Forward/T2");
    assert_eq!(name.to_content(), Content::Str("Forward/T2".into()));
    let back = <Arc<str>>::from_content(&name.to_content()).unwrap();
    assert_eq!(back, name);
    assert!(!Arc::ptr_eq(&back, &name), "equal by value, not by sharing");
    assert!(<Arc<str>>::from_content(&Content::U64(1)).is_err());
}

/// A boxed slice is a sequence both ways, and a newtype variant's
/// boxed payload renders as the payload itself.
#[test]
fn boxed_slices_and_boxed_payloads_round_trip() {
    let persons: Box<[String]> = vec!["ann".to_owned(), "bob".to_owned()].into();
    let seq = Content::Seq(vec![Content::Str("ann".into()), Content::Str("bob".into())]);
    assert_eq!(persons.to_content(), seq);
    assert_eq!(<Box<[String]>>::from_content(&seq).unwrap(), persons);
    assert!(<Box<[String]>>::from_content(&Content::Str("ann".into())).is_err());

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Held {
        Boxed(Box<Spec>),
    }
    let spec = || Spec {
        name: "a".into(),
        tags: vec![],
        weight: 1,
        tenant: None,
        by: None,
    };
    let held = Held::Boxed(Box::new(spec()));
    let content = held.to_content();
    assert_eq!(content, map(&[("Boxed", spec().to_content())]));
    assert_eq!(Held::from_content(&content).unwrap(), held);
}
