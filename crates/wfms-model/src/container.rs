//! Data containers: the typed variable records flowing between
//! activities.
//!
//! Every activity (and the process itself) has an **input container**
//! and an **output container** (§3.2): "a sequence of typed variables
//! and structures". A [`ContainerSchema`] declares the members; a
//! [`Container`] is the run-time instance holding values. Data
//! connectors copy members between containers; the engine materialises
//! them when an activity starts and when it terminates.

use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use txn_substrate::{Params, Value};

/// Declaration of one container member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberDecl {
    /// Member name (unique within the container).
    pub name: String,
    /// Member type.
    pub ty: DataType,
    /// Optional explicit default; when absent the type's neutral
    /// default is used.
    pub default: Option<Value>,
}

impl MemberDecl {
    /// A member with the type's neutral default.
    pub fn new(name: &str, ty: DataType) -> Self {
        Self {
            name: name.to_owned(),
            ty,
            default: None,
        }
    }

    /// A member with an explicit default value.
    pub fn with_default(name: &str, ty: DataType, default: Value) -> Self {
        Self {
            name: name.to_owned(),
            ty,
            default: Some(default),
        }
    }

    /// The value a fresh container holds for this member.
    pub fn initial_value(&self) -> Value {
        self.default
            .clone()
            .unwrap_or_else(|| self.ty.default_value())
    }
}

/// An ordered sequence of member declarations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ContainerSchema {
    /// Members in declaration order.
    pub members: Vec<MemberDecl>,
}

impl ContainerSchema {
    /// The empty schema.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a schema from `(name, type)` pairs.
    pub fn of(members: &[(&str, DataType)]) -> Self {
        Self {
            members: members
                .iter()
                .map(|(n, t)| MemberDecl::new(n, *t))
                .collect(),
        }
    }

    /// Adds a member (builder style).
    pub fn with(mut self, name: &str, ty: DataType) -> Self {
        self.members.push(MemberDecl::new(name, ty));
        self
    }

    /// Looks up a member declaration by name.
    pub fn member(&self, name: &str) -> Option<&MemberDecl> {
        self.members.iter().find(|m| m.name == name)
    }

    /// True if `name` is declared.
    pub fn has(&self, name: &str) -> bool {
        self.member(name).is_some()
    }

    /// Member names that appear more than once (a validation error).
    pub fn duplicate_names(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeMap::new();
        for m in &self.members {
            *seen.entry(m.name.clone()).or_insert(0u32) += 1;
        }
        seen.into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(name, _)| name)
            .collect()
    }

    /// Instantiates a fresh container with every member at its
    /// initial value.
    pub fn instantiate(&self) -> Container {
        self.members
            .iter()
            .map(|m| (m.name.as_str(), m.initial_value()))
            .collect()
    }
}

/// A run-time container: member name → value.
///
/// The representation is the substrate's [`Params`]: the members in
/// name order, in one allocation with their reference count, every
/// member name shared. `clone` is a reference-count bump (containers
/// flow between activities, into journal events and through data
/// connectors far more often than they are mutated). A `set` writes in
/// place when no other container shares the map and otherwise makes one
/// copy of exactly the needed size without copying a name; a `set` that
/// changes nothing copies nothing. A program is handed its activity's
/// input container as it is ([`Container::params`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Container {
    values: Params,
}

impl Default for Container {
    fn default() -> Self {
        Self::empty()
    }
}

impl Container {
    /// An empty container (no members): the one shared empty map, not
    /// an allocation.
    pub fn empty() -> Self {
        Self {
            values: txn_substrate::no_params(),
        }
    }

    /// The container over `values`, shared as it is: a decoder that
    /// builds each distinct map once hands every occurrence the same
    /// one, and copy-on-write keeps the sharing invisible.
    pub fn from_params(values: Params) -> Self {
        Self { values }
    }

    /// Reads a member.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Writes a member. The engine type-checks against the schema at
    /// mapping time; `set` itself is schema-agnostic so recovery can
    /// replay journal entries verbatim.
    pub fn set(&mut self, name: &str, value: Value) {
        self.values.set(name, value);
    }

    /// Writes every member of `from`. When `from` has every member
    /// this container has (always, for an empty one) it becomes `from`
    /// by reference count; otherwise one walk over both member lists
    /// builds the result.
    pub fn merge(&mut self, from: &Container) {
        self.values.merge(&from.values);
    }

    /// Takes `from`'s value for every member this container already
    /// has — schema discipline: members it does not declare are
    /// dropped. When both hold the same member names it becomes `from`
    /// by reference count; otherwise one walk over both member lists
    /// builds the result.
    pub fn overlay(&mut self, from: &Container) {
        self.values.overlay(&from.values);
    }

    /// True if the member exists.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Iterates members in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values.iter().map(|(name, value)| (&**name, value))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the container holds no members.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The shared map itself: what a program is handed as parameters.
    pub fn params(&self) -> &Params {
        &self.values
    }
}

/// Collects in name order; of two members with one name the later one
/// wins.
impl<N: Into<Arc<str>>> FromIterator<(N, Value)> for Container {
    fn from_iter<T: IntoIterator<Item = (N, Value)>>(iter: T) -> Self {
        Self::from_params(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_uses_defaults() {
        let schema = ContainerSchema::empty()
            .with("RC", DataType::Int)
            .with("who", DataType::Str);
        let c = schema.instantiate();
        assert_eq!(c.get("RC"), Some(&Value::Int(0)));
        assert_eq!(c.get("who"), Some(&Value::Str(String::new())));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn explicit_defaults_win() {
        let schema = ContainerSchema {
            members: vec![MemberDecl::with_default("n", DataType::Int, Value::Int(42))],
        };
        assert_eq!(schema.instantiate().get("n"), Some(&Value::Int(42)));
    }

    #[test]
    fn duplicate_names_detected() {
        let schema = ContainerSchema::empty()
            .with("a", DataType::Int)
            .with("b", DataType::Int)
            .with("a", DataType::Str);
        assert_eq!(schema.duplicate_names(), vec!["a".to_string()]);
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut c = Container::empty();
        c.set("z", Value::Int(1));
        c.set("a", Value::Int(2));
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "z"]);
    }

    /// Copy-on-write shares member names and skips writes that change
    /// nothing: the copy a `set` forces holds the very `Arc<str>`s of
    /// the original, and setting a member to its own value leaves the
    /// two containers one allocation.
    #[test]
    fn set_copies_the_map_once_and_never_a_name() {
        let proto = ContainerSchema::of(&[("RC", DataType::Int)]).instantiate();
        let mut c = proto.clone();
        c.set("RC", Value::Int(0));
        assert!(
            Params::ptr_eq(c.params(), proto.params()),
            "nothing changed"
        );
        c.set("RC", Value::Int(1));
        assert!(!Params::ptr_eq(c.params(), proto.params()));
        assert_eq!(
            proto.get("RC"),
            Some(&Value::Int(0)),
            "the original is untouched"
        );
        let name = |c: &Container| Arc::as_ptr(c.params().keys().next().unwrap());
        assert_eq!(name(&c), name(&proto));
        let slot = |c: &Container| c.get("RC").unwrap() as *const Value;
        let before = slot(&c);
        c.set("RC", Value::Int(2));
        assert_eq!(slot(&c), before, "an unshared map is written in place");
    }

    #[test]
    fn merge_writes_every_member_and_overlay_only_declared_ones() {
        let from: Container = [("a", Value::Int(1)), ("x", Value::Int(9))]
            .into_iter()
            .collect();
        let declared = ContainerSchema::of(&[("a", DataType::Int), ("b", DataType::Int)]);

        let mut merged = declared.instantiate();
        merged.merge(&from);
        assert_eq!(merged.get("a"), Some(&Value::Int(1)));
        assert_eq!(
            merged.get("x"),
            Some(&Value::Int(9)),
            "undeclared members enter"
        );
        for mut covered in [
            Container::empty(),
            ContainerSchema::of(&[("x", DataType::Int)]).instantiate(),
        ] {
            covered.merge(&from);
            assert!(
                Params::ptr_eq(covered.params(), from.params()),
                "handed over whole"
            );
        }

        let mut laid = declared.instantiate();
        laid.overlay(&from);
        assert_eq!(laid.get("a"), Some(&Value::Int(1)));
        assert_eq!(laid.get("b"), Some(&Value::Int(0)));
        assert!(!laid.has("x"), "undeclared members are dropped");
        let mut same =
            ContainerSchema::of(&[("a", DataType::Int), ("x", DataType::Int)]).instantiate();
        same.overlay(&from);
        assert!(
            Params::ptr_eq(same.params(), from.params()),
            "same names: handed over whole"
        );
    }

    #[test]
    fn from_iterator_collects() {
        let c: Container = vec![("k".to_string(), Value::Int(3))].into_iter().collect();
        assert_eq!(c.get("k"), Some(&Value::Int(3)));
        assert!(!c.is_empty());
    }

    /// `{}` parses to the shared empty map, and members survive the
    /// round trip.
    #[test]
    fn json_reads_empty_as_the_shared_map() {
        let empty: Container = serde_json::from_str(r#"{"values":{}}"#).unwrap();
        assert!(Params::ptr_eq(empty.params(), Container::empty().params()));
        let c: Container = [("k", Value::Int(3))].into_iter().collect();
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#"{"values":{"k":{"Int":3}}}"#);
        assert_eq!(serde_json::from_str::<Container>(&json).unwrap(), c);
    }

    #[test]
    fn schema_member_lookup() {
        let schema = ContainerSchema::of(&[("m", DataType::Str)]);
        assert!(schema.has("m"));
        assert!(!schema.has("n"));
        assert_eq!(schema.member("m").unwrap().ty, DataType::Str);
    }
}
