//! The organization model.
//!
//! §3.3: "the organization is described in terms of the roles,
//! hierarchical levels and persons associated with it. A person can
//! have several roles … and a role can be assigned to several
//! persons." Staff assignment resolves an activity's
//! [`StaffAssignment`](wfms_model::StaffAssignment) to the set of
//! *eligible persons*; deadline notifications go to a person's
//! manager.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One person in the organization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Person {
    /// Unique user name.
    pub name: String,
    /// Roles held (a person can have several roles).
    pub roles: Vec<String>,
    /// Hierarchical level (1 = top). Purely descriptive; notification
    /// routing uses `manager`.
    pub level: u32,
    /// The person notified when this person misses a deadline.
    pub manager: Option<String>,
    /// Currently absent (vacation, sick leave): work offered to this
    /// person is redirected to the substitute, or dropped from the
    /// offer if none is set.
    pub absent: bool,
    /// Who receives this person's work while absent. Substitution
    /// chains are followed transitively (cycle-safe).
    pub substitute: Option<String>,
}

/// The organization database the engine resolves staff against.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OrgModel {
    persons: BTreeMap<String, Person>,
}

impl OrgModel {
    /// An empty organization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a person with `roles`, level 1, no manager.
    pub fn person(mut self, name: &str, roles: &[&str]) -> Self {
        self.persons.insert(
            name.to_owned(),
            Person {
                name: name.to_owned(),
                roles: roles.iter().map(|r| r.to_string()).collect(),
                level: 1,
                manager: None,
                absent: false,
                substitute: None,
            },
        );
        self
    }

    /// Adds a person reporting to `manager` at `level`.
    pub fn person_under(mut self, name: &str, roles: &[&str], manager: &str, level: u32) -> Self {
        self.persons.insert(
            name.to_owned(),
            Person {
                name: name.to_owned(),
                roles: roles.iter().map(|r| r.to_string()).collect(),
                level,
                manager: Some(manager.to_owned()),
                absent: false,
                substitute: None,
            },
        );
        self
    }

    /// Looks up a person.
    pub fn get(&self, name: &str) -> Option<&Person> {
        self.persons.get(name)
    }

    /// True if `name` exists.
    pub fn has(&self, name: &str) -> bool {
        self.persons.contains_key(name)
    }

    /// Every person holding `role`, in name order.
    fn persons_with_role(&self, role: &str) -> Vec<&Person> {
        self.persons
            .values()
            .filter(|p| p.roles.iter().any(|r| r == role))
            .collect()
    }

    /// The manager of `name`, if any.
    pub fn manager_of(&self, name: &str) -> Option<&Person> {
        self.persons
            .get(name)
            .and_then(|p| p.manager.as_deref())
            .and_then(|m| self.persons.get(m))
    }

    /// Marks a person absent (with an optional substitute) or present.
    /// Unknown names are ignored.
    pub fn set_absent(&mut self, name: &str, absent: bool, substitute: Option<&str>) {
        if let Some(p) = self.persons.get_mut(name) {
            p.absent = absent;
            p.substitute = substitute.map(str::to_owned);
        }
    }

    /// Follows the substitution chain from `name` to a present person;
    /// `None` when the chain dead-ends in absence or a cycle.
    fn effective(&self, name: &str) -> Option<&Person> {
        let mut seen = std::collections::BTreeSet::new();
        let mut cur = self.persons.get(name)?;
        while cur.absent {
            if !seen.insert(cur.name.clone()) {
                return None; // substitution cycle among absentees
            }
            cur = self.persons.get(cur.substitute.as_deref()?)?;
        }
        Some(cur)
    }

    /// Resolves a staff assignment to the eligible person names, in
    /// name order, with absence substitution applied: absent persons
    /// are replaced by their (transitive) substitutes, and dropped if
    /// no present substitute exists. `Automatic` resolves to the empty
    /// set (the engine itself runs the activity).
    pub fn resolve(&self, staff: &wfms_model::StaffAssignment) -> Vec<String> {
        let raw: Vec<&Person> = match staff {
            wfms_model::StaffAssignment::Automatic => Vec::new(),
            wfms_model::StaffAssignment::Person(p) => self.persons.get(p).into_iter().collect(),
            wfms_model::StaffAssignment::Role(r) => self.persons_with_role(r),
        };
        let mut out: Vec<String> = raw
            .into_iter()
            .filter_map(|p| self.effective(&p.name).map(|e| e.name.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All person names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.persons.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_model::StaffAssignment;

    fn org() -> OrgModel {
        OrgModel::new()
            .person("boss", &["manager"])
            .person_under("ann", &["clerk", "teller"], "boss", 2)
            .person_under("bob", &["clerk"], "boss", 2)
    }

    #[test]
    fn role_resolution_is_sorted() {
        let o = org();
        let clerks = o.resolve(&StaffAssignment::Role("clerk".into()));
        assert_eq!(clerks, vec!["ann".to_string(), "bob".to_string()]);
        let tellers = o.resolve(&StaffAssignment::Role("teller".into()));
        assert_eq!(tellers, vec!["ann".to_string()]);
    }

    #[test]
    fn person_resolution_checks_existence() {
        let o = org();
        assert_eq!(
            o.resolve(&StaffAssignment::Person("bob".into())),
            vec!["bob".to_string()]
        );
        assert!(o
            .resolve(&StaffAssignment::Person("ghost".into()))
            .is_empty());
    }

    #[test]
    fn automatic_resolves_to_nobody() {
        assert!(org().resolve(&StaffAssignment::Automatic).is_empty());
    }

    #[test]
    fn manager_lookup() {
        let o = org();
        assert_eq!(o.manager_of("ann").unwrap().name, "boss");
        assert!(o.manager_of("boss").is_none());
        assert!(o.manager_of("ghost").is_none());
    }

    #[test]
    fn multiple_roles_per_person() {
        let o = org();
        let ann = o.get("ann").unwrap();
        assert_eq!(ann.roles.len(), 2);
        assert_eq!(ann.level, 2);
    }

    #[test]
    fn absence_redirects_to_substitute() {
        let mut o = org();
        o.set_absent("ann", true, Some("bob"));
        // ann's personal work goes to bob…
        assert_eq!(
            o.resolve(&StaffAssignment::Person("ann".into())),
            vec!["bob".to_string()]
        );
        // …and the clerk role de-duplicates (ann→bob, bob) to just bob.
        assert_eq!(
            o.resolve(&StaffAssignment::Role("clerk".into())),
            vec!["bob".to_string()]
        );
    }

    #[test]
    fn absence_without_substitute_drops_the_offer() {
        let mut o = org();
        o.set_absent("ann", true, None);
        assert!(o.resolve(&StaffAssignment::Person("ann".into())).is_empty());
        assert_eq!(
            o.resolve(&StaffAssignment::Role("teller".into())),
            Vec::<String>::new()
        );
        assert_eq!(
            o.resolve(&StaffAssignment::Role("clerk".into())),
            vec!["bob".to_string()]
        );
    }

    #[test]
    fn substitution_chains_and_cycles() {
        let mut o = org().person("carol", &["clerk"]);
        // ann → bob → carol (both absent) resolves to carol.
        o.set_absent("ann", true, Some("bob"));
        o.set_absent("bob", true, Some("carol"));
        assert_eq!(
            o.resolve(&StaffAssignment::Person("ann".into())),
            vec!["carol".to_string()]
        );
        // Close the cycle: ann → bob → ann, all absent → nobody.
        o.set_absent("bob", true, Some("ann"));
        assert!(o.resolve(&StaffAssignment::Person("ann".into())).is_empty());
        // Returning cures it.
        o.set_absent("bob", false, None);
        assert_eq!(
            o.resolve(&StaffAssignment::Person("ann".into())),
            vec!["bob".to_string()]
        );
    }
}
