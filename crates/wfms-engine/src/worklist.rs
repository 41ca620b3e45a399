//! Worklists — how humans interact with the engine.
//!
//! §3.3: "Regular users interact with the system using worklists. A
//! worklist contains the activities that correspond to the user. Note
//! that the same activity may appear in several worklists
//! simultaneously, however, as soon as a user selects that activity
//! for execution, it disappears from all other worklists. This can be
//! effectively used to perform load balancing."
//!
//! A [`WorkItem`] is one offer of one ready manual activity. The store
//! keeps a single item per offer and materialises per-person views on
//! demand; claiming is a single atomic state change, so the
//! vanishes-from-all-other-worklists rule holds by construction.

use crate::event::{InstanceId, WorkItemId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use txn_substrate::frame::Name;

/// Lifecycle of a work item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkItemState {
    /// Visible on every eligible person's worklist.
    Offered,
    /// Claimed by one person; invisible to everyone else.
    Claimed(Name),
    /// The underlying activity completed (or was cancelled).
    Closed,
}

/// One offer of a ready manual activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkItem {
    /// Unique id.
    pub id: WorkItemId,
    /// Owning instance.
    pub instance: InstanceId,
    /// Activity path within the instance.
    pub path: Name,
    /// Attempt number of the underlying activity.
    pub attempt: u32,
    /// Persons the item is offered to.
    pub offered_to: Vec<Name>,
    /// Current state.
    pub state: WorkItemState,
    /// Tick at which the item was offered (deadline tracking).
    pub offered_at: txn_substrate::Tick,
}

impl WorkItem {
    /// True when the item is on `person`'s worklist: offered to them
    /// and not claimed by anyone else, or claimed by them but not
    /// finished.
    pub fn visible_to(&self, person: Name) -> bool {
        match self.state {
            WorkItemState::Offered => self.offered_to.contains(&person),
            WorkItemState::Claimed(p) => p == person,
            WorkItemState::Closed => false,
        }
    }
}

/// Errors from worklist operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorklistError {
    /// The item does not exist.
    NoSuchItem(WorkItemId),
    /// The person is not among the item's offerees.
    NotEligible { item: WorkItemId, person: String },
    /// Someone else already claimed the item.
    AlreadyClaimed { item: WorkItemId, by: String },
    /// The item is closed.
    Closed(WorkItemId),
}

impl std::fmt::Display for WorklistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorklistError::NoSuchItem(id) => write!(f, "{id} does not exist"),
            WorklistError::NotEligible { item, person } => {
                write!(f, "{person} is not eligible for {item}")
            }
            WorklistError::AlreadyClaimed { item, by } => {
                write!(f, "{item} already claimed by {by}")
            }
            WorklistError::Closed(id) => write!(f, "{id} is closed"),
        }
    }
}

impl std::error::Error for WorklistError {}

/// The store of all work items.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorklistStore {
    items: BTreeMap<WorkItemId, WorkItem>,
    /// The keys of `items` by owning instance: what finds an
    /// instance's items without walking everyone's.
    by_instance: BTreeSet<(InstanceId, WorkItemId)>,
    /// `items` by state, `(offered, claimed, closed)`: moved wherever a
    /// state is ([`transition`]).
    counts: (u64, u64, u64),
}

/// The tally of `state` in `(offered, claimed, closed)`.
fn count_of<'a>(counts: &'a mut (u64, u64, u64), state: &WorkItemState) -> &'a mut u64 {
    match state {
        WorkItemState::Offered => &mut counts.0,
        WorkItemState::Claimed(_) => &mut counts.1,
        WorkItemState::Closed => &mut counts.2,
    }
}

/// Moves `it` to state `to`, and the tally with it.
fn transition(counts: &mut (u64, u64, u64), it: &mut WorkItem, to: WorkItemState) {
    *count_of(counts, &it.state) -= 1;
    *count_of(counts, &to) += 1;
    it.state = to;
}

/// The keys of `instance`'s items in `WorklistStore::by_instance`.
fn of_instance(instance: InstanceId) -> std::ops::RangeInclusive<(InstanceId, WorkItemId)> {
    (instance, WorkItemId(0))..=(instance, WorkItemId(u64::MAX))
}

impl WorklistStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new offer.
    pub fn offer(&mut self, item: WorkItem) {
        *count_of(&mut self.counts, &item.state) += 1;
        self.by_instance.insert((item.instance, item.id));
        if let Some(old) = self.items.insert(item.id, item) {
            *count_of(&mut self.counts, &old.state) -= 1;
        }
    }

    /// The worklist of `person`: items offered to them and not claimed
    /// by anyone else, plus items they themselves claimed but have not
    /// finished.
    pub fn worklist(&self, person: Name) -> Vec<&WorkItem> {
        self.items
            .values()
            .filter(|it| it.visible_to(person))
            .collect()
    }

    /// Claims `item` for `person`. On success the item disappears from
    /// every other worklist (it is now `Claimed(person)`). A person no
    /// offer names is refused as not eligible, whether or not the
    /// process has interned the name.
    pub fn claim(&mut self, item: WorkItemId, person: &str) -> Result<&WorkItem, WorklistError> {
        let it = self
            .items
            .get_mut(&item)
            .ok_or(WorklistError::NoSuchItem(item))?;
        match it.state {
            WorkItemState::Closed => Err(WorklistError::Closed(item)),
            WorkItemState::Claimed(by) => Err(WorklistError::AlreadyClaimed {
                item,
                by: by.to_string(),
            }),
            WorkItemState::Offered => {
                let Some(&by) = it.offered_to.iter().find(|&p| p == person) else {
                    return Err(WorklistError::NotEligible {
                        item,
                        person: person.to_owned(),
                    });
                };
                transition(&mut self.counts, it, WorkItemState::Claimed(by));
                Ok(&*it)
            }
        }
    }

    /// Releases a claim: the item returns to `Offered` and reappears
    /// on every eligible worklist (§3.3's "stop an activity" — the
    /// person hands the work back). Only the claimer may release.
    pub fn release(&mut self, item: WorkItemId, person: &str) -> Result<&WorkItem, WorklistError> {
        let it = self
            .items
            .get_mut(&item)
            .ok_or(WorklistError::NoSuchItem(item))?;
        match it.state {
            WorkItemState::Closed => Err(WorklistError::Closed(item)),
            WorkItemState::Offered => Ok(&*it), // already released
            WorkItemState::Claimed(by) if by == person => {
                transition(&mut self.counts, it, WorkItemState::Offered);
                Ok(&*it)
            }
            WorkItemState::Claimed(by) => Err(WorklistError::AlreadyClaimed {
                item,
                by: by.to_string(),
            }),
        }
    }

    /// Closes `item` (activity completed or cancelled).
    pub fn close(&mut self, item: WorkItemId) {
        if let Some(it) = self.items.get_mut(&item) {
            transition(&mut self.counts, it, WorkItemState::Closed);
        }
    }

    /// Closes every open item for `(instance, path)` — used when an
    /// activity is force-finished or its instance is cancelled.
    pub fn close_for(&mut self, instance: InstanceId, path: Name) {
        for (_, id) in self.by_instance.range(of_instance(instance)) {
            let it = self.items.get_mut(id).expect("indexed");
            if it.path == path && it.state != WorkItemState::Closed {
                transition(&mut self.counts, it, WorkItemState::Closed);
            }
        }
    }

    /// Closes every offered (unclaimed) item of `instance` — the
    /// worklist side of a cancellation.
    pub fn close_offered_of(&mut self, instance: InstanceId) {
        for (_, id) in self.by_instance.range(of_instance(instance)) {
            let it = self.items.get_mut(id).expect("indexed");
            if it.state == WorkItemState::Offered {
                transition(&mut self.counts, it, WorkItemState::Closed);
            }
        }
    }

    /// Releases every claimed item back to `Offered`, returning how
    /// many were released. Claims are leases held by a live engine
    /// session: after a crash the claiming worker's session is gone,
    /// so recovery calls this to put claimed-but-unstarted items back
    /// on every eligible worklist instead of leaving them parked on a
    /// dead worker forever. (Items whose activity had already started
    /// are re-offered separately by the running-activity fix-up.)
    pub fn release_stale_claims(&mut self) -> usize {
        let mut released = 0;
        for it in self.items.values_mut() {
            if matches!(it.state, WorkItemState::Claimed(_)) {
                transition(&mut self.counts, it, WorkItemState::Offered);
                released += 1;
            }
        }
        released
    }

    /// Items by state, `(offered, claimed, closed)` — the worklist
    /// portion of the engine's metrics snapshot, read in constant time.
    pub fn state_counts(&self) -> (u64, u64, u64) {
        self.counts
    }

    /// Looks up an item.
    pub fn get(&self, item: WorkItemId) -> Option<&WorkItem> {
        self.items.get(&item)
    }

    /// True when `(instance, path)` has an offered or claimed item —
    /// the guard the recovery/migration fix-up uses before re-offering
    /// a `Ready` manual activity whose offer may have been lost.
    pub fn has_live_item(&self, instance: InstanceId, path: Name) -> bool {
        self.items_of(instance)
            .any(|it| it.path == path && it.state != WorkItemState::Closed)
    }

    /// The items of `instance` in every state, in id order.
    pub fn items_of(&self, instance: InstanceId) -> impl Iterator<Item = &WorkItem> {
        (self.by_instance.range(of_instance(instance))).map(|(_, id)| &self.items[id])
    }

    /// Offered and claimed items, in id order — the worklist state a
    /// checkpoint has to carry.
    pub fn live_items(&self) -> impl Iterator<Item = &WorkItem> {
        self.items
            .values()
            .filter(|it| it.state != WorkItemState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u64, offered_to: &[&str]) -> WorkItem {
        WorkItem {
            id: WorkItemId(id),
            instance: InstanceId(1),
            path: "A".into(),
            attempt: 0,
            offered_to: offered_to.iter().map(|&s| Name::new(s)).collect(),
            state: WorkItemState::Offered,
            offered_at: 0,
        }
    }

    #[test]
    fn offer_appears_on_every_eligible_worklist() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann", "bob"]));
        assert_eq!(s.worklist(Name::new("ann")).len(), 1);
        assert_eq!(s.worklist(Name::new("bob")).len(), 1);
        assert_eq!(s.worklist(Name::new("carol")).len(), 0);
    }

    #[test]
    fn claim_removes_from_other_worklists() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann", "bob"]));
        s.claim(WorkItemId(1), "ann").unwrap();
        assert_eq!(
            s.worklist(Name::new("ann")).len(),
            1,
            "claimer still sees it"
        );
        assert_eq!(s.worklist(Name::new("bob")).len(), 0, "vanished for bob");
    }

    #[test]
    fn double_claim_rejected() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann", "bob"]));
        s.claim(WorkItemId(1), "ann").unwrap();
        let err = s.claim(WorkItemId(1), "bob").unwrap_err();
        assert_eq!(
            err,
            WorklistError::AlreadyClaimed {
                item: WorkItemId(1),
                by: "ann".into()
            }
        );
    }

    #[test]
    fn ineligible_claim_rejected() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann"]));
        assert!(matches!(
            s.claim(WorkItemId(1), "mallory"),
            Err(WorklistError::NotEligible { .. })
        ));
    }

    #[test]
    fn closed_items_invisible_everywhere() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann"]));
        s.close(WorkItemId(1));
        assert!(s.worklist(Name::new("ann")).is_empty());
        assert!(matches!(
            s.claim(WorkItemId(1), "ann"),
            Err(WorklistError::Closed(_))
        ));
    }

    #[test]
    fn close_for_targets_activity() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann"]));
        let mut other = item(2, &["ann"]);
        other.path = "B".into();
        s.offer(other);
        s.close_for(InstanceId(1), "A".into());
        let remaining = s.worklist(Name::new("ann"));
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].path, "B");
    }

    #[test]
    fn release_stale_claims_reoffers_only_claimed_items() {
        let mut s = WorklistStore::new();
        s.offer(item(1, &["ann", "bob"]));
        s.offer(item(2, &["ann"]));
        let mut closed = item(3, &["ann"]);
        closed.state = WorkItemState::Closed;
        s.offer(closed);
        s.claim(WorkItemId(1), "ann").unwrap();
        assert_eq!(s.release_stale_claims(), 1);
        assert_eq!(s.get(WorkItemId(1)).unwrap().state, WorkItemState::Offered);
        assert_eq!(s.get(WorkItemId(2)).unwrap().state, WorkItemState::Offered);
        assert_eq!(s.get(WorkItemId(3)).unwrap().state, WorkItemState::Closed);
        // Bob sees the item again: the dead worker's lease is gone.
        assert_eq!(s.worklist(Name::new("bob")).len(), 1);
        assert_eq!(s.release_stale_claims(), 0);
    }

    #[test]
    fn missing_item_errors() {
        let mut s = WorklistStore::new();
        assert!(matches!(
            s.claim(WorkItemId(9), "ann"),
            Err(WorklistError::NoSuchItem(_))
        ));
        assert!(s.get(WorkItemId(9)).is_none());
    }
}
