//! What reads need of one shard, as of its driver's last finished step.
//!
//! A shard's engine has one owner, its driver, which holds it apart
//! from the `Shard` the reactors share and hands it to its `step` and
//! the control jobs it runs. A read — `GET /instances/:id`,
//! `GET /worklist`, a scrape's engine tallies — reads what the driver
//! published instead: after a turn's flush and before any of its
//! replies is sent, inside each control job that changes an instance
//! before that job's sink is called, and once at reopen for every
//! recovered instance. So a read waits for no navigation, sees the
//! shard as of its last finished step, and a `201`'s id is readable
//! before the `201` is sent. The slot an instance was started under is
//! recorded here once, and a completion's tenant check, on the
//! driver, compares a wire id's slot with it.
//!
//! A step publishes only what it changed: the entries of the instances
//! it started or changed, their open work items, and the tallies. The
//! lock around a shard's `Published` is held only to store or copy
//! entries: the driver reads the engine first, and a read copies what
//! it needs out — an `Arc` bump, not a build.

use std::collections::BTreeMap;
use std::sync::Arc;

use txn_substrate::frame::Name;
use wfms_engine::{CompiledProcess, Instance, InstanceId, InstanceStatus, WorkItem};
use wfms_model::Container;

/// Entries per chunk of the instance table: 128 KiB a chunk, the size
/// from which glibc maps an allocation apart from its heap. A chunk
/// lives as long as the shard, and one inside the heap would keep the
/// memory freed below it from going back to the system.
const CHUNK: usize = 4096;

/// The slot of an instance no wire id reaches: its journalled tenant
/// has no pinned slot.
pub(crate) const UNOWNED: u16 = u16::MAX;

/// One instance as reads see it, in 32 bytes: the template and the
/// output are the engine's own `Arc`s, shared, not copied.
#[derive(Clone)]
pub(crate) struct Entry {
    pub(crate) tpl: Arc<CompiledProcess>,
    pub(crate) output: Container,
    /// The tenant slot it was started under; 0 when untenanted.
    pub(crate) slot: u16,
    pub(crate) status: InstanceStatus,
}

impl Entry {
    /// `inst` as it stands, started under `slot`.
    pub(crate) fn of(inst: &Instance, slot: u16) -> Entry {
        Entry {
            tpl: Arc::clone(&inst.tpl),
            output: inst.root_output().clone(),
            slot,
            status: inst.status,
        }
    }
}

/// Where instance `id` sits in the table, `(chunk, index)`: none for 0.
fn place(id: u64) -> Option<(usize, usize)> {
    let at = usize::try_from(id).ok()?.checked_sub(1)?;
    Some((at / CHUNK, at % CHUNK))
}

/// What reads need of one shard (see the module docs).
#[derive(Default)]
pub(crate) struct Published {
    /// Instance `id` at `[(id − 1) / CHUNK][(id − 1) % CHUNK]`: local ids
    /// are dense, and each chunk is allocated once at its full size, so
    /// an append copies no entry.
    instances: Vec<Vec<Entry>>,
    /// The open work items of each instance that has one, in id order:
    /// a step replaces the lists of the instances it changed, and no
    /// other.
    items: BTreeMap<InstanceId, Vec<Arc<WorkItem>>>,
    /// [`wfms_engine::Engine::tallies`].
    pub(super) tallies: [(&'static str, u64); 9],
}

impl Published {
    /// Instance `id`, if it is published: none for 0, nor past the last.
    pub(super) fn instance(&self, id: u64) -> Option<&Entry> {
        let (chunk, at) = place(id)?;
        self.instances.get(chunk)?.get(at)
    }

    /// `(running, finished, cancelled)`.
    pub(super) fn instance_counts(&self) -> (u64, u64, u64) {
        let t = &self.tallies;
        (t[0].1, t[1].1, t[2].1)
    }

    /// The open items on `person`'s worklist, each with the slot its
    /// instance was started under: `Arc` bumps, built into replies by
    /// the caller.
    pub(super) fn worklist(&self, person: Name) -> Vec<(Arc<WorkItem>, u16)> {
        let mut out = Vec::new();
        for (id, items) in &self.items {
            let slot = self.instance(id.0).map_or(UNOWNED, |e| e.slot);
            let visible = items.iter().filter(|it| it.visible_to(person));
            out.extend(visible.map(|it| (Arc::clone(it), slot)));
        }
        out
    }

    /// Stores `entry` as the next instance's, `id`, started under its
    /// slot. Any other id is not stored: only a step that unwound leaves
    /// one unpublished, and its engine is gone with it.
    pub(super) fn append(&mut self, id: InstanceId, entry: Entry) {
        let len = self.instances.len().saturating_sub(1) * CHUNK
            + self.instances.last().map_or(0, Vec::len);
        if id.0.checked_sub(1) != Some(len as u64) {
            return;
        }
        if len.is_multiple_of(CHUNK) {
            self.instances.push(Vec::with_capacity(CHUNK));
        }
        let chunk = self.instances.last_mut().expect("a chunk with room");
        chunk.push(entry);
    }

    /// Stores all of `entry` but its slot over published instance `id`'s:
    /// the slot stays the one it was started under. An unpublished id is
    /// not stored, so no instance is ever recorded under a slot it was
    /// not started under.
    pub(super) fn update(&mut self, id: InstanceId, entry: Entry) {
        let place = place(id.0);
        if let Some(old) = place.and_then(|(chunk, at)| self.instances.get_mut(chunk)?.get_mut(at))
        {
            *old = Entry {
                slot: old.slot,
                ..entry
            };
        }
    }

    /// Stores `items` as instance `id`'s open work items.
    pub(super) fn set_items(&mut self, id: InstanceId, items: Vec<Arc<WorkItem>>) {
        if items.is_empty() {
            self.items.remove(&id);
        } else {
            self.items.insert(id, items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Entry, Published, CHUNK};
    use std::sync::Arc;
    use wfms_engine::{CompiledProcess, Instance, InstanceId, InstanceStatus};
    use wfms_model::ProcessBuilder;

    /// Ids fill the table in order across chunk boundaries; an update
    /// replaces all but the slot, and never appends; nothing answers for
    /// 0, past the last id or for an id that skips one.
    #[test]
    fn an_entry_is_found_by_its_id_and_keeps_its_slot() {
        let def = ProcessBuilder::new("one")
            .program("A", "ok")
            .build()
            .unwrap();
        let tpl = Arc::new(CompiledProcess::compile(def));
        let entry =
            |id: u64, slot| Entry::of(&Instance::new(InstanceId(id), Arc::clone(&tpl)), slot);
        assert_eq!(std::mem::size_of::<Entry>(), 32);
        let mut published = Published::default();
        let last = 2 * CHUNK as u64 + 1;
        for id in 1..=last {
            published.append(InstanceId(id), entry(id, (id % 7) as u16));
        }
        for id in [1, CHUNK as u64, CHUNK as u64 + 1, last] {
            assert_eq!(
                published.instance(id).map(|e| e.slot),
                Some((id % 7) as u16)
            );
        }
        for id in [0, last + 1, u64::MAX] {
            assert!(published.instance(id).is_none(), "{id}");
        }
        published.append(InstanceId(last + 2), entry(last + 2, 1));
        assert!(published.instance(last + 2).is_none(), "a skipped id");
        published.update(InstanceId(last + 1), entry(last + 1, 0));
        assert!(published.instance(last + 1).is_none(), "an update appends");

        let mut finished = entry(CHUNK as u64, 6);
        finished.status = InstanceStatus::Finished;
        published.update(InstanceId(CHUNK as u64), finished);
        let read = published.instance(CHUNK as u64).unwrap();
        let slot = (CHUNK as u64 % 7) as u16;
        assert_eq!((read.status, read.slot), (InstanceStatus::Finished, slot));
    }
}
