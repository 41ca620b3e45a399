//! The journal's payloads: [`Event`] as a [`Record`] of the
//! substrate's log.
//!
//! The file header (`"WFJL"`, version 2; version 1 is still read), the
//! checksummed frame around each group commit, the torn-tail rule and
//! the primitives below (varints, strings, names, options,
//! [`Value`](txn_substrate::Value)s) are [`txn_substrate::frame`]'s;
//! `docs/recovery.md` describes a journal file byte by byte. This module
//! says only what one event is inside a frame:
//!
//! ```text
//! event := tag:u8 field*          (tags 1..=16)
//! ```
//!
//! Fields are written in declaration order with no names; sequences
//! and containers as a varint count plus the items. The fields that
//! name something — activity path, scope, connector `from`/`to`,
//! process, version, tenant and user — are frame-local names
//! (`frame::put_name`): spelled out once per frame, an index after
//! that. An `InstanceStarted` opens a frame, so an instance that starts
//! and finishes between two flushes is one frame however many others
//! the flush covers. Container members and values, and free text such as an
//! intervention's action, are plain strings, so equal containers keep
//! equal bytes in every frame. Each of those fields is a
//! [`Name`](txn_substrate::frame::Name) in memory: the encoder finds it
//! in the frame's table by its handle, and decoding interns a name once
//! per pass and shares one allocation per distinct encoded container
//! across the whole file (`Reader::name`, `Reader::shared_params`).

use crate::event::{Checkpoint, Event, InstanceId, InstanceSnapshot, WorkItemId};
use crate::state::{ActState, ActivityRt, InstanceStatus, ScopeState};
use crate::worklist::{WorkItem, WorkItemState};
use std::path::Path;
use txn_substrate::frame::{
    put_name, put_opt, put_str, put_u64, put_value, Field, Name, Names, Reader, Record,
    FILE_HEADER_LEN,
};
use wfms_model::Container;

/// Nesting bound for checkpointed scope trees (blocks within blocks);
/// deeper input is refused rather than recursed into.
const MAX_SCOPE_DEPTH: u32 = 128;

impl Record for Event {
    const HEADER: [u8; FILE_HEADER_LEN] = *b"WFJL\x02";
    const NAME: &'static str = "journal";

    fn not_this_log(path: &Path) -> String {
        format!(
            "{0} is not a binary journal; a JSON-lines journal written before the \
             binary format is converted once with `fmtm journal upgrade {0}`",
            path.display()
        )
    }

    fn encode(&self, out: &mut Vec<u8>, names: &mut Names) {
        Out { out, names }.event(self);
    }

    fn decode(r: &mut Reader<'_, '_>) -> Field<Self> {
        event(r)
    }

    fn is_checkpoint(&self) -> bool {
        matches!(self, Event::EngineCheckpoint(_))
    }

    /// An instance's events start a frame: the bytes of a run do not
    /// depend on how many instances a flush happened to cover.
    fn opens_frame(&self) -> bool {
        matches!(self, Event::InstanceStarted { .. })
    }
}

// ---- encoding --------------------------------------------------------

/// A frame's payload being written, and the names it holds so far.
struct Out<'a> {
    out: &'a mut Vec<u8>,
    names: &'a mut Names,
}

fn put_container(out: &mut Vec<u8>, c: &Container) {
    put_u64(out, c.len() as u64);
    for (name, value) in c.iter() {
        put_str(out, name);
        put_value(out, value);
    }
}

fn put_scope(out: &mut Vec<u8>, s: &ScopeState) {
    put_u64(out, s.activities.len() as u64);
    for a in &s.activities {
        out.push(match a.state {
            ActState::Waiting => 0,
            ActState::Ready => 1,
            ActState::Running => 2,
            ActState::Finished => 3,
            ActState::Terminated => 4,
        });
        out.push(a.executed as u8);
        put_u64(out, a.attempt as u64);
        put_container(out, &a.input);
        put_container(out, &a.output);
        put_opt(out, &a.ready_since, |out, t| put_u64(out, *t));
        out.push(a.notified as u8);
    }
    put_u64(out, s.connectors.len() as u64);
    for c in &s.connectors {
        out.push(match c {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    put_container(out, &s.input);
    put_container(out, &s.output);
    put_u64(out, s.children.len() as u64);
    for (act, child) in &s.children {
        put_u64(out, *act as u64);
        put_scope(out, child);
    }
}

impl Out<'_> {
    fn name(&mut self, name: Name) {
        put_name(self.out, self.names, name);
    }

    fn opt_name(&mut self, name: Option<Name>) {
        self.out.push(name.is_some() as u8);
        if let Some(name) = name {
            self.name(name);
        }
    }

    fn names(&mut self, names: &[Name]) {
        put_u64(self.out, names.len() as u64);
        for &name in names {
            self.name(name);
        }
    }

    fn event(&mut self, event: &Event) {
        match event {
            Event::InstanceStarted {
                instance,
                process,
                tenant,
                input,
                at,
            } => {
                self.out.push(1);
                put_u64(self.out, instance.0);
                self.name(*process);
                self.opt_name(*tenant);
                put_container(self.out, input);
                put_u64(self.out, *at);
            }
            Event::ActivityReady {
                instance,
                path,
                attempt,
                at,
            } => {
                self.out.push(2);
                put_u64(self.out, instance.0);
                self.name(*path);
                put_u64(self.out, *attempt as u64);
                put_u64(self.out, *at);
            }
            Event::ActivityStarted {
                instance,
                path,
                attempt,
                by,
                input,
                at,
            } => {
                self.out.push(3);
                put_u64(self.out, instance.0);
                self.name(*path);
                put_u64(self.out, *attempt as u64);
                self.opt_name(*by);
                put_container(self.out, input);
                put_u64(self.out, *at);
            }
            Event::ActivityFinished {
                instance,
                path,
                attempt,
                output,
                at,
            } => {
                self.out.push(4);
                put_u64(self.out, instance.0);
                self.name(*path);
                put_u64(self.out, *attempt as u64);
                put_container(self.out, output);
                put_u64(self.out, *at);
            }
            Event::ActivityRescheduled {
                instance,
                path,
                next_attempt,
                at,
            } => {
                self.out.push(5);
                put_u64(self.out, instance.0);
                self.name(*path);
                put_u64(self.out, *next_attempt as u64);
                put_u64(self.out, *at);
            }
            Event::ActivityTerminated {
                instance,
                path,
                executed,
                at,
            } => {
                self.out.push(6);
                put_u64(self.out, instance.0);
                self.name(*path);
                self.out.push(*executed as u8);
                put_u64(self.out, *at);
            }
            Event::ConnectorEvaluated {
                instance,
                scope,
                from,
                to,
                value,
                at,
            } => {
                self.out.push(7);
                put_u64(self.out, instance.0);
                self.name(*scope);
                self.name(*from);
                self.name(*to);
                self.out.push(*value as u8);
                put_u64(self.out, *at);
            }
            Event::WorkItemOffered {
                instance,
                path,
                item,
                persons,
                at,
            } => {
                self.out.push(8);
                put_u64(self.out, instance.0);
                self.name(*path);
                put_u64(self.out, item.0);
                self.names(persons);
                put_u64(self.out, *at);
            }
            Event::WorkItemClaimed { item, person, at } => {
                self.out.push(9);
                put_u64(self.out, item.0);
                self.name(*person);
                put_u64(self.out, *at);
            }
            Event::NotificationSent {
                instance,
                path,
                person,
                at,
            } => {
                self.out.push(10);
                put_u64(self.out, instance.0);
                self.name(*path);
                self.name(*person);
                put_u64(self.out, *at);
            }
            Event::UserIntervention {
                instance,
                path,
                action,
                at,
            } => {
                self.out.push(11);
                put_u64(self.out, instance.0);
                self.name(*path);
                put_str(self.out, action);
                put_u64(self.out, *at);
            }
            Event::InstanceFinished {
                instance,
                output,
                at,
            } => {
                self.out.push(12);
                put_u64(self.out, instance.0);
                put_container(self.out, output);
                put_u64(self.out, *at);
            }
            Event::InstanceCancelled { instance, at } => {
                self.out.push(13);
                put_u64(self.out, instance.0);
                put_u64(self.out, *at);
            }
            Event::TemplateDeployed {
                process,
                version,
                at,
            } => {
                self.out.push(14);
                self.name(*process);
                self.name(*version);
                put_u64(self.out, *at);
            }
            Event::Migrated {
                instance,
                from,
                to,
                at,
            } => {
                self.out.push(15);
                put_u64(self.out, instance.0);
                self.name(*from);
                self.name(*to);
                put_u64(self.out, *at);
            }
            Event::EngineCheckpoint(checkpoint) => {
                let Checkpoint {
                    instances,
                    items,
                    next_instance,
                    next_item,
                    at,
                } = &**checkpoint;
                self.out.push(16);
                put_u64(self.out, instances.len() as u64);
                for snap in instances {
                    put_u64(self.out, snap.id.0);
                    self.name(snap.process);
                    self.opt_name(snap.tenant);
                    self.out.push(match snap.status {
                        InstanceStatus::Running => 0,
                        InstanceStatus::Finished => 1,
                        InstanceStatus::Cancelled => 2,
                    });
                    self.name(snap.version);
                    put_scope(self.out, &snap.root);
                }
                put_u64(self.out, items.len() as u64);
                for item in items {
                    put_u64(self.out, item.id.0);
                    put_u64(self.out, item.instance.0);
                    self.name(item.path);
                    put_u64(self.out, item.attempt as u64);
                    self.names(&item.offered_to);
                    match &item.state {
                        WorkItemState::Offered => self.out.push(0),
                        WorkItemState::Claimed(by) => {
                            self.out.push(1);
                            self.name(*by);
                        }
                        WorkItemState::Closed => self.out.push(2),
                    }
                    put_u64(self.out, item.offered_at);
                }
                put_u64(self.out, *next_instance);
                put_u64(self.out, *next_item);
                put_u64(self.out, *at);
            }
        }
    }
}

// ---- decoding --------------------------------------------------------

fn name(r: &mut Reader<'_, '_>) -> Field<Name> {
    r.name()
}

fn opt_name(r: &mut Reader<'_, '_>) -> Field<Option<Name>> {
    r.opt(Reader::name)
}

fn names<T: FromIterator<Name>>(r: &mut Reader<'_, '_>) -> Field<T> {
    (0..r.count()?).map(|_| r.name()).collect()
}

/// A container: one per distinct encoded map across the file.
fn container(r: &mut Reader<'_, '_>) -> Field<Container> {
    r.shared_params().map(Container::from_params)
}

fn scope(r: &mut Reader<'_, '_>, depth: u32) -> Field<ScopeState> {
    if depth > MAX_SCOPE_DEPTH {
        return Err("scope nesting too deep");
    }
    let activities = (0..r.count()?)
        .map(|_| {
            Ok(ActivityRt {
                state: match r.byte()? {
                    0 => ActState::Waiting,
                    1 => ActState::Ready,
                    2 => ActState::Running,
                    3 => ActState::Finished,
                    4 => ActState::Terminated,
                    _ => return Err("unknown activity state"),
                },
                executed: r.bool()?,
                attempt: r.u32()?,
                input: container(r)?,
                output: container(r)?,
                ready_since: r.opt(Reader::u64)?,
                notified: r.bool()?,
            })
        })
        .collect::<Field<_>>()?;
    let connectors = (0..r.count()?)
        .map(|_| match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            _ => Err("unknown connector value"),
        })
        .collect::<Field<_>>()?;
    let input = container(r)?;
    let output = container(r)?;
    let children = (0..r.count()?)
        .map(|_| Ok((r.u32()?, scope(r, depth + 1)?)))
        .collect::<Field<_>>()?;
    Ok(ScopeState {
        activities,
        connectors,
        input,
        output,
        children,
    })
}

fn snapshot(r: &mut Reader<'_, '_>) -> Field<InstanceSnapshot> {
    Ok(InstanceSnapshot {
        id: InstanceId(r.u64()?),
        process: name(r)?,
        tenant: opt_name(r)?,
        status: match r.byte()? {
            0 => InstanceStatus::Running,
            1 => InstanceStatus::Finished,
            2 => InstanceStatus::Cancelled,
            _ => return Err("unknown instance status"),
        },
        version: name(r)?,
        root: scope(r, 0)?,
    })
}

fn work_item(r: &mut Reader<'_, '_>) -> Field<WorkItem> {
    Ok(WorkItem {
        id: WorkItemId(r.u64()?),
        instance: InstanceId(r.u64()?),
        path: name(r)?,
        attempt: r.u32()?,
        offered_to: names(r)?,
        state: match r.byte()? {
            0 => WorkItemState::Offered,
            1 => WorkItemState::Claimed(name(r)?),
            2 => WorkItemState::Closed,
            _ => return Err("unknown work item state"),
        },
        offered_at: r.u64()?,
    })
}

fn event(r: &mut Reader<'_, '_>) -> Field<Event> {
    Ok(match r.byte()? {
        1 => Event::InstanceStarted {
            instance: InstanceId(r.u64()?),
            process: name(r)?,
            tenant: opt_name(r)?,
            input: container(r)?,
            at: r.u64()?,
        },
        2 => Event::ActivityReady {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            attempt: r.u32()?,
            at: r.u64()?,
        },
        3 => Event::ActivityStarted {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            attempt: r.u32()?,
            by: opt_name(r)?,
            input: container(r)?,
            at: r.u64()?,
        },
        4 => Event::ActivityFinished {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            attempt: r.u32()?,
            output: container(r)?,
            at: r.u64()?,
        },
        5 => Event::ActivityRescheduled {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            next_attempt: r.u32()?,
            at: r.u64()?,
        },
        6 => Event::ActivityTerminated {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            executed: r.bool()?,
            at: r.u64()?,
        },
        7 => Event::ConnectorEvaluated {
            instance: InstanceId(r.u64()?),
            scope: name(r)?,
            from: name(r)?,
            to: name(r)?,
            value: r.bool()?,
            at: r.u64()?,
        },
        8 => Event::WorkItemOffered {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            item: WorkItemId(r.u64()?),
            persons: names(r)?,
            at: r.u64()?,
        },
        9 => Event::WorkItemClaimed {
            item: WorkItemId(r.u64()?),
            person: name(r)?,
            at: r.u64()?,
        },
        10 => Event::NotificationSent {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            person: name(r)?,
            at: r.u64()?,
        },
        11 => Event::UserIntervention {
            instance: InstanceId(r.u64()?),
            path: name(r)?,
            action: r.string()?,
            at: r.u64()?,
        },
        12 => Event::InstanceFinished {
            instance: InstanceId(r.u64()?),
            output: container(r)?,
            at: r.u64()?,
        },
        13 => Event::InstanceCancelled {
            instance: InstanceId(r.u64()?),
            at: r.u64()?,
        },
        14 => Event::TemplateDeployed {
            process: name(r)?,
            version: name(r)?,
            at: r.u64()?,
        },
        15 => Event::Migrated {
            instance: InstanceId(r.u64()?),
            from: name(r)?,
            to: name(r)?,
            at: r.u64()?,
        },
        16 => Event::EngineCheckpoint(Box::new(Checkpoint {
            instances: (0..r.count()?).map(|_| snapshot(r)).collect::<Field<_>>()?,
            items: (0..r.count()?)
                .map(|_| work_item(r))
                .collect::<Field<_>>()?,
            next_instance: r.u64()?,
            next_item: r.u64()?,
            at: r.u64()?,
        })),
        _ => return Err("unknown event tag"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_substrate::frame::{decode_file, file_bytes, DecodeError};
    use txn_substrate::{properties, Params, Value};

    /// A decoded path is the name the process interned: one allocation
    /// per distinct path, whichever frame or file it was read from.
    #[test]
    fn decoded_paths_share_one_allocation() {
        let path = Name::new("Forward/S1");
        let ready = |n| Event::ActivityReady {
            instance: InstanceId(n),
            path,
            attempt: 0,
            at: n,
        };
        let decoded = decode_file::<Event>(&file_bytes(&[ready(1), ready(2)])).unwrap();
        let [Event::ActivityReady { path: a, .. }, Event::ActivityReady { path: b, .. }] =
            decoded.records.as_slice()
        else {
            panic!("two ready events");
        };
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert!(std::ptr::eq(a.as_str(), path.as_str()));
    }

    /// Equal encoded containers decode to one map — an instance's input
    /// and an activity's output alike — and an empty one to the shared
    /// empty map. The sharing is invisible: a write copies.
    #[test]
    fn decoded_containers_share_one_allocation() {
        let rc = |rc| -> Container { [("RC", Value::Int(rc))].into_iter().collect() };
        let finished = |n, output| Event::ActivityFinished {
            instance: InstanceId(n),
            path: "Forward/S1".into(),
            attempt: 0,
            output,
            at: n,
        };
        let events = [
            finished(1, rc(0)),
            Event::InstanceStarted {
                instance: InstanceId(2),
                process: "saga8".into(),
                tenant: None,
                input: rc(0),
                at: 2,
            },
            finished(3, rc(1)),
            finished(4, Container::empty()),
        ];
        let decoded = decode_file::<Event>(&file_bytes(&events)).unwrap();
        assert_eq!(decoded.records, events);
        let maps: Vec<&Container> = decoded
            .records
            .iter()
            .map(|e| match e {
                Event::ActivityFinished { output, .. } => output,
                Event::InstanceStarted { input, .. } => input,
                _ => unreachable!("only these were encoded"),
            })
            .collect();
        let same = |a: &Container, b: &Container| Params::ptr_eq(a.params(), b.params());
        assert!(same(maps[0], maps[1]), "equal bytes, one map");
        assert!(!same(maps[0], maps[2]), "other bytes, a map of their own");
        assert!(same(maps[3], &Container::empty()));
        let mut written = maps[0].clone();
        written.set("RC", Value::Int(7));
        assert_eq!(maps[1].get("RC"), Some(&Value::Int(0)), "copy on write");
    }

    /// A payload written as it is, for frames an encoder never writes.
    struct Raw(Vec<u8>);

    impl Record for Raw {
        const HEADER: [u8; FILE_HEADER_LEN] = Event::HEADER;
        const NAME: &'static str = "raw journal";
        fn not_this_log(path: &Path) -> String {
            path.display().to_string()
        }
        fn encode(&self, out: &mut Vec<u8>, _: &mut Names) {
            out.extend_from_slice(&self.0);
        }
        fn decode(_: &mut Reader<'_, '_>) -> Field<Self> {
            Err("written, never read")
        }
        fn is_checkpoint(&self) -> bool {
            false
        }
    }

    /// UTF-8 is checked the first time a string's bytes are seen: after
    /// an intact frame shared a path and a member name, a frame in which
    /// either is not UTF-8 is refused, at its offset.
    #[test]
    fn a_string_that_is_not_utf8_is_refused_when_first_seen() {
        let event = Event::ActivityFinished {
            instance: InstanceId(1),
            path: "Forward/S1".into(),
            attempt: 0,
            output: [("Name", Value::Int(0))].into_iter().collect(),
            at: 1,
        };
        let mut intact = Vec::new();
        event.encode(&mut intact, &mut Names::default());
        for text in ["Forward", "Name"] {
            let mut damaged = intact.clone();
            let at = damaged
                .windows(text.len())
                .position(|w| w == text.as_bytes())
                .unwrap();
            damaged[at] = 0xFF;
            let bytes = file_bytes(&[Raw(intact.clone()), Raw(damaged)]);
            let second = file_bytes(&[Raw(intact.clone())]).len();
            let err = decode_file::<Event>(&bytes).unwrap_err();
            assert!(
                matches!(&err, DecodeError::Corrupt { offset, detail }
                    if *offset == second && detail.contains("not UTF-8")),
                "{text}: {err:?}"
            );
        }
    }

    // ---- property tests ----------------------------------------------

    use proptest::prelude::*;

    /// Empty, ASCII, multi-byte, astral-plane, NUL and quote-bearing
    /// strings.
    fn text() -> BoxedStrategy<String> {
        prop::collection::vec(
            prop_oneof![
                Just('a'),
                Just('/'),
                Just('"'),
                Just('\0'),
                Just('λ'),
                Just('—'),
                Just('日'),
                Just('\u{1F600}'),
            ],
            0..6,
        )
        .prop_map(|cs| cs.into_iter().collect::<String>())
        .boxed()
    }

    /// What a name field holds: any [`text`], one 64 bytes or longer,
    /// or one path often enough that a frame names it twice.
    fn name() -> impl Strategy<Value = Name> {
        prop_oneof![
            text(),
            text(),
            text().prop_map(|s| s + &"Forward/λ".repeat(7)),
            Just("Forward/S1".to_owned()),
        ]
        .prop_map(Name::from)
    }

    fn container() -> impl Strategy<Value = Container> {
        let value = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            text().prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
            prop::collection::vec(any::<u8>(), 0..5).prop_map(Value::Bytes),
        ];
        prop::collection::vec((text(), value), 0..4).prop_map(|kv| kv.into_iter().collect())
    }

    fn scope() -> BoxedStrategy<ScopeState> {
        let activity = (
            0u8..5,
            any::<bool>(),
            any::<u32>(),
            container(),
            container(),
            prop::option::of(any::<u64>()),
            any::<bool>(),
        )
            .prop_map(
                |(state, executed, attempt, input, output, ready_since, notified)| ActivityRt {
                    state: [
                        ActState::Waiting,
                        ActState::Ready,
                        ActState::Running,
                        ActState::Finished,
                        ActState::Terminated,
                    ][state as usize],
                    executed,
                    attempt,
                    input,
                    output,
                    ready_since,
                    notified,
                },
            );
        let flat = (
            prop::collection::vec(activity, 0..3),
            prop::collection::vec(prop::option::of(any::<bool>()), 0..4),
            container(),
            container(),
        );
        let leaf = flat.prop_map(|(activities, connectors, input, output)| ScopeState {
            activities,
            connectors,
            input,
            output,
            children: Vec::new(),
        });
        leaf.boxed().prop_recursive(3, 8, 2, |inner| {
            (
                inner.clone(),
                prop::collection::vec((any::<u32>(), inner), 1..3),
            )
                .prop_map(|(mut scope, children)| {
                    scope.children = children;
                    scope
                })
        })
    }

    fn checkpoint() -> impl Strategy<Value = Event> {
        let snapshot = (
            any::<u64>(),
            name(),
            prop::option::of(name()),
            0u8..3,
            name(),
            scope(),
        )
            .prop_map(
                |(id, process, tenant, status, version, root)| InstanceSnapshot {
                    id: InstanceId(id),
                    process,
                    tenant,
                    status: [
                        InstanceStatus::Running,
                        InstanceStatus::Finished,
                        InstanceStatus::Cancelled,
                    ][status as usize],
                    version,
                    root,
                },
            );
        let state = prop_oneof![
            Just(WorkItemState::Offered),
            name().prop_map(WorkItemState::Claimed),
            Just(WorkItemState::Closed),
        ];
        let item = (
            any::<u64>(),
            any::<u64>(),
            name(),
            any::<u32>(),
            prop::collection::vec(name(), 0..3),
            state,
            any::<u64>(),
        )
            .prop_map(
                |(id, instance, path, attempt, offered_to, state, offered_at)| WorkItem {
                    id: WorkItemId(id),
                    instance: InstanceId(instance),
                    path,
                    attempt,
                    offered_to,
                    state,
                    offered_at,
                },
            );
        (
            prop::collection::vec(snapshot, 0..3),
            prop::collection::vec(item, 0..3),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(instances, items, next_instance, next_item, at)| {
                Event::EngineCheckpoint(Box::new(Checkpoint {
                    instances,
                    items,
                    next_instance,
                    next_item,
                    at,
                }))
            })
    }

    /// Any of the 16 variants, every optional field both ways.
    fn event() -> impl Strategy<Value = Event> {
        // Every variant draws the same raw material and keeps what it
        // has fields for.
        let raw = (
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<bool>()),
            (name(), name(), name()),
            prop::option::of(name()),
            container(),
            prop::collection::vec(name(), 0..3),
        );
        let plain = (0u8..15, raw).prop_map(|(variant, raw)| {
            let ((id, at, attempt, flag), (a, b, c), opt, container, persons) = raw;
            let instance = InstanceId(id);
            let path = a;
            match variant {
                0 => Event::InstanceStarted {
                    instance,
                    process: a,
                    tenant: opt,
                    input: container,
                    at,
                },
                1 => Event::ActivityReady {
                    instance,
                    path,
                    attempt,
                    at,
                },
                2 => Event::ActivityStarted {
                    instance,
                    path,
                    attempt,
                    by: opt,
                    input: container,
                    at,
                },
                3 => Event::ActivityFinished {
                    instance,
                    path,
                    attempt,
                    output: container,
                    at,
                },
                4 => Event::ActivityRescheduled {
                    instance,
                    path,
                    next_attempt: attempt,
                    at,
                },
                5 => Event::ActivityTerminated {
                    instance,
                    path,
                    executed: flag,
                    at,
                },
                6 => Event::ConnectorEvaluated {
                    instance,
                    scope: path,
                    from: b,
                    to: c,
                    value: flag,
                    at,
                },
                7 => Event::WorkItemOffered {
                    instance,
                    path,
                    item: WorkItemId(attempt as u64),
                    persons: persons.into(),
                    at,
                },
                8 => Event::WorkItemClaimed {
                    item: WorkItemId(id),
                    person: b,
                    at,
                },
                9 => Event::NotificationSent {
                    instance,
                    path,
                    person: b,
                    at,
                },
                10 => Event::UserIntervention {
                    instance,
                    path,
                    action: b.to_string(),
                    at,
                },
                11 => Event::InstanceFinished {
                    instance,
                    output: container,
                    at,
                },
                12 => Event::InstanceCancelled { instance, at },
                13 => Event::TemplateDeployed {
                    process: a,
                    version: b,
                    at,
                },
                _ => Event::Migrated {
                    instance,
                    from: b,
                    to: c,
                    at,
                },
            }
        });
        let plain = plain.boxed();
        prop_oneof![plain.clone(), plain.clone(), plain, checkpoint().boxed()]
    }

    // The properties themselves are the substrate's, shared with the
    // WAL; here they meet every event variant.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn events_round_trip(events in prop::collection::vec(event(), 0..6)) {
            properties::round_trips(&events);
        }

        #[test]
        fn byte_prefixes_decode_to_event_prefixes(events in prop::collection::vec(event(), 1..4)) {
            properties::byte_prefixes_decode_to_record_prefixes(&events);
        }

        #[test]
        fn flipped_bits_are_torn_or_corrupt_never_silent(
            events in prop::collection::vec(event(), 1..4),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            properties::flipped_bit_is_torn_or_corrupt(&events, at, bit);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Written through the log under `Batched { n }`, a frame per
        /// barrier whatever `n` is, with its names spelled once: every
        /// cut and every flipped bit keeps or loses whole frames.
        #[test]
        fn grouped_frames_keep_or_lose_whole_frames(
            events in prop::collection::vec(event(), 1..8),
            flush_after in prop::collection::vec(any::<bool>(), 8),
            n in 1usize..6,
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            properties::grouped_frames(&events, &flush_after, n, at, bit);
        }
    }

    /// A frame naming more distinct paths than the encoder's table
    /// holds spells the ones past it every time, and reads back.
    #[test]
    fn a_frame_with_more_names_than_the_table_round_trips() {
        let ready = |i: u64| Event::ActivityReady {
            instance: InstanceId(1),
            path: format!("Forward/S{}", i % 300).into(),
            attempt: 0,
            at: i,
        };
        let events: Vec<Event> = (0..600).map(ready).collect();
        let dir = std::env::temp_dir().join(format!("wfms-codec-names-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one-frame.journal");
        let _ = std::fs::remove_file(&path);
        let policy = txn_substrate::DurabilityPolicy::Batched { n: 1000 };
        let journal = crate::Journal::with_file_policy(&path, policy).unwrap();
        journal.append_batch(events.clone());
        let grouped = std::fs::read(&path).unwrap();
        assert_eq!(decode_file::<Event>(&grouped).unwrap().records, events);
        let one_each = file_bytes(&events);
        assert!(
            grouped.len() + 599 * 12 < one_each.len(),
            "one frame: {} B, a frame each: {} B",
            grouped.len(),
            one_each.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
