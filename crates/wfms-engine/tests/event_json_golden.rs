//! The JSON rendering of every journal record kind, pinned byte for
//! byte: `fixtures/event_json_golden.jsonl` holds one line per value
//! of [`samples`], in order. Serialising a sample must give its line
//! and parsing the line must give the sample back, so a change to how
//! the JSON codec is produced (hand-written, derived) cannot move a
//! byte of `fmtm journal dump` or refuse a line `fmtm journal upgrade`
//! used to read. A new `Event` variant adds a sample and its line.

use wfms_engine::{
    ActState, ActivityRt, Checkpoint, Event, InstanceId, InstanceSnapshot, InstanceStatus,
    ScopeState, WorkItem, WorkItemId, WorkItemState,
};
use wfms_model::Container;

const GOLDEN: &str = include_str!("fixtures/event_json_golden.jsonl");

fn container(members: &[(&str, i64)]) -> Container {
    members.iter().map(|&(n, v)| (n, v.into())).collect()
}

/// A snapshot whose root scope has a finished block activity with its
/// child scope still open, and one ready activity.
fn snapshot(id: u64, tenant: Option<&str>) -> InstanceSnapshot {
    let child = ScopeState {
        activities: vec![ActivityRt {
            state: ActState::Terminated,
            executed: true,
            attempt: 1,
            input: container(&[("n", 2)]),
            output: container(&[("RC", 1)]),
            ready_since: Some(4),
            notified: true,
        }],
        connectors: vec![],
        input: container(&[("n", 2)]),
        output: container(&[("RC", 1)]),
        children: vec![],
    };
    InstanceSnapshot {
        id: InstanceId(id),
        process: "trip".into(),
        tenant: tenant.map(Into::into),
        status: InstanceStatus::Running,
        version: "00c0ffee00c0ffee".into(),
        root: ScopeState {
            activities: vec![
                ActivityRt {
                    state: ActState::Running,
                    ..ActivityRt::new()
                },
                ActivityRt {
                    state: ActState::Ready,
                    ready_since: Some(6),
                    ..ActivityRt::new()
                },
            ],
            connectors: vec![Some(true), None, Some(false)],
            input: container(&[("budget", 900)]),
            output: Container::empty(),
            children: vec![(0, child)],
        },
    }
}

fn item(id: u64, state: WorkItemState) -> WorkItem {
    WorkItem {
        id: WorkItemId(id),
        instance: InstanceId(3),
        path: "Approve".into(),
        attempt: 0,
        offered_to: vec!["ann".into(), "bob".into()],
        state,
        offered_at: 6,
    }
}

fn samples() -> Vec<Event> {
    let instance = InstanceId(3);
    vec![
        Event::InstanceStarted {
            instance,
            process: "trip".into(),
            tenant: None,
            input: container(&[("budget", 900)]),
            at: 0,
        },
        Event::InstanceStarted {
            instance: InstanceId(4),
            process: "trip".into(),
            tenant: Some("acme".into()),
            input: Container::empty(),
            at: 1,
        },
        Event::ActivityReady {
            instance,
            path: "Forward/T2".into(),
            attempt: 0,
            at: 2,
        },
        Event::ActivityStarted {
            instance,
            path: "Forward/T2".into(),
            attempt: 0,
            by: None,
            input: container(&[("n", 2)]),
            at: 3,
        },
        Event::ActivityStarted {
            instance,
            path: "Approve".into(),
            attempt: 1,
            by: Some("ann".into()),
            input: Container::empty(),
            at: 4,
        },
        Event::ActivityFinished {
            instance,
            path: "Forward/T2".into(),
            attempt: 0,
            output: container(&[("RC", 1), ("seats", -2)]),
            at: 5,
        },
        Event::ActivityRescheduled {
            instance,
            path: "Forward/T2".into(),
            next_attempt: 1,
            at: 6,
        },
        Event::ActivityTerminated {
            instance,
            path: "Forward/T3".into(),
            executed: false,
            at: 7,
        },
        Event::ConnectorEvaluated {
            instance,
            scope: "Forward".into(),
            from: "T2".into(),
            to: "T3".into(),
            value: false,
            at: 8,
        },
        Event::ConnectorEvaluated {
            instance,
            scope: "".into(),
            from: "Forward".into(),
            to: "Approve".into(),
            value: true,
            at: 9,
        },
        Event::WorkItemOffered {
            instance,
            path: "Approve".into(),
            item: WorkItemId(11),
            persons: Box::new(["ann".into(), "bob".into()]),
            at: 10,
        },
        Event::WorkItemClaimed {
            item: WorkItemId(11),
            person: "ann".into(),
            at: 11,
        },
        Event::NotificationSent {
            instance,
            path: "Approve".into(),
            person: "boss \"the\" manager".into(),
            at: 12,
        },
        Event::UserIntervention {
            instance,
            path: "Approve".into(),
            action: "force-finish".into(),
            at: 13,
        },
        Event::InstanceFinished {
            instance,
            output: container(&[("RC", 1)]),
            at: 14,
        },
        Event::InstanceCancelled {
            instance: InstanceId(4),
            at: 15,
        },
        Event::TemplateDeployed {
            process: "trip".into(),
            version: "00c0ffee00c0ffee".into(),
            at: 16,
        },
        Event::Migrated {
            instance,
            from: "00c0ffee00c0ffee".into(),
            to: "0123456789abcdef".into(),
            at: 17,
        },
        Event::EngineCheckpoint(Box::new(Checkpoint {
            instances: vec![snapshot(3, Some("acme")), snapshot(5, None)],
            items: vec![
                item(11, WorkItemState::Offered),
                item(12, WorkItemState::Claimed("bob".into())),
            ],
            next_instance: 6,
            next_item: 13,
            at: 18,
        })),
        Event::EngineCheckpoint(Box::new(Checkpoint {
            instances: vec![],
            items: vec![],
            next_instance: 1,
            next_item: 1,
            at: 19,
        })),
    ]
}

#[test]
fn every_record_kind_renders_the_golden_bytes_and_parses_back() {
    let samples = samples();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), samples.len(), "one golden line per sample");
    for (event, line) in samples.iter().zip(lines) {
        assert_eq!(serde_json::to_string(event).unwrap(), line);
        let parsed: Event = serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&parsed, event, "{line}");
    }
}
