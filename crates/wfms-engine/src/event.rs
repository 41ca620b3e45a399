//! Journal events — the engine's single source of truth.
//!
//! Every state change *is* an [`Event`]: the engine's state moves only
//! as an event's effect (`EngineState::apply`), and a running engine
//! appends the event in the same step it applies it (`emit`). Forward
//! recovery (§3.3 of the paper: "the execution of a process is
//! persistent in the sense that forward recovery is always guaranteed")
//! is then a pure replay: fold the same effects over the journal,
//! re-schedule whatever was running at the crash.
//!
//! The journal's bytes are the binary frames of `codec.rs`, the
//! one place that lists each variant's fields for a format. The JSON
//! form of an event is a derived rendering: whatever
//! `#[derive(Serialize, Deserialize)]` makes of the declarations
//! below, pinned by `tests/fixtures/event_json_golden.jsonl`.

use serde::{Deserialize, Serialize};
use txn_substrate::frame::Name;
use txn_substrate::Tick;
use wfms_model::Container;

/// Identifier of one process instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// Identifier of one work item on a worklist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkItemId(pub u64);

impl std::fmt::Display for WorkItemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// A slash-separated path to an activity inside (possibly nested)
/// blocks, e.g. `"Forward/T2"`: a [`Name`], interned when its template
/// is compiled, so an event carries it as a copied handle.
pub type ActivityPath = Name;

/// One navigation event.
///
/// On disk an event is a binary frame ([`crate::journal`]). The
/// derived serde impls are the JSON *rendering* — `fmtm journal dump`,
/// audit exports — and the reader `fmtm journal upgrade` converts old
/// JSON-lines journals with: the externally tagged `{"Variant":
/// {fields…}}`, fields in declaration order, an owning tenant written
/// only when there is one.
///
/// Every field a journal writes as a name is a [`Name`], and the one
/// large, rare payload is boxed, so an event is 56 bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A new instance of `process` started with `input`. `tenant`
    /// names the owning tenant when the server runs with tenancy
    /// enabled; library use and untenanted servers leave it `None`.
    InstanceStarted {
        instance: InstanceId,
        process: Name,
        #[serde(skip_serializing_if = "Option::is_none")]
        tenant: Option<Name>,
        input: Container,
        at: Tick,
    },
    /// An activity met its start condition (or is a start activity).
    ActivityReady {
        instance: InstanceId,
        path: ActivityPath,
        attempt: u32,
        at: Tick,
    },
    /// An activity began executing; `by` names the person for manual
    /// activities. `input` is the materialised input container.
    ActivityStarted {
        instance: InstanceId,
        path: ActivityPath,
        attempt: u32,
        by: Option<Name>,
        input: Container,
        at: Tick,
    },
    /// An activity's program (or block) completed; `output` already
    /// contains the `RC` member.
    ActivityFinished {
        instance: InstanceId,
        path: ActivityPath,
        attempt: u32,
        output: Container,
        at: Tick,
    },
    /// The exit condition evaluated false: back to ready (§3.2).
    ActivityRescheduled {
        instance: InstanceId,
        path: ActivityPath,
        next_attempt: u32,
        at: Tick,
    },
    /// Final state. `executed = false` means the activity was removed
    /// by dead path elimination without running.
    ActivityTerminated {
        instance: InstanceId,
        path: ActivityPath,
        executed: bool,
        at: Tick,
    },
    /// A control connector's transition condition was evaluated.
    ConnectorEvaluated {
        instance: InstanceId,
        /// Path prefix of the containing (sub)process, `""` at root.
        scope: Name,
        from: Name,
        to: Name,
        value: bool,
        at: Tick,
    },
    /// A manual activity was offered to the eligible persons.
    WorkItemOffered {
        instance: InstanceId,
        path: ActivityPath,
        item: WorkItemId,
        persons: Box<[Name]>,
        at: Tick,
    },
    /// A person claimed the work item: it vanishes from every other
    /// worklist (§3.3).
    WorkItemClaimed {
        item: WorkItemId,
        person: Name,
        at: Tick,
    },
    /// A deadline expired and a notification was sent (§3.3).
    NotificationSent {
        instance: InstanceId,
        path: ActivityPath,
        person: Name,
        at: Tick,
    },
    /// A user intervention (§3.3: "the user can stop an activity,
    /// restart it, force it to finish, and so forth").
    UserIntervention {
        instance: InstanceId,
        path: ActivityPath,
        action: String,
        at: Tick,
    },
    /// The instance completed: every activity is terminated.
    InstanceFinished {
        instance: InstanceId,
        output: Container,
        at: Tick,
    },
    /// The instance was cancelled by an operator.
    InstanceCancelled { instance: InstanceId, at: Tick },
    /// A new version of `process` was deployed and became the default
    /// for instances started after this point; `version` is the spec
    /// content hash in hex. The *first* registration of a name is not
    /// journalled (its version is implied by the recovery template
    /// set).
    TemplateDeployed {
        process: Name,
        version: Name,
        at: Tick,
    },
    /// An instance was migrated between template versions at a scope
    /// boundary. Journalled write-ahead of the state transfer; replay
    /// re-applies the same (deterministic) transfer.
    Migrated {
        instance: InstanceId,
        from: Name,
        to: Name,
        at: Tick,
    },
    /// A full engine checkpoint: the complete runtime state at a
    /// quiescent point. Recovery restarts from the last checkpoint and
    /// replays only the events after it; journal compaction drops
    /// everything before it (mirroring the database WAL's checkpoint).
    /// Boxed: it is the one large payload, and the rarest.
    EngineCheckpoint(Box<Checkpoint>),
}

const _: () = assert!(std::mem::size_of::<Event>() <= 56);

/// What an [`Event::EngineCheckpoint`] holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Snapshot of every live instance.
    pub instances: Vec<InstanceSnapshot>,
    /// Open and claimed work items.
    pub items: Vec<crate::worklist::WorkItem>,
    /// Instance-id allocator position.
    pub next_instance: u64,
    /// Work-item-id allocator position.
    pub next_item: u64,
    /// The tick at which it was journalled.
    pub at: Tick,
}

/// Serialisable snapshot of one instance (the definition is not
/// embedded — templates are re-registered at recovery, as with plain
/// replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// Instance id.
    pub id: InstanceId,
    /// Template name.
    pub process: Name,
    /// Owning tenant, when started under one.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenant: Option<Name>,
    /// Overall status.
    pub status: crate::state::InstanceStatus,
    /// The template version (spec content hash, hex) the instance is
    /// pinned to — replay resolves the snapshot against this compiled
    /// template, not the current default.
    pub version: Name,
    /// The full scope tree (activities, connectors, containers,
    /// children).
    pub root: crate::state::ScopeState,
}

impl Event {
    /// The instance this event belongs to, if any.
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            Event::InstanceStarted { instance, .. }
            | Event::ActivityReady { instance, .. }
            | Event::ActivityStarted { instance, .. }
            | Event::ActivityFinished { instance, .. }
            | Event::ActivityRescheduled { instance, .. }
            | Event::ActivityTerminated { instance, .. }
            | Event::ConnectorEvaluated { instance, .. }
            | Event::WorkItemOffered { instance, .. }
            | Event::NotificationSent { instance, .. }
            | Event::UserIntervention { instance, .. }
            | Event::InstanceFinished { instance, .. }
            | Event::InstanceCancelled { instance, .. }
            | Event::Migrated { instance, .. } => Some(*instance),
            Event::WorkItemClaimed { .. }
            | Event::EngineCheckpoint(_)
            | Event::TemplateDeployed { .. } => None,
        }
    }

    /// The tick at which the event was journalled.
    pub fn at(&self) -> Tick {
        match self {
            Event::InstanceStarted { at, .. }
            | Event::ActivityReady { at, .. }
            | Event::ActivityStarted { at, .. }
            | Event::ActivityFinished { at, .. }
            | Event::ActivityRescheduled { at, .. }
            | Event::ActivityTerminated { at, .. }
            | Event::ConnectorEvaluated { at, .. }
            | Event::WorkItemOffered { at, .. }
            | Event::WorkItemClaimed { at, .. }
            | Event::NotificationSent { at, .. }
            | Event::UserIntervention { at, .. }
            | Event::InstanceFinished { at, .. }
            | Event::InstanceCancelled { at, .. }
            | Event::TemplateDeployed { at, .. }
            | Event::Migrated { at, .. } => *at,
            Event::EngineCheckpoint(checkpoint) => checkpoint.at,
        }
    }

    /// A compact single-line rendering for audit listings.
    pub fn describe(&self) -> String {
        match self {
            Event::InstanceStarted {
                instance, process, ..
            } => format!("{instance} started (process {:?})", process.as_str()),
            Event::ActivityReady { path, attempt, .. } => {
                format!("  {path} ready (attempt {attempt})")
            }
            Event::ActivityStarted { path, by, .. } => match by {
                Some(p) => format!("  {path} started by {p}"),
                None => format!("  {path} started"),
            },
            Event::ActivityFinished { path, output, .. } => {
                // Same distinction as `audit::trace`: no RC member is
                // rendered `?`, never conflated with a real −1.
                match output.get(wfms_model::RC_MEMBER).and_then(|v| v.as_int()) {
                    Some(rc) => format!("  {path} finished (RC = {rc})"),
                    None => format!("  {path} finished (RC = ?)"),
                }
            }
            Event::ActivityRescheduled {
                path, next_attempt, ..
            } => format!("  {path} rescheduled (attempt {next_attempt})"),
            Event::ActivityTerminated { path, executed, .. } => {
                if *executed {
                    format!("  {path} terminated")
                } else {
                    format!("  {path} terminated by dead path elimination")
                }
            }
            Event::ConnectorEvaluated {
                scope,
                from,
                to,
                value,
                ..
            } => {
                let prefix = if scope.is_empty() {
                    String::new()
                } else {
                    format!("{scope}/")
                };
                format!("  connector {prefix}{from} -> {prefix}{to} = {value}")
            }
            Event::WorkItemOffered {
                path,
                item,
                persons,
                ..
            } => format!("  {path} offered as {item} to {persons:?}"),
            Event::WorkItemClaimed { item, person, .. } => {
                format!("  {item} claimed by {person}")
            }
            Event::NotificationSent { path, person, .. } => {
                format!("  deadline notification for {path} sent to {person}")
            }
            Event::UserIntervention { path, action, .. } => {
                format!("  user intervention on {path}: {action}")
            }
            Event::InstanceFinished { instance, .. } => format!("{instance} finished"),
            Event::InstanceCancelled { instance, .. } => format!("{instance} cancelled"),
            Event::EngineCheckpoint(checkpoint) => {
                format!(
                    "engine checkpoint ({} instances)",
                    checkpoint.instances.len()
                )
            }
            Event::TemplateDeployed {
                process, version, ..
            } => format!("template {process:?} deployed as version {version}"),
            Event::Migrated {
                instance, from, to, ..
            } => format!("{instance} migrated from version {from} to {to}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(InstanceId(3).to_string(), "inst#3");
        assert_eq!(WorkItemId(9).to_string(), "item#9");
    }

    #[test]
    fn event_accessors() {
        let e = Event::ActivityReady {
            instance: InstanceId(1),
            path: "A".into(),
            attempt: 0,
            at: 5,
        };
        assert_eq!(e.instance(), Some(InstanceId(1)));
        assert_eq!(e.at(), 5);
        let c = Event::WorkItemClaimed {
            item: WorkItemId(1),
            person: "p".into(),
            at: 7,
        };
        assert_eq!(c.instance(), None);
        assert_eq!(c.at(), 7);
    }

    #[test]
    fn serde_round_trip() {
        let e = Event::ConnectorEvaluated {
            instance: InstanceId(2),
            scope: "Fwd".into(),
            from: "T1".into(),
            to: "T2".into(),
            value: true,
            at: 3,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    /// A tenantless `InstanceStarted` renders with no `"tenant"` key
    /// at all.
    #[test]
    fn tenantless_start_is_byte_identical_to_legacy() {
        let e = Event::InstanceStarted {
            instance: InstanceId(1),
            process: "fix".into(),
            tenant: None,
            input: Container::empty(),
            at: 0,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            json,
            r#"{"InstanceStarted":{"instance":1,"process":"fix","input":{"values":{}},"at":0}}"#
        );
    }

    /// A line without a `tenant` key parses with `tenant: None`.
    #[test]
    fn legacy_start_without_tenant_parses() {
        let line =
            r#"{"InstanceStarted":{"instance":1,"process":"fix","input":{"values":{}},"at":0}}"#;
        let e: Event = serde_json::from_str(line).unwrap();
        let Event::InstanceStarted {
            instance, tenant, ..
        } = e
        else {
            panic!("wrong variant");
        };
        assert_eq!(instance, InstanceId(1));
        assert_eq!(tenant, None);
    }

    /// A tenanted start round-trips the tenant name through JSON.
    #[test]
    fn tenanted_start_round_trips() {
        let e = Event::InstanceStarted {
            instance: InstanceId(7),
            process: "p".into(),
            tenant: Some("acme".into()),
            input: Container::empty(),
            at: 2,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains(r#""tenant":"acme""#), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    /// Every variant survives a serde round trip.
    #[test]
    fn all_variants_round_trip() {
        let events = vec![
            Event::ActivityStarted {
                instance: InstanceId(1),
                path: "A".into(),
                attempt: 0,
                by: Some("ann".into()),
                input: Container::empty(),
                at: 1,
            },
            Event::ActivityStarted {
                instance: InstanceId(1),
                path: "A".into(),
                attempt: 1,
                by: None,
                input: Container::empty(),
                at: 2,
            },
            Event::ActivityFinished {
                instance: InstanceId(1),
                path: "A".into(),
                attempt: 0,
                output: Container::empty(),
                at: 3,
            },
            Event::ActivityRescheduled {
                instance: InstanceId(1),
                path: "A".into(),
                next_attempt: 2,
                at: 4,
            },
            Event::ActivityTerminated {
                instance: InstanceId(1),
                path: "A".into(),
                executed: true,
                at: 5,
            },
            Event::WorkItemOffered {
                instance: InstanceId(1),
                path: "M".into(),
                item: WorkItemId(4),
                persons: Box::new(["ann".into()]),
                at: 6,
            },
            Event::WorkItemClaimed {
                item: WorkItemId(4),
                person: "ann".into(),
                at: 7,
            },
            Event::NotificationSent {
                instance: InstanceId(1),
                path: "M".into(),
                person: "ann".into(),
                at: 8,
            },
            Event::UserIntervention {
                instance: InstanceId(1),
                path: "M".into(),
                action: "restart".into(),
                at: 9,
            },
            Event::InstanceFinished {
                instance: InstanceId(1),
                output: Container::empty(),
                at: 10,
            },
            Event::InstanceCancelled {
                instance: InstanceId(1),
                at: 11,
            },
            Event::TemplateDeployed {
                process: "p".into(),
                version: "00c0ffee00c0ffee".into(),
                at: 12,
            },
            Event::Migrated {
                instance: InstanceId(1),
                from: "a".into(),
                to: "b".into(),
                at: 13,
            },
        ];
        for e in events {
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e, "{json}");
        }
    }

    #[test]
    fn describe_mentions_dpe() {
        let e = Event::ActivityTerminated {
            instance: InstanceId(1),
            path: "T3".into(),
            executed: false,
            at: 0,
        };
        assert!(e.describe().contains("dead path elimination"));
    }
}
