//! Static validation — the checks the FlowMark import stage performs
//! on an FDL definition before a process template becomes executable
//! (Figure 5: "the import module checks for inconsistencies in the
//! syntax of the process definition … the translator checks the
//! semantics of the FlowMark process").
//!
//! [`validate`] returns **all** problems found (not just the first):
//! a translation tool like Exotica/FMTM wants the complete list to
//! report against the originating specification.

use crate::activity::ActivityKind;
use crate::connector::DataEndpoint;
use crate::container::ContainerSchema;
use crate::process::ProcessDefinition;
use crate::types::DataType;
use crate::RC_MEMBER;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// One validation finding. `process` is the slash-separated path of
/// nested process names (blocks are validated recursively).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The process declares no activities.
    EmptyProcess { process: String },
    /// Two activities share a name.
    DuplicateActivity { process: String, activity: String },
    /// An activity name contains `/`, the separator of the journal's
    /// path form: `"A/B"` could not be told from block `A`'s child `B`.
    SlashInActivityName { process: String, activity: String },
    /// A container declares the same member twice.
    DuplicateMember {
        process: String,
        container: String,
        member: String,
    },
    /// A program activity names no program.
    MissingProgramName { process: String, activity: String },
    /// A control connector references an unknown activity.
    UnknownEndpoint {
        process: String,
        connector: String,
        endpoint: String,
    },
    /// A control connector loops an activity to itself.
    SelfLoop { process: String, activity: String },
    /// Two control connectors share the same (from, to) pair.
    DuplicateControl {
        process: String,
        from: String,
        to: String,
    },
    /// The control graph is cyclic.
    Cycle { process: String },
    /// A data connector's source cannot produce data or its sink
    /// cannot receive it.
    BadDataDirection { process: String, connector: String },
    /// A data connector references an unknown activity.
    UnknownDataActivity {
        process: String,
        connector: String,
        endpoint: String,
    },
    /// A mapping references a member absent from its container.
    UnknownMember {
        process: String,
        connector: String,
        container: String,
        member: String,
    },
    /// A mapping copies between incompatible member types.
    MappingTypeMismatch {
        process: String,
        connector: String,
        from_member: String,
        to_member: String,
        from_ty: DataType,
        to_ty: DataType,
    },
    /// A data connector between activities with no control path from
    /// source to sink (data flows along control flow).
    DataAgainstControlFlow { process: String, connector: String },
    /// A condition references a member that is not in scope.
    UnresolvedConditionVar {
        process: String,
        location: String,
        var: String,
    },
    /// The reserved `RC` member was declared with a non-INT type.
    ReservedRcWrongType { process: String, container: String },
    /// A block activity's containers do not match the embedded
    /// process's containers.
    BlockContainerMismatch {
        process: String,
        activity: String,
        which: &'static str,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidationError::*;
        match self {
            EmptyProcess { process } => write!(f, "[{process}] process has no activities"),
            DuplicateActivity { process, activity } => {
                write!(f, "[{process}] duplicate activity name {activity:?}")
            }
            SlashInActivityName { process, activity } => write!(
                f,
                "[{process}] activity name {activity:?} contains '/', the path separator"
            ),
            DuplicateMember {
                process,
                container,
                member,
            } => write!(
                f,
                "[{process}] container {container} declares member {member:?} twice"
            ),
            MissingProgramName { process, activity } => write!(
                f,
                "[{process}] program activity {activity:?} names no program"
            ),
            UnknownEndpoint {
                process,
                connector,
                endpoint,
            } => write!(
                f,
                "[{process}] control connector {connector} references unknown activity {endpoint:?}"
            ),
            SelfLoop { process, activity } => write!(
                f,
                "[{process}] activity {activity:?} has a control connector to itself"
            ),
            DuplicateControl { process, from, to } => write!(
                f,
                "[{process}] duplicate control connector {from} -> {to}"
            ),
            Cycle { process } => write!(
                f,
                "[{process}] control graph is cyclic (workflow graphs must be acyclic; use exit conditions or blocks for loops)"
            ),
            BadDataDirection { process, connector } => write!(
                f,
                "[{process}] data connector {connector} flows in an illegal direction"
            ),
            UnknownDataActivity {
                process,
                connector,
                endpoint,
            } => write!(
                f,
                "[{process}] data connector {connector} references unknown activity {endpoint:?}"
            ),
            UnknownMember {
                process,
                connector,
                container,
                member,
            } => write!(
                f,
                "[{process}] data connector {connector}: container {container} has no member {member:?}"
            ),
            MappingTypeMismatch {
                process,
                connector,
                from_member,
                to_member,
                from_ty,
                to_ty,
            } => write!(
                f,
                "[{process}] data connector {connector}: cannot map {from_member} ({from_ty}) to {to_member} ({to_ty})"
            ),
            DataAgainstControlFlow { process, connector } => write!(
                f,
                "[{process}] data connector {connector} has no supporting control path from source to sink"
            ),
            UnresolvedConditionVar {
                process,
                location,
                var,
            } => write!(
                f,
                "[{process}] condition at {location} references {var:?}, which is not a member of the governing container"
            ),
            ReservedRcWrongType { process, container } => write!(
                f,
                "[{process}] container {container} declares reserved member {RC_MEMBER:?} with a non-INT type"
            ),
            BlockContainerMismatch {
                process,
                activity,
                which,
            } => write!(
                f,
                "[{process}] block activity {activity:?}: {which} container schema differs from the embedded process's {which} schema"
            ),
        }
    }
}

/// Validates `process` and every embedded block, returning all
/// findings. An empty vector means the definition is executable.
pub fn validate(process: &ProcessDefinition) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    validate_into(process, &process.name.clone(), &mut errors);
    errors
}

fn validate_into(p: &ProcessDefinition, path: &str, errors: &mut Vec<ValidationError>) {
    let proc_name = path.to_owned();

    if p.activities.is_empty() {
        errors.push(ValidationError::EmptyProcess {
            process: proc_name.clone(),
        });
    }

    // --- activity names & containers -------------------------------
    let mut seen = HashSet::new();
    for a in &p.activities {
        if !seen.insert(a.name.clone()) {
            errors.push(ValidationError::DuplicateActivity {
                process: proc_name.clone(),
                activity: a.name.clone(),
            });
        }
        if a.name.contains('/') {
            errors.push(ValidationError::SlashInActivityName {
                process: proc_name.clone(),
                activity: a.name.clone(),
            });
        }
        if let ActivityKind::Program { program } = &a.kind {
            if program.is_empty() {
                errors.push(ValidationError::MissingProgramName {
                    process: proc_name.clone(),
                    activity: a.name.clone(),
                });
            }
        }
        check_schema(&a.input, &format!("{}.INPUT", a.name), &proc_name, errors);
        check_schema(&a.output, &format!("{}.OUTPUT", a.name), &proc_name, errors);
    }
    check_schema(&p.input, "PROCESS.INPUT", &proc_name, errors);
    check_schema(&p.output, "PROCESS.OUTPUT", &proc_name, errors);

    let names: HashSet<&str> = p.activities.iter().map(|a| a.name.as_str()).collect();

    // --- control connectors -----------------------------------------
    let mut edges = HashSet::new();
    for c in &p.control {
        let label = format!("{} -> {}", c.from, c.to);
        for endpoint in [&c.from, &c.to] {
            if !names.contains(endpoint.as_str()) {
                errors.push(ValidationError::UnknownEndpoint {
                    process: proc_name.clone(),
                    connector: label.clone(),
                    endpoint: endpoint.clone(),
                });
            }
        }
        if c.from == c.to {
            errors.push(ValidationError::SelfLoop {
                process: proc_name.clone(),
                activity: c.from.clone(),
            });
        }
        if !edges.insert((c.from.clone(), c.to.clone())) {
            errors.push(ValidationError::DuplicateControl {
                process: proc_name.clone(),
                from: c.from.clone(),
                to: c.to.clone(),
            });
        }
        // Transition condition variables resolve against the source
        // activity's effective output container.
        if let Some(src) = p.activity(&c.from) {
            let schema = p.effective_output(src);
            for var in c.condition.variables() {
                if !schema.has(&var) {
                    errors.push(ValidationError::UnresolvedConditionVar {
                        process: proc_name.clone(),
                        location: format!("control connector {label}"),
                        var,
                    });
                }
            }
        }
    }

    if p.topo_order().is_none() && !p.activities.is_empty() {
        errors.push(ValidationError::Cycle {
            process: proc_name.clone(),
        });
    }

    // --- exit conditions ---------------------------------------------
    for a in &p.activities {
        if let Some(expr) = &a.exit.expr {
            let schema = p.effective_output(a);
            for var in expr.variables() {
                if !schema.has(&var) {
                    errors.push(ValidationError::UnresolvedConditionVar {
                        process: proc_name.clone(),
                        location: format!("exit condition of {}", a.name),
                        var,
                    });
                }
            }
        }
    }

    // --- data connectors ----------------------------------------------
    for d in &p.data {
        let label = format!("{} => {}", d.from, d.to);
        if !d.from.is_source() || !d.to.is_sink() {
            errors.push(ValidationError::BadDataDirection {
                process: proc_name.clone(),
                connector: label.clone(),
            });
            continue;
        }
        let mut endpoint_ok = true;
        for ep in [&d.from, &d.to] {
            if let Some(act) = ep.activity() {
                if !names.contains(act) {
                    errors.push(ValidationError::UnknownDataActivity {
                        process: proc_name.clone(),
                        connector: label.clone(),
                        endpoint: act.to_owned(),
                    });
                    endpoint_ok = false;
                }
            }
        }
        if !endpoint_ok {
            continue;
        }
        let from_schema = endpoint_schema(p, &d.from);
        let to_schema = endpoint_schema(p, &d.to);
        for m in &d.mappings {
            let from_decl = from_schema.member(&m.from_member);
            let to_decl = to_schema.member(&m.to_member);
            if from_decl.is_none() {
                errors.push(ValidationError::UnknownMember {
                    process: proc_name.clone(),
                    connector: label.clone(),
                    container: d.from.to_string(),
                    member: m.from_member.clone(),
                });
            }
            if to_decl.is_none() {
                errors.push(ValidationError::UnknownMember {
                    process: proc_name.clone(),
                    connector: label.clone(),
                    container: d.to.to_string(),
                    member: m.to_member.clone(),
                });
            }
            if let (Some(fd), Some(td)) = (from_decl, to_decl) {
                if fd.ty != td.ty {
                    errors.push(ValidationError::MappingTypeMismatch {
                        process: proc_name.clone(),
                        connector: label.clone(),
                        from_member: m.from_member.clone(),
                        to_member: m.to_member.clone(),
                        from_ty: fd.ty,
                        to_ty: td.ty,
                    });
                }
            }
        }
        // Data must flow along control flow: activity-to-activity data
        // connectors need a control path from source to sink.
        if let (DataEndpoint::ActivityOutput(src), DataEndpoint::ActivityInput(dst)) =
            (&d.from, &d.to)
        {
            if !control_path_exists(p, src, dst) {
                errors.push(ValidationError::DataAgainstControlFlow {
                    process: proc_name.clone(),
                    connector: label.clone(),
                });
            }
        }
    }

    // --- blocks ---------------------------------------------------------
    for a in &p.activities {
        if let ActivityKind::Block { process: inner } = &a.kind {
            if !schemas_equal(&a.input, &inner.input) {
                errors.push(ValidationError::BlockContainerMismatch {
                    process: proc_name.clone(),
                    activity: a.name.clone(),
                    which: "input",
                });
            }
            if !schemas_equal(&a.output, &inner.output) {
                errors.push(ValidationError::BlockContainerMismatch {
                    process: proc_name.clone(),
                    activity: a.name.clone(),
                    which: "output",
                });
            }
            validate_into(inner, &format!("{proc_name}/{}", inner.name), errors);
        }
    }
}

fn schemas_equal(a: &ContainerSchema, b: &ContainerSchema) -> bool {
    // Order-insensitive comparison of (name, type) pairs; defaults may
    // differ between the block activity facade and the inner process.
    let key = |s: &ContainerSchema| {
        let mut v: Vec<(String, DataType)> =
            s.members.iter().map(|m| (m.name.clone(), m.ty)).collect();
        v.sort();
        v
    };
    key(a) == key(b)
}

fn check_schema(
    schema: &ContainerSchema,
    label: &str,
    proc_name: &str,
    errors: &mut Vec<ValidationError>,
) {
    for dup in schema.duplicate_names() {
        errors.push(ValidationError::DuplicateMember {
            process: proc_name.to_owned(),
            container: label.to_owned(),
            member: dup,
        });
    }
    if let Some(rc) = schema.member(RC_MEMBER) {
        if rc.ty != DataType::Int {
            errors.push(ValidationError::ReservedRcWrongType {
                process: proc_name.to_owned(),
                container: label.to_owned(),
            });
        }
    }
}

fn endpoint_schema(p: &ProcessDefinition, ep: &DataEndpoint) -> ContainerSchema {
    match ep {
        DataEndpoint::ProcessInput => p.input.clone(),
        DataEndpoint::ProcessOutput => p.output.clone(),
        DataEndpoint::ActivityInput(a) => {
            p.activity(a).map(|a| a.input.clone()).unwrap_or_default()
        }
        DataEndpoint::ActivityOutput(a) => p
            .activity(a)
            .map(|a| p.effective_output(a))
            .unwrap_or_default(),
    }
}

fn control_path_exists(p: &ProcessDefinition, from: &str, to: &str) -> bool {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for c in &p.control {
        adj.entry(c.from.as_str()).or_default().push(c.to.as_str());
    }
    let mut queue = VecDeque::from([from]);
    let mut seen = HashSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            return true;
        }
        for &next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::connector::{ControlConnector, DataConnector};
    use crate::container::ContainerSchema;

    fn ok_process() -> ProcessDefinition {
        let mut p = ProcessDefinition::new("p");
        p.activities = vec![
            Activity::program("A", "pa").with_output(ContainerSchema::of(&[("x", DataType::Int)])),
            Activity::program("B", "pb").with_input(ContainerSchema::of(&[("y", DataType::Int)])),
        ];
        p.control = vec![ControlConnector::when("A", "B", "RC = 1")];
        p.data = vec![DataConnector::new(
            DataEndpoint::ActivityOutput("A".into()),
            DataEndpoint::ActivityInput("B".into()),
            &[("x", "y")],
        )];
        p
    }

    #[test]
    fn valid_process_has_no_errors() {
        assert_eq!(validate(&ok_process()), vec![]);
    }

    #[test]
    fn empty_process_flagged() {
        let p = ProcessDefinition::new("e");
        let errs = validate(&p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::EmptyProcess { .. })));
    }

    #[test]
    fn duplicate_activity_names() {
        let mut p = ok_process();
        p.activities.push(Activity::program("A", "dup"));
        assert!(validate(&p).iter().any(
            |e| matches!(e, ValidationError::DuplicateActivity { activity, .. } if activity == "A")
        ));
    }

    #[test]
    fn unknown_connector_endpoint() {
        let mut p = ok_process();
        p.control.push(ControlConnector::new("A", "Ghost"));
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidationError::UnknownEndpoint { endpoint, .. } if endpoint == "Ghost")));
    }

    #[test]
    fn self_loop_flagged() {
        let mut p = ok_process();
        p.control.push(ControlConnector::new("A", "A"));
        let errs = validate(&p);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::SelfLoop { .. })));
        // Self-loop also makes the graph cyclic.
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::Cycle { .. })));
    }

    #[test]
    fn duplicate_control_flagged() {
        let mut p = ok_process();
        p.control.push(ControlConnector::new("A", "B"));
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidationError::DuplicateControl { .. })));
    }

    #[test]
    fn cycle_flagged() {
        let mut p = ok_process();
        p.control.push(ControlConnector::new("B", "A"));
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidationError::Cycle { .. })));
    }

    #[test]
    fn condition_vars_must_resolve() {
        let mut p = ok_process();
        p.control = vec![ControlConnector::when("A", "B", "Ghost = 1")];
        assert!(validate(&p).iter().any(
            |e| matches!(e, ValidationError::UnresolvedConditionVar { var, .. } if var == "Ghost")
        ));
        // RC always resolves (implicit member).
        let mut p2 = ok_process();
        p2.control = vec![ControlConnector::when("A", "B", "RC = 1 AND x = 2")];
        p2.data.clear();
        assert_eq!(validate(&p2), vec![]);
    }

    #[test]
    fn exit_condition_vars_must_resolve() {
        let mut p = ok_process();
        p.activities[0] = p.activities[0].clone().with_exit("Nope = 1");
        assert!(validate(&p).iter().any(|e| matches!(
            e,
            ValidationError::UnresolvedConditionVar { location, .. } if location.contains("exit condition")
        )));
    }

    #[test]
    fn data_direction_rules() {
        let mut p = ok_process();
        p.data = vec![DataConnector::new(
            DataEndpoint::ActivityInput("B".into()),
            DataEndpoint::ActivityOutput("A".into()),
            &[("y", "x")],
        )];
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidationError::BadDataDirection { .. })));
    }

    #[test]
    fn mapping_members_and_types_checked() {
        let mut p = ok_process();
        p.data = vec![DataConnector::new(
            DataEndpoint::ActivityOutput("A".into()),
            DataEndpoint::ActivityInput("B".into()),
            &[("missing", "y"), ("x", "missing2")],
        )];
        let errs = validate(&p);
        assert_eq!(
            errs.iter()
                .filter(|e| matches!(e, ValidationError::UnknownMember { .. }))
                .count(),
            2
        );

        // Type mismatch: map INT x to a BOOL member.
        let mut p2 = ok_process();
        p2.activities[1] =
            Activity::program("B", "pb").with_input(ContainerSchema::of(&[("y", DataType::Bool)]));
        assert!(validate(&p2)
            .iter()
            .any(|e| matches!(e, ValidationError::MappingTypeMismatch { .. })));
    }

    #[test]
    fn data_needs_control_path() {
        let mut p = ok_process();
        p.control.clear(); // no path A -> B any more
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidationError::DataAgainstControlFlow { .. })));
    }

    #[test]
    fn reserved_rc_must_be_int() {
        let mut p = ok_process();
        p.activities[0] = p.activities[0]
            .clone()
            .with_output(ContainerSchema::of(&[(RC_MEMBER, DataType::Str)]));
        p.data.clear();
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidationError::ReservedRcWrongType { .. })));
    }

    #[test]
    fn missing_program_name_flagged() {
        let mut p = ok_process();
        p.activities.push(Activity::program("C", ""));
        p.control.push(ControlConnector::new("B", "C"));
        assert!(validate(&p).iter().any(
            |e| matches!(e, ValidationError::MissingProgramName { activity, .. } if activity == "C")
        ));
    }

    #[test]
    fn blocks_validated_recursively_with_path() {
        let mut inner = ProcessDefinition::new("inner");
        inner.activities = vec![Activity::program("X", "")]; // missing program
        let mut outer = ProcessDefinition::new("outer");
        let block = Activity::block("B", inner);
        outer.activities = vec![block];
        let errs = validate(&outer);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::MissingProgramName { process, .. } if process == "outer/inner"
        )));
    }

    #[test]
    fn slash_in_activity_name_flagged_at_any_depth() {
        let mut inner = ProcessDefinition::new("inner");
        inner.activities = vec![Activity::program("X/Y", "px")];
        let mut outer = ProcessDefinition::new("outer");
        outer.activities = vec![Activity::program("A/B", "pa"), Activity::block("B", inner)];
        let errs = validate(&outer);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::SlashInActivityName { process, activity }
                if process == "outer" && activity == "A/B"
        )));
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::SlashInActivityName { process, activity }
                if process == "outer/inner" && activity == "X/Y"
        )));
    }

    #[test]
    fn block_container_mismatch_flagged() {
        let mut inner = ProcessDefinition::new("inner");
        inner.activities = vec![Activity::program("X", "px")];
        inner.input = ContainerSchema::of(&[("a", DataType::Int)]);
        let mut outer = ProcessDefinition::new("outer");
        // Block facade omits the inner input schema.
        outer.activities = vec![Activity::block("B", inner)];
        assert!(validate(&outer).iter().any(|e| matches!(
            e,
            ValidationError::BlockContainerMismatch { which: "input", .. }
        )));
    }

    #[test]
    fn duplicate_member_flagged() {
        let mut p = ok_process();
        p.activities[0] = p.activities[0].clone().with_output(
            ContainerSchema::empty()
                .with("x", DataType::Int)
                .with("x", DataType::Int),
        );
        p.data.clear();
        assert!(validate(&p).iter().any(
            |e| matches!(e, ValidationError::DuplicateMember { member, .. } if member == "x")
        ));
    }

    #[test]
    fn errors_display_mentions_process() {
        let p = ProcessDefinition::new("solo");
        let errs = validate(&p);
        assert!(errs[0].to_string().contains("[solo]"));
    }

    #[test]
    fn one_pass_reports_every_violation() {
        // The validator keeps going after the first finding — tools
        // like `fmtm lint` rely on getting the complete list at once.
        let mut p = ok_process();
        p.activities.push(Activity::program("A", "pa")); // duplicate name
        p.activities.push(Activity::program("C", "")); // no program
        p.control.push(ControlConnector::when("A", "A", "RC = 1")); // self loop
        p.control
            .push(ControlConnector::when("A", "Ghost", "RC = 1")); // unknown
        let errs = validate(&p);
        for expect in [
            |e: &ValidationError| matches!(e, ValidationError::DuplicateActivity { activity, .. } if activity == "A"),
            |e: &ValidationError| matches!(e, ValidationError::MissingProgramName { activity, .. } if activity == "C"),
            |e: &ValidationError| matches!(e, ValidationError::SelfLoop { activity, .. } if activity == "A"),
            |e: &ValidationError| matches!(e, ValidationError::UnknownEndpoint { endpoint, .. } if endpoint == "Ghost"),
        ] {
            assert!(errs.iter().any(expect), "missing a variant in {errs:?}");
        }
        assert!(errs.len() >= 4, "{errs:?}");
    }
}
