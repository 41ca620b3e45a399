//! Source provenance: maps compiled process elements back to the FDL
//! positions they were parsed from.
//!
//! The compiled [`wfms_model::ProcessDefinition`] deliberately carries
//! no source spans — it can be built programmatically, imported from
//! FDL, or emitted by the Exotica translator. When a definition *does*
//! come from FDL text, the parser records a [`Provenance`] side table
//! so later passes (validation, the `wfms-analyzer` lint battery) can
//! report findings at the line and column of the originating element
//! instead of position-less diagnostics.
//!
//! Elements are keyed by the slash-separated process path used by
//! [`wfms_model::validate()`] (`outer/inner` for a block named `inner`
//! inside `outer`) plus the element's own label. When the same label
//! occurs twice (e.g. a duplicate activity), the *last* occurrence
//! wins, which points duplicate-definition diagnostics at the second,
//! offending occurrence.

use crate::diag::Pos;
use std::collections::BTreeMap;
use wfms_model::ValidationError;

/// Key separator — a control character that cannot appear in FDL
/// identifiers, quoted names, or connector labels produced by the
/// parser, so composite keys cannot collide.
const SEP: char = '\u{1}';

/// Kind tags for composite keys.
const KIND_PROCESS: char = 'P';
const KIND_ACTIVITY: char = 'A';
const KIND_CONTROL: char = 'C';
const KIND_DATA: char = 'D';

/// Side table mapping compiled elements to FDL source positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    map: BTreeMap<String, Pos>,
}

fn key(kind: char, path: &str, label: &str) -> String {
    format!("{path}{SEP}{kind}{SEP}{label}")
}

impl Provenance {
    /// Records the position of a (possibly nested) process header.
    pub(crate) fn record_process(&mut self, path: &str, pos: Pos) {
        self.map.insert(key(KIND_PROCESS, path, ""), pos);
    }

    /// Records the position of an activity, no-op, or block header.
    pub(crate) fn record_activity(&mut self, path: &str, name: &str, pos: Pos) {
        self.map.insert(key(KIND_ACTIVITY, path, name), pos);
    }

    /// Records the position of a control connector (`CONTROL` keyword).
    pub(crate) fn record_control(&mut self, path: &str, from: &str, to: &str, pos: Pos) {
        self.map
            .insert(key(KIND_CONTROL, path, &control_label(from, to)), pos);
    }

    /// Records the position of a data connector (`DATA` keyword),
    /// keyed by the validator's `from => to` label.
    pub(crate) fn record_data(&mut self, path: &str, label: &str, pos: Pos) {
        self.map.insert(key(KIND_DATA, path, label), pos);
    }

    /// Position of the `PROCESS`/`BLOCK` header for a process path.
    pub fn process(&self, path: &str) -> Option<Pos> {
        self.map.get(&key(KIND_PROCESS, path, "")).copied()
    }

    /// Position of an activity (or no-op, or block facade) by name.
    pub fn activity(&self, path: &str, name: &str) -> Option<Pos> {
        self.map.get(&key(KIND_ACTIVITY, path, name)).copied()
    }

    /// Position of the control connector `from -> to`.
    pub fn control(&self, path: &str, from: &str, to: &str) -> Option<Pos> {
        self.map
            .get(&key(KIND_CONTROL, path, &control_label(from, to)))
            .copied()
    }

    /// Position of a data connector by its `from => to` label.
    pub fn data(&self, path: &str, label: &str) -> Option<Pos> {
        self.map.get(&key(KIND_DATA, path, label)).copied()
    }

    /// Number of recorded element positions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no positions were recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Best-effort position for a container label as used by the
    /// validator: `X.INPUT`/`X.OUTPUT` resolve to activity `X`,
    /// `PROCESS.INPUT`/`PROCESS.OUTPUT` to the process header.
    fn container(&self, path: &str, container: &str) -> Option<Pos> {
        let owner = container.split('.').next().unwrap_or(container);
        if owner == "PROCESS" {
            self.process(path)
        } else {
            self.activity(path, owner).or_else(|| self.process(path))
        }
    }

    /// Position of a condition by the validator's location label
    /// (`control connector A -> B` or `exit condition of X`).
    fn condition_location(&self, path: &str, location: &str) -> Option<Pos> {
        if let Some(label) = location.strip_prefix("control connector ") {
            self.map.get(&key(KIND_CONTROL, path, label)).copied()
        } else if let Some(name) = location.strip_prefix("exit condition of ") {
            self.activity(path, name)
        } else {
            None
        }
        .or_else(|| self.process(path))
    }

    /// Maps a validation finding to the position of the element it
    /// concerns, falling back to the enclosing process header and
    /// finally `None` for definitions not built from FDL text.
    pub fn locate(&self, err: &ValidationError) -> Option<Pos> {
        use ValidationError::*;
        match err {
            EmptyProcess { process } | Cycle { process } => self.process(process),
            DuplicateActivity { process, activity }
            | SlashInActivityName { process, activity }
            | MissingProgramName { process, activity }
            | SelfLoop { process, activity }
            | BlockContainerMismatch {
                process, activity, ..
            } => self
                .activity(process, activity)
                .or_else(|| self.process(process)),
            DuplicateMember {
                process, container, ..
            }
            | ReservedRcWrongType { process, container } => self.container(process, container),
            UnknownEndpoint {
                process, connector, ..
            } => self
                .map
                .get(&key(KIND_CONTROL, process, connector))
                .copied()
                .or_else(|| self.process(process)),
            DuplicateControl { process, from, to } => self
                .control(process, from, to)
                .or_else(|| self.process(process)),
            BadDataDirection { process, connector }
            | UnknownDataActivity {
                process, connector, ..
            }
            | UnknownMember {
                process, connector, ..
            }
            | MappingTypeMismatch {
                process, connector, ..
            }
            | DataAgainstControlFlow { process, connector } => self
                .data(process, connector)
                .or_else(|| self.process(process)),
            UnresolvedConditionVar {
                process, location, ..
            } => self.condition_location(process, location),
        }
    }
}

/// The validator's label for a control connector.
fn control_label(from: &str, to: &str) -> String {
    format!("{from} -> {to}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_looks_up_elements() {
        let mut prov = Provenance::default();
        prov.record_process("p", Pos { line: 1, col: 1 });
        prov.record_activity("p", "A", Pos { line: 2, col: 3 });
        prov.record_control("p", "A", "B", Pos { line: 5, col: 3 });
        prov.record_data("p", "A.OUTPUT => B.INPUT", Pos { line: 6, col: 3 });
        assert_eq!(prov.process("p"), Some(Pos { line: 1, col: 1 }));
        assert_eq!(prov.activity("p", "A"), Some(Pos { line: 2, col: 3 }));
        assert_eq!(prov.control("p", "A", "B"), Some(Pos { line: 5, col: 3 }));
        assert_eq!(
            prov.data("p", "A.OUTPUT => B.INPUT"),
            Some(Pos { line: 6, col: 3 })
        );
        assert_eq!(prov.activity("p", "Ghost"), None);
        assert_eq!(prov.len(), 4);
        assert!(!prov.is_empty());
    }

    #[test]
    fn duplicate_records_keep_last_occurrence() {
        let mut prov = Provenance::default();
        prov.record_activity("p", "A", Pos { line: 2, col: 3 });
        prov.record_activity("p", "A", Pos { line: 7, col: 3 });
        assert_eq!(prov.activity("p", "A"), Some(Pos { line: 7, col: 3 }));
    }

    #[test]
    fn locate_maps_validation_errors() {
        let mut prov = Provenance::default();
        prov.record_process("p", Pos { line: 1, col: 1 });
        prov.record_activity("p", "A", Pos { line: 2, col: 3 });
        prov.record_control("p", "A", "Ghost", Pos { line: 5, col: 3 });

        let pos = prov.locate(&ValidationError::UnknownEndpoint {
            process: "p".into(),
            connector: "A -> Ghost".into(),
            endpoint: "Ghost".into(),
        });
        assert_eq!(pos, Some(Pos { line: 5, col: 3 }));

        let pos = prov.locate(&ValidationError::MissingProgramName {
            process: "p".into(),
            activity: "A".into(),
        });
        assert_eq!(pos, Some(Pos { line: 2, col: 3 }));

        let pos = prov.locate(&ValidationError::UnresolvedConditionVar {
            process: "p".into(),
            location: "control connector A -> Ghost".into(),
            var: "x".into(),
        });
        assert_eq!(pos, Some(Pos { line: 5, col: 3 }));

        // Unknown elements fall back to the process header.
        let pos = prov.locate(&ValidationError::SelfLoop {
            process: "p".into(),
            activity: "Z".into(),
        });
        assert_eq!(pos, Some(Pos { line: 1, col: 1 }));

        // Definitions not built from FDL have no positions at all.
        let empty = Provenance::default();
        assert_eq!(
            empty.locate(&ValidationError::EmptyProcess {
                process: "p".into()
            }),
            None
        );
    }
}
