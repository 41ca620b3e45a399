//! Activities — the steps of a process.
//!
//! §3.2 of the paper: an activity has a name, a type (program or
//! process), pre- and post-conditions and scheduling constraints; each
//! has an input and an output data container, a start condition
//! (AND/OR over incoming control connectors), and an exit condition
//! that, when false, sends the activity back to `ready` — the model's
//! loop mechanism, which the saga translation uses to make
//! compensations retriable.

use crate::container::ContainerSchema;
use crate::expr::Expr;
use crate::process::ProcessDefinition;
use serde::{Deserialize, Serialize};
use txn_substrate::Tick;

/// What an activity does when executed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActivityKind {
    /// Executes a registered transactional program; the program's
    /// return code lands in the output container's `RC` member.
    Program {
        /// Registered program name.
        program: String,
    },
    /// Executes an embedded subprocess (a *block*). The paper uses
    /// blocks for nesting, modularity and loops; the Figure 2 saga
    /// translation puts the forward and compensation phases in blocks.
    Block {
        /// The embedded process definition.
        process: Box<ProcessDefinition>,
    },
    /// "Commits" immediately with `RC = 1`, copying its input
    /// container to its output container (a pass-through). The
    /// Figure 2 construction uses a no-op as the trigger that fans out
    /// to all compensating activities: the pass-through exposes the
    /// `State_i` flags to the trigger's outgoing transition
    /// conditions.
    NoOp,
}

impl ActivityKind {
    /// True for block (process) activities.
    pub fn is_block(&self) -> bool {
        matches!(self, ActivityKind::Block { .. })
    }
}

/// Who is responsible for an activity (§3.3): a role (any person
/// holding it may claim the work item), a specific person, or the
/// system itself for fully automatic steps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum StaffAssignment {
    /// Started by the engine with no human involvement.
    #[default]
    Automatic,
    /// Offered to every person holding the role.
    Role(String),
    /// Assigned to one specific person.
    Person(String),
}

/// Join semantics of an activity's incoming control connectors (§3.2):
/// *and* — start when **all** incoming connectors have evaluated true;
/// *or* — start when **one** has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StartCondition {
    /// All incoming connectors must be true (the default).
    #[default]
    And,
    /// Any single incoming connector suffices.
    Or,
}

/// The post-execution check: if the exit condition evaluates false
/// over the activity's output container, the activity is rescheduled
/// (§3.2 — "the activity is rescheduled for execution"). `None` means
/// always exit (the common case).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExitCondition {
    /// The condition over the activity's own output container.
    pub expr: Option<Expr>,
}

impl ExitCondition {
    /// The always-true exit condition.
    pub fn always() -> Self {
        Self { expr: None }
    }

    /// An exit condition parsed from text.
    ///
    /// # Panics
    /// Panics on a syntactically invalid expression; use
    /// [`Expr::parse`] directly when handling user input.
    pub fn when(expr: &str) -> Self {
        Self {
            expr: Some(Expr::parse(expr).expect("invalid exit condition")),
        }
    }
}

/// One step of a process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    /// Unique name within the process.
    pub name: String,
    /// Free-form description (kept in audit trails).
    pub description: String,
    /// Program / block / no-op.
    pub kind: ActivityKind,
    /// Input container schema.
    pub input: ContainerSchema,
    /// Output container schema. The reserved member `RC` (INT) is
    /// implicitly present whether or not it is declared; see
    /// [`crate::RC_MEMBER`].
    pub output: ContainerSchema,
    /// Join semantics for incoming control connectors.
    pub start: StartCondition,
    /// Post-execution loop condition.
    pub exit: ExitCondition,
    /// Responsibility for the activity.
    pub staff: StaffAssignment,
    /// If set, the engine notifies the responsible user's manager when
    /// the activity has been ready for longer than this many ticks
    /// (§3.3: "who must be notified if the activity is not executed
    /// within a certain period of time").
    pub deadline: Option<Tick>,
    /// Automatic activities are started by the engine as soon as they
    /// are ready; manual ones wait on a worklist (§3.2).
    pub automatic_start: bool,
}

impl Activity {
    /// A program activity with empty containers, automatic start and
    /// default conditions — the fields the constructions care about
    /// are set with the builder-style methods below.
    pub fn program(name: &str, program: &str) -> Self {
        Self {
            name: name.to_owned(),
            description: String::new(),
            kind: ActivityKind::Program {
                program: program.to_owned(),
            },
            input: ContainerSchema::empty(),
            output: ContainerSchema::empty(),
            start: StartCondition::And,
            exit: ExitCondition::always(),
            staff: StaffAssignment::Automatic,
            deadline: None,
            automatic_start: true,
        }
    }

    /// A block activity embedding `process`.
    pub fn block(name: &str, process: ProcessDefinition) -> Self {
        Self {
            kind: ActivityKind::Block {
                process: Box::new(process),
            },
            ..Self::program(name, "")
        }
    }

    /// A no-op activity.
    pub fn noop(name: &str) -> Self {
        Self {
            kind: ActivityKind::NoOp,
            ..Self::program(name, "")
        }
    }

    /// Sets the description.
    pub fn describe(mut self, text: &str) -> Self {
        self.description = text.to_owned();
        self
    }

    /// Sets the input schema.
    pub fn with_input(mut self, schema: ContainerSchema) -> Self {
        self.input = schema;
        self
    }

    /// Sets the output schema.
    pub fn with_output(mut self, schema: ContainerSchema) -> Self {
        self.output = schema;
        self
    }

    /// Sets OR-join start semantics.
    pub fn or_start(mut self) -> Self {
        self.start = StartCondition::Or;
        self
    }

    /// Sets the exit condition from text.
    pub fn with_exit(mut self, expr: &str) -> Self {
        self.exit = ExitCondition::when(expr);
        self
    }

    /// Assigns the activity to a role and makes it manual (a human
    /// must claim it from a worklist).
    pub fn for_role(mut self, role: &str) -> Self {
        self.staff = StaffAssignment::Role(role.to_owned());
        self.automatic_start = false;
        self
    }

    /// Assigns the activity to a specific person (manual start).
    pub fn for_person(mut self, person: &str) -> Self {
        self.staff = StaffAssignment::Person(person.to_owned());
        self.automatic_start = false;
        self
    }

    /// Sets the notification deadline in clock ticks.
    pub fn with_deadline(mut self, ticks: Tick) -> Self {
        self.deadline = Some(ticks);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    #[test]
    fn program_constructor_defaults() {
        let a = Activity::program("T1", "debit");
        assert!(matches!(a.kind, ActivityKind::Program { .. }));
        assert!(a.automatic_start);
        assert_eq!(a.start, StartCondition::And);
        assert_eq!(a.exit, ExitCondition::always());
        assert_eq!(a.staff, StaffAssignment::Automatic);
    }

    #[test]
    fn builder_methods_compose() {
        let a = Activity::program("T1", "debit")
            .describe("withdraw funds")
            .with_output(ContainerSchema::of(&[("State_1", DataType::Int)]))
            .with_exit("RC = 1")
            .for_role("teller")
            .with_deadline(100)
            .or_start();
        assert_eq!(a.description, "withdraw funds");
        assert!(a.output.has("State_1"));
        assert!(a.exit.expr.is_some());
        assert_eq!(a.staff, StaffAssignment::Role("teller".into()));
        assert!(!a.automatic_start);
        assert_eq!(a.deadline, Some(100));
        assert_eq!(a.start, StartCondition::Or);
    }

    #[test]
    fn noop_kind() {
        let a = Activity::noop("NOP");
        assert_eq!(a.kind, ActivityKind::NoOp);
        assert!(!a.kind.is_block());
    }

    #[test]
    #[should_panic(expected = "invalid exit condition")]
    fn bad_exit_condition_panics() {
        let _ = ExitCondition::when("RC = ");
    }
}
