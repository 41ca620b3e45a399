//! # wfms-engine
//!
//! A FlowMark-class workflow execution engine ("navigator")
//! implementing exactly the semantics §3.2–3.3 of the reproduced paper
//! relies on:
//!
//! * the activity state machine (ready / running / finished /
//!   terminated) with AND/OR start conditions and exit-condition
//!   loops;
//! * **dead path elimination**;
//! * data-flow materialisation between typed containers;
//! * blocks (embedded subprocesses) for nesting and loops;
//! * an organization model with role-based staff resolution,
//!   worklists with claim semantics, deadlines and notifications;
//! * a persistent journal with **forward recovery** — crash the
//!   engine, reopen the journal, and execution resumes from the exact
//!   navigation frontier, re-running whatever was in flight.
//!
//! The engine executes *transactional programs* registered in a
//! [`txn_substrate::ProgramRegistry`] against a
//! [`txn_substrate::MultiDatabase`]; their return codes drive the
//! transition conditions, which is the entire interface the paper's
//! saga / flexible-transaction constructions need.
//!
//! ```
//! use std::sync::Arc;
//! use txn_substrate::{MultiDatabase, ProgramRegistry, KvProgram};
//! use wfms_model::{ProcessBuilder, Container};
//! use wfms_engine::{Engine, InstanceStatus};
//!
//! let fed = MultiDatabase::new(0);
//! fed.add_database("db");
//! let programs = Arc::new(ProgramRegistry::new());
//! programs.register(Arc::new(KvProgram::write("hello", "db", "greeting", "hi")));
//!
//! let process = ProcessBuilder::new("demo").program("Say", "hello").build().unwrap();
//! let engine = Engine::new(fed.clone(), programs);
//! engine.register(process).unwrap();
//! let id = engine.start("demo", Container::empty()).unwrap();
//! assert_eq!(engine.run_to_quiescence(id).unwrap(), InstanceStatus::Finished);
//! assert_eq!(fed.db("db").unwrap().peek("greeting"), Some("hi".into()));
//! ```

pub mod audit;
mod calls;
mod codec;
pub mod compiled;
pub mod crashtest;
pub mod engine;
pub mod event;
pub mod interp;
pub mod journal;
pub mod metrics;
mod navigator;
pub mod optimize;
pub mod org;
pub mod recovery;
pub mod registry;
pub mod state;
pub mod worklist;

pub use compiled::{spec_hash_of, ActId, CompiledProcess, CompiledScope, EdgeId};
pub use crashtest::{CrashPointResult, SweepConfig, SweepReport, SweepScript};
pub use engine::{Engine, EngineConfig, EngineError, InstanceView, MigrationOutcome};
pub use event::{Checkpoint, Event, InstanceId, InstanceSnapshot, WorkItemId};
pub use interp::RefEngine;
pub use journal::Journal;
pub use navigator::Dispatch;
pub use optimize::{OptStats, ScopeFacts};
pub use org::{OrgModel, Person};
pub use recovery::{recover, recover_from, recover_with_policy, RecoveryError, Replayed};
pub use registry::TemplateVersion;
pub use state::{ActState, ActivityRt, Instance, InstanceStatus, ScopeState};
pub use wfms_observe::Observer;
pub use worklist::{WorkItem, WorkItemState, WorklistError, WorklistStore};
