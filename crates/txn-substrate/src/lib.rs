//! # txn-substrate
//!
//! The transactional substrate underneath the workflow/transaction-model
//! stack: a **heterogeneous multidatabase** made of autonomous local
//! databases, each providing ACID transactions via strict two-phase
//! locking and a write-ahead log.
//!
//! The paper this repository reproduces (Alonso et al., *Advanced
//! Transaction Models in Workflow Contexts*, ICDE 1996) treats
//! subtransactions of sagas and flexible transactions as ordinary ACID
//! transactions executed against independent local DBMSs that may
//! **unilaterally abort**. This crate supplies exactly that building
//! block:
//!
//! * [`Database`] — one autonomous local database: an in-memory
//!   versioned key/value store guarded by a [`lock::LockManager`]
//!   (strict 2PL, deadlock detection by wait-for-graph cycle search)
//!   and a [`wal::Wal`] (physiological before/after-image logging,
//!   redo-from-log recovery).
//! * [`log`] and [`frame`] — the one mirrored, checksummed-frame log
//!   the WAL is an instance of; the workflow engine's journal is the
//!   other.
//! * [`MultiDatabase`] — a federation of named local databases with no
//!   global concurrency control or global commit — the multidatabase
//!   assumption of flexible transactions.
//! * [`inject`] — deterministic failure injection: scripted unilateral
//!   aborts (e.g. "abort the first 2 attempts" to model *retriable*
//!   subtransactions).
//! * [`program`] — the *transactional program* abstraction used by the
//!   upper layers: a named unit of work that runs one transaction and
//!   reports a return code, optionally paired with a compensation
//!   program (the saga/flexible-transaction vocabulary of
//!   compensatable / retriable / pivot steps).
//! * [`params`] — the named values a program is handed, which a
//!   workflow container holds: one name-ordered allocation per map.
//! * [`fast_hash`] — the unkeyed [`fast_hash::FastMap`] for tables
//!   whose keys the process makes; tables filled from outside bytes
//!   keep `std`'s keyed hasher.
//! * [`clock`] — a virtual clock shared with the workflow engine so
//!   tests and benchmarks are deterministic.
//!
//! The store is deliberately key/value rather than relational: the
//! paper's constructions only need atomic state changes, return codes
//! and compensation; a SQL front end would add bulk without exercising
//! any additional behaviour from the paper.

pub mod clock;
pub mod db;
pub mod durability;
pub mod fast_hash;
pub mod frame;
pub mod inject;
pub mod lock;
pub mod log;
pub mod multidb;
mod name;
pub mod params;
pub mod program;
#[doc(hidden)]
pub mod properties;
pub mod storage;
pub mod txn;
pub mod value;
pub mod wal;

pub use clock::{Tick, VirtualClock};
pub use db::{Database, DbConfig, DbError, DbStats};
pub use durability::{DurabilityPolicy, MirrorError, TailReport, TornTail};
pub use inject::{on_attempts, FailureAction, FailurePlan, Injector, InjectorHandle};
pub use lock::{LockError, LockManager, LockMode, LockStats};
pub use multidb::MultiDatabase;
pub use params::{no_params, Params};
pub use program::{
    FnProgram, KvProgram, ProgramContext, ProgramOutcome, ProgramRegistry, StepClass, TxnProgram,
};
pub use storage::{Key, Storage};
pub use txn::{Transaction, TxnId, TxnStatus};
pub use value::Value;
pub use wal::{LogRecord, Lsn, Wal, WalStats};
