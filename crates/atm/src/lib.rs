//! # atm — advanced transaction models
//!
//! The transaction models §4 of the reproduced paper implements on a
//! workflow system, here in their original, *native* form:
//!
//! * [`SagaSpec`] — linear sagas (García-Molina & Salem): a long-lived
//!   transaction split into a list of ACID subtransactions, each paired
//!   with a compensating transaction; either all execute, or the
//!   committed prefix is compensated in reverse order.
//! * [`FlexSpec`] — flexible transactions (multidatabase model of
//!   Elmagarmid et al. / Zhang et al.): alternative execution paths in
//!   preference order over subtransactions classified *compensatable*,
//!   *retriable* or *pivot*, with the well-formedness rules of §4.2.
//! * [`wellformed`] — the static checks ("only compensatable steps
//!   between pivots, a guaranteed way out after every pivot").
//!   [`check_saga`] and [`check_flex`] run them once and return the
//!   [`Checked`] form: step names resolved to their steps, each path a
//!   list of steps, and the one switch rule every consumer reads
//!   ([`Resolved::switch`], [`Resolved::failures`]). A saga checks into
//!   a flexible transaction of one path without forward retry.
//! * [`native`] — reference executors that run the models *directly*
//!   against the transactional substrate, both on one loop over the
//!   checked form. These are the baselines the benchmarks compare the
//!   workflow-hosted translations against, and the oracles the
//!   equivalence tests check Exotica translations with.
//! * [`fixtures`] — the paper's running examples (the Figure 3
//!   flexible transaction, parameterised linear sagas) with their
//!   program sets, shared by tests, benchmarks and examples.

pub mod checked;
pub mod fixtures;
pub mod flexible;
pub mod native;
pub mod saga;
pub mod spec;
pub mod wellformed;

pub use checked::{Checked, Failure, Resolved, Source, Switch};
pub use flexible::{FlexSpec, FlexStep};
pub use native::flex_exec::{FlexExecutor, FlexOutcome, FlexResult};
pub use native::saga_exec::{SagaExecutor, SagaOutcome, SagaResult};
pub use native::trace::{AtmEvent, AtmTrace};
pub use native::twopc::{GlobalTxn, SiteWrites, TwoPcExecutor, TwoPcOutcome, TwoPcResult};
pub use saga::SagaSpec;
pub use spec::StepSpec;
pub use wellformed::{check_flex, check_saga, WellFormedError};
