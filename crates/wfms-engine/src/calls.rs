//! How an engine calls a program: it pays for the program's own
//! transaction, not for the tables around it. The navigator calls
//! nothing; the engine's loop answers each [`Dispatch`] it hands out
//! here, unless its caller answers them (`Engine::run_with`).
//!
//! The registry and the federation change only when something is
//! deployed or provisioned, so an engine resolves each program name once
//! and runs every call in one [`ProgramContext`], whose site cache then
//! resolves each database once (`txn_substrate::program`). The cache is
//! the engine's, not the compiled template's: the shards of a server
//! share templates, each over its own federation. A program registered
//! after the engine resolved its name — a replacement, or one that was
//! missing — moves [`ProgramRegistry::generation`], and the next call
//! resolves every name again.

use crate::navigator::Dispatch;
use std::sync::Arc;
use txn_substrate::fast_hash::FastMap;
use txn_substrate::{MultiDatabase, ProgramContext, ProgramOutcome, ProgramRegistry, TxnProgram};
use wfms_model::Container;

/// The engine's side of every program call.
pub(crate) struct ProgramCalls {
    registry: Arc<ProgramRegistry>,
    /// `registry`'s generation when `resolved` was last cleared.
    stamp: u64,
    /// Each program name called so far, and what it named: `None` if
    /// nothing was registered under it.
    resolved: FastMap<String, Option<Arc<dyn TxnProgram>>>,
    /// The context every call runs in, its `attempt` and `params`
    /// overwritten for each.
    ctx: ProgramContext,
}

impl ProgramCalls {
    /// Calls that run the programs of `registry` against `multidb`.
    pub(crate) fn new(registry: Arc<ProgramRegistry>, multidb: Arc<MultiDatabase>) -> Self {
        Self {
            registry,
            stamp: 0,
            resolved: FastMap::default(),
            ctx: ProgramContext::new(multidb),
        }
    }

    /// Answers `d` by running its program, as its `attempt`-th attempt
    /// over its input: the return code and outputs of a commit, the
    /// return code and no outputs of an abort. A name nothing is
    /// registered under aborts with rc 0: the importer rejects one
    /// statically, but a call must still fail safe.
    pub(crate) fn answer(&mut self, d: &Dispatch<'_>) -> (i64, Container) {
        let stamp = self.registry.generation();
        if stamp != self.stamp {
            self.resolved.clear();
            self.stamp = stamp;
        }
        self.ctx.attempt = d.attempt;
        self.ctx.params = d.input.params().clone();
        let outcome = match self.resolved.get(d.program) {
            Some(Some(program)) => program.run(&mut self.ctx),
            Some(None) => {
                ProgramOutcome::aborted(format!("program {:?} not registered", d.program))
            }
            None => {
                let found = self.registry.get(d.program);
                self.resolved.insert(d.program.to_owned(), found);
                return self.answer(d);
            }
        };
        match outcome {
            ProgramOutcome::Committed { rc, outputs } => (rc, outputs.into_iter().collect()),
            ProgramOutcome::Aborted { rc, .. } => (rc, Container::empty()),
        }
    }
}
