//! How an engine calls a program: it pays for the program's own
//! transaction, not for the tables around it.
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

use std::sync::Arc;
use txn_substrate::fast_hash::FastMap;
use txn_substrate::{
    MultiDatabase, Params, ProgramContext, ProgramOutcome, ProgramRegistry, TxnProgram,
};

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

    /// Runs `program` as its `attempt`-th attempt over `params`. A name
    /// nothing is registered under aborts with rc 0: the importer
    /// rejects one statically, but a call must still fail safe.
    pub(crate) fn call(&mut self, program: &str, attempt: u32, params: &Params) -> ProgramOutcome {
        let stamp = self.registry.generation();
        if stamp != self.stamp {
            self.resolved.clear();
            self.stamp = stamp;
        }
        self.ctx.attempt = attempt;
        self.ctx.params = params.clone();
        if let Some(found) = self.resolved.get(program) {
            return run(found.as_deref(), program, &mut self.ctx);
        }
        let found = self.registry.get(program);
        let outcome = run(found.as_deref(), program, &mut self.ctx);
        self.resolved.insert(program.to_owned(), found);
        outcome
    }
}

fn run(found: Option<&dyn TxnProgram>, name: &str, ctx: &mut ProgramContext) -> ProgramOutcome {
    match found {
        Some(program) => program.run(ctx),
        None => ProgramOutcome::aborted(format!("program {name:?} not registered")),
    }
}
