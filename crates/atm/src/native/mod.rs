//! Native executors — the transaction models run *directly* against
//! the substrate, with no workflow engine involved.
//!
//! These are the baselines of the paper's argument: §4 shows the same
//! guarantees can be obtained by compiling the models onto a WFMS.
//! The equivalence tests execute both (native executor vs translated
//! workflow process) under identical failure scripts and compare the
//! final database state and compensation order.

pub mod flex_exec;
pub mod saga_exec;
pub mod trace;
pub mod twopc;

use crate::spec::StepSpec;
use std::sync::Arc;
use trace::{AtmEvent, AtmTrace};
use txn_substrate::{MultiDatabase, ProgramContext, ProgramRegistry};

/// Runs `step`'s compensation until it commits: compensations are
/// retriable ("the compensation must be executed", appendix), retried
/// up to `max_retries` times. `Err` names the step whose compensation
/// exhausted the bound.
fn compensate(
    multidb: &Arc<MultiDatabase>,
    registry: &ProgramRegistry,
    max_retries: u32,
    step: &StepSpec,
    trace: &mut AtmTrace,
) -> Result<(), String> {
    let comp = step
        .compensation
        .as_deref()
        .expect("well-formedness guarantees a compensation for every step undone");
    let mut attempt = 0u32;
    loop {
        let mut ctx = ProgramContext::new(Arc::clone(multidb));
        ctx.attempt = attempt;
        if registry.invoke(comp, &mut ctx).is_committed() {
            trace.push(AtmEvent::Compensated(step.name.clone()));
            return Ok(());
        }
        attempt += 1;
        trace.push(AtmEvent::CompensationRetried(step.name.clone(), attempt));
        if attempt > max_retries {
            return Err(step.name.clone());
        }
    }
}
