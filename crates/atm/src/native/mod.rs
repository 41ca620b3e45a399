//! Native executors — the transaction models run *directly* against
//! the substrate, with no workflow engine involved.
//!
//! These are the baselines of the paper's argument: §4 shows the same
//! guarantees can be obtained by compiling the models onto a WFMS.
//! The equivalence tests execute both (native executor vs translated
//! workflow process) under identical failure scripts and compare the
//! final database state and compensation order.
//!
//! Both models run on one loop, `run`, over the [`Checked`] form: a
//! saga is its one path with forward retry off, so the loop's switch
//! rule compensates exactly García-Molina & Salem's `Cj … C1`, in the
//! dynamic (reverse commit) order.

pub mod flex_exec;
pub mod saga_exec;
pub mod trace;
pub mod twopc;

use crate::checked::Checked;
use crate::spec::StepSpec;
use std::sync::Arc;
use trace::{AtmEvent, AtmTrace};
use txn_substrate::{MultiDatabase, ProgramContext, ProgramRegistry};

/// How a run of a checked specification ended.
enum Ended {
    /// The path with this index ran to its end.
    Committed(usize),
    /// This step aborted and no later path avoids it: everything
    /// committed was compensated.
    Aborted(String),
    /// This step (forward or compensation) exhausted its retries.
    Stuck(String),
}

/// Runs `spec` natively, recording into `trace`:
///
/// * steps run in path order; steps already committed on a previous
///   path (the shared prefix) are not re-executed;
/// * an abort of a step the form [`retries`](crate::Resolved::retries)
///   is retried until it commits ("T3 can be retried until it
///   commits");
/// * any other abort abandons the current path: the switch rule names
///   the fallback path and the committed steps it does not keep, which
///   are compensated newest first before execution continues there —
///   or, with no fallback, before the run aborts.
///
/// `max_retries` bounds every retry loop, forward and compensation.
/// Returns how the run ended and the steps still committed.
fn run<'s>(
    spec: &Checked<'s>,
    multidb: &Arc<MultiDatabase>,
    registry: &ProgramRegistry,
    max_retries: u32,
    trace: &mut AtmTrace,
) -> (Ended, Vec<&'s StepSpec>) {
    // One context for every call of the run: the sites its programs
    // resolve stay resolved.
    let mut ctx = ProgramContext::new(Arc::clone(multidb));
    // In commit order: the switch undoes newest first.
    let mut committed: Vec<&StepSpec> = Vec::new();
    let mut k = 0usize;
    let ended = 'paths: loop {
        for &step in &spec.paths()[k] {
            if committed.iter().any(|c| std::ptr::eq(*c, step)) {
                continue; // shared prefix with an earlier path
            }
            let retry = spec.retries(step);
            match forward(&mut ctx, registry, max_retries, retry, step, trace) {
                Ok(true) => committed.push(step),
                Err(stuck) => break 'paths Ended::Stuck(stuck),
                Ok(false) => {
                    let switch = spec.switch(k, &committed, step);
                    for &undone in &switch.undo {
                        if let Err(stuck) =
                            compensate(&mut ctx, registry, max_retries, undone, trace)
                        {
                            break 'paths Ended::Stuck(stuck);
                        }
                        committed.retain(|c| !std::ptr::eq(*c, undone));
                    }
                    let Some(to) = switch.to else {
                        break 'paths Ended::Aborted(step.name.clone());
                    };
                    trace.push(AtmEvent::PathSwitched { from: k, to });
                    k = to;
                    continue 'paths;
                }
            }
        }
        break Ended::Committed(k);
    };
    (ended, committed)
}

/// Runs `step`'s forward program: `Ok` says whether it committed; with
/// `retry`, an abort is retried up to `max_retries` times, and `Err`
/// names the step that exhausted the bound.
fn forward(
    ctx: &mut ProgramContext,
    registry: &ProgramRegistry,
    max_retries: u32,
    retry: bool,
    step: &StepSpec,
    trace: &mut AtmTrace,
) -> Result<bool, String> {
    let mut attempt = 0u32;
    loop {
        ctx.attempt = attempt;
        if registry.invoke(&step.program, ctx).is_committed() {
            trace.push(AtmEvent::Committed(step.name.clone()));
            return Ok(true);
        }
        trace.push(AtmEvent::Aborted(step.name.clone(), attempt));
        if !retry {
            return Ok(false);
        }
        attempt += 1;
        trace.push(AtmEvent::Retried(step.name.clone(), attempt));
        if attempt > max_retries {
            return Err(step.name.clone());
        }
    }
}

/// Runs `step`'s compensation until it commits: compensations are
/// retriable ("the compensation must be executed", appendix), retried
/// up to `max_retries` times. `Err` names the step whose compensation
/// exhausted the bound.
fn compensate(
    ctx: &mut ProgramContext,
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
        ctx.attempt = attempt;
        if registry.invoke(comp, ctx).is_committed() {
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
