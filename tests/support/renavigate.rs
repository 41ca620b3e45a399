//! The re-navigation oracle: navigation is a function of the program
//! outcomes. Each instance a journal started is run again on a fresh
//! engine through `Engine::run_with`, each dispatch answered with the
//! return code and output its `ActivityFinished` journalled — after the
//! clock is moved to that event's tick, since a program with a duration
//! moves the clock — and must journal what the journal holds, event by
//! event and tick by tick: all of it for an instance that stopped, a
//! prefix of the re-derived run for one a cut left running. An
//! instance that finished has no event after its `InstanceFinished`.
//!
//! Its inputs are starts and program outcomes. An instance whose
//! journal holds another — a work item, an intervention, a migration,
//! a notification, a cancel — is started, so that the ids after it
//! stay in step, and counted as skipped.
//!
//! Included by `#[path]` from the tests that hold its corpus.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use txn_substrate::frame::Name;
use txn_substrate::Value;
use wfms_engine::{Engine, Event, InstanceId};
use wfms_model::{Container, RC_MEMBER};

/// What re-navigating a journal found.
#[derive(Debug, Default)]
pub struct Renavigated {
    /// Instances re-derived and compared.
    checked: usize,
    /// Instances whose journal holds an input beyond starts and program
    /// outcomes.
    skipped: usize,
    /// Compared instances whose journal a cut left running.
    cut: usize,
    /// One line per compared instance whose events differ from the
    /// journal's: the first difference.
    mismatches: Vec<String>,
}

impl Renavigated {
    /// Asserts that no instance differs, and the pinned counts of
    /// instances `checked`, `skipped` and `cut`: the scope cannot
    /// shrink unseen.
    pub fn assert_counts(&self, checked: usize, skipped: usize, cut: usize) {
        assert!(self.mismatches.is_empty(), "{:#?}", self.mismatches);
        let counts = (self.checked, self.skipped, self.cut);
        assert_eq!(counts, (checked, skipped, cut), "(checked, skipped, cut)");
    }
}

/// A journalled program outcome: return code, output, tick.
type Outcome = (i64, Container, u64);

/// Re-navigates `journal` on `engine`: one with the journal's
/// templates registered, whose next instance id is the first one
/// `journal` starts. Events of an instance `journal` does not start
/// are not looked at.
pub fn renavigate(engine: &Engine, journal: &[Event]) -> Renavigated {
    let mut of: BTreeMap<InstanceId, Vec<&Event>> = BTreeMap::new();
    for ev in journal {
        if let Some(id) = ev.instance() {
            of.entry(id).or_default().push(ev);
        }
    }
    of.retain(|_, evs| matches!(evs[0], Event::InstanceStarted { .. }));
    let skipped: BTreeSet<InstanceId> = of
        .iter()
        .filter(|(_, evs)| evs.iter().any(|ev| !navigated(ev)))
        .map(|(id, _)| *id)
        .collect();

    let mut outcomes: BTreeMap<(InstanceId, Name, u32), VecDeque<Outcome>> = BTreeMap::new();
    for ev in journal {
        if let Event::ActivityFinished {
            instance,
            path,
            attempt,
            output,
            at,
        } = ev
        {
            let rc = match output.get(RC_MEMBER) {
                Some(Value::Int(rc)) => *rc,
                other => panic!("{instance} {path}: RC is {other:?}"),
            };
            let key = (*instance, *path, *attempt);
            outcomes
                .entry(key)
                .or_default()
                .push_back((rc, output.clone(), *at));
        }
    }

    // Walk the journal: an event the engine has not derived yet is an
    // input — a start, or a run of the instance from its next start.
    let mut walked: BTreeMap<InstanceId, usize> = BTreeMap::new();
    let mut derived: BTreeMap<InstanceId, usize> = BTreeMap::new();
    let mut found = Renavigated::default();
    for ev in journal {
        let Some(id) = ev.instance().filter(|id| of.contains_key(id)) else {
            continue;
        };
        let n = walked.entry(id).or_default();
        *n += 1;
        if *n <= derived.get(&id).copied().unwrap_or(0) {
            continue;
        }
        match ev {
            Event::InstanceStarted {
                process,
                tenant,
                input,
                at,
                ..
            } => {
                engine.clock().advance_to(*at);
                let started = engine.start_for_tenant(process, input.clone(), *tenant);
                assert_eq!(started.ok(), Some(id), "the fresh engine starts {id} next");
            }
            Event::ActivityStarted { at, .. } if !skipped.contains(&id) => {
                engine.clock().advance_to(*at);
                let answered = engine.run_with(id, |d| {
                    let key = (d.instance, d.path, d.attempt);
                    match outcomes.get_mut(&key).and_then(VecDeque::pop_front) {
                        Some((rc, output, at)) => {
                            engine.clock().advance_to(at);
                            (rc, output)
                        }
                        // Past a cut: any outcome will do.
                        None => (1, Container::empty()),
                    }
                });
                if let Err(e) = answered {
                    found.mismatches.push(format!("{id}: {e}"));
                }
            }
            _ => continue,
        }
        derived.insert(id, engine.events_for(id).len());
    }

    for (id, evs) in &of {
        if skipped.contains(id) {
            found.skipped += 1;
            continue;
        }
        found.checked += 1;
        // Nothing of an instance follows its finish.
        let finish = evs
            .iter()
            .position(|ev| matches!(ev, Event::InstanceFinished { .. }));
        if let Some(after) = finish.map(|at| evs.len() - at - 1).filter(|&n| n > 0) {
            found
                .mismatches
                .push(format!("{id}: {after} events journalled after its finish"));
        }
        let stopped = finish.is_some();
        found.cut += usize::from(!stopped);
        let again = engine.events_for(*id);
        let differs = evs.iter().zip(&again).position(|(was, is)| *was != is);
        if let Some(at) = differs {
            found.mismatches.push(format!(
                "{id} event {at}: journalled {:?}, re-derived {:?}",
                evs[at], again[at]
            ));
        } else if again.len() < evs.len() || (stopped && again.len() != evs.len()) {
            found.mismatches.push(format!(
                "{id}: {} events journalled, {} re-derived",
                evs.len(),
                again.len()
            ));
        }
    }
    found
}

/// True for an event navigation derives from starts and program
/// outcomes alone.
fn navigated(ev: &Event) -> bool {
    match ev {
        Event::ActivityStarted { by, .. } => by.is_none(),
        Event::InstanceStarted { .. }
        | Event::ActivityReady { .. }
        | Event::ActivityFinished { .. }
        | Event::ActivityRescheduled { .. }
        | Event::ActivityTerminated { .. }
        | Event::ConnectorEvaluated { .. }
        | Event::InstanceFinished { .. } => true,
        _ => false,
    }
}
