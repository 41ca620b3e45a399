//! The checker: what a correct run of each transaction model looks
//! like, and the tallies a round must repeat exactly.
//!
//! An instance is judged from the *reply* the program gave (state and
//! output container) and, in the round whose journal is read, from a
//! second, independent view that must agree with it: the *execution
//! order* (which activities started, in which order).

use crate::layers::{Reply, State, FLEX, SAGA, SAGA_STEPS};

/// How one instance ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// Saga: every step committed.
    SagaCommitted,
    /// Saga: a step aborted; the committed prefix was compensated in
    /// exact reverse order.
    SagaCompensated,
    /// Flexible transaction committed through path 1, 2 or 3.
    FlexVia(usize),
    /// Flexible transaction aborted before its first pivot committed;
    /// everything committed was compensated.
    FlexAborted,
}

/// Outcome counts of a round. Must be identical across rounds of a
/// run: every round replays the same inputs under the same failure
/// streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    pub committed: u64,
    pub compensated: u64,
    pub p1: u64,
    pub p2: u64,
    pub p3: u64,
    pub aborted: u64,
}

impl Tallies {
    pub fn add(&mut self, ending: Ending) {
        match ending {
            Ending::SagaCommitted => self.committed += 1,
            Ending::SagaCompensated => self.compensated += 1,
            Ending::FlexVia(0) => self.p1 += 1,
            Ending::FlexVia(1) => self.p2 += 1,
            Ending::FlexVia(_) => self.p3 += 1,
            Ending::FlexAborted => self.aborted += 1,
        }
    }

    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("committed", self.committed),
            ("compensated", self.compensated),
            ("p1", self.p1),
            ("p2", self.p2),
            ("p3", self.p3),
            ("aborted", self.aborted),
        ]
    }
}

/// A saga's execution order must be a forward prefix `S1..Sk`, and —
/// unless all steps ran — the compensations of the *committed* prefix
/// `S(k-1)..S1` in exact reverse (the step that aborted has nothing to
/// undo). This is the static compensation order: fixed by the spec,
/// not by what happened to run.
fn saga_ending(order: &str) -> Option<Ending> {
    let mut tokens = order.split(' ');
    if tokens.next()? != "Forward" {
        return None;
    }
    let mut ran = 0;
    let mut next = tokens.next();
    while let Some(step) = next.and_then(|t| t.strip_prefix("Forward/S")) {
        if step.parse::<usize>().ok()? != ran + 1 {
            return None;
        }
        ran += 1;
        next = tokens.next();
    }
    if ran == 0 || ran > SAGA_STEPS {
        return None;
    }
    match next {
        None if ran == SAGA_STEPS => Some(Ending::SagaCommitted),
        Some("Compensation") => {
            if tokens.next()? != "Compensation/NOP" {
                return None;
            }
            for undo in (1..ran).rev() {
                if tokens.next()? != format!("Compensation/Comp_S{undo}") {
                    return None;
                }
            }
            tokens.next().is_none().then_some(Ending::SagaCompensated)
        }
        _ => None,
    }
}

/// The legal executions of Figure 3, as leaf steps (block wrappers and
/// the compensation trigger removed, retries of a retriable step
/// folded): the three preference-ordered paths, or an abort before the
/// pivot `T2` committed.
fn flex_ending(order: &str) -> Option<Ending> {
    let mut leaves: Vec<&str> = Vec::new();
    for token in order.split(' ') {
        let leaf = token.rsplit('/').next()?;
        let wrapper = leaf.starts_with("Blk_")
            || leaf == "NOP"
            || (token.starts_with("Comp_") && !token.contains('/'));
        let retry = matches!(leaf, "T3" | "T7") && leaves.last() == Some(&leaf);
        if !wrapper && !retry {
            leaves.push(leaf);
        }
    }
    match leaves.as_slice() {
        ["T1", "T2", "T4", "T5", "T6", "T8"] => Some(Ending::FlexVia(0)),
        ["T1", "T2", "T4", "T5", "T6", "T8", "Comp_T6", "Comp_T5", "T7"]
        | ["T1", "T2", "T4", "T5", "T6", "Comp_T5", "T7"]
        | ["T1", "T2", "T4", "T5", "T7"] => Some(Ending::FlexVia(1)),
        ["T1", "T2", "T4", "T3"] => Some(Ending::FlexVia(2)),
        ["T1"] | ["T1", "T2", "Comp_T1"] => Some(Ending::FlexAborted),
        _ => None,
    }
}

/// How the reply itself says the instance ended.
fn claimed(process: &str, reply: &Reply) -> Option<Ending> {
    if reply.state != State::Finished {
        return None;
    }
    match (process, reply.output.committed()) {
        (SAGA, true) => Some(Ending::SagaCommitted),
        (SAGA, false) => Some(Ending::SagaCompensated),
        (FLEX, true) => reply.output.via().map(Ending::FlexVia),
        (FLEX, false) => Some(Ending::FlexAborted),
        _ => None,
    }
}

/// Judges one instance of `process` from the program's reply and,
/// where the journal was read, its journalled execution order, which
/// must be a legal one and end the way the reply says. `None` = failed
/// verification.
pub fn judge(process: &str, order: Option<&str>, reply: &Reply) -> Option<Ending> {
    let claimed = claimed(process, reply)?;
    let ran = match (order, process) {
        (None, _) => return Some(claimed),
        (Some(order), SAGA) => saga_ending(order)?,
        (Some(order), _) => flex_ending(order)?,
    };
    (ran == claimed).then_some(claimed)
}

/// Verdict of a round (or of a run, once merged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub tallies: Tallies,
    /// First few failures, for the operator.
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn ended(&mut self, ending: Ending) {
        self.attempted += 1;
        self.tallies.add(ending);
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// Adds the counts and notes of `other`; its tallies are the
    /// caller's business.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Folds a later round in. Tallies are not summed: they must
    /// repeat, and a round that differs is a failure of its own.
    pub fn merge_round(&mut self, round: Verdict) {
        let tallies = round.tallies;
        self.absorb(round);
        let round = tallies;
        if self.tallies == Tallies::default() {
            self.tallies = round;
        } else if self.tallies != round {
            let (first, this) = (self.tallies, round);
            self.fail(|| {
                format!(
                    "outcome tallies differ between rounds: {:?} then {:?}",
                    first.fields(),
                    this.fields()
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saga_orders() {
        let full = "Forward Forward/S1 Forward/S2 Forward/S3 Forward/S4 Forward/S5 Forward/S6 Forward/S7 Forward/S8";
        assert_eq!(saga_ending(full), Some(Ending::SagaCommitted));
        let comp = "Forward Forward/S1 Forward/S2 Forward/S3 Forward/S4 Forward/S5 Forward/S6 \
                    Compensation Compensation/NOP Compensation/Comp_S5 Compensation/Comp_S4 \
                    Compensation/Comp_S3 Compensation/Comp_S2 Compensation/Comp_S1";
        let comp = comp.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(saga_ending(&comp), Some(Ending::SagaCompensated));
        // First step aborts: nothing to undo.
        assert_eq!(
            saga_ending("Forward Forward/S1 Compensation Compensation/NOP"),
            Some(Ending::SagaCompensated)
        );
        // Wrong compensation order, a skipped undo, an undo of the
        // aborted step, a gap in the prefix, a short commit: all fail.
        let swapped = comp.replace(
            "Comp_S5 Compensation/Comp_S4",
            "Comp_S4 Compensation/Comp_S5",
        );
        assert_eq!(saga_ending(&swapped), None);
        assert_eq!(
            saga_ending(&comp.replace(" Compensation/Comp_S3", "")),
            None
        );
        assert_eq!(
            saga_ending(&comp.replace("Compensation/NOP", "Compensation/NOP Compensation/Comp_S6")),
            None
        );
        assert_eq!(saga_ending("Forward Forward/S1 Forward/S3"), None);
        assert_eq!(saga_ending("Forward Forward/S1 Forward/S2"), None);
        assert_eq!(saga_ending(""), None);
    }

    #[test]
    fn flex_orders() {
        let p1 = "Blk_T1 Blk_T1/T1 T2 T4 Blk_T5_T6 Blk_T5_T6/T5 Blk_T5_T6/T6 T8";
        assert_eq!(flex_ending(p1), Some(Ending::FlexVia(0)));
        let p2 = format!("{p1} Comp_T5_T6 Comp_T5_T6/NOP Comp_T5_T6/Comp_T6 Comp_T5_T6/Comp_T5 T7");
        assert_eq!(flex_ending(&p2), Some(Ending::FlexVia(1)));
        assert_eq!(
            flex_ending(&format!("{p2} T7")),
            Some(Ending::FlexVia(1)),
            "retried T7"
        );
        assert_eq!(
            flex_ending("Blk_T1 Blk_T1/T1 T2 T4 T3"),
            Some(Ending::FlexVia(2))
        );
        // T8 failed but nothing was compensated before T7: illegal.
        assert_eq!(flex_ending(&format!("{p1} T7")), None);
        // Compensation in forward order: illegal.
        let forward = p2.replace(
            "Comp_T5_T6/Comp_T6 Comp_T5_T6/Comp_T5",
            "Comp_T5_T6/Comp_T5 Comp_T5_T6/Comp_T6",
        );
        assert_eq!(flex_ending(&forward), None);
        assert_eq!(flex_ending("T2 T4 T3"), None);
    }

    #[test]
    fn tallies_must_repeat() {
        let mut round = Verdict::default();
        round.ended(Ending::SagaCommitted);
        round.ended(Ending::FlexVia(1));
        let mut run = Verdict::default();
        run.merge_round(round.clone());
        run.merge_round(round.clone());
        assert_eq!((run.attempted, run.failed), (4, 0));
        assert_eq!(
            run.tallies, round.tallies,
            "tallies repeat, they do not add up"
        );
        let mut other = Verdict::default();
        other.ended(Ending::SagaCompensated);
        other.ended(Ending::FlexVia(1));
        run.merge_round(other);
        assert_eq!(run.failed, 1);
    }
}
