//! Deterministic failure injection.
//!
//! The transaction models reproduced here are *defined by* their
//! response to failure: a saga aborts partway and compensates; a
//! retriable subtransaction "will eventually commit if retried a
//! sufficient number of times"; a pivot either commits or forces a
//! path switch. To test and benchmark those behaviours the substrate
//! must fail **on demand and reproducibly**.
//!
//! An [`Injector`] maps *labels* (usually a program or database name)
//! to [`FailurePlan`]s. Each time a labelled operation reaches its
//! decision point it calls [`Injector::decide`], which counts the
//! attempt and answers *proceed* or *abort*. Plans express every
//! pattern the paper's constructions need:
//!
//! * `FirstN(k)` — fail the first `k` attempts, then succeed: a
//!   **retriable** subtransaction that needs `k` retries.
//! * `Always` — a subtransaction that can never commit (exercises the
//!   alternative-path machinery of flexible transactions).
//! * `OnAttempts{..}` — fail exactly the listed attempts: lets tests
//!   enumerate *every* outcome vector of a transaction exhaustively
//!   (experiment E4).
//! * `Probability{p}` — seeded stochastic failures for the benchmark
//!   sweeps (experiment B3).
//!
//! Stochastic plans are reproducible whatever order instances are
//! driven in: each label owns its **own** random stream, seeded with
//! `seed ⊕ fnv1a(label)`. With one shared generator the decision a
//! label saw would depend on how many draws *other* labels had made
//! first — on how a shard worker happened to interleave its instances,
//! on the shard count, on whether a run was resumed after a crash —
//! and a seeded workload would not repeat. Per-label streams make a
//! label's k-th draw a pure function of `(seed, label, k)`.

use crate::fast_hash::FastMap;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a labelled operation should do at its decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Carry on normally.
    Proceed,
    /// Unilaterally abort.
    Abort,
}

/// A scripted failure pattern for one label.
#[derive(Debug, Clone, PartialEq)]
pub enum FailurePlan {
    /// Never fail (the default for unknown labels).
    Never,
    /// Fail every attempt.
    Always,
    /// Fail attempts `0..n`, succeed from attempt `n` on.
    FirstN(u32),
    /// Fail exactly the listed attempt numbers (0-based).
    OnAttempts(BTreeSet<u32>),
    /// Fail each attempt independently with probability `p`,
    /// drawn from the injector's seeded generator.
    Probability { p: f64 },
}

#[derive(Debug)]
struct PlanState {
    plan: FailurePlan,
    attempts: u32,
    /// This label's private random stream (seeded `seed ⊕
    /// fnv1a(label)`), consulted only by `Probability` plans. Keeping
    /// it per label makes stochastic decisions independent of what any
    /// other label draws, so any order of driving instances agrees.
    rng: StdRng,
}

/// FNV-1a over the label bytes: a stable, dependency-free 64-bit hash
/// (`std`'s `DefaultHasher` is explicitly allowed to change between
/// releases, which would silently reshuffle every seeded benchmark).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A shared, thread-safe failure-injection oracle.
#[derive(Debug)]
pub struct Injector {
    plans: Mutex<FastMap<String, PlanState>>,
    seed: u64,
}

/// Shared handle to an [`Injector`].
pub type InjectorHandle = Arc<Injector>;

impl Injector {
    /// Creates an injector whose stochastic plans draw from per-label
    /// generators derived from `seed` (identical seeds ⇒ identical
    /// runs, regardless of scheduling).
    pub fn new(seed: u64) -> InjectorHandle {
        Arc::new(Self {
            plans: Mutex::default(),
            seed,
        })
    }

    /// The base seed the per-label streams are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installs (or replaces) the plan for `label`, resetting its
    /// attempt counter and re-seeding its random stream.
    pub fn set_plan(&self, label: &str, plan: FailurePlan) {
        self.plans.lock().insert(
            label.to_owned(),
            PlanState {
                plan,
                attempts: 0,
                rng: StdRng::seed_from_u64(self.seed ^ fnv1a(label.as_bytes())),
            },
        );
    }

    /// Consults the plan for `label`, counting this call as one
    /// attempt. Unknown labels always proceed.
    pub fn decide(&self, label: &str) -> FailureAction {
        let mut plans = self.plans.lock();
        let Some(state) = plans.get_mut(label) else {
            return FailureAction::Proceed;
        };
        let attempt = state.attempts;
        state.attempts += 1;
        let fail = match &state.plan {
            FailurePlan::Never => false,
            FailurePlan::Always => true,
            FailurePlan::FirstN(n) => attempt < *n,
            FailurePlan::OnAttempts(set) => set.contains(&attempt),
            FailurePlan::Probability { p } => {
                let p = *p;
                let roll: f64 = state.rng.gen();
                roll < p
            }
        };
        if fail {
            FailureAction::Abort
        } else {
            FailureAction::Proceed
        }
    }

    /// How many attempts `label` has made so far.
    pub fn attempts(&self, label: &str) -> u32 {
        self.plans
            .lock()
            .get(label)
            .map(|s| s.attempts)
            .unwrap_or(0)
    }
}

/// Convenience constructor for [`FailurePlan::OnAttempts`].
pub fn on_attempts<I: IntoIterator<Item = u32>>(attempts: I) -> FailurePlan {
    FailurePlan::OnAttempts(attempts.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_labels_proceed() {
        let inj = Injector::new(0);
        assert_eq!(inj.decide("nope"), FailureAction::Proceed);
        assert_eq!(inj.attempts("nope"), 0);
    }

    #[test]
    fn first_n_models_retriable() {
        let inj = Injector::new(0);
        inj.set_plan("T3", FailurePlan::FirstN(2));
        assert_eq!(inj.decide("T3"), FailureAction::Abort);
        assert_eq!(inj.decide("T3"), FailureAction::Abort);
        assert_eq!(inj.decide("T3"), FailureAction::Proceed);
        assert_eq!(inj.decide("T3"), FailureAction::Proceed);
        assert_eq!(inj.attempts("T3"), 4);
    }

    #[test]
    fn always_fails() {
        let inj = Injector::new(0);
        inj.set_plan("dead", FailurePlan::Always);
        for _ in 0..5 {
            assert_eq!(inj.decide("dead"), FailureAction::Abort);
        }
    }

    #[test]
    fn on_attempts_targets_exact_attempts() {
        let inj = Injector::new(0);
        inj.set_plan("T", on_attempts([1, 3]));
        let pattern: Vec<_> = (0..5).map(|_| inj.decide("T")).collect();
        assert_eq!(
            pattern,
            vec![
                FailureAction::Proceed,
                FailureAction::Abort,
                FailureAction::Proceed,
                FailureAction::Abort,
                FailureAction::Proceed,
            ]
        );
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let run = |seed| {
            let inj = Injector::new(seed);
            inj.set_plan("p", FailurePlan::Probability { p: 0.5 });
            (0..32).map(|_| inj.decide("p")).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed, same outcomes");
        assert_ne!(run(42), run(43), "different seeds diverge (w.h.p.)");
    }

    #[test]
    fn set_plan_resets_attempts() {
        let inj = Injector::new(0);
        inj.set_plan("x", FailurePlan::FirstN(1));
        inj.decide("x");
        inj.decide("x");
        assert_eq!(inj.attempts("x"), 2);
        inj.set_plan("x", FailurePlan::FirstN(1));
        assert_eq!(inj.attempts("x"), 0);
        assert_eq!(inj.decide("x"), FailureAction::Abort);
    }

    #[test]
    fn probability_streams_are_per_label() {
        // Label "a"'s k-th decision is a pure function of (seed,
        // label, k): interleaving draws on other labels — which is
        // what driving instances in another order, or on another
        // number of shards, does — must not perturb it.
        for seed in [0, 7, 41] {
            let solo = {
                let inj = Injector::new(seed);
                inj.set_plan("a", FailurePlan::Probability { p: 0.5 });
                (0..32).map(|_| inj.decide("a")).collect::<Vec<_>>()
            };
            let interleaved = {
                let inj = Injector::new(seed);
                inj.set_plan("a", FailurePlan::Probability { p: 0.5 });
                inj.set_plan("b", FailurePlan::Probability { p: 0.5 });
                (0..32)
                    .map(|i| {
                        for _ in 0..(i % 3) {
                            inj.decide("b");
                        }
                        inj.decide("a")
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(solo, interleaved, "seed {seed}: streams are independent");
            // The coin lands both ways, or the comparison is vacuous.
            let aborts = solo.iter().filter(|&&d| d == FailureAction::Abort).count();
            assert!(
                aborts > 0 && aborts < 32,
                "seed {seed}: {aborts}/32 aborted"
            );
        }
    }

    #[test]
    fn probability_extremes() {
        let inj = Injector::new(1);
        inj.set_plan("zero", FailurePlan::Probability { p: 0.0 });
        inj.set_plan("one", FailurePlan::Probability { p: 1.0 });
        for _ in 0..16 {
            assert_eq!(inj.decide("zero"), FailureAction::Proceed);
            assert_eq!(inj.decide("one"), FailureAction::Abort);
        }
    }
}
