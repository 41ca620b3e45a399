//! A two-phase-commit "global transaction" baseline — the approach
//! the paper's §2 argues is a dead end in multidatabase environments:
//!
//! > "Since a local database can unilaterally abort a transaction, it
//! > is not possible to enforce the commit semantics of global
//! > transactions."
//!
//! This executor attempts exactly that: one global transaction whose
//! writes span several autonomous local databases, committed with a
//! coordinator-driven two-phase protocol. Because the local databases
//! expose **no prepared state** (they are autonomous — they can still
//! abort anything uncommitted, and once the coordinator starts phase 2
//! each site commits unilaterally), the protocol exhibits precisely
//! the failure modes that motivated sagas and flexible transactions:
//!
//! * a site aborting during phase 1 aborts the global transaction
//!   cleanly (this part works — at the price of holding locks on every
//!   site for the whole global transaction);
//! * a site failing during phase 2 leaves a **heuristic outcome**: some
//!   sites committed, others lost their updates — global atomicity is
//!   gone;
//! * a site becoming unavailable between the phases leaves the
//!   coordinator **blocked**, with locks held on every other site,
//!   stalling unrelated local work.
//!
//! The comparison tests and the report use this executor as the
//! negative baseline against the saga/flexible-transaction executors,
//! which trade global atomicity for semantic atomicity and never
//! block other sites.

use crate::native::trace::{AtmEvent, AtmTrace};
use std::sync::Arc;
use txn_substrate::{MultiDatabase, Value};

/// One site's share of a global transaction: writes applied on that
/// database.
#[derive(Debug, Clone)]
pub struct SiteWrites {
    /// Target database name.
    pub db: String,
    /// Key/value writes.
    pub writes: Vec<(String, Value)>,
}

/// A global transaction specification.
#[derive(Debug, Clone)]
pub struct GlobalTxn {
    /// Name (used as the per-site failure-injection label prefix:
    /// phase-2 failures are scripted via the db's `"<db>/commit"`
    /// label, as with any transaction).
    pub name: String,
    /// Per-site writes, committed in declaration order in phase 2.
    pub sites: Vec<SiteWrites>,
}

/// Outcome of a two-phase-commit attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoPcOutcome {
    /// Every site committed.
    Committed,
    /// A site failed during phase 1; every site rolled back cleanly.
    Aborted {
        /// The site that refused.
        site: String,
    },
    /// Phase 2 partially succeeded: global atomicity is violated.
    Heuristic {
        /// Sites whose commit went through.
        committed: Vec<String>,
        /// Sites whose updates were lost.
        lost: Vec<String>,
    },
    /// A site became unavailable between the phases; the coordinator
    /// gave up after observing it down, releasing the other sites'
    /// locks (a real blocking coordinator would hold them
    /// indefinitely — see the blocking probe in the tests).
    Blocked {
        /// The unreachable site.
        site: String,
    },
}

/// Result of a two-phase-commit attempt.
#[derive(Debug, Clone)]
pub struct TwoPcResult {
    /// What happened.
    pub outcome: TwoPcOutcome,
    /// Site-level trace (`Committed`/`Aborted` per site).
    pub trace: AtmTrace,
}

/// The coordinator.
pub struct TwoPcExecutor {
    multidb: Arc<MultiDatabase>,
}

impl TwoPcExecutor {
    /// Builds a coordinator over `multidb`.
    pub fn new(multidb: Arc<MultiDatabase>) -> Self {
        Self { multidb }
    }

    /// Runs `global`, invoking `between_phases` after every site has
    /// prepared (locks held everywhere) and before the first commit —
    /// the window the blocking tests probe.
    pub fn run_with_probe(&self, global: &GlobalTxn, between_phases: impl FnOnce()) -> TwoPcResult {
        let mut trace = AtmTrace::default();

        // Resolve every site handle up front; the transactions below
        // borrow from this vector for the whole protocol.
        let mut handles = Vec::with_capacity(global.sites.len());
        for site in &global.sites {
            let Some(db) = self.multidb.db(&site.db) else {
                trace.push(AtmEvent::Aborted(site.db.clone(), 0));
                return TwoPcResult {
                    outcome: TwoPcOutcome::Aborted {
                        site: site.db.clone(),
                    },
                    trace,
                };
            };
            handles.push(db);
        }

        // ---- phase 1: acquire everything everywhere -----------------
        let mut prepared = Vec::new();
        for (i, site) in global.sites.iter().enumerate() {
            let mut txn = handles[i].begin();
            let mut failed = false;
            for (k, v) in &site.writes {
                if txn.put(k, v.clone()).is_err() {
                    failed = true;
                    break;
                }
            }
            if failed {
                drop(txn);
                drop(prepared); // Drop aborts every prepared txn.
                trace.push(AtmEvent::Aborted(site.db.clone(), 0));
                return TwoPcResult {
                    outcome: TwoPcOutcome::Aborted {
                        site: site.db.clone(),
                    },
                    trace,
                };
            }
            prepared.push((i, txn, site.db.clone()));
        }

        between_phases();

        // ---- phase 2: commit site by site ---------------------------
        let mut committed = Vec::new();
        let mut lost = Vec::new();
        let mut blocked_site = None;
        for (i, txn, name) in prepared {
            if handles[i].is_down() && committed.is_empty() {
                // Detected before anything committed: give up and
                // release the others (the "coordinator blocked" case;
                // a strict coordinator would wait forever here).
                blocked_site = Some(name);
                break;
            }
            match txn.commit() {
                Ok(()) => {
                    trace.push(AtmEvent::Committed(name.clone()));
                    committed.push(name);
                }
                Err(_) => {
                    trace.push(AtmEvent::Aborted(name.clone(), 0));
                    lost.push(name);
                }
            }
        }

        let outcome = if let Some(site) = blocked_site {
            TwoPcOutcome::Blocked { site }
        } else if lost.is_empty() {
            TwoPcOutcome::Committed
        } else if committed.is_empty() {
            TwoPcOutcome::Aborted {
                site: lost[0].clone(),
            }
        } else {
            TwoPcOutcome::Heuristic { committed, lost }
        };
        TwoPcResult { outcome, trace }
    }

    /// Runs `global` with no probe.
    pub fn run(&self, global: &GlobalTxn) -> TwoPcResult {
        self.run_with_probe(global, || {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_substrate::FailurePlan;

    fn global() -> GlobalTxn {
        GlobalTxn {
            name: "g".into(),
            sites: vec![
                SiteWrites {
                    db: "site_a".into(),
                    writes: vec![("x".into(), Value::Int(1))],
                },
                SiteWrites {
                    db: "site_b".into(),
                    writes: vec![("y".into(), Value::Int(2))],
                },
                SiteWrites {
                    db: "site_c".into(),
                    writes: vec![("z".into(), Value::Int(3))],
                },
            ],
        }
    }

    fn fed() -> Arc<MultiDatabase> {
        let fed = MultiDatabase::new(0);
        for s in ["site_a", "site_b", "site_c"] {
            fed.add_database(s);
        }
        fed
    }

    #[test]
    fn all_sites_commit_when_nothing_fails() {
        let fed = fed();
        let res = TwoPcExecutor::new(Arc::clone(&fed)).run(&global());
        assert_eq!(res.outcome, TwoPcOutcome::Committed);
        assert_eq!(fed.db("site_a").unwrap().peek("x"), Some(Value::Int(1)));
        assert_eq!(fed.db("site_c").unwrap().peek("z"), Some(Value::Int(3)));
    }

    #[test]
    fn phase1_failure_aborts_cleanly() {
        let fed = fed();
        fed.db("site_b").unwrap().set_down(true);
        let res = TwoPcExecutor::new(Arc::clone(&fed)).run(&global());
        assert_eq!(
            res.outcome,
            TwoPcOutcome::Aborted {
                site: "site_b".into()
            }
        );
        assert_eq!(fed.db("site_a").unwrap().peek("x"), None, "no residue");
    }

    #[test]
    fn phase2_unilateral_abort_violates_global_atomicity() {
        // site_b unilaterally aborts at its commit point — the paper's
        // core multidatabase objection, observable as a heuristic
        // outcome: site_a committed, site_b lost.
        let fed = fed();
        fed.injector()
            .set_plan("site_b/commit", FailurePlan::Always);
        let res = TwoPcExecutor::new(Arc::clone(&fed)).run(&global());
        match res.outcome {
            TwoPcOutcome::Heuristic { committed, lost } => {
                assert_eq!(committed, vec!["site_a".to_string(), "site_c".to_string()]);
                assert_eq!(lost, vec!["site_b".to_string()]);
            }
            other => panic!("expected heuristic outcome, got {other:?}"),
        }
        // The inconsistency is real: x and z exist, y does not.
        assert_eq!(fed.db("site_a").unwrap().peek("x"), Some(Value::Int(1)));
        assert_eq!(fed.db("site_b").unwrap().peek("y"), None);
        assert_eq!(fed.db("site_c").unwrap().peek("z"), Some(Value::Int(3)));
    }

    #[test]
    fn site_failure_between_phases_blocks_and_stalls_other_sites() {
        let fed = fed();
        let fed2 = Arc::clone(&fed);
        let exec = TwoPcExecutor::new(Arc::clone(&fed));
        let res = exec.run_with_probe(&global(), move || {
            // The coordinator holds locks on every site. Unrelated
            // local work on site_a now stalls: probe with a timeout.
            fed2.db("site_a").unwrap().set_down(false); // (it is up)
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let fed3 = Arc::clone(&fed2);
            std::thread::spawn(move || {
                let db = fed3.db("site_a").unwrap();
                let mut t = db.begin();
                let r = t.put("x", 99i64); // conflicts with the prepared write
                let _ = tx.send(r.is_ok());
            });
            assert!(
                rx.recv_timeout(std::time::Duration::from_millis(100))
                    .is_err(),
                "local transaction must be stalled behind the global lock"
            );
            // Now the coordinator's target site crashes.
            fed2.db("site_a").unwrap().set_down(true);
        });
        assert_eq!(
            res.outcome,
            TwoPcOutcome::Blocked {
                site: "site_a".into()
            }
        );
        // Our coordinator gives up and releases; the stalled local
        // transaction can eventually proceed once site_a is back.
        fed.db("site_a").unwrap().set_down(false);
    }
}
