//! Transactional programs — the unit of work the upper layers invoke.
//!
//! The paper is explicit about granularity (§3.1): a workflow system
//! controls *applications*, not operations inside them. A
//! [`TxnProgram`] is that application: a named, registered unit that,
//! when invoked, runs (typically) one transaction against one local
//! database and reports an outcome with a **return code** — exactly
//! what the Figure 2/Figure 4 constructions consume through their
//! transition conditions.
//!
//! The vocabulary of saga and flexible-transaction steps lives here
//! too: a step is *compensatable* (has a registered compensation
//! program), *retriable* (will eventually commit if retried), a
//! *pivot* (neither), or both compensatable and retriable
//! ([`StepClass`]).

use crate::fast_hash::FastMap;
use crate::inject::{FailureAction, InjectorHandle};
use crate::multidb::MultiDatabase;
use crate::params::{no_params, Params};
use crate::value::Value;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Classification of a subtransaction in the saga / flexible
/// transaction models (after Mehrotra et al. and Zhang et al., as
/// summarised in §4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StepClass {
    /// Effects can be semantically undone after commit by a
    /// compensation program.
    Compensatable,
    /// Will eventually commit if retried sufficiently often.
    Retriable,
    /// Both compensatable and retriable.
    CompensatableRetriable,
    /// Neither: once attempted, commit is the only safe forward path.
    Pivot,
}

impl StepClass {
    /// True if a compensation program can undo this step after commit.
    pub fn is_compensatable(self) -> bool {
        matches!(
            self,
            StepClass::Compensatable | StepClass::CompensatableRetriable
        )
    }

    /// True if retrying is guaranteed to eventually commit.
    pub fn is_retriable(self) -> bool {
        matches!(
            self,
            StepClass::Retriable | StepClass::CompensatableRetriable
        )
    }

    /// True if this step is a pivot.
    pub fn is_pivot(self) -> bool {
        self == StepClass::Pivot
    }
}

/// The result of invoking a program.
///
/// `rc` is the program's return code as seen by workflow transition
/// conditions. The constructions in the paper use the convention
/// *committed ⇒ rc = 1, aborted ⇒ rc = 0* (§4.2); programs are free to
/// return richer codes, and conditions compare against them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgramOutcome {
    /// The program's transaction committed.
    Committed {
        /// Return code (defaults to 1).
        rc: i64,
        /// Named outputs handed back to the caller (mapped into
        /// workflow output containers).
        outputs: BTreeMap<String, Value>,
    },
    /// The program's transaction aborted (unilaterally or by choice).
    Aborted {
        /// Return code (defaults to 0).
        rc: i64,
        /// Human-readable reason, kept in audit trails.
        reason: String,
    },
}

impl ProgramOutcome {
    /// A plain successful outcome with `rc = 1` and no outputs.
    pub fn committed() -> Self {
        ProgramOutcome::Committed {
            rc: 1,
            outputs: BTreeMap::new(),
        }
    }

    /// A plain aborted outcome with `rc = 0`.
    pub fn aborted(reason: impl Into<String>) -> Self {
        ProgramOutcome::Aborted {
            rc: 0,
            reason: reason.into(),
        }
    }

    /// True if the outcome is `Committed`.
    pub fn is_committed(&self) -> bool {
        matches!(self, ProgramOutcome::Committed { .. })
    }

    /// The return code of either variant.
    pub fn rc(&self) -> i64 {
        match self {
            ProgramOutcome::Committed { rc, .. } => *rc,
            ProgramOutcome::Aborted { rc, .. } => *rc,
        }
    }
}

/// Everything a program may touch while running.
pub struct ProgramContext {
    /// The federation of local databases.
    pub multidb: Arc<MultiDatabase>,
    /// Input parameters (a workflow input container as it is, or passed
    /// by a native executor).
    pub params: Params,
    /// Zero-based attempt number (> 0 when an exit condition or a
    /// retriable executor re-runs the program).
    pub attempt: u32,
}

impl ProgramContext {
    /// Builds a context with no parameters.
    pub fn new(multidb: Arc<MultiDatabase>) -> Self {
        Self {
            multidb,
            params: no_params(),
            attempt: 0,
        }
    }

    /// The shared failure injector.
    pub fn injector(&self) -> &InjectorHandle {
        self.multidb.injector()
    }
}

/// A named transactional program.
pub trait TxnProgram: Send + Sync {
    /// The program's registered name.
    fn name(&self) -> &str;

    /// Runs the program. Implementations should begin, run and commit
    /// (or abort) their own transactions against `ctx.multidb`.
    fn run(&self, ctx: &mut ProgramContext) -> ProgramOutcome;
}

/// A program defined by a closure — the workhorse for tests and
/// examples.
pub struct FnProgram<F> {
    name: String,
    body: F,
}

impl<F> FnProgram<F>
where
    F: Fn(&mut ProgramContext) -> ProgramOutcome + Send + Sync,
{
    /// Wraps `body` as a program named `name`.
    pub fn new(name: &str, body: F) -> Self {
        Self {
            name: name.to_owned(),
            body,
        }
    }
}

impl<F> TxnProgram for FnProgram<F>
where
    F: Fn(&mut ProgramContext) -> ProgramOutcome + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, ctx: &mut ProgramContext) -> ProgramOutcome {
        (self.body)(ctx)
    }
}

/// A declarative key/value program: one transaction against one local
/// database, applying one write. Before committing it consults
/// the failure injector under its **own name**, which is how tests and
/// benchmarks script "this subtransaction aborts on attempt k" without
/// writing bespoke closures.
#[derive(Debug, Clone)]
pub struct KvProgram {
    /// Registered name; also the default injection label.
    pub name: String,
    /// Target local database.
    pub db: String,
    /// The key written and its new value (`None` deletes the key).
    pub write: (String, Option<Value>),
    /// Failure-injection label consulted before commit; defaults to
    /// the program name. Distinct labels let several programs share a
    /// failure plan (or a program be scripted under a step name).
    pub label: Option<String>,
    /// Simulated duration in virtual-clock ticks (0 = instantaneous).
    pub duration: u64,
}

impl KvProgram {
    /// A program that writes `key = value` on database `db`.
    pub fn write(name: &str, db: &str, key: &str, value: impl Into<Value>) -> Self {
        Self {
            name: name.to_owned(),
            db: db.to_owned(),
            write: (key.to_owned(), Some(value.into())),
            label: None,
            duration: 0,
        }
    }

    /// A program that deletes `key` on database `db`.
    pub fn delete(name: &str, db: &str, key: &str) -> Self {
        Self {
            name: name.to_owned(),
            db: db.to_owned(),
            write: (key.to_owned(), None),
            label: None,
            duration: 0,
        }
    }

    /// Overrides the failure-injection label (defaults to the program
    /// name).
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = Some(label.to_owned());
        self
    }

    /// Declares a simulated duration: each invocation advances the
    /// federation's virtual clock by `ticks` before committing. The
    /// engine is synchronous, so virtual time accumulates along the
    /// executed path — which makes *simulated makespan* a measurable
    /// output of workflow runs (used by the duration experiments).
    pub fn with_duration(mut self, ticks: u64) -> Self {
        self.duration = ticks;
        self
    }
}

impl TxnProgram for KvProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, ctx: &mut ProgramContext) -> ProgramOutcome {
        let Some(db) = ctx.multidb.db(&self.db) else {
            return ProgramOutcome::aborted(format!("unknown database {:?}", self.db));
        };
        if self.duration > 0 {
            ctx.multidb.clock().advance(self.duration);
        }
        // Program-level scripted failure (distinct from the db's own
        // commit-point injection, which uses the "<db>/commit" label).
        let label = self.label.as_deref().unwrap_or(&self.name);
        if ctx.injector().decide(label) == FailureAction::Abort {
            return ProgramOutcome::aborted(format!("injected abort of {label:?}"));
        }
        let mut txn = db.begin();
        let (key, value) = &self.write;
        let written = match value {
            Some(v) => txn.put(key, v.clone()),
            None => txn.delete(key),
        };
        match written.and_then(|()| txn.commit()) {
            Ok(()) => ProgramOutcome::committed(),
            Err(e) => ProgramOutcome::aborted(e.to_string()),
        }
    }
}

/// A registry mapping program names to implementations — the paper's
/// "once a program is registered it can be invoked from any activity"
/// (§3.3).
#[derive(Default)]
pub struct ProgramRegistry {
    map: RwLock<FastMap<String, Arc<dyn TxnProgram>>>,
}

impl ProgramRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `program`, replacing any previous program of the same
    /// name. Returns `&self` for chaining.
    pub fn register(&self, program: Arc<dyn TxnProgram>) -> &Self {
        self.map.write().insert(program.name().to_owned(), program);
        self
    }

    /// Convenience: registers a closure under `name`.
    pub fn register_fn<F>(&self, name: &str, body: F) -> &Self
    where
        F: Fn(&mut ProgramContext) -> ProgramOutcome + Send + Sync + 'static,
    {
        self.register(Arc::new(FnProgram::new(name, body)))
    }

    /// Looks up a program by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn TxnProgram>> {
        self.map.read().get(name).cloned()
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.map.read().contains_key(name)
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.map.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Invokes `name` with `ctx`. Returns an aborted outcome (rc = 0)
    /// if no such program exists — an unregistered program is a static
    /// error the FDL importer catches, but the engine must still fail
    /// safe at run time.
    pub fn invoke(&self, name: &str, ctx: &mut ProgramContext) -> ProgramOutcome {
        match self.get(name) {
            Some(p) => p.run(ctx),
            None => ProgramOutcome::aborted(format!("program {name:?} not registered")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FailurePlan;

    fn fed_with_db() -> Arc<MultiDatabase> {
        let fed = MultiDatabase::new(0);
        fed.add_database("d");
        fed
    }

    #[test]
    fn step_class_predicates() {
        assert!(StepClass::Compensatable.is_compensatable());
        assert!(!StepClass::Compensatable.is_retriable());
        assert!(StepClass::Retriable.is_retriable());
        assert!(!StepClass::Retriable.is_compensatable());
        assert!(StepClass::CompensatableRetriable.is_compensatable());
        assert!(StepClass::CompensatableRetriable.is_retriable());
        assert!(StepClass::Pivot.is_pivot());
        assert!(!StepClass::Pivot.is_compensatable());
        assert!(!StepClass::Pivot.is_retriable());
    }

    #[test]
    fn kv_program_commits_and_reports_rc1() {
        let fed = fed_with_db();
        let prog = KvProgram::write("p", "d", "k", 9i64);
        let mut ctx = ProgramContext::new(Arc::clone(&fed));
        let out = prog.run(&mut ctx);
        assert!(out.is_committed());
        assert_eq!(out.rc(), 1);
        assert_eq!(fed.db("d").unwrap().peek("k"), Some(Value::Int(9)));
    }

    #[test]
    fn kv_program_injected_abort_has_rc0() {
        let fed = fed_with_db();
        fed.injector().set_plan("p", FailurePlan::FirstN(1));
        let prog = KvProgram::write("p", "d", "k", 1i64);
        let mut ctx = ProgramContext::new(Arc::clone(&fed));
        let out = prog.run(&mut ctx);
        assert!(!out.is_committed());
        assert_eq!(out.rc(), 0);
        assert_eq!(fed.db("d").unwrap().peek("k"), None);
        // Second attempt succeeds: the retriable pattern end to end.
        let out2 = prog.run(&mut ctx);
        assert!(out2.is_committed());
    }

    #[test]
    fn kv_program_unknown_db_aborts() {
        let fed = MultiDatabase::new(0);
        let prog = KvProgram::write("p", "ghost", "k", 1i64);
        let out = prog.run(&mut ProgramContext::new(fed));
        assert!(!out.is_committed());
    }

    #[test]
    fn registry_invoke_and_missing() {
        let fed = fed_with_db();
        let reg = ProgramRegistry::new();
        reg.register(Arc::new(KvProgram::write("w", "d", "k", 2i64)));
        reg.register_fn("f", |_| ProgramOutcome::committed());
        assert!(reg.contains("w"));
        assert_eq!(reg.names(), vec!["f".to_string(), "w".to_string()]);

        let mut ctx = ProgramContext::new(Arc::clone(&fed));
        assert!(reg.invoke("w", &mut ctx).is_committed());
        assert!(reg.invoke("f", &mut ctx).is_committed());
        let missing = reg.invoke("ghost", &mut ctx);
        assert!(!missing.is_committed());
    }

    #[test]
    fn delete_program_removes_key() {
        let fed = fed_with_db();
        let db = fed.db("d").unwrap();
        let mut t = db.begin();
        t.put("k", 1i64).unwrap();
        t.commit().unwrap();
        let prog = KvProgram::delete("del", "d", "k");
        let out = prog.run(&mut ProgramContext::new(Arc::clone(&fed)));
        assert!(out.is_committed());
        assert_eq!(db.peek("k"), None);
    }
}
