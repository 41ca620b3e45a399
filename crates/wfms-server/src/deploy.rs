//! Deploying a new version of a process: a chain of control jobs, one
//! per shard, in shard order.
//!
//! Shard 0's worker stores the definition in the data directory first
//! (its file, then the meta's hash list), so no journal names a version
//! the directory cannot load. Then each shard's worker in turn
//! registers the version — journalling `TemplateDeployed` — migrates
//! what the policy asks for, flushes, and queues the next shard's share;
//! the last one answers. A crash between any two stages recovers to a
//! consistent state. A shard whose worker is gone drops its share
//! unrun: the chain stops there, the shards before it keep the new
//! version, and the sink is dropped uncalled.

use std::sync::Arc;

use wfms_engine::{
    spec_hash_of, Engine, EngineError, InstanceId, InstanceStatus, MigrationOutcome,
};
use wfms_model::ProcessDefinition;
use wfms_observe::Counter;

use crate::shard::{answer_of, navigate_onward, PoolError, Shard, ShardPool, Sink, UNANSWERED};
use crate::store::DataDir;

/// What happens to running instances of a process when a new version
/// of it is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Old instances keep their pinned version and finish under it;
    /// only new submissions see the deployed version.
    DrainOld,
    /// Running instances parked at a scope boundary are migrated to
    /// the deployed version (journalled as `Migrated`); instances with
    /// an activity mid-flight fall back to draining under their old
    /// version.
    MigrateAtScopeBoundary,
}

impl MigrationPolicy {
    /// Parses the wire/CLI spelling of a policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drain-old" => Some(Self::DrainOld),
            "migrate" | "migrate-at-scope-boundary" => Some(Self::MigrateAtScopeBoundary),
            _ => None,
        }
    }
}

/// Outcome of [`ShardPool::deploy`].
#[derive(Debug)]
pub struct DeployReport {
    /// Process template name.
    pub process: String,
    /// Version (hex hash) now the default for new submissions.
    pub version: String,
    /// Running instances migrated to the new version.
    pub migrated: u64,
    /// Running instances left on their old version (mid-flight, or
    /// policy was [`MigrationPolicy::DrainOld`]).
    pub skipped: u64,
    /// Running instances that were already on the deployed version.
    pub already_current: u64,
}

impl ShardPool {
    /// Registers a new version of a process into every shard and makes
    /// it the default for new submissions; existing instances are
    /// handled per `policy`. Durable in stages, one shard worker after
    /// another: shard 0's writes the definition file, then the meta
    /// hash list; then each shard's in turn journals its
    /// `TemplateDeployed` (and any `Migrated`) events and flushes — a
    /// crash between any two stages recovers to a consistent state.
    /// The last shard's worker answers.
    pub fn deploy_with(
        &self,
        def: ProcessDefinition,
        policy: MigrationPolicy,
        sink: Sink<Result<DeployReport, PoolError>>,
    ) {
        // Validate before anything is persisted: a rejected definition
        // must leave no trace in the templates directory or the meta.
        let errors = wfms_model::validate(&def);
        if !errors.is_empty() {
            let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            return sink(Err(PoolError::Rejected(rendered.join("; "))));
        }
        let report = DeployReport {
            process: def.name.clone(),
            version: format!("{:016x}", spec_hash_of(&def)),
            migrated: 0,
            skipped: 0,
            already_current: 0,
        };
        let deploy = Deploy {
            def,
            policy,
            report,
            sink,
            failures: self.registry().counter("server.resume.failures"),
            dir: Arc::clone(&self.dir),
        };
        deploy.queue(0, Arc::clone(&self.shards));
    }

    /// [`ShardPool::deploy_with`], blocking until the last shard has
    /// answered.
    pub fn deploy(
        &self,
        def: ProcessDefinition,
        policy: MigrationPolicy,
    ) -> Result<DeployReport, PoolError> {
        answer_of(|sink| self.deploy_with(def, policy, sink))
            .unwrap_or_else(|| Err(PoolError::Io(std::io::Error::other(UNANSWERED))))
    }
}

/// A deploy on its way through the shards, in shard order.
struct Deploy {
    def: ProcessDefinition,
    policy: MigrationPolicy,
    report: DeployReport,
    sink: Sink<Result<DeployReport, PoolError>>,
    /// `server.resume.failures`: migrated instances that could not be
    /// navigated onward.
    failures: Arc<Counter>,
    /// Where shard 0's share stores the definition.
    dir: Arc<DataDir>,
}

impl Deploy {
    /// Queues shard `at`'s share with its worker; done, that worker
    /// queues the next shard's, and the last one answers.
    fn queue(mut self, at: usize, shards: Arc<[Shard]>) {
        let rest = Arc::clone(&shards);
        let share = move |shard: &Shard, engine: &Engine| match self.on_shard(at, shard, engine) {
            Err(e) => (self.sink)(Err(e)),
            Ok(()) if at + 1 < rest.len() => self.queue(at + 1, rest),
            Ok(()) => (self.sink)(Ok(self.report)),
        };
        shards[at].control(false, Box::new(share));
    }

    /// One shard's share. Shard 0 does the file work first, so no
    /// journal names a version the data directory cannot load. The
    /// share publishes what it changed before the chain moves on.
    fn on_shard(&mut self, at: usize, shard: &Shard, engine: &Engine) -> Result<(), PoolError> {
        if at == 0 {
            self.dir.add_version(&self.report.version, &self.def)?;
        }
        let flush_err =
            |e: EngineError| PoolError::Io(std::io::Error::other(format!("journal flush: {e}")));
        engine
            .register(self.def.clone())
            .map_err(|e| PoolError::Rejected(e.to_string()))?;
        let mut flushed = engine.flush_journal();
        let mut moved = Vec::new();
        if flushed.is_ok() && self.policy == MigrationPolicy::MigrateAtScopeBoundary {
            moved = self.migrate(engine);
            flushed = engine.flush_journal();
        }
        shard.publish(engine, Vec::new(), &moved);
        flushed.map_err(flush_err)
    }

    /// Moves each running instance of the process to the deployed
    /// version where it can be, and navigates a moved one onward: the
    /// migration's fix-ups may have re-readied automatic work. Returns
    /// the instances moved, to publish.
    fn migrate(&mut self, engine: &Engine) -> Vec<InstanceId> {
        let mut moved = Vec::new();
        for (id, process, status) in engine.instances() {
            if process != self.report.process || status != InstanceStatus::Running {
                continue;
            }
            match engine.migrate_to_default(id) {
                Ok(MigrationOutcome::Migrated { .. }) => {
                    self.report.migrated += 1;
                    navigate_onward(engine, id, &self.failures);
                    moved.push(id);
                }
                Ok(MigrationOutcome::AlreadyCurrent) => self.report.already_current += 1,
                Ok(MigrationOutcome::Skipped { .. }) | Err(_) => self.report.skipped += 1,
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::{Deploy, DeployReport, MigrationPolicy};
    use crate::shard::tests::on_a_full_disk;
    use crate::store;
    use crate::tenant::WireIds;
    use std::sync::Arc;
    use txn_substrate::DurabilityPolicy;
    use wfms_engine::{spec_hash_of, InstanceStatus};
    use wfms_model::{Activity, Container, ProcessBuilder};
    use wfms_observe::Counter;

    /// A migrated instance that cannot be navigated onward is counted
    /// in `server.resume.failures`, as at reopen, not dropped. v2 of
    /// `flow` gives its finished head a fresh edge into an automatic
    /// `Side`, which the migration's fix-ups re-ready. Starting `flow`,
    /// deploying v2 and migrating make twelve appends and running `Side`
    /// three more, so a journal that writes every 14th append onto a
    /// full disk fails inside the onward navigation.
    #[test]
    fn a_failed_navigation_after_a_migration_is_counted() {
        let flow = ProcessBuilder::new("flow")
            .program("Head", "ok")
            .activity(Activity::program("M", "ok").for_role("clerk"))
            .connect_when("Head", "M", "RC = 1")
            .build()
            .unwrap();
        let v2 = ProcessBuilder::from(flow.clone())
            .program("Side", "ok")
            .connect_when("Head", "Side", "RC = 1")
            .build()
            .unwrap();
        let (engine, path) =
            on_a_full_disk(DurabilityPolicy::Batched { n: 14 }, vec![flow], "migrate");
        let data = std::env::temp_dir().join(format!("wfms-migrate-{}", std::process::id()));
        let (dir, _) = store::open(data.clone(), WireIds::new(1, false), &[]).unwrap();
        let id = engine.start("flow", Container::empty()).unwrap();
        assert_eq!(
            engine.run_to_quiescence(id).unwrap(),
            InstanceStatus::Running
        );
        engine.register(v2.clone()).unwrap();

        let mut deploy = Deploy {
            report: DeployReport {
                process: v2.name.clone(),
                version: format!("{:016x}", spec_hash_of(&v2)),
                migrated: 0,
                skipped: 0,
                already_current: 0,
            },
            def: v2,
            policy: MigrationPolicy::MigrateAtScopeBoundary,
            sink: Box::new(|_| {}),
            failures: Arc::new(Counter::new()),
            dir: Arc::new(dir),
        };
        deploy.migrate(&engine);
        assert_eq!((deploy.report.migrated, deploy.report.skipped), (1, 0));
        assert_eq!(deploy.failures.get(), 1, "the onward navigation's failure");
        assert!(engine.flush_journal().is_err(), "the journal is broken");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(&data).unwrap();
    }
}
