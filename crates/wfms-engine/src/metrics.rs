//! Live engine metrics — the observability layer §3.3 motivates
//! ("monitoring, accounting and audit" as product-critical WFMS
//! features). Where [`crate::audit`] renders history after the fact,
//! this module observes a *running* engine: per-activity latency
//! histograms, navigator counters, journal append/flush timing and the
//! federation's transaction/lock/WAL statistics, snapshotted into a
//! typed [`EngineMetrics`] and exposed as JSON or Prometheus text.
//!
//! ## Hot-path design
//!
//! Navigation of the compiled 100-activity benchmark chain spends
//! ~2.7µs per activity, so the whole metrics budget per execution is
//! on the order of 100ns. Two rules keep the hooks inside it:
//!
//! * **No name lookups while navigating.** [`EngineObs`] resolves its
//!   counter/gauge `Arc`s from the registry once at engine
//!   construction; `act_probes` pre-resolves one histogram handle
//!   per act slot of a compiled template, so the navigator's slot
//!   indexes its probe directly.
//! * **One branch when disabled.** Every hot hook is gated on
//!   `EngineObs::enabled`; a default engine pays a single predictable
//!   branch per hook site and records nothing.
//!
//! Cold paths (recovery fix-ups, stale-claim releases) record
//! unconditionally — their counts answer "what did recovery do" even
//! on engines that never opted into hot-path metrics.

use crate::compiled::ScopeLayout;
use crate::engine::Engine;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use wfms_observe::{
    Counter, Gauge, Histogram, HistogramSnapshot, Observer, Registry, RegistrySnapshot,
};

/// Name of the per-activity latency histogram family.
pub const ACT_LATENCY_FAMILY: &str = "engine.act_latency_ns";

/// Per-activity latency probes of one compiled template: one
/// histogram per act slot.
pub(crate) type ActProbes = Arc<[Arc<Histogram>]>;

/// Registers one labelled histogram per activity of `layout` (labels
/// are the journal's slash paths).
pub(crate) fn act_probes(layout: &ScopeLayout, registry: &Registry) -> ActProbes {
    let family = registry.histogram_vec(ACT_LATENCY_FAMILY);
    layout.paths.iter().map(|p| family.with_label(p)).collect()
}

/// The engine's observability bundle: the [`Observer`] plus hot-path
/// instruments pre-resolved from its registry (see the module docs for
/// why lookups are banned from navigation).
#[derive(Debug)]
pub struct EngineObs {
    pub(crate) observer: Arc<Observer>,
    /// Activity executions started (attempts, not unique activities).
    pub(crate) executions: Arc<Counter>,
    /// Executions with attempt > 0 (exit-condition retries).
    pub(crate) retries: Arc<Counter>,
    /// Exit conditions that evaluated false.
    pub(crate) reschedules: Arc<Counter>,
    /// Activities removed by dead path elimination.
    pub(crate) dead_paths: Arc<Counter>,
    /// Executions whose innermost enclosing block is a compensation
    /// block (the saga translation's `Compensation` scope).
    pub(crate) compensations: Arc<Counter>,
    /// Work items offered to worklists.
    pub(crate) items_offered: Arc<Counter>,
    /// Deadline notifications sent.
    pub(crate) notifications: Arc<Counter>,
    /// High-water mark of any instance's ready heap.
    pub(crate) ready_depth: Arc<Gauge>,
}

impl EngineObs {
    pub(crate) fn new(observer: Arc<Observer>) -> Self {
        let reg = observer.registry();
        Self {
            executions: reg.counter("nav.executions"),
            retries: reg.counter("nav.retries"),
            reschedules: reg.counter("nav.reschedules"),
            dead_paths: reg.counter("nav.dead_paths"),
            compensations: reg.counter("nav.compensations"),
            items_offered: reg.counter("worklist.items_offered"),
            notifications: reg.counter("nav.notifications"),
            ready_depth: reg.gauge("engine.ready_heap_depth"),
            observer,
        }
    }

    /// True when hot-path hooks should record.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.observer.is_enabled()
    }
}

/// Journal instruments, attached to the engine's journal when the
/// observer is enabled.
#[derive(Debug)]
pub struct JournalProbes {
    /// Single-event appends.
    pub(crate) appends: Arc<Counter>,
    /// Wall-clock nanoseconds per append, *including* the mirror write
    /// and any policy-driven flush — the journal flush latency.
    /// Sampled 1-in-16 (see `JournalProbes::sample_tick`): the
    /// engine appends several events per activity, and timing each
    /// one costs more than the append itself.
    pub(crate) append_ns: Arc<Histogram>,
    /// Events per `append_batch` call (the group-commit size).
    pub(crate) batch_size: Arc<Histogram>,
    /// Rolling append index driving the `append_ns` sampler.
    sample: std::sync::atomic::AtomicU64,
}

impl JournalProbes {
    pub(crate) fn new(reg: &Registry) -> Self {
        Self {
            appends: reg.counter("journal.appends"),
            append_ns: reg.histogram("journal.append_ns"),
            batch_size: reg.histogram("journal.batch_size"),
            sample: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// True on every 16th call — whether this append's latency should
    /// be clocked. `journal.appends` stays exact; `journal.append_ns`
    /// holds a 1-in-16 sample, which preserves the quantiles while
    /// keeping the per-append cost to one relaxed `fetch_add`.
    pub(crate) fn sample_tick(&self) -> bool {
        self.sample
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            & 0xF
            == 0
    }
}

/// Latency summary in nanoseconds — the serialisable face of a
/// [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum_ns: u64,
    /// Mean, rounded down.
    pub mean_ns: u64,
    /// Estimated median.
    pub p50_ns: u64,
    /// Estimated 95th percentile.
    pub p95_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
}

impl From<HistogramSnapshot> for LatencySummary {
    fn from(s: HistogramSnapshot) -> Self {
        Self {
            count: s.count,
            sum_ns: s.sum,
            mean_ns: s.mean(),
            p50_ns: s.p50,
            p95_ns: s.p95,
            p99_ns: s.p99,
            max_ns: s.max,
        }
    }
}

/// Per-database statistics of the federation: transaction rates, lock
/// contention and WAL append/flush timing, pulled from the substrate's
/// own counters at snapshot time.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DbMetrics {
    /// Database name.
    pub name: String,
    /// Transactions begun.
    pub txns_begun: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions aborted (all causes).
    pub txns_aborted: u64,
    /// Aborts caused by deadlock detection.
    pub deadlock_aborts: u64,
    /// Aborts caused by the failure injector.
    pub injected_aborts: u64,
    /// Transactional reads.
    pub reads: u64,
    /// Transactional writes.
    pub writes: u64,
    /// Locks granted without waiting.
    pub lock_immediate_grants: u64,
    /// Lock requests that blocked.
    pub lock_waits: u64,
    /// Nanoseconds spent blocked on locks.
    pub lock_wait_nanos: u64,
    /// Deadlock refusals.
    pub lock_deadlocks: u64,
    /// Shared→exclusive upgrades.
    pub lock_upgrades: u64,
    /// Lock releases that had to wake a blocked requester (one system
    /// call each); 0 for a run without lock conflicts.
    pub lock_wakeups: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL commit/abort durability barriers.
    pub wal_barrier_flushes: u64,
    /// Nanoseconds spent in WAL appends that wrote the file mirror.
    pub wal_mirror_nanos: u64,
    /// WAL reopens that truncated a half-written final frame.
    pub wal_torn_tails_truncated: u64,
    /// Of those, tails that failed a length check or CRC.
    pub wal_crc_failures: u64,
    /// WAL mirror I/O failures (the first disables the mirror).
    pub wal_mirror_errors: u64,
    /// WAL records held in memory right now (bounded by the
    /// database's checkpoint rule).
    pub wal_resident_records: u64,
    /// Checkpoints the database took by itself.
    pub wal_checkpoints: u64,
}

/// A typed point-in-time snapshot of everything the engine observes.
/// Produced by [`Engine::metrics`]; rendered by
/// [`EngineMetrics::to_json`] / [`EngineMetrics::to_prometheus`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct EngineMetrics {
    /// Instances currently running.
    pub instances_running: u64,
    /// Instances finished.
    pub instances_finished: u64,
    /// Instances cancelled.
    pub instances_cancelled: u64,
    /// Work items in `Offered` state.
    pub items_offered: u64,
    /// Work items claimed and not yet finished.
    pub items_claimed: u64,
    /// Work items closed.
    pub items_closed: u64,
    /// Events in the journal right now (post-compaction length).
    pub journal_events: u64,
    /// Of those, events held in memory: all of an unmirrored journal,
    /// the unflushed tail of a mirrored one.
    pub journal_resident_records: u64,
    /// Bytes of the journal file written and flushed (0 unmirrored).
    pub journal_file_bytes: u64,
    /// Per-activity start→finish latency, labelled by activity path.
    pub activities: BTreeMap<String, LatencySummary>,
    /// Every registry counter by name (navigator, journal, recovery).
    pub counters: BTreeMap<String, u64>,
    /// Every registry gauge by name.
    pub gauges: BTreeMap<String, i64>,
    /// Every plain registry histogram by name (journal flush latency,
    /// batch sizes, …).
    pub histograms: BTreeMap<String, LatencySummary>,
    /// Per-database federation statistics.
    pub federation: Vec<DbMetrics>,
}

impl EngineMetrics {
    /// Pretty-printed JSON exposition.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("EngineMetrics is always serializable")
    }

    /// Prometheus text exposition, rendered by the registry's own
    /// renderer ([`RegistrySnapshot::to_prometheus`]): the registry
    /// instruments as snapshotted, with the typed engine/worklist
    /// gauges and the per-database federation counters (labelled
    /// `db`) added to the same snapshot.
    pub fn to_prometheus(&self) -> String {
        fn hists(
            m: &BTreeMap<String, LatencySummary>,
        ) -> impl Iterator<Item = (String, HistogramSnapshot)> + '_ {
            m.iter().map(|(k, s)| {
                let snap = HistogramSnapshot {
                    count: s.count,
                    sum: s.sum_ns,
                    max: s.max_ns,
                    p50: s.p50_ns,
                    p95: s.p95_ns,
                    p99: s.p99_ns,
                };
                (k.clone(), snap)
            })
        }
        let mut snap = RegistrySnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: hists(&self.histograms).collect(),
            ..RegistrySnapshot::default()
        };
        if !self.activities.is_empty() {
            snap.families.insert(
                ACT_LATENCY_FAMILY.to_owned(),
                hists(&self.activities).collect(),
            );
        }
        for (name, v) in [
            ("engine.instances_running", self.instances_running),
            ("engine.instances_finished", self.instances_finished),
            ("engine.instances_cancelled", self.instances_cancelled),
            ("worklist.items_open", self.items_offered),
            ("worklist.items_claimed", self.items_claimed),
            ("worklist.items_closed", self.items_closed),
            ("journal.events", self.journal_events),
            ("journal.resident_records", self.journal_resident_records),
            ("journal.file_bytes", self.journal_file_bytes),
        ] {
            snap.gauges.insert(name.to_owned(), v as i64);
        }
        for db in &self.federation {
            for (name, v) in [
                ("db.txns_begun", db.txns_begun),
                ("db.txns_committed", db.txns_committed),
                ("db.txns_aborted", db.txns_aborted),
                ("db.deadlock_aborts", db.deadlock_aborts),
                ("db.injected_aborts", db.injected_aborts),
                ("db.reads", db.reads),
                ("db.writes", db.writes),
                ("db.lock_immediate_grants", db.lock_immediate_grants),
                ("db.lock_waits", db.lock_waits),
                ("db.lock_wait_nanos", db.lock_wait_nanos),
                ("db.lock_deadlocks", db.lock_deadlocks),
                ("db.lock_upgrades", db.lock_upgrades),
                ("db.lock_wakeups", db.lock_wakeups),
                ("db.wal_appends", db.wal_appends),
                ("db.wal_barrier_flushes", db.wal_barrier_flushes),
                ("db.wal_mirror_nanos", db.wal_mirror_nanos),
                ("db.wal_torn_tails_truncated", db.wal_torn_tails_truncated),
                ("db.wal_crc_failures", db.wal_crc_failures),
                ("db.wal_mirror_errors", db.wal_mirror_errors),
                ("db.wal_checkpoints", db.wal_checkpoints),
            ] {
                snap.counter_vecs
                    .entry(name.to_owned())
                    .or_insert_with(|| ("db".to_owned(), Vec::new()))
                    .1
                    .push((db.name.clone(), v));
            }
            // A level, not a count: a checkpoint brings it down.
            snap.gauge_vecs
                .entry("db.wal_resident_records".to_owned())
                .or_insert_with(|| ("db".to_owned(), Vec::new()))
                .1
                .push((db.name.clone(), db.wal_resident_records as i64));
        }
        snap.to_prometheus()
    }
}

impl Engine {
    /// The engine's observer (disabled by default; pass one via
    /// [`crate::EngineConfig::observer`] to enable hot-path metrics).
    pub fn observer(&self) -> &Arc<Observer> {
        &self.obs.observer
    }

    /// Snapshots everything the engine observes into a typed
    /// [`EngineMetrics`]. Always available — on engines without an
    /// enabled observer the per-activity histograms are empty, but
    /// instance/work-item states, journal length, cold-path counters
    /// and the federation statistics are still populated.
    pub fn metrics(&self) -> EngineMetrics {
        let (running, finished, cancelled) = self.instance_counts();
        let (offered, claimed, closed) = self.state.lock().worklists.state_counts();

        let snap = self.obs.observer.registry().snapshot();
        let activities = snap
            .families
            .get(ACT_LATENCY_FAMILY)
            .map(|labels| {
                labels
                    .iter()
                    .map(|(l, s)| (l.clone(), LatencySummary::from(*s)))
                    .collect()
            })
            .unwrap_or_default();

        let federation = self
            .multidb
            .names()
            .into_iter()
            .filter_map(|name| self.multidb.db(&name))
            .map(|db| {
                let s = db.stats();
                let l = db.lock_stats();
                let w = db.wal_stats();
                DbMetrics {
                    name: db.name().to_owned(),
                    txns_begun: s.begun,
                    txns_committed: s.committed,
                    txns_aborted: s.aborted,
                    deadlock_aborts: s.deadlock_aborts,
                    injected_aborts: s.injected_aborts,
                    reads: s.reads,
                    writes: s.writes,
                    lock_immediate_grants: l.immediate_grants,
                    lock_waits: l.waits,
                    lock_wait_nanos: l.wait_nanos,
                    lock_deadlocks: l.deadlocks,
                    lock_upgrades: l.upgrades,
                    lock_wakeups: l.wakeups,
                    wal_appends: w.appends,
                    wal_barrier_flushes: w.barrier_flushes,
                    wal_mirror_nanos: w.mirror_nanos,
                    wal_torn_tails_truncated: w.torn_tails_truncated,
                    wal_crc_failures: w.crc_failures,
                    wal_mirror_errors: w.mirror_errors,
                    wal_resident_records: w.resident_records,
                    wal_checkpoints: w.checkpoints,
                }
            })
            .collect();

        EngineMetrics {
            instances_running: running,
            instances_finished: finished,
            instances_cancelled: cancelled,
            items_offered: offered,
            items_claimed: claimed,
            items_closed: closed,
            journal_events: self.journal.len() as u64,
            journal_resident_records: self.journal.resident_events() as u64,
            journal_file_bytes: self.journal.file_len(),
            activities,
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap
                .histograms
                .into_iter()
                .map(|(k, s)| (k, LatencySummary::from(s)))
                .collect(),
            federation,
        }
    }
}
