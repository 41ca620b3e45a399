//! Live engine metrics — the observability layer §3.3 motivates
//! ("monitoring, accounting and audit" as product-critical WFMS
//! features). Where [`crate::audit`] renders history after the fact,
//! this module observes a *running* engine: per-activity latency
//! histograms, navigator counters, journal append/flush timing and the
//! federation's transaction/lock/WAL statistics, read into one
//! [`Snapshot`] — a list of named series — by [`Engine::metrics`]:
//! what the engine's registry *counted*, then what it samples in two
//! halves — its tallies ([`Engine::tallies`]: levels its state and its
//! log already hold) and each database's own series
//! ([`database_series`]). Tests read it by name, and
//! [`Snapshot::to_prometheus`] is the one renderer `fmtm run
//! --metrics-out` and `GET /metrics` share. A server publishes the
//! first half after each step of a shard and reads the second live.
//!
//! ## Hot-path design
//!
//! Navigation of the compiled 100-activity benchmark chain spends
//! ~2.7µs per activity, so the whole metrics budget per execution is
//! on the order of 100ns. Two rules keep the hooks inside it:
//!
//! * **No name lookups while navigating.** [`EngineObs`] resolves its
//!   counter/gauge `Arc`s from the registry once at engine
//!   construction; `EngineObs::act_probes` pre-resolves one histogram
//!   handle per act slot of a compiled template, so the navigator's
//!   slot indexes its probe directly.
//! * **One branch when disabled.** Every hot hook is gated on
//!   `EngineObs::enabled`; a default engine pays a single predictable
//!   branch per hook site and records nothing.
//!
//! Cold paths (recovery fix-ups, stale-claim releases) record
//! unconditionally — their counts answer "what did recovery do" even
//! on engines that never opted into hot-path metrics.

use crate::compiled::CompiledProcess;
use crate::engine::Engine;
use std::cell::Cell;
use std::sync::Arc;
use txn_substrate::fast_hash::FastMap;
use txn_substrate::MultiDatabase;
use wfms_observe::{Counter, Gauge, Histogram, Observer, Registry, Snapshot, Value};

/// Name of the per-activity latency histogram family.
pub const ACT_LATENCY_FAMILY: &str = "engine.act_latency_ns";

/// Per-activity latency probes of one compiled template: one
/// histogram per act slot.
pub(crate) type ActProbes = Arc<[Arc<Histogram>]>;

/// The probes of every template an instance was given them for, by
/// spec hash, shared by every instance of the template. Keyed as the
/// template registry is: two versions of one process can have
/// different slot layouts.
pub(crate) type ProbeCache = FastMap<u64, ActProbes>;

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

    /// The probes of `tpl`, from `cache` or, on first use, registered
    /// there: one labelled histogram per activity (labels are the
    /// journal's slash paths).
    pub(crate) fn act_probes(&self, cache: &mut ProbeCache, tpl: &CompiledProcess) -> ActProbes {
        let probes = cache.entry(tpl.spec_hash).or_insert_with(|| {
            let family = self.observer.registry().histogram_vec(ACT_LATENCY_FAMILY);
            let paths = tpl.layout.paths.iter();
            paths.map(|p| family.with_label(p)).collect()
        });
        Arc::clone(probes)
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
    sample: Cell<u64>,
}

impl JournalProbes {
    pub(crate) fn new(reg: &Registry) -> Self {
        Self {
            appends: reg.counter("journal.appends"),
            append_ns: reg.histogram("journal.append_ns"),
            batch_size: reg.histogram("journal.batch_size"),
            sample: Cell::new(0),
        }
    }

    /// True on every 16th call — whether this append's latency should
    /// be clocked. `journal.appends` stays exact; `journal.append_ns`
    /// holds a 1-in-16 sample, which preserves the quantiles while
    /// keeping the per-append cost to one increment.
    pub(crate) fn sample_tick(&self) -> bool {
        let n = self.sample.get();
        self.sample.set(n.wrapping_add(1));
        n & 0xF == 0
    }
}

impl Engine {
    /// The engine's observer (disabled by default; pass one via
    /// [`crate::EngineConfig::observer`] to enable hot-path metrics).
    pub fn observer(&self) -> &Arc<Observer> {
        &self.obs.observer
    }

    /// The engine's tallies, `(name, level)`: instances by status, work
    /// items by state, and what the journal holds. They are state the
    /// events keep, so reading them takes a constant time however
    /// many instances and items it has ever held.
    pub fn tallies(&self) -> [(&'static str, u64); 9] {
        let st = self.state.borrow();
        let (instances, items) = (st.counts, st.worklists.state_counts());
        [
            ("engine.instances_running", instances.0),
            ("engine.instances_finished", instances.1),
            ("engine.instances_cancelled", instances.2),
            ("worklist.items_open", items.0),
            ("worklist.items_claimed", items.1),
            ("worklist.items_closed", items.2),
            ("journal.events", self.journal.len() as u64),
            (
                "journal.resident_records",
                self.journal.resident_events() as u64,
            ),
            ("journal.file_bytes", self.journal.file_len()),
        ]
    }

    /// Everything the engine observes, as one [`Snapshot`]: what its
    /// registry counted (navigator, journal and recovery counters, the
    /// per-activity latency family [`ACT_LATENCY_FAMILY`]) followed by
    /// [`Engine::tallies`] and [`database_series`]. Always available —
    /// on engines without an enabled observer the per-activity
    /// histograms are absent and the hot-path counters read 0, but the
    /// levels, the cold-path counters and the databases' series are all
    /// there.
    pub fn metrics(&self) -> Snapshot {
        let mut snapshot = self.obs.observer.registry().snapshot();
        for (name, level) in self.tallies() {
            snapshot.push(name, None, Value::Gauge(level as i64));
        }
        database_series(&self.multidb, |name, label, reading| {
            snapshot.push(name, label, reading)
        });
        snapshot
    }
}

/// Every series of every database of `multidb`
/// ([`txn_substrate::Database::series`]), handed to `each` as `(name,
/// label, reading)` under the label `db`. Reads no engine state: a
/// database's series are two short locks, its state's and its lock
/// table's, which no program holds across its run.
pub fn database_series(
    multidb: &MultiDatabase,
    mut each: impl FnMut(&str, Option<(&str, &str)>, Value),
) {
    for db in multidb.names() {
        let series = multidb.db(&db).into_iter().flat_map(|db| db.series());
        for (name, reading) in series {
            each(name, Some(("db", &db)), reading);
        }
    }
}
