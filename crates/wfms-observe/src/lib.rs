//! # wfms-observe
//!
//! Observability primitives for the workflow stack, built on `std`
//! (`serde` only declares the JSON form of a snapshot): no allocation
//! on the record path, no locks around counters. Everything here is
//! safe to hammer from many threads (shard workers, reactors).
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`;
//! * [`Gauge`] — signed level with `set`/`add` and a `record_max`
//!   high-water mark;
//! * [`Histogram`] — log-linear latency histogram over `u64`
//!   nanoseconds with integer-only p50/p95/p99 estimation;
//! * [`Family`] — a label-keyed family of any of the three
//!   (per-activity latency, per-tenant admissions);
//! * [`Registry`] — named get-or-create home for the above;
//! * [`Snapshot`] — what is observed, in its one shape: a list of
//!   [`Series`] (a name, an optional label, a [`Value`]), whether a
//!   registry counted it or its owner sampled it, with by-name
//!   accessors and the one Prometheus renderer;
//! * [`Observer`] — the bundle the engine threads through its hot
//!   paths. `enabled` is a plain bool decided at construction, so a
//!   disabled observer costs one branch per hook site.
//!
//! Recording into a disabled observer's registry still works — cold
//! paths (recovery fix-ups, crash-sweep counters) record
//! unconditionally so their counts are visible even on engines that
//! never asked for hot-path metrics.

mod registry;

pub use registry::{Registry, Series, Snapshot, Value};

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level (queue depths, instances in a state) with a
/// high-water mark helper.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the level to `v` if `v` is higher — a high-water mark.
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values below this are counted in exact unit-wide buckets.
const LINEAR_CUTOFF: u64 = 32;
/// Sub-buckets per power of two above the cutoff (2 significant bits:
/// relative quantisation error ≤ 1/8).
const SUBS: usize = 4;
/// Bucket count: 32 linear + 4 per power of two for msb 5..=63.
const NBUCKETS: usize = LINEAR_CUTOFF as usize + (63 - 4) * SUBS;

/// A log-linear histogram over `u64` values (nanoseconds by
/// convention). Recording is three relaxed atomic adds and one atomic
/// max; quantile estimation is integer-only (the only floats in this
/// crate live in the text exposition).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, max={})",
            s.count, s.p50, s.max
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 5
        let sub = ((v >> (msb - 2)) & 3) as usize;
        LINEAR_CUTOFF as usize + (msb - 5) * SUBS + sub
    }
}

/// Inclusive lower bound of bucket `idx` (inverse of [`bucket_of`]).
fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_CUTOFF as usize;
        let msb = 5 + rel / SUBS;
        let sub = (rel % SUBS) as u64;
        (1u64 << msb) + sub * (1u64 << (msb - 2))
    }
}

/// Representative value reported for bucket `idx`: its midpoint.
fn bucket_mid(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_CUTOFF as usize;
        let msb = 5 + rel / SUBS;
        bucket_floor(idx) + (1u64 << (msb - 2)) / 2
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `num/den` (e.g. 95/100): the
    /// midpoint of the bucket holding the rank-`⌈count·num/den⌉`
    /// observation, clamped to the recorded maximum.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total * num).div_ceil(den)).max(1);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_mid(idx).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time summary. (Individual fields
    /// are loaded relaxed; under concurrent writers the snapshot may
    /// mix adjacent states, which is fine for monitoring.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(1, 2),
            p95: self.quantile(19, 20),
            p99: self.quantile(99, 100),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean value, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Instruments by name — a [`Registry`]'s map of families, a
/// [`Family`]'s map of members.
pub(crate) type Named<T> = RwLock<BTreeMap<String, Arc<T>>>;

/// The entry of `map` named `name`, made by `make` on first use.
pub(crate) fn get_or_insert<T>(map: &Named<T>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(v) = map.read().expect("observe lock").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("observe lock");
    Arc::clone(w.entry(name.to_owned()).or_insert_with(|| Arc::new(make())))
}

/// A label-keyed family of instruments — per-activity latency
/// histograms, per-tenant admission counters and in-flight gauges. It
/// carries its label *key* (`tenant`, `label`, …), so the exposition
/// reads `server_tenant_accepted{tenant="acme"} 3`. A plain instrument
/// is the one member of a family whose key is empty.
///
/// Callers resolve a member once ([`Family::with_label`]) and record
/// into the `Arc` they keep.
#[derive(Debug)]
pub struct Family<T> {
    pub(crate) label_key: String,
    pub(crate) members: Named<T>,
}

impl<T: Default> Family<T> {
    /// An empty family whose exposition uses `label_key`.
    pub fn new(label_key: &str) -> Self {
        Self {
            label_key: label_key.to_owned(),
            members: Named::default(),
        }
    }

    /// The instrument for `label`, created at zero on first use.
    pub fn with_label(&self, label: &str) -> Arc<T> {
        get_or_insert(&self.members, label, T::default)
    }
}

/// The bundle threaded through the engine, journal, substrate and CLI:
/// a [`Registry`] and the hot-path enable flag.
///
/// `enabled` gates only the *hot* hooks (per-activity timing, heap
/// depths, journal counters). Cold paths — recovery fix-ups, stale
/// work-item releases, crash-sweep tallies — record unconditionally,
/// so even a disabled observer answers "what did recovery do".
#[derive(Default)]
pub struct Observer {
    enabled: bool,
    registry: Arc<Registry>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Observer {
    /// An observer whose hot-path hooks are compiled down to one
    /// branch — the default on every engine that did not opt in.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An observer with hot-path metrics on.
    pub fn enabled() -> Self {
        Self::over(Arc::default(), true)
    }

    /// An observer recording into a registry its owner shares: several
    /// engines over one registry add into the same counters.
    pub fn over(registry: Arc<Registry>, enabled: bool) -> Self {
        Self { enabled, registry }
    }

    /// True when hot-path hooks should record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The instrument registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        g.record_max(3);
        assert_eq!(g.get(), 5, "record_max never lowers");
        g.record_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn bucket_round_trip() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_of(v);
            assert!(bucket_floor(idx) <= v, "floor({idx}) > {v}");
            if idx + 1 < NBUCKETS {
                assert!(bucket_floor(idx + 1) > v, "ceil({idx}) <= {v}");
            }
        }
        // Floors are strictly increasing: the inverse is well defined.
        for idx in 1..NBUCKETS {
            assert!(bucket_floor(idx) > bucket_floor(idx - 1), "idx {idx}");
        }
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // Log-linear with 4 sub-buckets: ≤ 12.5% quantisation error.
        for (q, exact) in [(s.p50, 500u64), (s.p95, 950), (s.p99, 990)] {
            let err = q.abs_diff(exact);
            assert!(err * 8 <= exact, "quantile {q} too far from {exact}");
        }
        assert_eq!(s.mean(), 500);
    }

    #[test]
    fn histogram_small_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(7);
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p95, s.max), (1, 7, 7, 7));
    }

    #[test]
    fn histogram_vec_labels() {
        let v: Family<Histogram> = Family::new("label");
        v.with_label("a").record(10);
        v.with_label("a").record(20);
        v.with_label("b").record(5);
        assert_eq!(v.with_label("a").count(), 2);
        assert_eq!(v.with_label("b").count(), 1);
    }

    #[test]
    fn counter_and_gauge_vec_labels() {
        let c: Family<Counter> = Family::new("tenant");
        c.with_label("acme").inc();
        c.with_label("acme").inc();
        c.with_label("beta").inc();
        assert_eq!(c.label_key, "tenant");
        assert_eq!(c.with_label("acme").get(), 2);
        assert_eq!(c.with_label("beta").get(), 1);

        let g: Family<Gauge> = Family::new("tenant");
        g.with_label("acme").add(3);
        g.with_label("acme").add(-1);
        g.with_label("beta").add(5);
        assert_eq!(g.with_label("acme").get(), 2);
        assert_eq!(g.with_label("beta").get(), 5);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v % 4096);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn observer_defaults() {
        let o = Observer::disabled();
        assert!(!o.is_enabled());
        assert!(Observer::enabled().is_enabled());
        // Cold-path recording works regardless of `enabled`.
        o.registry().counter("cold.path").inc();
        assert_eq!(o.registry().counter("cold.path").get(), 1);
    }
}
