//! The named-instrument registry.
//!
//! Instruments are created on first use and shared by name; callers
//! that care about hot-path cost resolve their `Arc` handles once and
//! keep them (see the engine's probe structs) — the registry lookup is
//! for wiring and exposition, not the record path.

use crate::{Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramSnapshot, HistogramVec};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Named counters, gauges, histograms and histogram families.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
    families: RwLock<BTreeMap<String, Arc<HistogramVec>>>,
    counter_vecs: RwLock<BTreeMap<String, Arc<CounterVec>>>,
    gauge_vecs: RwLock<BTreeMap<String, Arc<GaugeVec>>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().expect("observe lock").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("observe lock");
    Arc::clone(w.entry(name.to_owned()).or_default())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.hists, name)
    }

    /// The histogram family named `name`.
    pub fn histogram_vec(&self, name: &str) -> Arc<HistogramVec> {
        get_or_create(&self.families, name)
    }

    /// The counter family named `name`, created on first use with
    /// `label_key` as its exposition label key (`tenant`, `shard`, …).
    /// The key is fixed by whoever creates the family first.
    pub fn counter_vec(&self, name: &str, label_key: &str) -> Arc<CounterVec> {
        if let Some(v) = self.counter_vecs.read().expect("observe lock").get(name) {
            return Arc::clone(v);
        }
        let mut w = self.counter_vecs.write().expect("observe lock");
        Arc::clone(
            w.entry(name.to_owned())
                .or_insert_with(|| Arc::new(CounterVec::new(label_key))),
        )
    }

    /// The gauge family named `name` (see [`Registry::counter_vec`]).
    pub fn gauge_vec(&self, name: &str, label_key: &str) -> Arc<GaugeVec> {
        if let Some(v) = self.gauge_vecs.read().expect("observe lock").get(name) {
            return Arc::clone(v);
        }
        let mut w = self.gauge_vecs.write().expect("observe lock");
        Arc::clone(
            w.entry(name.to_owned())
                .or_insert_with(|| Arc::new(GaugeVec::new(label_key))),
        )
    }

    /// Snapshots every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .expect("observe lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("observe lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .hists
                .read()
                .expect("observe lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            families: self
                .families
                .read()
                .expect("observe lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            counter_vecs: self
                .counter_vecs
                .read()
                .expect("observe lock")
                .iter()
                .map(|(k, v)| (k.clone(), (v.label_key().to_owned(), v.snapshot())))
                .collect(),
            gauge_vecs: self
                .gauge_vecs
                .read()
                .expect("observe lock")
                .iter()
                .map(|(k, v)| (k.clone(), (v.label_key().to_owned(), v.snapshot())))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`]'s instruments, ready for
/// rendering.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Histogram-family summaries: name → sorted (label, summary).
    pub families: BTreeMap<String, Vec<(String, HistogramSnapshot)>>,
    /// Counter-family values: name → (label key, sorted (label, value)).
    pub counter_vecs: BTreeMap<String, (String, Vec<(String, u64)>)>,
    /// Gauge-family levels: name → (label key, sorted (label, level)).
    pub gauge_vecs: BTreeMap<String, (String, Vec<(String, i64)>)>,
}

/// `foo.bar-baz` → `foo_bar_baz` (Prometheus metric name charset).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `key="label"` with `\`, `"` and newline escaped as the exposition
/// format requires — the one place a label value is written, so a
/// hostile tenant or activity name cannot break out of its quotes.
fn prom_label(key: &str, label: &str) -> String {
    let mut out = format!("{key}=\"");
    for c in label.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn prom_hist(out: &mut String, name: &str, label: Option<&str>, s: &HistogramSnapshot) {
    // The label as it leads a quantile's label set, and as a set of
    // its own.
    let (lead, only) = label.map_or_else(Default::default, |l| {
        let l = prom_label("label", l);
        (format!("{l},"), format!("{{{l}}}"))
    });
    for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
        out.push_str(&format!("{name}{{{lead}quantile=\"{q}\"}} {v}\n"));
    }
    for (suffix, v) in [("count", s.count), ("sum", s.sum), ("max", s.max)] {
        out.push_str(&format!("{name}_{suffix}{only} {v}\n"));
    }
}

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (histograms as quantile summaries).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, s) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            prom_hist(&mut out, &n, None, s);
        }
        for (name, labels) in &self.families {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, s) in labels {
                prom_hist(&mut out, &n, Some(label), s);
            }
        }
        for (name, (key, labels)) in &self.counter_vecs {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n"));
            for (label, v) in labels {
                out.push_str(&format!("{n}{{{}}} {v}\n", prom_label(key, label)));
            }
        }
        for (name, (key, labels)) in &self.gauge_vecs {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n"));
            for (label, v) in labels {
                out.push_str(&format!("{n}{{{}}} {v}\n", prom_label(key, label)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a.b").add(3);
        assert_eq!(r.counter("a.b").get(), 3);
        r.gauge("g").set(-4);
        assert_eq!(r.gauge("g").get(), -4);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").count(), 1);
        r.histogram_vec("f").observe("x", 1);
        assert_eq!(r.histogram_vec("f").with_label("x").count(), 1);
    }

    #[test]
    fn snapshot_and_prometheus_rendering() {
        let r = Registry::new();
        r.counter("engine.steps").add(42);
        r.gauge("heap.depth").record_max(7);
        r.histogram("flush.ns").record(1000);
        r.histogram_vec("act.latency_ns").observe("T1", 500);

        let snap = r.snapshot();
        assert_eq!(snap.counters["engine.steps"], 42);
        assert_eq!(snap.gauges["heap.depth"], 7);
        assert_eq!(snap.histograms["flush.ns"].count, 1);
        assert_eq!(snap.families["act.latency_ns"][0].0, "T1");

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE engine_steps counter"));
        assert!(text.contains("engine_steps 42"));
        assert!(text.contains("heap_depth 7"));
        assert!(text.contains("flush_ns{quantile=\"0.5\"}"));
        assert!(text.contains("act_latency_ns{label=\"T1\",quantile=\"0.99\"}"));
        assert!(text.contains("act_latency_ns_count{label=\"T1\"} 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let tenant = "ac\"me\\corp\nup 1";
        r.counter_vec("server.tenant.accepted", "tenant")
            .inc(tenant);
        r.gauge_vec("server.tenant.inflight", "tenant")
            .add(tenant, 2);
        r.histogram_vec("act.latency_ns").observe("Blk/\"T\"", 5);

        let text = r.snapshot().to_prometheus();
        let escaped = r#"tenant="ac\"me\\corp\nup 1""#;
        assert!(text.contains(&format!("server_tenant_accepted{{{escaped}}} 1\n")));
        assert!(text.contains(&format!("server_tenant_inflight{{{escaped}}} 2\n")));
        assert!(text.contains(r#"act_latency_ns{label="Blk/\"T\"",quantile="0.5"} 5"#));
        assert!(text.contains(r#"act_latency_ns_count{label="Blk/\"T\""} 1"#));
        // The raw newline did not start an exposition line of its own.
        assert!(!text.lines().any(|l| l.starts_with("up 1")));
    }

    #[test]
    fn labeled_families_render_with_their_key() {
        let r = Registry::new();
        r.counter_vec("server.tenant.accepted", "tenant")
            .inc("acme");
        r.counter_vec("server.tenant.accepted", "tenant")
            .inc("acme");
        r.counter_vec("server.tenant.accepted", "tenant")
            .inc("beta");
        r.gauge_vec("server.tenant.inflight", "tenant")
            .add("acme", 3);

        let snap = r.snapshot();
        let (key, labels) = &snap.counter_vecs["server.tenant.accepted"];
        assert_eq!(key, "tenant");
        assert_eq!(labels[0], ("acme".to_owned(), 2));

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE server_tenant_accepted counter"));
        assert!(text.contains("server_tenant_accepted{tenant=\"acme\"} 2"));
        assert!(text.contains("server_tenant_accepted{tenant=\"beta\"} 1"));
        assert!(text.contains("# TYPE server_tenant_inflight gauge"));
        assert!(text.contains("server_tenant_inflight{tenant=\"acme\"} 3"));
    }
}
