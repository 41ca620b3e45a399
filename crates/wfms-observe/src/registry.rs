//! The named-instrument registry and the one shape of what is
//! observed: a [`Snapshot`] is a list of [`Series`].
//!
//! Instruments are created on first use and shared by name; callers
//! that care about hot-path cost resolve their `Arc` handles once and
//! keep them (see the engine's probe structs) — the registry lookup is
//! for wiring and exposition, not the record path.
//!
//! What is *counted* lives here and is read by [`Registry::snapshot`];
//! what is *sampled* — a level its owner already holds, like a log's
//! resident records — is pushed onto the same list by its owner, the
//! name written once, beside the number. Either way one renderer,
//! [`Snapshot::to_prometheus`], prints it.

use crate::{get_or_insert, Counter, Family, Gauge, Histogram, HistogramSnapshot, Named};
use serde::Serialize;
use std::sync::Arc;

/// Label key of the one member of a plain instrument's family.
const PLAIN: &str = "";

/// Named counters, gauges and histograms, each a [`Family`]: a plain
/// instrument is the label-less member of its own.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Named<Family<Counter>>,
    gauges: Named<Family<Gauge>>,
    histograms: Named<Family<Histogram>>,
}

fn family<T: Default>(map: &Named<Family<T>>, name: &str, label_key: &str) -> Arc<Family<T>> {
    get_or_insert(map, name, || Family::new(label_key))
}

/// Appends every member of every family in `map`, in name then label
/// order.
fn collect<T>(map: &Named<Family<T>>, value: impl Fn(&T) -> Value, out: &mut Vec<Series>) {
    for (name, family) in map.read().expect("observe lock").iter() {
        let key = &family.label_key;
        for (label, member) in family.members.read().expect("observe lock").iter() {
            out.push(Series {
                name: name.clone(),
                label: (key != PLAIN).then(|| (key.to_owned(), label.clone())),
                value: value(member),
            });
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        family(&self.counters, name, PLAIN).with_label(PLAIN)
    }

    /// The gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        family(&self.gauges, name, PLAIN).with_label(PLAIN)
    }

    /// The histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        family(&self.histograms, name, PLAIN).with_label(PLAIN)
    }

    /// The histogram family named `name`; its label key is `label`.
    pub fn histogram_vec(&self, name: &str) -> Arc<Family<Histogram>> {
        family(&self.histograms, name, "label")
    }

    /// The counter family named `name`, created on first use with
    /// `label_key` as its exposition label key (`tenant`, `shard`, …).
    /// The key is fixed by whoever creates the family first.
    pub fn counter_vec(&self, name: &str, label_key: &str) -> Arc<Family<Counter>> {
        family(&self.counters, name, label_key)
    }

    /// The gauge family named `name` (see [`Registry::counter_vec`]).
    pub fn gauge_vec(&self, name: &str, label_key: &str) -> Arc<Family<Gauge>> {
        family(&self.gauges, name, label_key)
    }

    /// Snapshots every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let mut series = Vec::new();
        collect(&self.counters, |c| Value::Counter(c.get()), &mut series);
        collect(&self.gauges, |g| Value::Gauge(g.get()), &mut series);
        collect(
            &self.histograms,
            |h| Value::Summary(h.snapshot()),
            &mut series,
        );
        Snapshot { series }
    }
}

/// What a [`Series`] reads, and so how it is exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Value {
    /// A monotone count.
    Counter(u64),
    /// A level.
    Gauge(i64),
    /// A histogram's quantile summary.
    Summary(HistogramSnapshot),
}

/// One observed number (or summary) and its name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Series {
    /// Dotted name (`nav.executions`); the exposition writes `_` for
    /// every character outside `[A-Za-z0-9]`.
    pub name: String,
    /// `(label key, label value)` of a family member.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub label: Option<(String, String)>,
    /// The reading.
    pub value: Value,
}

/// Point-in-time readings, from a [`Registry`] and from whoever pushed
/// what it samples: the one shape tests read by name and `/metrics`
/// renders.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Snapshot {
    /// The readings, in no particular order.
    pub series: Vec<Series>,
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

impl Snapshot {
    /// Appends the sample `name` = `value`, labelled `label` if given.
    pub fn push(&mut self, name: &str, label: Option<(&str, &str)>, value: Value) {
        self.series.push(Series {
            name: name.to_owned(),
            label: label.map(|(k, v)| (k.to_owned(), v.to_owned())),
            value,
        });
    }

    /// Adds `value` into the count or level already held under the
    /// same name and label, or appends it — how the samples of several
    /// engines become one.
    pub fn add(&mut self, name: &str, label: Option<(&str, &str)>, value: Value) {
        let held = self
            .series
            .iter_mut()
            .find(|s| s.name == name && s.label.as_ref().map(|(k, v)| (&**k, &**v)) == label);
        match (held.map(|s| &mut s.value), value) {
            (Some(Value::Counter(held)), Value::Counter(v)) => *held += v,
            (Some(Value::Gauge(held)), Value::Gauge(v)) => *held += v,
            _ => self.push(name, label, value),
        }
    }

    /// The unlabelled series `name`.
    fn plain(&self, name: &str) -> Option<Value> {
        let found = self
            .series
            .iter()
            .find(|s| s.name == name && s.label.is_none());
        found.map(|s| s.value)
    }

    /// The counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.plain(name)? {
            Value::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.plain(name)? {
            Value::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The histogram summary `name`.
    pub fn summary(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.plain(name)? {
            Value::Summary(s) => Some(s),
            _ => None,
        }
    }

    /// The members of the labelled family `name`: `(label value,
    /// reading)`, in the order they were collected (a registry's: by
    /// label).
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, Value)> + 'a {
        self.series
            .iter()
            .filter(move |s| s.name == name)
            .filter_map(|s| Some((s.label.as_ref()?.1.as_str(), s.value)))
    }

    /// Renders the snapshot in the Prometheus text exposition format,
    /// by name then label, one `# TYPE` line per name (histograms as
    /// quantile summaries).
    pub fn to_prometheus(&self) -> String {
        let mut sorted: Vec<&Series> = self.series.iter().collect();
        sorted.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut out = String::new();
        let (mut declared, mut n) = (None, String::new());
        for s in sorted {
            let label = s.label.as_ref().map(|(k, v)| prom_label(k, v));
            // The label as a set of its own, and as it leads a
            // quantile's label set.
            let (only, lead) =
                label.map_or_else(Default::default, |l| (format!("{{{l}}}"), format!("{l},")));
            if declared != Some(&s.name) {
                n = prom_name(&s.name);
                let kind = match s.value {
                    Value::Counter(_) => "counter",
                    Value::Gauge(_) => "gauge",
                    Value::Summary(_) => "summary",
                };
                out.push_str(&format!("# TYPE {n} {kind}\n"));
                declared = Some(&s.name);
            }
            match s.value {
                Value::Counter(v) => out.push_str(&format!("{n}{only} {v}\n")),
                Value::Gauge(v) => out.push_str(&format!("{n}{only} {v}\n")),
                Value::Summary(h) => {
                    for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                        out.push_str(&format!("{n}{{{lead}quantile=\"{q}\"}} {v}\n"));
                    }
                    for (suffix, v) in [("count", h.count), ("sum", h.sum), ("max", h.max)] {
                        out.push_str(&format!("{n}_{suffix}{only} {v}\n"));
                    }
                }
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
        r.histogram_vec("f").with_label("x").record(1);
        assert_eq!(r.histogram_vec("f").with_label("x").count(), 1);
    }

    #[test]
    fn snapshot_and_prometheus_rendering() {
        let r = Registry::new();
        r.counter("engine.steps").add(42);
        r.gauge("heap.depth").record_max(7);
        r.histogram("flush.ns").record(1000);
        r.histogram_vec("act.latency_ns")
            .with_label("T1")
            .record(500);

        let snap = r.snapshot();
        assert_eq!(snap.counter("engine.steps"), Some(42));
        assert_eq!(snap.gauge("heap.depth"), Some(7));
        assert_eq!(snap.summary("flush.ns").unwrap().count, 1);
        assert_eq!(snap.family("act.latency_ns").next().unwrap().0, "T1");
        assert_eq!(snap.counter("heap.depth"), None, "a gauge is no counter");

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
            .with_label(tenant)
            .inc();
        r.gauge_vec("server.tenant.inflight", "tenant")
            .with_label(tenant)
            .add(2);
        r.histogram_vec("act.latency_ns")
            .with_label("Blk/\"T\"")
            .record(5);

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
        let accepted = r.counter_vec("server.tenant.accepted", "tenant");
        accepted.with_label("acme").inc();
        accepted.with_label("acme").inc();
        accepted.with_label("beta").inc();
        r.gauge_vec("server.tenant.inflight", "tenant")
            .with_label("acme")
            .add(3);

        let snap = r.snapshot();
        let first = &snap.series[0];
        assert_eq!(first.label, Some(("tenant".to_owned(), "acme".to_owned())));
        assert_eq!(
            snap.family("server.tenant.accepted").collect::<Vec<_>>(),
            [("acme", Value::Counter(2)), ("beta", Value::Counter(1))]
        );

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE server_tenant_accepted counter"));
        assert!(text.contains("server_tenant_accepted{tenant=\"acme\"} 2"));
        assert!(text.contains("server_tenant_accepted{tenant=\"beta\"} 1"));
        assert!(text.contains("# TYPE server_tenant_inflight gauge"));
        assert!(text.contains("server_tenant_inflight{tenant=\"acme\"} 3"));
    }

    #[test]
    fn samples_join_the_list_and_sum_by_name_and_label() {
        let r = Registry::new();
        r.counter("nav.executions").add(2);
        let mut snap = r.snapshot();
        for _engine in 0..2 {
            snap.add("db.txns_begun", Some(("db", "a")), Value::Counter(3));
            snap.add("db.txns_begun", Some(("db", "b")), Value::Counter(1));
            snap.add("journal.events", None, Value::Gauge(10));
            snap.add("nav.executions", None, Value::Counter(1));
        }
        assert_eq!(snap.gauge("journal.events"), Some(20));
        assert_eq!(snap.counter("nav.executions"), Some(4));
        // One `# TYPE` per name although db `a`'s and `b`'s samples
        // were pushed interleaved with other names.
        let text = snap.to_prometheus();
        assert_eq!(text.matches("# TYPE db_txns_begun counter\n").count(), 1);
        assert!(text.contains("db_txns_begun{db=\"a\"} 6\ndb_txns_begun{db=\"b\"} 2\n"));
    }
}
