//! A registry of named counters, gauges and histograms.
//!
//! Hot paths pre-register a metric once (getting a small integer
//! handle) and then bump it with an index plus one `enabled` branch —
//! no hashing, no allocation. Rare events (a BEX completing, an SA
//! being installed) can use the by-name API, which lazily registers.
//!
//! Registries from parallel sweep shards merge by name; dumps are
//! sorted by name so output is deterministic.

use crate::hist::Histogram;
use crate::json;
use std::collections::HashMap;

/// Handle to a pre-registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtrId(usize);

/// Handle to a pre-registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a pre-registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Named counters, gauges and histograms. See the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, Histogram)>,
    by_name: HashMap<String, Slot>,
}

#[derive(Clone, Copy)]
enum Slot {
    Ctr(usize),
    Gauge(usize),
    Hist(usize),
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry { enabled: true, ..Default::default() }
    }

    /// A disabled registry: registration still works (handles stay
    /// valid), but every observation is a no-op behind one branch.
    pub fn disabled() -> Self {
        MetricsRegistry::default()
    }

    /// Whether observations are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Registers (or finds) a counter, returning its handle.
    pub fn counter(&mut self, name: &str) -> CtrId {
        match self.by_name.get(name) {
            Some(Slot::Ctr(i)) => CtrId(*i),
            Some(_) => panic!("metric {name:?} already registered with a different type"),
            None => {
                let i = self.counters.len();
                self.counters.push((name.to_string(), 0));
                self.by_name.insert(name.to_string(), Slot::Ctr(i));
                CtrId(i)
            }
        }
    }

    /// Registers (or finds) a gauge, returning its handle.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.by_name.get(name) {
            Some(Slot::Gauge(i)) => GaugeId(*i),
            Some(_) => panic!("metric {name:?} already registered with a different type"),
            None => {
                let i = self.gauges.len();
                self.gauges.push((name.to_string(), 0));
                self.by_name.insert(name.to_string(), Slot::Gauge(i));
                GaugeId(i)
            }
        }
    }

    /// Registers (or finds) a histogram, returning its handle.
    pub fn hist(&mut self, name: &str) -> HistId {
        match self.by_name.get(name) {
            Some(Slot::Hist(i)) => HistId(*i),
            Some(_) => panic!("metric {name:?} already registered with a different type"),
            None => {
                let i = self.hists.len();
                self.hists.push((name.to_string(), Histogram::new()));
                self.by_name.insert(name.to_string(), Slot::Hist(i));
                HistId(i)
            }
        }
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CtrId) {
        if self.enabled {
            self.counters[id.0].1 += 1;
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CtrId, n: u64) {
        if self.enabled {
            self.counters[id.0].1 += n;
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: i64) {
        if self.enabled {
            self.gauges[id.0].1 = v;
        }
    }

    /// Adjusts a gauge by `delta`.
    #[inline]
    pub fn gauge_add(&mut self, id: GaugeId, delta: i64) {
        if self.enabled {
            self.gauges[id.0].1 += delta;
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        if self.enabled {
            self.hists[id.0].1.record(v);
        }
    }

    /// By-name counter add (lazy registration; rare paths only).
    pub fn add_name(&mut self, name: &str, n: u64) {
        if self.enabled {
            let id = self.counter(name);
            self.counters[id.0].1 += n;
        }
    }

    /// By-name gauge set (lazy registration; rare paths only).
    pub fn set_gauge_name(&mut self, name: &str, v: i64) {
        if self.enabled {
            let id = self.gauge(name);
            self.gauges[id.0].1 = v;
        }
    }

    /// By-name histogram observation (lazy registration; rare paths
    /// only — per-request paths should pre-register).
    pub fn observe_name(&mut self, name: &str, v: u64) {
        if self.enabled {
            let id = self.hist(name);
            self.hists[id.0].1.record(v);
        }
    }

    /// Current value of a counter, by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.by_name.get(name)? {
            Slot::Ctr(i) => Some(self.counters[*i].1),
            _ => None,
        }
    }

    /// Current value of a gauge, by name.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.by_name.get(name)? {
            Slot::Gauge(i) => Some(self.gauges[*i].1),
            _ => None,
        }
    }

    /// A histogram, by name.
    pub fn hist_get(&self, name: &str) -> Option<&Histogram> {
        match self.by_name.get(name)? {
            Slot::Hist(i) => Some(&self.hists[*i].1),
            _ => None,
        }
    }

    /// Iterates counters as `(name, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates gauges as `(name, value)`.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates histograms as `(name, hist)`.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Merges `other` into `self` by metric name: counters add, gauges
    /// add (shard totals), histograms merge bucket-wise. Metrics only
    /// present in `other` are created here.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.counters[id.0].1 += v;
        }
        for (name, v) in &other.gauges {
            let id = self.gauge(name);
            self.gauges[id.0].1 += v;
        }
        for (name, h) in &other.hists {
            let id = self.hist(name);
            self.hists[id.0].1.merge(h);
        }
    }

    /// Full dump as a JSON object with `counters`, `gauges` and
    /// `hists` sections, all sorted by name (deterministic output).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut ctrs: Vec<_> = self.counters.iter().collect();
        ctrs.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, v)) in ctrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        let mut gs: Vec<_> = self.gauges.iter().collect();
        gs.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, v)) in gs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"hists\":{");
        let mut hs: Vec<_> = self.hists.iter().collect();
        hs.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, (name, h)) in hs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            out.push_str(&h.summary_json());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_and_names_agree() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("pkts");
        let g = r.gauge("queue_depth");
        let h = r.hist("latency");
        r.inc(c);
        r.add(c, 4);
        r.set_gauge(g, 7);
        r.gauge_add(g, -2);
        r.observe(h, 100);
        r.observe_name("latency", 200);
        assert_eq!(r.counter_value("pkts"), Some(5));
        assert_eq!(r.gauge_value("queue_depth"), Some(5));
        assert_eq!(r.hist_get("latency").unwrap().count(), 2);
        // Re-registration returns the same handle.
        assert_eq!(r.counter("pkts"), c);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = MetricsRegistry::disabled();
        let c = r.counter("pkts");
        r.inc(c);
        r.add_name("other", 3);
        r.observe_name("lat", 5);
        assert_eq!(r.counter_value("pkts"), Some(0));
        assert_eq!(r.counter_value("other"), None);
        assert!(r.hist_get("lat").is_none());
    }

    #[test]
    fn merge_by_name() {
        let mut a = MetricsRegistry::new();
        a.add_name("x", 1);
        a.observe_name("h", 10);
        let mut b = MetricsRegistry::new();
        b.add_name("y", 2);
        b.add_name("x", 3);
        b.observe_name("h", 30);
        a.merge(&b);
        assert_eq!(a.counter_value("x"), Some(4));
        assert_eq!(a.counter_value("y"), Some(2));
        assert_eq!(a.hist_get("h").unwrap().count(), 2);
        assert_eq!(a.hist_get("h").unwrap().max(), 30);
    }

    #[test]
    fn json_dump_is_sorted_and_parseable_shape() {
        let mut r = MetricsRegistry::new();
        r.add_name("z.ctr", 1);
        r.add_name("a.ctr", 2);
        r.set_gauge_name("g", -3);
        r.observe_name("h", 42);
        let j = r.to_json();
        assert!(j.find("\"a.ctr\"").unwrap() < j.find("\"z.ctr\"").unwrap());
        assert!(j.contains("\"g\":-3"));
        assert!(j.contains("\"p50\":42"));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.counter("m");
        r.hist("m");
    }
}
