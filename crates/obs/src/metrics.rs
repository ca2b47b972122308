//! The metrics registry (latency histograms) and the snapshot it feeds.
//!
//! Counters live where they are counted: hot-path structs (`MachineStats`
//! and friends) stay plain fields, and the kernel folds them into a
//! [`MetricsSnapshot`] on demand, next to the histograms recorded live in
//! the registry. Snapshots serialize to JSON with sorted keys and subtract
//! (`diff`) so two points in a run describe the work between them.

use std::collections::BTreeMap;

use vusion_stats::percentile;

use crate::json::{fmt_f64, quote};

/// Bounded latency sample (a ring: the histogram summarizes the most
/// recent `cap` observations; `count` keeps the lifetime total).
#[derive(Debug, Clone)]
struct LatencySample {
    samples: Vec<f64>,
    pos: usize,
    cap: usize,
    count: u64,
}

/// How many samples a histogram retains (per metric).
pub const HISTOGRAM_WINDOW: usize = 4096;

impl LatencySample {
    fn new(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            pos: 0,
            cap,
            count: 0,
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            self.samples[self.pos] = v;
            self.pos = (self.pos + 1) % self.cap;
        }
    }
}

/// Point-in-time summary of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Lifetime observation count.
    pub count: u64,
    /// Minimum of the retained window.
    pub min: f64,
    /// Median of the retained window.
    pub p50: f64,
    /// 90th percentile of the retained window.
    pub p90: f64,
    /// 99th percentile of the retained window.
    pub p99: f64,
    /// Maximum of the retained window.
    pub max: f64,
    /// Mean of the retained window.
    pub mean: f64,
}

/// The live registry of latency histograms. Names are `&'static str`
/// (subsystem-dot-metric, e.g. `"fault.latency_ns"`); storage is a sorted
/// map so every snapshot iterates deterministically.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    histograms: BTreeMap<&'static str, LatencySample>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation into `name`'s histogram.
    ///
    /// Crate-private: latency is sampled only inside this crate, through
    /// typed wrappers like `Obs::observe_fault_latency`, so every sample
    /// feeds the surface recorder's artifact. Other crates cannot call it
    /// (E0624):
    ///
    /// ```compile_fail
    /// let mut r = vusion_obs::MetricsRegistry::new();
    /// r.observe("fault.latency_ns", 1.0);
    /// ```
    pub(crate) fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| LatencySample::new(HISTOGRAM_WINDOW))
            .record(value);
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.histograms.clear();
    }

    /// Freezes the registry into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (&k, s) in &self.histograms {
            if s.samples.is_empty() {
                continue;
            }
            let window = &s.samples;
            let mean = window.iter().sum::<f64>() / window.len() as f64;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &v in window {
                min = min.min(v);
                max = max.max(v);
            }
            snap.histograms.insert(
                k.to_string(),
                HistogramSummary {
                    count: s.count,
                    min,
                    p50: percentile(window, 50.0),
                    p90: percentile(window, 90.0),
                    p99: percentile(window, 99.0),
                    max,
                    mean,
                },
            );
        }
        snap
    }
}

/// A frozen view of the registry (plus whatever structured counters the
/// kernel folded in), serializable and diffable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Latency histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Sets a counter (kernel fold-in of structured stats).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The delta from `earlier` to `self`: counters subtract (saturating,
    /// so a cleared registry diffs to zero rather than wrapping), gauges
    /// keep the later value, histograms keep the later summary with the
    /// observation count subtracted.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in &mut out.counters {
            if let Some(e) = earlier.counters.get(k) {
                *v = v.saturating_sub(*e);
            }
        }
        for (k, h) in &mut out.histograms {
            if let Some(e) = earlier.histograms.get(k) {
                h.count = h.count.saturating_sub(e.count);
            }
        }
        out
    }

    /// Renders the snapshot as JSON with sorted keys (deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", quote(k), v));
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", quote(k), v));
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
                 \"max\":{},\"mean\":{}}}",
                quote(k),
                h.count,
                fmt_f64(h.min),
                fmt_f64(h.p50),
                fmt_f64(h.p90),
                fmt_f64(h.p99),
                fmt_f64(h.max),
                fmt_f64(h.mean)
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_counters_and_gauges_are_set() {
        let mut s = MetricsRegistry::new().snapshot();
        s.set_counter("a.x", 5);
        s.set_gauge("g", -7);
        assert_eq!(s.counters["a.x"], 5);
        assert_eq!(s.gauges["g"], -7);
    }

    #[test]
    fn histogram_summary_percentiles() {
        let mut r = MetricsRegistry::new();
        for i in 1..=100 {
            r.observe("lat", i as f64);
        }
        let h = r.snapshot().histograms["lat"];
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.p50 - 50.5).abs() < 1e-9);
        assert!(h.p90 > h.p50 && h.p99 > h.p90);
    }

    #[test]
    fn diff_subtracts_counters() {
        let mut r = MetricsRegistry::new();
        let mut early = r.snapshot();
        early.set_counter("c", 10);
        r.observe("h", 1.0);
        let mut late = r.snapshot();
        late.set_counter("c", 15);
        let d = late.diff(&early);
        assert_eq!(d.counters["c"], 5);
        assert_eq!(d.histograms["h"].count, 1);
    }

    #[test]
    fn json_sorted_and_valid_shape() {
        let mut r = MetricsRegistry::new();
        r.observe("lat", 3.5);
        let mut s = r.snapshot();
        s.set_counter("b.count", 1);
        s.set_counter("a.count", 2);
        let j = s.to_json();
        assert!(
            j.find("\"a.count\"").expect("a") < j.find("\"b.count\"").expect("b"),
            "{j}"
        );
        assert!(j.contains("\"p50\":3.5"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn histogram_window_is_bounded() {
        let mut r = MetricsRegistry::new();
        for i in 0..(HISTOGRAM_WINDOW + 100) {
            r.observe("h", i as f64);
        }
        let h = r.snapshot().histograms["h"];
        assert_eq!(h.count, (HISTOGRAM_WINDOW + 100) as u64);
        // The window dropped the oldest 100 samples.
        assert_eq!(h.min, 100.0);
    }
}
