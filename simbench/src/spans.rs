//! Host-time spans recorded by the benchmark around its own calls into the
//! simulator's layers.
//!
//! A span has a name, a start, an end and a parent. Every closed span is
//! folded into a per-name aggregate (count, total time, self time, and a
//! log-linear histogram for percentiles); the first [`RAW_CAP`] spans are
//! also kept verbatim and written out at exit. A span's self time is its
//! duration minus the time its direct children cover.
//!
//! A disabled recorder turns every call into one branch, so the untraced
//! run pays nothing but that branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim; later ones only feed the aggregates.
pub const RAW_CAP: usize = 50_000;

/// Sub-buckets per power of two: percentiles resolve to about 3%.
const SUB: u64 = 32;
const SUB_BITS: u32 = 5;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(usize);

/// A log-linear histogram of durations in nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Midpoint of a bucket's value range.
fn bucket_mid(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let e = b / SUB + u64::from(SUB_BITS) - 1;
    let shift = e - u64::from(SUB_BITS);
    let lo = (SUB + b % SUB) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0..=1) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        0.0
    }
}

/// Per-name totals.
#[derive(Clone, Default)]
pub struct Agg {
    /// Closed spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus direct children.
    pub self_ns: u64,
    /// Duration distribution.
    pub hist: Hist,
}

struct Open {
    name: NameId,
    start_ns: u64,
    child_ns: u64,
    raw: Option<usize>,
}

struct RawSpan {
    name: NameId,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    names: Vec<String>,
    index: BTreeMap<String, NameId>,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    aggs: Vec<Agg>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            index: BTreeMap::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between rounds (no span may be open).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with open spans");
        self.enabled = on;
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NameId(self.names.len());
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        self.aggs.push(Agg::default());
        id
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: NameId) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let raw = (self.raw.len() < RAW_CAP).then(|| {
            self.raw.push(RawSpan {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.raw),
            });
            self.raw.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    /// Closes the innermost span under the name it was opened with.
    #[inline]
    pub fn end(&mut self) {
        if let Some(name) = self.stack.last().map(|o| o.name) {
            self.end_as(name);
        }
    }

    /// Closes the innermost span, filing it under `name` (a call is
    /// classified only once it has returned).
    #[inline]
    pub fn end_as(&mut self, name: NameId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(r) = open.raw {
            self.raw[r].name = name;
            self.raw[r].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let a = &mut self.aggs[name.0];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.hist.record(dur);
    }

    /// The aggregate of `name`, if any span of that name closed.
    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.index
            .get(name)
            .map(|id| &self.aggs[id.0])
            .filter(|a| a.count > 0)
    }

    /// Every aggregate with at least one closed span, by name.
    pub fn aggs(&self) -> impl Iterator<Item = (&str, &Agg)> {
        self.index
            .iter()
            .map(|(n, id)| (n.as_str(), &self.aggs[id.0]))
            .filter(|(_, a)| a.count > 0)
    }

    /// Summed total time of spans whose name satisfies `pred`.
    pub fn total_ns_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.aggs()
            .filter(|(n, _)| pred(n))
            .map(|(_, a)| a.total_ns)
            .sum()
    }

    /// Summed self time of spans whose name satisfies `pred`.
    pub fn self_ns_where(&self, pred: impl Fn(&str) -> bool) -> u64 {
        self.aggs()
            .filter(|(n, _)| pred(n))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// The recorded spans and aggregates as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"unit\":\"ns\",\"aggregates\":{");
        for (i, (name, a)) in self.aggs().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                a.count,
                a.total_ns,
                a.self_ns,
                a.hist.quantile(0.5),
                a.hist.quantile(0.99)
            );
        }
        let _ = writeln!(out, "}},\"raw_cap\":{RAW_CAP},\"spans\":[");
        for (i, s) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}",
                self.names[s.name.0], s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_tight() {
        let mut last = 0;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 12_345, 1 << 40] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 16.0 + 0.5,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() < 50_000.0 * 0.04, "{p50}");
        assert_eq!(h.n(), 1000);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let outer = s.name("outer");
        let inner = s.name("inner");
        s.begin(outer);
        s.begin(inner);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end();
        s.end();
        let o = s.agg("outer").expect("outer closed");
        let i = s.agg("inner").expect("inner closed");
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(s.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let n = s.name("x");
        s.begin(n);
        s.end();
        assert!(s.agg("x").is_none());
    }
}
