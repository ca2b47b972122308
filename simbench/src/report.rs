//! A whole run: repeat rounds for the requested time, check the outputs
//! across rounds, and turn per-lap minima, medians, spans and counts into
//! named metrics.

use std::fmt::Write as _;
use std::time::Instant;

use crate::model::{self, Costs};
use crate::rounds::{self, Counts, Inputs, Lap, Round};
use crate::spans::Spans;
use crate::{median, peak_rss_mib, HostFacts, Workload, DEFAULT_SEED};

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Host seconds to keep running rounds.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced rounds, and report the
    /// per-layer metrics.
    pub trace: bool,
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time (or a rate or ratio of it).
    Host,
    /// Simulated time, or a deterministic count of simulated events.
    Sim,
    /// Both: simulated work per host time.
    SimPerHost,
    /// Neither: a host resource or a failure share.
    None,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::SimPerHost => "sim/host",
            Clock::None => "none",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Which clock it reads.
    pub clock: Clock,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        clock,
    }
}

/// Everything a run produced.
pub struct RunOutcome {
    /// The request.
    pub config: RunConfig,
    /// Host facts.
    pub host: HostFacts,
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// Failed checks of the whole run.
    pub failures: Vec<String>,
    /// Operations and checks tried.
    pub tried: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Digest of the first round's simulated statistics.
    pub digest: u64,
    /// Deterministic counts of one round's measured phase.
    pub counts: Counts,
    /// The end-to-end metrics (from untraced rounds).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Spans of the traced rounds.
    pub spans: Spans,
}

/// End-to-end metrics on the result line.
///
/// One rule decides both result lines: every metric `BENCHMARK.json`
/// names is on its line for every workload. End-to-end metrics carry a
/// regression bound relative to their median, so each must be non-zero
/// on every workload. `accesses_per_s` and `replay_events_per_s` exist on
/// one or two workloads only, so the line carries them as
/// `headline_ops_per_s`, which is each workload's headline rate;
/// `failed_frac` is zero whenever the run is correct, and the line's
/// `failed`/`attempted` carry it. Per-layer metrics carry no bound; one
/// reads 0 on a workload that does not run its layer or engine.
pub const RESULT_E2E: [&str; 5] = [
    "wall_s",
    "setup_s",
    "sim_s_per_host_s",
    "headline_ops_per_s",
    "peak_rss_mib",
];

/// Leading rounds left out of the metrics: they run while the process
/// heap still grows from the operating system, and measure that.
const WARMUP_ROUNDS: usize = 2;

/// Measured rounds every run makes at least, whatever its time.
const MIN_ROUNDS: usize = 3;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Host seconds of the laps `keep` accepts, each at its fastest over
/// `rounds`: the sum over lap positions of the minimum over rounds.
///
/// Host noise on this kind of shared machine only ever adds time, and it
/// comes in spells (the same lap runs up to 1.8 times slower for seconds
/// at a time), so a median over whole rounds moves with the share of a run
/// spent in a slow spell. Each lap position's fastest time is the reading
/// least touched by noise, and a lap is short (milliseconds), so a brief
/// quiet moment in any round suffices to read it.
fn fastest(rounds: &[&Round], keep: impl Fn(Lap) -> bool) -> f64 {
    let Some(first) = rounds.first() else {
        return 0.0;
    };
    (0..first.laps.len())
        .filter(|&i| keep(first.laps[i].0))
        .map(|i| {
            rounds
                .iter()
                .filter_map(|r| r.laps.get(i).map(|l| l.1))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Counts that only traced rounds take (they need a span per call).
fn trace_only(name: &str) -> bool {
    name.ends_with(".fault_accesses")
}

/// Runs rounds until `config.seconds` have passed, then checks and
/// summarizes them.
pub fn run(config: RunConfig) -> RunOutcome {
    let inputs = Inputs::new(config.workload, config.seed);
    let mut spans = Spans::new(false);
    let mut rounds = Vec::new();
    let mut last_systems = Vec::new();
    let start = Instant::now();
    while rounds.len() < WARMUP_ROUNDS + MIN_ROUNDS * (1 + usize::from(config.trace))
        || start.elapsed().as_secs_f64() < config.seconds
    {
        let traced = config.trace && rounds.len() >= WARMUP_ROUNDS && rounds.len() % 2 == 1;
        spans.set_enabled(traced);
        // Free the previous round's systems first, so memory peaks at one
        // round's worth.
        last_systems.clear();
        let (round, systems) = rounds::round(&inputs, &mut spans, config.trace && !traced);
        rounds.push(round);
        last_systems = systems;
    }
    spans.set_enabled(false);

    // Run-level checks: every round simulated the same inputs, so its
    // digest and counts must equal round 0's; the default seed's digest is
    // pinned.
    let first = &rounds[0];
    let comparable = |c: &Counts| -> Counts {
        c.iter()
            .filter(|(k, _)| !trace_only(k))
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    };
    let mut checks: Vec<(bool, String)> = Vec::new();
    for (i, r) in rounds.iter().enumerate().skip(1) {
        checks.push((
            r.digest == first.digest,
            format!(
                "round {i}: digest {:#018x} differs from round 0's {:#018x}",
                r.digest, first.digest
            ),
        ));
        checks.push((
            comparable(&r.counts) == comparable(&first.counts),
            format!(
                "round {i} (traced={}): counts differ from round 0's",
                r.traced
            ),
        ));
    }
    if config.seed == DEFAULT_SEED {
        let pinned = rounds::pinned_digest(config.workload);
        checks.push((
            first.digest == pinned,
            format!(
                "digest {:#018x} differs from the pinned {pinned:#018x}",
                first.digest
            ),
        ));
    }
    let mut failures: Vec<String> = Vec::new();
    let mut tried = checks.len() as u64;
    let mut failed = 0;
    for (ok, what) in checks {
        if !ok {
            failed += 1;
            failures.push(what);
        }
    }
    for r in &rounds {
        tried += r.accesses + r.wakes + r.replay_events + r.checks;
        failed += r.failed_ops + r.failed_checks.len() as u64;
        failures.extend(r.failed_checks.iter().cloned());
        if r.failed_ops > 0 {
            failures.push(format!("{} unresolved faults or livelocks", r.failed_ops));
        }
    }

    // Counts of a traced round carry the trace-only counts too.
    let counts = rounds
        .iter()
        .find(|r| r.traced)
        .unwrap_or(first)
        .counts
        .clone();
    let digest = first.digest;

    let measured = &rounds[WARMUP_ROUNDS..];
    let untraced: Vec<&Round> = measured.iter().filter(|r| !r.traced).collect();
    // Every round does the same work, so rates divide it by its time.
    let wall_s = fastest(&untraced, |_| true);
    let accesses_per_s = ratio(
        first.accesses as f64,
        fastest(&untraced, |k| k == Lap::Drive),
    );
    let replay_events_per_s = ratio(
        first.replay_events as f64,
        fastest(&untraced, |k| k == Lap::Replay),
    );
    // Scanner wakes stand for `idle_fusion`'s simulated seconds: each
    // wake is one simulated scan period.
    let headline_ops_per_s = match config.workload {
        Workload::IdleFusion => ratio(first.wakes as f64, wall_s),
        Workload::GuestChurn => accesses_per_s,
        Workload::TracedReplay => replay_events_per_s,
    };
    let end_to_end = vec![
        metric("wall_s", wall_s, "s", Clock::Host),
        metric(
            "setup_s",
            median(untraced.iter().map(|r| r.setup_s)),
            "s",
            Clock::Host,
        ),
        metric(
            "sim_s_per_host_s",
            ratio(first.sim_ns as f64 / 1e9, wall_s),
            "s/s",
            Clock::SimPerHost,
        ),
        metric(
            "headline_ops_per_s",
            headline_ops_per_s,
            "1/s",
            Clock::SimPerHost,
        ),
        metric("peak_rss_mib", peak_rss_mib(), "MiB", Clock::None),
        metric("accesses_per_s", accesses_per_s, "1/s", Clock::Host),
        metric(
            "replay_events_per_s",
            replay_events_per_s,
            "1/s",
            Clock::Host,
        ),
        metric(
            "failed_frac",
            ratio(failed as f64, tried as f64),
            "frac",
            Clock::None,
        ),
    ];

    let per_layer = if config.trace {
        let costs = last_systems
            .first_mut()
            .map(|sys| model::calibrate(sys, config.seed))
            .unwrap_or_default();
        per_layer_metrics(&inputs, measured, &spans, &counts, &costs, wall_s)
    } else {
        Vec::new()
    };

    RunOutcome {
        config,
        host: HostFacts::collect(),
        rounds,
        failures,
        tried,
        failed,
        digest,
        counts,
        end_to_end,
        per_layer,
        spans,
    }
}

/// Every engine slug the per-layer names cover, and which layers apply.
const ALL_ENGINES: [&str; 5] = ["no_fusion", "ksm", "wpf", "vusion", "vusion_thp"];
const SCANNING_ENGINES: [&str; 4] = ["ksm", "wpf", "vusion", "vusion_thp"];

/// Whether a span name belongs to a round's measured phase.
fn in_measure(name: &str) -> bool {
    !(name.starts_with("round.")
        || name == "kernel.build_system"
        || name.starts_with("workloads.")
        || name.ends_with(".settle"))
}

/// Pushes `<name>.p50`, `<name>.p99` and the sample count `<name>.n` of
/// the spans called `span`, in `unit` (`ns`, `us` or `ms`).
fn percentiles(out: &mut Vec<Metric>, spans: &Spans, name: &str, span: &str, unit: &'static str) {
    let scale = match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    };
    let agg = spans.agg(span);
    for (suffix, p) in [("p50", 0.5), ("p99", 0.99)] {
        let v = agg.map_or(0.0, |a| a.hist.quantile(p)) / scale;
        out.push(metric(format!("{name}.{suffix}"), v, unit, Clock::Host));
    }
    let n = agg.map_or(0, |a| a.hist.n()) as f64;
    out.push(metric(format!("{name}.n"), n, "count", Clock::Host));
}

fn per_layer_metrics(
    inputs: &Inputs,
    rounds: &[Round],
    spans: &Spans,
    counts: &Counts,
    costs: &Costs,
    wall_s: f64,
) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let count = |k: String| counts.get(&k).copied().unwrap_or(0) as f64;
    let total_ns = |name: &str| spans.agg(name).map_or(0, |a| a.total_ns) as f64;
    let p50 = |name: &str| spans.agg(name).map_or(0.0, |a| a.hist.quantile(0.5));
    let mut out = Vec::new();
    let (host, sim) = (Clock::Host, Clock::Sim);

    let boot = "workloads.boot";
    percentiles(&mut out, spans, "workloads.boot_ms", boot, "ms");
    let booted_pages = spans.agg(boot).map_or(0, |a| a.count) as f64 * inputs.mean_boot_pages();
    let boot_rate = ratio(booted_pages, total_ns(boot) / 1e9);
    out.push(metric("workloads.boot_pages_per_s", boot_rate, "1/s", host));

    for e in SCANNING_ENGINES {
        let wake = format!("core.{e}.wake");
        percentiles(&mut out, spans, &format!("core.{e}.wake_us"), &wake, "us");
        let scanned = count(format!("core.{e}.pages_scanned"));
        let visited = scanned * traced.len() as f64;
        let skipped = count(format!("core.{e}.pages_skipped_clean"));
        let merged =
            count(format!("core.{e}.pages_merged")) + count(format!("core.{e}.pages_fake_merged"));
        out.push(metric(
            format!("core.{e}.ns_per_visited_page"),
            ratio(total_ns(&wake), visited),
            "ns",
            host,
        ));
        // VUsion never skips a clean page: its working-set estimate reads
        // the accessed bit on every visit.
        if !e.starts_with("vusion") {
            out.push(metric(
                format!("core.{e}.skip_ratio"),
                ratio(skipped, scanned),
                "frac",
                sim,
            ));
        }
        out.extend([
            metric(
                format!("core.{e}.merge_yield"),
                ratio(merged, scanned),
                "frac",
                sim,
            ),
            metric(format!("core.{e}.pages_scanned"), scanned, "count", sim),
            metric(
                format!("core.{e}.pages_saved"),
                count(format!("core.{e}.pages_saved")),
                "count",
                sim,
            ),
        ]);
    }

    for e in ALL_ENGINES {
        percentiles(
            &mut out,
            spans,
            &format!("kernel.{e}.access_ns"),
            &format!("kernel.{e}.access"),
            "ns",
        );
        if e == "no_fusion" {
            // Set-up maps every page its accesses touch and nothing is
            // ever fused, so none of them faults.
            continue;
        }
        percentiles(
            &mut out,
            spans,
            &format!("kernel.{e}.fault_access_us"),
            &format!("kernel.{e}.fault_access"),
            "us",
        );
        let faulting = count(format!("kernel.{e}.fault_accesses"));
        let fault_ratio = ratio(faulting, count(format!("kernel.{e}.accesses")));
        out.push(metric(
            format!("kernel.{e}.fault_ratio"),
            fault_ratio,
            "frac",
            sim,
        ));
    }
    percentiles(
        &mut out,
        spans,
        "kernel.replay_us_per_event",
        "kernel.replay_event",
        "us",
    );

    for (layer, ratio_name, hits, misses) in [
        ("mmu", "tlb_hit_ratio", "tlb_hits", "tlb_misses"),
        ("cache", "llc_hit_ratio", "llc_hits", "llc_misses"),
    ] {
        for e in ALL_ENGINES {
            let h = count(format!("{layer}.{e}.{hits}"));
            let m = count(format!("{layer}.{e}.{misses}"));
            out.push(metric(
                format!("{layer}.{e}.{ratio_name}"),
                ratio(h, h + m),
                "frac",
                sim,
            ));
        }
    }
    for e in ["ksm", "wpf", "vusion"] {
        for k in ["row_hits", "row_conflicts"] {
            let name = format!("dram.{e}.{k}");
            out.push(metric(name.clone(), count(name), "count", sim));
        }
    }
    // Without fusion nothing allocates after set-up.
    for e in SCANNING_ENGINES {
        let ops = count(format!("mem.{e}.buddy_allocs")) + count(format!("mem.{e}.buddy_frees"));
        out.push(metric(format!("mem.{e}.buddy_ops"), ops, "count", sim));
    }
    for (name, v) in [
        ("mem.hash_page_ns", costs.hash_page_ns),
        ("mem.compare_pages_ns", costs.compare_pages_ns),
        ("mem.is_zero_ns", costs.is_zero_ns),
        ("mem.buddy_alloc_free_ns", costs.buddy_alloc_free_ns),
        ("mem.random_pool_cycle_ns", costs.random_pool_cycle_ns),
        ("cache.llc_access_ns", costs.llc_access_ns),
    ] {
        out.push(metric(name, v, "ns", host));
    }

    let probes: Vec<(f64, f64)> = rounds.iter().filter_map(|r| r.record_hooks_s).collect();
    let hooks_overhead = if probes.is_empty() {
        0.0
    } else {
        ratio(
            median(probes.iter().map(|p| p.0)),
            median(probes.iter().map(|p| p.1)),
        ) - 1.0
    };
    out.extend([
        metric("snapshot.save_ms", p50("snapshot.save") / 1e6, "ms", host),
        metric(
            "snapshot.restore_ms",
            p50("snapshot.restore") / 1e6,
            "ms",
            host,
        ),
        metric(
            "snapshot.bytes",
            count("snapshot.bytes".into()),
            "bytes",
            Clock::None,
        ),
        metric("obs.hooks_on_overhead_frac", hooks_overhead, "frac", host),
        metric(
            "obs.metrics_snapshot_us",
            p50("obs.metrics_snapshot") / 1e3,
            "us",
            host,
        ),
        metric(
            "obs.surface_json_us",
            p50("obs.surface_json") / 1e3,
            "us",
            host,
        ),
        metric(
            "obs.trace_export_ms",
            p50("obs.trace_export") / 1e6,
            "ms",
            host,
        ),
    ]);

    let predicted = model::predict(costs, counts);
    for (layer, s) in &predicted {
        out.push(metric(format!("model.{layer}.predicted_s"), *s, "s", host));
    }
    let unexplained = wall_s - predicted.iter().map(|(_, s)| s).sum::<f64>();
    out.push(metric(
        "model.residual_frac",
        ratio(unexplained, wall_s),
        "frac",
        host,
    ));

    let measure_ns = total_ns("round.measure");
    for layer in ["core", "kernel", "snapshot", "obs"] {
        let prefix = format!("{layer}.");
        let self_ns = spans.self_ns_where(|s| s.starts_with(&prefix) && in_measure(s));
        out.push(metric(
            format!("self_frac.{layer}"),
            ratio(self_ns as f64, measure_ns),
            "frac",
            host,
        ));
    }
    let bench_ns = spans.agg("round.measure").map_or(0, |a| a.self_ns) as f64;
    // Like with like: both sides are medians over whole rounds.
    let traced_wall = median(traced.iter().map(|r| r.wall_s));
    let untraced_wall = median(rounds.iter().filter(|r| !r.traced).map(|r| r.wall_s));
    out.extend([
        metric("self_frac.bench", ratio(bench_ns, measure_ns), "frac", host),
        metric(
            "bench.span_overhead_frac",
            ratio(traced_wall, untraced_wall) - 1.0,
            "frac",
            host,
        ),
    ]);
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    vusion::obs::json::quote(s)
}

impl RunOutcome {
    /// The one-line JSON result: the per-layer metrics of a traced run,
    /// else the end-to-end metrics in [`RESULT_E2E`].
    pub fn result_line(&self) -> String {
        let metrics: Vec<&Metric> = if self.config.trace {
            self.per_layer.iter().collect()
        } else {
            self.end_to_end
                .iter()
                .filter(|m| RESULT_E2E.contains(&m.name.as_str()))
                .collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.tried.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                json_num(m.value),
                quote(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable summary.
    pub fn text(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simbench {} seed={} seconds={} trace={} rounds={} ({} traced)",
            c.workload.name(),
            c.seed,
            c.seconds,
            u8::from(c.trace),
            self.rounds.len(),
            self.rounds.iter().filter(|r| r.traced).count()
        );
        let h = &self.host;
        let _ = writeln!(
            out,
            "host: cpu={:?} nproc={} rustc={:?} git={}",
            h.cpu_model, h.nproc, h.rustc, h.git_rev
        );
        let _ = writeln!(out, "digest {:#018x}", self.digest);
        let _ = writeln!(
            out,
            "-- end to end (untraced rounds: times are per-lap minima, setup_s a median) --"
        );
        for m in &self.end_to_end {
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<6} [{}]",
                m.name,
                m.value,
                m.unit,
                m.clock.name()
            );
        }
        if c.trace {
            let _ = writeln!(out, "-- per layer (traced rounds) --");
            for m in &self.per_layer {
                let _ = writeln!(
                    out,
                    "{:<34} {:>16.6} {:<6} [{}]",
                    m.name,
                    m.value,
                    m.unit,
                    m.clock.name()
                );
            }
            let _ = writeln!(out, "-- counts of one round's measured phase [sim] --");
            for (k, v) in &self.counts {
                let _ = writeln!(out, "{k:<40} {v:>14}");
            }
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The result file: host facts, every metric with its clock, counts,
    /// digest and failures.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let h = &self.host;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": {},", quote(c.workload.name()));
        let _ = writeln!(out, "  \"seed\": {},", c.seed);
        let _ = writeln!(out, "  \"seconds\": {},", json_num(c.seconds));
        let _ = writeln!(out, "  \"trace\": {},", c.trace);
        let _ = writeln!(
            out,
            "  \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"rustc\": {}, \"git_rev\": {}}},",
            quote(&h.cpu_model),
            h.nproc,
            quote(&h.rustc),
            quote(&h.git_rev)
        );
        let _ = writeln!(
            out,
            "  \"engines\": [{}],",
            rounds::engines_of(c.workload)
                .iter()
                .map(|e| quote(e.slug()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "  \"rounds\": [{}],",
            self.rounds
                .iter()
                .map(|r| format!(
                    "{{\"traced\": {}, \"setup_s\": {}, \"wall_s\": {}}}",
                    r.traced,
                    json_num(r.setup_s),
                    json_num(r.wall_s)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "  \"digest\": \"{:#018x}\",", self.digest);
        let _ = writeln!(out, "  \"correct\": {},", self.failed == 0);
        let _ = writeln!(out, "  \"attempted\": {},", self.tried);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(
            out,
            "  \"failures\": [{}],",
            self.failures
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (key, metrics) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            let _ = write!(out, "  \"{key}\": {{");
            for (i, m) in metrics.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(
                    out,
                    "{sep}\n    {}: {{\"value\": {}, \"unit\": {}, \"clock\": {}}}",
                    quote(&m.name),
                    json_num(m.value),
                    quote(m.unit),
                    quote(m.clock.name())
                );
            }
            out.push_str("\n  },\n");
        }
        out.push_str("  \"counts\": {");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    {}: {v}", quote(k));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}
