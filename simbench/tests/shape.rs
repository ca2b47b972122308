//! The benchmark's own checks: each workload stresses the layers it was
//! chosen for, its rounds repeat exactly, and its seed matters.
//!
//! Shares are host time, so run these optimized:
//! `cargo test --release --manifest-path simbench/Cargo.toml`.

use vusion_simbench::rounds::{pinned_digest, round, Counts, Inputs, Round};
use vusion_simbench::spans::Spans;
use vusion_simbench::{Workload, DEFAULT_SEED};

fn one_round(w: Workload, seed: u64, traced: bool) -> (Round, Spans) {
    let mut spans = Spans::new(traced);
    let (r, _) = round(&Inputs::new(w, seed), &mut spans, false);
    assert!(r.failed_checks.is_empty(), "{w:?}: {:?}", r.failed_checks);
    assert_eq!(r.failed_ops, 0, "{w:?}: unresolved faults");
    (r, spans)
}

/// Share of the measured phase spent in spans whose name matches.
fn share(spans: &Spans, pred: impl Fn(&str) -> bool) -> f64 {
    let measure = spans.agg("round.measure").expect("measured").total_ns as f64;
    spans.total_ns_where(pred) as f64 / measure
}

fn is_wake(n: &str) -> bool {
    n.starts_with("core.") && n.ends_with(".wake")
}

fn is_access(n: &str) -> bool {
    n.starts_with("kernel.") && (n.ends_with(".access") || n.ends_with(".fault_access"))
}

#[test]
fn idle_fusion_is_scan_bound() {
    let (_, spans) = one_round(Workload::IdleFusion, DEFAULT_SEED, true);
    let core = share(&spans, is_wake);
    assert!(core >= 0.5, "scanner wakes are {core:.3} of idle_fusion");
}

#[test]
fn guest_churn_is_access_bound() {
    let (_, spans) = one_round(Workload::GuestChurn, DEFAULT_SEED, true);
    let core = share(&spans, is_wake);
    let kernel = share(&spans, is_access);
    assert!(core < 0.1, "scanner wakes are {core:.3} of guest_churn");
    assert!(kernel >= 0.5, "access calls are {kernel:.3} of guest_churn");
}

#[test]
fn traced_replay_is_snapshot_and_replay_bound() {
    let (_, spans) = one_round(Workload::TracedReplay, DEFAULT_SEED, true);
    let s = share(&spans, |n| {
        n.starts_with("snapshot.")
            || n == "kernel.replay_event"
            || n == "kernel.build_system.replay"
    });
    assert!(s >= 0.4, "snapshot and replay are {s:.3} of traced_replay");
}

/// Counts a traced round takes on top of an untraced one.
fn untraced_counts(c: &Counts) -> Counts {
    c.iter()
        .filter(|(k, _)| !k.ends_with(".fault_accesses"))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

#[test]
fn rounds_repeat_exactly_and_the_seed_matters() {
    for w in Workload::ALL {
        let (a, _) = one_round(w, DEFAULT_SEED, false);
        let (b, _) = one_round(w, DEFAULT_SEED, false);
        let (traced, _) = one_round(w, DEFAULT_SEED, true);
        let (other, _) = one_round(w, DEFAULT_SEED + 1, false);
        assert_eq!(a.digest, pinned_digest(w), "{w:?}: pinned digest");
        assert_eq!(a.digest, b.digest, "{w:?}: same seed, same digest");
        assert_eq!(a.counts, b.counts, "{w:?}: same seed, same counts");
        assert_eq!(
            a.digest, traced.digest,
            "{w:?}: tracing changed the simulation"
        );
        assert_eq!(
            a.counts,
            untraced_counts(&traced.counts),
            "{w:?}: traced counts differ"
        );
        assert_ne!(
            a.digest, other.digest,
            "{w:?}: the seed must change the inputs"
        );
        assert!(a.sim_ns > 0 && a.checks > 0, "{w:?}: the round did nothing");
    }
}
