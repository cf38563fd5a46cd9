//! Fleet-engine determinism gates: the aggregate fold and the sampled
//! per-member JSONL timelines must be byte-identical for any shard
//! count and across repeated runs at a fixed seed, and growing a fleet
//! must not change any conference it already had. These are the
//! cross-crate versions of the unit gates inside `converge-sim::fleet` —
//! run at a slightly larger scale and through the public API only.

use converge_net::SimDuration;
use converge_sim::FleetConfig;
use converge_sim::FleetEngine;

/// A fleet that is small enough for CI but still spans more conferences
/// than shards, a 1-member tail conference, and several sampled
/// timelines.
fn fleet_cfg(shards: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(13, 3);
    cfg.shards = shards;
    cfg.duration = SimDuration::from_secs(4);
    cfg.seed = 2024;
    cfg.trace_conferences = 2;
    cfg
}

fn fold_and_traces(shards: usize) -> (String, Vec<(String, String)>) {
    let report = FleetEngine::new(fleet_cfg(shards)).run();
    (report.fold_text(), report.sampled_traces)
}

#[test]
fn fold_and_timelines_are_shard_count_invariant() {
    let (base_fold, base_traces) = fold_and_traces(1);
    assert!(!base_traces.is_empty(), "sampled timelines must exist");
    for shards in [2, 4] {
        let (fold, traces) = fold_and_traces(shards);
        assert_eq!(base_fold, fold, "fold diverged at {shards} shards");
        assert_eq!(base_traces, traces, "timelines diverged at {shards} shards");
    }
}

/// Per-conference report Debug texts and sampled timelines of a fleet of
/// `sessions` members in conferences of 4.
fn conferences_and_traces(sessions: usize) -> (Vec<String>, Vec<(String, String)>) {
    let mut cfg = FleetConfig::new(sessions, 4);
    cfg.shards = 2;
    cfg.duration = SimDuration::from_secs(4);
    cfg.seed = 2024;
    cfg.trace_conferences = 2;
    let report = FleetEngine::new(cfg).run();
    let conferences = report.conferences.iter().map(|c| format!("{c:?}")).collect();
    (conferences, report.sampled_traces)
}

#[test]
fn growing_the_fleet_leaves_existing_conferences_unchanged() {
    // A conference's outcome depends only on its own index and the
    // config, which is what lets a shard run conferences one at a time.
    let (small, small_traces) = conferences_and_traces(12);
    let (large, large_traces) = conferences_and_traces(28);
    assert_eq!(small.len(), 3);
    assert_eq!(large.len(), 7);
    assert!(!small_traces.is_empty(), "sampled timelines must exist");
    for (i, (before, after)) in small.iter().zip(&large).enumerate() {
        assert_eq!(before, after, "conference {i} changed when the fleet grew");
    }
    assert_eq!(small_traces, large_traces, "timelines changed when the fleet grew");
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (a_fold, a_traces) = fold_and_traces(3);
    let (b_fold, b_traces) = fold_and_traces(3);
    assert_eq!(a_fold, b_fold);
    assert_eq!(a_traces, b_traces);
}

#[test]
fn invariant_checker_stays_clean_at_integration_scale() {
    let mut cfg = fleet_cfg(2);
    cfg.check_invariants = true;
    let report = FleetEngine::new(cfg).run();
    assert_eq!(report.violations, 0, "control-loop invariants violated");
    // The run must actually have decoded media — an empty fleet would
    // hold every invariant vacuously.
    let decoded: u64 = report
        .conferences
        .iter()
        .flat_map(|c| c.sessions.iter())
        .map(|s| s.frames_decoded)
        .sum();
    assert!(decoded > 0, "no frames decoded at integration scale");
}
