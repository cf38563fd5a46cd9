//! The fleet workload: `FleetEngine` with the `FleetConfig::new` defaults
//! (4-member conferences, 8 Mbps SFU ingress, SBD on) as one run on two
//! shards. Its layers are read from `FleetReport` as counters; timing
//! inside the engine would need spans in the program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use converge_net::{LinkStats, SimDuration};
use converge_sim::{FleetConfig, FleetEngine, FleetReport};

use crate::ledger::{kind_index, KindCounts, TRACE_KINDS};
use crate::{debug_digest, median, quantile, Output};

/// Member sessions per fleet run: 64 conferences, two work-stealing
/// batches of the default 32 conferences.
const SESSIONS: usize = 512;
const CONFERENCE_SIZE: usize = 4;
const SHARDS: usize = 2;
/// Conferences whose traces the checked run keeps (ring-buffered).
const TRACED_CONFERENCES: usize = 16;
/// Timed fleet runs a measurement takes at least.
const MIN_TIMED_RUNS: usize = 2;
/// Set-up samples taken before the checked run and before each timed run.
const SETUPS_PER_RUN: usize = 8;

fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(SESSIONS, CONFERENCE_SIZE);
    cfg.shards = SHARDS;
    cfg.seed = crate::derive_seed(seed, 0);
    cfg
}

fn checked_config(seed: u64) -> FleetConfig {
    let mut cfg = config(seed);
    cfg.check_invariants = true;
    cfg.trace_conferences = TRACED_CONFERENCES;
    cfg
}

fn member_seconds(cfg: &FleetConfig) -> f64 {
    cfg.sessions as f64 * cfg.duration.as_secs_f64()
}

fn run(cfg: &FleetConfig) -> (Option<FleetReport>, f64) {
    let cfg = cfg.clone();
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| FleetEngine::new(cfg).run())).ok();
    (report, start.elapsed().as_secs_f64())
}

/// Sessions a run lost: all of them on a panic, else one per invariant
/// violation (the report counts violations, not the members that had them).
fn failed_sessions(report: &Option<FleetReport>) -> u64 {
    match report {
        None => SESSIONS as u64,
        Some(r) => r.violations.min(SESSIONS) as u64,
    }
}

/// Record counts per kind, and each traced member's frame end-to-end
/// latencies (ms), from the JSONL timelines of the traced conferences.
fn parse_traces(report: &FleetReport) -> (KindCounts, Vec<Vec<f64>>) {
    let mut counts = [0; TRACE_KINDS.len()];
    let mut e2e_ms = Vec::new();
    for (_, doc) in &report.sampled_traces {
        let mut member = Vec::new();
        for line in doc.lines() {
            let Some(rest) = line.split_once("\"event\":\"").map(|(_, r)| r) else {
                continue;
            };
            let name = rest.split('"').next().unwrap_or_default();
            counts[kind_index(name)] += 1;
            if let Some((_, v)) = line.split_once("\"e2e_us\":") {
                let digits: String = v.chars().take_while(char::is_ascii_digit).collect();
                member.push(digits.parse::<f64>().expect("e2e_us is an integer") / 1_000.0);
            }
        }
        if !member.is_empty() {
            e2e_ms.push(member);
        }
    }
    (counts, e2e_ms)
}

/// A checked run: invariant checker armed on every member and the first
/// conferences traced. Its fold digest is the one every timed run must
/// reproduce.
struct Checked {
    report: Option<FleetReport>,
    digest: Option<u64>,
    wall_s: f64,
}

/// Digest of the run's deterministic fold; `None` for a run that panicked.
fn fold_digest(report: &Option<FleetReport>) -> Option<u64> {
    report.as_ref().map(|r| debug_digest(&r.fold_text()))
}

fn checked(seed: u64) -> Checked {
    let (report, wall_s) = run(&checked_config(seed));
    let digest = fold_digest(&report);
    Checked {
        report,
        digest,
        wall_s,
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

pub fn run_untraced(seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();

    // Set-up: the engine builds every conference before its first event;
    // a run over 1 ms of simulated time is that construction at full size.
    // Samples are taken before the checked run and before each timed run,
    // so they are spread over the run.
    let mut probe = config(seed);
    probe.duration = SimDuration::from_millis(1);
    run(&probe); // warm-up, not counted
    let setup_samples = || (0..SETUPS_PER_RUN).map(|_| run(&probe).1);
    let mut setup: Vec<f64> = setup_samples().collect();

    let check = checked(seed);
    out.attempted += SESSIONS as u64;
    out.failed += failed_sessions(&check.report);
    if let Some(d) = check.digest {
        println!("fleet fold digest: {d:016x}");
    }

    let cfg = config(seed);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < seconds {
        setup.extend(setup_samples());
        let (report, wall) = run(&cfg);
        out.attempted += SESSIONS as u64;
        out.failed += failed_sessions(&report);
        if fold_digest(&report) != check.digest {
            eprintln!("fleet: a timed run's fold differs from the checked run's");
            out.correct = false;
        }
        walls.push(wall);
    }

    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1_000.0).collect();
    let sim_s = walls.len() as f64 * member_seconds(&cfg);
    out.metric("sim_s_per_wall_s", sim_s / walls.iter().sum::<f64>());
    out.metric("call_wall_ms_p50", quantile(&walls_ms, 0.50));
    out.metric("call_wall_ms_p90", quantile(&walls_ms, 0.90));
    out.metric("setup_s", median(&setup));
    match &check.report {
        Some(report) => {
            let sessions = || report.conferences.iter().flat_map(|c| c.sessions.iter());
            let streams = cfg.streams.max(1) as f64;
            out.metric(
                "throughput_mbps",
                mean(sessions().map(|s| s.throughput_bps)) / 1e6,
            );
            out.metric("fps", mean(sessions().map(|s| s.fps / streams)));
            out.metric(
                "freeze_ratio_pct",
                mean(sessions().map(|s| s.freeze_ratio_pct)),
            );
            // Per-member quantiles averaged, as for the call workloads.
            let (_, e2e) = parse_traces(report);
            out.metric("e2e_p50_ms", mean(e2e.iter().map(|m| quantile(m, 0.50))));
            out.metric("e2e_p95_ms", mean(e2e.iter().map(|m| quantile(m, 0.95))));
            let q = report.qoe_quantiles();
            out.metric("qoe_p5", q[0]);
            out.metric("qoe_p50", q[2]);
        }
        None => out.correct = false,
    }
    out.ok_frac();
    out
}

fn offered(s: &LinkStats) -> u64 {
    s.delivered_pkts + dropped(s)
}

fn dropped(s: &LinkStats) -> u64 {
    s.queue_drops + s.random_losses + s.blackout_drops + s.impairment_losses
}

pub fn run_traced(seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let cfg = config(seed);
    let start = Instant::now();
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut first: Option<Checked> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let (report, wall) = run(&cfg);
        plain_s += wall;
        let check = checked(seed);
        traced_s += check.wall_s;
        out.attempted += 2 * SESSIONS as u64;
        out.failed += failed_sessions(&report) + failed_sessions(&check.report);
        let reference = first.as_ref().map_or(check.digest, |f| f.digest);
        if reference.is_none() || fold_digest(&report) != reference || check.digest != reference {
            eprintln!("fleet: fold digests differ between runs");
            out.correct = false;
        }
        first.get_or_insert(check);
    }
    let Some(Checked {
        report: Some(report),
        ..
    }) = first
    else {
        out.correct = false;
        return out;
    };

    let sfu = report.conferences.iter().map(|c| c.sfu);
    let ingress_offered: u64 = sfu.clone().map(|s| offered(&s.ingress)).sum();
    let ingress_dropped: u64 = sfu.clone().map(|s| dropped(&s.ingress)).sum();
    out.metric(
        "net.sfu.ingress_drop_frac",
        ingress_dropped as f64 / ingress_offered.max(1) as f64,
    );
    out.metric(
        "net.sfu.fanout_pkts",
        sfu.map(|s| s.fanout_pkts).sum::<u64>() as f64,
    );
    let shards = &report.shard_stats;
    let max = |f: fn(&converge_sim::ShardStats) -> u64| shards.iter().map(f).max().unwrap_or(0);
    out.metric("net.wheel.high_water", max(|s| s.wheel.high_water) as f64);
    out.metric(
        "net.wheel.cascades",
        shards.iter().map(|s| s.wheel.cascades).sum::<u64>() as f64,
    );
    out.metric(
        "net.queue.high_water",
        max(|s| s.queue_high_water as u64) as f64,
    );
    let batches: u64 = shards.iter().map(|s| s.batches).sum();
    out.metric(
        "fleet.shard.batches",
        max(|s| s.batches) as f64 / batches.max(1) as f64,
    );

    let sessions = || report.conferences.iter().flat_map(|c| c.sessions.iter());
    out.metric(
        "rtp.nacked",
        sessions().map(|s| s.nacks_sent).sum::<u64>() as f64,
    );
    out.metric(
        "core.fec.packets_used",
        sessions().map(|s| s.fec_packets_used).sum::<u64>() as f64,
    );
    out.metric(
        "video.frames_decoded",
        sessions().map(|s| s.frames_decoded).sum::<u64>() as f64,
    );
    out.metric(
        "video.viewer_frames",
        sessions().map(|s| s.viewer_frames).sum::<u64>() as f64,
    );

    let (counts, _) = parse_traces(&report);
    crate::trace_count_metrics(&mut out, &counts);
    out.metric("trace.overhead", traced_s / plain_s);
    out
}
