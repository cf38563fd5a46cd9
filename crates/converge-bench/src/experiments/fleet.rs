//! The `fleet` experiment: fleet-scale engine throughput and QoE fairness.
//!
//! Unlike the figure regenerators, the fleet experiment does not decompose
//! into `Cell × seed` sweep jobs: one invocation *is* one run of the
//! sharded [`FleetEngine`], whose worker shards already run every
//! conference on reused event machinery. The `experiments` binary special-cases the
//! `fleet` target onto [`run_fleet`].
//!
//! The report's fold section comes verbatim from
//! [`FleetReport::fold_text`], so stdout is byte-identical for any
//! `--shards` value; wall-clock throughput goes to the JSON report only
//! (`results/BENCH_fleet.current.json` in CI), where the perf ratchet
//! compares it against the committed `results/BENCH_fleet.json`
//! trajectory.

use std::fmt::Write as _;
use std::time::Instant;

use converge_net::SimDuration;
use converge_sim::{FleetConfig, FleetEngine, FleetReport};

/// CLI-level options of one fleet invocation.
#[derive(Debug, Clone)]
pub struct FleetOpts {
    /// Total concurrent sessions.
    pub sessions: usize,
    /// Members per conference.
    pub conference_size: usize,
    /// Worker shards (0 = one per available core).
    pub shards: usize,
    /// Shared ingress bottleneck per conference, Mbps.
    pub bottleneck_mbps: f64,
    /// Call duration in seconds (0 = the 20 s default; `--quick` uses 5 s).
    pub duration_s: u64,
    /// Master seed.
    pub seed: u64,
    /// Arm invariant checking on every member.
    pub check_invariants: bool,
    /// Shrink the run for smoke testing.
    pub quick: bool,
    /// Also sweep a small sessions × conference-size × bottleneck grid.
    pub grid: bool,
}

impl Default for FleetOpts {
    fn default() -> Self {
        FleetOpts {
            sessions: 1000,
            conference_size: 4,
            shards: 0,
            bottleneck_mbps: 8.0,
            duration_s: 0,
            seed: 1,
            check_invariants: false,
            quick: false,
            grid: false,
        }
    }
}

/// The outcome of one fleet invocation: the deterministic stdout report,
/// the JSON performance document, and the invariant violation count.
#[derive(Debug)]
pub struct FleetRunOutput {
    /// Printable report (fold + fairness summary); shard-count invariant.
    pub report: String,
    /// `converge-bench/fleet/v1` JSON with top-level `sim_s_per_wall_s`.
    pub json: String,
    /// Invariant violations (0 unless `--check-invariants` found some).
    pub violations: usize,
}

fn build_config(opts: &FleetOpts) -> FleetConfig {
    let mut cfg = FleetConfig::new(opts.sessions, opts.conference_size);
    cfg.shards = if opts.shards == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        opts.shards
    };
    cfg.seed = opts.seed;
    cfg.bottleneck_ingress_bps = (opts.bottleneck_mbps * 1e6) as u64;
    cfg.duration = match (opts.duration_s, opts.quick) {
        (0, true) => SimDuration::from_secs(5),
        (0, false) => SimDuration::from_secs(20),
        (s, _) => SimDuration::from_secs(s),
    };
    cfg.check_invariants = opts.check_invariants;
    cfg
}

fn run_cell(cfg: FleetConfig) -> (FleetReport, f64) {
    let started = Instant::now();
    let report = FleetEngine::new(cfg).run();
    (report, started.elapsed().as_secs_f64())
}

/// Runs the fleet experiment and renders its report + JSON.
pub fn run_fleet(opts: &FleetOpts) -> FleetRunOutput {
    let cfg = build_config(opts);
    let shards = cfg.shards;
    let duration_s = cfg.duration.as_secs_f64();
    let bottleneck_mbps = cfg.bottleneck_ingress_bps as f64 / 1e6;
    let (fleet, wall_s) = run_cell(cfg);

    let sim_s = fleet.sessions as f64 * duration_s;
    let sim_rate = if wall_s > 0.0 { sim_s / wall_s } else { 0.0 };
    let sessions_per_core = fleet.sessions as f64 / shards.max(1) as f64;
    let q = fleet.qoe_quantiles();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# fleet: {} sessions x {}s through {} SFU conference(s)",
        fleet.sessions,
        duration_s,
        fleet.conferences.len()
    );
    report.push_str(&fleet.fold_text());
    if opts.grid {
        report.push_str(&run_grid(opts));
    }

    let queue_hw = fleet.shard_stats.iter().map(|s| s.queue_high_water).max().unwrap_or(0);
    let wheel_hw = fleet.shard_stats.iter().map(|s| s.wheel.high_water).max().unwrap_or(0);
    let cascades: u64 = fleet.shard_stats.iter().map(|s| s.wheel.cascades).sum();
    let json = format!(
        "{{\n  \"schema\": \"converge-bench/fleet/v1\",\n  \"sessions\": {},\n  \"conference_size\": {},\n  \"conferences\": {},\n  \"shards\": {},\n  \"duration_s\": {:.1},\n  \"seed\": {},\n  \"bottleneck_mbps\": {:.1},\n  \"wall_s\": {:.3},\n  \"sim_s\": {:.1},\n  \"sim_s_per_wall_s\": {:.2},\n  \"sessions_per_core\": {:.1},\n  \"qoe_p5\": {:.6},\n  \"qoe_p25\": {:.6},\n  \"qoe_p50\": {:.6},\n  \"qoe_p75\": {:.6},\n  \"qoe_p95\": {:.6},\n  \"queue_high_water\": {},\n  \"wheel_high_water\": {},\n  \"wheel_cascades\": {},\n  \"violations\": {}\n}}\n",
        fleet.sessions,
        fleet.conference_size,
        fleet.conferences.len(),
        shards,
        duration_s,
        fleet.seed,
        bottleneck_mbps,
        wall_s,
        sim_s,
        sim_rate,
        sessions_per_core,
        q[0],
        q[1],
        q[2],
        q[3],
        q[4],
        queue_hw,
        wheel_hw,
        cascades,
        fleet.violations,
    );

    FleetRunOutput { report, json, violations: fleet.violations }
}

/// A small sessions × conference-size × bottleneck grid at reduced scale:
/// each cell reports throughput and median QoE, showing how fairness and
/// engine speed move with conference shape and bottleneck pressure.
fn run_grid(opts: &FleetOpts) -> String {
    let base_sessions = (opts.sessions / 4).max(8);
    let mut out = String::from("grid|sessions|size|bottleneck_mbps|sim_s_per_wall_s|qoe_p50\n");
    for &sessions in &[base_sessions / 2, base_sessions] {
        for &size in &[2usize, opts.conference_size.max(3)] {
            for &mbps in &[opts.bottleneck_mbps / 2.0, opts.bottleneck_mbps] {
                let mut cell = opts.clone();
                cell.sessions = sessions;
                cell.conference_size = size;
                cell.bottleneck_mbps = mbps;
                cell.grid = false;
                let cfg = build_config(&cell);
                let duration_s = cfg.duration.as_secs_f64();
                let (fleet, wall_s) = run_cell(cfg);
                let rate = if wall_s > 0.0 {
                    fleet.sessions as f64 * duration_s / wall_s
                } else {
                    0.0
                };
                let q = fleet.qoe_quantiles();
                let _ = writeln!(
                    out,
                    "cell|{}|{}|{:.1}|{:.0}|{:.6}",
                    fleet.sessions, fleet.conference_size, mbps, rate, q[2]
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetOpts {
        FleetOpts {
            sessions: 8,
            conference_size: 4,
            shards: 2,
            duration_s: 3,
            quick: true,
            ..FleetOpts::default()
        }
    }

    #[test]
    fn fleet_json_carries_the_ratchet_metric() {
        let out = run_fleet(&tiny());
        assert!(out.json.contains("\"schema\": \"converge-bench/fleet/v1\""));
        assert!(out.json.contains("\"sim_s_per_wall_s\": "));
        assert!(out.json.contains("\"qoe_p50\": "));
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn fleet_report_is_shard_invariant() {
        let mut one = tiny();
        one.shards = 1;
        let a = run_fleet(&one);
        let b = run_fleet(&tiny());
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn invariants_armed_run_stays_clean() {
        let mut opts = tiny();
        opts.check_invariants = true;
        let out = run_fleet(&opts);
        assert_eq!(out.violations, 0);
    }
}
