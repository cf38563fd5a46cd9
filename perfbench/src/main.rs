//! The repository benchmark. One command runs a named workload from a
//! workload seed and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --workload call_collapse2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how each layer metric maps to an end-to-end one.

mod calls;
mod fleet;
mod ledger;

use std::collections::BTreeMap;
use std::process::ExitCode;

use calls::CallWorkload;
use ledger::{KindCounts, TRACE_KINDS};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 13] = [
    ("sim_s_per_wall_s", "sim-s/s"),
    ("call_wall_ms_p50", "ms"),
    ("call_wall_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_mbps", "Mbps"),
    ("fps", "frames/s"),
    ("freeze_ratio_pct", "%"),
    ("e2e_p50_ms", "ms"),
    ("e2e_p95_ms", "ms"),
    ("qoe_p5", "score"),
    ("qoe_p50", "score"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit, followed in the output
/// by one `trace.records.<kind>` count per trace kind. A workload that
/// does not exercise a layer reports 0 for it (see README.md).
const PER_LAYER: [(&str, &str); 43] = [
    ("net.emulator.send_ns", "ns/sim-s"),
    ("net.emulator.poll_ns", "ns/sim-s"),
    ("net.emulator.sends", "count"),
    ("net.link.queue_drops", "count"),
    ("net.link.random_losses", "count"),
    ("net.events.iterations_per_sim_s", "1/sim-s"),
    ("net.timers.pop_ns", "ns/sim-s"),
    ("net.sfu.ingress_drop_frac", "ratio"),
    ("net.sfu.fanout_pkts", "count"),
    ("net.wheel.high_water", "count"),
    ("net.wheel.cascades", "count"),
    ("net.queue.high_water", "count"),
    ("sim.pacer.ns", "ns/sim-s"),
    ("sim.pacer.releases", "count"),
    ("sim.sender.frame_tick_self_ns", "ns/sim-s"),
    ("sim.sender.other_ns", "ns/sim-s"),
    ("sim.receiver.on_rtp_ns", "ns/sim-s"),
    ("sim.receiver.poll_rtcp_ns", "ns/sim-s"),
    ("sim.metrics.ns", "ns/sim-s"),
    ("fleet.shard.batches", "ratio"),
    ("core.scheduler.assign_batch_ns", "ns/sim-s"),
    ("core.scheduler.other_ns", "ns/sim-s"),
    ("core.scheduler.batches", "count"),
    ("core.fec.ns", "ns/sim-s"),
    ("core.fec.repair_calls", "count"),
    ("core.fec.packets_sent", "count"),
    ("core.fec.packets_used", "count"),
    ("core.fec.utilization", "ratio"),
    ("core.feedback.emitted", "count"),
    ("core.path.disables", "count"),
    ("cc.on_rtcp_self_ns", "ns/sim-s"),
    ("cc.rate_changes", "count"),
    ("rtp.nacked", "count"),
    ("rtp.retransmissions", "count"),
    ("rtp.rtx_per_media", "ratio"),
    ("video.frames_encoded", "count"),
    ("video.frames_decoded", "count"),
    ("video.frames_dropped", "count"),
    ("video.decoded_frac", "ratio"),
    ("video.viewer_frames", "count"),
    ("trace.wall_ns", "ns/sim-s"),
    ("trace.unattributed_ns", "ns/sim-s"),
    ("trace.overhead", "ratio"),
];

/// What a workload run produced.
#[derive(Debug)]
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Default for Output {
    fn default() -> Self {
        Output {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }
}

impl Output {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Share of attempted calls or member sessions that neither panicked
    /// nor violated a control-loop invariant.
    pub fn ok_frac(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.metric("ok_frac", ok / self.attempted.max(1) as f64);
    }
}

/// Reports the per-kind record counts plus the three counts the layer
/// map reads from them.
pub fn trace_count_metrics(out: &mut Output, counts: &KindCounts) {
    let count = |kind: &str| counts[ledger::kind_index(kind)] as f64;
    out.metric("core.feedback.emitted", count("feedback_emitted"));
    out.metric("core.path.disables", count("path_disabled"));
    out.metric(
        "cc.rate_changes",
        count("gcc_rate_changed") + count("cc_rate_changed"),
    );
    for (kind, n) in TRACE_KINDS.iter().zip(counts) {
        out.metric(&format!("trace.records.{kind}"), *n as f64);
    }
}

/// SplitMix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th input seed derived from the workload seed.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ i)
}

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a of a value's `Debug` text, hashed as it is formatted so that
/// comparing two reports builds no strings.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Linearly interpolated quantile; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let number = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let trace = match number("trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, got {n}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: number("seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <call_collapse2|call_multicarrier8|fleet_sfu> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let mut out = match (args.workload.as_str(), args.trace) {
        ("call_collapse2", false) => calls::run_untraced(CallWorkload::Collapse2, seed, secs),
        ("call_collapse2", true) => calls::run_traced(CallWorkload::Collapse2, seed, secs),
        ("call_multicarrier8", false) => {
            calls::run_untraced(CallWorkload::Multicarrier8, seed, secs)
        }
        ("call_multicarrier8", true) => calls::run_traced(CallWorkload::Multicarrier8, seed, secs),
        ("fleet_sfu", false) => fleet::run_untraced(seed, secs),
        ("fleet_sfu", true) => fleet::run_traced(seed, secs),
        (other, _) => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => out.metric("peak_rss_mb", mb),
            None => out.correct = false,
        }
    }

    let table: Vec<(String, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(
                TRACE_KINDS
                    .iter()
                    .map(|k| (format!("trace.records.{k}"), "count")),
            )
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &table {
        let value = match out.values.remove(name) {
            Some(v) if v.is_finite() && (args.trace || v > 0.0) => v,
            // A layer this workload does not exercise.
            None if args.trace => 0.0,
            v => {
                eprintln!("error: metric {name} is {v:?}");
                out.correct = false;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = out.values.keys().next() {
        eprintln!("error: metric {extra} is not in the metric table");
        out.correct = false;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
