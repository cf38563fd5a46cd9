//! Bidirectional (duplex) conference calls.
//!
//! A real conference sends media both ways: endpoint A's media travels the
//! forward direction while endpoint B's media travels the reverse — which
//! means B's media now *contends* with A's feedback on the reverse links,
//! a dynamic the one-way [`crate::Session`] cannot exhibit. The duplex
//! session runs two flows over the same emulated paths — A→B on the
//! forward links, B→A on the reverse — and reports one [`CallReport`] per
//! direction, each holding that direction's send and receive side.

use converge_net::{
    event::EventQueue, Direction, LinkConfig, NetworkEmulator, Path, PathId, SimTime,
};
use converge_trace::TraceHandle;

use crate::flow::{self, Flow, FRAME_INTERVAL, SR_INTERVAL};
use crate::metrics::CallReport;
use crate::payload::NetPayload;
use crate::scenarios::ScenarioConfig;
use crate::session::SessionConfig;

/// Timer events of the duplex loop; the index names a flow (0 = A→B,
/// 1 = B→A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    /// (flow, stream) frame capture at the flow's sender.
    Frame(usize, usize),
    /// The flow's receiver fast-RTCP round.
    FastRtcp(usize),
    /// The flow's receiver transport-RTCP round.
    TransportRtcp(usize),
    /// The flow's sender SR/SDES round.
    SenderRtcp(usize),
}

/// A bidirectional session between two Converge endpoints.
pub struct DuplexSession {
    config: SessionConfig,
}

impl DuplexSession {
    /// Creates a duplex session; both directions use the scenario's path
    /// characteristics symmetrically (unlike the one-way session, whose
    /// reverse links are feedback-only and deliberately uncongested).
    pub fn new(config: SessionConfig) -> Self {
        DuplexSession { config }
    }

    fn build_symmetric_paths(scenario: &ScenarioConfig, seed: u64) -> Vec<Path> {
        scenario
            .paths
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let cfg = LinkConfig {
                    rate: spec.rate.clone(),
                    propagation: spec.propagation,
                    queue_capacity_bytes: spec.queue_bytes,
                    loss: spec.loss.clone(),
                    jitter: spec.jitter,
                    discipline: spec.discipline.clone(),
                    seed: seed.wrapping_add(i as u64 * 7919),
                    impairment: spec.forward_impairment,
                    drive: spec.drive.clone(),
                };
                let mut rev = cfg.clone();
                rev.seed = cfg.seed.wrapping_add(0xB1D1);
                rev.impairment = spec.reverse_impairment;
                Path::new(PathId(i as u8), cfg, rev)
            })
            .collect()
    }

    /// Runs the call; returns `(a_to_b, b_to_a)` reports.
    pub fn run(self) -> (CallReport, CallReport) {
        let cfg = self.config;
        let paths = Self::build_symmetric_paths(&cfg.scenario, cfg.seed);
        let path_ids: Vec<PathId> = paths.iter().map(|p| p.id()).collect();
        let mut emu: NetworkEmulator<NetPayload> = NetworkEmulator::new(paths);

        // Untraced: both flows' records would interleave in one sink with
        // nothing naming the flow.
        let spec = cfg.flow_spec();
        let mut flows = [Direction::Forward, Direction::Reverse]
            .map(|media_dir| Flow::new(&spec, &path_ids, media_dir, TraceHandle::disabled()));

        // Endpoint `ep` sends flow `ep` and receives the other flow; its
        // timers run 16 ms behind the other endpoint's.
        let mut timers: EventQueue<Tick> = EventQueue::new();
        for (ep, offset) in [(0usize, 0u64), (1, 16_000)] {
            let rx = 1 - ep;
            for s in 0..cfg.streams as usize {
                timers.schedule(
                    SimTime::from_micros(offset + s as u64 * 3_000),
                    Tick::Frame(ep, s),
                );
            }
            timers.schedule(SimTime::from_micros(50_000 + offset), Tick::FastRtcp(rx));
            timers.schedule(SimTime::from_micros(60_000 + offset), Tick::TransportRtcp(rx));
            timers.schedule(SimTime::from_micros(40_000 + offset), Tick::SenderRtcp(ep));
        }

        let end = SimTime::ZERO + cfg.duration;
        let mut clock = SimTime::ZERO;
        let mut deliveries: Vec<converge_net::Delivery<NetPayload>> = Vec::new();

        loop {
            // When neither pacer holds a packet and nothing is in flight,
            // the only possible event source is a timer: jump straight
            // there (same fast path as the one-way session).
            let idle = cfg.idle_skip && emu.idle() && flows.iter().all(|f| f.pacer.is_empty());
            let now = if idle {
                match timers.peek_time() {
                    Some(t) => t,
                    None => break,
                }
            } else {
                let pacer_next = flows.iter().filter_map(|f| f.pacer.next_release()).min();
                match [timers.peek_time(), emu.next_arrival(), pacer_next]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    Some(t) => t,
                    None => break,
                }
            };
            // The pacer reports a stale (past) `busy_until` for a path that
            // went idle and was re-filled; clamp so simulated time never
            // runs backwards.
            let now = now.max(clock);
            clock = now;
            if now >= end {
                break;
            }

            if !idle {
                for flow in flows.iter_mut() {
                    flow.poll_pacer(&mut emu, now);
                }
                emu.poll_into(now, &mut deliveries);
            }
            // Media, SR and SDES belong to the flow whose media travels the
            // delivery's direction; feedback and probe echoes to the flow
            // whose media travels the other way.
            for delivery in deliveries.drain(..) {
                let media_dir = if flow::to_receiver(&delivery.payload) {
                    delivery.direction
                } else {
                    flow::opposite(delivery.direction)
                };
                let f = match media_dir {
                    Direction::Forward => 0,
                    Direction::Reverse => 1,
                };
                flows[f].deliver(&mut emu, now, delivery.path, delivery.payload);
            }

            while let Some((_, tick)) = timers.pop_due(now) {
                let next = match tick {
                    Tick::Frame(f, stream) => {
                        flows[f].on_frame_tick(now, stream);
                        FRAME_INTERVAL
                    }
                    Tick::FastRtcp(f) => {
                        flows[f].receiver_rtcp(&mut emu, now, false);
                        cfg.rtcp_interval
                    }
                    Tick::TransportRtcp(f) => {
                        flows[f].receiver_rtcp(&mut emu, now, true);
                        cfg.transport_rtcp_interval
                    }
                    Tick::SenderRtcp(f) => {
                        flows[f].sender_rtcp(&mut emu, now);
                        SR_INTERVAL
                    }
                };
                timers.schedule(now + next, tick);
            }
        }

        let [a_to_b, b_to_a] = flows.map(|f| f.metrics.finish());
        (a_to_b, b_to_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{FecKind, SchedulerKind};
    use converge_net::SimDuration;

    fn duplex_config(rate_bps: u64, secs: u64) -> SessionConfig {
        let mut scenario = ScenarioConfig::fec_tradeoff(0.0);
        for p in &mut scenario.paths {
            p.rate = converge_net::RateTrace::constant(rate_bps);
        }
        SessionConfig::builder()
            .scenario(scenario)
            .scheduler(SchedulerKind::Converge)
            .fec(FecKind::Converge)
            .streams(1)
            .duration(SimDuration::from_secs(secs))
            .seed(17)
            .build()
            .expect("valid session config")
    }

    #[test]
    fn both_directions_deliver_video() {
        let (a, b) = DuplexSession::new(duplex_config(15_000_000, 20)).run();
        assert!(a.fps > 20.0, "A→B fps {}", a.fps);
        assert!(b.fps > 20.0, "B→A fps {}", b.fps);
        assert!(a.throughput_bps > 2_000_000.0);
        assert!(b.throughput_bps > 2_000_000.0);
    }

    #[test]
    fn directions_share_the_path_fairly() {
        let (a, b) = DuplexSession::new(duplex_config(15_000_000, 20)).run();
        let ratio = a.throughput_bps / b.throughput_bps;
        assert!(
            (0.5..2.0).contains(&ratio),
            "direction starvation: {:.2} vs {:.2} Mbps",
            a.throughput_bps / 1e6,
            b.throughput_bps / 1e6
        );
    }

    #[test]
    fn duplex_contention_costs_vs_one_way() {
        // The same scenario one-way: the duplex directions see RTCP +
        // reverse media contention and cannot beat the one-way call.
        let (a, _) = DuplexSession::new(duplex_config(15_000_000, 20)).run();
        let one_way = crate::Session::new(duplex_config(15_000_000, 20)).run();
        assert!(
            a.throughput_bps <= one_way.throughput_bps * 1.1,
            "duplex {:.2} should not exceed one-way {:.2}",
            a.throughput_bps / 1e6,
            one_way.throughput_bps / 1e6
        );
    }

    #[test]
    fn duplex_reports_are_per_direction() {
        // Loss on the reverse links only: B→A is the lossy direction, and
        // each report must hold one direction's send and receive side.
        let mut builder = SessionConfig::builder()
            .scenario(ScenarioConfig::fec_tradeoff(0.0))
            .duration(SimDuration::from_secs(20))
            .seed(17);
        for p in 0..2 {
            builder = builder.impair(
                p,
                Direction::Reverse,
                converge_net::ImpairmentConfig::degraded(0.15, SimDuration::ZERO),
            );
        }
        let mut cfg = builder.build().expect("valid session config");
        for p in &mut cfg.scenario.paths {
            p.rate = converge_net::RateTrace::constant(15_000_000);
        }
        let (a, b) = DuplexSession::new(cfg).run();
        for (label, r) in [("A→B", &a), ("B→A", &b)] {
            for (path, c) in &r.paths {
                assert!(
                    c.packets_received <= c.packets_sent,
                    "{label} {path}: {} received > {} sent",
                    c.packets_received,
                    c.packets_sent
                );
            }
        }
        assert!(a.fps >= b.fps, "clean A→B {} fps < lossy B→A {} fps", a.fps, b.fps);
    }

    #[test]
    fn deterministic() {
        let (a1, b1) = DuplexSession::new(duplex_config(15_000_000, 10)).run();
        let (a2, b2) = DuplexSession::new(duplex_config(15_000_000, 10)).run();
        assert_eq!(a1.frames_decoded, a2.frames_decoded);
        assert_eq!(b1.frames_decoded, b2.frames_decoded);
        assert_eq!(a1.throughput_bps, a2.throughput_bps);
    }
}
