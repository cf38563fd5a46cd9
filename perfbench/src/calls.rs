//! The call workloads: one client runs simulated calls back to back on
//! one thread (a closed loop).
//!
//! Untraced runs time `Session::run`, the program's own call loop. Traced
//! runs drive [`CallEngine`], a copy of that loop rebuilt from public calls
//! with a span around each call into a layer, and check that every traced
//! call's `CallReport` matches `Session::run`'s for the same config.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use converge_core::PacketClass;
use converge_net::{
    event::EventQueue, Delivery, Direction, NetworkEmulator, PathId, SimDuration, SimTime,
};
use converge_rtp::RtcpPacket;
use converge_sim::receiver::ReceiverEvent;
use converge_sim::{
    CallReport, ConferenceReceiver, ConferenceSender, MetricsCollector, NetPayload, OutboundPacket,
    Pacer, PacerConfig, RateCoupling, RtpKind, ScenarioConfig, Session, SessionConfig,
};
use converge_trace::{TraceEvent, TraceHandle};
use converge_video::VideoFormat;

use crate::ledger::{Children, CountingSink, KindCounts, TimedFec, TimedScheduler, TRACE_KINDS};
use crate::{debug_digest, median, quantile, Output};

/// Distinct calls per workload seed; every round runs all of them. The
/// wall-time quantiles are taken over the calls, so 100 leave ten beyond
/// the p90.
const CALLS: usize = 100;

#[derive(Debug, Clone, Copy)]
pub enum CallWorkload {
    /// Fig. 11 path collapse: two paths, the second collapsing to
    /// 0.5–2.5 Mbps between 30 s and 90 s.
    Collapse2,
    /// Eight carriers with bursty loss (WiFi, two cellular, satellite, ...).
    Multicarrier8,
}

impl CallWorkload {
    /// Simulated length of each call. The collapse scenario needs the
    /// whole 30–90 s dip and the recovery after it; the multi-carrier
    /// scenario is stationary, so shorter calls see the same behaviour.
    pub fn call_duration(self) -> SimDuration {
        match self {
            CallWorkload::Collapse2 => SimDuration::from_secs(120),
            CallWorkload::Multicarrier8 => SimDuration::from_secs(30),
        }
    }

    fn scenario(self, seed: u64) -> ScenarioConfig {
        let d = self.call_duration();
        match self {
            CallWorkload::Collapse2 => ScenarioConfig::feedback_benefit(d, seed),
            CallWorkload::Multicarrier8 => ScenarioConfig::multi_carrier(8, d, seed),
        }
    }

    /// The configs of the workload's distinct calls: Converge scheduler,
    /// Converge FEC and GCC (the `SessionConfig` defaults), one seed per call.
    pub fn configs(self, seed: u64) -> Vec<SessionConfig> {
        (0..CALLS as u64)
            .map(|i| {
                let call_seed = crate::derive_seed(seed, i);
                SessionConfig::builder()
                    .scenario(self.scenario(call_seed))
                    .duration(self.call_duration())
                    .seed(call_seed)
                    .build()
                    .expect("workload configs are valid")
            })
            .collect()
    }
}

/// Timer events of the call loop (the same set `Session::run` keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    Frame(usize),
    ReceiverRtcp,
    TransportRtcp,
    SenderRtcp,
}

/// Time (ns) traced calls spent in each layer. Self times have the
/// scheduler and FEC child spans subtracted.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub emu_send: u64,
    pub emu_poll: u64,
    pub pacer: u64,
    pub frame_tick_self: u64,
    pub on_rtcp_self: u64,
    /// Probe echoes, SR/SDES generation and rate snapshots.
    pub sender_other: u64,
    pub on_rtp: u64,
    pub poll_rtcp: u64,
    pub metrics: u64,
    pub timers_pop: u64,
}

impl LayerTimes {
    fn add(&mut self, o: &LayerTimes) {
        self.emu_send += o.emu_send;
        self.emu_poll += o.emu_poll;
        self.pacer += o.pacer;
        self.frame_tick_self += o.frame_tick_self;
        self.on_rtcp_self += o.on_rtcp_self;
        self.sender_other += o.sender_other;
        self.on_rtp += o.on_rtp;
        self.poll_rtcp += o.poll_rtcp;
        self.metrics += o.metrics;
        self.timers_pop += o.timers_pop;
    }
}

/// Work one traced call did. It is a function of the call's config, so
/// it must repeat exactly when the call runs again.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CallWork {
    pub sends: u64,
    pub releases: u64,
    pub iterations: u64,
    pub queue_high_water: u64,
    pub queue_drops: u64,
    pub random_losses: u64,
    pub batches: u64,
    pub repair_calls: u64,
    pub kinds: KindCounts,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// One call's engine, built the way `Session::run` builds it. Building
/// the engines is the call workloads' set-up.
pub struct CallEngine {
    cfg: SessionConfig,
    emu: NetworkEmulator<NetPayload>,
    path_ids: Vec<PathId>,
    metrics: MetricsCollector,
    sender: ConferenceSender,
    receiver: ConferenceReceiver,
    pacer: Pacer,
    timers: EventQueue<Tick>,
    frame_interval: SimDuration,
}

impl CallEngine {
    /// Builds the engine. With `children`, the scheduler and FEC policy
    /// are wrapped in timing forwarders that report into it.
    pub fn new(cfg: SessionConfig, children: Option<&Arc<Children>>) -> Self {
        let paths = cfg.scenario.build_paths(cfg.seed);
        let path_ids: Vec<PathId> = paths.iter().map(|p| p.id()).collect();
        let emu = NetworkEmulator::new(paths);
        let format = VideoFormat::HD720;
        let metrics =
            MetricsCollector::new(cfg.duration, format, cfg.max_encoding_rate_bps, cfg.streams);
        let frame_interval = SimDuration::from_micros(1_000_000 / format.fps as u64);
        let mut scheduler = cfg.scheduler.build(frame_interval);
        let mut fec = cfg.fec.build();
        if let Some(children) = children {
            scheduler = Box::new(TimedScheduler {
                inner: scheduler,
                children: children.clone(),
            });
            fec = Box::new(TimedFec {
                inner: fec,
                children: children.clone(),
            });
        }
        let mut sender = ConferenceSender::new(
            cfg.streams,
            &path_ids,
            scheduler,
            fec,
            cfg.controller,
            cfg.max_encoding_rate_bps,
        );
        if cfg.coupled_cc {
            sender.set_coupling(RateCoupling::Lia);
        }
        let mut receiver = ConferenceReceiver::new(cfg.streams, &path_ids, format.fps, path_ids[0]);
        sender.set_trace(cfg.trace.clone());
        receiver.set_trace(cfg.trace.clone());

        let mut timers = EventQueue::new();
        for s in 0..cfg.streams as usize {
            timers.schedule(SimTime::from_micros(s as u64 * 3_000), Tick::Frame(s));
        }
        timers.schedule(SimTime::from_millis(50), Tick::ReceiverRtcp);
        timers.schedule(SimTime::from_millis(60), Tick::TransportRtcp);
        timers.schedule(SimTime::from_millis(40), Tick::SenderRtcp);

        CallEngine {
            cfg,
            emu,
            path_ids,
            metrics,
            sender,
            receiver,
            pacer: Pacer::new(PacerConfig::default()),
            timers,
            frame_interval,
        }
    }

    /// Runs the call to its end with a span around every call into a
    /// layer. The control flow is `Session::run`'s, step for step.
    pub fn run(self, children: &Children) -> (CallReport, LayerTimes, CallWork) {
        let CallEngine {
            cfg,
            mut emu,
            path_ids,
            mut metrics,
            mut sender,
            mut receiver,
            mut pacer,
            mut timers,
            frame_interval,
        } = self;
        let trace = cfg.trace.clone();
        let mut l = LayerTimes::default();
        let mut work = CallWork {
            batches: children.batches.load(Relaxed),
            repair_calls: children.repair_calls.load(Relaxed),
            ..CallWork::default()
        };
        let mut sr_seen: BTreeMap<PathId, (u64, SimTime)> = BTreeMap::new();
        let end = SimTime::ZERO + cfg.duration;
        let mut clock = SimTime::ZERO;
        let mut paced: Vec<OutboundPacket> = Vec::new();
        let mut deliveries: Vec<Delivery<NetPayload>> = Vec::new();

        loop {
            let idle = cfg.idle_skip && pacer.is_empty() && emu.idle();
            let now = if idle {
                match timers.peek_time() {
                    Some(t) => t,
                    None => break,
                }
            } else {
                let candidates = [timers.peek_time(), emu.next_arrival(), pacer.next_release()];
                match candidates.into_iter().flatten().min() {
                    Some(t) => t,
                    None => break,
                }
            };
            let now = now.max(clock);
            clock = now;
            if now >= end {
                break;
            }
            work.iterations += 1;

            if !idle {
                let t = Instant::now();
                pacer.poll_into(now, &mut paced);
                l.pacer += ns(t);
                work.releases += paced.len() as u64;
            }
            for out in paced.drain(..) {
                let size = out.payload.wire_size();
                let t = Instant::now();
                let is_fec = out.class == PacketClass::Fec;
                let is_media = matches!(
                    &out.payload,
                    NetPayload::Rtp(r) if r.kind.video_packet().is_some()
                );
                metrics.on_packet_sent(now, out.path, size, is_fec, is_media);
                if out.class == PacketClass::Retransmission {
                    metrics.on_retransmission();
                    trace.emit(now, TraceEvent::Retransmitted { path: out.path });
                }
                l.metrics += ns(t);
                let t = Instant::now();
                let (outcome, _) = emu.send(out.path, Direction::Forward, now, size, out.payload);
                l.emu_send += ns(t);
                work.sends += 1;
                if outcome.is_lost() {
                    let t = Instant::now();
                    metrics.on_packet_lost(out.path);
                    l.metrics += ns(t);
                }
            }

            if !idle {
                let t = Instant::now();
                emu.poll_into(now, &mut deliveries);
                l.emu_poll += ns(t);
            }
            for delivery in deliveries.drain(..) {
                match (delivery.direction, delivery.payload) {
                    (Direction::Forward, NetPayload::Rtp(rtp)) => {
                        if let RtpKind::Probe { probe_seq } = rtp.kind {
                            let echo = NetPayload::ProbeEcho {
                                probe_seq,
                                probe_sent_at: rtp.sent_at,
                            };
                            let size = echo.wire_size();
                            let t = Instant::now();
                            emu.send(delivery.path, Direction::Reverse, now, size, echo);
                            l.emu_send += ns(t);
                            work.sends += 1;
                        }
                        let media_payload = match &rtp.kind {
                            RtpKind::Media(p) if p.kind.is_media() => p.size,
                            RtpKind::Retransmission(p) if p.kind.is_media() => p.size,
                            _ => 0,
                        };
                        let t = Instant::now();
                        metrics.on_packet_received(now, delivery.path, media_payload);
                        l.metrics += ns(t);
                        let t = Instant::now();
                        let events = receiver.on_rtp(now, &rtp);
                        l.on_rtp += ns(t);
                        let t = Instant::now();
                        for ev in events {
                            record_receiver_event(&mut metrics, &trace, now, ev);
                        }
                        l.metrics += ns(t);
                    }
                    (Direction::Forward, NetPayload::Rtcp(rtcp)) => match &rtcp {
                        RtcpPacket::SenderReport(sr) => {
                            sr_seen.insert(PathId(sr.path_id), (sr.ntp_micros / 1_000, now));
                        }
                        RtcpPacket::Sdes(sdes) => {
                            if let Some(fr) = sdes.frame_rate {
                                receiver.on_sdes_frame_rate(fr as u32);
                            }
                        }
                        _ => {}
                    },
                    (Direction::Reverse, NetPayload::Rtcp(rtcp)) => {
                        let t = Instant::now();
                        if let RtcpPacket::Nack(ref n) = rtcp {
                            metrics.on_nack_sent(n.lost.len());
                            trace.emit(
                                now,
                                TraceEvent::NackSent {
                                    path: delivery.path,
                                    packets: n.lost.len() as u32,
                                },
                            );
                        }
                        if matches!(rtcp, RtcpPacket::Pli(_)) {
                            metrics.on_keyframe_request();
                        }
                        l.metrics += ns(t);
                        let c0 = children.total_ns();
                        let t = Instant::now();
                        sender.on_rtcp(now, &rtcp);
                        let span = ns(t);
                        l.on_rtcp_self += span.saturating_sub(children.total_ns() - c0);
                    }
                    (Direction::Reverse, NetPayload::ProbeEcho { probe_seq, .. }) => {
                        let c0 = children.total_ns();
                        let t = Instant::now();
                        sender.on_probe_echo(now, probe_seq);
                        let span = ns(t);
                        l.sender_other += span.saturating_sub(children.total_ns() - c0);
                    }
                    (Direction::Forward, NetPayload::ProbeEcho { .. })
                    | (Direction::Reverse, NetPayload::Rtp(_)) => {}
                }
            }

            loop {
                let t = Instant::now();
                let due = timers.pop_due(now);
                l.timers_pop += ns(t);
                let Some((_, tick)) = due else { break };
                match tick {
                    Tick::Frame(stream_idx) => {
                        let c0 = children.total_ns();
                        let t = Instant::now();
                        let result = sender.on_frame_tick(now, stream_idx);
                        let span = ns(t);
                        l.frame_tick_self += span.saturating_sub(children.total_ns() - c0);
                        let t = Instant::now();
                        metrics.on_frame_encoded(now, result.qp, result.height);
                        l.metrics += ns(t);
                        let t = Instant::now();
                        let rates = sender.path_metrics();
                        l.sender_other += ns(t);
                        let t = Instant::now();
                        for m in rates {
                            pacer.set_rate(m.id, m.rate_bps as f64);
                        }
                        pacer.enqueue(now, result.packets);
                        l.pacer += ns(t);
                        timers.schedule(now + frame_interval, Tick::Frame(stream_idx));
                    }
                    Tick::ReceiverRtcp | Tick::TransportRtcp => {
                        let transport = tick == Tick::TransportRtcp;
                        let t = Instant::now();
                        let batch = receiver.poll_rtcp_with(now, &sr_seen, transport);
                        l.poll_rtcp += ns(t);
                        for (path, rtcp) in batch {
                            let payload = NetPayload::Rtcp(rtcp);
                            let size = payload.wire_size();
                            let t = Instant::now();
                            emu.send(path, Direction::Reverse, now, size, payload);
                            l.emu_send += ns(t);
                            work.sends += 1;
                        }
                        let next = if transport {
                            cfg.transport_rtcp_interval
                        } else {
                            cfg.rtcp_interval
                        };
                        timers.schedule(now + next, tick);
                    }
                    Tick::SenderRtcp => {
                        let t = Instant::now();
                        let batch = sender.periodic_rtcp(now);
                        l.sender_other += ns(t);
                        for (path, rtcp) in batch {
                            let payload = NetPayload::Rtcp(rtcp);
                            let size = payload.wire_size();
                            let t = Instant::now();
                            emu.send(path, Direction::Forward, now, size, payload);
                            l.emu_send += ns(t);
                            work.sends += 1;
                        }
                        timers.schedule(now + SimDuration::from_millis(500), Tick::SenderRtcp);
                    }
                }
            }

            let t = Instant::now();
            metrics.flush_tick();
            l.metrics += ns(t);
        }

        let t = Instant::now();
        let report = metrics.finish();
        l.metrics += ns(t);
        work.queue_high_water = timers.high_water() as u64;
        for id in path_ids {
            let path = emu.path(id).expect("engine path");
            for dir in [Direction::Forward, Direction::Reverse] {
                let s = path.stats(dir);
                work.queue_drops += s.queue_drops;
                work.random_losses += s.random_losses;
            }
        }
        work.batches = children.batches.load(Relaxed) - work.batches;
        work.repair_calls = children.repair_calls.load(Relaxed) - work.repair_calls;
        (report, l, work)
    }
}

/// `Session::record_receiver_event`, which is private to the program.
fn record_receiver_event(
    metrics: &mut MetricsCollector,
    trace: &TraceHandle,
    now: SimTime,
    ev: ReceiverEvent,
) {
    match ev {
        ReceiverEvent::FrameDecoded { stream, at, e2e } => {
            trace.emit(
                now,
                TraceEvent::FrameDecoded {
                    stream: stream.0,
                    e2e_us: e2e.as_micros(),
                },
            );
            if let Some(gap) = metrics.on_frame_decoded(stream, at, e2e) {
                trace.emit(
                    now,
                    TraceEvent::FrameFrozen {
                        gap_us: gap.as_micros(),
                    },
                );
            }
        }
        ReceiverEvent::FrameDropped { stream, .. } => {
            trace.emit(now, TraceEvent::FrameDropped { stream: stream.0 });
            metrics.on_frame_dropped(now);
        }
        ReceiverEvent::Ifd { at, ifd } => metrics.on_ifd(at, ifd),
        ReceiverEvent::Fcd { at, fcd } => metrics.on_fcd(at, fcd),
        ReceiverEvent::FecRecovered => metrics.on_fec_used(),
        ReceiverEvent::FecReceived => metrics.on_fec_received(),
    }
}

/// Timed rounds a measurement takes at least. Each call's wall time is
/// its mean over the rounds: the host's speed swings by up to 1.8× within
/// seconds, and a mean over rounds run seconds apart moves smoothly with
/// the share of slow time, where a single sample jumps between two modes.
const MIN_TIMED_ROUNDS: usize = 3;

/// Set-up samples taken before the checked round and before each timed
/// round, so that they too are spread over the run.
const SETUPS_PER_ROUND: usize = 2;

fn run_session(cfg: &SessionConfig) -> Option<CallReport> {
    let cfg = cfg.clone();
    catch_unwind(AssertUnwindSafe(|| Session::new(cfg).run())).ok()
}

/// The composite QoE score `FleetReport::qoe_quantiles` ranks fleet
/// members by (normalized throughput and FPS, freeze penalty), applied to
/// one call.
fn qoe_score(r: &CallReport) -> f64 {
    let tput = r.normalized_throughput().clamp(0.0, 1.0);
    let fps = r.normalized_fps().clamp(0.0, 1.0);
    let freeze = (r.freeze_ratio_pct() / 100.0).clamp(0.0, 1.0);
    (0.5 * tput + 0.35 * fps + 0.15 * (1.0 - freeze)).clamp(0.0, 1.0)
}

pub fn run_untraced(w: CallWorkload, seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();

    // Set-up: input generation, config build and engine construction of
    // every call, up to each call's first event. One engine lives at a
    // time, as in the closed loop.
    let setup_once = || {
        let start = Instant::now();
        let configs = w.configs(seed);
        let mut total = start.elapsed();
        for cfg in configs {
            let start = Instant::now();
            let engine = CallEngine::new(cfg, None);
            total += start.elapsed();
            drop(black_box(engine));
        }
        total.as_secs_f64()
    };
    setup_once(); // warm-up, not counted
    let mut setup: Vec<f64> = (0..SETUPS_PER_ROUND).map(|_| setup_once()).collect();

    // The checked round: invariant checker armed; its reports are the
    // reference every timed round must reproduce exactly.
    let configs = w.configs(seed);
    let mut reference: Vec<Option<(CallReport, u64)>> = Vec::with_capacity(configs.len());
    for cfg in &configs {
        let cfg = cfg.clone();
        out.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| Session::new(cfg).run_checked())) {
            Ok((report, violations)) => {
                if !violations.is_empty() {
                    out.failed += 1;
                }
                let digest = debug_digest(&report);
                reference.push(Some((report, digest)));
            }
            Err(_) => {
                out.failed += 1;
                reference.push(None);
            }
        }
    }
    let digests: Vec<Option<u64>> = reference
        .iter()
        .map(|r| r.as_ref().map(|(_, d)| *d))
        .collect();
    println!("calls report digest: {:016x}", debug_digest(&digests));

    // Timed rounds: whole rounds until the measurement time is up.
    let start = Instant::now();
    let mut wall_sums = vec![0.0; configs.len()];
    let mut rounds = 0;
    while rounds < MIN_TIMED_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        setup.extend((0..SETUPS_PER_ROUND).map(|_| setup_once()));
        for ((cfg, expected), wall_sum) in configs.iter().zip(&reference).zip(&mut wall_sums) {
            let t = Instant::now();
            let report = run_session(cfg);
            *wall_sum += t.elapsed().as_secs_f64();
            out.attempted += 1;
            if report.is_none() {
                out.failed += 1;
            }
            let same = match (&report, expected) {
                (Some(r), Some((_, digest))) => debug_digest(r) == *digest,
                (None, None) => true,
                _ => false,
            };
            if !same {
                eprintln!("calls: a timed call's report differs from the checked round's");
                out.correct = false;
            }
        }
        rounds += 1;
    }

    let reports: Vec<&CallReport> = reference.iter().flatten().map(|(r, _)| r).collect();
    let mean = |f: &dyn Fn(&CallReport) -> f64| {
        reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64
    };
    let sim_s = (rounds * configs.len()) as f64 * w.call_duration().as_secs_f64();
    let call_ms: Vec<f64> = wall_sums
        .iter()
        .map(|s| s / rounds as f64 * 1_000.0)
        .collect();
    out.metric("sim_s_per_wall_s", sim_s / wall_sums.iter().sum::<f64>());
    out.metric("call_wall_ms_p50", quantile(&call_ms, 0.50));
    out.metric("call_wall_ms_p90", quantile(&call_ms, 0.90));
    out.metric("setup_s", median(&setup));
    out.metric("throughput_mbps", mean(&|r| r.throughput_bps) / 1e6);
    out.metric("fps", mean(&|r| r.fps_per_stream()));
    out.metric("freeze_ratio_pct", mean(&|r| r.freeze_ratio_pct()));
    // Frame latencies sit on frame-interval steps, so a pooled p95 reads
    // the same step for every seed; the mean of per-call quantiles moves.
    out.metric("e2e_p50_ms", mean(&|r| r.e2e_p50_ms));
    out.metric("e2e_p95_ms", mean(&|r| r.e2e_p95_ms));
    let qoe: Vec<f64> = reports.iter().map(|r| qoe_score(r)).collect();
    out.metric("qoe_p5", quantile(&qoe, 0.05));
    out.metric("qoe_p50", quantile(&qoe, 0.50));
    out.ok_frac();
    out
}

pub fn run_traced(w: CallWorkload, seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let configs = w.configs(seed);
    let children = Arc::new(Children::default());
    let mut times = LayerTimes::default();
    // Round 0's reports and work, per call (`None` where a call panicked).
    let mut first_round: Vec<Option<(CallReport, CallWork)>> = Vec::with_capacity(configs.len());
    let (mut plain_s, mut traced_s, mut traced_calls) = (0.0, 0.0, 0usize);
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, cfg) in configs.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let expected = run_session(cfg);
            plain_s += t.elapsed().as_secs_f64();

            let sink = Arc::new(CountingSink::default());
            let mut traced_cfg = cfg.clone();
            traced_cfg.trace = TraceHandle::new(sink.clone());
            let t = Instant::now();
            let traced = catch_unwind(AssertUnwindSafe(|| {
                CallEngine::new(traced_cfg, Some(&children)).run(&children)
            }))
            .ok();
            traced_s += t.elapsed().as_secs_f64();
            traced_calls += 1;

            let (report, call_times, mut work) = match (expected, traced) {
                (Some(expected), Some(traced)) => {
                    if debug_digest(&traced.0) != debug_digest(&expected) {
                        eprintln!("calls: the traced loop's report differs from Session::run's");
                        out.correct = false;
                    }
                    traced
                }
                (expected, traced) => {
                    out.failed += 1;
                    if expected.is_some() != traced.is_some() {
                        eprintln!("calls: only one of Session::run and the traced loop panicked");
                        out.correct = false;
                    }
                    if round == 0 {
                        first_round.push(None);
                    }
                    continue;
                }
            };
            times.add(&call_times);
            work.kinds = sink.counts();
            if round == 0 {
                first_round.push(Some((report, work)));
            } else if first_round[i].as_ref().map(|(_, w)| w) != Some(&work) {
                eprintln!("calls: a traced call's work counts changed between rounds");
                out.correct = false;
            }
        }
        round += 1;
    }

    let sim_s = traced_calls as f64 * w.call_duration().as_secs_f64();
    let per_sim_s = |ns: u64| ns as f64 / sim_s;
    let spans = [
        ("net.emulator.send_ns", times.emu_send),
        ("net.emulator.poll_ns", times.emu_poll),
        ("net.timers.pop_ns", times.timers_pop),
        ("sim.pacer.ns", times.pacer),
        ("sim.sender.frame_tick_self_ns", times.frame_tick_self),
        ("sim.sender.other_ns", times.sender_other),
        ("sim.receiver.on_rtp_ns", times.on_rtp),
        ("sim.receiver.poll_rtcp_ns", times.poll_rtcp),
        ("sim.metrics.ns", times.metrics),
        (
            "core.scheduler.assign_batch_ns",
            children.assign_batch_ns.load(Relaxed),
        ),
        (
            "core.scheduler.other_ns",
            children.scheduler_other_ns.load(Relaxed),
        ),
        ("core.fec.ns", children.fec_ns.load(Relaxed)),
        ("cc.on_rtcp_self_ns", times.on_rtcp_self),
    ];
    let traced_ns = (traced_s * 1e9) as u64;
    let attributed: u64 = spans.iter().map(|(_, v)| v).sum();
    for (name, v) in spans {
        out.metric(name, per_sim_s(v));
    }
    out.metric("trace.wall_ns", per_sim_s(traced_ns));
    out.metric(
        "trace.unattributed_ns",
        per_sim_s(traced_ns.saturating_sub(attributed)),
    );
    out.metric("trace.overhead", traced_s / plain_s);

    // Work counts: totals over the workload's distinct calls (one round).
    let calls: Vec<&(CallReport, CallWork)> = first_round.iter().flatten().collect();
    let sum = |f: &dyn Fn(&CallReport, &CallWork) -> u64| {
        calls.iter().map(|(r, w)| f(r, w)).sum::<u64>() as f64
    };
    let round_sim_s = calls.len() as f64 * w.call_duration().as_secs_f64();
    out.metric("net.emulator.sends", sum(&|_, w| w.sends));
    out.metric("sim.pacer.releases", sum(&|_, w| w.releases));
    out.metric(
        "net.events.iterations_per_sim_s",
        sum(&|_, w| w.iterations) / round_sim_s,
    );
    out.metric("net.link.queue_drops", sum(&|_, w| w.queue_drops));
    out.metric("net.link.random_losses", sum(&|_, w| w.random_losses));
    let high_water = calls
        .iter()
        .map(|(_, w)| w.queue_high_water)
        .max()
        .unwrap_or(0);
    out.metric("net.queue.high_water", high_water as f64);
    out.metric("core.scheduler.batches", sum(&|_, w| w.batches));
    out.metric("core.fec.repair_calls", sum(&|_, w| w.repair_calls));
    let fec_sent = sum(&|r, _| r.fec_packets_sent);
    let fec_used = sum(&|r, _| r.fec_packets_used);
    out.metric("core.fec.packets_sent", fec_sent);
    out.metric("core.fec.packets_used", fec_used);
    out.metric("core.fec.utilization", fec_used / fec_sent.max(1.0));
    out.metric("rtp.nacked", sum(&|r, _| r.nacks_sent));
    let rtx = sum(&|r, _| r.retransmissions);
    out.metric("rtp.retransmissions", rtx);
    out.metric(
        "rtp.rtx_per_media",
        rtx / sum(&|r, _| r.media_packets_sent).max(1.0),
    );
    let encoded = sum(&|r, _| r.frames_encoded);
    let decoded = sum(&|r, _| r.frames_decoded);
    out.metric("video.frames_encoded", encoded);
    out.metric("video.frames_decoded", decoded);
    out.metric("video.frames_dropped", sum(&|r, _| r.frames_dropped));
    out.metric("video.decoded_frac", decoded / encoded.max(1.0));
    let mut kinds = [0; TRACE_KINDS.len()];
    for (_, w) in &calls {
        for (total, n) in kinds.iter_mut().zip(w.kinds) {
            *total += n;
        }
    }
    crate::trace_count_metrics(&mut out, &kinds);
    out
}
