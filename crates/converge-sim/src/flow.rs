//! One media flow's closed loop (paper §4): sender, pacer and paths out
//! to the receiver, then QoE/NACK/PLI feedback back to the sender.
//!
//! [`Session`](crate::Session), [`DuplexSession`](crate::DuplexSession)
//! (two flows, one per direction) and every
//! [`FleetEngine`](crate::FleetEngine) member run this same pipeline. The
//! event loops keep only what differs between them: their scheduling
//! (event queue or timer wheel), their topology (emulator, or private
//! paths into an SFU) and the routing of deliveries to a flow. A flow
//! sends through [`FlowNet`].

use std::collections::BTreeMap;

use converge_cc::ControllerConfig;
use converge_core::PacketClass;
use converge_net::{Direction, NetworkEmulator, PathId, SimDuration, SimTime};
use converge_rtp::RtcpPacket;
use converge_trace::{TraceEvent, TraceHandle};
use converge_video::VideoFormat;

use crate::metrics::MetricsCollector;
use crate::pacer::{Pacer, PacerConfig};
use crate::payload::{NetPayload, RtpKind, SimRtp};
use crate::receiver::{ConferenceReceiver, ReceiverEvent};
use crate::scenarios::{FecKind, SchedulerKind};
use crate::sender::{ConferenceSender, OutboundPacket, RateCoupling, SenderSizing};

/// Video format every simulated camera captures.
pub(crate) const FORMAT: VideoFormat = VideoFormat::HD720;

/// Capture interval of one stream at [`FORMAT`]'s frame rate.
pub(crate) const FRAME_INTERVAL: SimDuration =
    SimDuration::from_micros(1_000_000 / FORMAT.fps as u64);

/// Interval of the sender's SR/SDES round.
pub(crate) const SR_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Where a flow's packets go: the event loop's topology.
pub(crate) trait FlowNet {
    /// Offers `payload` to `path` in `direction` at `now`. Returns true
    /// when the network lost the packet on the spot.
    fn transmit(
        &mut self,
        path: PathId,
        direction: Direction,
        now: SimTime,
        payload: NetPayload,
    ) -> bool;
}

impl FlowNet for NetworkEmulator<NetPayload> {
    fn transmit(
        &mut self,
        path: PathId,
        direction: Direction,
        now: SimTime,
        payload: NetPayload,
    ) -> bool {
        let size = payload.wire_size();
        self.send(path, direction, now, size, payload).0.is_lost()
    }
}

/// The knobs a flow is built from (shared by `SessionConfig` and
/// `FleetConfig`).
pub(crate) struct FlowSpec {
    pub streams: u8,
    pub scheduler: SchedulerKind,
    pub fec: FecKind,
    pub controller: ControllerConfig,
    pub max_encoding_rate_bps: u64,
    pub coupled_cc: bool,
    pub duration: SimDuration,
    pub sizing: SenderSizing,
    /// Receiver `recent` ring slots (see [`ConferenceReceiver::new_sized`]).
    pub recent_slots: usize,
}

/// One direction's sender, pacer, receiver, metrics and trace. Event
/// loops read the pacer for scheduling; the fleet also reaches the sender
/// (SBD coupling), metrics (ingress drops) and trace (conference events).
///
/// An event loop ends a flow with `flow.metrics.finish()`, which leaves
/// the other fields to drop in declaration order after the loop's own
/// later-declared event buffers. That free order — buffers, pacer,
/// receiver, then the sender's large packet rings — is kept on purpose:
/// it leaves the allocator's free lists in a shape the next back-to-back
/// call reuses, where freeing the sender first costs a closed loop of
/// eight-path calls about 1 MB (7 %) more peak RSS.
pub(crate) struct Flow {
    /// Reused so the steady-state pacer poll allocates nothing.
    paced: Vec<OutboundPacket>,
    /// SRs seen at the receiver for RTT echo: path → (SR send ms, arrival).
    sr_seen: BTreeMap<PathId, (u64, SimTime)>,
    pub trace: TraceHandle,
    pub pacer: Pacer,
    receiver: ConferenceReceiver,
    pub sender: ConferenceSender,
    pub metrics: MetricsCollector,
    /// Direction media and SR/SDES travel; feedback takes the other one.
    media_dir: Direction,
}

/// The direction opposite to `dir`.
pub(crate) fn opposite(dir: Direction) -> Direction {
    match dir {
        Direction::Forward => Direction::Reverse,
        Direction::Reverse => Direction::Forward,
    }
}

/// Whether `payload` is bound for a flow's receiver (media, SR, SDES)
/// rather than its sender (feedback RTCP, probe echoes).
pub(crate) fn to_receiver(payload: &NetPayload) -> bool {
    match payload {
        NetPayload::Rtp(_) => true,
        NetPayload::Rtcp(rtcp) => {
            matches!(rtcp, RtcpPacket::SenderReport(_) | RtcpPacket::Sdes(_))
        }
        NetPayload::ProbeEcho { .. } => false,
    }
}

impl Flow {
    /// Builds a flow over `paths` whose media travels `media_dir`.
    pub(crate) fn new(
        spec: &FlowSpec,
        paths: &[PathId],
        media_dir: Direction,
        trace: TraceHandle,
    ) -> Self {
        let mut sender = ConferenceSender::new_sized(
            spec.streams,
            paths,
            spec.scheduler.build(FRAME_INTERVAL),
            spec.fec.build(),
            spec.controller,
            spec.max_encoding_rate_bps,
            spec.sizing,
        );
        if spec.coupled_cc {
            sender.set_coupling(RateCoupling::Lia);
        }
        let mut receiver = ConferenceReceiver::new_sized(
            spec.streams,
            paths,
            FORMAT.fps,
            paths[0],
            spec.recent_slots,
        );
        sender.set_trace(trace.clone());
        receiver.set_trace(trace.clone());
        Flow {
            sender,
            receiver,
            pacer: Pacer::new(PacerConfig::default()),
            metrics: MetricsCollector::new(
                spec.duration,
                FORMAT,
                spec.max_encoding_rate_bps,
                spec.streams,
            ),
            sr_seen: BTreeMap::new(),
            trace,
            media_dir,
            paced: Vec::new(),
        }
    }

    /// Sends every packet the pacer releases at `now`.
    pub(crate) fn poll_pacer<N: FlowNet>(&mut self, net: &mut N, now: SimTime) {
        self.pacer.poll_into(now, &mut self.paced);
        for out in self.paced.drain(..) {
            let size = out.payload.wire_size();
            let is_fec = out.class == PacketClass::Fec;
            let is_media = matches!(
                &out.payload,
                NetPayload::Rtp(r) if r.kind.video_packet().is_some()
            );
            self.metrics.on_packet_sent(now, out.path, size, is_fec, is_media);
            if out.class == PacketClass::Retransmission {
                self.metrics.on_retransmission();
                self.trace.emit(now, TraceEvent::Retransmitted { path: out.path });
            }
            if net.transmit(out.path, self.media_dir, now, out.payload) {
                self.metrics.on_packet_lost(out.path);
            }
        }
    }

    /// Handles one payload that arrived on `path`: media, SR and SDES at
    /// the receiver, feedback and probe echoes at the sender.
    pub(crate) fn deliver<N: FlowNet>(
        &mut self,
        net: &mut N,
        now: SimTime,
        path: PathId,
        payload: NetPayload,
    ) {
        match payload {
            NetPayload::Rtp(rtp) => self.on_rtp(net, now, path, &rtp),
            NetPayload::Rtcp(rtcp) => self.on_rtcp(now, path, rtcp),
            NetPayload::ProbeEcho { probe_seq, .. } => self.sender.on_probe_echo(now, probe_seq),
        }
    }

    /// An RTP packet reached the receiver: probes are echoed straight
    /// back, media is counted and fed to the receiver.
    pub(crate) fn on_rtp<N: FlowNet>(
        &mut self,
        net: &mut N,
        now: SimTime,
        path: PathId,
        rtp: &SimRtp,
    ) {
        if let RtpKind::Probe { probe_seq } = rtp.kind {
            let echo = NetPayload::ProbeEcho { probe_seq, probe_sent_at: rtp.sent_at };
            net.transmit(path, opposite(self.media_dir), now, echo);
        }
        let media_payload = match &rtp.kind {
            RtpKind::Media(p) if p.kind.is_media() => p.size,
            RtpKind::Retransmission(p) if p.kind.is_media() => p.size,
            _ => 0,
        };
        self.metrics.on_packet_received(now, path, media_payload);
        for ev in self.receiver.on_rtp(now, rtp) {
            self.record_receiver_event(now, ev);
        }
    }

    /// SR/SDES go to the receiver's clock; everything else is feedback
    /// for the sender.
    fn on_rtcp(&mut self, now: SimTime, path: PathId, rtcp: RtcpPacket) {
        match &rtcp {
            RtcpPacket::SenderReport(sr) => {
                self.sr_seen.insert(PathId(sr.path_id), (sr.ntp_micros / 1_000, now));
            }
            RtcpPacket::Sdes(sdes) => {
                if let Some(fr) = sdes.frame_rate {
                    self.receiver.on_sdes_frame_rate(fr as u32);
                }
            }
            _ => {
                if let RtcpPacket::Nack(n) = &rtcp {
                    self.metrics.on_nack_sent(n.lost.len());
                    self.trace.emit(
                        now,
                        TraceEvent::NackSent { path, packets: n.lost.len() as u32 },
                    );
                }
                if matches!(rtcp, RtcpPacket::Pli(_)) {
                    self.metrics.on_keyframe_request();
                }
                self.sender.on_rtcp(now, &rtcp);
            }
        }
    }

    fn record_receiver_event(&mut self, now: SimTime, ev: ReceiverEvent) {
        let trace = &self.trace;
        match ev {
            ReceiverEvent::FrameDecoded { stream, at, e2e } => {
                // Stamp with `now`, not the decode instant: the frame
                // buffer may date decodes to a future playout deadline,
                // and the trace timeline must stay monotone.
                trace.emit(
                    now,
                    TraceEvent::FrameDecoded { stream: stream.0, e2e_us: e2e.as_micros() },
                );
                if let Some(gap) = self.metrics.on_frame_decoded(stream, at, e2e) {
                    trace.emit(now, TraceEvent::FrameFrozen { gap_us: gap.as_micros() });
                }
            }
            ReceiverEvent::FrameDropped { stream, .. } => {
                trace.emit(now, TraceEvent::FrameDropped { stream: stream.0 });
                self.metrics.on_frame_dropped(now);
            }
            ReceiverEvent::Ifd { at, ifd } => self.metrics.on_ifd(at, ifd),
            ReceiverEvent::Fcd { at, fcd } => self.metrics.on_fcd(at, fcd),
            ReceiverEvent::FecRecovered => self.metrics.on_fec_used(),
            ReceiverEvent::FecReceived => self.metrics.on_fec_received(),
        }
    }

    /// Captures and encodes one frame of `stream`, keeps the pacer's
    /// budgets in sync with the controllers, and queues the packets.
    pub(crate) fn on_frame_tick(&mut self, now: SimTime, stream: usize) {
        let result = self.sender.on_frame_tick(now, stream);
        self.metrics.on_frame_encoded(now, result.qp, result.height);
        for m in self.sender.path_metrics() {
            self.pacer.set_rate(m.id, m.rate_bps as f64);
        }
        self.pacer.enqueue(now, result.packets);
    }

    /// The receiver's feedback round: fast (QoE, NACK, PLI) or, with
    /// `include_transport`, the transport-feedback/RR round as well.
    pub(crate) fn receiver_rtcp<N: FlowNet>(
        &mut self,
        net: &mut N,
        now: SimTime,
        include_transport: bool,
    ) {
        let feedback_dir = opposite(self.media_dir);
        for (path, rtcp) in self.receiver.poll_rtcp_with(now, &self.sr_seen, include_transport) {
            net.transmit(path, feedback_dir, now, NetPayload::Rtcp(rtcp));
        }
    }

    /// The sender's SR/SDES round.
    pub(crate) fn sender_rtcp<N: FlowNet>(&mut self, net: &mut N, now: SimTime) {
        for (path, rtcp) in self.sender.periodic_rtcp(now) {
            net.transmit(path, self.media_dir, now, NetPayload::Rtcp(rtcp));
        }
    }
}
