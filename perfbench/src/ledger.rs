//! Outside-in instrumentation: timing wrappers around the `Scheduler` and
//! `FecPolicy` trait objects the sender owns, and a counting `TraceSink`.
//! Nothing here changes program code; every number comes from timing or
//! counting calls made through the crates' public interfaces.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use converge_core::{Assignment, FecPolicy, PathMetrics, Schedulable, Scheduler};
use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::QoeFeedback;
use converge_trace::{TraceEvent, TraceHandle, TraceRecord, TraceSink};

/// Time and work recorded inside the sender's child components. They are
/// called from within `on_frame_tick` and `on_rtcp`, so the loop reads
/// [`Children::total_ns`] around those calls to subtract child time.
#[derive(Debug, Default)]
pub struct Children {
    pub assign_batch_ns: AtomicU64,
    pub batches: AtomicU64,
    /// Every other scheduler method (feedback, probes, path queries).
    pub scheduler_other_ns: AtomicU64,
    pub fec_ns: AtomicU64,
    pub repair_calls: AtomicU64,
}

impl Children {
    pub fn total_ns(&self) -> u64 {
        self.assign_batch_ns.load(Relaxed)
            + self.scheduler_other_ns.load(Relaxed)
            + self.fec_ns.load(Relaxed)
    }
}

fn timed<T>(slot: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    slot.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    out
}

/// A scheduler that forwards every trait method to the real one and
/// times it.
#[derive(Debug)]
pub struct TimedScheduler {
    pub inner: Box<dyn Scheduler>,
    pub children: Arc<Children>,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace)
    }

    fn assign_batch(
        &mut self,
        now: SimTime,
        packets: &[Schedulable],
        paths: &[PathMetrics],
    ) -> Vec<Assignment> {
        self.children.batches.fetch_add(1, Relaxed);
        timed(&self.children.assign_batch_ns, || {
            self.inner.assign_batch(now, packets, paths)
        })
    }

    fn on_qoe_feedback(&mut self, now: SimTime, fb: &QoeFeedback) {
        timed(&self.children.scheduler_other_ns, || {
            self.inner.on_qoe_feedback(now, fb)
        })
    }

    fn probe_paths(&mut self, now: SimTime, paths: &[PathMetrics]) -> Vec<PathId> {
        timed(&self.children.scheduler_other_ns, || {
            self.inner.probe_paths(now, paths)
        })
    }

    fn disabled_paths(&self) -> Vec<PathId> {
        timed(&self.children.scheduler_other_ns, || {
            self.inner.disabled_paths()
        })
    }

    fn used_paths(&self, paths: &[PathMetrics]) -> Vec<PathId> {
        timed(&self.children.scheduler_other_ns, || {
            self.inner.used_paths(paths)
        })
    }

    fn drop_batch(&self, now: SimTime) -> bool {
        timed(&self.children.scheduler_other_ns, || {
            self.inner.drop_batch(now)
        })
    }

    fn on_probe_rtt(
        &mut self,
        now: SimTime,
        path: PathId,
        rtt_fast: SimDuration,
        rtt_path: SimDuration,
    ) {
        timed(&self.children.scheduler_other_ns, || {
            self.inner.on_probe_rtt(now, path, rtt_fast, rtt_path)
        })
    }
}

/// A FEC policy that forwards every trait method to the real one and
/// times it.
#[derive(Debug)]
pub struct TimedFec {
    pub inner: Box<dyn FecPolicy>,
    pub children: Arc<Children>,
}

impl FecPolicy for TimedFec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace)
    }

    fn repair_count(
        &mut self,
        now: SimTime,
        path: PathId,
        media_count: usize,
        loss: f64,
        is_keyframe: bool,
    ) -> usize {
        self.children.repair_calls.fetch_add(1, Relaxed);
        timed(&self.children.fec_ns, || {
            self.inner
                .repair_count(now, path, media_count, loss, is_keyframe)
        })
    }

    fn on_nack(&mut self, path: PathId, nacked: usize) {
        timed(&self.children.fec_ns, || self.inner.on_nack(path, nacked))
    }

    fn on_batch_sent(&mut self, path: PathId, media: usize, fec: usize) {
        timed(&self.children.fec_ns, || {
            self.inner.on_batch_sent(path, media, fec)
        })
    }
}

/// Every `TraceEvent` kind, by its canonical name. The traced run reports
/// a `trace.records.<kind>` count for each, zero included.
pub const TRACE_KINDS: [&str; 18] = [
    "split_decision",
    "fast_path_switched",
    "alpha_adjusted",
    "path_disabled",
    "path_reenabled",
    "fec_updated",
    "gcc_state_changed",
    "gcc_rate_changed",
    "cc_state_changed",
    "cc_rate_changed",
    "monitor_edge",
    "feedback_emitted",
    "nack_sent",
    "retransmitted",
    "frame_decoded",
    "frame_dropped",
    "frame_frozen",
    "sbd_groups_changed",
];

/// Per-kind trace-record counts.
pub type KindCounts = [u64; TRACE_KINDS.len()];

pub fn kind_index(name: &str) -> usize {
    TRACE_KINDS
        .iter()
        .position(|k| *k == name)
        .unwrap_or_else(|| panic!("trace kind {name:?} is missing from TRACE_KINDS"))
}

/// A sink that only counts records per kind.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: Mutex<KindCounts>,
}

impl CountingSink {
    pub fn counts(&self) -> KindCounts {
        *self.counts.lock().expect("counting sink lock")
    }
}

impl TraceSink for CountingSink {
    fn record(&self, record: TraceRecord) {
        let idx = kind_index(TraceEvent::name(&record.event));
        self.counts.lock().expect("counting sink lock")[idx] += 1;
    }
}
