//! Criterion micro-benches for the fleet engine's hot path: timer-wheel
//! insert/advance, a shard's event queue under one conference's churn,
//! and SFU ingress/fan-out offers. These are the per-event costs that
//! bound sessions-per-core at fleet scale. Each group names the ledger
//! metrics (perfbench `fleet_sfu`) whose layer it models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use converge_net::event::EventQueue;
use converge_net::{PathId, SfuConfig, SfuNode, SimTime, TimerWheel};

/// Models the `net.wheel.*` layer (`net.wheel.high_water`,
/// `net.wheel.cascades`): pacer, frame, and RTCP ticks.
fn bench_timer_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer_wheel");

    // Steady-state insert + pop at realistic pending depths: every
    // session keeps ~5 armed timers, so 1k sessions ≈ 5k pending.
    for pending in [64usize, 1024, 8192] {
        group.bench_with_input(
            BenchmarkId::new("insert_pop", pending),
            &pending,
            |b, &pending| {
                let mut wheel: TimerWheel<u64> = TimerWheel::new();
                for i in 0..pending {
                    // Spread over ~33 ms, the frame-tick horizon.
                    wheel.schedule(SimTime::from_micros((i as u64 * 37) % 33_333 + 1), i as u64);
                }
                let mut due: Vec<(SimTime, u64)> = Vec::with_capacity(16);
                let mut now = 0u64;
                b.iter(|| {
                    now += 1_024;
                    wheel.pop_due_into(SimTime::from_micros(now), &mut due);
                    for &(_, item) in &due {
                        wheel.schedule(SimTime::from_micros(now + 1 + (item % 33_333)), item);
                    }
                    std::hint::black_box(due.len());
                    due.clear();
                });
            },
        );
    }

    // Pure advance over an idle stretch: the cost of skipping dead air,
    // which must stay near zero for idle sessions to be free.
    group.bench_function("advance_idle_1s", |b| {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut due: Vec<(SimTime, u64)> = Vec::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000_000;
            wheel.schedule(SimTime::from_micros(now + 500_000), now);
            wheel.pop_due_into(SimTime::from_micros(now + 999_999), &mut due);
            std::hint::black_box(due.len());
            due.clear();
        });
    });
    group.finish();
}

/// Models the `net.queue.high_water` layer: a shard's in-flight packet
/// queue, which holds one conference at a time.
fn bench_shard_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_queue");

    // Push/drain churn at the depths a shard sees: one conference's
    // in-flight packets, from a quiet call (~100s of events) up to
    // members sitting behind full access and SFU queues (~2k).
    for depth in [128usize, 512, 2048] {
        group.bench_with_input(BenchmarkId::new("push_pop_due", depth), &depth, |b, &depth| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..depth {
                q.schedule(SimTime::from_micros(i as u64), i as u64);
            }
            let mut t = depth as u64;
            b.iter(|| {
                let at = q.peek_time().expect("queue stays non-empty");
                while let Some(ev) = q.pop_due(at) {
                    std::hint::black_box(ev);
                    q.schedule(SimTime::from_micros(t), t);
                    t += 1;
                }
            });
        });
    }

    // Reset between conferences: clearing a drained queue must keep its
    // allocations (O(1) amortized, no refill cost).
    group.bench_function("clear_reuse_1024", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        b.iter(|| {
            for i in 0..1024u64 {
                q.schedule(SimTime::from_micros(i), i);
            }
            q.clear();
            std::hint::black_box(q.len());
        });
    });
    group.finish();
}

/// Models the `net.sfu.*` layer (`net.sfu.fanout_pkts`,
/// `net.sfu.ingress_drop_frac`): the shared ingress and egress links.
fn bench_sfu_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfu_fanout");

    // One media packet in, fanout-1 copies out — the SFU's unit of work.
    for fanout in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("ingress_egress", fanout), &fanout, |b, &fanout| {
            let mut sfu = SfuNode::new(SfuConfig::for_bottleneck(8_000_000, fanout));
            let members: Vec<_> = (0..fanout)
                .map(|_| sfu.register_member(&[PathId(0), PathId(1)]))
                .collect();
            let mut now = 0u64;
            b.iter(|| {
                now += 500;
                let at = SimTime::from_micros(now);
                let fate = sfu.offer_ingress(members[0], at, 1_200);
                std::hint::black_box(fate);
                for _ in 1..fanout {
                    std::hint::black_box(sfu.offer_egress(at, 1_200));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_timer_wheel, bench_shard_queue, bench_sfu_fanout);
criterion_main!(benches);
