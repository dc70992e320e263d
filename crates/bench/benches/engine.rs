//! Simulation-core micro-benchmarks: event-queue throughput (both FEL
//! backends) and RNG speed (the engine bounds the whole simulator's event
//! rate).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use tlb_engine::{EventQueue, FelKind, SimRng, SimTime};

const BACKENDS: [(FelKind, &str); 2] = [(FelKind::Calendar, "calendar"), (FelKind::Heap, "heap")];

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for (kind, name) in BACKENDS {
        for &n in &[1_000usize, 100_000] {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_function(format!("{name}/push_pop_{n}"), |b| {
                b.iter_batched_ref(
                    || {
                        (
                            EventQueue::<u64>::with_capacity_and_kind(n, kind),
                            SimRng::new(1),
                        )
                    },
                    |(q, rng)| {
                        for i in 0..n {
                            q.push(SimTime::from_nanos(rng.gen_range(1_000_000)), i as u64);
                        }
                        let mut acc = 0u64;
                        while let Some((_, e)) = q.pop() {
                            acc ^= e;
                        }
                        acc
                    },
                    BatchSize::SmallInput,
                )
            });
        }
        // The simulator's steady-state pattern: the queue stays
        // ~constant-size while events are pushed and popped in alternation.
        group.throughput(Throughput::Elements(4096));
        group.bench_function(format!("{name}/steady_state_churn"), |b| {
            b.iter_batched_ref(
                || {
                    let mut q = EventQueue::<u32>::with_capacity_and_kind(4096, kind);
                    let mut rng = SimRng::new(2);
                    for i in 0..2048 {
                        q.push(SimTime::from_nanos(rng.gen_range(1_000_000)), i);
                    }
                    (q, rng)
                },
                |(q, rng)| {
                    let mut acc = 0u32;
                    for _ in 0..4096 {
                        let (t, e) = q.pop().expect("non-empty");
                        acc ^= e;
                        q.push(t + SimTime::from_nanos(1 + rng.gen_range(10_000)), e);
                    }
                    acc
                },
                BatchSize::SmallInput,
            )
        });
        // The walk `steady_state_churn` never makes: a serialization time
        // mixed with a long propagation delay (`highbdp_bulk`'s 1.2 µs and
        // 500 µs) carries the clock across every bucket of the 2.1 ms wheel
        // several times per sample, at a shallow and at a web-search depth.
        // As in a run, one queue lives through all of it, and the entries
        // start on a few shared instants, so those that took the same hops
        // since meet again in one bucket (what synchronized ticks and ACK
        // clocks do) — storage laid out per bucket rather than per live
        // entry grows toward (deepest bucket × wheel span) here and is
        // cold on every push, however hot it looks above.
        for depth in [26u32, 1_000] {
            const OPS: u64 = 65_536;
            group.throughput(Throughput::Elements(OPS));
            group.bench_function(format!("{name}/wheel_walk_{depth}"), |b| {
                let mut q = EventQueue::<u32>::with_capacity_and_kind(4096, kind);
                let mut rng = SimRng::new(3);
                for i in 0..depth {
                    q.push(SimTime::from_nanos((i % 8) as u64 * 60_000), i);
                }
                b.iter(|| {
                    let mut acc = 0u32;
                    for _ in 0..OPS {
                        let (t, e) = q.pop().expect("non-empty");
                        acc ^= e;
                        let after = if rng.gen_range(2) == 0 {
                            1_200
                        } else {
                            500_000
                        };
                        q.push(t + SimTime::from_nanos(after), e);
                    }
                    acc
                })
            });
        }
    }
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("next_u64_x1024", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= rng.next_u64();
            }
            acc
        })
    });
    group.bench_function("exp_x1024", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut acc = 0.0f64;
            for _ in 0..1024 {
                acc += rng.exp(1.0);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_rng);
criterion_main!(benches);
