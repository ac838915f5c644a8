//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * transition-label simplification on/off (the [30] optimization —
//!   Fig. 12 insight 1);
//! * bounded-LRU state cache vs the unbounded cache (the paper's
//!   future-work eviction design);
//! * partitioned vs monolithic just-in-time execution (the [32]
//!   optimization — Fig. 13 finding 3).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reo_automata::Value;
use reo_connectors::families;
use reo_runtime::{CachePolicy, Connector, Mode};

/// Round-trip messages through `ordered` at N=8, monolithic compilation
/// with and without label simplification.
fn bench_simplify_ablation(c: &mut Criterion) {
    let family = families()
        .into_iter()
        .find(|f| f.name == "ordered")
        .unwrap();
    let program = family.program();
    let mut group = c.benchmark_group("ablation_simplify");
    for (label, simplify) in [("on", true), ("off", false)] {
        group.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let connector = Connector::builder(&program, family.def)
                    .mode(Mode::ExistingMonolithic { simplify })
                    .build()
                    .unwrap();
                let mut session = connector
                    .session()
                    .replicate("tl", 8)
                    .replicate("hd", 8)
                    .connect()
                    .unwrap();
                let senders = session.outports("tl").unwrap();
                let receivers = session.inports("hd").unwrap();
                let start = Instant::now();
                let producer = std::thread::spawn(move || {
                    for _ in 0..iters {
                        for s in &senders {
                            s.send(Value::Int(1)).unwrap();
                        }
                    }
                });
                for _ in 0..iters {
                    for r in &receivers {
                        r.recv().unwrap();
                    }
                }
                producer.join().unwrap();
                start.elapsed()
            });
        });
    }
    group.finish();
}

/// Sequencer rotation under different cache policies: capacity 1 forces a
/// recompute on every state revisit (the trade-off the paper sketches).
fn bench_cache_ablation(c: &mut Criterion) {
    let family = families()
        .into_iter()
        .find(|f| f.name == "sequencer")
        .unwrap();
    let program = family.program();
    let mut group = c.benchmark_group("ablation_cache");
    for (label, cache) in [
        ("unbounded", CachePolicy::Unbounded),
        ("lru1", CachePolicy::BoundedLru { capacity: 1 }),
        ("lru64", CachePolicy::BoundedLru { capacity: 64 }),
    ] {
        group.bench_function(label, |b| {
            // The sequencer is single-thread drivable: clients complete
            // strictly in rotation.
            let connector = Connector::builder(&program, family.def)
                .mode(Mode::Jit { cache })
                .build()
                .unwrap();
            let mut session = connector.session().replicate("t", 6).connect().unwrap();
            let clients = session.outports("t").unwrap();
            b.iter(|| {
                for client in &clients {
                    client.send(Value::Unit).unwrap();
                }
            });
        });
    }
    group.finish();
}

/// Scatter/gather at growing N: plain JIT expansion cost vs partitioned
/// regions (the fix for exponential fan-out).
fn bench_partition_ablation(c: &mut Criterion) {
    let family = families()
        .into_iter()
        .find(|f| f.name == "scatter_gather")
        .unwrap();
    let program = family.program();
    let mut group = c.benchmark_group("ablation_partition");
    for n in [2usize, 4, 8] {
        for (label, mode) in [("jit", Mode::jit()), ("partitioned", Mode::partitioned())] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                b.iter_custom(|iters| {
                    let connector = Connector::builder(&program, family.def)
                        .mode(mode)
                        .build()
                        .unwrap();
                    let mut session = connector
                        .session()
                        .replicate("v", n)
                        .replicate("w", n)
                        .connect()
                        .unwrap();
                    let master_out = session.outports("m").unwrap().pop().unwrap();
                    let results = session.inports("res").unwrap().pop().unwrap();
                    let work_in = session.inports("w").unwrap();
                    let work_out = session.outports("v").unwrap();
                    // Slaves: each echoes its items back.
                    let workers: Vec<_> = work_in
                        .into_iter()
                        .zip(work_out)
                        .map(|(win, wout)| {
                            std::thread::spawn(move || {
                                while let Ok(v) = win.recv() {
                                    if wout.send(v).is_err() {
                                        return;
                                    }
                                }
                            })
                        })
                        .collect();
                    let start = Instant::now();
                    for k in 0..iters {
                        master_out.send(Value::Int(k as i64)).unwrap();
                        results.recv().unwrap();
                    }
                    let elapsed = start.elapsed();
                    session.handle().close();
                    for w in workers {
                        w.join().unwrap();
                    }
                    elapsed
                });
            });
        }
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_simplify_ablation, bench_cache_ablation, bench_partition_ablation
}
criterion_main!(benches);
