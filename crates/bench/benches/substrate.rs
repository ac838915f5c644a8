//! Micro-benchmarks of the constraint-automata substrate: product
//! construction, label simplification, firing, and port-operation latency.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reo_automata::{
    primitives, product_all, simplify, try_fire, MemId, PortId, PortSet, ProductOptions, Store,
    Value,
};
use reo_dsl::parse_program;
use reo_runtime::{Connector, Mode};

fn sync_chain(k: usize) -> Vec<reo_automata::Automaton> {
    (0..k)
        .map(|i| primitives::sync(PortId(i as u32), PortId(i as u32 + 1)))
        .collect()
}

fn bench_product(c: &mut Criterion) {
    // Construction-cost measurement wants headroom beyond the default
    // explosion budgets (fifo_grid/12 builds ~900k product transitions).
    let opts = ProductOptions {
        max_states: 1 << 20,
        max_transitions: 1 << 24,
    };
    let mut group = c.benchmark_group("product");
    for k in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("sync_chain", k), &k, |b, &k| {
            let autos = sync_chain(k);
            b.iter(|| product_all(&autos, &opts).unwrap());
        });
    }
    // The 2^k-state case: product of independent fifos. (k = 12 already
    // needs ~1M product transitions and does not fit this container's
    // memory; the explosion benchmarks live in fig12/fig13 instead.)
    for k in [4usize, 8, 10] {
        group.bench_with_input(BenchmarkId::new("fifo_grid", k), &k, |b, &k| {
            let autos: Vec<_> = (0..k)
                .map(|i| {
                    primitives::fifo1(
                        PortId(2 * i as u32),
                        PortId(2 * i as u32 + 1),
                        MemId(i as u32),
                    )
                })
                .collect();
            b.iter(|| product_all(&autos, &opts).unwrap());
        });
    }
    group.finish();
}

fn bench_simplify(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplify");
    for k in [8usize, 32] {
        group.bench_with_input(BenchmarkId::new("sync_chain", k), &k, |b, &k| {
            let prod = product_all(&sync_chain(k), &ProductOptions::default()).unwrap();
            let keep = PortSet::from_iter([PortId(0), PortId(k as u32)]);
            b.iter(|| simplify(&prod, &keep));
        });
    }
    group.finish();
}

fn bench_fire(c: &mut Criterion) {
    let mut group = c.benchmark_group("fire");
    // Firing one transition of a composed chain: raw vs simplified labels —
    // the [30] optimization the paper's insight 1 discusses.
    for k in [8usize, 32] {
        let prod = product_all(&sync_chain(k), &ProductOptions::default()).unwrap();
        let keep = PortSet::from_iter([PortId(0), PortId(k as u32)]);
        let simple = simplify(&prod, &keep);
        let offer = move |p: PortId| (p == PortId(0)).then_some(Value::Int(1));

        group.bench_with_input(BenchmarkId::new("raw_chain", k), &k, |b, _| {
            let t = &prod.transitions_from(prod.initial())[0];
            let mut store = Store::new(prod.mem_layout());
            b.iter(|| try_fire(t, &offer, &mut store).unwrap().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("simplified_chain", k), &k, |b, _| {
            let t = &simple.transitions_from(simple.initial())[0];
            let mut store = Store::new(simple.mem_layout());
            b.iter(|| try_fire(t, &offer, &mut store).unwrap().unwrap());
        });
    }
    group.finish();
}

fn bench_port_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("port_roundtrip");
    let program = parse_program("Buf(a;b) = Fifo1(a;m) mult Fifo1(m;b)").unwrap();
    // The three single-engine cores, by their `Mode::grid()` names.
    for (label, mode) in Mode::grid_subset(&["mono", "jit", "comp"]) {
        group.bench_function(label, |b| {
            let connector = Connector::builder(&program, "Buf")
                .mode(mode)
                .build()
                .unwrap();
            let mut session = connector.session().connect().unwrap();
            let tx = session.outports("a").unwrap().pop().unwrap();
            let rx = session.inports("b").unwrap().pop().unwrap();
            b.iter(|| {
                tx.send(Value::Int(1)).unwrap();
                rx.recv().unwrap()
            });
        });
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
    targets = bench_product, bench_simplify, bench_fire, bench_port_roundtrip
}
criterion_main!(benches);
