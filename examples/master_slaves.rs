//! Master–slaves work distribution — the structure of the paper's NPB
//! experiments (Sect. V-C) on a toy workload: the master scatters work
//! items through an exclusive router, idle workers pick them up, results
//! funnel back through a merger; fifos decouple everyone.
//!
//! The same connector runs monolithic, JIT, or partitioned; partitioned
//! execution cuts it at the fifos into per-worker synchronous regions (the
//! optimization of the paper's reference [32]).
//!
//! The ports are typed end to end: work items travel as `i64`, results as
//! `(i64, i64)` pairs — no `Value` in sight. The master gathers with a
//! `try_recv` polling loop, overlapping scatter and gather.
//!
//! Run: `cargo run --example master_slaves -- 5 jit`
//! (modes: `jit`, `existing`, `partitioned`, `compiled` — the last is the
//! paper's ahead-of-time composition, `Mode::compiled()`, here per region)

use std::thread;

use reo::connectors::families;
use reo::runtime::{Connector, Mode};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let mode = match std::env::args().nth(2).as_deref() {
        Some("existing") => Mode::existing(),
        // One engine per synchronous region; the master and slave
        // threads carry their own values across the links (see
        // `reo::runtime::partition`).
        Some("partitioned") => Mode::partitioned(),
        // Ahead-of-time composition, per region (the whole-connector
        // product of `Mode::compiled()` explodes on this family).
        Some("compiled") => Mode::compiled_partitioned(),
        _ => Mode::jit(),
    };

    let family = families()
        .into_iter()
        .find(|f| f.name == "scatter_gather")
        .expect("family exists");
    let program = family.program();
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

    let master_out = session.typed_outport::<i64>("m").unwrap();
    let results_in = session.typed_inport::<(i64, i64)>("res").unwrap();
    let work_in = session.typed_inports::<i64>("w").unwrap();
    let work_out = session.typed_outports::<(i64, i64)>("v").unwrap();
    let handle = session.handle();

    // Slaves: receive an item, compute, send the tagged result back. The
    // iterator form drains work items until the connector closes.
    let workers: Vec<_> = work_in
        .into_iter()
        .zip(work_out)
        .enumerate()
        .map(|(id, (win, wout))| {
            thread::spawn(move || {
                let mut done = 0u32;
                for x in &win {
                    let result = (1..=x).map(|k| k * k).sum::<i64>();
                    if wout.send((x, result)).is_err() {
                        break;
                    }
                    done += 1;
                }
                println!("worker {id}: processed {done} items");
            })
        })
        .collect();

    // Master: scatter 40 items and gather 40 results from one thread,
    // interleaved via non-blocking receives.
    let items = 40i64;
    let mut sent = 0i64;
    let mut got = 0i64;
    let mut total = 0i64;
    while got < items {
        if sent < items {
            master_out.send(sent + 1).unwrap();
            sent += 1;
        }
        // Drain whatever results are ready; never blocks the scatter.
        while let Some((_x, result)) = results_in.try_recv().unwrap() {
            total += result;
            got += 1;
        }
        if sent == items && got < items {
            // Everything scattered: the rest is a plain blocking gather.
            let (_x, result) = results_in.recv().unwrap();
            total += result;
            got += 1;
        }
    }

    // Σ_{x=1..40} Σ_{k=1..x} k² has a closed form; cross-check it.
    let expected: i64 = (1..=items)
        .map(|x| (1..=x).map(|k| k * k).sum::<i64>())
        .sum();
    assert_eq!(total, expected);

    let stats = handle.stats();
    println!(
        "ok: {items} items over {n} workers (mode {mode:?}), total {total}, \
         {} connector steps",
        stats.steps
    );
    println!(
        "engine stats: {} completions, {} targeted wakeups ({} spurious), \
         {} lock acquisitions",
        stats.completions, stats.wakeups, stats.spurious_wakeups, stats.lock_acquisitions
    );
    handle.close();
    for w in workers {
        w.join().unwrap();
    }
}
