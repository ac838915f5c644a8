//! What an exchange costs once a peer has left.
//!
//! A `merger` of `n` senders, driven by polling on one thread: the time of
//! one rendezvous through `tl[1]` with every sender there, with one sender
//! gone, and with half of them gone — three sessions whose batches
//! alternate, the fastest of five each. The hangup analysis looks only at
//! what a hold's steps moved, so the three figures should agree; when every
//! firing hold ended with a full analysis they read 2.0× (jit, n = 16, one
//! sender gone) to 7.1× (half of them gone).
//!
//! Run: `cargo run --release --example after_hangup [-- --n N --exchanges K --max-ratio R]`
//! (`R` is in percent; above it in any mode the exit status is 1).

use std::task::{Context, Poll, Waker};
use std::time::Instant;

use reo::runtime::{Connector, Inport, Mode, Outport};
use reo::Value;

fn arg(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// Nanoseconds per exchange over one batch of `k`.
fn batch(tx: &Outport<i64>, rx: &Inport<i64>, k: usize) -> f64 {
    let mut cx = Context::from_waker(Waker::noop());
    let start = Instant::now();
    for v in 0..k as i64 {
        let mut offer = Some(Value::Int(v));
        let sent = tx.poll_send(&mut cx, &mut offer).is_ready();
        let got = rx.poll_recv(&mut cx, &mut false);
        assert!(matches!(got, Poll::Ready(Ok(got)) if got == v), "{got:?}");
        assert!(sent || tx.poll_send(&mut cx, &mut offer).is_ready());
    }
    start.elapsed().as_nanos() as f64 / k as f64
}

fn main() {
    let (n, k) = (arg("--n", 16).max(2), arg("--exchanges", 20_000));
    let max_ratio = arg("--max-ratio", usize::MAX) as f64 / 100.0;
    let families = reo::connectors::families();
    let merger = families.iter().find(|f| f.name == "merger").unwrap();
    let modes = [
        ("jit", Mode::jit()),
        ("compiled", Mode::compiled()),
        ("partitioned", Mode::partitioned()),
    ];
    let mut worst: f64 = 0.0;
    println!("merger n={n}, ns per exchange: before | one sender left | half left");
    for (name, mode) in modes {
        let connector = Connector::builder(&merger.program(), merger.def)
            .mode(mode)
            .build()
            .unwrap();
        // One session per figure, so their batches can alternate: the
        // fastest of five each, and a slow spell of the host hits all three.
        let sessions: Vec<_> = [n, n - 1, n / 2]
            .into_iter()
            .map(|keep| {
                let mut session = connector.session().replicate("tl", n).connect().unwrap();
                let mut txs = session.typed_outports::<i64>("tl").unwrap();
                let rx = session.typed_inport::<i64>("hd").unwrap();
                txs.truncate(keep);
                (session, txs, rx)
            })
            .collect();
        let mut best = [f64::INFINITY; 3];
        for _ in 0..5 {
            for (fastest, (_, txs, rx)) in best.iter_mut().zip(&sessions) {
                *fastest = fastest.min(batch(&txs[0], rx, k));
            }
        }
        let [before, one, half] = best;
        let (r1, r2) = (one / before, half / before);
        println!("{name:>12}: {before:7.0} | {one:7.0} ({r1:.2}x) | {half:7.0} ({r2:.2}x)");
        worst = worst.max(r1).max(r2);
    }
    if worst > max_ratio {
        eprintln!("after/before {worst:.2} exceeds {max_ratio:.2}");
        std::process::exit(1);
    }
    println!("ok: worst after/before ratio {worst:.2}");
}
