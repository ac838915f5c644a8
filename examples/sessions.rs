//! 100,000 concurrent open sessions on a handful of executor threads.
//!
//! The async tentpole demo: one tiny `Fifo1` connector is compiled once,
//! then connected 100k times. Every session gets an async producer task
//! and an async consumer task — 200k futures total — all parked behind a
//! start gate so the peak (`sessions` open, `2 * sessions` live tasks) is
//! *observed*, not inferred. Then the gate opens and a hand-rolled
//! 4-thread executor drains the whole fleet; each blocked port operation
//! parks a task's `Waker` inside the engine instead of one that unparks
//! a thread, which is the entire reason 100k sessions fit on 4 threads.
//!
//! Printed at the end: throughput, an RSS-per-session estimate (Linux
//! `/proc/self/statm` delta; `n/a` elsewhere), and the wake-precision
//! ratio `waker_wakes / completions`, which the example asserts stays
//! ≤ 2 (as `tests/session_api.rs` does on a 64-session fleet).
//!
//! Run: `cargo run --release --example sessions [-- --sessions N --threads T --values K]`

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use reo::exec::Executor;
use reo::runtime::{Connector, Mode};

/// A one-shot start gate: tasks await it, `open()` wakes every waiter.
/// (Hand-rolled on purpose — the exercise is to need no async runtime
/// crates anywhere, demo included.)
struct Gate {
    open: AtomicBool,
    waiters: Mutex<Vec<Waker>>,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            open: AtomicBool::new(false),
            waiters: Mutex::new(Vec::new()),
        })
    }

    fn open(&self) {
        // Flag first, then drain: a waiter that raced past the flag check
        // is in the vec and gets woken; one that saw the flag never parks.
        self.open.store(true, Ordering::SeqCst);
        let waiters = std::mem::take(&mut *self.waiters.lock().unwrap());
        for w in waiters {
            w.wake();
        }
    }

    fn wait(self: &Arc<Self>) -> GateWait {
        GateWait {
            gate: Arc::clone(self),
        }
    }
}

struct GateWait {
    gate: Arc<Gate>,
}

impl Future for GateWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.gate.open.load(Ordering::SeqCst) {
            return Poll::Ready(());
        }
        self.gate.waiters.lock().unwrap().push(cx.waker().clone());
        // Re-check after parking so an `open()` racing the push above
        // cannot strand this waiter.
        if self.gate.open.load(Ordering::SeqCst) {
            return Poll::Ready(());
        }
        Poll::Pending
    }
}

/// Resident set size in KiB via `/proc/self/statm` (Linux only).
fn rss_kib() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4) // page size is 4 KiB on every target we run on
}

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

fn main() {
    let sessions = arg("--sessions", 100_000);
    let threads = arg("--threads", 4);
    let values = arg("--values", 2);

    // Compile once: every session instantiates the same tiny automaton.
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    let connector = Connector::builder(&program, "Buf")
        .mode(Mode::jit())
        .build()
        .unwrap();

    let rss_start = rss_kib();

    // Open every session up front: the whole fleet is concurrently open
    // before a single value moves.
    let t_open = Instant::now();
    let mut handles = Vec::with_capacity(sessions);
    let mut ports = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let mut s = connector.session().connect().unwrap();
        let tx = s.typed_outport::<i64>("a").unwrap();
        let rx = s.typed_inport::<i64>("b").unwrap();
        handles.push(s.handle());
        ports.push((tx, rx));
    }
    let open_secs = t_open.elapsed().as_secs_f64();
    let rss_open = rss_kib();

    // Two tasks per session, all parked behind the gate.
    let exec = Executor::new(threads);
    let gate = Gate::new();
    let received = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::with_capacity(2 * sessions);
    for (tx, rx) in ports {
        let g = Arc::clone(&gate);
        joins.push(exec.spawn(async move {
            g.wait().await;
            for v in 0..values as i64 {
                tx.send_async(v).await.unwrap();
            }
        }));
        let g = Arc::clone(&gate);
        let received = Arc::clone(&received);
        joins.push(exec.spawn(async move {
            g.wait().await;
            for v in 0..values as i64 {
                let got = rx.recv_async().await.unwrap();
                assert_eq!(got, v, "a session reordered its own stream");
                received.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Let the workers park everything, then observe the peak: every
    // session open, every task alive, nothing delivered yet.
    while exec.live_tasks() < 2 * sessions {
        std::thread::yield_now();
    }
    let rss_peak = rss_kib();
    assert_eq!(exec.live_tasks(), 2 * sessions);
    assert_eq!(received.load(Ordering::SeqCst), 0);
    println!(
        "peak: {sessions} concurrent open sessions, {} live tasks, {threads} executor threads",
        2 * sessions
    );

    // Drain the fleet.
    let t_run = Instant::now();
    gate.open();
    for j in joins {
        j.join().expect("session task panicked");
    }
    let run_secs = t_run.elapsed().as_secs_f64();

    let total = received.load(Ordering::SeqCst);
    assert_eq!(total, (sessions * values) as u64, "values lost in flight");
    assert_eq!(exec.live_tasks(), 0);

    // Wake precision: a waker fires only when its port completed, so the
    // wake count stays within a small factor of the completion count.
    let (mut completions, mut waker_wakes) = (0u64, 0u64);
    for h in &handles {
        let st = h.stats();
        completions += st.completions;
        waker_wakes += st.waker_wakes;
    }

    println!(
        "opened  {sessions} sessions in {open_secs:.2}s ({:.0}/s)",
        sessions as f64 / open_secs
    );
    println!(
        "drained {total} values in {run_secs:.2}s ({:.0}/s)",
        total as f64 / run_secs
    );
    match (rss_start, rss_open, rss_peak) {
        (Some(a), Some(b), Some(c)) => println!(
            "rss: {:.2} KiB/session open, {:.2} KiB/session peak (incl. both tasks)",
            (b.saturating_sub(a)) as f64 / sessions as f64,
            (c.saturating_sub(a)) as f64 / sessions as f64,
        ),
        _ => println!("rss: n/a (no /proc/self/statm)"),
    }
    println!(
        "wake precision: {waker_wakes} waker wakes / {completions} completions = {:.3}",
        waker_wakes as f64 / completions.max(1) as f64
    );
    assert!(
        waker_wakes <= 2 * completions,
        "waker storm: {waker_wakes} wakes for {completions} completions"
    );
    println!("ok: {sessions} sessions on {threads} threads, every value accounted for");
}
