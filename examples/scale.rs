//! How an open and a splice grow with the number of branches.
//!
//! The connector is the reconfigurable merger of the churn example, `n`
//! producers wide. Each of five rounds opens it from source text, connects
//! it, passes one value through, drops the `n` producer handles and has the
//! consumer's next `recv` learn of it; then it opens it again and drops the
//! producers while the consumer is parked in `recv` on a second thread. The
//! example prints the medians of the connect, of what comes after it up to
//! the first value, of the drop, of that first `recv` and of the parked
//! drop (until the parked `recv` returns), the process's peak resident set
//! (`VmHWM`) and the bytes one open allocates per constituent, from source
//! text to the first value. Run one process per `n`: the peak is the
//! process's. The parked drop still re-walks the merger at every hangup, so
//! it is still quadratic in `n`: pinned to one CPU of a shared 2-vCPU host,
//! it took 13.8 ms, 197 ms and 4.3 s at n = 1,024, 4,096 and 16,384 on
//! `jit`, and 13.8 ms, 234 ms and 4.6 s on `part`.
//!
//! With `--pairs K` it also connects a reconfigurable session and times
//! `K` attach/detach pairs, each split into re-instantiation, join and
//! splice ([`reo::runtime::ConnectorHandle::splice_phases`]), next to that
//! session's connect.
//!
//! Run: `cargo run --release --example scale -- <n> <jit|part|…> [--pairs K]`.
//! It ends with an `ok:` line, and panics if a value does not come
//! through or a splice fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use reo::runtime::{Connector, Mode, RuntimeError};

const SRC: &str = "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) \
                   mult Merger(m[1..#src];c)";

/// Counts the bytes every allocation asks for (a moving `realloc` asks
/// anew: the default `realloc` allocates).
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, with the same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one open measured.
struct Open {
    connect: Duration,
    /// From the end of the connect to the first value received.
    first_value: Duration,
    /// Dropping the `n` producer handles: a hangup of every producer.
    drop: Duration,
    /// The consumer's first `recv` after the drop, which answers `Hangup`.
    first_recv: Duration,
    /// The same drop in another open, with the consumer parked in `recv`
    /// on a second thread, until that `recv` answers `Hangup`.
    parked: Duration,
    /// Allocated from source text to the first value, per constituent.
    bytes: f64,
}

fn assert_hangup<T: std::fmt::Debug>(got: Result<T, RuntimeError>) {
    assert!(matches!(got, Err(RuntimeError::Hangup(_))), "{got:?}");
}

/// One open from source text to the first value, then the producers' drop
/// and the consumer's first `recv` after it; then the parked drop.
fn open(n: usize, mode: Mode) -> Open {
    let before = BYTES.load(Ordering::Relaxed);
    let program = reo::dsl::parse_program(SRC).unwrap();
    let connector = Connector::builder(&program, "M")
        .mode(mode)
        .build()
        .unwrap();
    let spec = connector.session().replicate("src", n);
    let start = Instant::now();
    let mut session = spec.connect().unwrap();
    let connect = start.elapsed();
    let txs = session.typed_outports::<i64>("src").unwrap();
    let rx = session.typed_inport::<i64>("c").unwrap();
    txs[0].send(7).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
    let first_value = start.elapsed() - connect;
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    let bytes = bytes as f64 / session.handle().medium_count() as f64;
    let start = Instant::now();
    drop(txs);
    let (drop, start) = (start.elapsed(), Instant::now());
    assert_hangup(rx.recv());
    let first_recv = start.elapsed();
    std::mem::drop((rx, session)); // one session at a time: the peak is one open's
    Open {
        connect,
        first_value,
        drop,
        first_recv,
        parked: parked(&connector, n),
        bytes,
    }
}

/// Drop the producers of a fresh session while its consumer is parked in
/// `recv` (a zero-deadline watchdog sees it parked), and time the drop
/// until that `recv` returns.
fn parked(connector: &Connector, n: usize) -> Duration {
    let spec = connector.session().replicate("src", n);
    let mut session = spec.watchdog(Duration::ZERO).connect().unwrap();
    let txs = session.typed_outports::<i64>("src").unwrap();
    let rx = session.typed_inport::<i64>("c").unwrap();
    let consumer = std::thread::spawn(move || (rx.recv(), Instant::now()));
    while !session.handle().is_stalled() {
        std::thread::yield_now();
    }
    let start = Instant::now();
    drop(txs);
    let (got, end) = consumer.join().unwrap();
    assert_hangup(got);
    end - start
}

/// `pairs` attach/detach pairs on a reconfigurable session; prints the
/// medians of each and of their phases.
fn churn(n: usize, mode: Mode, pairs: usize) {
    let program = reo::dsl::parse_program(SRC).unwrap();
    let connector = Connector::builder(&program, "M")
        .mode(mode)
        .build()
        .unwrap();
    let spec = connector.session().replicate("src", n).reconfigurable();
    let start = Instant::now();
    let mut session = spec.connect().unwrap();
    let connect = start.elapsed();
    let handle = session.handle();
    let rx = session.typed_inport::<i64>("c").unwrap();
    let (mut attach, mut detach) = (Vec::new(), Vec::new());
    let mut last = String::new();
    for k in 0..pairs {
        let start = Instant::now();
        let mut branch = handle.attach("src").unwrap();
        let [i, j, s] = handle.splice_phases();
        attach.push([start.elapsed(), i, j, s]);
        let tx = branch.outport().unwrap().typed::<i64>();
        tx.send(k as i64).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), k as i64);
        drop(tx);
        last = branch.port().to_string();
        let start = Instant::now();
        branch.detach().unwrap();
        let [i, j, s] = handle.splice_phases();
        detach.push([start.elapsed(), i, j, s]);
    }
    // Each run is its total, then its three phases.
    let report = |runs: &[[Duration; 4]]| {
        let column = |c: usize| ms(median(runs.iter().map(|r| r[c]).collect()));
        format!(
            "{:.2} ms (instantiate {:.2}, join {:.2}, splice {:.2})",
            column(0),
            column(1),
            column(2),
            column(3),
        )
    };
    println!(
        "  attach {}, detach {}, reconfigurable connect {:.2} ms; \
         median of {pairs} pairs, last port {last}",
        report(&attach),
        report(&detach),
        ms(connect),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: scale <n> <mode> [--pairs K]";
    let n: usize = args.first().and_then(|a| a.parse().ok()).expect(usage);
    let name = args.get(1).expect(usage);
    let (_, mode) = Mode::grid_subset(&[name.as_str()]).next().expect(usage);
    let pairs: usize = match args.get(2).map(String::as_str) {
        Some("--pairs") => args.get(3).and_then(|a| a.parse().ok()).expect(usage),
        _ => 0,
    };

    let rounds: Vec<Open> = (0..5).map(|_| open(n, mode)).collect();
    let bytes = rounds[rounds.len() - 1].bytes;
    let column = |f: fn(&Open) -> Duration| ms(median(rounds.iter().map(f).collect()));
    println!(
        "merger n={n} {name}: connect {:.2} ms, first value {:.2} ms, drop {:.2} ms, \
         first recv after it {:.2} ms, parked drop {:.2} ms (medians of 5), \
         peak RSS {:.1} MiB, {bytes:.0} B per constituent",
        column(|o| o.connect),
        column(|o| o.first_value),
        column(|o| o.drop),
        column(|o| o.first_recv),
        column(|o| o.parked),
        peak_rss_mib().unwrap_or(f64::NAN),
    );
    if pairs > 0 {
        churn(n, mode, pairs);
    }
    println!("ok: merger n={n} {name} passed a value in every round");
}
