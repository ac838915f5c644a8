//! What one cold open costs the allocator.
//!
//! An open is what the `cold_open` benchmark workload times: source text →
//! `parse_program` → `Connector::builder(..).build()` → `session()
//! .replicate_all(..).connect()` → one value through → drop. This binary
//! counts the heap allocations each phase makes, per thread, through a
//! counting `#[global_allocator]` (its own test binary, so no other test
//! shares the allocator), over a fixed list of cells in the three modes
//! the benchmark opens. It prints the per-phase means and holds the total
//! to a budget, so that a change which brings back per-step, per-port-set
//! or per-identifier heap traffic fails here rather than as a slower
//! benchmark run. CHANGES.md has the counts the budget was set at ("ONE
//! FRONT END"; first "A COLD OPEN STOPS PAYING THE ALLOCATOR FOR WHAT IT
//! THROWS AWAY"). It also counts bytes, and holds what an open of a wide
//! merger allocates per constituent flat in its width: stamping `n`
//! constituents is linear in `n`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::task::{Context, Poll, Waker};

use reo::automata::PortSet;
use reo::connectors::{Family, Role};
use reo::{Connector, Inport, IntoValue, Mode, Outport, RuntimeError, Value};

/// Counts every block handed out on the calling thread, and the bytes it
/// asked for (a `realloc` that moves counts too: the default `realloc`
/// allocates anew).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` with the caller's arguments;
// the thread-local counter has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Mean heap allocations per open over [`cells`]: 410.2 in a debug build
/// (406.9 in release) — parse 34.4, build 183.3, connect 137.4, first
/// value 48.2, drop 6.8 (3.6) — plus 1 %. CHANGES.md has the counts of
/// every earlier budget (the last: 420, over 415.2 in a debug build).
const BUDGET: f64 = 415.0;

const PHASES: [&str; 5] = ["parse", "build", "connect", "first value", "drop"];

/// The Fig. 12 families and the two scale families at n ∈ {2, 4}, in the
/// three modes the benchmark opens. Left out as in
/// `benchmark/cells/cold_open.txt`: `lossy_bcast`, which loses the value
/// it is offered, and the compiled mode of the two families whose fill at
/// n = 4 is not a cheap open.
fn cells() -> Vec<(Family, usize, &'static str, Mode)> {
    let mut families = reo::connectors::families();
    families.retain(|f| f.name != "lossy_bcast");
    families.push(reo::connectors::relay_family());
    families.push(reo::connectors::burst_family());
    let modes = [
        ("jit", Mode::jit()),
        ("partitioned", Mode::partitioned()),
        ("compiled", Mode::compiled()),
    ];
    let mut cells = Vec::new();
    for family in &families {
        for n in [2, 4] {
            for &(label, mode) in &modes {
                let explosive = ["scatter_gather", "bcast_gather"].contains(&family.name);
                if !(n == 4 && label == "compiled" && explosive) {
                    cells.push((family.clone(), n, label, mode));
                }
            }
        }
    }
    cells
}

/// Offer a distinct value on every sending port and look for one at a
/// receiving port, polling from this thread only (the benchmark's
/// `first_value`, without its sabotage switches). Values a connector holds
/// from the start (a token ring's token) are received and passed over.
fn first_value(family: &Family, txs: &[Outport<i64>], rxs: &[Inport<Value>]) -> Result<(), String> {
    let mut cx = Context::from_waker(Waker::noop());
    let sent = |v: &Value| {
        v.as_int()
            .is_some_and(|v| (1..=txs.len() as i64).contains(&v))
    };
    let mut offers: Vec<Option<Value>> = (1..=txs.len() as i64)
        .map(|i| Some(i.into_value()))
        .collect();
    let mut registered = vec![false; rxs.len()];
    let mut sent_done = vec![false; txs.len()];
    for _round in 0..2 {
        for step in 0..=txs.len() {
            if let (Some(tx), Some(false)) = (txs.get(step), sent_done.get(step)) {
                match tx.poll_send(&mut cx, &mut offers[step]) {
                    Poll::Ready(Ok(())) if rxs.is_empty() => return Ok(()),
                    Poll::Ready(Ok(())) => sent_done[step] = true,
                    Poll::Ready(Err(e)) => return Err(format!("send: {e}")),
                    Poll::Pending => {}
                }
            }
            for (rx, reg) in rxs.iter().zip(registered.iter_mut()) {
                match rx.poll_recv(&mut cx, reg) {
                    Poll::Ready(Ok(v)) if sent(&v) => return Ok(()),
                    Poll::Ready(Ok(_)) => *reg = false,
                    Poll::Ready(Err(e)) => return Err(format!("recv: {e}")),
                    Poll::Pending => {}
                }
            }
        }
    }
    Err(format!("{}: no value came through", family.name))
}

/// One open, the allocations of each phase added to `counts`.
fn open(family: &Family, n: usize, mode: Mode, counts: &mut [u64; 5]) -> Result<(), String> {
    let mut mark = allocations();
    let mut lap = |phase: usize| {
        let now = allocations();
        counts[phase] += now - mark;
        mark = now;
    };
    let program = reo::dsl::parse_program(family.source).map_err(|e| e.to_string())?;
    lap(0);
    let connector = Connector::builder(&program, family.def)
        .mode(mode)
        .build()
        .map_err(|e| e.to_string())?;
    lap(1);
    let sizes = (family.sizes)(n);
    let mut session =
        (connector.session().replicate_all(&sizes).connect()).map_err(|e| e.to_string())?;
    lap(2);
    let (mut txs, mut rxs) = (Vec::new(), Vec::new());
    let sends = (family.drivers.iter())
        .filter(|(_, role)| matches!(role, Role::Send))
        .map(|&(param, _)| param)
        .chain(family.paired_sends.iter().flat_map(|&(a, r)| [a, r]));
    for param in sends {
        txs.extend(
            session
                .typed_outports::<i64>(param)
                .map_err(|e| e.to_string())?,
        );
    }
    for &(param, role) in family.drivers {
        if matches!(role, Role::Recv) {
            rxs.extend(session.inports(param).map_err(|e| e.to_string())?);
        }
    }
    let through = first_value(family, &txs, &rxs);
    lap(3);
    drop((txs, rxs, session, connector, program));
    lap(4);
    through
}

#[test]
fn a_cold_open_stays_inside_its_allocation_budget() {
    assert!(std::mem::size_of::<PortSet>() <= 24, "PortSet grew");
    let cells = cells();
    assert!(cells.len() >= 30);
    let mut counts = [0u64; 5];
    for (family, n, label, mode) in &cells {
        // A first open of each cell warms what is process-wide (lazily
        // initialised statics), so the counted one is what every open pays.
        open(family, *n, *mode, &mut [0; 5]).unwrap_or_else(|e| panic!("{label}: {e}"));
        open(family, *n, *mode, &mut counts).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    let opens = cells.len() as f64;
    let total: u64 = counts.iter().sum();
    for (phase, count) in PHASES.iter().zip(counts) {
        println!(
            "{phase:>12}: {:8.1} allocations per open",
            count as f64 / opens
        );
    }
    let mean = total as f64 / opens;
    println!(
        "{:>12}: {mean:8.1} allocations per open over {opens} opens",
        "total"
    );
    assert!(
        mean <= BUDGET,
        "{mean:.1} allocations per open, budget {BUDGET}"
    );
}

/// The merger of the churn example: a `Fifo1` per producer into one
/// variadic `Merger`.
const MERGER: &str = "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) \
                      mult Merger(m[1..#src];c)";

/// Bytes one open of [`MERGER`] `n` wide allocates per constituent, from
/// source text to the first value; then bytes per handle that dropping the
/// `n` producer handles allocates, first with nobody waiting, then in a
/// second session with the consumer's `recv` polled once and parked.
fn bytes_per_constituent(n: usize, mode: Mode) -> [f64; 3] {
    let mark = bytes();
    let program = reo::dsl::parse_program(MERGER).unwrap();
    let connector = Connector::builder(&program, "M")
        .mode(mode)
        .build()
        .unwrap();
    let mut session = connector.session().replicate("src", n).connect().unwrap();
    let txs = session.typed_outports::<i64>("src").unwrap();
    let rx = session.typed_inport::<i64>("c").unwrap();
    txs[n / 2].send(7).unwrap();
    assert_eq!(rx.recv().unwrap(), 7);
    let allocated = bytes() - mark;
    let mark = bytes();
    drop(txs);
    let dropped = bytes() - mark;
    let constituents = session.handle().medium_count();
    drop((rx, session));

    let mut session = connector.session().replicate("src", n).connect().unwrap();
    let txs = session.typed_outports::<i64>("src").unwrap();
    let rx = session.typed_inport::<i64>("c").unwrap();
    let (mut cx, mut registered) = (Context::from_waker(Waker::noop()), false);
    assert!(rx.poll_recv(&mut cx, &mut registered).is_pending());
    let mark = bytes();
    drop(txs);
    let parked = bytes() - mark;
    let woken = rx.poll_recv(&mut cx, &mut registered);
    assert!(matches!(woken, Poll::Ready(Err(RuntimeError::Hangup(_)))));
    [
        allocated as f64 / constituents as f64,
        dropped as f64 / n as f64,
        parked as f64 / n as f64,
    ]
}

/// Bytes one open of the `relay` family `n` channels wide allocates per
/// constituent under `part` — `2n` regions and `n` links —, from source
/// text to a value through the middle channel.
fn relay_bytes_per_constituent(n: usize) -> f64 {
    let mark = bytes();
    let family = reo::connectors::relay_family();
    let program = family.program();
    let connector = Connector::builder(&program, family.def)
        .mode(Mode::partitioned())
        .build()
        .unwrap();
    let spec = connector.session().replicate_all(&(family.sizes)(n));
    let mut session = spec.connect().unwrap();
    let txs = session.typed_outports::<i64>("t").unwrap();
    let rxs = session.typed_inports::<i64>("hd").unwrap();
    txs[n / 2].send(7).unwrap();
    assert_eq!(rxs[n / 2].recv().unwrap(), 7);
    (bytes() - mark) as f64 / session.handle().medium_count() as f64
}

/// Each automaton's memory layout lists only the cells it owns, and a
/// variadic primitive builds its port sets once: at n = 2,048 an open
/// allocates per constituent what it does at n = 256 (about 6,000 B). With
/// layouts dense up to the highest global cell id, the same opens took
/// 9,454 and 34,472 B per constituent on `jit`. A hangup marks its port's
/// slot and lists it once, so the drop allocates about 8 B per handle at
/// either width; with the marks kept in port sets rebuilt on every insert,
/// it took 1,028 and 8,196 B. With the consumer parked every hangup is
/// analysed in its own hold, and a port's deadness is a bit in its slot,
/// so that drop too is flat; with a dead set merged anew each round and
/// the ports a walk saw collected and sorted, it took 14.5 and 116 KB.
/// Under `part` the relay's `2n` regions speak their own ids, so each
/// region's port table, core and store are as wide as the region and its
/// open too is flat (about 4,800 B per constituent); with every region's
/// store and port-width tables sized by the whole connector, it took
/// 13,958 and 76,028 B.
#[test]
fn an_open_allocates_the_same_bytes_per_constituent_at_any_width() {
    for (label, mode) in [("jit", Mode::jit()), ("partitioned", Mode::partitioned())] {
        bytes_per_constituent(2, mode);
        let (narrow, wide) = (
            bytes_per_constituent(256, mode),
            bytes_per_constituent(2048, mode),
        );
        println!(
            "{label}: {:.0} B per constituent at n = 256, {:.0} B at n = 2,048; drop {:.0} and \
             {:.0} B per handle, parked {:.0} and {:.0} B",
            narrow[0], wide[0], narrow[1], wide[1], narrow[2], wide[2]
        );
        let phases = ["open", "drop", "parked drop"].into_iter().enumerate();
        for (phase, narrow, wide) in phases.map(|(i, phase)| (phase, narrow[i], wide[i])) {
            assert!(
                wide <= 1.5 * narrow && narrow <= 1.5 * wide,
                "{label} {phase}: {narrow:.0} B at n = 256, {wide:.0} B at n = 2,048"
            );
        }
    }
    relay_bytes_per_constituent(2);
    let (narrow, wide) = (
        relay_bytes_per_constituent(256),
        relay_bytes_per_constituent(2048),
    );
    println!(
        "relay partitioned: {narrow:.0} B per constituent at n = 256, {wide:.0} B at n = 2,048"
    );
    assert!(
        wide <= 1.5 * narrow && narrow <= 1.5 * wide,
        "relay partitioned open: {narrow:.0} B at n = 256, {wide:.0} B at n = 2,048"
    );
}
