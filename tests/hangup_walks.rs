//! What a hangup costs, counted through the facade
//! (`EngineStats::hangup_walks`: reachability walks, one per constituent
//! examined) over the full mode grid.
//!
//! The analysis runs when its answer is needed and over what changed: a
//! teardown that drops every handle with nobody waiting walks nothing; a
//! drop that somebody is parked behind walks the neighbourhood of the
//! dropped port, not of every port dropped before it; and once a peer has
//! left, a later exchange walks only local states it has not stood in
//! since. Every case is polled on one thread, so "inside the drop's hold"
//! is exact: the waker has fired when `drop` returns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use reo::runtime::{Connector, Inport, Mode, Outport, Session};
use reo::RuntimeError;

/// A waker that records it fired.
#[derive(Default)]
struct Flag(AtomicBool);

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn connect(source: &str, def: &str, mode: Mode, sizes: &[(&str, usize)]) -> Session {
    let program = reo::dsl::parse_program(source).unwrap();
    let connector = Connector::builder(&program, def)
        .mode(mode)
        .build()
        .unwrap();
    connector.session().replicate_all(sizes).connect().unwrap()
}

fn merger_source() -> &'static str {
    let families = reo::connectors::families();
    families.iter().find(|f| f.name == "merger").unwrap().source
}

/// One rendezvous, polled: the send parks, the receive completes both.
fn exchange(tx: &Outport<i64>, rx: &Inport<i64>, v: i64) {
    let mut cx = Context::from_waker(Waker::noop());
    let mut offer = Some(reo::automata::Value::Int(v));
    let sent = tx.poll_send(&mut cx, &mut offer).is_ready();
    let got = rx.poll_recv(&mut cx, &mut false);
    assert!(matches!(got, Poll::Ready(Ok(got)) if got == v), "{got:?}");
    assert!(sent || tx.poll_send(&mut cx, &mut offer).is_ready());
}

/// Park a receive on `rx` under a fresh flag.
fn park(rx: &Inport<i64>, registered: &mut bool) -> Arc<Flag> {
    let flag = Arc::new(Flag::default());
    let waker = Waker::from(Arc::clone(&flag));
    let polled = rx.poll_recv(&mut Context::from_waker(&waker), registered);
    assert!(polled.is_pending(), "{polled:?}");
    flag
}

fn resolves_hangup(rx: &Inport<i64>, flag: &Flag, what: &str) {
    assert!(flag.0.load(Ordering::SeqCst), "{what}: not woken");
    let polled = rx.poll_recv(&mut Context::from_waker(Waker::noop()), &mut true);
    let hung = matches!(polled, Poll::Ready(Err(RuntimeError::Hangup(_))));
    assert!(hung, "{what}: {polled:?}");
}

/// (i) Open, one value, drop every handle, drop the session: nobody ever
/// asks what the hangups killed, so nothing is walked — on every engine
/// that borders no link (a link end keeps the analysis eager: a neighbour
/// may be waiting).
#[test]
fn a_teardown_with_nobody_waiting_walks_nothing() {
    let relay = "Relay(tl[];hd[]) = prod (i:1..#tl) Sync(tl[i];m[i]) \
        mult prod (i:1..#tl) Fifo1(m[i];n[i]) mult prod (i:1..#tl) Sync(n[i];hd[i])";
    let buffers = "Buf(tl[];hd[]) = prod (i:1..#tl) Fifo1(tl[i];hd[i])";
    let cases = [
        (merger_source(), "MergerN", vec![("tl", 16)]),
        (buffers, "Buf", vec![("tl", 8), ("hd", 8)]),
        (relay, "Relay", vec![("tl", 4), ("hd", 4)]),
    ];
    for (source, def, sizes) in &cases {
        for &(name, mode) in Mode::grid() {
            let mut session = connect(source, def, mode, sizes);
            let handle = session.handle();
            let txs = session.typed_outports::<i64>("tl").unwrap();
            let rxs = session.typed_inports::<i64>("hd").unwrap();
            exchange(&txs[0], &rxs[0], 7);
            drop((txs, rxs));
            let links = handle.link_count();
            drop(session);
            let walks = handle.stats().hangup_walks;
            assert!(walks == 0 || links > 0, "{def} {name}: {walks} walks");
        }
    }
}

/// (ii) A receiver parked on the merger's head while the senders leave one
/// by one: each drop walks its own neighbourhood of the `Merg2` chain — at
/// most 4 n walks in all, where restarting from every departed port at
/// every drop is quadratic — and the last drop's own hold wakes the
/// receiver.
#[test]
fn senders_leaving_a_parked_receiver_walk_their_own_neighbourhood() {
    for n in [16, 32] {
        for &(name, mode) in Mode::grid() {
            let mut session = connect(merger_source(), "MergerN", mode, &[("tl", n)]);
            let handle = session.handle();
            let txs = session.typed_outports::<i64>("tl").unwrap();
            let rx = session.typed_inport::<i64>("hd").unwrap();
            let flag = park(&rx, &mut false);
            for (left, tx) in txs.into_iter().enumerate().rev() {
                assert!(!flag.0.load(Ordering::SeqCst), "{name}: woken early");
                drop(tx);
                let walks = handle.stats().hangup_walks;
                assert!(
                    walks >= (n - left) as u64,
                    "{name}: a parked waker, no walk"
                );
            }
            resolves_hangup(&rx, &flag, name);
            let walks = handle.stats().hangup_walks;
            assert!(walks <= 4 * n as u64, "{name} n={n}: {walks} walks");
        }
    }
}

/// (iii) Once a peer has left, every later exchange used to pay a full
/// analysis. Now it looks only at constituents its steps moved, and at a
/// (constituent, local state) pair once: the stateless merger walks
/// nothing more, `Twin` — a `Merg2` into a buffer, whose second sender is
/// gone — walks its two states and then nothing. The remaining sender's
/// drop still resolves the parked receiver.
#[test]
fn exchanges_after_a_peer_left_walk_each_local_state_once() {
    let twin = "Twin(tl[],c[];hd[]) = prod (i:1..#tl) Y(tl[i],c[i];hd[i]) \
        Y(a,c;b) = Merg2(a,c;x) mult Fifo1(x;b)";
    let cases = [
        (merger_source(), "MergerN", vec![("tl", 16)], None),
        (
            twin,
            "Twin",
            vec![("tl", 2), ("c", 2), ("hd", 2)],
            Some("c"),
        ),
    ];
    for (source, def, sizes, leaver) in &cases {
        for &(name, mode) in Mode::grid() {
            let mut session = connect(source, def, mode, sizes);
            let handle = session.handle();
            let mut txs = session.typed_outports::<i64>("tl").unwrap();
            let rx = session.typed_inports::<i64>("hd").unwrap().remove(0);
            match leaver {
                Some(param) => drop(session.typed_outports::<i64>(param).unwrap()),
                None => drop(txs.pop()),
            }
            let tx = txs.remove(0);
            for v in 0..8 {
                exchange(&tx, &rx, v);
            }
            let memoised = handle.stats().hangup_walks;
            for v in 0..1000 {
                exchange(&tx, &rx, v);
            }
            let walks = handle.stats().hangup_walks;
            assert_eq!(walks, memoised, "{def} {name}: walks in steady state");

            let flag = park(&rx, &mut false);
            drop(txs);
            assert!(!flag.0.load(Ordering::SeqCst), "{def} {name}: woken early");
            drop(tx);
            resolves_hangup(&rx, &flag, &format!("{def} {name}"));
        }
    }
}

/// (iv) A buffered value, then the drop: nobody is parked, so the drop
/// walks nothing; the value drains first and only then is the port dead.
#[test]
fn a_buffered_value_drains_before_the_unwalked_hangup_shows() {
    for &(name, mode) in Mode::grid() {
        let buffer = "Buf(a;b) = Fifo1(a;b)";
        let mut session = connect(buffer, "Buf", mode, &[]);
        let handle = session.handle();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        tx.send(42).unwrap();
        drop(tx);
        assert_eq!(handle.stats().hangup_walks, 0, "{name}: walked at the drop");
        assert_eq!(rx.try_recv().unwrap(), Some(42), "{name}");
        let empty = rx.try_recv();
        assert!(
            matches!(empty, Err(RuntimeError::Hangup(_))),
            "{name}: {empty:?}"
        );
        assert!(
            handle.stats().hangup_walks > 0,
            "{name}: dead without a walk"
        );
    }
}

/// (v) Teardown across links is linear. `Relay` is `Sync – Fifo1 – Sync`
/// per channel, cut at the fifo: one value, then every handle is dropped
/// with nobody parked. A drop takes its own hold and, where deadness
/// crosses the link, one hold per event — the head's `Offer` and the
/// tail's `Rearm` for the first end of a channel to go, nothing for the
/// second: two engine-lock holds per dropped handle, whatever `n` (a
/// fixpoint over every link after every drop made it `4 + n`).
#[test]
fn a_teardown_across_links_takes_a_constant_number_of_holds_per_handle() {
    let relay = "Relay(tl[];hd[]) = prod (i:1..#tl) Sync(tl[i];m[i]) \
        mult prod (i:1..#tl) Fifo1(m[i];n[i]) mult prod (i:1..#tl) Sync(n[i];hd[i])";
    for n in [16, 64] {
        for (name, mode) in Mode::grid_subset(&["part", "comp-part"]) {
            let mut session = connect(relay, "Relay", mode, &[("tl", n), ("hd", n)]);
            let handle = session.handle();
            assert_eq!(handle.link_count(), n, "{name}");
            let txs = session.typed_outports::<i64>("tl").unwrap();
            let rxs = session.typed_inports::<i64>("hd").unwrap();
            exchange(&txs[0], &rxs[0], 7);
            let before = handle.stats().lock_acquisitions;
            drop((txs, rxs));
            // Reading the counters takes every engine's lock once more.
            let stats = handle.region_count() as u64;
            let holds = handle.stats().lock_acquisitions - before - stats;
            let handles = 2 * n as u64;
            println!("{name} n={n}: {holds} holds for {handles} handles");
            assert!(holds <= 3 * handles, "{name} n={n}: {holds} holds");
        }
    }
}
