//! Semantics of the typed, non-blocking session API: fallible port
//! acquisition, try/timeout operations, atomic retraction (no loss, no
//! duplication), closed- and poisoned-engine behaviour.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};

use reo::runtime::{Connector, Limits, Mode};
use reo::{select2, select_slice, Either, RuntimeError, Value};

/// A waker that records it fired — for polling port futures by hand.
struct FlagWaker(AtomicBool);

impl FlagWaker {
    fn new() -> (Arc<Self>, Waker) {
        let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        (flag, waker)
    }

    fn woken(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Consume a wake: true iff the waker fired since the last take.
    fn take(&self) -> bool {
        self.0.swap(false, Ordering::SeqCst)
    }
}

impl std::task::Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn fifo_session() -> reo::Session {
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    let connector = Connector::builder(&program, "Buf").build().unwrap();
    connector.session().connect().unwrap()
}

#[test]
fn unknown_and_taken_params_are_typed_errors_not_panics() {
    let mut session = fifo_session();
    // Wrong name.
    assert!(matches!(
        session.outports("nope"),
        Err(RuntimeError::UnknownParam { name }) if name == "nope"
    ));
    // Right name, wrong direction.
    assert!(matches!(
        session.inports("a"),
        Err(RuntimeError::UnknownParam { .. })
    ));
    // First take succeeds, second reports AlreadyTaken.
    assert!(session.outports("a").is_ok());
    assert!(matches!(
        session.outports("a"),
        Err(RuntimeError::AlreadyTaken { name }) if name == "a"
    ));
    // Scalar accessor on an array parameter reports NotScalar.
    let program =
        reo::dsl::parse_program("Arr(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])").unwrap();
    let connector = Connector::builder(&program, "Arr").build().unwrap();
    let mut session = connector
        .session()
        .replicate("a", 2)
        .replicate("b", 2)
        .connect()
        .unwrap();
    assert!(matches!(
        session.outport("a"),
        Err(RuntimeError::NotScalar { len: 2, .. })
    ));
    // The NotScalar refusal must not consume the handles: the array
    // accessor still works afterwards.
    assert_eq!(session.outports("a").unwrap().len(), 2);
}

#[test]
fn recv_timeout_expires_within_twice_the_deadline_under_contention() {
    let program =
        reo::dsl::parse_program("Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])").unwrap();
    let connector = Connector::builder(&program, "Buf").build().unwrap();
    let mut session = connector
        .session()
        .replicate("a", 2)
        .replicate("b", 2)
        .connect()
        .unwrap();
    let mut txs = session.typed_outports::<i64>("a").unwrap();
    let mut rxs = session.typed_inports::<i64>("b").unwrap();
    // `pop()` takes the *last* element: the timed receive sits on the
    // a[2]→b[2] fifo (whose outport `_tx_idle` never sends), while the
    // a[1]→b[1] fifo is the hammered noise channel.
    let (_tx_idle, tx_noise) = (txs.pop().unwrap(), txs.pop().unwrap());
    let (rx_timed, rx_noise) = (rxs.pop().unwrap(), rxs.pop().unwrap());

    // Contention: two threads hammer the *other* fifo pair, churning the
    // shared engine lock while the timed receive waits.
    let stop = Arc::new(AtomicBool::new(false));
    let mut noise = Vec::new();
    {
        let stop = Arc::clone(&stop);
        noise.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if tx_noise.try_send(1).is_err() {
                    break;
                }
            }
        }));
    }
    {
        let stop = Arc::clone(&stop);
        noise.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if rx_noise.try_recv().is_err() {
                    break;
                }
            }
        }));
    }

    // Generous deadline: the ISSUE's bound is *2× the deadline*, so a
    // larger deadline means more absolute slack for scheduler noise on
    // oversubscribed CI runners without weakening the 2× guarantee.
    let deadline = Duration::from_millis(400);
    let start = Instant::now();
    let result = rx_timed.recv_timeout(deadline);
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    for t in noise {
        t.join().unwrap();
    }
    assert!(matches!(result, Err(RuntimeError::Timeout)), "{result:?}");
    assert!(
        elapsed >= deadline - Duration::from_millis(5) && elapsed < deadline * 2,
        "recv_timeout took {elapsed:?} against a {deadline:?} deadline"
    );
}

/// The ISSUE's core retraction guarantee: a timed-out send was never
/// accepted, so re-sending the same value can neither lose nor duplicate a
/// message — demonstrated across ≥ 1000 contended iterations, in both the
/// single-engine and the partitioned backend.
#[test]
fn timed_out_sends_retract_cleanly_with_no_loss_or_duplication() {
    for mode in [Mode::jit(), Mode::partitioned()] {
        let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();

        // Deterministic retraction first: fill the fifo1, then a second
        // send must time out (no receiver), and the port must stay usable.
        tx.send(-2).unwrap();
        assert!(matches!(
            tx.send_timeout(-1, Duration::from_millis(5)),
            Err(RuntimeError::Timeout)
        ));
        assert_eq!(rx.recv().unwrap(), -2, "retracted send must not leak");

        const N: i64 = 1000;
        let timeouts = Arc::new(AtomicU64::new(0));
        let sender_timeouts = Arc::clone(&timeouts);
        let sender = thread::spawn(move || {
            for k in 0..N {
                // Retry the same value until the connector accepts it; a
                // Timeout means the send was retracted and k is re-sendable.
                loop {
                    match tx.send_timeout(k, Duration::from_micros(300)) {
                        Ok(()) => break,
                        Err(RuntimeError::Timeout) => {
                            sender_timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("send {k}: {e}"),
                    }
                }
            }
        });
        let receiver = thread::spawn(move || {
            let mut got = Vec::with_capacity(N as usize);
            while got.len() < N as usize {
                // The receiving side retracts under contention too.
                match rx.recv_timeout(Duration::from_micros(300)) {
                    Ok(v) => got.push(v),
                    Err(RuntimeError::Timeout) => continue,
                    Err(e) => panic!("recv: {e}"),
                }
                // Periodically stall so the buffer fills and sends expire.
                if got.len() % 100 == 0 {
                    thread::sleep(Duration::from_millis(1));
                }
            }
            got
        });
        sender.join().unwrap();
        let got = receiver.join().unwrap();
        let expected: Vec<i64> = (0..N).collect();
        assert_eq!(got, expected, "{mode:?}: lost or duplicated messages");
        // The deterministic pre-check above already proved a retraction;
        // the counter just shows the loop was genuinely contended.
        eprintln!(
            "{mode:?}: {} sender timeouts across {N} deliveries",
            timeouts.load(Ordering::Relaxed)
        );
    }
}

/// The futures edition of the retraction stress above: dropping a pending
/// `SendFuture`/`RecvFuture` retracts the registered operation atomically.
/// A cancelled send was either never accepted (retracted — nothing enters
/// the stream) or had already committed (delivered exactly once — the drop
/// merely acknowledges); a cancelled recv never swallows a raced delivery.
/// So with one producer driving every value through a future, the observed
/// stream must stay strictly increasing, and every *driven-to-completion*
/// value must appear exactly once.
#[test]
fn dropped_pending_futures_retract_atomically_with_no_loss_or_duplication() {
    for mode in [Mode::jit(), Mode::partitioned()] {
        let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();

        // Deterministic retraction first. A cancelled recv leaves nothing
        // armed on the port:
        {
            let (_, waker) = FlagWaker::new();
            let mut cx = Context::from_waker(&waker);
            let mut fut = rx.recv_async();
            assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        } // drop retracts the registered recv
        tx.send(-3).unwrap();
        assert_eq!(rx.recv().unwrap(), -3, "{mode:?}: cancelled recv leaked");
        // A cancelled send behind a full buffer was never accepted:
        tx.send(-2).unwrap();
        {
            let (_, waker) = FlagWaker::new();
            let mut cx = Context::from_waker(&waker);
            let mut fut = tx.send_async(-1);
            assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        } // drop retracts: -1 was never accepted
        assert_eq!(rx.recv().unwrap(), -2);
        assert_eq!(
            rx.try_recv().unwrap(),
            None,
            "{mode:?}: retracted -1 leaked"
        );

        // Contended: even values are polled to completion (waiting on the
        // parked waker — a targeted wake, not a spin); odd values are
        // dropped mid-flight whenever the first poll does not accept them.
        const N: i64 = 1000; // 2N values attempted
        let cancelled = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let producer_cancelled = Arc::clone(&cancelled);
        let producer_done = Arc::clone(&done);
        let producer = thread::spawn(move || {
            for k in 0..2 * N {
                let (flag, waker) = FlagWaker::new();
                let mut cx = Context::from_waker(&waker);
                let mut fut = tx.send_async(k);
                loop {
                    match Pin::new(&mut fut).poll(&mut cx) {
                        Poll::Ready(r) => {
                            r.unwrap();
                            break;
                        }
                        Poll::Pending if k % 2 == 1 => {
                            // In flight and not yet accepted: cancel it.
                            producer_cancelled.fetch_add(1, Ordering::Relaxed);
                            break; // drop(fut) retracts (or acknowledges)
                        }
                        Poll::Pending => {
                            while !flag.take() {
                                thread::yield_now();
                            }
                        }
                    }
                }
            }
            producer_done.store(true, Ordering::SeqCst);
        });
        let receiver = thread::spawn(move || {
            let mut got = Vec::with_capacity(2 * N as usize);
            loop {
                match rx.recv_timeout(Duration::from_millis(10)) {
                    Ok(v) => {
                        got.push(v);
                        // Periodic stalls fill the buffer so odd sends
                        // genuinely go pending and get cancelled.
                        if got.len() % 100 == 0 {
                            thread::sleep(Duration::from_millis(1));
                        }
                    }
                    Err(RuntimeError::Timeout) => {
                        if done.load(Ordering::SeqCst) {
                            // Producer finished: one final synchronous drain.
                            while let Some(v) = rx.try_recv().unwrap() {
                                got.push(v);
                            }
                            break;
                        }
                    }
                    // The producer dropped its port: hangup-on-drop. The
                    // port only goes dead once the fifo is fully drained
                    // (a buffered value keeps the drain transition live),
                    // so this is a clean end-of-stream.
                    Err(RuntimeError::Hangup(_)) => break,
                    Err(e) => panic!("recv: {e}"),
                }
            }
            got
        });
        producer.join().unwrap();
        let got = receiver.join().unwrap();
        // One producer, one fifo: whatever entered the stream entered in
        // send order, so any loss, duplication or reordering breaks this.
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "{mode:?}: stream not strictly increasing — duplicated or reordered"
        );
        let evens: Vec<i64> = got.iter().copied().filter(|v| v % 2 == 0).collect();
        let expected: Vec<i64> = (0..2 * N).filter(|v| v % 2 == 0).collect();
        assert_eq!(evens, expected, "{mode:?}: a completed send was lost");
        assert!(
            got.iter().all(|&v| (0..2 * N).contains(&v)),
            "{mode:?}: value from nowhere"
        );
        // The deterministic pre-check proved retraction; the counter shows
        // the loop was genuinely contended.
        eprintln!(
            "{mode:?}: {} cancelled sends, {} of {N} odd values still delivered",
            cancelled.load(Ordering::Relaxed),
            got.len() as i64 - N,
        );
    }
}

/// A connect is timed once, in three phases — instantiation, the regions
/// (plan, renaming, cores, engines) and the first pump of the links —:
/// each phase where work happened took time, and together they took no
/// more than the connect did. Over the relay, in every mode.
#[test]
fn a_connect_reports_its_three_phases() {
    let family = reo::connectors::relay_family();
    let program = family.program();
    for &(label, mode) in Mode::grid() {
        let connector = Connector::builder(&program, family.def)
            .mode(mode)
            .build()
            .unwrap();
        let spec = connector.session().replicate_all(&(family.sizes)(4));
        let start = Instant::now();
        let session = spec.connect().unwrap();
        let wall = start.elapsed();
        let handle = session.handle();
        let [instantiate, regions, pump] = handle.connect_phases();
        assert!(!instantiate.is_zero() && !regions.is_zero(), "{label}");
        assert!(handle.link_count() == 0 || !pump.is_zero(), "{label}");
        assert!(instantiate + regions + pump <= wall, "{label}");
        assert_eq!(handle.connect_phases(), [instantiate, regions, pump]);
    }
}

#[test]
fn try_recv_on_closed_connector_returns_closed_not_a_hang() {
    let mut session = fifo_session();
    let tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();
    session.handle().close();
    assert!(matches!(rx.try_recv(), Err(RuntimeError::Closed)));
    assert!(matches!(tx.try_send(1), Err(RuntimeError::Closed)));
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(10)),
        Err(RuntimeError::Closed)
    ));
}

/// A port that no constituent wires is served by no engine, so every call
/// on it answers [`RuntimeError::Detached`] at once — in every mode, fixed
/// or reconfigurable — not a timeout, an empty probe or a hang.
#[test]
fn an_unwired_port_answers_detached_at_once_in_every_mode() {
    let program = reo::dsl::parse_program("Oops(a,a2;b1,b2) = Sync(a;b1)").unwrap();
    let patience = Duration::from_secs(2);
    for &(label, mode) in Mode::grid() {
        for reconfigurable in [false, true] {
            let connector = Connector::builder(&program, "Oops")
                .mode(mode)
                .build()
                .unwrap();
            let spec = connector.session();
            let spec = if reconfigurable {
                spec.reconfigurable()
            } else {
                spec
            };
            let mut session = spec.connect().unwrap();
            let tx = session.typed_outport::<i64>("a2").unwrap();
            let rx = session.typed_inport::<i64>("b2").unwrap();
            let at = format!("{label}, reconfigurable: {reconfigurable}");
            let (out, inp) = (tx.id(), rx.id());
            let start = Instant::now();
            let detached = |r: Result<(), RuntimeError>, p| match r {
                Err(RuntimeError::Detached(q)) if q == p => {}
                other => panic!("{at}: {other:?} on port {p}"),
            };
            detached(rx.recv_timeout(patience).map(drop), inp);
            detached(rx.try_recv().map(drop), inp);
            detached(tx.try_send(1).map(drop), out);
            detached(tx.send_timeout(1, patience), out);
            assert!(start.elapsed() < patience, "{at}: waited for a deadline");
            let shown = RuntimeError::Detached(inp).to_string();
            assert!(shown.contains("not served by this session"), "{shown}");
            session.handle().close();
        }
    }
}

/// The async sibling of the test above: `close()` must wake the wakers
/// *tasks* parked as well as those of blocked threads, and a pending
/// future polled after the close resolves to [`RuntimeError::Closed`]
/// instead of parking forever on a connector that will never step again.
#[test]
fn close_wakes_parked_future_wakers_which_resolve_to_closed() {
    // Two disjoint fifos so both directions park at once: a receive on an
    // empty buffer and a send behind a full one.
    let program =
        reo::dsl::parse_program("Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])").unwrap();
    let connector = Connector::builder(&program, "Buf").build().unwrap();
    let mut session = connector
        .session()
        .replicate("a", 2)
        .replicate("b", 2)
        .connect()
        .unwrap();
    let mut txs = session.typed_outports::<i64>("a").unwrap();
    let mut rxs = session.typed_inports::<i64>("b").unwrap();
    // `pop()` takes the last element: the a[2]→b[2] fifo is filled so its
    // sender parks; the a[1]→b[1] fifo stays empty so its receiver parks.
    let (tx_full, _tx_empty) = (txs.pop().unwrap(), txs.pop().unwrap());
    let (_rx_full, rx_empty) = (rxs.pop().unwrap(), rxs.pop().unwrap());
    let handle = session.handle();

    let (recv_flag, recv_waker) = FlagWaker::new();
    let mut recv_cx = Context::from_waker(&recv_waker);
    let mut recv = rx_empty.recv_async();
    assert!(Pin::new(&mut recv).poll(&mut recv_cx).is_pending());

    tx_full.send(0).unwrap();
    let (send_flag, send_waker) = FlagWaker::new();
    let mut send_cx = Context::from_waker(&send_waker);
    let mut send = tx_full.send_async(1);
    assert!(Pin::new(&mut send).poll(&mut send_cx).is_pending());

    assert!(!recv_flag.woken() && !send_flag.woken());
    handle.close();
    assert!(recv_flag.woken(), "close left a parked recv waker asleep");
    assert!(send_flag.woken(), "close left a parked send waker asleep");
    assert!(matches!(
        Pin::new(&mut recv).poll(&mut recv_cx),
        Poll::Ready(Err(RuntimeError::Closed))
    ));
    assert!(matches!(
        Pin::new(&mut send).poll(&mut send_cx),
        Poll::Ready(Err(RuntimeError::Closed))
    ));
}

#[test]
fn poisoned_engine_surfaces_through_typed_ops() {
    // An expansion budget of zero poisons the JIT engine on the very first
    // firing attempt; every subsequent typed operation must report it.
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    let connector = Connector::builder(&program, "Buf")
        .mode(Mode::jit())
        .limits(Limits {
            expansion_budget: 0,
            ..Limits::default()
        })
        .build()
        .unwrap();
    let mut session = connector.session().connect().unwrap();
    let tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();
    assert!(matches!(tx.send(1), Err(RuntimeError::Poisoned(_))));
    assert!(matches!(rx.try_recv(), Err(RuntimeError::Poisoned(_))));
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RuntimeError::Poisoned(_))
    ));
}

#[test]
fn typed_mismatch_reports_the_value_and_keeps_the_port_usable() {
    let mut session = fifo_session();
    let tx = session.outport("a").unwrap(); // untyped sender
    let rx = session.typed_inport::<i64>("b").unwrap();
    tx.send(Value::str("oops")).unwrap();
    match rx.recv() {
        Err(RuntimeError::TypeMismatch { expected, found }) => {
            assert_eq!(expected, "int");
            assert!(matches!(&found, Value::Str(s) if &**s == "oops"));
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
    // The port (and connector) survive the mismatch.
    tx.send(Value::Int(9)).unwrap();
    assert_eq!(rx.recv().unwrap(), 9);
}

#[test]
fn inport_iteration_drains_until_close() {
    let mut session = fifo_session();
    let tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();
    let handle = session.handle();
    let producer = thread::spawn(move || {
        for k in 0..5 {
            tx.send(k).unwrap();
        }
    });
    let consumer = thread::spawn(move || rx.iter().take(5).collect::<Vec<i64>>());
    producer.join().unwrap();
    let got = consumer.join().unwrap();
    assert_eq!(got, vec![0, 1, 2, 3, 4]);
    handle.close();
}

#[test]
fn iteration_ending_on_type_mismatch_keeps_the_value_recoverable() {
    let mut session = fifo_session();
    let tx = session.outport("a").unwrap(); // untyped sender
    let rx = session.typed_inport::<i64>("b").unwrap();
    tx.send(Value::Int(1)).unwrap();
    let mut iter = rx.iter();
    assert_eq!(iter.next(), Some(1));
    tx.send(Value::str("poison pill")).unwrap();
    // Iteration ends on the mismatch, but — unlike a clean close — the
    // terminating error (and the consumed value inside it) is retained.
    assert_eq!(iter.next(), None);
    match iter.take_error() {
        Some(RuntimeError::TypeMismatch { found, .. }) => {
            assert!(matches!(&found, Value::Str(s) if &**s == "poison pill"));
        }
        other => panic!("expected retained TypeMismatch, got {other:?}"),
    }
    session.handle().close();
}

#[test]
fn try_send_accepts_into_buffer_and_retracts_when_full() {
    let mut session = fifo_session();
    let tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();
    assert!(tx.try_send(1).unwrap(), "empty fifo1 accepts immediately");
    assert!(
        !tx.try_send(2).unwrap(),
        "full fifo1 would block: retracted"
    );
    assert_eq!(rx.try_recv().unwrap(), Some(1));
    assert_eq!(rx.try_recv().unwrap(), None, "drained: nothing to take");
    // The retracted 2 was never accepted; the buffer now takes it fresh.
    assert!(tx.try_send(2).unwrap());
    assert_eq!(rx.recv().unwrap(), 2);
}

/// A one-shot `try_recv` must observe a value already queued in a
/// cross-region link — in both partitioned runtimes: a probe gets no
/// second chance, so the try paths pump the links inline before they
/// retract.
#[test]
fn one_shot_try_recv_sees_cross_region_value_in_both_partitioned_modes() {
    // Each constituent in its own iteration section, so the fifo is a
    // genuine cut link between two regions (a single-section program
    // composes into one region and would test nothing cross-region).
    let src = "P(a;b) = prod (i:1..1) Sync(a;m) \
               mult prod (i:1..1) Fifo1(m;n) \
               mult prod (i:1..1) Sync(n;b)";
    for mode in [Mode::partitioned(), Mode::compiled_partitioned()] {
        let program = reo::dsl::parse_program(src).unwrap();
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        assert_eq!(session.handle().link_count(), 1, "{mode:?}");
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        // The send crosses into the link queue (the link's recv side is
        // armed at connect time); no receiver exists yet.
        tx.send(42).unwrap();
        // A single probe must deliver it end to end across the link.
        assert_eq!(
            rx.try_recv().unwrap(),
            Some(42),
            "{mode:?}: one-shot probe missed a queued cross-region value"
        );
    }
}

/// `select2`/`select_slice`: first ready wins, losers retract. The losing
/// contender's registered operation must vanish (the port stays reusable
/// and no half-armed recv swallows the next value), and a select parked
/// on all-empty ports must resolve via a targeted waker when one fires.
#[test]
fn select_takes_the_ready_port_and_losers_retract_without_loss() {
    let program =
        reo::dsl::parse_program("Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])").unwrap();
    let connector = Connector::builder(&program, "Buf")
        .mode(Mode::jit())
        .build()
        .unwrap();
    let mut session = connector
        .session()
        .replicate("a", 4)
        .replicate("b", 4)
        .connect()
        .unwrap();
    let txs = session.typed_outports::<i64>("a").unwrap();
    let rxs = session.typed_inports::<i64>("b").unwrap();

    // Only fifo 1 holds a value: the race resolves Right and the losing
    // receive on fifo 0 retracts.
    txs[1].send(7).unwrap();
    let won = reo::exec::block_on(select2(rxs[0].recv_async(), rxs[1].recv_async()));
    assert!(matches!(won, Either::Right(Ok(7))), "{won:?}");
    // No half-armed op left behind: fifo 0 still hands its next value to
    // a plain one-shot probe.
    txs[0].send(8).unwrap();
    assert_eq!(rxs[0].try_recv().unwrap(), Some(8));

    // Both ready: deterministically Left, and the loser's value is not
    // consumed by the dropped future — it stays for the next receive.
    txs[0].send(1).unwrap();
    txs[1].send(2).unwrap();
    let won = reo::exec::block_on(select2(rxs[0].recv_async(), rxs[1].recv_async()));
    assert!(matches!(won, Either::Left(Ok(1))), "{won:?}");
    assert_eq!(rxs[1].recv().unwrap(), 2, "losing port lost its value");

    // select_slice over all four ports, parked on all-empty buffers: a
    // late send on port 2 wakes exactly that contender; the three losers
    // retract and stay reusable.
    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(20));
        txs[2].send(42).unwrap();
        txs
    });
    let (idx, out) =
        reo::exec::block_on(select_slice(rxs.iter().map(|rx| rx.recv_async()).collect()));
    let txs = sender.join().unwrap();
    assert_eq!(idx, 2);
    assert_eq!(out.unwrap(), 42);
    // Every loser retracted: each port still does a clean round-trip.
    for (i, (tx, rx)) in txs.iter().zip(&rxs).enumerate() {
        tx.send(100 + i as i64).unwrap();
        assert_eq!(
            rx.recv().unwrap(),
            100 + i as i64,
            "port {i} left half-armed by a lost select"
        );
    }
}

/// Regression for the targeted-probe race: with a *chain* of two links
/// (A –l1– M –l2– B), a value can sit on the upstream link l1, where a
/// cascade started from B's region never reaches it (l2 makes no
/// progress, so the cascade stops). The probe must therefore sweep the
/// whole link set synchronously — a one-shot `try_recv` at the far end
/// has to pull the value across *both* links.
#[test]
fn one_shot_try_recv_crosses_a_two_link_chain() {
    let src = "P(a;b) = prod (i:1..1) Sync(a;m) \
               mult prod (i:1..1) Fifo1(m;n) \
               mult prod (i:1..1) Sync(n;o) \
               mult prod (i:1..1) Fifo1(o;p) \
               mult prod (i:1..1) Sync(p;b)";
    for mode in [Mode::partitioned(), Mode::compiled_partitioned()] {
        let program = reo::dsl::parse_program(src).unwrap();
        let connector = Connector::builder(&program, "P")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        assert_eq!(session.handle().link_count(), 2, "{mode:?}");
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        tx.send(7).unwrap();
        assert_eq!(
            rx.try_recv().unwrap(),
            Some(7),
            "{mode:?}: one-shot probe lost a value parked on an upstream link"
        );
    }
}

/// Regression (found by the differential fuzzer, shape `churn-merger`):
/// a delivery parked for a *live* pending receiver must not be absorbed
/// by a second registration on the same port. `abandon_recv` parks the
/// delivery of a cancelled future for its successor, and the takeover
/// path used to treat *any* parked delivery as abandoned — a rival
/// receiver could steal the value and leave the original waiter blocked
/// on an empty slot (an `unreachable!` at timeout expiry).
#[test]
fn parked_delivery_belongs_to_the_live_receiver_not_a_late_rival() {
    let mut session = fifo_session();
    let tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();

    // A registers a receive and blocks (buffer empty).
    let (flag, waker) = FlagWaker::new();
    let mut cx = Context::from_waker(&waker);
    let mut fut_a = rx.recv_async();
    assert!(Pin::new(&mut fut_a).poll(&mut cx).is_pending());

    // The send lets the fifo drain: the value parks on `b` for A, and
    // A's waker fires.
    tx.send(41).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !flag.woken() && Instant::now() < deadline {
        thread::yield_now();
    }
    assert!(flag.woken(), "delivery never woke the registered receiver");

    // Rivals arriving before A re-polls are refused, not served.
    assert!(matches!(rx.try_recv(), Err(RuntimeError::PortBusy(_))));
    {
        let (_, rival_waker) = FlagWaker::new();
        let mut rival_cx = Context::from_waker(&rival_waker);
        let mut fut_b = rx.recv_async();
        match Pin::new(&mut fut_b).poll(&mut rival_cx) {
            Poll::Ready(Err(RuntimeError::PortBusy(_))) => {}
            other => panic!("rival recv was not refused: {other:?}"),
        }
    }

    // A still receives its value.
    match Pin::new(&mut fut_a).poll(&mut cx) {
        Poll::Ready(Ok(v)) => assert_eq!(v, 41),
        other => panic!("owner lost its parked delivery: {other:?}"),
    }

    // The abandoned-delivery path still works: when the *owner* of a
    // parked delivery is dropped, the next receiver absorbs the value
    // instead of deadlocking.
    let (flag_c, waker_c) = FlagWaker::new();
    let mut cx_c = Context::from_waker(&waker_c);
    let mut fut_c = rx.recv_async();
    assert!(Pin::new(&mut fut_c).poll(&mut cx_c).is_pending());
    tx.send(42).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !flag_c.woken() && Instant::now() < deadline {
        thread::yield_now();
    }
    assert!(
        flag_c.woken(),
        "delivery never parked for the cancelled future"
    );
    drop(fut_c); // abandons the parked delivery mid-flight
    assert_eq!(rx.recv().unwrap(), 42, "abandoned delivery was lost");
}

/// Regression: re-typing a port handle must *move* its backend reference,
/// not clone it past a `ManuallyDrop` — every `typed_outport` /
/// `typed_inport` used to leak one reference, so no session that took a
/// typed port ever freed its engine(s).
#[test]
fn sessions_with_typed_ports_free_their_engines_when_dropped() {
    for mode in [Mode::jit(), Mode::partitioned()] {
        let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap().untyped();
        let probe = session.handle().backend_probe();
        tx.send(3).unwrap();
        assert_eq!(rx.recv().unwrap().as_int(), Some(3));
        assert!(probe.upgrade().is_some(), "{mode:?}: engine alive in use");
        drop((tx, rx, session));
        assert!(
            probe.upgrade().is_none(),
            "{mode:?}: engine leaked past its last port and handle"
        );
    }
}

/// A fleet of async sessions on a two-thread executor: every session's
/// stream arrives whole and in order, and a parked future is woken when
/// its operation completed, not re-polled until it does — summed over the
/// fleet, at most two waker wakes per completion.
#[test]
fn async_fleet_delivers_in_order_with_targeted_wakes() {
    const SESSIONS: u64 = 64;
    const VALUES: i64 = 2;
    let exec = reo::exec::Executor::new(2);
    let mut handles = Vec::new();
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..SESSIONS {
        let mut session = fifo_session();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        handles.push(session.handle());
        producers.push(exec.spawn(async move {
            for v in 0..VALUES {
                tx.send_async(v).await.unwrap();
            }
        }));
        consumers.push(exec.spawn(async move {
            let mut got = Vec::new();
            for _ in 0..VALUES {
                got.push(rx.recv_async().await.unwrap());
            }
            got
        }));
    }

    // A lost wake-up or a lost value parks a task for good: fail, don't
    // hang.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(producers.iter().all(|j| j.is_finished()) && consumers.iter().all(|j| j.is_finished()))
    {
        assert!(Instant::now() < deadline, "the fleet stalled");
        thread::sleep(Duration::from_millis(1));
    }
    for j in producers {
        j.join().unwrap();
    }
    for j in consumers {
        assert_eq!(j.join().unwrap(), (0..VALUES).collect::<Vec<_>>());
    }

    let (mut completions, mut waker_wakes) = (0, 0);
    for h in &handles {
        let stats = h.stats();
        completions += stats.completions;
        waker_wakes += stats.waker_wakes;
    }
    assert_eq!(
        completions,
        2 * SESSIONS * VALUES as u64,
        "one send and one receive complete per value"
    );
    assert!(
        waker_wakes <= 2 * completions,
        "waker storm: {waker_wakes} wakes for {completions} completions"
    );
}
