//! Fault containment end to end: panics injected into firings poison the
//! engine(s) and wake every parked waiter, dropped ports hang up their
//! peers, poison fans out across regions and reconfiguration splices, and
//! the opt-in watchdog turns silent stalls into wait-for snapshots — all
//! across the full runtime-mode grid (`Mode::grid()`: fault containment
//! is a per-backend property — one engine or one per region, rows filled
//! lazily or at `connect`, and in the partitioned modes the link events
//! that carry a fault to the other regions).
//!
//! The containment contract under test: **no fault strands an
//! operation**. Whatever goes wrong — a panicked firing, a vanished
//! producer, a scripted poison — every parked sync waiter and every
//! stored async waker resolves to a *typed* error (`Poisoned`, `Hangup`,
//! `Closed`, `Stalled`) instead of blocking forever or tearing the
//! process down.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};

use reo::runtime::{Connector, Mode, ParkedKind};
use reo::RuntimeError;

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
}

impl std::task::Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Wait for `cond` with a bound: containment must *wake* parked parties,
/// not leave them to be rescued by their own deadlines.
fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        thread::yield_now();
    }
    cond()
}

/// A panic injected into a firing poisons the engine and resolves every
/// parked party — the blocking sender whose firing blew up, a sync
/// receiver parked on a *different* fifo (a different region under the
/// partitioned modes: poison must fan out), and a stored async waker —
/// to `Poisoned`, in every mode. The process survives throughout: the
/// panic never escapes the containment boundary.
#[test]
fn injected_panic_poisons_all_regions_and_wakes_parked_waiters() {
    let program =
        reo::dsl::parse_program("Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])").unwrap();
    for &(_, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector
            .session()
            .replicate("a", 2)
            .replicate("b", 2)
            .connect()
            .unwrap();
        let mut txs = session.typed_outports::<i64>("a").unwrap();
        let mut rxs = session.typed_inports::<i64>("b").unwrap();
        let (tx_boom, _tx_idle) = (txs.pop().unwrap(), txs.pop().unwrap());
        let (_rx_boom, rx_parked) = (rxs.pop().unwrap(), rxs.pop().unwrap());
        let handle = session.handle();

        // Park a sync receiver on the fifo that will *not* see the panic
        // directly: only the poison fan-out can resolve it.
        let waiter = thread::spawn(move || rx_parked.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));

        // Both fifos are empty and the receiver is parked: the next fired
        // step is exactly the armed fill firing.
        handle.arm_panic_after_steps(0);
        let sent = tx_boom.send(7);
        // The injected panic strikes *after* the step commits, so the
        // triggering send either completed just-in-time or observed the
        // poison — both are inside the containment contract.
        assert!(
            matches!(sent, Ok(()) | Err(RuntimeError::Poisoned(_))),
            "{mode:?}: the panicked firing's own send resolved {sent:?}"
        );

        let got = waiter.join().expect("waiter thread must not die");
        assert!(
            matches!(got, Err(RuntimeError::Poisoned(_))),
            "{mode:?}: cross-region parked recv resolved {got:?}, not Poisoned"
        );
        let msg = handle.poison_message().unwrap_or_default();
        assert!(
            msg.contains("panic"),
            "{mode:?}: poison message does not name the panic: {msg:?}"
        );

        // A waker stored *after* the poison must still fire immediately:
        // the future observes the poisoned engine at first poll.
        let (_flag, waker) = FlagWaker::new();
        let mut cx = Context::from_waker(&waker);
        let mut recv = _rx_boom.recv_async();
        assert!(
            matches!(
                Pin::new(&mut recv).poll(&mut cx),
                Poll::Ready(Err(RuntimeError::Poisoned(_)))
            ),
            "{mode:?}: post-poison async recv did not resolve Poisoned"
        );
        assert!(matches!(
            tx_boom.try_send(8),
            Err(RuntimeError::Poisoned(_))
        ));
    }
}

/// A stored async waker parked *before* the fault must be woken by the
/// poison fan-out — not discovered stale at some later poll.
#[test]
fn injected_panic_wakes_a_parked_async_waker() {
    let program =
        reo::dsl::parse_program("Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])").unwrap();
    for &(_, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector
            .session()
            .replicate("a", 2)
            .replicate("b", 2)
            .connect()
            .unwrap();
        let mut txs = session.typed_outports::<i64>("a").unwrap();
        let mut rxs = session.typed_inports::<i64>("b").unwrap();
        let (tx_boom, _tx_idle) = (txs.pop().unwrap(), txs.pop().unwrap());
        let (_rx_boom, rx_parked) = (rxs.pop().unwrap(), rxs.pop().unwrap());

        let (flag, waker) = FlagWaker::new();
        let mut cx = Context::from_waker(&waker);
        let mut recv = rx_parked.recv_async();
        assert!(Pin::new(&mut recv).poll(&mut cx).is_pending());
        assert!(!flag.woken());

        session.handle().arm_panic_after_steps(0);
        let _ = tx_boom.send(7);

        assert!(
            eventually(Duration::from_secs(2), || flag.woken()),
            "{mode:?}: poison fan-out left the parked waker asleep"
        );
        assert!(
            matches!(
                Pin::new(&mut recv).poll(&mut cx),
                Poll::Ready(Err(RuntimeError::Poisoned(_)))
            ),
            "{mode:?}: woken future did not resolve Poisoned"
        );
    }
}

/// Hangup-on-drop, rendezvous flavour: a `Sync` channel receiver is
/// parked mid-rendezvous when its only possible partner drops. Every
/// transition through the receiver's port is now dead; the park must
/// resolve `Hangup`, not ride out its 5 s deadline.
#[test]
fn dropping_a_rendezvous_partner_resolves_parked_recv_to_hangup() {
    let program = reo::dsl::parse_program("S(a;b) = Sync(a;b)").unwrap();
    for &(_, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "S")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        let started = Instant::now();
        let waiter = thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        drop(tx);
        let got = waiter.join().unwrap();
        assert!(
            matches!(got, Err(RuntimeError::Hangup(_))),
            "{mode:?}: parked rendezvous recv resolved {got:?}, not Hangup"
        );
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "{mode:?}: hangup was rescued by the deadline, not the drop"
        );
    }
}

/// Hangup-on-drop across internal vertices: the `merger` family chains
/// `Merg2`s through internal nodes `m[i]`, so the head port only dies
/// once deadness has crossed every one of them. With all eight senders
/// gone, the parked receive must resolve `Hangup` well inside its
/// deadline in every mode — the lazy cores analyze per constituent and
/// have to iterate to a fixpoint to see it.
#[test]
fn dropping_every_merger_sender_hangs_up_the_parked_head() {
    let family = reo::connectors::families()
        .into_iter()
        .find(|f| f.name == "merger")
        .expect("merger family");
    let program = family.program();
    for &(name, mode) in Mode::grid() {
        let connector = Connector::builder(&program, family.def)
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().replicate("tl", 8).connect().unwrap();
        let txs = session.typed_outports::<i64>("tl").unwrap();
        let rx = session.typed_inport::<i64>("hd").unwrap();
        let waiter = thread::spawn(move || {
            let started = Instant::now();
            (rx.recv_timeout(Duration::from_secs(5)), started.elapsed())
        });
        thread::sleep(Duration::from_millis(10));
        drop(txs);
        let (got, waited) = waiter.join().unwrap();
        assert!(
            matches!(got, Err(RuntimeError::Hangup(_))),
            "{name}: parked merger head resolved {got:?}, not Hangup"
        );
        assert!(
            waited < Duration::from_secs(2),
            "{name}: hangup took {waited:?} — rescued by the deadline, not the drops"
        );
    }
}

/// Hangup-on-drop, async + buffered flavour: a buffered value keeps the
/// fifo's drain transition live (drop is a clean end-of-stream, not data
/// loss), and only once drained does the parked waker resolve `Hangup`.
#[test]
fn dropped_sender_drains_the_buffer_then_hangs_up_async_receivers() {
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    for &(_, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector.session().connect().unwrap();
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        tx.send(42).unwrap();
        drop(tx);
        // The buffered value survives the drop…
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            42,
            "{mode:?}: buffered value lost to hangup"
        );
        // …and only the *empty* fifo is dead. A parked waker must be
        // woken by the (already latched) hangup at or right after park.
        let (flag, waker) = FlagWaker::new();
        let mut cx = Context::from_waker(&waker);
        let mut recv = rx.recv_async();
        match Pin::new(&mut recv).poll(&mut cx) {
            Poll::Ready(Err(RuntimeError::Hangup(_))) => {}
            Poll::Ready(other) => panic!("{mode:?}: drained fifo resolved {other:?}"),
            Poll::Pending => {
                assert!(
                    eventually(Duration::from_secs(2), || flag.woken()),
                    "{mode:?}: hangup left the parked waker asleep"
                );
                assert!(
                    matches!(
                        Pin::new(&mut recv).poll(&mut cx),
                        Poll::Ready(Err(RuntimeError::Hangup(_)))
                    ),
                    "{mode:?}: woken future did not resolve Hangup"
                );
            }
        }
    }
}

/// Poison fan-out survives dynamic reconfiguration: after a live splice
/// has rebuilt the topology, a scripted poison must still reach the
/// *attached* branch's ports and any op parked on the shared sink.
#[test]
fn poison_fans_out_to_spliced_branches() {
    let program = reo::dsl::parse_program(
        "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)",
    )
    .unwrap();
    for &(_, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "M")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector
            .session()
            .replicate("src", 2)
            .reconfigurable()
            .connect()
            .unwrap();
        let handle = session.handle();
        let txs = session.typed_outports::<i64>("src").unwrap();
        let rx = session.typed_inport::<i64>("c").unwrap();

        // Splice: a third producer joins mid-run and proves it is live.
        let mut branch = handle.attach("src").unwrap();
        let tx2 = branch.outport().unwrap();
        tx2.send(reo::Value::Int(1)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), 1);

        // Park the sink, then poison the whole session.
        let waiter = thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        handle.poison("scripted fault: test poison");

        let got = waiter.join().unwrap();
        assert!(
            matches!(got, Err(RuntimeError::Poisoned(_))),
            "{mode:?}: parked sink recv resolved {got:?}, not Poisoned"
        );
        // Pre-existing and spliced-in branches both observe the poison.
        assert!(matches!(txs[0].try_send(9), Err(RuntimeError::Poisoned(_))));
        assert!(
            matches!(tx2.send(reo::Value::Int(9)), Err(RuntimeError::Poisoned(_))),
            "{mode:?}: the spliced-in branch escaped the poison fan-out"
        );
        assert!(handle.poison_message().is_some());
    }
}

/// The opt-in watchdog: with operations parked and no progress past the
/// deadline, an expiring `recv_timeout` upgrades its bare `Timeout` to
/// `Stalled` carrying the wait-for snapshot, and the same report is
/// pollable off the handle. A genuinely wait-blocked session reports no
/// enabled transitions — distinguishing "nothing to do" from "lost kick" —
/// and, in every mode, one entry per region and per link of the session.
/// Two `Sync – Fifo1 – Sync` channels make four regions and two links under
/// the partitioned modes: the ports the link protocol keeps armed are no
/// task's, and stay out of the report.
#[test]
fn watchdog_turns_a_silent_stall_into_a_wait_for_snapshot() {
    let two_channels = "P(a[];b[]) = prod (i:1..#a) Sync(a[i];m[i])
        mult prod (i:1..#a) Fifo1(m[i];n[i]) mult prod (i:1..#a) Sync(n[i];b[i])";
    let inputs = [("Buf(a;b) = Fifo1(a;b)", "Buf", 1), (two_channels, "P", 2)];
    for &(_, mode) in Mode::grid() {
        for (src, def, n) in inputs {
            let program = reo::dsl::parse_program(src).unwrap();
            let connector = Connector::builder(&program, def)
                .mode(mode)
                .build()
                .unwrap();
            let mut session = connector
                .session()
                .replicate("a", n)
                .replicate("b", n)
                .watchdog(Duration::from_millis(25))
                .connect()
                .unwrap();
            let _tx = session.typed_outports::<i64>("a").unwrap();
            let rx = session.typed_inports::<i64>("b").unwrap().remove(0);
            let handle = session.handle();
            match rx.recv_timeout(Duration::from_millis(400)) {
                Err(RuntimeError::Stalled(report)) => {
                    assert_eq!(
                        (report.regions.len(), report.links.len()),
                        (handle.region_count(), handle.link_count()),
                        "{mode:?}: the report covers every region and link: {report}"
                    );
                    assert!(
                        report.stalled_for >= Duration::from_millis(25),
                        "{mode:?}: report predates the deadline: {report}"
                    );
                    assert_eq!(
                        report.parked.len(),
                        1,
                        "{mode:?}: expected exactly the parked recv: {report}"
                    );
                    assert!(
                        report.regions.iter().all(|r| !r.enabled),
                        "{mode:?}: wait-blocked session claims enabled transitions: {report}"
                    );
                }
                other => panic!("{mode:?}: expected Stalled, got {other:?}"),
            }
            assert!(
                handle.is_stalled(),
                "{mode:?}: handle does not flag the stall"
            );
            assert!(
                handle.stall_report().is_some(),
                "{mode:?}: no report pollable off the handle"
            );
        }
    }
}

/// A watchdog is judged when asked, by nobody in between: an idle session
/// takes no engine hold but those of the `stats()` call that reads the
/// counter (one per region).
#[test]
fn an_idle_watched_session_takes_no_engine_holds() {
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    for &(name, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let session = connector
            .session()
            .watchdog(Duration::from_millis(25))
            .connect()
            .unwrap();
        let handle = session.handle();
        let before = handle.stats().lock_acquisitions;
        thread::sleep(Duration::from_millis(200));
        let held = handle.stats().lock_acquisitions - before;
        assert_eq!(
            held,
            handle.region_count() as u64,
            "{name}: an idle session took engine holds nobody asked for"
        );
    }
}

/// A supervisor asks for an untimed operation, which never observes: a
/// task blocked in `recv()` is judged stalled by a thread polling
/// `is_stalled()`, and the report lists exactly that receive.
#[test]
fn a_supervisor_polling_the_handle_judges_an_untimed_stall() {
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    for &(name, mode) in Mode::grid() {
        let connector = Connector::builder(&program, "Buf")
            .mode(mode)
            .build()
            .unwrap();
        let mut session = connector
            .session()
            .watchdog(Duration::from_millis(25))
            .connect()
            .unwrap();
        let _tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        let handle = session.handle();
        let task = thread::spawn(move || rx.recv());
        let started = Instant::now();
        while !handle.is_stalled() {
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "{name}: no stall judged within 2 s"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let report = handle.stall_report().expect("a judged stall has a report");
        let kinds: Vec<ParkedKind> = report.parked.iter().map(|op| op.kind).collect();
        assert_eq!(kinds, [ParkedKind::Recv], "{name}: {report}");
        handle.close();
        let got = task.join().unwrap();
        assert!(matches!(got, Err(RuntimeError::Closed)), "{name}: {got:?}");
    }
}

/// Sessions without a watchdog pay nothing and see plain `Timeout` —
/// the upgrade is strictly opt-in.
#[test]
fn without_a_watchdog_a_deadline_expiry_stays_a_plain_timeout() {
    let program = reo::dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    let connector = Connector::builder(&program, "Buf").build().unwrap();
    let mut session = connector.session().connect().unwrap();
    let _tx = session.typed_outport::<i64>("a").unwrap();
    let rx = session.typed_inport::<i64>("b").unwrap();
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(30)),
        Err(RuntimeError::Timeout)
    ));
    let handle = session.handle();
    assert!(!handle.is_stalled());
    assert!(handle.stall_report().is_none());
}
