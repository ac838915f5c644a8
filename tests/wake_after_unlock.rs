//! The engine records wake-ups under its mutex and delivers them after the
//! unlock (`reo::runtime::engine`, "One wait protocol"; the one exception
//! is the hold that serves a link event for another region, held by
//! `engine::tests::wakes_follow_the_unlock_except_in_serve`). These tests
//! hold the two things that discipline could break: a wake-up lost or
//! duplicated between two threads that park on each other, and a wake that
//! lands after the timed park it was meant for has already returned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::Duration;

use reo::runtime::{Connector, Mode};
use reo::Session;

/// Generous: no operation below may ever see it.
const DEADLINE: Duration = Duration::from_secs(10);

/// Ops per connector per mode: 2 connectors x 7 modes x 3,000 = 42,000,
/// about a second in the debug build the TSan job runs.
const OPS: i64 = 3_000;

fn open(source: &str, def: &str, mode: Mode, sizes: &[(&str, usize)]) -> Session {
    let program = reo::dsl::parse_program(source).unwrap();
    let connector = Connector::builder(&program, def)
        .mode(mode)
        .build()
        .unwrap();
    connector.session().replicate_all(sizes).connect().unwrap()
}

/// Every value of a closed two-thread loop parks one side and wakes it; no
/// wake-up may go missing (a `Timeout`), repeat, or reach a task that then
/// finds nothing to do.
#[test]
fn rendezvous_and_turns_lose_no_wakeup_on_any_mode() {
    let sequencer = reo::connectors::families()
        .into_iter()
        .find(|f| f.name == "sequencer")
        .unwrap();
    for &(name, mode) in Mode::grid() {
        // One sender, one receiver, a synchronous channel between them.
        let mut session = open("Rendezvous(a;b) = Sync(a;b)", "Rendezvous", mode, &[]);
        let tx = session.typed_outport::<i64>("a").unwrap();
        let rx = session.typed_inport::<i64>("b").unwrap();
        thread::scope(|s| {
            s.spawn(|| {
                for v in 0..OPS {
                    tx.send_timeout(v, DEADLINE)
                        .unwrap_or_else(|e| panic!("{name}: send {v}: {e}"));
                }
            });
            for v in 0..OPS {
                let got = rx
                    .recv_timeout(DEADLINE)
                    .unwrap_or_else(|e| panic!("{name}: recv {v}: {e}"));
                assert_eq!(got, v, "{name}: out of order");
            }
        });
        let stats = session.handle().stats();
        assert_eq!(stats.steps, OPS as u64, "{name}: one step per value");
        assert_eq!(stats.spurious_wakeups, 0, "{name}: rendezvous");
        // Whoever arrives second fires; the first — its waker parked in the
        // hold that registered it — is woken, once. An operation that
        // completes in its own first poll parks nothing.
        assert!(
            (1..=OPS as u64).contains(&stats.wakeups),
            "{name}: {} wake-ups for {OPS} values",
            stats.wakeups
        );

        // No receiver: the two threads own alternate ports of a sequencer
        // and hand the turn to each other.
        let mut session = open(sequencer.source, sequencer.def, mode, &[("t", 2)]);
        let turns = session.typed_outports::<i64>("t").unwrap();
        thread::scope(|s| {
            for t in &turns {
                s.spawn(move || {
                    for v in 0..OPS / 2 {
                        t.send_timeout(v, DEADLINE)
                            .unwrap_or_else(|e| panic!("{name}: turn {v}: {e}"));
                    }
                });
            }
        });
        let handle = session.handle();
        let stats = handle.stats();
        assert_eq!(stats.spurious_wakeups, 0, "{name}: sequencer");
        // A cross-region link service hold is the documented exception: it
        // signals before it unlocks, so where the sequencer's ring is cut
        // into links a task can be woken once more.
        if handle.link_count() == 0 {
            assert!(stats.wakeups <= OPS as u64, "{name}: {}", stats.wakeups);
        }
    }
}

/// A waker that stalls whoever delivers it until `gate` opens (or two
/// seconds pass), and records which.
struct Stall {
    gate: Mutex<mpsc::Receiver<()>>,
    opened: AtomicBool,
}

impl Wake for Stall {
    fn wake(self: Arc<Self>) {
        let opened = self
            .gate
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(2))
            .is_ok();
        self.opened.store(opened, Ordering::SeqCst);
    }
}

/// `done_at_expiry_still_completes`, with the wake landing after the timed
/// park returned: one step completes a task's waker and a thread parked
/// with a deadline; the task's waker (delivered first) stalls the firer
/// until that thread's deadline has expired. The thread must take the
/// engine mutex for the poll that follows its park — free, because wakes
/// follow the unlock —, find its delivery and return it; the unpark that
/// then arrives finds it parked in its *next* receive, which must shrug it
/// off.
#[test]
fn a_signal_that_lands_after_the_timed_wait_returned_is_harmless() {
    let mut session = open("Rep(a;b,c) = Repl2(a;b,c)", "Rep", Mode::jit(), &[]);
    let tx = session.typed_outport::<i64>("a").unwrap();
    let polled = session.typed_inport::<i64>("b").unwrap();
    let timed = session.typed_inport::<i64>("c").unwrap();
    let handle = session.handle();

    let (open_gate, gate) = mpsc::channel();
    let stall = Arc::new(Stall {
        gate: Mutex::new(gate),
        opened: AtomicBool::new(false),
    });
    let stalling = Waker::from(Arc::clone(&stall));
    let mut registered = false;
    let first = polled.poll_recv(&mut Context::from_waker(&stalling), &mut registered);
    assert!(first.is_pending());

    let locks_before = handle.stats().lock_acquisitions;
    let receiver = thread::spawn(move || {
        let first = timed.recv_timeout(Duration::from_millis(100));
        open_gate.send(()).unwrap();
        (first, timed.recv_timeout(DEADLINE))
    });
    // One acquisition by the receiver (the poll that registers it and parks
    // its waker) on top of one per `stats()` call here: it is parked, or
    // about to be, with its deadline.
    let mut polls = 0;
    loop {
        polls += 1;
        if handle.stats().lock_acquisitions - locks_before - polls >= 1 {
            break;
        }
        thread::yield_now();
    }

    tx.send_timeout(7, DEADLINE).unwrap();
    assert!(
        stall.opened.load(Ordering::SeqCst),
        "the parked receiver could not return while the waker ran: the engine mutex was held"
    );
    assert!(matches!(
        polled.poll_recv(&mut Context::from_waker(&stalling), &mut registered),
        Poll::Ready(Ok(7))
    ));

    // Second round: the late unpark may cost the receiver one extra poll,
    // never a value.
    let mut registered = false;
    let second = polled.poll_recv(&mut Context::from_waker(Waker::noop()), &mut registered);
    assert!(second.is_pending());
    tx.send_timeout(8, DEADLINE).unwrap();
    let (first, second) = receiver.join().unwrap();
    assert_eq!((first.unwrap(), second.unwrap()), (7, 8));
    assert!(matches!(
        polled.poll_recv(&mut Context::from_waker(Waker::noop()), &mut registered),
        Poll::Ready(Ok(8))
    ));
    assert!(handle.stats().spurious_wakeups <= 1);
}
