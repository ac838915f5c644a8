//! The wait protocol, enumerated: what `handoff`, `links` and `npb` run.
//!
//! A blocking port call is the polling protocol under a waker that unparks
//! the calling thread (`reo::runtime::port`): a poll that registers the
//! operation and parks the waker, a poll per wake-up, a retraction when the
//! deadline passes first. `schedules::explore` takes a rendezvous, a buffered
//! hand-over and a fan-out, each on one engine, through **every**
//! interleaving of those holds — with deadlines that may pass at any point
//! while their operation is parked, try-probes, and a close that may come at
//! any point. On top of what `explore` holds for every script (nobody stuck
//! or left un-woken, wake counters equal to the parked operations that were
//! completed): a value arrives exactly once, or its send answered `Timeout`
//! (or `Closed`) and it never arrives; a retraction that answers with the
//! outcome of a step that got there first *is* that arrival.

mod schedules;

use reo::automata::{primitives, MemId};
use reo::runtime::engine::LinkEvents;
use schedules::{explore, p, Op, World};

/// A synchronous channel has nowhere to keep a value: whatever the
/// deadlines, the probe and the close do, the sends that answered `Ok` are
/// the values received, in order.
#[test]
fn sync_rendezvous_every_schedule() {
    let build = || {
        let scripts = [
            vec![
                Op::SendBy(p(0), 1),
                Op::TrySend(p(0), 2),
                Op::SendBy(p(0), 3),
            ],
            vec![Op::TryRecv(p(1)), Op::RecvBy(p(1)), Op::Recv(p(1))],
            vec![Op::Close],
        ];
        World::new(vec![primitives::sync(p(0), p(1))], 0, &scripts)
    };
    explore("Sync rendezvous", build, |w, schedule| {
        let (tx, rx) = (&w.tasks[0], &w.tasks[1]);
        assert_eq!(
            tx.sent,
            rx.got,
            "sent against received, after {}",
            schedule()
        );
        assert_eq!(tx.sent.len() + tx.unsent.len(), 3, "after {}", schedule());
    });
}

/// A one-place buffer: a timed send behind a full buffer, a timed receive
/// in front of an empty one, a probe on either side. What was sent and not
/// received is still in the buffer at the end — once.
#[test]
fn fifo1_hand_over_every_schedule() {
    let build = || {
        let scripts = [
            vec![
                Op::SendBy(p(0), 1),
                Op::SendBy(p(0), 2),
                Op::TrySend(p(0), 3),
                Op::SendBy(p(0), 4),
            ],
            vec![
                Op::RecvBy(p(1)),
                Op::TryRecv(p(1)),
                Op::RecvBy(p(1)),
                Op::RecvBy(p(1)),
            ],
        ];
        World::new(vec![primitives::fifo1(p(0), p(1), MemId(0))], 1, &scripts)
    };
    explore("Fifo1 hand-over", build, |w, schedule| {
        let (tx, rx) = (&w.tasks[0], &w.tasks[1]);
        let mut arrived = rx.got.clone();
        let topo = w.part.topo();
        let (engine, at) = topo.engine_for(p(1)).expect("a routed port");
        let ev = &mut LinkEvents::default();
        while let Ok(v) = (engine.poll_recv(at, &mut false, std::task::Waker::noop(), false, ev))
            .unwrap_or_else(|| engine.retract_recv(at))
        {
            arrived.push(v.as_int().unwrap());
        }
        assert_eq!(
            tx.sent,
            arrived,
            "sent against arrived, after {}",
            schedule()
        );
        assert_eq!(tx.sent.len() + tx.unsent.len(), 4, "after {}", schedule());
        assert_eq!(rx.got.len() + rx.empty, 4, "after {}", schedule());
    });
}

/// A replicator fires only with both receivers present, and one of them
/// has a deadline (the shape of `tests/wake_after_unlock.rs`): a step
/// completes a task's waker and a thread's in one go, and the thread's
/// deadline may pass before or after. Each value reaches both or neither.
#[test]
fn repl2_fan_out_with_a_timed_receiver_every_schedule() {
    let build = || {
        let scripts = [
            vec![Op::Send(p(0), 1), Op::Send(p(0), 2)],
            vec![Op::Recv(p(1)), Op::Recv(p(1))],
            vec![Op::RecvBy(p(2)), Op::RecvBy(p(2))],
            vec![Op::Close],
        ];
        World::new(
            vec![primitives::replicator(p(0), &[p(1), p(2)])],
            0,
            &scripts,
        )
    };
    explore("Repl2 fan-out", build, |w, schedule| {
        let sent = &w.tasks[0].sent;
        assert_eq!(
            sent,
            &w.tasks[1].got,
            "polled receiver, after {}",
            schedule()
        );
        assert_eq!(
            sent,
            &w.tasks[2].got,
            "timed receiver, after {}",
            schedule()
        );
    });
}
