//! The hangup protocol, enumerated: a dropped port handle against the
//! operations of its peers.
//!
//! A hangup is one more critical section (`Engine::hangup`), and what it
//! decides depends on who is there: with a waker parked on the engine (or a
//! link at its border) the analysis runs in the hangup's own hold and wakes
//! whom it kills; with nobody there the port is only noted, and the next
//! hold that reads the dead set analyses it — before it can park.
//! `schedules::explore` takes a drop through **every** interleaving with a
//! parked, a timed and a probing receive on a rendezvous, with a buffered
//! value on its way, and with a receiver parked on the far side of a cut
//! link. On top of what `explore` holds for every script (nobody stuck or
//! left un-woken, every link served, wake counters equal to the parked
//! operations that were resolved), every answer is the one the eager
//! analysis gives: `Hangup` exactly when the drop has had its hold and
//! nothing is left to drain, whoever got to the engine first.
//!
//! Mutation-checked: without `freshen` in `Engine::poll` the first script
//! parks a receive under a stale dead set, and without the eager branch of
//! `Engine::hangup` a parked receive is never woken; either fails here.

mod schedules;

use reo::automata::{primitives, MemId};
use schedules::{explore, p, Op, World};

/// A rendezvous whose sender sends once, with a deadline, and leaves. A
/// receive — a probe, a timed one, a parked one — that ends without the
/// value answers `Hangup` exactly when it ends after the drop's hold.
#[test]
fn a_drop_against_every_kind_of_receive_on_a_sync() {
    let build = || {
        let scripts = [
            vec![Op::SendBy(p(0), 1), Op::Hangup(p(0))],
            vec![Op::TryRecv(p(1)), Op::RecvBy(p(1)), Op::Recv(p(1))],
        ];
        World::new(vec![primitives::sync(p(0), p(1))], 0, &scripts)
    };
    explore("drop on a Sync", build, |w, schedule| {
        let (tx, rx) = (&w.tasks[0], &w.tasks[1]);
        assert_eq!(tx.sent, rx.got, "after {}", schedule());
        for (i, a) in rx.answers.iter().enumerate() {
            let dead = !a.ok && a.drops_before == 1;
            assert_eq!(a.hangup, dead, "receive {i}, after {}", schedule());
        }
    });
}

/// A buffered value outlives its sender: after the drop a receive answers
/// the value while it is there and `Hangup` once it is drained, and never
/// `Hangup` before the drop.
#[test]
fn a_drop_after_a_buffered_fifo1_value() {
    let build = || {
        let scripts = [
            vec![Op::Send(p(0), 1), Op::Hangup(p(0))],
            vec![
                Op::RecvBy(p(1)),
                Op::TryRecv(p(1)),
                Op::Recv(p(1)),
                Op::TryRecv(p(1)),
                Op::Recv(p(1)),
            ],
        ];
        World::new(vec![primitives::fifo1(p(0), p(1), MemId(0))], 1, &scripts)
    };
    explore("drop behind a Fifo1 value", build, |w, schedule| {
        let rx = &w.tasks[1];
        assert_eq!(rx.got, [1], "the value drains first, after {}", schedule());
        let mut drained = false;
        for (i, a) in rx.answers.iter().enumerate() {
            let dead = !a.ok && a.drops_before == 1;
            assert_eq!(a.hangup, dead, "receive {i}, after {}", schedule());
            assert!(drained || !a.hangup, "receive {i}, after {}", schedule());
            drained |= a.ok;
        }
        // Whatever timed out before, the third receive waits for the value
        // and the fifth for the drop.
        assert!(rx.answers[4].hangup, "after {}", schedule());
    });
}

/// `Sync – Fifo1 – Sync` cut at the fifo: the sender's region drops, the
/// receiver is parked in the other. The value crosses first; deadness
/// follows once the link is dry — in the hold that dries it or in the
/// drop's own propagation, whichever comes last — and wakes the receiver.
#[test]
fn a_drop_on_the_tail_side_of_a_cut_link() {
    let build = || {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
            primitives::sync(p(2), p(3)),
        ];
        let scripts = [
            vec![Op::Send(p(0), 1), Op::Send(p(0), 2), Op::Hangup(p(0))],
            vec![Op::Recv(p(3)), Op::RecvBy(p(3)), Op::Recv(p(3))],
        ];
        World::new(autos, 1, &scripts)
    };
    explore("drop across a link", build, |w, schedule| {
        let rx = &w.tasks[1];
        // The timed receive may give up before the second value is there;
        // the last one then gets it. Nothing is lost, nothing comes twice.
        assert_eq!(rx.got, [1, 2], "after {}", schedule());
        let hung: Vec<bool> = rx.answers.iter().map(|a| a.hangup).collect();
        let timed_out = rx.empty == 1;
        assert_eq!(hung, [false, false, !timed_out], "after {}", schedule());
        assert!(rx.answers.iter().all(|a| !a.hangup || a.drops_before == 1));
    });
}
