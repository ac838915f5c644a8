//! The hangup and fault protocols, enumerated: a dropped port handle, and
//! a firing that fails, against the operations of their peers.
//!
//! A hangup is one more critical section (`Engine::hangup`), and what it
//! decides depends on who is there: with a waker parked on the engine (or a
//! link at its border) the analysis runs in the hangup's own hold and wakes
//! whom it kills; with nobody there the port is only noted, and the next
//! hold that reads the dead set analyses it — before it can park. Across a
//! cut link deadness travels as the link's two events do for values: the
//! analysis writes a flag into the link's state, the flag that changed
//! raises the neighbour's event, and the neighbour hangs its own end up in
//! its own hold — no fixpoint pass, no latch, nothing read outside a lock.
//! `schedules::explore` takes a drop through **every** interleaving with a
//! parked, a timed and a probing receive on a rendezvous, with a buffered
//! value on its way, two drops against one receive on a merger, with a
//! receiver parked on the far side of a cut link, and — forwards and
//! backwards — through a chain of two links. On top of
//! what `explore` holds for every script (nobody stuck or left un-woken,
//! every link served, wake counters equal to the parked operations that
//! were resolved), every answer is the one the eager analysis gives:
//! `Hangup` only once the drop has had its hold and nothing is left to
//! drain, whoever got to the engine first.
//!
//! A fault leaves its hold the same way (`LinkEvents::fault`) and whoever
//! drains the hold poisons every other region before serving anything:
//! the last script injects a panic into one region's firing with
//! operations parked in the other, and at the end of every schedule every
//! engine is poisoned and nobody is left waiting.
//!
//! Mutation-checked (CHANGES.md has the runs, under "HANGUP ANALYSIS COSTS
//! WHAT CHANGED" and "ONE WAY OUT OF A HOLD"): without `freshen` in
//! `Engine::poll` the first script parks a receive under a stale dead set,
//! and without the eager branch of `Engine::hangup` a parked receive is
//! never woken; not raising the peer's event when a flag changes, `serve`
//! ignoring `sink_dead`, and the drain ignoring the fault each leave a task
//! stuck in the scripts over links; and with the walk memo of
//! `crate::dead` kept when deadness grows, the merger's consumer is stuck
//! ("DEADNESS HAS ONE HOME").

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

/// Two producers of a `Merger` each send once and leave, one hangup after
/// the other against the same receive: the first drop leaves the consumer
/// a live transition, the second kills its port. The analysis grows
/// deadness from each drop in turn and walks the merger again once more of
/// it is dead, so the third receive answers `Hangup` exactly when both
/// drops came before it, parked or not.
#[test]
fn two_drops_against_one_parked_receive_on_a_merger() {
    let build = || {
        let scripts = [
            vec![Op::Send(p(0), 1), Op::Hangup(p(0))],
            vec![Op::Send(p(1), 2), Op::Hangup(p(1))],
            vec![Op::Recv(p(2)), Op::Recv(p(2)), Op::Recv(p(2))],
        ];
        World::new(vec![primitives::merger(&[p(0), p(1)], p(2))], 0, &scripts)
    };
    explore("two drops on a Merger", build, |w, schedule| {
        let rx = &w.tasks[2];
        let mut got = rx.got.clone();
        got.sort_unstable();
        assert_eq!(got, [1, 2], "after {}", schedule());
        for (i, a) in rx.answers.iter().enumerate() {
            let dead = !a.ok && a.drops_before == 2;
            assert_eq!(a.hangup, dead, "receive {i}, after {}", schedule());
        }
        assert!(rx.answers[2].hangup, "after {}", schedule());
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

/// `Sync – Fifo1 – Sync – Fifo1 – Sync`, three regions and two links.
fn two_link_chain() -> Vec<reo::automata::Automaton> {
    vec![
        primitives::sync(p(0), p(1)),
        primitives::fifo1(p(1), p(2), MemId(0)),
        primitives::sync(p(2), p(3)),
        primitives::fifo1(p(3), p(4), MemId(1)),
        primitives::sync(p(4), p(5)),
    ]
}

/// The source of the chain drops with a value in each link and the
/// receiver parked, probing or late: both values are delivered, in order,
/// and only then does `Hangup` come through — the head of each link hangs
/// up in the hold that dries its queue, or in the service of the event the
/// dying tail raised, whichever comes last.
#[test]
fn a_drop_at_the_source_of_a_two_link_chain() {
    let build = || {
        let scripts = [
            vec![Op::Send(p(0), 1), Op::Send(p(0), 2), Op::Hangup(p(0))],
            vec![Op::Recv(p(5)), Op::RecvBy(p(5)), Op::Recv(p(5))],
        ];
        World::new(two_link_chain(), 2, &scripts)
    };
    explore("drop at the source of two links", build, |w, schedule| {
        let rx = &w.tasks[1];
        // The timed receive may give up before the second value is there;
        // the last one then gets it, and else waits for the drop to come
        // through both links.
        assert_eq!(rx.got, [1, 2], "after {}", schedule());
        let hung: Vec<bool> = rx.answers.iter().map(|a| a.hangup).collect();
        let timed_out = rx.empty == 1;
        assert_eq!(hung, [false, false, !timed_out], "after {}", schedule());
        assert!(rx.answers.iter().all(|a| !a.hangup || a.drops_before == 1));
    });
}

/// The sink of the chain drops with both links full and a third send
/// parked (or timing out, or not yet made) two regions upstream: `Hangup`
/// reaches the sender through both links, and nothing it sends after that
/// is accepted.
#[test]
fn a_drop_at_the_sink_of_a_two_link_chain() {
    let build = || {
        let scripts = [
            vec![
                Op::Send(p(0), 1),
                Op::Send(p(0), 2),
                Op::SendBy(p(0), 3),
                Op::Send(p(0), 4),
            ],
            vec![Op::TryRecv(p(5)), Op::Hangup(p(5))],
        ];
        World::new(two_link_chain(), 2, &scripts)
    };
    explore("drop at the sink of two links", build, |w, schedule| {
        let (tx, rx) = (&w.tasks[0], &w.tasks[1]);
        // Two values fit the links, a third if the probe took one.
        assert!(tx.sent.len() <= 2 + rx.got.len(), "after {}", schedule());
        let mut hung = false;
        for (i, a) in tx.answers.iter().enumerate() {
            assert!(!a.hangup || a.drops_before == 1, "send {i}");
            assert!(!hung || a.hangup, "send {i} after a hangup, {}", schedule());
            hung |= a.hangup;
        }
        // The last send is accepted only into room the probe made.
        let fitted = tx.answers[3].ok && rx.got.len() == 1;
        assert!(tx.answers[3].hangup || fitted, "after {}", schedule());
    });
}

/// A panic inside one region's firing — in the receiver's poll or in the
/// sender's service of the link event, whoever fires the step — with the
/// other task parked, probing or about to send in the other region: every
/// operation ends, none that ends later than the fault gets through, and
/// every engine is poisoned.
#[test]
fn a_fault_in_one_region_poisons_the_other() {
    // The engine catches the injected panic at the step boundary; the hook
    // need not report it once per schedule.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<&str>();
        if !message.is_some_and(|m| m.starts_with("injected fault")) {
            default(info);
        }
    }));
    let build = || {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
            primitives::sync(p(2), p(3)),
        ];
        let scripts = [
            vec![
                Op::Send(p(0), 1),
                Op::Send(p(0), 2),
                Op::SendBy(p(0), 3),
                Op::Send(p(0), 4),
            ],
            vec![
                Op::TryRecv(p(3)),
                Op::Poison(p(3)),
                Op::Recv(p(3)),
                Op::Recv(p(3)),
            ],
        ];
        World::new(autos, 1, &scripts)
    };
    explore("fault across a link", build, |w, schedule| {
        let (tx, rx) = (&w.tasks[0], &w.tasks[1]);
        let engines = &w.part.topo().engines;
        let poisoned = engines.iter().all(|e| e.poison_message().is_some());
        assert!(poisoned, "a region is not poisoned after {}", schedule());
        // The fault trips the first step the receiver's region fires once
        // it is armed: the probe before it may have taken a value, the torn
        // step may still hand one out, the link holds one more.
        assert!(rx.got.len() <= 2, "{:?} after {}", rx.got, schedule());
        assert!(tx.sent.len() <= 3, "{:?} after {}", tx.sent, schedule());
        assert!(rx.got.iter().eq(tx.sent.iter().take(rx.got.len())));
        assert!(tx.answers.iter().chain(&rx.answers).all(|a| !a.hangup));
        let last = (tx.answers[3].poisoned, rx.answers[2].poisoned);
        assert_eq!(last, (true, true), "after {}", schedule());
    });
}
