//! Every interleaving of a few logical tasks, one engine-lock hold at a time
//! — shared by `tests/link_protocol.rs`, `tests/wait_protocol.rs` and
//! `tests/hangup_protocol.rs`.
//!
//! Every step of the port protocol is one critical section: a poll, a
//! retraction, a close, a hangup, or the service of one link event in a
//! hold of the other engine — deadness crosses a link as such an event, and
//! a fault's fan-out is one move as well (a hold of every engine in turn,
//! nothing held in between). So a handful of logical tasks, each a script
//! of port operations with its own waker and its own event worklist, can be
//! taken through **every** interleaving at hold granularity on one thread:
//! a schedule is replayed from a fresh partition, the last choice with an
//! untried alternative is advanced, until none is left. A *timed* operation
//! adds a choice of its own: while it is parked its deadline may pass at any
//! point, woken or not, and the task then retracts instead of polling again.
//!
//! At the end of each schedule nothing may be stuck — a task left parked on
//! an operation the engine has an outcome for is a lost wake-up —, every
//! link is served, and the engine's wake counters equal the operations that
//! parked a waker and were then completed (or closed) under it.

#![allow(dead_code)] // each test file uses its own part of this module

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

use reo::automata::{Automaton, MemLayout, PortId, Value};
use reo::runtime::partition::{partition, LinkEvents, Partitioned};
use reo::runtime::{CachePolicy, RuntimeError};

pub fn p(i: u32) -> PortId {
    PortId(i)
}

/// One port operation of a script. The plain pair is what a future does
/// (poll; parked, poll again once woken), the `…By` pair a blocking call
/// with a deadline (the same, under a waker that stands for a thread, and
/// it may expire while parked), the `Try…` pair a probe (one poll on a
/// no-op waker and, if that is pending, a retraction).
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Send(PortId, i64),
    Recv(PortId),
    SendBy(PortId, i64),
    RecvBy(PortId),
    TrySend(PortId, i64),
    TryRecv(PortId),
    Close,
    /// The task drops its handle of the port: the hangup's own hold; the
    /// events it raises are served like any other.
    Hangup(PortId),
    /// Inject a fault into the region serving the port: the next step its
    /// engine fires panics inside the firing (`arm_panic_after_steps(0)`),
    /// in whoever's hold that is — a poll or the service of a link event.
    Poison(PortId),
}

impl Op {
    fn timed(self) -> bool {
        matches!(self, Op::SendBy(..) | Op::RecvBy(_))
    }

    fn probe(self) -> bool {
        matches!(self, Op::TrySend(..) | Op::TryRecv(_))
    }
}

/// What a task does with its next hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Move {
    /// Serve an event, or poll, or — a probe that polled pending — retract.
    Go,
    /// The deadline of the parked timed operation passes: retract.
    Expire,
}

/// Set when the engine wakes the task's parked operation.
#[derive(Default)]
struct Woken(AtomicBool);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One logical task: a script, where it stands in it, the events its own
/// holds raised and it has not served yet, and what its operations answered.
pub struct Task {
    script: Vec<Op>,
    pc: usize,
    /// The current operation is registered and was pending at its last poll.
    parked: bool,
    woken: Arc<Woken>,
    events: LinkEvents,
    /// Values received, in order — a retraction that answered with a
    /// delivery included.
    pub got: Vec<i64>,
    /// Values whose send answered `Ok` — a retraction that found the value
    /// taken included.
    pub sent: Vec<i64>,
    /// Values whose send answered `Timeout` or `Closed`.
    pub unsent: Vec<i64>,
    /// Receives that answered `Timeout` or `Closed`.
    pub empty: usize,
    /// Per finished send or receive, in script order.
    pub answers: Vec<Answer>,
}

/// How one operation ended, and how many hangups had had their hold by then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Sent, or received a value.
    pub ok: bool,
    pub hangup: bool,
    pub poisoned: bool,
    pub drops_before: usize,
}

pub struct World {
    pub part: Partitioned,
    pub tasks: Vec<Task>,
    /// Operations that parked a waker and did not end withdrawn: each was
    /// woken once, as a thread (the timed ones) or as a task.
    woken_threads: u64,
    woken_tasks: u64,
    /// `Op::Hangup`s that have had their hold.
    drops: usize,
}

impl World {
    pub fn new(autos: Vec<Automaton>, cells: usize, scripts: &[Vec<Op>]) -> World {
        let ports = autos
            .iter()
            .flat_map(|a| a.ports().iter().collect::<Vec<_>>());
        let port_count = ports.map(|p| p.index() + 1).max().unwrap_or(0);
        let layout = MemLayout::cells(cells);
        let part = partition(autos, port_count, &layout, CachePolicy, 1 << 20).unwrap();
        part.pump(); // connect-time arming
        let task = |script: &Vec<Op>| Task {
            script: script.clone(),
            pc: 0,
            parked: false,
            woken: Arc::default(),
            events: LinkEvents::default(),
            got: Vec::new(),
            sent: Vec::new(),
            unsent: Vec::new(),
            empty: 0,
            answers: Vec::new(),
        };
        World {
            part,
            tasks: scripts.iter().map(task).collect(),
            woken_threads: 0,
            woken_tasks: 0,
            drops: 0,
        }
    }

    /// The holds there are to take. A task serves its events first (a port
    /// call drains before it goes on); then a parked operation polls again
    /// once woken — a probe does not wait for that, and a timed one may
    /// expire instead —; else the script's next operation starts.
    fn enabled(&self) -> Vec<(usize, Move)> {
        let mut moves = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if !t.events.is_empty() || !t.parked {
                if !t.events.is_empty() || t.pc < t.script.len() {
                    moves.push((i, Move::Go));
                }
                continue;
            }
            let op = t.script[t.pc];
            if op.probe() || t.woken.0.load(Ordering::SeqCst) {
                moves.push((i, Move::Go));
            }
            if op.timed() {
                moves.push((i, Move::Expire));
            }
        }
        moves
    }

    /// One hold of task `i`.
    fn step(&mut self, i: usize, mv: Move) {
        let topo = self.part.topo();
        let t = &mut self.tasks[i];
        if self.part.serve_one(&topo, &mut t.events) {
            return;
        }
        let op = t.script[t.pc];
        let (port, sending) = match op {
            Op::Send(port, v) | Op::SendBy(port, v) | Op::TrySend(port, v) => (port, Some(v)),
            Op::Recv(port) | Op::RecvBy(port) | Op::TryRecv(port) => (port, None),
            Op::Close => {
                self.part.close();
                t.pc += 1;
                return;
            }
            Op::Hangup(port) => {
                (topo.engine_for(port)).hangup(port, &mut t.events);
                self.drops += 1;
                t.pc += 1;
                return;
            }
            Op::Poison(port) => {
                topo.engine_for(port).arm_panic_after_steps(0);
                t.pc += 1;
                return;
            }
        };
        let engine = topo.engine_for(port);
        let retract = mv == Move::Expire || (op.probe() && t.parked);
        t.woken.0.store(false, Ordering::SeqCst);
        let waker = match op.probe() {
            true => Waker::noop().clone(),
            false => Waker::from(Arc::clone(&t.woken)),
        };
        // `None`: pending. A send that went through answers `Ok(None)`.
        let answer = match (sending, retract) {
            (Some(_), true) => Some(engine.retract_send(port).map(|()| None)),
            (None, true) => Some(engine.retract_recv(port).map(Some)),
            (Some(v), false) => {
                let mut value = (!t.parked).then_some(Value::Int(v));
                let ev = &mut t.events;
                let r = engine.poll_send(port, &mut value, &waker, op.timed(), ev);
                r.map(|r| r.map(|()| None))
            }
            (None, false) => {
                let mut registered = t.parked;
                let ev = &mut t.events;
                let r = engine.poll_recv(port, &mut registered, &waker, op.timed(), ev);
                r.map(|r| r.map(Some))
            }
        };
        let Some(answer) = answer else {
            t.parked = true;
            return;
        };
        // Parked and not withdrawn: completed, or closed, under its waker.
        if t.parked && !matches!(answer, Err(RuntimeError::Timeout)) {
            match op.timed() {
                true => self.woken_threads += 1,
                false => self.woken_tasks += 1,
            }
        }
        t.answers.push(Answer {
            ok: answer.is_ok(),
            hangup: matches!(answer, Err(RuntimeError::Hangup(_))),
            poisoned: matches!(answer, Err(RuntimeError::Poisoned(_))),
            drops_before: self.drops,
        });
        match (sending, answer) {
            (_, Err(RuntimeError::Hangup(_) | RuntimeError::Poisoned(_))) => {}
            (Some(v), Ok(_)) => t.sent.push(v),
            (Some(v), Err(RuntimeError::Timeout | RuntimeError::Closed)) => t.unsent.push(v),
            (None, Ok(v)) => t.got.push(v.and_then(|v| v.as_int()).expect("an integer")),
            (None, Err(RuntimeError::Timeout | RuntimeError::Closed)) => t.empty += 1,
            (_, Err(e)) => panic!("task {i}, {op:?}: {e}"),
        }
        t.parked = false;
        t.pc += 1;
    }
}

/// Run every schedule of `build()`'s tasks and `check` each at its end;
/// returns how many there were.
pub fn explore(
    name: &str,
    build: impl Fn() -> World,
    check: impl Fn(&World, &dyn Fn() -> String),
) -> usize {
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0;
    loop {
        let mut world = build();
        // (choice taken, choices there were, the hold it named) per step.
        let mut trail: Vec<(usize, usize, (usize, Move))> = Vec::new();
        loop {
            let enabled = world.enabled();
            if enabled.is_empty() {
                break;
            }
            let choice = prefix.get(trail.len()).copied().unwrap_or(0);
            trail.push((choice, enabled.len(), enabled[choice]));
            world.step(enabled[choice].0, enabled[choice].1);
        }
        // Task numbers; a deadline that passed there is marked `!`.
        let schedule = || {
            let hold = |&(_, _, (i, mv)): &(usize, usize, (usize, Move))| match mv {
                Move::Go => format!("{i}"),
                Move::Expire => format!("{i}!"),
            };
            trail.iter().map(hold).collect::<Vec<_>>().join(" ")
        };
        for i in 0..world.tasks.len() {
            let t = &world.tasks[i];
            if t.pc == t.script.len() {
                continue;
            }
            // Parked and never woken: polling once more tells whether the
            // engine had an outcome for it all along.
            let (op, woken) = (t.script[t.pc], t.woken.0.load(Ordering::SeqCst));
            world.step(i, Move::Go);
            let what = match world.tasks[i].parked {
                true => "is stuck",
                false => "was not woken (a lost wake-up)",
            };
            panic!(
                "task {i} {what} at {op:?}, woken={woken}, under schedule {}",
                schedule()
            );
        }
        // A poisoned session serves nothing any more.
        let unserved = match world.part.poison_message() {
            Some(_) => Vec::new(),
            None => world.part.unserved_links(),
        };
        assert!(unserved.is_empty(), "{unserved:?} after {}", schedule());
        let stats = world.part.stats();
        assert_eq!(
            (stats.wakeups, stats.waker_wakes),
            (world.woken_threads, world.woken_tasks),
            "(thread, task) wake-ups against operations completed while parked, after {}",
            schedule()
        );
        check(&world, &schedule);
        schedules += 1;
        assert!(schedules <= 60_000, "the scripts outgrew the enumeration");
        // Advance the deepest choice that has an alternative left.
        while trail.last().is_some_and(|&(c, n, _)| c + 1 == n) {
            trail.pop();
        }
        let Some((c, ..)) = trail.pop() else {
            break;
        };
        prefix = trail.iter().map(|t| t.0).collect();
        prefix.push(c + 1);
    }
    println!("{name}: {schedules} schedules");
    assert!(schedules >= 25, "{name}: nothing interleaved");
    schedules
}
