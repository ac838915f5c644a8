//! The sequential protocol state machine and the port operations polled on it.
//!
//! This is the run-time system of Sect. III-B/IV-D: a generated state
//! machine "monitors the outports/inports linked to its vertices. Whenever a
//! task performs a send/receive …, the state machine reacts by checking
//! whether this operation enables a transition. If so, \[it\] makes the
//! transition, distributes messages …, and completes all operations
//! involved. If not, \[it\] does nothing and awaits the next send or receive."
//!
//! The machine itself is [`JitCore`]: a tuple of automata — the medium
//! automata, or the existing approach's one composed automaton — whose
//! rows are filled on first visit or all at `connect`.
//!
//! # Locking model
//!
//! One mutex guards the whole engine state (pending table + store + core);
//! transitions only ever fire inside the engine's fire loop with that lock
//! held, which is what makes retraction atomic: an operation that is
//! withdrawn can never be half-consumed by a concurrent step.
//!
//! # One wait protocol
//!
//! The engine never blocks anybody. A port operation is **polled**
//! ([`Engine::poll_send`], [`Engine::poll_recv`]): one hold registers it,
//! fires what it enables and returns its outcome, or — still pending —
//! parks the caller's [`Waker`] in the port's slot. At most one operation
//! is pending per port (`PortBusy` otherwise), so a slot holds one waker,
//! and one bit saying whether a blocked *thread* stands behind it (the
//! blocking calls of [`crate::port`] run this same protocol in place,
//! under a waker that unparks the calling thread) or an async *task*. A
//! step wakes only the ports it completed — not every blocked task, as a
//! broadcast would — so wake-ups scale with completed operations, not
//! with `steps × blocked tasks`; the [`EngineStats`] counters make that
//! observable. Whoever gives up on a pending operation **retracts** it
//! ([`Engine::retract_send`], [`Engine::retract_recv`]) in one more hold:
//! complete if a step got there first, withdraw otherwise.
//!
//! Wake-ups are *recorded* under the lock and *delivered* after it is
//! released (`Engine::firing`): a woken task's first act is to poll again,
//! which takes the engine mutex, so waking it while still holding that
//! mutex sends it into a lock it can only sleep on. No wake-up is lost:
//! the outcome (a `Done*` slot, `closed`, `dead`) is set and the waker
//! taken under the lock, and a poll checks the outcome and parks its waker
//! under the same lock, so the wake may follow the unlock.
//!
//! # Link ports
//!
//! A region engine of a partition knows which of its slots are the tails
//! and heads of cut fifos (`LinkEnd`) and serves them in `fire_loop` by the
//! link protocol of [`crate::partition`]. What the *other* engine must do
//! leaves the hold as [`LinkEvents`] next to the wake list, beside the
//! fault if the firing poisoned this engine. Engines without link ends pay
//! one never-taken branch per completed port.
//!
//! # Port sharding
//!
//! Every engine is one region of a session's partition
//! ([`crate::partition`]) and speaks the region's ids: a port is its slot
//! in the one per-port table, a cell its place in the store, so the table,
//! the store and the core scale with the *region*, and nothing inside a
//! hold looks a port up. Its `Names` give errors and stall reports the
//! session's ids back.
//!
//! # Example: reading the contention counters
//!
//! ```
//! use reo_runtime::{Connector, Mode};
//!
//! let program = reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
//! let connector = Connector::builder(&program, "Buf").mode(Mode::jit()).build().unwrap();
//! let mut session = connector.session().connect().unwrap();
//! let tx = session.typed_outport::<i64>("a").unwrap();
//! let rx = session.typed_inport::<i64>("b").unwrap();
//! tx.send(1).unwrap();
//! assert_eq!(rx.recv().unwrap(), 1);
//!
//! let stats = session.handle().stats();
//! assert_eq!(stats.steps, 2); // fifo fill + drain
//! assert_eq!(stats.completions, 2); // one send, one recv completed
//! assert!(stats.lock_acquisitions >= stats.steps);
//! assert_eq!(stats.kicks, 0); // single-engine mode: no links, no kicks
//! ```

use parking_lot::{Mutex, MutexGuard};
use reo_automata::fire::UnresolvedPort;
use reo_automata::{Automaton, MemId, MemLayout, PortId, Store, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Waker;

use crate::dead::Dead;
use crate::error::RuntimeError;
use crate::jit::JitCore;
use crate::watchdog::{ParkedKind, ParkedOp, RegionReport, Snapshot};

/// The per-port pending-operation slot.
#[derive(Clone, Debug, Default)]
pub enum Pending {
    /// No operation pending (also the state of internal ports).
    #[default]
    None,
    /// A task blocked in `send(v)`.
    Send(Value),
    /// A task blocked in `recv()`.
    Recv,
    /// The send was taken by a transition; the task may return.
    DoneSend,
    /// A value was delivered; the task may take it and return.
    DoneRecv(Value),
}

/// The session's id of each of a region's ports and cells, in the
/// region's order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names {
    pub ports: Vec<PortId>,
    pub cells: Vec<MemId>,
}

/// A port's id in its engine's region, which only the router hands out
/// ([`crate::partition::Topology::engine_for`]): never a session's id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(pub(crate) u32);

/// The per-port table of one engine: each port's `PortSlot` — its pending
/// operation and its wait state — at its id in the region
/// ([`crate::partition`] renames a region's ports `0..k`), so the core and
/// the engine index it directly. The core reads and writes operations
/// through [`op`](Self::op) and [`replace`](Self::replace) only.
///
/// The table also keeps the **armed set**: per 64 slots one word of
/// "holds a `Send`" bits and one of "holds a `Recv`" bits, updated by
/// every change of an operation. A core resolves each
/// transition's sync set into a [`Need`] once and tests operational
/// enabledness with [`armed`](Self::armed) — a few word compares at any
/// boundary width, with no per-step rescan of the ports.
#[derive(Default)]
pub struct PendingTable {
    /// An operation changes by [`replace`](Self::replace) only.
    pub(crate) slots: Box<[PortSlot]>,
    /// Word `2w` holds the send bits of slots `64w..64w+64`, word `2w + 1`
    /// their receive bits.
    armed: Vec<u64>,
    /// One bit per slot: the hangup analysis ([`crate::dead`]) proved the
    /// port can never fire again. Its walks read these words, not the slots.
    pub(crate) dead: Vec<u64>,
}

/// The operations a transition needs pending before it can fire, as
/// `(word, bits)` pairs over one table's armed set. Built by the core as it
/// interns a step ([`crate::jit`], "Lowered steps") from the ids of its
/// label — before any table exists, for a core that fills its rows at
/// `connect`.
#[derive(Clone, Debug, Default)]
pub struct Need(pub(crate) Box<[(u32, u64)]>);

impl PendingTable {
    /// A table of `width` idle ports, `0..width`.
    pub fn new(width: usize) -> Self {
        let mut table = Self::default();
        table.grow(width);
        table
    }

    /// Number of ports.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The operation pending at port `i`.
    #[inline(always)]
    pub fn op(&self, i: usize) -> &Pending {
        &self.slots[i].op
    }

    /// Replace the operation of port `i`, keeping the armed set in step:
    /// the one place an operation changes.
    #[inline(always)]
    pub fn replace(&mut self, i: usize, v: Pending) -> Pending {
        let (word, bit) = (2 * (i / 64), 1u64 << (i % 64));
        self.armed[word] &= !bit;
        self.armed[word + 1] &= !bit;
        match v {
            Pending::Send(_) => self.armed[word] |= bit,
            Pending::Recv => self.armed[word + 1] |= bit,
            _ => {}
        }
        std::mem::replace(&mut self.slots[i].op, v)
    }

    /// Whether slot `i`'s dead bit is set.
    #[inline]
    pub(crate) fn is_dead(&self, i: usize) -> bool {
        self.dead[i / 64] & 1 << (i % 64) != 0
    }

    /// Set slot `i`'s dead bit, returning whether it was set already.
    pub(crate) fn kill(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.dead[i / 64], 1u64 << (i % 64));
        std::mem::replace(word, *word | bit) & bit != 0
    }

    /// Widen to at least `width` ports, every port keeping its slot: a
    /// splice adds a region's new ports past its old ones.
    pub(crate) fn grow(&mut self, width: usize) {
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        slots.reserve_exact(width.saturating_sub(slots.len()));
        slots.resize_with(width.max(slots.len()), PortSlot::default);
        self.slots = slots.into();
        self.armed.resize(2 * self.len().div_ceil(64), 0);
        self.dead.resize(self.len().div_ceil(64), 0);
    }

    /// Whether every operation `need` names is pending right now.
    #[inline(always)]
    pub fn armed(&self, need: &Need) -> bool {
        self.all_armed(&need.0)
    }

    /// Whether every bit of the `(word, bits)` pairs `words` is set.
    #[inline(always)]
    pub fn all_armed(&self, words: &[(u32, u64)]) -> bool {
        (words.iter()).all(|&(word, bits)| self.armed[word as usize] & bits == bits)
    }

    /// Whether armed-set bit `bit` (word × 64 + bit) is set.
    #[inline(always)]
    pub fn armed_bit(&self, bit: u32) -> bool {
        self.armed[bit as usize / 64] & 1 << (bit % 64) != 0
    }

    /// Whether any bit of the `(word, bits)` pairs `words` is set.
    #[inline(always)]
    pub fn any_armed(&self, words: &[(u32, u64)]) -> bool {
        (words.iter()).any(|&(word, bits)| self.armed[word as usize] & bits != 0)
    }
}

/// Contention counters of one engine (or the sum over a partition's
/// engines), surfaced through `ConnectorHandle::stats()`. Each field says
/// exactly what it counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Global execution steps fired (the Fig. 12 metric): one per
    /// committed transition of the protocol state machine.
    pub steps: u64,
    /// Port operations completed by fired transitions, i.e.
    /// `DoneSend`/`DoneRecv` handed to tasks or link ends. A step that
    /// synchronizes a send with a receive counts two.
    pub completions: u64,
    /// Parked wakers woken that a blocked *thread* stands behind. A port
    /// call that polls pending parks one waker in its port's slot; a step
    /// that completes the port (or close, poison, the hangup that kills
    /// it, a splice) takes and wakes it. So this stays in the order of
    /// `completions`, where a broadcast would wake every blocked task on
    /// every step (`≈ steps × blocked tasks`).
    pub wakeups: u64,
    /// The same for wakers an async *task* stands behind (a future, or any
    /// caller of the poll API). `tests/session_api.rs` and
    /// `examples/sessions.rs` hold a fleet of async sessions to
    /// `waker_wakes ≤ 2 × completions` (targeted wake-ups, not polling).
    pub waker_wakes: u64,
    /// Polls that found the operation still pending although the engine
    /// had taken and woken its parked waker (thread or task).
    pub spurious_wakeups: u64,
    /// Acquisitions of the engine mutex, counted under it: every poll,
    /// retraction and stat call and every serviced link event takes it
    /// exactly once; fire loops and link-port service run under the
    /// caller's acquisition. An operation that completes in its first poll
    /// costs one.
    pub lock_acquisitions: u64,
    /// Link protocol (see `crate::partition`; 0 on a single engine): holds
    /// whose fire loop moved at least one value across a link end of this
    /// engine — a completed tail pushed into the link queue, or a
    /// completed head popped from it.
    pub batch_moves: u64,
    /// Link protocol: the values those holds moved. A value crossing a
    /// link counts **twice**, once at the tail's engine and once at the
    /// head's. `batched_values / batch_moves` exceeds 1 when one hold
    /// completes a backlog (each re-armed tail fires the next stuck
    /// producer in place).
    pub batched_values: u64,
    /// Counted by the partition, not by any engine (0 on a single engine):
    /// port operations on a region bordering **two or more** links whose
    /// hold left cross-region events to drain. Regions bordering one link
    /// drain theirs uncounted, regions bordering none raise no events.
    pub kicks: u64,
    /// Reachability walks the hangup analysis ran, one per constituent
    /// examined: 0 while nobody hangs up,
    /// and 0 for hangups whose answer nobody asked for.
    pub hangup_walks: u64,
}

impl EngineStats {
    /// Field-wise sum, for aggregating over a partition's engines.
    pub fn merge(&mut self, other: &EngineStats) {
        self.steps += other.steps;
        self.completions += other.completions;
        self.wakeups += other.wakeups;
        self.waker_wakes += other.waker_wakes;
        self.spurious_wakeups += other.spurious_wakeups;
        self.lock_acquisitions += other.lock_acquisitions;
        self.batch_moves += other.batch_moves;
        self.batched_values += other.batched_values;
        self.kicks += other.kicks;
        self.hangup_walks += other.hangup_walks;
    }
}

/// Best-effort extraction of a panic payload's message for poison text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// One served port: its pending operation and its wait state.
#[derive(Default)]
pub(crate) struct PortSlot {
    /// Changed only by [`PendingTable::replace`], which keeps the armed set.
    op: Pending,
    /// Whoever polled this port's operation while it was still pending
    /// parks a `Waker` here; completing the port takes and wakes it. At
    /// most one pending operation exists per port (`PortBusy` otherwise),
    /// so one suffices.
    waker: Option<Waker>,
    /// A blocked thread parked `waker` (woken, it counts as a `wakeup`),
    /// not an async task (a `waker_wake`).
    thread: bool,
    /// The engine took and woke `waker` and the operation was not polled
    /// since: a poll that finds it still pending is a spurious wake-up.
    woken: bool,
    /// The parked `DoneRecv` in this slot belongs to a *cancelled* future
    /// (see [`Engine::abandon_recv`]), so the next registration may absorb
    /// it. Without this bit a new registrant could steal a delivery that a
    /// still-blocked receiver owns, leaving it waiting on an empty slot.
    abandoned: bool,
    /// A dropped handle deregistered this port (phaser-style hangup);
    /// `install` carries the mark across a splice with the rest of the slot.
    pub(crate) hungup: bool,
}

/// The wakers one critical section took out of their slots. The first is
/// held inline, so the common one-wake step never allocates.
#[derive(Default)]
struct WakeList {
    first: Option<Waker>,
    rest: Vec<Waker>,
}

impl WakeList {
    fn push(&mut self, w: Waker) {
        match self.first {
            None => self.first = Some(w),
            Some(_) => self.rest.push(w),
        }
    }

    /// Wake everything recorded — the only place this module wakes a
    /// `Waker`.
    fn deliver(self) {
        self.first
            .into_iter()
            .chain(self.rest)
            .for_each(Waker::wake);
    }
}

/// Work a hold found for the *other* engine of a link: look at this end
/// again. What there is to do — arm the port, or hang it up because the far
/// side is dead — is read from the link's state when the event is served
/// (`Engine::serve`); serving is idempotent, so a stale or repeated event
/// costs one hold and changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEvent {
    /// This head: the queue got a front that is not on offer, or the tail died.
    Offer(PortId),
    /// This tail: a pop freed a slot while it was un-armed, or the head died.
    Rearm(PortId),
}

/// What a hold leaves for other engines, handed to whoever called into the
/// engine once the lock is released — the worklist a port call drains. The
/// first two events are held inline, so the common hold never allocates.
#[derive(Default)]
pub struct LinkEvents {
    head: [Option<LinkEvent>; 2],
    rest: Vec<LinkEvent>,
    /// Raised by a port call on a region bordering ≥ 2 links: the drain
    /// counts as a kick ([`EngineStats::kicks`]).
    pub(crate) counted: bool,
    /// A firing failed and poisoned its engine with this message: the
    /// drain poisons every other region before it serves anything.
    pub(crate) fault: Option<String>,
}

impl LinkEvents {
    /// Nothing to serve and no fault to spread.
    pub fn is_empty(&self) -> bool {
        self.head[0].is_none() && self.fault.is_none()
    }

    /// Add `ev` unless it is already listed (one hold may complete a link
    /// port several times).
    pub(crate) fn push(&mut self, ev: LinkEvent) {
        if !self
            .head
            .iter()
            .flatten()
            .chain(&self.rest)
            .any(|e| *e == ev)
        {
            self.raise(ev);
        }
    }

    /// Add `ev` unsearched: a repeat is served as a no-op (`Engine::serve`).
    pub(crate) fn raise(&mut self, ev: LinkEvent) {
        match self.head.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(ev),
            None => self.rest.push(ev),
        }
    }

    /// Inline slots fill front to back and empty back to front.
    pub(crate) fn pop(&mut self) -> Option<LinkEvent> {
        let inline = || self.head.iter_mut().rev().find_map(Option::take);
        self.rest.pop().or_else(inline)
    }

    /// Move every event, and the fault, onto `out`.
    pub(crate) fn drain_into(&mut self, out: &mut LinkEvents) {
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out.fault = out.fault.take().or(self.fault.take());
    }
}

/// A cut fifo's queue and the flags its two engines leave for each other.
#[derive(Default)]
pub(crate) struct LinkState {
    pub queue: VecDeque<Value>,
    /// The queue front is offered as a pending send at the head port; it
    /// leaves the queue when the step that takes it completes the head.
    pub offered: bool,
    /// The tail was left un-armed for lack of credit: the pop that frees a
    /// slot raises [`LinkEvent::Rearm`].
    pub parked: bool,
    /// The tail is dead on its engine (whose hangup analysis writes this):
    /// the head hangs up once the queue is dry — in the hold whose pop
    /// dries it, or serving the [`LinkEvent::Offer`] the flag raised.
    pub source_dead: bool,
    /// The head is dead on its engine: the tail hangs up at once
    /// ([`LinkEvent::Rearm`]) — what is queued could never be delivered.
    pub sink_dead: bool,
}

/// What the two engines of a link share. The mutex is a leaf: taken under
/// one engine lock (or none), held for a push, a pop or a flag flip.
pub(crate) struct LinkShared {
    pub capacity: Option<usize>,
    pub state: Mutex<LinkState>,
}

/// One end of a link at a local port of this engine. The peer engine is
/// not referenced: events name `peer` and the partition routes them.
#[derive(Clone)]
pub(crate) struct LinkEnd {
    /// Head (an input of this engine, fed from the queue) or tail (an
    /// output of this engine, drained into the queue).
    pub head: bool,
    /// The link's port on the other engine, in the session's ids.
    pub peer: PortId,
    pub shared: Arc<LinkShared>,
}

impl LinkEnd {
    /// What this end's idle port is armed with next, noted in the link
    /// state: a head offers the front unless it is on offer already, a
    /// tail receives while the queue has credit and is `parked` otherwise.
    fn arm(&self, st: &mut LinkState) -> Option<Pending> {
        if self.head {
            let front = st.queue.front().filter(|_| !st.offered).cloned();
            st.offered |= front.is_some();
            front.map(Pending::Send)
        } else {
            st.parked = self
                .shared
                .capacity
                .is_some_and(|cap| st.queue.len() >= cap);
            (!st.parked).then_some(Pending::Recv)
        }
    }
}

pub(crate) struct EngineInner {
    pub core: JitCore,
    /// Each port's operation and wait state; `install` widens it.
    pub pending: PendingTable,
    pub store: Store,
    pub names: Names,
    /// Wake-ups decided in this critical section and not yet delivered.
    wakes: WakeList,
    /// The link end at each local slot; empty on an engine without links.
    link_ends: Vec<Option<LinkEnd>>,
    /// Link events raised in this critical section and not yet handed out.
    events: LinkEvents,
    /// Scratch buffer for the ports completed by one step (reused), in the
    /// region's ids.
    completed: Vec<PortId>,
    /// The counters this engine keeps under its lock (all but `kicks`,
    /// which the partition counts).
    stats: EngineStats,
    /// At least two link ends: port calls that raise events count as kicks.
    multi_link: bool,
    pub closed: bool,
    /// Set when a fire failed irrecoverably; all operations then error.
    pub poisoned: Option<String>,
    /// Slots holding a waker, counted where one is parked or taken: whether
    /// a hangup has somebody waiting for its consequences.
    parked: usize,
    /// The hangup analysis of the slots' marks, brought up to date by [`freshen`](Self::freshen).
    pub(crate) dead: Dead,
    /// Fault injection ([`Engine::arm_panic_after_steps`]): fired steps
    /// left before a firing panics. `None` (always, outside harnesses) is
    /// disarmed.
    panic_after: Option<u64>,
}

impl EngineInner {
    /// Record a wake-up for every port with a parked waker (close/poison
    /// paths: a pending operation polled after close must resolve to
    /// `Closed`, not hang).
    fn wake_all(&mut self) {
        (0..self.pending.slots.len()).for_each(|i| self.record_wakes(i));
    }

    /// What a hold that reads a `dead` bit starts with: the analysis of
    /// every hangup nobody has asked about yet, once for all of them.
    fn freshen(&mut self) {
        if self.dead.stale() {
            self.refresh_dead();
        }
    }

    /// Whether the analysis proved slot `i` dead: no read while no port is.
    fn is_dead(&self, i: usize) -> bool {
        self.dead.count > 0 && self.pending.is_dead(i)
    }

    /// Bring the `dead` bits up to date ([`Dead::grow`]), wake whom they
    /// kill, and tell each link whether its end here is dead (`sink_dead`,
    /// `source_dead`): a flag that changed raises the peer's event.
    fn refresh_dead(&mut self) {
        self.stats.hangup_walks += self.dead.grow(&self.core, &mut self.pending);
        for i in 0..self.dead.newly.len() {
            self.record_wakes(self.dead.newly[i]);
        }
        if self.dead.newly.is_empty() {
            return;
        }
        for (i, end) in self.link_ends.iter().enumerate() {
            let Some(end) = end else { continue };
            let dead = self.pending.is_dead(i);
            let mut st = end.shared.state.lock();
            let (flag, peer) = match end.head {
                true => (&mut st.sink_dead, LinkEvent::Rearm(end.peer)),
                false => (&mut st.source_dead, LinkEvent::Offer(end.peer)),
            };
            if std::mem::replace(flag, dead) != dead {
                self.events.push(peer);
            }
        }
    }

    /// [`Engine::hangup`] of the port at slot `i` under the lock; `serve`
    /// hangs up link ports by it.
    fn hang_up(&mut self, i: usize) {
        self.dead.mark(&mut self.pending, i, true);
        let slots = &self.pending.slots;
        let scan = || slots.iter().filter(|s| s.waker.is_some()).count();
        debug_assert_eq!(self.parked, scan(), "the count of slots holding a waker");
        if self.dead.due(self.parked, !self.link_ends.is_empty()) {
            self.refresh_dead();
        }
    }

    /// Serve the link end at slot `i` in the hold whose step completed its
    /// port. A tail moves its delivery into the link queue and re-arms
    /// the receive while credit remains; a head pops the acknowledged front
    /// and offers the next — or, its tail dead and the queue now dry, hangs
    /// up: nothing will cross this link again (the end of the fire loop
    /// analyses it). The caller's fire loop goes on from there.
    fn serve_completed(&mut self, i: usize) {
        let end = self.link_ends[i].as_ref().expect("a link end");
        let mut st = end.shared.state.lock();
        let mut dried = false;
        if end.head {
            st.queue.pop_front();
            st.offered = false;
            dried = st.source_dead && st.queue.is_empty();
            if std::mem::take(&mut st.parked) {
                self.events.push(LinkEvent::Rearm(end.peer));
            }
        } else {
            let Pending::DoneRecv(v) = self.pending.replace(i, Pending::None) else {
                unreachable!("a completed link tail holds its delivery");
            };
            st.queue.push_back(v);
            if !st.offered {
                self.events.push(LinkEvent::Offer(end.peer));
            }
        }
        let next = end.arm(&mut st);
        drop(st);
        self.pending.replace(i, next.unwrap_or_default());
        if dried {
            self.dead.mark(&mut self.pending, i, true);
        }
    }

    /// Take the waker parked on slot `i`, if any, to be woken once the
    /// lock is released.
    fn record_wakes(&mut self, i: usize) {
        let s = &mut self.pending.slots[i];
        if let Some(w) = s.waker.take() {
            self.parked -= 1;
            s.woken = true;
            if s.thread {
                self.stats.wakeups += 1;
            } else {
                self.stats.waker_wakes += 1;
            }
            self.wakes.push(w);
        }
    }

    /// The end of every poll: an outcome leaves the slot clean, `None`
    /// parks `waker` in it (replacing any staler one).
    fn park<T>(&mut self, i: usize, outcome: Option<T>, waker: &Waker, thread: bool) -> Option<T> {
        let s = &mut self.pending.slots[i];
        let woken = std::mem::take(&mut s.woken);
        if outcome.is_none() {
            debug_assert!(!self.dead.stale(), "a waker parks under stale `dead` bits");
            self.stats.spurious_wakeups += u64::from(woken);
            self.parked += usize::from(s.waker.replace(waker.clone()).is_none());
            s.thread = thread;
        }
        outcome
    }

    /// The end of every retraction: nobody waits on slot `i` any more.
    fn unpark(&mut self, i: usize) {
        let s = &mut self.pending.slots[i];
        self.parked -= usize::from(s.waker.take().is_some());
        s.woken = false;
    }
}

/// One sequential protocol engine, shared by all ports it serves.
pub struct Engine {
    inner: Mutex<EngineInner>,
    /// Mirrors `inner.closed`, but settable without the engine lock so that
    /// `close()` can interrupt a long fire loop instead of queueing behind
    /// it (a fire loop may expand large states under the lock).
    closing: AtomicBool,
}

impl Engine {
    /// An engine stepping `core`, named by `names`, its table and store as
    /// wide as the ports and cells of the core's automata, told which of
    /// its ports end a link.
    pub(crate) fn new(core: JitCore, names: Names, ends: &[(PortId, LinkEnd)]) -> Self {
        let mut inner = EngineInner {
            pending: PendingTable::new(names.ports.len()),
            store: Store::of(core.automata.iter().map(Automaton::mem_layout)),
            core,
            names,
            wakes: WakeList::default(),
            link_ends: Vec::new(),
            events: LinkEvents::default(),
            completed: Vec::new(),
            stats: EngineStats::default(),
            multi_link: false,
            closed: false,
            poisoned: None,
            parked: 0,
            dead: Dead::default(),
            panic_after: None,
        };
        Self::set_link_ends(&mut inner, ends);
        let (inner, closing) = (Mutex::new(inner), AtomicBool::new(false));
        Engine { inner, closing }
    }

    /// Take the engine lock and count the acquisition under it: no atomic
    /// per hold. `pub(crate)` for the splice, which holds several affected
    /// engines' guards at once (the link protocol never nests engine locks,
    /// so no cycle exists).
    pub(crate) fn lock(&self) -> MutexGuard<'_, EngineInner> {
        let mut inner = self.inner.lock();
        debug_assert!(
            inner.wakes.first.is_none(),
            "a fire site released the engine lock without delivering its wake list"
        );
        inner.stats.lock_acquisitions += 1;
        inner
    }

    /// Run a port call that can fire: `f` under the engine lock, then — the
    /// lock released — the wake-ups it recorded. The link events raised,
    /// and the fault if the firing poisoned the engine, are added to
    /// `events`, whose owner drains them (`Partitioned::drain`).
    fn firing<R>(&self, events: &mut LinkEvents, f: impl FnOnce(&mut EngineInner) -> R) -> R {
        let mut inner = self.lock();
        let result = f(&mut inner);
        let wakes = std::mem::take(&mut inner.wakes);
        if !inner.events.is_empty() {
            events.counted |= inner.multi_link;
            inner.events.drain_into(events);
        }
        drop(inner);
        wakes.deliver();
        result
    }

    /// Deliver the wake list *before* releasing the guard: the exit of a
    /// cross-region service hold ([`Engine::serve`]) and of `install`
    /// (under guards the splice holds several of at once).
    /// Deferring in the service hold too measured worse on `links` — the
    /// consumer of a buffered link then drains one value per wake; the
    /// numbers are in CHANGES.md, "SIGNAL AFTER UNLOCK", and a deliberate
    /// wake policy for buffered links is ROADMAP's "Spin-then-park and a
    /// buffered-link wake policy" follow-on.
    fn deliver_under_lock(inner: &mut EngineInner) {
        std::mem::take(&mut inner.wakes).deliver();
    }

    /// Number of global execution steps fired so far — the Fig. 12 metric.
    pub fn steps(&self) -> u64 {
        self.lock().stats.steps
    }

    /// Contention counters (see [`EngineStats`]). Reading the stats itself
    /// takes the engine lock once and is counted.
    pub fn stats(&self) -> EngineStats {
        self.lock().stats
    }

    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.lock().core.cache_stats()
    }

    /// Shut down: every pending and future operation returns `Closed`.
    ///
    /// The flag is raised *before* taking the lock so a fire loop in
    /// progress stops at its next step boundary instead of draining every
    /// enabled transition first.
    pub fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        // An in-flight fire loop (or an earlier close) may have observed
        // the flag and closed already: the wakers it took are not here to
        // be woken, or counted, twice. A close raises no link event.
        self.firing(&mut LinkEvents::default(), |inner| {
            inner.closed = true;
            inner.wake_all();
        })
    }

    /// The message of the firing failure that poisoned this engine, if any
    /// (e.g. an expansion overflow mid-run).
    pub fn poison_message(&self) -> Option<String> {
        self.lock().poisoned.clone()
    }

    /// Poison this engine directly (fault fan-out, injected faults): every
    /// pending and future operation reports `Poisoned(msg)`, and every
    /// parked waker is woken. Idempotent; the first
    /// message wins, and an engine that is already closed stays closed.
    pub fn poison(&self, msg: &str) {
        self.firing(&mut LinkEvents::default(), |inner| {
            if inner.poisoned.is_none() && !inner.closed {
                inner.poisoned = Some(msg.to_string());
                inner.closed = true;
                inner.wake_all();
            }
        })
    }

    /// Test-only fault injection: the `n`-th step this engine fires from
    /// now (0 = the very next one) panics *inside the firing* — with the
    /// engine lock held and peers parked, the worst interleaving for the
    /// containment layer (catch → poison → wake). The countdown disarms
    /// itself when it fires; it lives on the engine, so concurrent
    /// sessions in one process cannot consume each other's fault.
    #[doc(hidden)]
    pub fn arm_panic_after_steps(&self, n: u64) {
        self.lock().panic_after = Some(n);
    }

    /// Phaser-style deregistration: mark `p` hung up; if somebody may wait
    /// for it, the analysis (`crate::dead`) runs in this hold and wakes
    /// whom it kills, to [`RuntimeError::Hangup`]. No-op once closed.
    pub fn hangup(&self, p: Slot, events: &mut LinkEvents) {
        self.firing(events, |inner| {
            if !inner.closed {
                inner.hang_up(p.0 as usize);
            }
        })
    }

    /// This engine's part of a session [`Snapshot`], as region `region`,
    /// in one hold: each pending operation — a task's into the report, a
    /// link port's into `armed_links` — its status, and its progress.
    pub(crate) fn scan(&self, region: usize, snap: &mut Snapshot) {
        let mut inner = self.lock();
        let parked = &mut snap.report.parked;
        let before = parked.len();
        for (i, s) in inner.pending.slots.iter().enumerate() {
            let kind = match s.op {
                Pending::Send(_) => ParkedKind::Send,
                Pending::Recv => ParkedKind::Recv,
                _ => continue,
            };
            let port = inner.names.ports[i];
            if inner.link_ends.get(i).is_some_and(Option::is_some) {
                snap.armed_links.insert(port);
            } else {
                parked.push(ParkedOp { port, kind, region });
            }
        }
        let EngineInner { core, pending, .. } = &mut *inner;
        let enabled = core.any_enabled(pending);
        snap.report.regions.push(RegionReport {
            region,
            steps: inner.stats.steps,
            parked_ops: parked.len() - before,
            enabled,
            closed: inner.closed,
            poisoned: inner.poisoned.is_some(),
        });
        snap.progress += inner.stats.steps + inner.stats.completions;
    }

    /// Fire transitions until quiescent, recording a wake-up for exactly
    /// the ports each step completed. Called with the lock held; the
    /// caller delivers the list (`firing`, `deliver_under_lock`).
    ///
    /// A panicking core does **not** unwind out of here: the step runs
    /// under `catch_unwind`, and a caught panic poisons the engine with
    /// the payload message (and leaves the hold as its fault) exactly
    /// like a typed firing error. The core's state may be torn mid-step —
    /// poisoning makes that unobservable. Containing the panic at the
    /// step boundary protects *whichever* thread drove the loop: a task
    /// in a port call or serving a link event, or an executor polling a
    /// future.
    fn fire_loop(&self, inner: &mut EngineInner) {
        if inner.poisoned.is_some() || inner.closed {
            return;
        }
        let mut fired_any = false;
        // Whether a hung-up port completed: its departed task's operation
        // let a dead transition fire.
        let mut revived = false;
        // Whether this hold has moved a value across a link end yet.
        let mut moved = false;
        loop {
            if self.closing.load(Ordering::Relaxed) {
                inner.closed = true;
                inner.wake_all();
                return;
            }
            let EngineInner {
                core,
                pending,
                store,
                completed,
                panic_after,
                ..
            } = inner;
            completed.clear();
            let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r = core.try_step(pending, store, completed);
                if matches!(r, Ok(true)) {
                    // The injected panic fires at a step boundary, inside
                    // the catch — the worst-case interleaving for peers.
                    match panic_after {
                        Some(0) => {
                            *panic_after = None;
                            panic!("injected fault: panic in firing");
                        }
                        Some(left) => *left -= 1,
                        None => {}
                    }
                }
                r
            }));
            match step {
                Ok(Ok(true)) => {
                    fired_any = true;
                    inner.dead.stepped(&inner.core);
                    inner.stats.steps += 1;
                    inner.stats.completions += inner.completed.len() as u64;
                    for i in 0..inner.completed.len() {
                        let slot = inner.completed[i].index();
                        revived |= inner.pending.slots[slot].hungup;
                        if inner.link_ends.get(slot).is_some_and(Option::is_some) {
                            inner.serve_completed(slot);
                            inner.stats.batch_moves += u64::from(!moved);
                            inner.stats.batched_values += 1;
                            moved = true;
                        } else {
                            inner.record_wakes(slot);
                        }
                    }
                }
                Ok(Ok(false)) => break,
                Ok(Err(RuntimeError::Unresolved(UnresolvedPort(p)))) => {
                    let p = UnresolvedPort(inner.names.ports[p.index()]);
                    return Self::poison_locked(inner, RuntimeError::Unresolved(p).to_string());
                }
                Ok(Err(e)) => return Self::poison_locked(inner, e.to_string()),
                Err(payload) => {
                    let msg = format!("panic in firing: {}", panic_message(payload.as_ref()));
                    return Self::poison_locked(inner, msg);
                }
            }
        }
        // Steps drained state (e.g. a buffer emptied): ports that were
        // only alive through that state may now be dead — look again at
        // what moved, so their parked peers resolve `Hangup` instead of
        // blocking.
        if revived {
            inner.dead.rebuild(&mut inner.pending);
        }
        if fired_any && (inner.dead.count > 0 || inner.dead.stale()) {
            inner.refresh_dead();
        }
    }

    /// A firing failed: poison under the already-held lock, and mark the
    /// hold's events so that whoever drains them — this lock released —
    /// poisons the other regions of the session too.
    fn poison_locked(inner: &mut EngineInner, msg: String) {
        inner.events.fault = Some(msg.clone());
        inner.poisoned = Some(msg);
        inner.closed = true;
        inner.wake_all();
    }

    /// Poisoned/closed classification, shared by registration, settling
    /// and the reconfiguration paths.
    pub(crate) fn check_open(inner: &EngineInner) -> Result<(), RuntimeError> {
        if let Some(msg) = &inner.poisoned {
            return Err(RuntimeError::Poisoned(msg.clone()));
        }
        if inner.closed {
            return Err(RuntimeError::Closed);
        }
        Ok(())
    }

    /// Register a send at slot `i` of an open engine and fire what it
    /// enables.
    fn arm_send(&self, inner: &mut EngineInner, i: usize, v: Value) -> Result<(), RuntimeError> {
        if !matches!(inner.pending.slots[i].op, Pending::None) {
            return Err(RuntimeError::PortBusy(inner.names.ports[i]));
        }
        if inner.is_dead(i) {
            return Err(RuntimeError::Hangup(inner.names.ports[i]));
        }
        inner.pending.replace(i, Pending::Send(v));
        self.fire_loop(inner);
        Ok(())
    }

    /// Recv twin of [`Engine::arm_send`].
    ///
    /// A pre-existing *abandoned* `DoneRecv` is not an error: a cancelled
    /// [`RecvFuture`](crate::port::RecvFuture) leaves a delivery that
    /// raced its drop parked in the slot (see [`abandon_recv`]), and this
    /// registration is then already satisfied — the same poll takes it.
    /// A `DoneRecv` whose receiver is alive but not yet woken is
    /// [`PortBusy`](RuntimeError::PortBusy), exactly like its `Recv`
    /// moments earlier — absorbing it here would strand that receiver on
    /// an empty slot.
    ///
    /// [`abandon_recv`]: Engine::abandon_recv
    fn arm_recv(&self, inner: &mut EngineInner, i: usize) -> Result<(), RuntimeError> {
        match inner.pending.slots[i].op {
            Pending::None => {
                if inner.is_dead(i) {
                    return Err(RuntimeError::Hangup(inner.names.ports[i]));
                }
                inner.pending.replace(i, Pending::Recv);
            }
            Pending::DoneRecv(_) => {
                if !std::mem::take(&mut inner.pending.slots[i].abandoned) {
                    return Err(RuntimeError::PortBusy(inner.names.ports[i]));
                }
                return Ok(()); // abandoned delivery: settled right away
            }
            _ => return Err(RuntimeError::PortBusy(inner.names.ports[i])),
        }
        self.fire_loop(inner);
        Ok(())
    }

    /// The outcome of a registered send, once it has one: completed, or
    /// failed by poison, close or hangup. Shared by polling and retraction
    /// so the two cannot drift apart.
    fn settle_send(inner: &mut EngineInner, i: usize) -> Option<Result<(), RuntimeError>> {
        if matches!(inner.pending.slots[i].op, Pending::DoneSend) {
            inner.pending.replace(i, Pending::None);
            return Some(Ok(()));
        }
        Self::settle_failed(inner, i).map(Err)
    }

    /// Recv twin of [`Engine::settle_send`].
    fn settle_recv(inner: &mut EngineInner, i: usize) -> Option<Result<Value, RuntimeError>> {
        if matches!(inner.pending.slots[i].op, Pending::DoneRecv(_)) {
            let Pending::DoneRecv(v) = inner.pending.replace(i, Pending::None) else {
                unreachable!("matched above");
            };
            return Some(Ok(v));
        }
        Self::settle_failed(inner, i).map(Err)
    }

    /// Why a still-incomplete operation at slot `i` never will complete, if so.
    fn settle_failed(inner: &mut EngineInner, i: usize) -> Option<RuntimeError> {
        if let Err(e) = Self::check_open(inner) {
            return Some(e);
        }
        if inner.is_dead(i) {
            // A peer hung up and no reachable transition can ever complete
            // this operation: retract it and report it.
            inner.pending.replace(i, Pending::None);
            return Some(RuntimeError::Hangup(inner.names.ports[i]));
        }
        None
    }

    /// One poll of a send, under **one** engine-lock hold — the whole wait
    /// protocol as the engine sees it.
    ///
    /// First poll (`value` is `Some`): registers `Pending::Send` and fires
    /// what it enables — the common uncontended case completes right here
    /// without ever parking a waker. While the operation stays pending,
    /// `waker` is parked in the port's slot and `None` is returned; a step
    /// that completes the port takes and wakes it, counted as a `wakeup`
    /// when `thread` says a blocked thread stands behind the waker and as
    /// a `waker_wake` otherwise. Close, poison and hangup resolve the poll
    /// with their errors.
    ///
    /// Returns `Some(result)` when the operation has an outcome, `None`
    /// when pending. After `Some`, the registration is consumed — there is
    /// nothing left to retract. The link events of the hold are added to
    /// `events` whatever the outcome.
    pub fn poll_send(
        &self,
        p: Slot,
        value: &mut Option<Value>,
        waker: &Waker,
        thread: bool,
        events: &mut LinkEvents,
    ) -> Option<Result<(), RuntimeError>> {
        let arm = |inner: &mut EngineInner, i| match value.take() {
            Some(v) => Self::check_open(inner).and_then(|()| self.arm_send(inner, i, v)),
            None => Ok(()),
        };
        self.poll(p, arm, Self::settle_send, waker, thread, events)
    }

    /// One poll of a recv, under **one** engine-lock hold; the recv twin
    /// of [`poll_send`]. `registered` tracks whether the operation is
    /// registered already (the caller's state, so a re-poll does not
    /// register again).
    ///
    /// [`poll_send`]: Engine::poll_send
    pub fn poll_recv(
        &self,
        p: Slot,
        registered: &mut bool,
        waker: &Waker,
        thread: bool,
        events: &mut LinkEvents,
    ) -> Option<Result<Value, RuntimeError>> {
        let arm = |inner: &mut EngineInner, i| {
            if !*registered {
                Self::check_open(inner).and_then(|()| self.arm_recv(inner, i))?;
                *registered = true;
            }
            Ok(())
        };
        self.poll(p, arm, Self::settle_recv, waker, thread, events)
    }

    /// What the two polls share: register if that is still to do, settle,
    /// and park the waker if there is no outcome yet.
    fn poll<T>(
        &self,
        p: Slot,
        arm: impl FnOnce(&mut EngineInner, usize) -> Result<(), RuntimeError>,
        settle: impl FnOnce(&mut EngineInner, usize) -> Option<Result<T, RuntimeError>>,
        waker: &Waker,
        thread: bool,
        events: &mut LinkEvents,
    ) -> Option<Result<T, RuntimeError>> {
        self.firing(events, |inner| {
            let i = p.0 as usize;
            inner.freshen();
            if let Err(e) = arm(inner, i) {
                return Some(Err(e));
            }
            let outcome = settle(inner, i);
            inner.park(i, outcome, waker, thread)
        })
    }

    /// Give up on the send a poll left pending at `p`, in one hold:
    /// complete if a step got there first — a `DoneSend` means the value
    /// is *in* the connector, exactly once, and the send succeeded,
    /// whatever made the caller give up —, otherwise withdraw it and
    /// answer [`RuntimeError::Timeout`] (the value never entered the
    /// connector). Transitions only fire under this same lock, so a
    /// withdrawn operation can never be half-consumed. An expired
    /// deadline, a `try_send` that found no taker and a dropped
    /// [`SendFuture`](crate::port::SendFuture) all end here.
    pub fn retract_send(&self, p: Slot) -> Result<(), RuntimeError> {
        self.retract(p, Self::settle_send)
    }

    /// Recv twin of [`retract_send`](Engine::retract_send): a delivery that
    /// raced the retraction is handed out, never dropped. A caller with
    /// nowhere to hand it uses [`abandon_recv`](Engine::abandon_recv).
    pub fn retract_recv(&self, p: Slot) -> Result<Value, RuntimeError> {
        self.retract(p, Self::settle_recv)
    }

    fn retract<T>(
        &self,
        p: Slot,
        settle: impl FnOnce(&mut EngineInner, usize) -> Option<Result<T, RuntimeError>>,
    ) -> Result<T, RuntimeError> {
        let (mut inner, i) = (self.lock(), p.0 as usize);
        inner.unpark(i);
        inner.freshen();
        settle(&mut inner, i).unwrap_or_else(|| {
            inner.pending.replace(i, Pending::None);
            Err(RuntimeError::Timeout)
        })
    }

    /// Drop-retraction of a registered async recv. A pending `Recv` is
    /// withdrawn; a `DoneRecv` is deliberately **left parked** — the
    /// delivery was already committed by a fired step and a dropped future
    /// has nowhere to hand it, so taking it out here would lose the value.
    /// The next receive on this port absorbs it instead ([`poll_recv`]
    /// treats an abandoned `DoneRecv` as an already-satisfied
    /// registration): no loss, no duplication.
    ///
    /// [`poll_recv`]: Engine::poll_recv
    pub fn abandon_recv(&self, p: Slot) {
        let (mut inner, i) = (self.lock(), p.0 as usize);
        match inner.pending.slots[i].op {
            Pending::Recv => _ = inner.pending.replace(i, Pending::None),
            // Mark the parked delivery orphaned so the next registration
            // may absorb it.
            Pending::DoneRecv(_) => inner.pending.slots[i].abandoned = true,
            _ => {}
        }
        inner.unpark(i);
    }

    /// Serve one link event in a hold of its own — the cross-region half
    /// of the link protocol, run by whoever drains the event: look at this
    /// end of the link, the head (`Offer`) or tail (`Rearm`) at `p`, again.
    /// A head whose tail is dead and whose queue is
    /// dry, and a tail whose head is dead, hang up, which may kill this
    /// engine's other link ends and so raise the next events. Otherwise an
    /// `Offer` puts the queue front at this head port, a `Rearm` arms this
    /// tail port while the queue has credit; either then fires what that
    /// enables, and what the fire loop completes it serves itself. The
    /// events this hold raises are added to `events`. Idempotent: a stale
    /// or repeated event (the port spliced out, already armed or hung up,
    /// the engine closed) changes nothing. Wake-ups are delivered before
    /// the lock is released (see `deliver_under_lock`).
    pub(crate) fn serve(&self, p: Slot, head: bool, events: &mut LinkEvents) {
        let mut guard = self.lock();
        let (inner, i) = (&mut *guard, p.0 as usize);
        let end = match inner.link_ends.get(i) {
            Some(Some(end)) if end.head == head && !inner.closed => end,
            _ => return,
        };
        let mut st = end.shared.state.lock();
        let gone = match head {
            true => st.source_dead && st.queue.is_empty(),
            false => st.sink_dead,
        };
        let idle = !gone && matches!(inner.pending.slots[i].op, Pending::None);
        let arm = idle.then(|| end.arm(&mut st)).flatten();
        drop(st);
        if gone {
            inner.hang_up(i);
        } else if let Some(op) = arm {
            inner.pending.replace(i, op);
            self.fire_loop(inner);
        }
        inner.events.drain_into(events);
        Self::deliver_under_lock(inner);
    }

    // ------------------------------------------------------------------
    // Dynamic reconfiguration (`crate::reconfig`). The engine mutex *is* the region
    // quiesce: transitions only fire inside `fire_loop` with it held, so
    // holding it guarantees no in-flight firing. A splice validates, swaps
    // the core/pending/store, and wakes everything; a woken task polls
    // again, against the new tables.
    // ------------------------------------------------------------------

    /// A port a splice removes must be idle — no pending operation, no
    /// parked waker: the port handles of a detaching branch are consumed
    /// before this runs, so anything else is traffic, and refuses.
    pub(crate) fn removal_quiescent(inner: &EngineInner, i: usize) -> Result<(), RuntimeError> {
        let (slot, p) = (&inner.pending.slots[i], inner.names.ports[i]);
        let busy = match (&slot.op, &slot.waker) {
            (Pending::None, None) => return Ok(()),
            (Pending::None, Some(_)) => "a blocked task",
            _ => "a pending operation",
        };
        let msg = format!("port {p} of the detaching branch has {busy}");
        Err(RuntimeError::Reconfig(msg))
    }

    /// Tell a locked engine which of its ports (in the region's ids) are
    /// link ends (all of them: the table is replaced). A partition does
    /// this when it builds a region and when a splice changes its border.
    pub(crate) fn set_link_ends(inner: &mut EngineInner, ends: &[(PortId, LinkEnd)]) {
        let (width, any) = (inner.pending.len(), !ends.is_empty());
        let mut table = vec![None; if any { width } else { 0 }];
        for (p, end) in ends {
            table[p.index()] = Some(end.clone());
        }
        inner.link_ends = table;
        inner.multi_link = ends.len() >= 2;
    }

    /// Splice a held engine: swap in the `recomposed` core and names, if
    /// its members changed, widening the port table and the store to the
    /// ports and cells that came with them. A port keeps its slot and a
    /// cell its place, so blocked tasks and buffered values stay where
    /// they are; a cell that came starts from its layout, past the store's
    /// end or in the place of one the splice removed. A port the splice
    /// removed was cleared by it, after
    /// [`removal_quiescent`](Self::removal_quiescent). Rebuild the
    /// link-end table from `ends`.
    /// Fires whatever the core enables and wakes every parked waker —
    /// under the lock, see `deliver_under_lock` — so every pending
    /// operation is polled again, against the new tables. What that firing
    /// leaves for other engines goes onto `events`: the splice
    /// drains them once its guards are dropped.
    pub(crate) fn install(
        &self,
        inner: &mut EngineInner,
        recomposed: Option<(JitCore, Names)>,
        ends: &[(PortId, LinkEnd)],
        events: &mut LinkEvents,
    ) {
        if let Some((core, names)) = recomposed {
            inner.pending.grow(names.ports.len());
            let layouts = core.automata.iter().map(Automaton::mem_layout);
            let cells: MemLayout = layouts.flat_map(MemLayout::iter).collect();
            let old = std::mem::replace(&mut inner.names, names);
            let kept = |m: MemId| old.cells.get(m.index()) == inner.names.cells.get(m.index());
            inner.store.grow(&cells, kept);
            inner.core = core;
        }
        Self::set_link_ends(inner, ends);
        // The hangup marks came along in the slots; deadness depends on the
        // (new) core and state, so recompute the bits — a splice can revive
        // a port (a fresh branch replaces a departed peer) or kill one (its
        // last live transition left with a branch).
        inner.dead.rebuild(&mut inner.pending);
        inner.refresh_dead();
        self.fire_loop(inner);
        inner.wake_all();
        inner.events.drain_into(events);
        Self::deliver_under_lock(inner);
    }
}

/// Port calls on a bare engine, for this crate's unit tests, by the
/// region's ids: the blocking ones are [`crate::port::block_on`] — the
/// loop the port handles run — without a partition in between.
#[cfg(test)]
impl Engine {
    pub(crate) fn send(&self, p: PortId, v: Value) -> Result<(), RuntimeError> {
        self.send_until(p, Some(v), None)
    }

    pub(crate) fn recv(&self, p: PortId) -> Result<Value, RuntimeError> {
        self.recv_until(p, false, None)
    }

    /// `v` is `None` for a send that [`offer`](Self::offer) registered.
    pub(crate) fn send_until(
        &self,
        p: PortId,
        mut v: Option<Value>,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), RuntimeError> {
        let p = Slot(p.0);
        crate::port::block_on(
            deadline,
            |waker| self.poll_send(p, &mut v, waker, true, &mut LinkEvents::default()),
            || self.retract_send(p),
        )
    }

    pub(crate) fn recv_until(
        &self,
        p: PortId,
        mut registered: bool,
        deadline: Option<std::time::Instant>,
    ) -> Result<Value, RuntimeError> {
        let p = Slot(p.0);
        crate::port::block_on(
            deadline,
            |waker| self.poll_recv(p, &mut registered, waker, true, &mut LinkEvents::default()),
            || self.retract_recv(p),
        )
    }

    /// The first poll of a send and no more: `None` leaves it registered,
    /// with nobody parked behind it.
    pub(crate) fn offer(&self, p: PortId, v: Value) -> Option<Result<(), RuntimeError>> {
        self.poll_send(
            Slot(p.0),
            &mut Some(v),
            Waker::noop(),
            false,
            &mut LinkEvents::default(),
        )
    }

    /// The hangups not analysed yet of ports no constituent of the core
    /// owns, by the session's ids (a splice clears what it removes).
    pub(crate) fn unserved_hangups(&self) -> Vec<PortId> {
        let inner = self.lock();
        let served = |p: PortId| !inner.core.owners.of(p).is_empty();
        (inner.dead.unseen.iter().copied())
            .filter(|&p| !served(p))
            .map(|p| inner.names.ports[p.index()])
            .collect()
    }
}

#[cfg(test)]
impl Names {
    /// Each port and cell of `automata` named by itself, up to the highest:
    /// a unit test's automata are in their region's ids already.
    pub(crate) fn dense(automata: &[Automaton]) -> Names {
        let ports = automata
            .iter()
            .flat_map(|a| a.ports().iter().map(|p| p.0 + 1));
        let cells = automata
            .iter()
            .flat_map(|a| a.mem_ids().iter().map(|m| m.0 + 1));
        Names {
            ports: (0..ports.max().unwrap_or(0)).map(PortId).collect(),
            cells: (0..cells.max().unwrap_or(0)).map(MemId).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_automata::primitives;
    use std::time::Instant;

    /// An engine over `auts`, in their own ids.
    fn engine_of(auts: Vec<Automaton>) -> Engine {
        let names = Names::dense(&auts);
        Engine::new(JitCore::new(auts, 1 << 20), names, &[])
    }

    /// `n` independent fifo1s in one engine (disjoint ports 2i -> 2i+1).
    fn fifos_engine(n: u32) -> Engine {
        let fifo = |i| primitives::fifo1(PortId(2 * i), PortId(2 * i + 1), reo_automata::MemId(i));
        engine_of((0..n).map(fifo).collect())
    }

    #[test]
    fn fifo_send_completes_immediately_recv_after() {
        let eng = fifos_engine(1);
        eng.send(PortId(0), Value::Int(7)).unwrap();
        let v = eng.recv(PortId(1)).unwrap();
        assert_eq!(v.as_int(), Some(7));
        assert_eq!(eng.steps(), 2);
    }

    #[test]
    fn sparse_port_map_serves_non_contiguous_ids() {
        // The same fifo behaviour, but over session ids {3, 17} renamed to
        // the region's own ids — the allocation is 2 slots, not 18, and an
        // error names the session's id.
        let aut = primitives::fifo1(PortId(0), PortId(1), reo_automata::MemId(0));
        let names = Names {
            ports: vec![PortId(3), PortId(17)],
            cells: vec![reo_automata::MemId(5)],
        };
        let eng = Engine::new(JitCore::new(vec![aut], 1 << 20), names, &[]);
        assert_eq!(eng.lock().pending.len(), 2);
        eng.send(PortId(0), Value::Int(9)).unwrap();
        assert_eq!(eng.recv(PortId(1)).unwrap().as_int(), Some(9));
        eng.send(PortId(0), Value::Int(1)).unwrap();
        assert!(eng.offer(PortId(0), Value::Int(2)).is_none());
        let busy = eng.offer(PortId(0), Value::Int(3));
        assert!(matches!(busy, Some(Err(RuntimeError::PortBusy(PortId(3))))));
    }

    #[test]
    fn sync_blocks_until_both_sides_arrive() {
        use std::sync::Arc;
        let eng = Arc::new(engine_of(vec![primitives::sync(PortId(0), PortId(1))]));
        let e2 = Arc::clone(&eng);
        let receiver = std::thread::spawn(move || e2.recv(PortId(1)).unwrap());
        // Give the receiver a chance to block first (not strictly needed).
        std::thread::yield_now();
        eng.send(PortId(0), Value::Int(3)).unwrap();
        let got = receiver.join().unwrap();
        assert_eq!(got.as_int(), Some(3));
        assert_eq!(eng.steps(), 1);
    }

    #[test]
    fn double_operation_on_port_rejected() {
        let eng = fifos_engine(1);
        // Fill the buffer, then a second send is *pending* (buffer full);
        // a third register on the same port must be refused.
        eng.send(PortId(0), Value::Int(1)).unwrap();
        assert!(eng.offer(PortId(0), Value::Int(2)).is_none());
        assert!(matches!(
            eng.offer(PortId(0), Value::Int(3)),
            Some(Err(RuntimeError::PortBusy(_)))
        ));
    }

    #[test]
    fn lossy_completes_send_even_without_receiver() {
        let eng = engine_of(vec![primitives::lossy(PortId(0), PortId(1))]);
        eng.send(PortId(0), Value::Int(9)).unwrap();
        assert_eq!(eng.steps(), 1);
    }

    #[test]
    fn timed_out_send_is_retracted_and_port_reusable() {
        use std::time::Duration;
        let eng = engine_of(vec![primitives::sync(PortId(0), PortId(1))]);
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        assert!(matches!(
            eng.send_until(PortId(0), Some(Value::Int(1)), deadline),
            Err(RuntimeError::Timeout)
        ));
        // The slot is free again: a fresh registration must not be PortBusy.
        assert!(eng.offer(PortId(0), Value::Int(2)).is_none());
        // And the retracted value must not have leaked into the connector:
        // the receiver gets the *new* value.
        assert_eq!(eng.recv(PortId(1)).unwrap().as_int(), Some(2));
        eng.send_until(PortId(0), None, None).unwrap();
        assert_eq!(eng.steps(), 1, "exactly one firing: no loss, no duplicate");
    }

    #[test]
    fn timed_out_recv_is_retracted_and_port_reusable() {
        use std::time::Duration;
        let eng = fifos_engine(1);
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        assert!(matches!(
            eng.recv_until(PortId(1), false, deadline),
            Err(RuntimeError::Timeout)
        ));
        // Buffer a value, then receive it through the same (freed) port.
        eng.send(PortId(0), Value::Int(5)).unwrap();
        assert_eq!(eng.recv(PortId(1)).unwrap().as_int(), Some(5));
    }

    #[test]
    fn done_at_expiry_still_completes() {
        // A completion that lands exactly as (or before) the deadline
        // expires must win over the retraction.
        let eng = fifos_engine(1);
        // The fifo accepts in the first poll: an already-expired deadline
        // must still report success.
        let past = Some(Instant::now() - std::time::Duration::from_millis(1));
        eng.send_until(PortId(0), Some(Value::Int(7)), past)
            .unwrap();
        assert_eq!(eng.recv(PortId(1)).unwrap().as_int(), Some(7));
        // The buffer is empty again: this receive is pending when its
        // deadline passes, a step completes it, and then it is retracted.
        assert!(eng
            .poll_recv(
                Slot(1),
                &mut false,
                Waker::noop(),
                true,
                &mut LinkEvents::default()
            )
            .is_none());
        eng.send(PortId(0), Value::Int(8)).unwrap();
        assert_eq!(eng.retract_recv(Slot(1)).unwrap().as_int(), Some(8));
        let stats = eng.stats();
        assert_eq!((stats.wakeups, stats.spurious_wakeups), (1, 0));
    }

    #[test]
    fn try_probes_complete_or_retract() {
        let eng = fifos_engine(1);
        // A probe is one poll and, if that is pending, a retraction.
        let try_send = |v| {
            eng.offer(PortId(0), Value::Int(v))
                .unwrap_or_else(|| eng.retract_send(Slot(0)))
        };
        let try_recv = || {
            eng.poll_recv(
                Slot(1),
                &mut false,
                Waker::noop(),
                false,
                &mut LinkEvents::default(),
            )
            .unwrap_or_else(|| eng.retract_recv(Slot(1)))
        };
        // Empty buffer: a recv probe retracts.
        assert!(matches!(try_recv(), Err(RuntimeError::Timeout)));
        // Send fills the buffer in one step: the probe acknowledges.
        try_send(3).unwrap();
        // Full buffer: a second send probe retracts, value re-sendable.
        assert!(matches!(try_send(4), Err(RuntimeError::Timeout)));
        // The buffered value is intact.
        assert_eq!(try_recv().unwrap().as_int(), Some(3));
    }

    #[test]
    fn targeted_wakeup_wakes_only_the_completed_port() {
        // Two independent fifos in one engine: a send on fifo A must not
        // wake the task blocked on fifo B's output.
        use std::sync::Arc;
        let eng = Arc::new(fifos_engine(2));

        let e2 = Arc::clone(&eng);
        let blocked = std::thread::spawn(move || {
            // Blocks: fifo B (ports 2 -> 3) is empty and stays empty.
            e2.recv(PortId(3))
        });
        // Wait until the B-receiver is actually blocked.
        while eng.lock().pending.slots[3].waker.is_none() {
            std::thread::yield_now();
        }
        let before = eng.stats();
        // Traffic on fifo A (ports 0 -> 1): completes without waking B.
        for k in 0..50 {
            eng.send(PortId(0), Value::Int(k)).unwrap();
            eng.recv(PortId(1)).unwrap();
        }
        let after = eng.stats();
        assert_eq!(
            after.wakeups, before.wakeups,
            "A-traffic must not wake the B-waiter"
        );
        assert!(after.completions >= before.completions + 100);
        eng.close();
        assert!(matches!(blocked.join().unwrap(), Err(RuntimeError::Closed)));
        // Close wakes the one blocked task, exactly once.
        assert_eq!(eng.stats().wakeups, after.wakeups + 1);
    }

    #[test]
    fn close_wakes_each_parked_receiver_once() {
        use std::sync::Arc;
        let eng = Arc::new(fifos_engine(8));
        let parked: Vec<_> = (0..8)
            .map(|i| {
                let eng = Arc::clone(&eng);
                std::thread::spawn(move || eng.recv(PortId(2 * i + 1)))
            })
            .collect();
        while eng
            .lock()
            .pending
            .slots
            .iter()
            .filter(|s| s.waker.is_some())
            .count()
            < 8
        {
            std::thread::yield_now();
        }
        eng.close();
        for t in parked {
            assert!(matches!(t.join().unwrap(), Err(RuntimeError::Closed)));
        }
        let stats = eng.stats();
        assert_eq!((stats.wakeups, stats.spurious_wakeups), (8, 0));
    }

    /// A waker that records whether the engine mutex was free when it ran.
    struct LockProbe {
        eng: std::sync::Arc<Engine>,
        free: Mutex<Vec<bool>>,
    }

    impl std::task::Wake for LockProbe {
        fn wake(self: std::sync::Arc<Self>) {
            let free = self.eng.inner.try_lock().is_some();
            self.free.lock().push(free);
        }
    }

    /// Whoever parked the waker, a blocking caller or a task. The exception
    /// is the hold that serves a link event for another region
    /// (`Engine::serve`).
    #[test]
    fn wakes_follow_the_unlock_except_in_serve() {
        use std::sync::Arc;
        let eng = Arc::new(engine_of(vec![primitives::sync(PortId(0), PortId(1))]));
        let probe = Arc::new(LockProbe {
            eng: Arc::clone(&eng),
            free: Mutex::new(Vec::new()),
        });
        let waker = Waker::from(Arc::clone(&probe));
        let park = |thread| {
            let first = eng.poll_recv(
                Slot(1),
                &mut false,
                &waker,
                thread,
                &mut LinkEvents::default(),
            );
            assert!(first.is_none());
        };
        let take = || match eng.poll_recv(
            Slot(1),
            &mut true,
            &waker,
            false,
            &mut LinkEvents::default(),
        ) {
            Some(Ok(v)) => v.as_int(),
            other => panic!("no delivery: {other:?}"),
        };

        // A port call completes it: woken after the unlock, whether the
        // waker stands for a blocked thread or for a task.
        for (v, thread) in [(0, true), (1, false)] {
            park(thread);
            eng.send(PortId(0), Value::Int(v)).unwrap();
            assert_eq!(take(), Some(v));
        }

        park(true); // a link service hold completes it: the documented exception
        let shared = Arc::new(LinkShared {
            capacity: Some(1),
            state: Mutex::new(LinkState::default()),
        });
        shared.state.lock().queue.push_back(Value::Int(2));
        let head = LinkEnd {
            head: true,
            peer: PortId(9),
            shared: Arc::clone(&shared),
        };
        Engine::set_link_ends(&mut eng.lock(), &[(PortId(0), head)]);
        let mut events = LinkEvents::default();
        eng.serve(Slot(0), true, &mut events);
        assert_eq!(take(), Some(2));
        // The same hold acknowledged the front it offered.
        assert!(shared.state.lock().queue.is_empty() && events.is_empty());

        park(true); // close: after the unlock again
        eng.close();
        assert_eq!(*probe.free.lock(), [true, true, false, true]);
        let stats = eng.stats();
        assert_eq!((stats.wakeups, stats.waker_wakes), (3, 1));
    }
}
