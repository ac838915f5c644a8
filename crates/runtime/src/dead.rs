//! The hangup analysis: which ports can never fire again.
//!
//! A dropped handle marks its port's slot `hungup`, as a task leaves a
//! phaser. A port is *dead* once no step reachable without a dead port
//! synchronizes it; its operations then answer
//! [`RuntimeError::Hangup`](crate::RuntimeError::Hangup). That answer is a
//! `dead` bit at the same slot of the port table, grown from what hung up
//! or moved since the analysis last ran; the engine wakes whom it kills
//! and tells its links.

use std::collections::HashSet;

use reo_automata::{Automaton, PortId, StateId};

use crate::engine::PendingTable;
use crate::jit::JitCore;

/// One engine's hangup analysis, besides the bits in its port table.
#[derive(Default)]
pub(crate) struct Dead {
    /// Slots whose `dead` bit is set: while 0, no port needs a lookup.
    pub(crate) count: usize,
    /// Hung up since the last analysis, each port once; in `spread`, the
    /// frontier. **Stale ⇒ no waker is parked** (see [`due`](Self::due)).
    pub(crate) unseen: Vec<PortId>,
    /// The constituents steps moved while a port was dead: a drained buffer may kill a port.
    moved: Vec<u32>,
    /// The (constituent, local state) pairs walked under these bits.
    walked: HashSet<(u32, StateId)>,
    /// The slots the last analysis killed.
    pub(crate) newly: Vec<usize>,
    /// Walk scratch, reused: a state is seen, a slot marked, at the stamp;
    /// `sync` holds one transition's slots.
    stamp: u64,
    seen: Vec<u64>,
    marks: Vec<u64>,
    stack: Vec<StateId>,
    sync: Vec<usize>,
    /// The oracle's own analysis and table, reused from check to check.
    #[cfg(debug_assertions)]
    oracle: Option<Box<(Dead, PendingTable)>>,
}

impl Dead {
    /// Whether a hangup waits to be analysed.
    pub(crate) fn stale(&self) -> bool {
        !self.unseen.is_empty()
    }

    /// Whether a hangup is analysed in its own hold: when somebody may wait
    /// for it (`parked` wakers, or a link's neighbour), not at a teardown.
    pub(crate) fn due(&self, parked: usize, links: bool) -> bool {
        self.stale() && (parked > 0 || links)
    }

    /// Mark slot `i` hung up, or forget that it did (a splice took away the
    /// cause). A new mark is the next analysis's frontier.
    pub(crate) fn mark(&mut self, table: &mut PendingTable, i: usize, on: bool) {
        if !std::mem::replace(&mut table.slots[i].hungup, on) && on {
            self.unseen.push(table.port_map().ids()[i]);
        }
    }

    /// Note what the step `core` just fired moved, while a port is dead.
    #[inline]
    pub(crate) fn stepped(&mut self, core: &JitCore) {
        if self.count > 0 {
            self.moved.extend(core.fired_moves().iter().map(|m| m.0));
        }
    }

    /// Bring the bits up to date, leaving the slots killed in `newly` and
    /// returning the walks; in debug builds, held to the oracle: the same
    /// analysis from scratch and memo-free, over a table of its own.
    pub(crate) fn grow(&mut self, core: &JitCore, table: &mut PendingTable) -> u64 {
        let walks = self.spread(core, table, true);
        #[cfg(debug_assertions)]
        {
            let map = table.port_map();
            let new = || Box::new((Dead::default(), PendingTable::new(map.clone())));
            let (fresh, own) = &mut **self.oracle.get_or_insert_with(new);
            if own.port_map().ids() != map.ids() {
                *own = PendingTable::new(map.clone()); // a splice changed the map
            }
            (own.slots.iter_mut().zip(&*table.slots)).for_each(|(o, s)| o.hungup = s.hungup);
            fresh.rebuild(own);
            fresh.spread(core, own, false);
            let wrong = (own.dead.iter().zip(&*table.dead)).position(|(o, t)| o != t);
            assert_eq!((wrong, self.count), (None, fresh.count), "the oracle");
        }
        walks
    }

    /// Start over where deadness may have *shrunk* (a splice, or a dead step
    /// a departed task's stale operation fired): every hung-up port is next.
    pub(crate) fn rebuild(&mut self, table: &mut PendingTable) {
        self.unseen.clear();
        table.dead.fill(0);
        let ports = table.port_map().ids().iter().zip(&*table.slots);
        self.unseen
            .extend(ports.filter_map(|(&p, s)| s.hungup.then_some(p)));
        self.count = 0;
        self.moved.clear();
        self.walked.clear();
    }

    /// Per-constituent reachability, to a fixpoint: the local states reached
    /// via live transitions (syncing no dead port) over-approximate the
    /// global reach, so a port some constituent no longer synchronizes there
    /// is dead. A round kills the frontier, then walks the moved constituents
    /// and the frontier's owners that touch a dead port (`memo`: once each).
    fn spread(&mut self, core: &JitCore, table: &mut PendingTable, memo: bool) -> u64 {
        let (mut walks, mut due) = (0, std::mem::take(&mut self.moved));
        self.newly.clear();
        while !(due.is_empty() && self.unseen.is_empty()) {
            if memo && self.stale() {
                self.walked.clear();
            }
            for &p in &self.unseen {
                let i = table.port_map().slot(p);
                if !table.kill(i) {
                    self.count += 1;
                    self.newly.push(i);
                }
                due.extend(core.owners.of(p));
            }
            self.unseen.clear();
            due.sort_unstable();
            due.dedup();
            for c in due.drain(..) {
                let (a, at) = (&core.automata[c as usize], core.states.get(c as usize));
                let map = table.port_map();
                let touched = a.ports().iter().any(|p| table.is_dead(map.slot(p)));
                if touched && (!memo || self.walked.insert((c, at))) {
                    walks += 1;
                    self.unsynced(a, at, table);
                }
            }
        }
        self.moved = due;
        walks
    }

    /// Visit the states of `a` reachable from `start` via live transitions,
    /// marking the slots they synchronize, and add each port of `a` left
    /// unmarked and not dead yet to the frontier: no firing can involve it.
    /// Each port of a transition is looked up once.
    fn unsynced(&mut self, a: &Automaton, start: StateId, table: &PendingTable) {
        let map = table.port_map();
        self.stamp += 1;
        self.seen.resize(self.seen.len().max(a.state_count()), 0);
        self.marks.resize(self.marks.len().max(map.len()), 0);
        self.seen[start.index()] = self.stamp;
        self.stack.push(start);
        while let Some(s) = self.stack.pop() {
            for t in a.transitions_from(s) {
                self.sync.clear();
                self.sync.extend(t.sync.iter().map(|p| map.slot(p)));
                if self.sync.iter().any(|&i| table.is_dead(i)) {
                    continue; // dead transition: requires a departed port
                }
                self.sync.iter().for_each(|&i| self.marks[i] = self.stamp);
                if std::mem::replace(&mut self.seen[t.target.index()], self.stamp) != self.stamp {
                    self.stack.push(t.target);
                }
            }
        }
        let ports = a.ports().iter().map(|p| (p, map.slot(p)));
        let left = ports.filter(|&(_, i)| self.marks[i] != self.stamp && !table.is_dead(i));
        self.unseen.extend(left.map(|(p, _)| p));
    }
}
