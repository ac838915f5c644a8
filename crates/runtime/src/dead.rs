//! The hangup analysis: which ports can never fire again.
//!
//! A dropped handle marks its port's slot `hungup`, as a task leaves a
//! phaser. A port is *dead* once no step reachable without a dead port
//! synchronizes it; its operations then answer
//! [`RuntimeError::Hangup`](crate::RuntimeError::Hangup). That answer is a
//! `dead` bit in the same slot, grown from what hung up or moved since the
//! analysis last ran; the engine wakes whom it kills and tells its links.

use std::collections::HashSet;

use reo_automata::{Automaton, PortId, StateId};

use crate::engine::{PortMap, PortSlot};
use crate::jit::JitCore;

/// One engine's hangup analysis, besides the bits in its slots.
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
    /// Walk scratch, reused: a state is seen, a slot marked, at the stamp.
    stamp: u64,
    seen: Vec<u64>,
    marks: Vec<u64>,
    stack: Vec<StateId>,
    /// The oracle's own analysis and slots, reused from check to check.
    #[cfg(debug_assertions)]
    oracle: Option<Box<(Dead, Vec<PortSlot>)>>,
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

    /// Mark `p` hung up, or forget that it did (a splice took away the
    /// cause). A new mark is the next analysis's frontier.
    pub(crate) fn mark(&mut self, map: &PortMap, slots: &mut [PortSlot], p: PortId, on: bool) {
        if !std::mem::replace(&mut slots[map.slot(p)].hungup, on) && on {
            self.unseen.push(p);
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
    pub(crate) fn grow(&mut self, core: &JitCore, map: &PortMap, slots: &mut [PortSlot]) -> u64 {
        let walks = self.spread(core, map, slots, true);
        #[cfg(debug_assertions)]
        {
            let (fresh, own) = &mut **self.oracle.get_or_insert_default();
            own.resize_with(slots.len(), PortSlot::default);
            (own.iter_mut().zip(&*slots)).for_each(|(o, s)| o.hungup = s.hungup);
            fresh.rebuild(map, own);
            fresh.spread(core, map, own, false);
            let wrong = own.iter().zip(&*slots).position(|(o, s)| o.dead != s.dead);
            assert_eq!((wrong, self.count), (None, fresh.count), "the oracle");
        }
        walks
    }

    /// Start over where deadness may have *shrunk* (a splice, or a dead step
    /// a departed task's stale operation fired): every hung-up port is next.
    pub(crate) fn rebuild(&mut self, map: &PortMap, slots: &mut [PortSlot]) {
        self.unseen.clear();
        for (p, slot) in map.iter().zip(slots) {
            slot.dead = false;
            self.unseen.extend(slot.hungup.then_some(p));
        }
        self.count = 0;
        self.moved.clear();
        self.walked.clear();
    }

    /// Per-constituent reachability, to a fixpoint: the local states reached
    /// via live transitions (syncing no dead port) over-approximate the
    /// global reach, so a port some constituent no longer synchronizes there
    /// is dead. A round kills the frontier, then walks the moved constituents
    /// and the frontier's owners that touch a dead port (`memo`: once each).
    fn spread(&mut self, core: &JitCore, map: &PortMap, bits: &mut [PortSlot], memo: bool) -> u64 {
        let (mut walks, mut due) = (0, std::mem::take(&mut self.moved));
        self.newly.clear();
        while !(due.is_empty() && self.unseen.is_empty()) {
            if memo && self.stale() {
                self.walked.clear();
            }
            for &p in &self.unseen {
                let slot = map.slot(p);
                if !std::mem::replace(&mut bits[slot].dead, true) {
                    self.count += 1;
                    self.newly.push(slot);
                }
                due.extend(core.owners.of(p));
            }
            self.unseen.clear();
            due.sort_unstable();
            due.dedup();
            for i in due.drain(..) {
                let (a, at) = (&core.automata[i as usize], core.states.get(i as usize));
                let touched = a.ports().iter().any(|p| bits[map.slot(p)].dead);
                if touched && (!memo || self.walked.insert((i, at))) {
                    walks += 1;
                    self.unsynced(a, at, map, bits);
                }
            }
        }
        self.moved = due;
        walks
    }

    /// Visit the states of `a` reachable from `start` via live transitions,
    /// marking the ports they synchronize, and add each port of `a` left
    /// unmarked and not dead yet to the frontier: no firing can involve it.
    fn unsynced(&mut self, a: &Automaton, start: StateId, map: &PortMap, bits: &[PortSlot]) {
        self.stamp += 1;
        self.seen.resize(self.seen.len().max(a.state_count()), 0);
        self.marks.resize(self.marks.len().max(map.len()), 0);
        self.seen[start.index()] = self.stamp;
        self.stack.push(start);
        while let Some(s) = self.stack.pop() {
            for t in a.transitions_from(s) {
                if t.sync.iter().any(|p| bits[map.slot(p)].dead) {
                    continue; // dead transition: requires a departed port
                }
                (t.sync.iter()).for_each(|p| self.marks[map.slot(p)] = self.stamp);
                if std::mem::replace(&mut self.seen[t.target.index()], self.stamp) != self.stamp {
                    self.stack.push(t.target);
                }
            }
        }
        let ports = a.ports().iter().map(|p| (p, map.slot(p)));
        let left = ports.filter(|&(_, s)| self.marks[s] != self.stamp && !bits[s].dead);
        self.unseen.extend(left.map(|(p, _)| p));
    }
}
