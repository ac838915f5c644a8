//! Connected steps of a state tuple: the one enumerator under both the
//! eager product ([`mod@crate::product`]) and just-in-time expansion
//! (`reo_runtime::jit`).
//!
//! A **connected step** at a tuple of constituent states is a set of local
//! transitions, one per participating automaton, that agree on shared
//! ports, whose participants are linked to one another through *fired*
//! shared ports, and that is closed: every automaton that owns a fired port
//! participates and fires exactly those of its ports; everyone else idles.
//! A step is grown from a seed transition through the port → owner index
//! and kept only when the seed is its lowest-index participant, so each
//! appears once and growing it costs its own neighbourhood rather than all
//! `n` automata.
//!
//! A step of × (Eq. 1) picks at most one local transition per automaton, so
//! it falls apart into connected steps with pairwise disjoint participants;
//! conversely a closed step fires no port of a non-participant, so any such
//! set agrees on ∅ and is a step of ×. The product emits those sets, the
//! JIT fires their members one at a time.

use crate::automaton::{Automaton, StateId, Transition};
use crate::port::{PortId, PortSet};

/// One participant's part in a connected step: the automaton, the local
/// state it leaves, and which of that state's transitions it takes.
pub type Choice = (u32, StateId, u32);

/// Who owns which port, over a list of automata.
pub struct PortOwners {
    /// Per-automaton port signatures.
    ports: Vec<PortSet>,
    /// `(port, automaton)` pairs sorted by port, so a step grows through
    /// its own neighbourhood, not all `n` automata.
    owners: Vec<(PortId, usize)>,
}

/// The partial step an enumeration is growing, and the steps it has found.
struct Partial<'a, S> {
    index: &'a PortOwners,
    automata: &'a [Automaton],
    state: S,
    budget: usize,
    /// Per automaton, which of its transitions it takes in the partial step.
    chosen: Vec<Option<u32>>,
    /// The automata that have one, in joining order.
    members: Vec<u32>,
    out: Vec<Box<[Choice]>>,
}

impl PortOwners {
    pub fn new(automata: &[Automaton]) -> Self {
        let ports: Vec<PortSet> = automata.iter().map(|a| a.ports()).collect();
        let mut owners: Vec<(PortId, usize)> = (ports.iter().enumerate())
            .flat_map(|(i, ps)| ps.iter().map(move |p| (p, i)))
            .collect();
        owners.sort_unstable();
        PortOwners { ports, owners }
    }

    /// The port signature of automaton `i`.
    pub fn signature(&self, i: usize) -> &PortSet {
        &self.ports[i]
    }

    /// Automata whose signature contains `p` (index range into `owners`).
    pub fn of(&self, p: PortId) -> impl Iterator<Item = usize> + '_ {
        let lo = self.owners.partition_point(|&(q, _)| q < p);
        self.owners[lo..]
            .iter()
            .take_while(move |&&(q, _)| q == p)
            .map(|&(_, i)| i)
    }

    /// Every connected step of `automata` (the list this index was built
    /// over) at the tuple `state(i)`, each exactly once and sorted by
    /// participant: by seed — its lowest-index participant — then by the
    /// seed's transition, then depth-first. `Err(count)` as soon as more
    /// than `budget` are found.
    pub fn connected_steps(
        &self,
        automata: &[Automaton],
        state: impl Fn(usize) -> StateId,
        budget: usize,
    ) -> Result<Vec<Box<[Choice]>>, usize> {
        let mut partial = Partial {
            index: self,
            automata,
            state,
            budget,
            chosen: vec![None; automata.len()],
            members: Vec::new(),
            out: Vec::new(),
        };
        for (seed, automaton) in automata.iter().enumerate() {
            let from = automaton.transitions_from((partial.state)(seed));
            for (k, t) in from.iter().enumerate() {
                partial.join(seed, k);
                partial.grow(seed, &t.sync, &self.ports[seed])?;
                partial.leave(seed);
            }
        }
        Ok(partial.out)
    }
}

impl<S: Fn(usize) -> StateId> Partial<'_, S> {
    fn join(&mut self, automaton: usize, transition: usize) {
        self.chosen[automaton] = Some(transition as u32);
        self.members.push(automaton as u32);
    }

    fn leave(&mut self, automaton: usize) {
        self.chosen[automaton] = None;
        self.members.pop();
    }

    /// Close the partial step under "every automaton touching a fired port
    /// joins". `fired` is the union of the chosen labels, `joined` the
    /// union of the chosen automata's signatures.
    fn grow(&mut self, seed: usize, fired: &PortSet, joined: &PortSet) -> Result<(), usize> {
        let next = fired
            .iter()
            .flat_map(|p| self.index.of(p))
            .filter(|&j| self.chosen[j].is_none())
            .min();
        let Some(j) = next else {
            let mut members = self.members.clone();
            members.sort_unstable();
            let choice = members.into_iter().map(|i| {
                let k = self.chosen[i as usize].expect("members have chosen");
                (i, (self.state)(i as usize), k)
            });
            self.out.push(choice.collect());
            if self.out.len() > self.budget {
                return Err(self.out.len());
            }
            return Ok(());
        };
        if j < seed {
            return Ok(()); // emitted from seed `j`
        }
        // `j` must fire exactly the fired ports it shares with the step so
        // far, and no silent port of an automaton that already joined.
        let required = fired.intersection(&self.index.ports[j]);
        let with_j = joined.union(&self.index.ports[j]);
        let from = self.automata[j].transitions_from((self.state)(j));
        for (k, u) in from.iter().enumerate() {
            if u.sync.intersection(joined) != required {
                continue;
            }
            self.join(j, k);
            self.grow(seed, &fired.union(&u.sync), &with_j)?;
            self.leave(j);
        }
        Ok(())
    }
}

/// The transition a choice vector composes to, taken in the order given
/// (ascending constituent order everywhere): union label, conjoined guard,
/// concatenated assignments and pops. Its `target` is the caller's to set.
pub fn compose(automata: &[Automaton], choice: &[Choice]) -> Transition {
    let local = |&(i, from, k): &Choice| &automata[i as usize].transitions_from(from)[k as usize];
    let sync = choice.iter().flat_map(|c| local(c).sync.iter()).collect();
    let mut step = Transition::new(sync, StateId(0));
    for t in choice.iter().map(local) {
        step.guard = std::mem::take(&mut step.guard).and(t.guard.clone());
        step.assigns.extend(t.assigns.iter().cloned());
        step.pops.extend(t.pops.iter().copied());
    }
    step
}
