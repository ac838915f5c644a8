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
//! appears once. The index is looked up by port id, not searched: offsets
//! per id into one owner list, so a port's owners are one slice. Growth
//! counts per port how often the partial step fires it; a port a joiner
//! would fire is silent when it is unfired and one of its owners in the
//! index has already joined. A join or a leave touches only the ports its
//! transition fires, so a step costs its own neighbourhood at any width: a
//! row of a merger of `n` inputs costs its `n` transitions, not `n²`.
//! Steps go end to end into one buffer ([`Steps`]) that the caller reuses
//! from tuple to tuple.
//!
//! A step of × (Eq. 1) picks at most one local transition per automaton, so
//! it falls apart into connected steps with pairwise disjoint participants;
//! conversely a closed step fires no port of a non-participant, so any such
//! set agrees on ∅ and is a step of ×. The product emits those sets, the
//! JIT fires their members one at a time.

use crate::automaton::{Automaton, StateId, Transition};
use crate::port::PortId;

/// One participant's part in a connected step: the automaton, the local
/// state it leaves, and which of that state's transitions it takes.
pub type Choice = (u32, StateId, u32);

/// Who owns which port, over a list of automata: an index by port id, so
/// a step grows through its own neighbourhood, not all `n` automata.
pub struct PortOwners {
    /// Port `p`'s owners are `owners[starts[p]..starts[p + 1]]`, ascending.
    starts: Vec<u32>,
    owners: Vec<u32>,
}

/// Connected steps laid end to end, and the scratch of the enumeration that
/// found them. One value serves every tuple a caller enumerates at, so an
/// enumeration allocates only while its buffers still grow.
#[derive(Default)]
pub struct Steps {
    /// Step `k` is `choices[ends[k - 1]..ends[k]]` (from 0 for the first).
    choices: Vec<Choice>,
    ends: Vec<usize>,
    /// Per port, how often the partial step fires it; all zero between
    /// enumerations.
    fired: Vec<u32>,
    /// Per automaton, which of its transitions it takes in the partial step.
    chosen: Vec<Option<u32>>,
    /// The automata that have one, in joining order.
    members: Vec<u32>,
}

impl Steps {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Step `k`: its participants in ascending automaton order.
    pub fn get(&self, k: usize) -> &[Choice] {
        let start = k.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.choices[start..self.ends[k]]
    }

    pub fn iter(&self) -> impl Iterator<Item = &[Choice]> + '_ {
        (0..self.len()).map(|k| self.get(k))
    }
}

/// The partial step an enumeration is growing, and where its steps go.
struct Partial<'a, S> {
    index: &'a PortOwners,
    automata: &'a [Automaton],
    state: S,
    budget: usize,
    steps: &'a mut Steps,
}

impl PortOwners {
    pub fn new(automata: &[Automaton]) -> Self {
        let mut pairs: Vec<(PortId, u32)> = (automata.iter().enumerate())
            .flat_map(|(i, a)| a.ports().iter().map(move |p| (p, i as u32)))
            .collect();
        pairs.sort_unstable();
        // Counted one port up and summed, `starts[p]` is where `p` begins.
        let mut starts = vec![0u32; pairs.last().map_or(1, |&(p, _)| p.index() + 2)];
        pairs.iter().for_each(|&(p, _)| starts[p.index() + 1] += 1);
        (1..starts.len()).for_each(|k| starts[k] += starts[k - 1]);
        let owners = pairs.into_iter().map(|(_, i)| i).collect();
        PortOwners { starts, owners }
    }

    /// The automata owning `p`, ascending; none past the table.
    pub fn of(&self, p: PortId) -> &[u32] {
        match self.starts.get(p.index()..p.index() + 2) {
            Some(&[lo, hi]) => &self.owners[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Every connected step of `automata` (the list this index was built
    /// over) at the tuple `state(i)`, into `steps`, each exactly once and
    /// sorted by participant: by seed — its lowest-index participant — then
    /// by the seed's transition, then depth-first. `Err(count)` as soon as
    /// more than `budget` are found.
    pub fn enumerate(
        &self,
        automata: &[Automaton],
        state: impl Fn(usize) -> StateId,
        budget: usize,
        steps: &mut Steps,
    ) -> Result<(), usize> {
        steps.choices.clear();
        steps.ends.clear();
        // Sized for the largest port and automaton seen; untouched entries
        // stay zero and `None`.
        let ports = self.starts.len() - 1;
        steps.fired.resize(ports.max(steps.fired.len()), 0);
        steps
            .chosen
            .resize(automata.len().max(steps.chosen.len()), None);
        let mut partial = Partial {
            index: self,
            automata,
            state,
            budget,
            steps,
        };
        let found = partial.seeds();
        if found.is_err() {
            // Abandoned mid-step: nothing left it.
            partial.steps.fired.fill(0);
            partial.steps.chosen.fill(None);
            partial.steps.members.clear();
        }
        found
    }

    /// [`enumerate`](Self::enumerate), one boxed choice vector per step.
    pub fn connected_steps(
        &self,
        automata: &[Automaton],
        state: impl Fn(usize) -> StateId,
        budget: usize,
    ) -> Result<Vec<Box<[Choice]>>, usize> {
        let mut steps = Steps::default();
        self.enumerate(automata, state, budget, &mut steps)?;
        Ok(steps.iter().map(Box::from).collect())
    }
}

impl<S: Fn(usize) -> StateId> Partial<'_, S> {
    fn seeds(&mut self) -> Result<(), usize> {
        let automata = self.automata;
        for (seed, automaton) in automata.iter().enumerate() {
            let from = automaton.transitions_from((self.state)(seed));
            for (k, t) in from.iter().enumerate() {
                self.join(seed, k, t);
                self.grow(seed)?;
                self.leave(seed, t);
            }
        }
        Ok(())
    }

    fn join(&mut self, automaton: usize, transition: usize, t: &Transition) {
        self.steps.chosen[automaton] = Some(transition as u32);
        self.steps.members.push(automaton as u32);
        t.sync.iter().for_each(|p| self.steps.fired[p.index()] += 1);
    }

    fn leave(&mut self, automaton: usize, t: &Transition) {
        self.steps.chosen[automaton] = None;
        self.steps.members.pop();
        t.sync.iter().for_each(|p| self.steps.fired[p.index()] -= 1);
    }

    /// The transition automaton `i` takes in the partial step.
    fn chosen(&self, i: usize) -> &Transition {
        let k = self.steps.chosen[i].expect("members have chosen");
        &self.automata[i].transitions_from((self.state)(i))[k as usize]
    }

    /// Close the partial step under "every automaton touching a fired port
    /// joins".
    fn grow(&mut self, seed: usize) -> Result<(), usize> {
        let fired = (self.steps.members.iter()).flat_map(|&i| self.chosen(i as usize).sync.iter());
        let outside = |&j: &usize| self.steps.chosen[j].is_none();
        let owners = fired.flat_map(|p| self.index.of(p).iter().map(|&j| j as usize));
        let next = owners.filter(outside).min();
        let Some(j) = next else {
            return self.emit();
        };
        if j < seed {
            return Ok(()); // emitted from seed `j`
        }
        // `j` must fire exactly the fired ports it shares with the step so
        // far — as many as it owns — and no silent port of an automaton
        // that already joined.
        let automata = self.automata;
        let fired = |p: PortId| self.steps.fired[p.index()] > 0;
        let required = automata[j].ports().iter().filter(|&p| fired(p)).count();
        let from = automata[j].transitions_from((self.state)(j));
        for (k, u) in from.iter().enumerate() {
            let fired = |p: PortId| self.steps.fired[p.index()] > 0;
            let member = |&i: &u32| self.steps.chosen[i as usize].is_some();
            let silent = |p: PortId| !fired(p) && self.index.of(p).iter().any(member);
            let shared = u.sync.iter().filter(|&p| fired(p)).count();
            if u.sync.iter().any(silent) || shared != required {
                continue;
            }
            self.join(j, k, u);
            self.grow(seed)?;
            self.leave(j, u);
        }
        Ok(())
    }

    /// The partial step is closed: its members in ascending order.
    fn emit(&mut self) -> Result<(), usize> {
        let (state, steps) = (&self.state, &mut *self.steps);
        let start = steps.choices.len();
        let chosen = |&i: &u32| {
            (
                i,
                state(i as usize),
                steps.chosen[i as usize].expect("chosen"),
            )
        };
        steps.choices.extend(steps.members.iter().map(chosen));
        steps.choices[start..].sort_unstable();
        steps.ends.push(steps.choices.len());
        if steps.len() > self.budget {
            return Err(steps.len());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::MemId;
    use crate::primitives;

    /// The owner index answers what a filter over all automata does, for
    /// every port id up to two past the largest: shared ports, ports with
    /// one owner, ids no automaton has and ids past the table.
    #[test]
    fn the_owner_index_is_a_filter_over_the_automata() {
        let p = PortId;
        let automata = [
            primitives::merger(&[p(0), p(3)], p(5)),
            primitives::fifo1(p(5), p(9), MemId(0)),
            primitives::replicator(p(9), &[p(2), p(11), p(12)]),
            primitives::sync(p(12), p(14)),
            primitives::seq_k(&[p(0), p(14), p(3)]),
            primitives::router(p(20), &[p(21)]),
        ];
        let owners = PortOwners::new(&automata);
        for id in 0..=22 {
            let filtered: Vec<u32> = (0..automata.len() as u32)
                .filter(|&i| automata[i as usize].ports().contains(p(id)))
                .collect();
            assert_eq!(owners.of(p(id)), filtered, "port {id}");
        }
        assert!(PortOwners::new(&[]).of(p(0)).is_empty());
    }
}
