//! Just-in-time composition (Sect. IV-D, second approach).
//!
//! "The idea is to initially compute only the initial state …, plus the
//! initial state's outgoing transitions (formed by synchronizing the
//! outgoing transitions of the initial states in the 'medium automata', as
//! prescribed by ×). Only once a transition out of the initial state fires,
//! that transition's target state is 'expanded' …— and so on."
//!
//! # Connected-step expansion
//!
//! × (Eq. 1, [`mod@reo_automata::product`]) also admits *joint* steps of
//! constituents that share no fired port, so a state's ×-fan-out is
//! exponential in the number of independent constituents — Fig. 13
//! finding 3. Expansion here emits only the **connected** steps of the
//! current tuple, from the enumerator the eager product is built on
//! ([`mod@reo_automata::connected`], which says what they are and why
//! nothing is lost): a × step is a set of them with pairwise disjoint
//! participants — disjoint ports, disjoint memory cells, guards that cannot
//! see each other's writes — so it equals firing its parts in any order.
//! Reachable tuples and per-port traces are those of ×, while fan-out is
//! linear in the number of independent components
//! (`tests/connected_steps.rs` checks both directions against a fold of
//! binary products). Fan-out that is genuinely connected — a replicator
//! feeding `k` `LossySync`s is still `2^k` — is reported as
//! [`RuntimeError::ExpansionOverflow`] when it exceeds the budget.
//!
//! # Lowered steps
//!
//! Nothing is interpreted while stepping. A connected step is identified by
//! its [`Choice`] vector — which local transition each participant takes —
//! and the step table interns it (choice vectors end to end in one arena,
//! found through [`Buckets`]): the first row that contains it records
//! the [`Need`] its label puts on the armed set and its participants'
//! `(index, target)` pairs, and every later row that contains the same
//! step shares the entry (`NpbComm` has O(N) distinct steps under its 2^N
//! tuples). Both come from one walk over the participants' labels: `new`
//! fills a table of each port id's role (send, receive, internal) from the
//! boundary classes, and a boundary port's bit goes into its slot's word of
//! that role. No label is built and no set is searched. The first time its
//! need is met the step is composed and lowered ([`Pools::lower`]) into a
//! register program — once, for every row: "compile each module once, link
//! at use". A state that is visited
//! once therefore pays for the steps it tries, not for its whole row.
//!
//! An expanded state is then a [`Row`](crate::cache::Row): step ids in
//! emission order, each with the need bit that watches it (set on the
//! row's first try) and a memoised [`Link`] to its successor row. A
//! steady-state `try_step` is: the row's watches against the armed set
//! (none armed, or a bit every entry needs unarmed: no step is read) → per
//! entry in `(k + rotation) % n` order, its watch bit (unless every watch
//! is armed), then its step's need → the step's program → patch the
//! participants' states → follow the link.
//! The tuple is hashed once per *edge* of the visited state graph, never
//! per step; rows and steps stay resident for the whole session. A step
//! that cannot be lowered is [`RuntimeError::Lower`] and poisons the engine
//! like an expansion overflow; there is no interpreting fallback
//! (`tests/lowered_steps.rs` holds each lowered step to the interpreter's
//! verdict, deliveries, completion order and store).
//!
//! With every row reachable from the start tuple filled up front this is
//! the paper's ahead-of-time approach (Sect. IV-D, first approach;
//! [`crate::Mode::compiled`], [`JitCore::eager`]): the same enumerator,
//! step table and lowering, so each connected step is composed once and
//! shared by every row naming it — never once per union of steps, as an
//! eager product of the constituents would. The existing approach
//! ([`crate::Mode::existing`]) runs here too, as a tuple of one: its
//! composed and simplified automaton, every row filled at `connect`.

use reo_automata::lower::{ExecScratch, LowerOptions, LoweredTransition, Pools};
use reo_automata::{
    connected, Automaton, Buckets, Choice, Explosion, PortId, PortOwners, PortSet, ProductOptions,
    StateId, Steps, Store, Transition, Value,
};
use reo_core::ConnectorInstance;

use crate::cache::{CacheStats, Entry, Link, StateCache, TupleKey, WordBits};
use crate::engine::{Need, Pending, PendingTable};
use crate::error::RuntimeError;

/// One connected step, shared by every row naming it.
struct Step {
    /// Its identity, the participants' local transitions:
    /// `choices[choice.0..choice.1]` of the core's arena.
    choice: (u32, u32),
    /// The operations that must be pending for it to fire.
    need: Need,
    /// Composed and lowered the first time `need` is met: a state visited
    /// once pays for the steps it tries, not for its whole row.
    program: Option<LoweredTransition>,
    /// `(automaton, target)` per participant that changes state: the tuple
    /// patch of a firing.
    moves: Box<[(u32, StateId)]>,
}

/// The stepping core: a tuple of automata whose rows of connected steps are
/// filled on first visit or all at `connect`, each step lowered on first try.
pub struct JitCore {
    pub(crate) automata: Vec<Automaton>,
    /// Current local state per automaton.
    pub(crate) states: TupleKey,
    cache: StateCache,
    /// The row of `states`, as the last step's link or lookup left it (a
    /// missing link falls back to a lookup).
    current: Option<Link>,
    /// The row entry the last step fired, until its successor is memoised.
    edge: Option<(Link, usize)>,
    /// The step table: `steps`, their choice vectors end to end in
    /// `choices`, and `step_ids` over those to intern by choice vector.
    steps: Vec<Step>,
    choices: Vec<Choice>,
    step_ids: Buckets,
    /// The enumerator's output and scratch, reused by every expansion.
    found: Steps,
    /// Constant/function/predicate pools of every lowered step.
    pools: Pools,
    scratch: ExecScratch,
    deliveries: Vec<(PortId, Value)>,
    /// Port signatures and the port → owner index steps grow through.
    pub(crate) owners: PortOwners,
    inputs: PortSet,
    outputs: PortSet,
    /// Per port id, what `inputs` and `outputs` make it; internal past the
    /// end. A step's need reads it once per port of its label.
    roles: Box<[Role]>,
    /// Scratch of `intern`: the need's words and the moves of a new step.
    words: Vec<(u32, u64)>,
    moves: Vec<(u32, StateId)>,
    watches: Watches,
    /// Maximum global transitions per expanded state.
    expansion_budget: usize,
    rotation: usize,
}

/// What a port is to the tasks: where they send, where they receive, or
/// neither. A boundary role is also the half of the armed set's word pair
/// its bit lives in.
#[derive(Clone, Copy)]
enum Role {
    Send = 0,
    Recv = 1,
    Internal,
}

/// The scratch rows are watched with, reused by every row: per armed-set
/// bit, how many of the row's entries need it; per armed-set word the
/// watches so far, with the words touched; and the last row's watches and
/// the bits all its entries need, per word, `None` if an entry of it needs
/// nothing.
#[derive(Default)]
struct Watches {
    tally: Vec<u32>,
    watched: Vec<u64>,
    touched: Vec<u32>,
    row: Vec<(u32, u64)>,
    common: Vec<(u32, u64)>,
    always: bool,
}

/// Call `f` with each bit of `need`, as armed-set word × 64 + bit.
#[inline(always)]
fn need_bits(need: &Need, mut f: impl FnMut(u32)) {
    for &(word, mut bits) in need.0.iter() {
        while bits != 0 {
            f(word * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

impl Watches {
    /// Watch each of `steps` (entries over the step table `table`) by the
    /// bit of its need the fewest of them share, the lowest such bit on a
    /// tie, and note the bits all of them share: one pass tallies every
    /// need bit, one picks, one clears; `boundary` bounds their ports.
    fn watch(&mut self, table: &[Step], steps: &mut [Entry], boundary: usize) {
        let words = 2 * boundary.div_ceil(64);
        self.tally.resize(64 * words, 0);
        self.watched.resize(words, 0);
        let (tally, watched) = (&mut self.tally, &mut self.watched);
        let need = |entry: &Entry| &table[entry.step as usize].need;
        for entry in steps.iter() {
            need_bits(need(entry), |bit| tally[bit as usize] += 1);
        }
        self.always = false;
        for entry in steps.iter_mut() {
            let mut fewest = (u32::MAX, u32::MAX);
            need_bits(need(entry), |bit| {
                fewest = fewest.min((tally[bit as usize], bit))
            });
            if fewest.1 == u32::MAX {
                self.always = true;
                continue;
            }
            entry.watch = fewest.1;
            let word = &mut watched[entry.watch as usize / 64];
            if *word == 0 {
                self.touched.push(entry.watch / 64);
            }
            *word |= 1 << (entry.watch % 64);
        }
        self.common.clear();
        let (all, common, none) = (steps.len() as u32, &mut self.common, Need::default());
        need_bits(steps.first().map_or(&none, need), |bit| {
            if tally[bit as usize] == all {
                match common.last_mut() {
                    Some((word, bits)) if *word == bit / 64 => *bits |= 1 << (bit % 64),
                    _ => common.push((bit / 64, 1 << (bit % 64))),
                }
            }
        });
        for entry in steps.iter() {
            need_bits(need(entry), |bit| tally[bit as usize] = 0);
        }
        self.row.clear();
        let take = |w: u32| (w, std::mem::take(&mut watched[w as usize]));
        self.row.extend(self.touched.drain(..).map(take));
    }

    /// The last row's watches per armed-set word and the bits all its
    /// entries need, as [`StateCache::watched`] takes them.
    fn row(&self) -> Option<(&WordBits, &WordBits)> {
        (!self.always).then_some((&self.row, &self.common))
    }
}

/// Compute global boundary classes from a set of medium automata: a port
/// that is input of one automaton and output of another is internal.
pub fn boundary_classes(automata: &[Automaton]) -> (PortSet, PortSet) {
    let inputs: PortSet = automata.iter().flat_map(|a| a.inputs().iter()).collect();
    let outputs: PortSet = automata.iter().flat_map(|a| a.outputs().iter()).collect();
    (inputs.difference(&outputs), outputs.difference(&inputs))
}

/// An eager fill of `automata` ran out of `opts` at `states` tuples and
/// `steps` row entries.
fn explosion(
    automata: &[Automaton],
    opts: &ProductOptions,
    states: usize,
    steps: usize,
) -> RuntimeError {
    let names: Vec<&str> = automata.iter().map(|a| a.name()).collect();
    RuntimeError::Explosion(Explosion {
        automaton: format!("({})", names.join(" x ")),
        states_built: states,
        transitions_built: steps,
        limit_states: opts.max_states,
        limit_transitions: opts.max_transitions,
    })
}

impl JitCore {
    pub fn new(automata: Vec<Automaton>, expansion_budget: usize) -> Self {
        let (inputs, outputs) = boundary_classes(&automata);
        let last = inputs.as_slice().last().max(outputs.as_slice().last());
        let mut roles = vec![Role::Internal; last.map_or(0, |p| p.index() + 1)];
        inputs.iter().for_each(|p| roles[p.index()] = Role::Send);
        outputs.iter().for_each(|p| roles[p.index()] = Role::Recv);
        JitCore {
            owners: PortOwners::new(&automata),
            states: automata.iter().map(|a| a.initial()).collect(),
            cache: StateCache::new(automata.len()),
            automata,
            current: None,
            edge: None,
            steps: Vec::new(),
            choices: Vec::new(),
            step_ids: Buckets::default(),
            found: Steps::default(),
            pools: Pools::default(),
            scratch: ExecScratch::default(),
            deliveries: Vec::new(),
            inputs,
            outputs,
            roles: roles.into(),
            words: Vec::new(),
            moves: Vec::new(),
            watches: Watches::default(),
            expansion_budget,
            rotation: 0,
        }
    }

    /// Ahead-of-time composition (Sect. IV-D, first approach): the rows of
    /// every tuple reachable from `starts`, filled now. Breadth-first from
    /// `starts`, each row is the
    /// enumerator's connected steps at its tuple, interned as a first
    /// visit would; lowering and successor links stay lazy. `opts` bounds
    /// the reachable tuples and the steps summed over rows, tested after
    /// every row and within each enumeration: a breach is
    /// [`RuntimeError::Explosion`].
    pub fn eager(
        automata: Vec<Automaton>,
        starts: &[StateId],
        opts: &ProductOptions,
    ) -> Result<Self, RuntimeError> {
        let mut core = Self::with_states(automata, starts, opts.max_transitions);
        // The cache is the queue: rows are filled in the order their tuples
        // were first seen.
        let (first, _) = core.cache.intern(core.states.ids());
        core.current = Some(first);
        let (mut found, mut tuple, mut next) = (Steps::default(), Vec::new(), Vec::new());
        let (mut row, mut filled) = (0, 0);
        while row < core.cache.len() {
            let link = Link::nth(row);
            tuple.clear();
            tuple.extend_from_slice(core.cache.tuple(link));
            let (state, left) = (|i: usize| StateId(tuple[i]), opts.max_transitions - filled);
            let enumerated = (core.owners).enumerate(&core.automata, state, left, &mut found);
            let states = core.cache.len();
            enumerated.map_err(|more| explosion(&core.automata, opts, states, filled + more))?;
            filled += found.len();
            let steps = core.entries(&found);
            for entry in steps.iter() {
                next.clear();
                next.extend_from_slice(&tuple);
                for &(i, target) in core.steps[entry.step as usize].moves.iter() {
                    next[i as usize] = target.0;
                }
                core.cache.intern(&next);
            }
            core.cache.fill(link, steps);
            if core.cache.len() > opts.max_states {
                return Err(explosion(&core.automata, opts, core.cache.len(), filled));
            }
            row += 1;
        }
        Ok(core)
    }

    /// [`eager`](Self::eager) over an instance from its initial states:
    /// the shim `benchmark/` times as the compiled core, until ROADMAP
    /// direction 1. `_simplified` is ignored: rows range over the
    /// constituents, whose labels are never simplified.
    pub fn compose(
        instance: &ConnectorInstance,
        opts: &ProductOptions,
        _simplified: bool,
    ) -> Result<Self, RuntimeError> {
        let automata = instance.automata.clone();
        let starts: Vec<StateId> = automata.iter().map(|a| a.initial()).collect();
        Self::eager(automata, &starts, opts)
    }

    /// Like [`new`](Self::new), but resume from an explicit constituent
    /// state tuple instead of the initials — the dynamic-reconfiguration
    /// splice re-creates a region's core mid-run this way.
    pub fn with_states(
        automata: Vec<Automaton>,
        states: &[StateId],
        expansion_budget: usize,
    ) -> Self {
        assert_eq!(automata.len(), states.len(), "one state per automaton");
        let mut core = Self::new(automata, expansion_budget);
        core.states = states.iter().copied().collect();
        core
    }

    /// Expand the current state: every connected step, each exactly once,
    /// in the enumerator's order ([`PortOwners::enumerate`]).
    pub fn expand(&self) -> Result<Vec<Box<[Choice]>>, RuntimeError> {
        let mut found = Steps::default();
        self.enumerate_here(&mut found)?;
        Ok(found.iter().map(Box::from).collect())
    }

    /// The connected steps of the current state, into `found`.
    fn enumerate_here(&self, found: &mut Steps) -> Result<(), RuntimeError> {
        let (state, budget) = (|i| self.states.get(i), self.expansion_budget);
        (self.owners.enumerate(&self.automata, state, budget, found)).map_err(|found| {
            RuntimeError::ExpansionOverflow {
                state_transitions: found,
                budget,
            }
        })
    }

    /// The resident rows, in the order their tuples were first seen: each
    /// tuple with its steps' choice vectors in emission order
    /// (`tests/eager_rows.rs`).
    pub fn rows(&self) -> impl Iterator<Item = (Vec<StateId>, Vec<&[Choice]>)> + '_ {
        self.cache.resident().map(|link| {
            let choice = |entry: &Entry| self.choice(entry.step);
            (
                self.cache.tuple(link).iter().map(|&s| StateId(s)).collect(),
                self.cache.row(link).steps.iter().map(choice).collect(),
            )
        })
    }

    /// The label of every step in the table.
    pub(crate) fn labels(&self) -> impl Iterator<Item = PortSet> + '_ {
        let label = |id| connected::compose(&self.automata, self.choice(id)).sync;
        (0..self.steps.len() as u32).map(label)
    }

    /// The choice vector of step `id`.
    fn choice(&self, id: u32) -> &[Choice] {
        let (start, end) = self.steps[id as usize].choice;
        &self.choices[start as usize..end as usize]
    }

    fn local(&self, (automaton, from, index): Choice) -> &Transition {
        &self.automata[automaton as usize].transitions_from(from)[index as usize]
    }

    /// `(automaton, target)` if `pick` moves its participant to another
    /// state; everyone else stays.
    fn moved(&self, pick: Choice) -> Option<(u32, StateId)> {
        let target = self.local(pick).target;
        (target != pick.1).then_some((pick.0, target))
    }

    /// The composed transition of one choice vector
    /// ([`connected::compose`]; its `target` is unused) next to the
    /// participants it moves.
    pub fn compose_step(&self, choice: &[Choice]) -> (Transition, Box<[(u32, StateId)]>) {
        let moves = choice.iter().filter_map(|&pick| self.moved(pick));
        (connected::compose(&self.automata, choice), moves.collect())
    }

    /// The step table entry of `choice`, made on first sight in one walk
    /// over its participants: the moves, and the need — per port of a
    /// label, its role, and for a boundary port its slot's bit in the word
    /// of that role (no label is ever built).
    fn intern(&mut self, choice: &[Choice]) -> u32 {
        let ids = choice.iter().flat_map(|&(i, at, k)| [i, at.0, k]);
        let hash = Buckets::hash(0, ids);
        let known = (self.step_ids.under(hash)).find(|&id| self.choice(id as u32) == choice);
        if let Some(id) = known {
            return id as u32;
        }
        let (mut words, mut moves) = (
            std::mem::take(&mut self.words),
            std::mem::take(&mut self.moves),
        );
        words.clear();
        moves.clear();
        for &pick in choice {
            moves.extend(self.moved(pick));
            for p in self.local(pick).sync.iter() {
                let half = match self.roles.get(p.index()) {
                    Some(&role @ (Role::Send | Role::Recv)) => role as usize,
                    _ => continue,
                };
                let i = p.index();
                let (word, bit) = ((2 * (i / 64) + half) as u32, 1u64 << (i % 64));
                match words.iter_mut().find(|(w, _)| *w == word) {
                    Some((_, bits)) => *bits |= bit,
                    None => words.push((word, bit)),
                }
            }
        }
        let start = self.choices.len() as u32;
        self.choices.extend_from_slice(choice);
        self.steps.push(Step {
            need: Need(words.as_slice().into()),
            choice: (start, self.choices.len() as u32),
            program: None,
            moves: moves.as_slice().into(),
        });
        (self.words, self.moves) = (words, moves);
        self.step_ids.push(hash) as u32
    }

    /// The row entries of the steps `found`, each interned.
    fn entries(&mut self, found: &Steps) -> Box<[Entry]> {
        let entry = |step| Entry {
            step,
            watch: 0,
            next: None,
        };
        (found.iter())
            .map(|choice| entry(self.intern(choice)))
            .collect()
    }

    /// Watch the entries of `row` ([`Watches`]), if no poll has tried it.
    fn watch(&mut self, row: Link) {
        let Some(steps) = self.cache.unwatched(row) else {
            return;
        };
        self.watches.watch(&self.steps, steps, self.roles.len());
        self.cache.watched(row, self.watches.row());
    }

    /// Compose and lower step `id`: sends seed the program, only
    /// task-facing deliveries survive.
    fn lower(&mut self, id: u32) -> Result<(), RuntimeError> {
        let choice = self.choice(id);
        let composed = connected::compose(&self.automata, choice);
        let owner = self.automata[choice[0].0 as usize].name();
        let boundary = LowerOptions {
            seeds: &self.inputs,
            deliver: Some(&self.outputs),
        };
        let program = self.pools.lower(owner, &composed, &boundary)?;
        self.pools.fit(&mut self.scratch);
        self.steps[id as usize].program = Some(program);
        Ok(())
    }

    /// The row of the current state, if resident: through the link the
    /// last step left, else by lookup.
    fn resident(&mut self) -> Option<Link> {
        if let Some(link) = self.current {
            self.cache.hit();
            return Some(link);
        }
        let found = self.cache.lookup(self.states.ids())?;
        self.arrive(found);
        Some(found)
    }

    /// `row` is the current state's: memoise it on the edge that led here.
    fn arrive(&mut self, row: Link) {
        if let Some((from, entry)) = self.edge.take() {
            self.cache.link(from, entry, row);
        }
        self.current = Some(row);
    }

    /// Expand the current state into a fresh row: intern its steps and
    /// cache it.
    fn expand_row(&mut self) -> Result<Link, RuntimeError> {
        let mut found = std::mem::take(&mut self.found);
        self.enumerate_here(&mut found)?;
        let steps = self.entries(&found);
        self.found = found;
        let row = self.cache.insert(self.states.ids(), steps);
        self.arrive(row);
        Ok(row)
    }

    /// Try to fire one enabled step given the pending operations and the
    /// store. `Ok(true)` iff something fired; the boundary ports whose
    /// operations completed in that step are appended to `completed` (the
    /// engine wakes exactly those ports' parked wakers). A port is its slot
    /// in `pending`.
    pub fn try_step(
        &mut self,
        pending: &mut PendingTable,
        store: &mut Store,
        completed: &mut Vec<PortId>,
    ) -> Result<bool, RuntimeError> {
        let row = match self.resident() {
            Some(row) => row,
            None => self.expand_row()?,
        };
        self.watch(row);
        let Some(filter) = self.cache.scan(row, pending) else {
            return Ok(false);
        };
        let n = self.cache.row(row).steps.len();
        // `(k + rotation) % n` order, at one division per call, not per entry.
        let start = self.rotation % n.max(1);
        for at in (start..n).chain(0..start) {
            let entry = self.cache.row(row).steps[at];
            if filter && !pending.armed_bit(entry.watch)
                || !pending.armed(&self.steps[entry.step as usize].need)
            {
                continue;
            }
            let (id, next) = (entry.step, entry.next);
            if self.steps[id as usize].program.is_none() {
                self.lower(id)?;
            }
            let step = &self.steps[id as usize];
            let program = step.program.as_ref().expect("lowered above");
            let input = |p: PortId| match pending.op(p.index()) {
                Pending::Send(v) => Some(v.clone()),
                _ => None,
            };
            let (scratch, deliveries) = (&mut self.scratch, &mut self.deliveries);
            let fired = (self.pools)
                .try_fire(program, &input, store, scratch, deliveries)
                .map_err(RuntimeError::Unresolved)?;
            if !fired {
                continue;
            }
            for &p in program.send_ports.iter() {
                pending.replace(p.index(), Pending::DoneSend);
                completed.push(p);
            }
            for (p, v) in self.deliveries.drain(..) {
                pending.replace(p.index(), Pending::DoneRecv(v));
                completed.push(p);
            }
            for &(i, target) in step.moves.iter() {
                self.states.set(i as usize, target);
            }
            self.rotation = self.rotation.wrapping_add(1);
            self.current = next;
            self.edge = Some((row, at));
            return Ok(true);
        }
        Ok(false)
    }

    /// Ports where tasks send (connector inputs).
    pub fn boundary_inputs(&self) -> &PortSet {
        &self.inputs
    }

    /// Ports where tasks receive (connector outputs).
    pub fn boundary_outputs(&self) -> &PortSet {
        &self.outputs
    }

    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            steps: self.steps.len(),
            ..self.cache.stats()
        }
    }

    /// The current local state per automaton, in composition order — what
    /// a reconfiguration splice resumes from.
    pub fn constituent_states(&self) -> Vec<StateId> {
        self.states.iter().collect()
    }

    /// Diagnostic probe for a stall report: whether any step out of the
    /// current state is *operationally* enabled right now (guards not
    /// evaluated). It consults the cache but does not expand: an unexpanded
    /// current state reports not-enabled rather than paying (or failing)
    /// an expansion inside a session snapshot.
    pub fn any_enabled(&mut self, pending: &PendingTable) -> bool {
        let Some(row) = self.resident() else {
            return false;
        };
        self.watch(row);
        let Some(filter) = self.cache.scan(row, pending) else {
            return false;
        };
        let need = |entry: &Entry| &self.steps[entry.step as usize].need;
        let watched = |entry: &Entry| !filter || pending.armed_bit(entry.watch);
        let enabled = |entry: &Entry| watched(entry) && pending.armed(need(entry));
        self.cache.row(row).steps.iter().any(enabled)
    }

    /// `(automaton, target)` per participant the last fired step moved.
    pub(crate) fn fired_moves(&self) -> &[(u32, StateId)] {
        let step = |(row, at): (Link, usize)| self.cache.row(row).steps[at].step as usize;
        self.edge.map_or(&[], |edge| &self.steps[step(edge)].moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Names, Slot};
    use reo_automata::{primitives, MemId, MemLayout, PortAllocator, PortId, Value};

    /// The need a step's label used to be resolved to, by set searches over
    /// the label: a pending send on each of its `inputs` ports, a pending
    /// receive on each of its `outputs` ports.
    fn need_of_label(sync: &PortSet, inputs: &PortSet, outputs: &PortSet) -> Vec<(u32, u64)> {
        let sends = sync.iter().filter(|p| inputs.contains(*p)).map(|p| (p, 0));
        let recvs = sync.iter().filter(|p| outputs.contains(*p)).map(|p| (p, 1));
        let mut words: Vec<(u32, u64)> = Vec::new();
        for (p, half) in sends.chain(recvs) {
            let i = p.index();
            let (word, bit) = ((2 * (i / 64) + half) as u32, 1u64 << (i % 64));
            match words.iter_mut().find(|(w, _)| *w == word) {
                Some((_, bits)) => *bits |= bit,
                None => words.push((word, bit)),
            }
        }
        words.sort_unstable();
        words
    }

    /// Every step a core interned has the need its union label gives under
    /// [`need_of_label`]: over the Fig. 12 families, `relay` and `burst` at
    /// n ∈ {2, 4, 8}, in every mode of [`Mode::grid`] that connects within
    /// small product limits, after each region core was driven with every
    /// boundary operation pending (a lazy core interns what it visits).
    #[test]
    fn a_need_from_the_role_table_is_the_need_of_the_label() {
        use crate::connector::{Connector, Limits, Mode};
        use crate::partition::Partitioned;

        let mut families = reo_connectors::families();
        families.extend([
            reo_connectors::relay_family(),
            reo_connectors::burst_family(),
        ]);
        let limits = Limits {
            product: ProductOptions {
                max_states: 1 << 12,
                max_transitions: 1 << 14,
            },
            ..Limits::default()
        };
        let (mut sessions, mut checked) = (0, 0);
        for family in &families {
            let program = reo_dsl::parse_program(family.source).unwrap();
            for n in [2, 4, 8] {
                for &(mode_name, mode) in Mode::grid() {
                    let built = Connector::builder(&program, family.def).mode(mode);
                    let connector = built.limits(limits).build().unwrap();
                    let sizes = (family.sizes)(n);
                    let Ok(session) = connector.session().replicate_all(&sizes).connect() else {
                        continue;
                    };
                    sessions += 1;
                    let parts = session.handle().backend_probe().upgrade().unwrap();
                    let parts = parts.downcast_ref::<Partitioned>().unwrap();
                    for engine in &parts.topo().engines {
                        let mut inner = engine.lock();
                        let width = inner.pending.len();
                        let mut store = inner.store.clone();
                        let core = &mut inner.core;
                        let (inputs, outputs) = (core.inputs.clone(), core.outputs.clone());
                        let mut pending = PendingTable::new(width);
                        for _ in 0..8 {
                            for p in inputs.iter() {
                                pending.replace(p.index(), Pending::Send(Value::Int(1)));
                            }
                            for p in outputs.iter() {
                                pending.replace(p.index(), Pending::Recv);
                            }
                            for _ in 0..32 {
                                if !matches!(
                                    core.try_step(&mut pending, &mut store, &mut vec![]),
                                    Ok(true)
                                ) {
                                    break;
                                }
                            }
                        }
                        for (id, label) in core.labels().enumerate() {
                            let mut need = core.steps[id].need.0.to_vec();
                            need.sort_unstable();
                            let want = need_of_label(&label, &inputs, &outputs);
                            let at = format!("{} n={n} {mode_name}, step {id}", family.name);
                            assert_eq!(need, want, "{at}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(
            sessions >= 280 && checked >= 20_000,
            "{sessions} sessions, {checked} steps"
        );
    }

    /// A watch never hides an enabled entry. Every row of the Fig. 12
    /// families at n ∈ {2, 3, 4} that fill under `Limits::default()`, and
    /// of a two-`Fifo1` chain (its transfer needs nothing): each watch lies
    /// in its entry's need, a row with an entry that needs nothing is
    /// always scanned, and under 64 seeded random armed sets and rotations
    /// per row, the entries a watched scan finds armed are exactly those
    /// whose need is armed, in rotation order.
    #[test]
    fn a_watch_never_hides_an_enabled_entry() {
        use crate::connector::Limits;
        use reo_core::{compile, instantiate, Binding};

        let mut connectors = Vec::new();
        for family in reo_connectors::families() {
            let program = reo_dsl::parse_program(family.source).unwrap();
            let cc = compile(&program, family.def).unwrap();
            for n in [2, 3, 4] {
                let sizes = (family.sizes)(n);
                let mut alloc = PortAllocator::new();
                let width = |name: &str| sizes.iter().find(|(s, _)| *s == name).map_or(1, |w| w.1);
                let binding: Binding = (cc.params())
                    .map(|q| (q.name.clone(), alloc.fresh_ports(width(&q.name))))
                    .collect();
                let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
                connectors.push((format!("{} n={n}", family.name), inst.automata));
            }
        }
        let chain = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::fifo1(p(1), p(2), MemId(1)),
        ];
        connectors.push(("two-Fifo1 chain".into(), chain));

        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut filled, mut rows, mut always, mut found) = (0, 0, 0, 0);
        for (name, autos) in connectors {
            let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
            let (opts, width) = (Limits::default().product, Names::dense(&autos).ports.len());
            let Ok(mut core) = JitCore::eager(autos, &starts, &opts) else {
                continue;
            };
            filled += 1;
            let links: Vec<Link> = core.cache.resident().collect();
            links.iter().for_each(|&link| core.watch(link));
            let nothing = PendingTable::new(width);
            let mut pending = PendingTable::new(width);
            let need = |entry: &Entry| &core.steps[entry.step as usize].need;
            for link in links {
                let row = core.cache.row(link);
                let at = format!("{name} at {:?}", core.cache.tuple(link));
                rows += 1;
                let mut needs_nothing = false;
                for entry in row.steps.iter() {
                    let bits = need(entry).0.iter().flat_map(|&(word, bits)| {
                        (0..64)
                            .filter(move |b| bits >> b & 1 != 0)
                            .map(move |b| word * 64 + b)
                    });
                    match bits.collect::<Vec<_>>() {
                        bits if bits.is_empty() => needs_nothing = true,
                        bits => assert!(bits.contains(&entry.watch), "{at}: {entry:?}"),
                    }
                }
                let idle = core.cache.scan(link, &nothing).is_some();
                assert_eq!(idle, needs_nothing, "{at}: scanned with nothing pending");
                always += usize::from(needs_nothing);
                for density in (0..64).map(|k| k % 4) {
                    for q in core.inputs.iter() {
                        let op = (next() % 4 <= density).then_some(Pending::Send(Value::Unit));
                        pending.replace(q.index(), op.unwrap_or_default());
                    }
                    for q in core.outputs.iter() {
                        let op = (next() % 4 <= density).then_some(Pending::Recv);
                        pending.replace(q.index(), op.unwrap_or_default());
                    }
                    let (n, armed) = (row.steps.len(), |e: &&Entry| pending.armed(need(e)));
                    let start = next() as usize % n.max(1);
                    let order = || (start..n).chain(0..start).map(|k| &row.steps[k]);
                    let full: Vec<&Entry> = order().filter(armed).collect();
                    let scan = core.cache.scan(link, &pending);
                    let tested = |e: &&Entry| !scan.unwrap() || pending.armed_bit(e.watch);
                    let watched = order().filter(|e| scan.is_some() && tested(e));
                    let watched: Vec<&Entry> = watched.filter(armed).collect();
                    assert_eq!(
                        watched.iter().map(|e| e.step).collect::<Vec<_>>(),
                        full.iter().map(|e| e.step).collect::<Vec<_>>(),
                        "{at}, rotation {start}"
                    );
                    found += full.len();
                }
            }
        }
        assert!(
            filled == 55 && rows >= 900 && always >= 1 && found >= 100_000,
            "{filled} connectors, {rows} rows ({always} always scanned), {found} armed entries"
        );
    }

    fn engine_from(automata: Vec<Automaton>) -> Engine {
        let names = Names::dense(&automata);
        Engine::new(JitCore::new(automata, 1 << 20), names, &[])
    }

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn pipeline_of_two_syncs_behaves_synchronously_across_mediums() {
        // Two *separate* medium automata share vertex 1; the JIT engine must
        // synchronize them: the send completes only with the receive.
        let autos = vec![primitives::sync(p(0), p(1)), primitives::sync(p(1), p(2))];
        let eng = std::sync::Arc::new(engine_from(autos));
        let e2 = std::sync::Arc::clone(&eng);
        let rx = std::thread::spawn(move || e2.recv(p(2)).unwrap());
        eng.send(p(0), Value::Int(11)).unwrap();
        assert_eq!(rx.join().unwrap().as_int(), Some(11));
        assert_eq!(eng.steps(), 1); // one global step, not two
    }

    #[test]
    fn independent_fifos_expand_to_their_two_fills() {
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::fifo1(p(2), p(3), MemId(1)),
        ];
        let core = JitCore::new(autos, 1 << 20);
        // One fill each and no joint fill: the eager product keeps the
        // third (`product.rs::independent_fifos_get_joint_and_interleaved_steps`),
        // which here is the two fills fired in either order.
        assert_eq!(core.expand().unwrap().len(), 2);
    }

    #[test]
    fn rows_share_interned_steps_and_link_to_their_successors() {
        // Two independent fifos: four tuples of two steps each, but only
        // four distinct steps (fill and take, per fifo).
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::fifo1(p(2), p(3), MemId(1)),
        ];
        let eng = engine_from(autos);
        let fill = |port| {
            eng.send(p(port), Value::Int(port as i64)).unwrap();
        };
        let take = |port| {
            eng.recv(p(port)).unwrap();
        };
        for _ in 0..3 {
            fill(0);
            fill(2);
            take(1);
            take(3);
        }
        let lap = eng.cache_stats();
        assert_eq!((lap.resident, lap.steps, lap.misses), (4, 4, 4));
        // Every edge is linked by now: another lap looks nothing up, and
        // each `try_step` call is still counted as served from a row.
        fill(0);
        fill(2);
        take(1);
        take(3);
        let again = eng.cache_stats();
        assert_eq!((again.resident, again.steps, again.misses), (4, 4, 4));
        assert!(again.hits >= lap.hits + 4);
    }

    #[test]
    fn a_step_is_lowered_when_first_tried_not_when_its_row_is_expanded() {
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::fifo1(p(2), p(3), MemId(1)),
        ];
        let mut core = JitCore::new(autos, 1 << 20);
        let mut pending = PendingTable::new(4);
        let mut store = Store::new(&MemLayout::cells(2));
        pending.replace(0, Pending::Send(Value::Int(1)));
        let fired = core.try_step(&mut pending, &mut store, &mut Vec::new());
        assert!(fired.unwrap());
        // Both fills are in the row; only the one that was armed has a program.
        let lowered = core.steps.iter().filter(|s| s.program.is_some()).count();
        assert_eq!((core.steps.len(), lowered), (2, 1));
    }

    #[test]
    fn expansion_budget_reproduces_fig13_finding3() {
        // A replicator feeding 12 lossy syncs is one connected component:
        // each lossy independently passes or loses, so the initial state
        // alone has 2^12 steps; with a budget of 1000 expansion must fail.
        let mut alloc = PortAllocator::new();
        let tail = alloc.fresh_port();
        let heads = alloc.fresh_ports(12);
        let mut autos = vec![primitives::replicator(tail, &heads)];
        for &h in &heads {
            autos.push(primitives::lossy(h, alloc.fresh_port()));
        }
        let core = JitCore::new(autos, 1000);
        assert!(matches!(
            core.expand(),
            Err(RuntimeError::ExpansionOverflow { .. })
        ));
    }

    #[test]
    fn npbcomm_initial_fanout_is_linear() {
        use reo_core::{compile, instantiate, Binding};
        // The Fig. 13 protocol (`reo_npb::comm::NPB_COMM_SOURCE`) at 4
        // slaves: 16 medium automata whose initial ×-fan-out is 2,047.
        let prog = reo_dsl::parse_program(
            "NpbComm(m,v[],fwd[],bwd[];w[],res,fin[],bin[]) =
               Replicator(m;c[1..#w])
               mult prod (i:1..#w) Fifo1(c[i];w[i])
               mult prod (i:1..#v) Fifo1(v[i];d[i])
               mult Merger(d[1..#v];res)
               mult prod (i:1..#fwd-1) Fifo(fwd[i];fin[i+1])
               mult prod (i:2..#bwd) Fifo(bwd[i];bin[i-1])",
        )
        .unwrap();
        let cc = compile(&prog, "NpbComm").unwrap();
        let mut alloc = PortAllocator::new();
        let arity = |name: &str| if name == "m" || name == "res" { 1 } else { 4 };
        let binding: Binding = ["m", "v", "fwd", "bwd", "w", "res", "fin", "bin"]
            .into_iter()
            .map(|name| (name.to_string(), alloc.fresh_ports(arity(name))))
            .collect();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        assert_eq!(inst.automata.len(), 16);
        let core = JitCore::new(inst.automata, 1 << 20);
        let fanout = core.expand().unwrap().len();
        assert!(fanout <= 16, "initial fan-out {fanout}");
    }

    #[test]
    fn ex11n_via_jit_enforces_order() {
        use reo_core::{compile, examples, instantiate, Binding};
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let mut alloc = PortAllocator::new();
        let tl = alloc.fresh_ports(3);
        let hd = alloc.fresh_ports(3);
        let binding: Binding = [
            ("tl".to_string(), tl.clone()),
            ("hd".to_string(), hd.clone()),
        ]
        .into();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        let eng = engine_from(inst.automata);

        // All three producers offer; only the first can complete.
        for (i, &t) in tl.iter().enumerate() {
            let done = eng.offer(t, Value::Int(10 + i as i64)).is_some();
            assert_eq!(done, i == 0);
        }
        for (i, &h) in hd.iter().enumerate() {
            assert_eq!(eng.recv(h).unwrap().as_int(), Some(10 + i as i64));
        }
        eng.send_until(tl[1], None, None).unwrap();
        eng.send_until(tl[2], None, None).unwrap();
        // States visited: a handful; the cache must have them resident.
        let stats = eng.cache_stats();
        assert!(stats.resident >= 2);
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn an_eagerly_filled_core_answers_with_the_constituent_tuple() {
        use reo_automata::ProductOptions;
        // fifo1(0;1) · sync(1;2), filled with the buffer *full*: both
        // reachable rows are resident before the first step, and the
        // splice reads the tuple it is in.
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::sync(p(1), p(2)),
        ];
        let full = StateId(1);
        let starts = [full, autos[1].initial()];
        let empty = autos[0].initial();
        let opts = ProductOptions::default();
        let mut core = JitCore::eager(autos, &starts, &opts).unwrap();
        let stats = core.cache_stats();
        assert_eq!((stats.resident, stats.steps, stats.misses), (2, 2, 0));
        assert_eq!(core.constituent_states(), starts);

        let mut pending = PendingTable::new(3);
        let mut store = Store::new(&MemLayout::cells(1));
        store.push(MemId(0), Value::Int(4));
        let mut step = |core: &mut JitCore, port: usize, op: Pending| {
            pending.replace(port, op);
            assert!(core
                .try_step(&mut pending, &mut store, &mut Vec::new())
                .unwrap());
        };
        step(&mut core, 2, Pending::Recv);
        assert_eq!(core.constituent_states(), [empty, starts[1]]);
        step(&mut core, 0, Pending::Send(Value::Int(5)));
        assert_eq!(core.constituent_states(), starts);
    }

    #[test]
    fn composition_failure_reports_explosion() {
        // Twenty independent buffers: 2^20 reachable tuples, so the eager
        // fill must fail within budget, typed.
        use reo_automata::ProductOptions;
        use reo_core::ir::*;
        use reo_core::{compile, instantiate, Binding};
        let def = ConnectorDef {
            name: "Buffers".into(),
            tails: vec![Param::array("a")],
            heads: vec![Param::array("b")],
            body: CExpr::prod(
                "i",
                IExpr::Const(1),
                IExpr::len("a"),
                CExpr::Inst(Inst::new(
                    "Fifo1",
                    vec![PortRef::indexed("a", IExpr::var("i"))],
                    vec![PortRef::indexed("b", IExpr::var("i"))],
                )),
            ),
        };
        let prog = reo_core::Program::new(vec![def]);
        let cc = compile(&prog, "Buffers").unwrap();
        let mut alloc = PortAllocator::new();
        let binding: Binding = [
            ("a".to_string(), alloc.fresh_ports(20)),
            ("b".to_string(), alloc.fresh_ports(20)),
        ]
        .into();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        let opts = ProductOptions {
            max_states: 1 << 12,
            max_transitions: 1 << 14,
        };
        assert!(matches!(
            JitCore::compose(&inst, &opts, true),
            Err(RuntimeError::Explosion(_))
        ));
    }

    /// The raw poll API lets a task leave with its operation still
    /// registered. A hung-up port that then completes let a dead transition
    /// fire, and the state it leads to may revive a port: `live` below is dead
    /// while the automaton sits in `s0` and alive in `s1`, which only the
    /// departed `h` leads to. The dead bits are rebuilt, not grown (in debug
    /// builds `Dead::grow` also holds them to the from-scratch analysis).
    #[test]
    fn a_hung_up_port_that_completes_rebuilds_the_dead_set() {
        use reo_automata::automaton::AutomatonBuilder;
        let (h, q, live) = (p(0), p(1), p(2));
        let mut builder = AutomatonBuilder::new("Revive");
        let (s0, s1) = (builder.state(), builder.state());
        [h, q, live]
            .into_iter()
            .for_each(|port| builder.input(port));
        builder.transition(s0, Transition::new(PortSet::from_iter([h, q]), s1));
        builder.transition(s0, Transition::new(PortSet::singleton(q), s0));
        builder.transition(s1, Transition::new(PortSet::singleton(live), s1));
        let eng = engine_from(vec![builder.build()]);

        assert!(eng.offer(h, Value::Unit).is_none());
        eng.hangup(Slot(h.0), &mut Default::default());
        // From `s0` only `q` can still fire: `live` is beyond the dead step.
        let refused = eng.offer(live, Value::Unit);
        assert!(matches!(refused, Some(Err(RuntimeError::Hangup(_)))));
        // The stale send on `h` lets `{h, q}` fire all the same.
        assert!(matches!(eng.offer(q, Value::Unit), Some(Ok(()))));
        assert!(matches!(eng.offer(live, Value::Unit), Some(Ok(()))));
        let refused = eng.offer(q, Value::Unit);
        assert!(matches!(refused, Some(Err(RuntimeError::Hangup(_)))));
    }
}
