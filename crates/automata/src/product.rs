//! The synchronous product × of constraint automata (Eq. 1 of the paper).
//!
//! Two transitions compose iff they agree on the shared ports:
//! `N₁ ∩ P₂ = N₂ ∩ P₁`. The product includes *joint* steps of independent
//! transitions as well as their interleavings — this is what makes × truly
//! synchronous, and it is also exactly why a product state can have a number
//! of transitions exponential in the number of independent constituents
//! (the paper's Fig. 13 finding 3).
//!
//! The eager product keeps those joint steps on purpose: it is Eq. 1 and
//! the Fig. 12 baseline. The runtime's other cores (`reo_runtime::jit`,
//! whether it fills its rows lazily or at `connect`) fire only steps
//! connected through fired shared ports — a joint step of port-disjoint
//! parts equals firing the parts in any order.
//!
//! # A list of automata: one construction over state tuples
//!
//! [`product_all`] and [`product_all_traced`] compose all constituents at
//! once. States are the constituent state **tuples** reachable from the
//! start tuple, interned breadth-first into one flat arena — which is also
//! the queue and, for the traced variant, the trace. At a tuple the
//! connected steps come from the enumerator the JIT expands with
//! ([`mod@crate::connected`]), and the transitions are every non-empty set
//! of them with pairwise disjoint participants: exactly Eq. 1's, since a
//! closed step fires no port of a non-participant. Each is composed once,
//! from its participants in ascending constituent order, so the work done
//! follows the states and transitions that come out. State and transition
//! order are a function of the input alone.
//!
//! Folding the binary product over the list arrives at the same automaton
//! (`tests/product_nary.rs`), but every intermediate keeps the joint steps
//! of constituents that only a later operand synchronises: `ordered` at
//! n = 8 passed through 908,896 transitions on its way to 16.
//!
//! The [`ProductOptions`] budgets are tested after every interned state
//! and every emitted transition, and they bound **the product that is
//! returned**: an [`Explosion`] says the connector's own × is too large,
//! which is how "the existing compiler cannot handle" a connector shows in
//! this reproduction — never that a partial product on the way was.
//!
//! # Two automata: Eq. 1 as written
//!
//! [`product`] and [`product_from`] are the definition — pairs of states,
//! independent steps of either side, joint steps that agree on the shared
//! window. No runtime path calls them; they contain neither the enumerator
//! nor the union search, and the tests fold them as the oracle both are
//! held to (`tests/product_nary.rs`, `tests/connected_steps.rs`).

use std::collections::HashMap;

use crate::automaton::{Automaton, AutomatonBuilder, StateId, Transition};
use crate::buckets::Buckets;
use crate::connected::{compose, Choice, PortOwners, Steps};
use crate::port::PortSet;

/// Options for product construction: how large the product that is
/// returned may be. Both budgets are tested after every state and every
/// transition of it; nothing else is ever built (module docs). The
/// runtime's compiled modes, which fill the just-in-time core's rows at
/// `connect` instead of composing, hold the same two budgets to reachable
/// tuples and to connected steps summed over their rows.
#[derive(Clone, Copy, Debug)]
pub struct ProductOptions {
    /// Maximum number of (reachable) product states before giving up.
    pub max_states: usize,
    /// Maximum number of product transitions before giving up. Guards
    /// against the exponential *transition* fan-out of independent
    /// constituents even when the state count stays low.
    pub max_transitions: usize,
}

impl Default for ProductOptions {
    fn default() -> Self {
        Self {
            max_states: 1 << 18,
            max_transitions: 1 << 20,
        }
    }
}

/// Product construction failed: the reachable states or the transitions of
/// the product itself exceeded the budget (the counts are of that product,
/// as far as it got). Carries enough context for benchmark harnesses to
/// report *which* composition failed, as Fig. 12's "existing approach
/// fails" cells.
#[derive(Debug, Clone)]
pub struct Explosion {
    pub automaton: String,
    pub states_built: usize,
    pub transitions_built: usize,
    pub limit_states: usize,
    pub limit_transitions: usize,
}

impl std::fmt::Display for Explosion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "state-space explosion composing {}: {} states / {} transitions built \
             (budget {} / {})",
            self.automaton,
            self.states_built,
            self.transitions_built,
            self.limit_states,
            self.limit_transitions
        )
    }
}

impl std::error::Error for Explosion {}

/// Compose two automata with ×.
pub fn product(
    a: &Automaton,
    b: &Automaton,
    opts: &ProductOptions,
) -> Result<Automaton, Explosion> {
    product_from(a, b, a.initial(), b.initial(), opts).map(|(p, _)| p)
}

/// Compose two automata with ×, starting the reachable-only construction
/// from the given constituent states instead of the initials, and return
/// for every product state the `(a, b)` state pair it stands for.
///
/// `pairs[s.index()]` is the constituent pair of product state `s`; the
/// product's initial state is `(sa, sb)`. The tests fold this over a list
/// as the oracle of [`product_all_traced`].
pub fn product_from(
    a: &Automaton,
    b: &Automaton,
    sa: StateId,
    sb: StateId,
    opts: &ProductOptions,
) -> Result<(Automaton, Vec<(StateId, StateId)>), Explosion> {
    let ports_a = a.ports();
    let ports_b = b.ports();
    let shared = ports_a.intersection(ports_b);

    // Precompute each transition's projection onto the shared ports.
    let proj = |aut: &Automaton| -> Vec<Vec<PortSet>> {
        aut.all_states()
            .map(|s| {
                aut.transitions_from(s)
                    .iter()
                    .map(|t| t.sync.intersection(&shared))
                    .collect()
            })
            .collect()
    };
    let proj_a = proj(a);
    let proj_b = proj(b);

    let name = format!("({} x {})", a.name(), b.name());
    let mut builder = AutomatonBuilder::new(name.clone());

    // Port classes: a shared port that is output of one side and input of
    // the other becomes internal (data flows through it inside the product).
    let matched = a
        .inputs()
        .intersection(b.outputs())
        .union(&b.inputs().intersection(a.outputs()));
    debug_assert!(
        a.inputs().intersection(b.inputs()).is_empty(),
        "vertex is tail of two arcs: {:?}",
        a.inputs().intersection(b.inputs())
    );
    debug_assert!(
        a.outputs().intersection(b.outputs()).is_empty(),
        "vertex is head of two arcs: {:?}",
        a.outputs().intersection(b.outputs())
    );
    let inputs = a.inputs().union(b.inputs()).difference(&matched);
    let outputs = a.outputs().union(b.outputs()).difference(&matched);
    let internals = a.internals().union(b.internals()).union(&matched);

    // Reachable-only BFS over state pairs, from the requested start pair.
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut queue: Vec<(StateId, StateId)> = Vec::new();
    let initial = (sa, sb);
    let first = builder.state();
    index.insert(initial, first);
    queue.push(initial);

    let mut transitions_built = 0usize;
    let mut pending_edges: Vec<(StateId, Transition)> = Vec::new();

    let mut head = 0;
    while head < queue.len() {
        let (sa, sb) = queue[head];
        head += 1;
        let from = index[&(sa, sb)];

        // Budget check up front *and* inside the transition loops below:
        // a single state can fan out exponentially many joint transitions
        // (Fig. 13 finding 3), so checking once per state is not enough.
        macro_rules! check_budget {
            () => {
                if index.len() > opts.max_states || transitions_built > opts.max_transitions {
                    return Err(Explosion {
                        automaton: name,
                        states_built: index.len(),
                        transitions_built,
                        limit_states: opts.max_states,
                        limit_transitions: opts.max_transitions,
                    });
                }
            };
        }

        let intern = |pair: (StateId, StateId),
                      index: &mut HashMap<(StateId, StateId), StateId>,
                      queue: &mut Vec<(StateId, StateId)>,
                      builder: &mut AutomatonBuilder|
         -> StateId {
            *index.entry(pair).or_insert_with(|| {
                queue.push(pair);
                builder.state()
            })
        };

        let ta = a.transitions_from(sa);
        let tb = b.transitions_from(sb);

        // Independent steps of `a`.
        for (i, t1) in ta.iter().enumerate() {
            if proj_a[sa.index()][i].is_empty() {
                let target = intern((t1.target, sb), &mut index, &mut queue, &mut builder);
                pending_edges.push((
                    from,
                    Transition {
                        sync: t1.sync.clone(),
                        guard: t1.guard.clone(),
                        assigns: t1.assigns.clone(),
                        pops: t1.pops.clone(),
                        target,
                    },
                ));
                transitions_built += 1;
                check_budget!();
            }
        }
        // Independent steps of `b`.
        for (j, t2) in tb.iter().enumerate() {
            if proj_b[sb.index()][j].is_empty() {
                let target = intern((sa, t2.target), &mut index, &mut queue, &mut builder);
                pending_edges.push((
                    from,
                    Transition {
                        sync: t2.sync.clone(),
                        guard: t2.guard.clone(),
                        assigns: t2.assigns.clone(),
                        pops: t2.pops.clone(),
                        target,
                    },
                ));
                transitions_built += 1;
                check_budget!();
            }
        }
        // Joint steps: agree on the shared window (possibly ∅ — independent
        // transitions may also fire simultaneously under ×).
        for (i, t1) in ta.iter().enumerate() {
            for (j, t2) in tb.iter().enumerate() {
                if proj_a[sa.index()][i] != proj_b[sb.index()][j] {
                    continue;
                }
                let target = intern((t1.target, t2.target), &mut index, &mut queue, &mut builder);
                let mut assigns = t1.assigns.clone();
                assigns.extend(t2.assigns.iter().cloned());
                let mut pops = t1.pops.clone();
                pops.extend(t2.pops.iter().copied());
                pending_edges.push((
                    from,
                    Transition {
                        sync: t1.sync.union(&t2.sync),
                        guard: t1.guard.clone().and(t2.guard.clone()),
                        assigns,
                        pops,
                        target,
                    },
                ));
                transitions_built += 1;
                check_budget!();
            }
        }
    }

    for (from, t) in pending_edges {
        builder.transition(from, t);
    }
    builder.set_initial(first);
    let mut result = builder.build();
    result.set_port_classes(inputs, outputs, internals);
    result.replace_mems(a.mem_layout().iter().chain(b.mem_layout().iter()).collect());
    // `queue` was pushed in lockstep with `builder.state()` (one entry per
    // interned pair, never popped — `head` is a cursor), so it doubles as
    // the product-state → constituent-pair trace.
    Ok((result, queue))
}

/// Compose a list of automata with × in one n-ary construction (module
/// docs), from their initial states.
///
/// An empty list is invalid (× has no neutral element in this encoding);
/// a singleton list returns a clone.
pub fn product_all(autos: &[Automaton], opts: &ProductOptions) -> Result<Automaton, Explosion> {
    if let [only] = autos {
        return Ok(only.clone());
    }
    let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    Ok(TupleSpace::explore(autos, &starts, opts)?.0)
}

/// Per-product-state constituent tuples: `trace[s.index()]` is the tuple
/// of constituent states that product state `s` stands for.
pub type StateTrace = Vec<Box<[StateId]>>;

/// Compose a list of automata with ×, starting each constituent from the
/// given state, and return alongside the product a **trace**:
/// `trace[s.index()]` is the constituent state tuple that product state `s`
/// stands for (one entry per input automaton, in input order) — the tuples
/// the construction ran over, in discovery order.
///
/// The product's initial state corresponds exactly to `starts`. Label
/// simplification must **not** be applied to a traced product — merging
/// states would orphan the trace. Only tests call it: the trace is the
/// oracle that eager rows, lowered steps and the fold are held to.
pub fn product_all_traced(
    autos: &[Automaton],
    starts: &[StateId],
    opts: &ProductOptions,
) -> Result<(Automaton, StateTrace), Explosion> {
    assert_eq!(autos.len(), starts.len(), "one start state per automaton");
    if let [only] = autos {
        // Itself, unreachable states and queue hint included.
        let trace = only.all_states().map(|s| Box::from([s])).collect();
        return Ok((only.with_initial(starts[0]), trace));
    }
    let (product, tuples) = TupleSpace::explore(autos, starts, opts)?;
    let trace = tuples.chunks(autos.len()).map(Box::from).collect();
    Ok((product, trace))
}

/// The states of an n-ary product under construction: constituent tuples,
/// interned in discovery order.
struct TupleSpace<'a> {
    autos: &'a [Automaton],
    opts: &'a ProductOptions,
    builder: AutomatonBuilder,
    /// The tuple of product state `s` is `tuples[s * n..][..n]`; `index`
    /// finds a tuple's state.
    tuples: Vec<StateId>,
    index: Buckets,
    transitions: usize,
    /// Scratch of [`unions`](Self::unions): which automata the steps picked
    /// so far move, and which steps those are.
    taken: Vec<bool>,
    picked: Vec<usize>,
    /// Scratch of [`emit`](Self::emit): the choice vector and the tuple it
    /// leads to.
    scratch: (Vec<Choice>, Vec<StateId>),
}

impl<'a> TupleSpace<'a> {
    /// Breadth-first over the tuples reachable from `starts`. Returns the
    /// product and its tuple arena.
    fn explore(
        autos: &'a [Automaton],
        starts: &[StateId],
        opts: &'a ProductOptions,
    ) -> Result<(Automaton, Vec<StateId>), Explosion> {
        let n = autos.len();
        assert!(n > 0, "product of zero automata");
        let names: Vec<&str> = autos.iter().map(|a| a.name()).collect();
        let mut space = TupleSpace {
            autos,
            opts,
            builder: AutomatonBuilder::new(format!("({})", names.join(" x "))),
            tuples: Vec::new(),
            index: Buckets::default(),
            transitions: 0,
            taken: vec![false; n],
            picked: Vec::new(),
            scratch: Default::default(),
        };
        let owners = PortOwners::new(autos);
        space.intern(starts)?;
        let (mut steps, mut group_end) = (Steps::default(), Vec::new());
        let mut from = Vec::with_capacity(n);
        let mut s = 0;
        while s * n < space.tuples.len() {
            from.clear();
            from.extend_from_slice(&space.tuples[s * n..][..n]);
            // A connected step is a product transition, so whatever of the
            // budget is left bounds the enumeration too.
            let left = opts.max_transitions - space.transitions;
            (owners.enumerate(autos, |i| from[i], left, &mut steps))
                .map_err(|found| space.explosion(found))?;
            // Steps come sorted by lowest participant: `group_end[k]` is
            // where the steps that share step `k`'s end.
            group_end.clear();
            group_end.resize(steps.len(), steps.len());
            for k in (0..steps.len().saturating_sub(1)).rev() {
                let same = steps.get(k)[0].0 == steps.get(k + 1)[0].0;
                group_end[k] = if same { group_end[k + 1] } else { k + 1 };
            }
            space.unions(StateId(s as u32), &from, &steps, &group_end, 0)?;
            s += 1;
        }
        Ok((finish(space.builder, autos), space.tuples))
    }

    /// Emit every non-empty set of steps at or after `at` with pairwise
    /// disjoint participants, joined to the steps already picked. Two steps
    /// of one group share their lowest participant, so a set takes at most
    /// one step per group and the search resumes past the group it took
    /// from — 2^k mutually exclusive steps are scanned once, not per step.
    fn unions(
        &mut self,
        from: StateId,
        tuple: &[StateId],
        steps: &Steps,
        group_end: &[usize],
        at: usize,
    ) -> Result<(), Explosion> {
        for k in at..steps.len() {
            if steps.get(k).iter().any(|c| self.taken[c.0 as usize]) {
                continue;
            }
            self.picked.push(k);
            (steps.get(k).iter()).for_each(|c| self.taken[c.0 as usize] = true);
            self.emit(from, tuple, steps)?;
            self.unions(from, tuple, steps, group_end, group_end[k])?;
            (steps.get(k).iter()).for_each(|c| self.taken[c.0 as usize] = false);
            self.picked.pop();
        }
        Ok(())
    }

    /// The product transition that fires the picked steps together,
    /// composed once from its participants in ascending constituent order.
    fn emit(&mut self, from: StateId, tuple: &[StateId], steps: &Steps) -> Result<(), Explosion> {
        let (mut choice, mut target) = std::mem::take(&mut self.scratch);
        choice.clear();
        choice.extend(
            self.picked
                .iter()
                .flat_map(|&k| steps.get(k).iter().copied()),
        );
        choice.sort_unstable();
        let mut transition = compose(self.autos, &choice);
        target.clear();
        target.extend_from_slice(tuple);
        for &(i, at, k) in &choice {
            target[i as usize] = self.autos[i as usize].transitions_from(at)[k as usize].target;
        }
        let interned = self.intern(&target);
        self.scratch = (choice, target);
        transition.target = interned?;
        self.builder.transition(from, transition);
        self.transitions += 1;
        self.check()
    }

    /// The product state of `tuple`, made (and queued: the arena is the
    /// queue) on first sight.
    fn intern(&mut self, tuple: &[StateId]) -> Result<StateId, Explosion> {
        let n = self.autos.len();
        let hash = Buckets::hash(0, tuple.iter().map(|s| s.0));
        let known = |s: &usize| &self.tuples[s * n..][..n] == tuple;
        if let Some(s) = self.index.under(hash).find(known) {
            return Ok(StateId(s as u32));
        }
        self.index.push(hash);
        self.tuples.extend_from_slice(tuple);
        let fresh = self.builder.state();
        self.check().map(|()| fresh)
    }

    /// Both budgets, after every interned state and emitted transition: a
    /// single state can fan out exponentially many joint transitions
    /// (Fig. 13 finding 3), so checking once per state is not enough.
    fn check(&self) -> Result<(), Explosion> {
        let (states, opts) = (self.index.len(), self.opts);
        if states > opts.max_states || self.transitions > opts.max_transitions {
            return Err(self.explosion(0));
        }
        Ok(())
    }

    /// The budget is spent, counting `pending` steps found but not emitted.
    fn explosion(&self, pending: usize) -> Explosion {
        Explosion {
            automaton: self.builder.name().to_string(),
            states_built: self.index.len(),
            transitions_built: self.transitions + pending,
            limit_states: self.opts.max_states,
            limit_transitions: self.opts.max_transitions,
        }
    }
}

/// Port classes and memory of the product: a port that is input of one
/// constituent and output of another is internal (data flows through it
/// inside the product); memory layouts share one global id space.
fn finish(builder: AutomatonBuilder, autos: &[Automaton]) -> Automaton {
    let class = |of: fn(&Automaton) -> &PortSet| -> PortSet {
        autos.iter().flat_map(|a| of(a).iter()).collect()
    };
    let (inputs, outputs) = (class(Automaton::inputs), class(Automaton::outputs));
    let total = |of: fn(&Automaton) -> &PortSet| autos.iter().map(|a| of(a).len()).sum();
    debug_assert_eq!(
        inputs.len(),
        total(Automaton::inputs),
        "vertex is tail of two arcs"
    );
    debug_assert_eq!(
        outputs.len(),
        total(Automaton::outputs),
        "vertex is head of two arcs"
    );
    let matched = inputs.intersection(&outputs);
    let mut result = builder.build();
    result.set_port_classes(
        inputs.difference(&matched),
        outputs.difference(&matched),
        class(Automaton::internals).union(&matched),
    );
    result.replace_mems(autos.iter().flat_map(|a| a.mem_layout().iter()).collect());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::{MemId, PortId};
    use crate::primitives::*;

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn two_syncs_in_pipeline_behave_like_sync() {
        // sync(0;1) x sync(1;2): shared vertex 1 becomes internal.
        let s1 = sync(p(0), p(1));
        let s2 = sync(p(1), p(2));
        let prod = product(&s1, &s2, &ProductOptions::default()).unwrap();
        assert_eq!(prod.state_count(), 1);
        assert_eq!(prod.transition_count(), 1);
        let t = &prod.transitions_from(prod.initial())[0];
        assert_eq!(t.sync.len(), 3); // labels not yet hidden
        assert!(prod.internals().contains(p(1)));
        assert!(prod.inputs().contains(p(0)));
        assert!(prod.outputs().contains(p(2)));
    }

    #[test]
    fn independent_fifos_get_joint_and_interleaved_steps() {
        // Two disjoint fifo1s: product has 4 states; the initial state has
        // the two independent fills *plus* their joint step = 3 transitions.
        let f1 = fifo1(p(0), p(1), MemId(0));
        let f2 = fifo1(p(2), p(3), MemId(1));
        let prod = product(&f1, &f2, &ProductOptions::default()).unwrap();
        assert_eq!(prod.state_count(), 4);
        assert_eq!(prod.transitions_from(prod.initial()).len(), 3);
    }

    #[test]
    fn fifo2_as_two_fifo1s() {
        // fifo1(0;1) x fifo1(1;2): classic 3-reachable-state buffer of
        // capacity 2 — (e,e), (f,e), (e,f), (f,f) minus nothing = 4 states,
        // all reachable here.
        let f1 = fifo1(p(0), p(1), MemId(0));
        let f2 = fifo1(p(1), p(2), MemId(1));
        let prod = product(&f1, &f2, &ProductOptions::default()).unwrap();
        assert_eq!(prod.state_count(), 4);
        // Initial state: only the fill of the first fifo is possible
        // (the internal transfer needs the first buffer full).
        assert_eq!(prod.transitions_from(prod.initial()).len(), 1);
    }

    #[test]
    fn state_budget_triggers_explosion() {
        // Chain of 12 independent fifo1s -> 2^12 states > budget 1000.
        let autos: Vec<_> = (0..12)
            .map(|i| fifo1(p(2 * i), p(2 * i + 1), MemId(i)))
            .collect();
        let opts = ProductOptions {
            max_states: 1000,
            max_transitions: usize::MAX,
        };
        let err = product_all(&autos, &opts).unwrap_err();
        assert!(err.states_built > 1000);
    }

    #[test]
    fn product_is_commutative_up_to_counts() {
        let a = fifo1(p(0), p(1), MemId(0));
        let b = sync(p(1), p(2));
        let ab = product(&a, &b, &ProductOptions::default()).unwrap();
        let ba = product(&b, &a, &ProductOptions::default()).unwrap();
        assert_eq!(ab.state_count(), ba.state_count());
        assert_eq!(ab.transition_count(), ba.transition_count());
        assert_eq!(ab.ports(), ba.ports());
    }

    #[test]
    fn merger_with_drain_synchronizes() {
        // merger(0,1;2) x sync_drain(2,3;): head 2 must co-fire with 3.
        let m = merger(&[p(0), p(1)], p(2));
        let d = sync_drain(p(2), p(3));
        let prod = product(&m, &d, &ProductOptions::default()).unwrap();
        for t in prod.transitions_from(prod.initial()) {
            assert!(t.sync.contains(p(2)));
            assert!(t.sync.contains(p(3)));
        }
    }
}
