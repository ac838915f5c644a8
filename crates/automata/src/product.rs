//! The synchronous product × of constraint automata (Eq. 1 of the paper).
//!
//! Two transitions compose iff they agree on the shared ports:
//! `N₁ ∩ P₂ = N₂ ∩ P₁`. The product includes *joint* steps of independent
//! transitions as well as their interleavings — this is what makes × truly
//! synchronous, and it is also exactly why a product state can have a number
//! of transitions exponential in the number of independent constituents
//! (the paper's Fig. 13 finding 3).
//!
//! The eager product keeps those joint steps on purpose: it is Eq. 1 as
//! written, the Fig. 12 baseline and `Mode::compiled()`. The just-in-time
//! engine (`reo_runtime::jit`) expands only steps connected through fired
//! shared ports — a joint step of port-disjoint parts equals firing the
//! parts in any order — and `tests/connected_steps.rs` holds the two to
//! each other with this module as the oracle.
//!
//! Construction is reachable-only, breadth-first from the initial pair, with
//! a configurable state budget. Exceeding the budget is how "the existing
//! compiler cannot handle" a connector manifests in this reproduction.

use std::collections::HashMap;

use crate::automaton::{Automaton, AutomatonBuilder, StateId, Transition};
use crate::port::PortSet;
use crate::store::MemLayout;

/// Options for product construction.
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

/// Product construction failed: the state space or transition count exceeded
/// the budget. Carries enough context for benchmark harnesses to report
/// *which* composition failed, as Fig. 12's "existing approach fails" cells.
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
/// product's initial state is `(sa, sb)`. This is the building block of
/// [`product_all_traced`], which the dynamic-reconfiguration splice uses to
/// re-compose a region *from its current state tuple* while keeping the
/// tuple recoverable from any later product state.
pub fn product_from(
    a: &Automaton,
    b: &Automaton,
    sa: StateId,
    sb: StateId,
    opts: &ProductOptions,
) -> Result<(Automaton, Vec<(StateId, StateId)>), Explosion> {
    let ports_a = a.ports();
    let ports_b = b.ports();
    let shared = ports_a.intersection(&ports_b);

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

    // Memory layouts use the same global id space; merge them.
    let mut mems = MemLayout::cells(0);
    mems.merge(a.mem_layout());
    mems.merge(b.mem_layout());

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
    for p in &inputs {
        builder.input(p);
    }
    for p in &outputs {
        builder.output(p);
    }
    for p in &internals {
        builder.internal(p);
    }
    let mut result = builder.build();
    copy_mems(&mut result, &mems, a, b);
    // `queue` was pushed in lockstep with `builder.state()` (one entry per
    // interned pair, never popped — `head` is a cursor), so it doubles as
    // the product-state → constituent-pair trace.
    Ok((result, queue))
}

fn copy_mems(result: &mut Automaton, _mems: &MemLayout, a: &Automaton, b: &Automaton) {
    // `AutomatonBuilder::mem` also records ownership order; redo it here
    // from both operands so `mem_ids` stays complete.
    let mut ids: Vec<_> = a.mem_ids().to_vec();
    ids.extend_from_slice(b.mem_ids());
    let mut layout = MemLayout::cells(0);
    layout.merge(a.mem_layout());
    layout.merge(b.mem_layout());
    result.replace_mems(layout, ids);
}

/// Compose a list of automata with ×, folding left to right.
///
/// An empty list is invalid (× has no neutral element in this encoding);
/// a singleton list returns a clone.
pub fn product_all(autos: &[Automaton], opts: &ProductOptions) -> Result<Automaton, Explosion> {
    assert!(!autos.is_empty(), "product of zero automata");
    let mut acc = autos[0].clone();
    for next in &autos[1..] {
        acc = product(&acc, next, opts)?;
    }
    Ok(acc)
}

/// Per-product-state constituent tuples: `trace[s.index()]` is the tuple
/// of constituent states that product state `s` stands for.
pub type StateTrace = Vec<Box<[StateId]>>;

/// Compose a list of automata with ×, starting each constituent from the
/// given state, and return alongside the product a **trace**:
/// `trace[s.index()]` is the constituent state tuple that product state `s`
/// stands for (one entry per input automaton, in input order).
///
/// The product's initial state corresponds exactly to `starts`. Label
/// simplification must **not** be applied to a traced product — merging
/// states would orphan the trace. This is the composition primitive of the
/// dynamic-reconfiguration splice: a region is re-composed from its current
/// tuple, and the tuple stays recoverable from whatever product state the
/// region reaches later.
pub fn product_all_traced(
    autos: &[Automaton],
    starts: &[StateId],
    opts: &ProductOptions,
) -> Result<(Automaton, StateTrace), Explosion> {
    assert!(!autos.is_empty(), "product of zero automata");
    assert_eq!(autos.len(), starts.len(), "one start state per automaton");
    let mut acc = autos[0].with_initial(starts[0]);
    // Identity trace over the first constituent.
    let mut trace: Vec<Box<[StateId]>> = acc.all_states().map(|s| Box::from([s])).collect();
    for (next, &start) in autos[1..].iter().zip(&starts[1..]) {
        let (prod, pairs) = product_from(&acc, next, acc.initial(), start, opts)?;
        trace = pairs
            .iter()
            .map(|&(sa, sb)| {
                let mut tuple = trace[sa.index()].to_vec();
                tuple.push(sb);
                tuple.into_boxed_slice()
            })
            .collect();
        acc = prod;
    }
    Ok((acc, trace))
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
