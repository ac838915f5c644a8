//! Transition-label simplification — the compile-time optimization of
//! Jongmans & Arbab, *Take Command of Your Constraints!* (COORDINATION '15),
//! reference \[30\] of the paper.
//!
//! After composition, a transition's label mentions every vertex data flowed
//! through, and its assignments route data hop by hop across internal
//! vertices. Firing then pays for each hop. Simplification contracts those
//! dataflow chains through ports not in a caller-supplied *keep* set, drops
//! the contracted ports from the synchronization label, and deduplicates the
//! transitions that become identical. The paper reports 1.2×–48.9× speedups
//! from this optimization in the existing compiler, and notes it is equally
//! applicable (per medium automaton) in the new approach: `reo_core`'s
//! `compile` simplifies each medium automaton, `ConnectorInstance::monolithic`
//! the large one.

use crate::assign::{Assign, Dst};
use crate::automaton::{Automaton, AutomatonBuilder, StateId, Transition};
use crate::buckets::Buckets;
use crate::name::Name;
use crate::port::PortSet;

/// Simplify every transition of `aut`, hiding all ports *not* in `keep`.
///
/// `keep` must contain every port that other automata or tasks observe:
/// typically the inputs and outputs of a fully composed connector, or the
/// boundary plus cross-template ports for a medium automaton.
pub fn simplify(aut: &Automaton, keep: &PortSet) -> Automaton {
    let mut builder = AutomatonBuilder::new(Name::format(format_args!("{}*", aut.name())));
    for _ in 0..aut.state_count() {
        builder.state();
    }
    builder.set_initial(aut.initial());

    // Per state, the kept transitions by a hash of `(target, sync, pops)`:
    // a duplicate costs its bucket, not the state's fan-out.
    let mut kept = Buckets::default();
    for s in aut.all_states() {
        let mut simplified: Vec<Transition> = Vec::new();
        kept.clear();
        for t in aut.transitions_from(s) {
            let new_t = simplify_transition(t, keep);
            // Drop no-op τ self-loops: they would make engines spin.
            if idles(&new_t, s) {
                continue;
            }
            // Deduplicate transitions that became observably identical;
            // the first occurrence stays where it was.
            let ids = new_t.sync.iter().map(|p| p.0);
            let hash = Buckets::hash(new_t.target.0, ids.chain(new_t.pops.iter().map(|m| m.0)));
            let duplicate = kept.under(hash).any(|i| same_step(&simplified[i], &new_t));
            if !duplicate {
                kept.push(hash);
                simplified.push(new_t);
            }
        }
        for t in simplified {
            builder.transition(s, t);
        }
    }

    let mut result = builder.build();
    let inputs = aut.inputs().intersection(keep);
    let outputs = aut.outputs().intersection(keep);
    let internals = aut.internals().intersection(keep);
    result.set_port_classes(inputs, outputs, internals);
    result.replace_mems(aut.mem_layout().clone());
    // A simplified queue is still a queue, provided its ends survive.
    result.set_queue_hint(
        aut.queue_hint()
            .cloned()
            .filter(|h| keep.contains(h.input) && keep.contains(h.output)),
    );
    result
}

/// Whether [`simplify`] hiding no port would return `aut` as it is but for
/// its name: it has no internal port to hide, no no-op τ self-loop to drop
/// and no two identical transitions out of one state.
pub fn is_simplified(aut: &Automaton) -> bool {
    aut.internals().is_empty()
        && aut.all_states().all(|s| {
            let from = aut.transitions_from(s);
            let fresh = |(k, t): (usize, &Transition)| {
                !idles(t, s) && !from[..k].iter().any(|u| same_step(u, t))
            };
            from.iter().enumerate().all(fresh)
        })
}

/// A τ self-loop out of `s` that moves no data: firing it changes nothing.
fn idles(t: &Transition, s: StateId) -> bool {
    t.is_internal() && t.target == s && t.assigns.is_empty() && t.pops.is_empty()
}

/// Observably the same step: label, target, pops, guard and data moves.
fn same_step(u: &Transition, t: &Transition) -> bool {
    u.target == t.target
        && u.sync == t.sync
        && u.pops == t.pops
        && u.guard.structurally_eq(&t.guard)
        && u.assigns.len() == t.assigns.len()
        && (u.assigns.iter().zip(&t.assigns)).all(|(x, y)| x.structurally_eq(y))
}

/// Contract dataflow chains through hidden ports in one transition.
fn simplify_transition(t: &Transition, keep: &PortSet) -> Transition {
    let mut assigns: Vec<Assign> = t.assigns.clone();
    let mut guard = t.guard.clone();

    // Repeatedly pick an assignment writing a hidden port, substitute its
    // source into every reader, and drop it. Each round removes one
    // assignment, so this terminates.
    while let Some(pos) = assigns
        .iter()
        .position(|a| matches!(a.dst, Dst::Port(p) if !keep.contains(p)))
    {
        let a = assigns.remove(pos);
        let Dst::Port(hidden) = a.dst else {
            unreachable!()
        };
        for other in &mut assigns {
            other.src = other.src.substitute_port(hidden, &a.src);
        }
        guard = guard.substitute_port(hidden, &a.src);
    }

    let mut sync = t.sync.clone();
    sync.retain(|p| keep.contains(p));

    Transition {
        sync,
        guard,
        assigns,
        pops: t.pops.clone(),
        target: t.target,
    }
}

/// Count the data "hops" (port-to-port assignments) in an automaton: one of
/// the two metrics simplification shrinks.
pub fn hop_count(aut: &Automaton) -> usize {
    aut.all_states()
        .flat_map(|s| aut.transitions_from(s))
        .map(|t| t.assigns.len())
        .sum()
}

/// Total number of ports mentioned across all transition labels.
pub fn label_width(aut: &Automaton) -> usize {
    aut.all_states()
        .flat_map(|s| aut.transitions_from(s))
        .map(|t| t.sync.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fire::try_fire;
    use crate::port::{MemId, PortId};
    use crate::primitives::*;
    use crate::product::{product_all, ProductOptions};
    use crate::store::Store;
    use crate::value::Value;

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn sync_chain_collapses_to_single_hop() {
        // sync(0;1) x sync(1;2) x sync(2;3), keep {0,3}.
        let autos = vec![sync(p(0), p(1)), sync(p(1), p(2)), sync(p(2), p(3))];
        let prod = product_all(&autos, &ProductOptions::default()).unwrap();
        assert_eq!(hop_count(&prod), 3);
        let keep = PortSet::from_iter([p(0), p(3)]);
        let simple = simplify(&prod, &keep);
        assert_eq!(simple.transition_count(), 1);
        let t = &simple.transitions_from(simple.initial())[0];
        assert_eq!(t.sync.as_slice(), &[p(0), p(3)]);
        assert_eq!(t.assigns.len(), 1);
        // End-to-end data still flows.
        let mut store = Store::new(simple.mem_layout());
        let f = try_fire(t, &|q| (q == p(0)).then_some(Value::Int(8)), &mut store)
            .unwrap()
            .unwrap();
        assert_eq!(f.deliveries.len(), 1);
        assert_eq!(f.deliveries[0].0, p(3));
        assert_eq!(f.deliveries[0].1.as_int(), Some(8));
    }

    #[test]
    fn fifo_between_syncs_keeps_memory_moves() {
        // sync(0;1) x fifo1(1;2) x sync(2;3), keep {0,3}.
        let autos = vec![
            sync(p(0), p(1)),
            fifo1(p(1), p(2), MemId(0)),
            sync(p(2), p(3)),
        ];
        let prod = product_all(&autos, &ProductOptions::default()).unwrap();
        let keep = PortSet::from_iter([p(0), p(3)]);
        let simple = simplify(&prod, &keep);
        assert_eq!(simple.state_count(), 2);
        // Fill: {0} with mem := port0 (chain contracted through vertex 1).
        let fill = &simple.transitions_from(simple.initial())[0];
        assert_eq!(fill.sync.as_slice(), &[p(0)]);
        let mut store = Store::new(simple.mem_layout());
        try_fire(fill, &|q| (q == p(0)).then_some(Value::Int(5)), &mut store)
            .unwrap()
            .unwrap();
        assert_eq!(store.peek(MemId(0)).unwrap().as_int(), Some(5));
        // Take: {3} delivering from memory.
        let take = &simple.transitions_from(fill.target)[0];
        assert_eq!(take.sync.as_slice(), &[p(3)]);
        let f = try_fire(take, &|_| None, &mut store).unwrap().unwrap();
        assert_eq!(f.deliveries[0].1.as_int(), Some(5));
    }

    #[test]
    fn drain_side_assignments_vanish() {
        // replicator(0; 1,2) x sync_drain(1,9;)... use two-port drain built
        // from seq2-style loss: replicate into a drain leg; after hiding the
        // leg the delivery to it disappears.
        let autos = vec![replicator(p(0), &[p(1), p(2)]), sync(p(1), p(3))];
        let prod = product_all(&autos, &ProductOptions::default()).unwrap();
        // Keep 0, 2 only: the 1->3 leg is dropped entirely.
        let keep = PortSet::from_iter([p(0), p(2)]);
        let simple = simplify(&prod, &keep);
        let t = &simple.transitions_from(simple.initial())[0];
        assert_eq!(t.sync.as_slice(), &[p(0), p(2)]);
        // Only the kept delivery remains.
        assert_eq!(t.assigns.len(), 1);
    }

    #[test]
    fn duplicates_collapse_after_hiding() {
        // router(0; 1,2) with both heads hidden: the two transitions become
        // indistinguishable {0} steps and must collapse into one.
        let aut = router(p(0), &[p(1), p(2)]);
        let keep = PortSet::singleton(p(0));
        let simple = simplify(&aut, &keep);
        assert_eq!(simple.transition_count(), 1);
    }

    #[test]
    fn duplicates_that_are_not_adjacent_collapse_and_order_is_kept() {
        // Heads 1 and 3 hidden, 2 kept: transitions 0 and 2 of the router
        // become the same `{0}` step with the `{0,2}` step between them.
        let aut = router(p(0), &[p(1), p(2), p(3)]);
        let keep = PortSet::from_iter([p(0), p(2)]);
        let simple = simplify(&aut, &keep);
        let labels: Vec<&[PortId]> = (simple.transitions_from(simple.initial()).iter())
            .map(|t| t.sync.as_slice())
            .collect();
        assert_eq!(labels, [&[p(0)][..], &[p(0), p(2)][..]]);
    }

    #[test]
    fn a_primitive_is_simplified_unless_simplify_would_change_it() {
        assert!(is_simplified(&fifo1(p(0), p(1), MemId(0))));
        assert!(is_simplified(&router(p(0), &[p(1), p(2)])));
        let mut twice = crate::automaton::AutomatonBuilder::new("twice");
        let s = twice.state();
        twice.input(p(0));
        for _ in 0..2 {
            twice.transition(s, Transition::new(PortSet::singleton(p(0)), s));
        }
        assert!(!is_simplified(&twice.build()));
        let pair = vec![sync(p(0), p(1)), sync(p(1), p(2))];
        assert!(!is_simplified(
            &product_all(&pair, &ProductOptions::default()).unwrap()
        ));
    }

    #[test]
    fn hop_and_width_metrics_shrink() {
        let autos: Vec<_> = (0..6).map(|i| sync(p(i), p(i + 1))).collect();
        let prod = product_all(&autos, &ProductOptions::default()).unwrap();
        let keep = PortSet::from_iter([p(0), p(6)]);
        let simple = simplify(&prod, &keep);
        assert!(hop_count(&simple) < hop_count(&prod));
        assert!(label_width(&simple) < label_width(&prod));
    }
}
