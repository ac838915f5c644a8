//! Property tests on the substrate invariants: PortSet algebra, product
//! laws, cache-fill equivalence, and parametrized-vs-elaborated agreement.

use proptest::prelude::*;

use reo::automata::explore::bounded_label_traces;
use reo::automata::{primitives, product, product_all, MemId, PortId, PortSet, ProductOptions};

fn port_vec() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..24, 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn portset_union_intersection_laws(a in port_vec(), b in port_vec()) {
        let sa = PortSet::from_iter(a.iter().map(|&i| PortId(i)));
        let sb = PortSet::from_iter(b.iter().map(|&i| PortId(i)));
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        // Absorption and containment.
        prop_assert!(sa.is_subset(&union));
        prop_assert!(sb.is_subset(&union));
        prop_assert!(inter.is_subset(&sa));
        prop_assert!(inter.is_subset(&sb));
        // |A| + |B| = |A ∪ B| + |A ∩ B|.
        prop_assert_eq!(sa.len() + sb.len(), union.len() + inter.len());
        // Difference partitions the union.
        let only_a = sa.difference(&sb);
        prop_assert_eq!(only_a.len() + inter.len(), sa.len());
        prop_assert!(only_a.is_disjoint(&sb));
        // Disjointness consistency.
        prop_assert_eq!(sa.is_disjoint(&sb), inter.is_empty());
    }

    #[test]
    fn product_is_commutative_on_traces(seed in 0u32..40) {
        // Two random small primitives wired to share one vertex.
        let a = match seed % 4 {
            0 => primitives::sync(PortId(0), PortId(1)),
            1 => primitives::fifo1(PortId(0), PortId(1), MemId(0)),
            2 => primitives::lossy(PortId(0), PortId(1)),
            _ => primitives::replicator(PortId(0), &[PortId(1), PortId(2)]),
        };
        let b = match (seed / 4) % 3 {
            0 => primitives::sync(PortId(1), PortId(5)),
            1 => primitives::fifo1(PortId(1), PortId(5), MemId(1)),
            _ => primitives::merger(&[PortId(1), PortId(6)], PortId(5)),
        };
        let opts = ProductOptions::default();
        let ab = product(&a, &b, &opts).unwrap();
        let ba = product(&b, &a, &opts).unwrap();
        prop_assert_eq!(ab.state_count(), ba.state_count());
        prop_assert_eq!(
            bounded_label_traces(&ab, 3),
            bounded_label_traces(&ba, 3)
        );
    }

    #[test]
    fn product_is_associative_on_traces(seed in 0u32..30) {
        let a = primitives::sync(PortId(0), PortId(1));
        let b = match seed % 3 {
            0 => primitives::fifo1(PortId(1), PortId(2), MemId(0)),
            1 => primitives::sync(PortId(1), PortId(2)),
            _ => primitives::lossy(PortId(1), PortId(2)),
        };
        let c = match (seed / 3) % 2 {
            0 => primitives::sync(PortId(2), PortId(3)),
            _ => primitives::fifo1(PortId(2), PortId(3), MemId(1)),
        };
        let opts = ProductOptions::default();
        let left = product(&product(&a, &b, &opts).unwrap(), &c, &opts).unwrap();
        let right = product(&a, &product(&b, &c, &opts).unwrap(), &opts).unwrap();
        prop_assert_eq!(
            bounded_label_traces(&left, 3),
            bounded_label_traces(&right, 3)
        );
    }

    #[test]
    fn parametrized_instance_matches_full_elaboration(n in 1usize..6) {
        // ConnectorEx11N: the medium-automata route must produce automata
        // whose *composed* reachable space equals that of the fully
        // elaborated primitives, composed and not label-simplified.
        use reo::core::{compile, compile_primitives, instantiate, Binding};
        use reo::automata::PortAllocator;
        let program = reo::core::examples::paper_program();
        let cc = compile(&program, "ConnectorEx11N").unwrap();

        let mut alloc1 = PortAllocator::new();
        let binding1: Binding = [
            ("tl".to_string(), alloc1.fresh_ports(n)),
            ("hd".to_string(), alloc1.fresh_ports(n)),
        ].into();
        let inst = instantiate(&cc, &binding1, &mut alloc1).unwrap();
        let composed = product_all(&inst.automata, &ProductOptions::default()).unwrap();

        let mut alloc2 = PortAllocator::new();
        let binding2: Binding = [
            ("tl".to_string(), alloc2.fresh_ports(n)),
            ("hd".to_string(), alloc2.fresh_ports(n)),
        ].into();
        let existing = compile_primitives(&program, "ConnectorEx11N").unwrap();
        let primitives = instantiate(&existing, &binding2, &mut alloc2).unwrap().automata;
        let mono = product_all(&primitives, &ProductOptions::default()).unwrap();

        let reach_a = reo::automata::explore::space_stats(&composed);
        let reach_b = reo::automata::explore::space_stats(&mono);
        prop_assert_eq!(reach_a.states, reach_b.states);
        // Same labels over the boundary: compare traces after hiding.
        let boundary1: PortSet = binding1.values().flatten().copied().collect();
        let boundary2: PortSet = binding2.values().flatten().copied().collect();
        let h1 = reo::automata::simplify(&composed, &boundary1);
        let h2 = reo::automata::simplify(&mono, &boundary2);
        // Port ids coincide across the two allocators (same allocation
        // order), so traces are directly comparable.
        prop_assert_eq!(
            bounded_label_traces(&h1, 3),
            bounded_label_traces(&h2, 3)
        );
    }
}

/// The two ways of filling the state cache — each row on first visit
/// (`jit`) and every reachable row at `connect` (`comp`) — must be
/// observationally identical on a deterministic single-thread-drivable
/// connector.
#[test]
fn cache_policies_observationally_equal_on_sequencer() {
    use reo::runtime::{Connector, Mode};
    let family = reo::connectors::families()
        .into_iter()
        .find(|f| f.name == "sequencer")
        .unwrap();
    let program = family.program();
    let run = |mode: Mode| -> u64 {
        let connector = Connector::builder(&program, family.def)
            .mode(mode)
            .build()
            .unwrap();
        let mut connected = connector.session().replicate("t", 4).connect().unwrap();
        let clients = connected.outports("t").unwrap();
        for _round in 0..3 {
            for c in &clients {
                c.send(reo::Value::Unit).unwrap();
            }
        }
        connected.handle().steps()
    };
    let lazy = run(Mode::jit());
    let eager = run(Mode::compiled());
    assert_eq!(lazy, eager, "same protocol, same step count");
}
