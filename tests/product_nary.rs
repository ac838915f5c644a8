//! The n-ary product against the left fold of binary products.
//!
//! `product_all_traced` composes all constituents at once over reachable
//! state tuples: connected steps from the shared enumerator, then every set
//! of them with pairwise disjoint participants. Eq. 1 is stated for two
//! automata, and `product_from` is that statement; folding it left to right
//! (`steps::fold`) is the oracle, which contains neither the enumerator nor
//! the union search. On every connector below the two are isomorphic:
//! states are matched by their constituent tuple, the start tuple is the
//! initial state of both, and at each state the transitions agree as
//! multisets of normalised steps (label, target tuple, guard conjuncts,
//! assignments, pops).
//!
//! Connectors: the eighteen Fig. 12 families at n ∈ {2,3,4}, the fuzzer's
//! seven generated shapes, every scenario in `tests/corpus/`, and four
//! hand-built constituent lists whose neighbours share two vertices.
//! CHANGES.md records the mutations this fails under ("AN EAGER PRODUCT
//! COSTS WHAT COMES OUT OF IT").

mod steps;

use std::collections::HashMap;

use reo::automata::{product_all_traced, Automaton, StateId, StateTrace};
use steps::{normalise, Step};

/// Per constituent tuple, the normalised transitions leaving it.
fn by_tuple<'a>(
    product: &Automaton,
    trace: &'a StateTrace,
) -> Result<HashMap<&'a [StateId], Vec<Step>>, String> {
    let mut states = HashMap::new();
    for s in product.all_states() {
        let transitions = product.transitions_from(s).iter();
        let leaving = transitions.map(|t| normalise(t, &trace[t.target.index()]));
        if states
            .insert(&*trace[s.index()], leaving.collect())
            .is_some()
        {
            return Err(format!("two states stand for {:?}", trace[s.index()]));
        }
    }
    Ok(states)
}

/// `Err` carries the difference; `Ok(None)` means the fold exceeded its
/// budget (no oracle).
fn check_automata(autos: &[Automaton]) -> Result<Option<usize>, String> {
    let initial: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    let Ok((folded, fold_trace)) = steps::fold(autos, &initial, &steps::ORACLE_BUDGET) else {
        return Ok(None);
    };
    let (nary, nary_trace) = product_all_traced(autos, &initial, &steps::ORACLE_BUDGET)
        .map_err(|e| format!("the fold fits the budget, the n-ary product does not: {e}"))?;

    for (name, product, trace) in [
        ("fold", &folded, &fold_trace),
        ("n-ary", &nary, &nary_trace),
    ] {
        if *trace[product.initial().index()] != initial[..] {
            return Err(format!("{name}: the initial state is not the start tuple"));
        }
    }
    if (folded.inputs(), folded.outputs(), folded.internals())
        != (nary.inputs(), nary.outputs(), nary.internals())
        || folded.mem_ids() != nary.mem_ids()
    {
        return Err("port classes or memory cells differ".into());
    }

    let want = by_tuple(&folded, &fold_trace)?;
    let got = by_tuple(&nary, &nary_trace)?;
    if let Some(tuple) = got.keys().find(|t| !want.contains_key(*t)) {
        return Err(format!(
            "the n-ary product reaches {tuple:?}, the fold does not"
        ));
    }
    for (tuple, want) in &want {
        let Some(got) = got.get(tuple) else {
            return Err(format!(
                "the fold reaches {tuple:?}, the n-ary product does not"
            ));
        };
        let mut unmatched = got.clone();
        for step in want {
            let Some(at) = unmatched.iter().position(|s| s == step) else {
                return Err(format!("at {tuple:?}: the n-ary product lacks {step:?}"));
            };
            unmatched.swap_remove(at);
        }
        if let Some(extra) = unmatched.first() {
            return Err(format!("at {tuple:?}: the fold has no {extra:?}"));
        }
    }
    Ok(Some(want.len()))
}

#[test]
fn fig12_families_compose_to_the_fold_of_binary_products() {
    steps::hold_on_fig12_families("product_nary", check_automata);
}

#[test]
fn fuzzer_shapes_compose_to_the_fold_of_binary_products() {
    steps::hold_on_fuzzer_shapes("product_nary", check_automata);
}

#[test]
fn corpus_connectors_compose_to_the_fold_of_binary_products() {
    steps::hold_on_corpus("product_nary", check_automata);
}

#[test]
fn neighbours_sharing_two_vertices_compose_to_the_fold_of_binary_products() {
    steps::hold_on_two_vertex_neighbours(check_automata);
}
