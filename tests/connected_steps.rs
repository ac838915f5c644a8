//! Connected-step expansion against Eq. 1, folded.
//!
//! `JitCore::expand` emits only steps whose participants are linked
//! through fired shared ports; × (Eq. 1) also keeps the joint steps of
//! independent constituents. The oracle is the left fold of the binary
//! product (`steps::fold` over `product_from`), which contains no
//! connected-step enumerator: `product_all` is built on the one under test
//! and is itself held to that fold by `product_nary.rs`. At every reachable
//! state tuple of every connector below:
//!
//! (a) each product transition is a union of pairwise port-disjoint steps
//!     of the expansion (nothing × can do is lost);
//! (b) every union × admits is reached by firing its parts in either
//!     order — after either part the other is still there unchanged, both
//!     orders reach the same tuple, and the parts touch disjoint memory
//!     cells (same store);
//! (c) each step of the expansion is itself a product transition (nothing
//!     is invented).
//!
//! Connectors: the eighteen Fig. 12 families at n ∈ {2,3,4}, the fuzzer's
//! seven generated shapes, and every scenario in `tests/corpus/` — which is
//! where a counterexample lands: the failure message is a ready `.case`
//! file — plus four hand-built lists whose neighbours share two vertices.
//! CHANGES.md records the mutations this fails under ("CONNECTED-STEP JIT
//! EXPANSION", "AN EAGER PRODUCT COSTS WHAT COMES OUT OF IT").

mod steps;

use std::collections::HashMap;

use reo::automata::{Automaton, StateId};
use reo::runtime::jit::JitCore;
use steps::{normalise, Step};

/// The step that fires port-disjoint `a` and `b` (both leaving `from`)
/// together: each tuple position moves with whichever part moves it.
fn merge(from: &[StateId], a: &Step, b: &Step) -> Step {
    let targets = (0..from.len())
        .map(|i| {
            if a.targets[i] != from[i] {
                a.targets[i]
            } else {
                b.targets[i]
            }
        })
        .collect();
    let sorted = |x: &[String], y: &[String]| {
        let mut v = [x, y].concat();
        v.sort();
        v
    };
    let mut pops = [&a.pops[..], &b.pops[..]].concat();
    pops.sort();
    Step {
        sync: a.sync.union(&b.sync),
        targets,
        guard: sorted(&a.guard, &b.guard),
        assigns: sorted(&a.assigns, &b.assigns),
        pops,
        mems: a.mems.union(&b.mems).copied().collect(),
    }
}

/// Is `want` the union of `acc` and pairwise port-disjoint steps drawn
/// from `parts`? Internal steps have empty labels, so the search is over
/// subsets of the parts `want` contains rather than a cover of its label.
fn covers(from: &[StateId], want: &Step, acc: Option<&Step>, parts: &[&Step]) -> bool {
    if acc == Some(want) {
        return true;
    }
    parts.iter().enumerate().any(|(k, p)| {
        let merged = match acc {
            None => (*p).clone(),
            Some(s) if s.sync.is_disjoint(&p.sync) && s.mems.is_disjoint(&p.mems) => {
                merge(from, s, p)
            }
            Some(_) => return false,
        };
        covers(from, want, Some(&merged), &parts[k + 1..])
    })
}

/// Same step modulo where it starts: label, guard, data movements.
fn same_action(a: &Step, b: &Step) -> bool {
    (&a.sync, &a.guard, &a.assigns, &a.pops) == (&b.sync, &b.guard, &b.assigns, &b.pops)
}

/// Check (a)–(c) on one list of constituents. `Err` carries the violated
/// clause; `Ok(None)` means the fold exceeded its budget (no oracle).
fn check_automata(autos: &[Automaton]) -> Result<Option<usize>, String> {
    let initial: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    let Ok((prod, trace)) = steps::fold(autos, &initial, &steps::ORACLE_BUDGET) else {
        return Ok(None);
    };

    let expand = |tuple: &[StateId]| -> Result<Vec<Step>, String> {
        let core = JitCore::with_states(autos.to_vec(), tuple, 1 << 16);
        let expanded = core.expand().map_err(|e| e.to_string())?;
        Ok(expanded
            .iter()
            .map(|choice| {
                let (composed, moves) = core.compose_step(choice);
                let mut targets = tuple.to_vec();
                for &(i, target) in moves.iter() {
                    targets[i as usize] = target;
                }
                normalise(&composed, &targets)
            })
            .collect())
    };
    let mut jit: HashMap<&[StateId], Vec<Step>> = HashMap::new();
    for tuple in &trace {
        jit.insert(tuple, expand(tuple)?);
    }

    for s in prod.all_states() {
        let from = &*trace[s.index()];
        let parts = &jit[from];
        let product_steps: Vec<Step> = prod
            .transitions_from(s)
            .iter()
            .map(|t| normalise(t, &trace[t.target.index()]))
            .collect();
        for want in &product_steps {
            let contained: Vec<&Step> = parts
                .iter()
                .filter(|p| p.sync.is_subset(&want.sync) && p.mems.is_subset(&want.mems))
                .collect();
            if !covers(from, want, None, &contained) {
                return Err(format!(
                    "(a) at {from:?}: product step {want:?} is no union of \
                     port-disjoint connected steps {parts:?}"
                ));
            }
        }
        for (i, step) in parts.iter().enumerate() {
            if parts[..i].contains(step) {
                return Err(format!(
                    "at {from:?}: connected step {step:?} emitted twice"
                ));
            }
            if !product_steps.contains(step) {
                return Err(format!(
                    "(c) at {from:?}: connected step {step:?} is not a product transition"
                ));
            }
        }
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                // Two alternatives of one automaton can be port-disjoint
                // too; × tells them from independent steps.
                let both = merge(from, a, b);
                if !a.sync.is_disjoint(&b.sync) || !product_steps.contains(&both) {
                    continue;
                }
                let after = |first: &Step, second: &Step| {
                    jit.get(&first.targets[..]).is_some_and(|next| {
                        next.iter()
                            .any(|s| same_action(s, second) && s.targets == both.targets)
                    })
                };
                if !(after(a, b) && after(b, a) && a.mems.is_disjoint(&b.mems)) {
                    return Err(format!(
                        "(b) at {from:?}: × fires {a:?} and {b:?} jointly but they do not commute"
                    ));
                }
            }
        }
    }
    Ok(Some(trace.len()))
}

#[test]
fn fig12_families_expand_to_the_connected_steps_of_the_product() {
    steps::hold_on_fig12_families("connected_steps", check_automata);
}

#[test]
fn fuzzer_shapes_expand_to_the_connected_steps_of_the_product() {
    steps::hold_on_fuzzer_shapes("connected_steps", check_automata);
}

#[test]
fn corpus_connectors_expand_to_the_connected_steps_of_the_product() {
    steps::hold_on_corpus("connected_steps", check_automata);
}

#[test]
fn neighbours_sharing_two_vertices_expand_to_the_connected_steps_of_the_product() {
    steps::hold_on_two_vertex_neighbours(check_automata);
}
