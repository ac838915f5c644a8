//! The compiled mode's rows against the eager product and the lazy core.
//!
//! `JitCore::eager` (what `Mode::compiled()` and `compiled_partitioned()`
//! build at `connect`) fills, breadth-first from the start tuple, the row
//! of every reachable tuple with the connected steps the just-in-time core
//! would expand there on first visit. On every connector below:
//!
//! (a) the resident tuples are exactly the states of `product_all_traced`
//!     (the n-ary product, itself held to the fold of binary products by
//!     `product_nary.rs`): nothing reachable is missing, nothing invented;
//! (b) every row's steps are `PortOwners::connected_steps` at its tuple, in
//!     emission order — the order the rotation walks;
//! (c) the filled core and the lazy one (`comp` and `jit`) fire the same
//!     steps — same tuple after each firing, same ports completed with the
//!     same values — under one poll-driven saturation script.
//!
//! Connectors: the eighteen Fig. 12 families at n ∈ {2,3,4}, the fuzzer's
//! seven shapes, every scenario in `tests/corpus/`, and the hand-built
//! neighbours sharing two vertices. CHANGES.md records the mutations this
//! fails under ("A COMPILED SESSION IS THE JIT WITH EVERY REACHABLE ROW
//! FILLED AT CONNECT").

// Shared with `connected_steps.rs` and `product_nary.rs`, whose oracle is
// the fold this file does not need.
#[allow(dead_code)]
mod steps;

use std::collections::HashSet;

use reo::automata::{
    product_all_traced, Automaton, MemLayout, PortId, PortOwners, ProductOptions, StateId, Store,
    Value,
};
use reo::runtime::engine::{Pending, PendingTable};
use reo::runtime::jit::JitCore;

/// Rounds of the saturation script, and firings allowed per round (a
/// connector may cycle internally without any boundary operation).
const ROUNDS: usize = 12;
const FIRINGS_PER_ROUND: usize = 64;

/// One firing as a script sees it: the tuple it leaves the core in and the
/// operations it completed, rendered (`Value: !PartialEq`).
type Firing = (Vec<StateId>, Vec<String>);

/// Arm every boundary input with a fresh send and every boundary output
/// with a receive, step until nothing fires, repeat.
fn drive(core: &mut JitCore, ports: usize, layout: &MemLayout) -> Vec<Result<Firing, String>> {
    let (inputs, outputs) = (
        core.boundary_inputs().clone(),
        core.boundary_outputs().clone(),
    );
    let mut pending = PendingTable::new(ports);
    let mut store = Store::new(layout);
    let mut completed: Vec<PortId> = Vec::new();
    let (mut log, mut next) = (Vec::new(), 0i64);
    for _ in 0..ROUNDS {
        for p in inputs.iter() {
            if matches!(pending.op(p.index()), Pending::None | Pending::DoneSend) {
                pending.replace(p.index(), Pending::Send(Value::Int(next)));
                next += 1;
            }
        }
        for p in outputs.iter() {
            if matches!(pending.op(p.index()), Pending::None | Pending::DoneRecv(_)) {
                pending.replace(p.index(), Pending::Recv);
            }
        }
        for _ in 0..FIRINGS_PER_ROUND {
            match core.try_step(&mut pending, &mut store, &mut completed) {
                Ok(false) => break,
                Ok(true) => {
                    let ops = completed.drain(..);
                    let ops = ops
                        .map(|p| format!("{p:?} {:?}", pending.op(p.index())))
                        .collect();
                    log.push(Ok((core.constituent_states(), ops)));
                }
                Err(e) => {
                    log.push(Err(e.to_string()));
                    return log;
                }
            }
        }
    }
    log
}

/// Check (a)–(c) on one list of constituents. `Ok(None)`: the product
/// exceeded the oracle's budget.
fn check_automata(autos: &[Automaton]) -> Result<Option<usize>, String> {
    let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    let Ok((_, trace)) = product_all_traced(autos, &starts, &steps::ORACLE_BUDGET) else {
        return Ok(None);
    };
    let last = autos.iter().filter_map(|a| a.ports().iter().max());
    let ports = last.max().map_or(0, |p| p.index() + 1);
    let opts = ProductOptions::default();
    let mut eager = JitCore::eager(autos.to_vec(), &starts, &opts)
        .map_err(|e| format!("the product fits its budget, the fill does not: {e}"))?;

    let owners = PortOwners::new(autos);
    let mut resident = HashSet::new();
    for (tuple, row) in eager.rows() {
        let want = (owners.connected_steps(autos, |i| tuple[i], 1 << 20))
            .map_err(|found| format!("{found} connected steps at {tuple:?}"))?;
        if want.iter().map(|c| &c[..]).ne(row.iter().copied()) {
            return Err(format!(
                "(b) at {tuple:?}: the row is {row:?}, the enumerator emits {want:?}"
            ));
        }
        resident.insert(tuple);
    }
    let product: HashSet<Vec<StateId>> = trace.iter().map(|t| t.to_vec()).collect();
    if resident != product {
        let missing: Vec<_> = product.difference(&resident).collect();
        let invented: Vec<_> = resident.difference(&product).collect();
        return Err(format!(
            "(a) the product has {} tuples, the filled core {}: missing {missing:?}, \
             invented {invented:?}",
            product.len(),
            resident.len()
        ));
    }

    let mut layout = MemLayout::cells(0);
    autos.iter().for_each(|a| layout.merge(a.mem_layout()));
    let mut lazy = JitCore::new(autos.to_vec(), 1 << 20);
    let (comp, jit) = (
        drive(&mut eager, ports, &layout),
        drive(&mut lazy, ports, &layout),
    );
    if let Some(at) = (0..comp.len().max(jit.len())).find(|&k| comp.get(k) != jit.get(k)) {
        return Err(format!(
            "(c) firing {at}: comp {:?}, jit {:?}",
            comp.get(at),
            jit.get(at)
        ));
    }
    Ok(Some(trace.len()))
}

#[test]
fn fig12_families_fill_the_rows_of_the_product_tuples() {
    steps::hold_on_fig12_families("eager_rows", check_automata);
}

#[test]
fn fuzzer_shapes_fill_the_rows_of_the_product_tuples() {
    steps::hold_on_fuzzer_shapes("eager_rows", check_automata);
}

#[test]
fn corpus_connectors_fill_the_rows_of_the_product_tuples() {
    steps::hold_on_corpus("eager_rows", check_automata);
}

#[test]
fn neighbours_sharing_two_vertices_fill_the_rows_of_the_product_tuples() {
    steps::hold_on_two_vertex_neighbours(check_automata);
}
