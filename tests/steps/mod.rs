//! Shared by `connected_steps.rs` and `product_nary.rs`: the left fold of
//! binary products (Eq. 1 for two automata, applied n − 1 times — the
//! oracle, which contains no connected-step enumerator), a step normal
//! form to compare transitions under, and the connectors both run over: a
//! counterexample of either lands in `tests/corpus/` as a ready `.case` file.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use reo::automata::{
    product_from, Assign, Automaton, Dst, Explosion, Guard, MemId, PortAllocator, PortSet,
    ProductOptions, StateId, StateTrace, Term, Transition,
};
use reo::core::{compile, instantiate, Binding};
use reo_fuzz::{Agreement, CorpusCase, Driver, GenCase, Scenario};

/// The budget the oracle gets; every Fig. 12 family fits it at n ≤ 4.
pub const ORACLE_BUDGET: ProductOptions = ProductOptions {
    max_states: 1 << 12,
    max_transitions: 1 << 16,
};

/// `autos` composed by folding [`product_from`] left to right from
/// `starts`, with the constituent tuple of every product state.
pub fn fold(
    autos: &[Automaton],
    starts: &[StateId],
    opts: &ProductOptions,
) -> Result<(Automaton, StateTrace), Explosion> {
    let mut acc = autos[0].with_initial(starts[0]);
    let mut trace: StateTrace = acc.all_states().map(|s| Box::from([s])).collect();
    for (next, &start) in autos[1..].iter().zip(&starts[1..]) {
        let (prod, pairs) = product_from(&acc, next, acc.initial(), start, opts)?;
        trace = pairs
            .iter()
            .map(|&(sa, sb)| [&trace[sa.index()][..], &[sb]].concat().into())
            .collect();
        acc = prod;
    }
    Ok((acc, trace))
}

/// A step normalised for comparison: label and target tuple, plus guard
/// conjuncts, assignments and pops as sorted multisets (compositions may
/// conjoin and concatenate in different orders).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    pub sync: PortSet,
    pub targets: Vec<StateId>,
    pub guard: Vec<String>,
    pub assigns: Vec<String>,
    pub pops: Vec<MemId>,
    pub mems: BTreeSet<MemId>,
}

fn term_mems(t: &Term, out: &mut BTreeSet<MemId>) {
    match t {
        Term::Mem(m) => {
            out.insert(*m);
        }
        Term::Apply(_, args) => args.iter().for_each(|a| term_mems(a, out)),
        Term::Port(_) | Term::Const(_) => {}
    }
}

fn conjuncts(g: &Guard, out: &mut Vec<String>, mems: &mut BTreeSet<MemId>) {
    match g {
        Guard::True => {}
        Guard::And(a, b) => {
            conjuncts(a, out, mems);
            conjuncts(b, out, mems);
        }
        Guard::TermEq(a, b) | Guard::TermNe(a, b) => {
            term_mems(a, mems);
            term_mems(b, mems);
            out.push(format!("{g:?}"));
        }
        Guard::MemLen(m, ..) => {
            mems.insert(*m);
            out.push(format!("{g:?}"));
        }
        Guard::Pred(_, t) | Guard::NotPred(_, t) => {
            term_mems(t, mems);
            out.push(format!("{g:?}"));
        }
    }
}

pub fn normalise(t: &Transition, targets: &[StateId]) -> Step {
    let mut guard = Vec::new();
    let mut mems = BTreeSet::new();
    conjuncts(&t.guard, &mut guard, &mut mems);
    for Assign { dst, src } in &t.assigns {
        if let Dst::MemSet(m) | Dst::MemPush(m) = dst {
            mems.insert(*m);
        }
        term_mems(src, &mut mems);
    }
    mems.extend(t.pops.iter().copied());
    let mut assigns: Vec<String> = t.assigns.iter().map(|a| format!("{a:?}")).collect();
    let mut pops = t.pops.clone();
    guard.sort();
    assigns.sort();
    pops.sort();
    Step {
        sync: t.sync.clone(),
        targets: targets.to_vec(),
        guard,
        assigns,
        pops,
        mems,
    }
}

/// The medium automata of a scenario's connector at its sizes.
fn constituents(scenario: &Scenario) -> Result<Vec<Automaton>, String> {
    let program = reo::dsl::parse_program(&scenario.source).map_err(|e| e.to_string())?;
    let cc = compile(&program, &scenario.entry).map_err(|e| e.to_string())?;
    let mut alloc = PortAllocator::new();
    let binding: Binding = cc
        .params()
        .map(|p| {
            let width = scenario.replicate.iter().find(|(name, _)| *name == p.name);
            let n = if p.is_array {
                width.map_or(1, |w| w.1)
            } else {
                1
            };
            (p.name.clone(), alloc.fresh_ports(n))
        })
        .collect();
    let instance = instantiate(&cc, &binding, &mut alloc).map_err(|e| e.to_string())?;
    Ok(instance.automata)
}

/// A script-less case around a connector.
fn bare_case(source: &str, entry: &str, sizes: &[(&str, usize)]) -> GenCase {
    let mut scenario = Scenario::new(source, entry);
    scenario.replicate = sizes.iter().map(|(p, n)| (p.to_string(), *n)).collect();
    GenCase {
        scenario,
        agreement: Agreement::Exact,
        driver: Driver::Threads,
        expected: None,
        shape: "corpus",
    }
}

/// A property of a list of constituents, checked against the fold. `Err`
/// carries the violation; `Ok(None)` means the fold exceeded its budget (no
/// oracle), otherwise the number of states compared.
pub type Check = fn(&[Automaton]) -> Result<Option<usize>, String>;

/// Hold `check` on a case; a violation panics with the case as
/// corpus-file text. Whether there was an oracle.
fn hold(property: &str, check: Check, label: &str, case: &GenCase) -> bool {
    match constituents(&case.scenario).and_then(|autos| check(&autos)) {
        Ok(states) => states.is_some(),
        Err(why) => {
            let mut bare = case.clone();
            bare.scenario.steps.clear();
            bare.expected = None;
            panic!(
                "{label}: {why}\n--- commit as tests/corpus/{property}-{label}.case ---\n{}",
                reo_fuzz::to_text(&CorpusCase::Diff(bare), &format!("{property} {label}"))
            );
        }
    }
}

/// The eighteen Fig. 12 families at n ∈ {2,3,4}.
pub fn hold_on_fig12_families(property: &str, check: Check) {
    let mut with_oracle = 0;
    for family in reo::connectors::families() {
        for n in [2, 3, 4] {
            let case = bare_case(family.source, family.def, &(family.sizes)(n));
            let label = format!("{}-n{n}", family.name);
            with_oracle += usize::from(hold(property, check, &label, &case));
        }
    }
    // A budget that silently skipped cells would prove nothing.
    assert_eq!(with_oracle, 54, "cells whose fold fit its budget");
}

/// 96 generated cases, which cover the fuzzer's seven shapes.
pub fn hold_on_fuzzer_shapes(property: &str, check: Check) {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for index in 0..96 {
        let case = reo_fuzz::generate(15, index);
        let label = format!("{}-seed15-{index}", case.shape);
        if hold(property, check, &label, &case) {
            *seen.entry(case.shape).or_default() += 1;
        }
    }
    assert!(seen.len() >= 7, "shapes with an oracle: {seen:?}");
}

/// Every scenario in `tests/corpus/`.
pub fn hold_on_corpus(property: &str, check: Check) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for (path, case) in reo_fuzz::load_dir(&dir).expect("corpus must load") {
        if let CorpusCase::Diff(case) | CorpusCase::Fault(case) = &case {
            let label = path.file_stem().unwrap().to_string_lossy();
            hold(property, check, &label, case);
        }
    }
}

/// Constituent lists no DSL connector yields (a template's primitives are
/// composed at compile time): neighbours that share *two* vertices, of
/// which one side may fire both, either or only one — where "fires exactly
/// the fired ports it shares" and "no silent port of a joined automaton"
/// are different tests.
pub fn hold_on_two_vertex_neighbours(check: Check) {
    use reo::automata::primitives::*;
    let p = reo::automata::PortId;
    let lists = [
        // One of two heads fires, the drain wants both: no step at all.
        (
            "router-drain",
            vec![router(p(0), &[p(1), p(2)]), sync_drain(p(1), p(2))],
        ),
        (
            "replicator-drain",
            vec![replicator(p(0), &[p(1), p(2)]), sync_drain(p(1), p(2))],
        ),
        // Either shared vertex, then a buffer that makes a second state.
        (
            "router-merger-fifo",
            vec![
                router(p(0), &[p(1), p(2)]),
                merger(&[p(1), p(2)], p(3)),
                fifo1(p(3), p(4), MemId(0)),
            ],
        ),
        // The drain closes a triangle: it must join through one vertex and
        // then finds the other one silent.
        (
            "router-syncs-drain",
            vec![
                router(p(0), &[p(1), p(2)]),
                sync(p(1), p(3)),
                sync(p(2), p(4)),
                sync_drain(p(3), p(4)),
            ],
        ),
    ];
    for (label, autos) in lists {
        let states = check(&autos).unwrap_or_else(|why| panic!("{label}: {why}"));
        assert!(states.is_some(), "{label}: the fold fits its budget");
    }
}
