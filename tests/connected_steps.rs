//! Connected-step expansion against the eager product.
//!
//! `JitCore::expand` emits only steps whose participants are linked
//! through fired shared ports; `product_all` (Eq. 1) also keeps the joint
//! steps of independent constituents. The eager product is the oracle — no
//! second enumerator exists. At every reachable state tuple of every
//! connector below:
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
//! file. See PROPERTY-TESTS.md.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use reo::automata::{
    product_all_traced, Assign, Dst, Guard, MemId, PortAllocator, PortSet, ProductOptions, StateId,
    Term, Transition,
};
use reo::core::{compile, instantiate, Binding};
use reo::runtime::jit::JitCore;
use reo::runtime::{CachePolicy, Driver, Scenario};
use reo_fuzz::{Agreement, CorpusCase, GenCase};

/// A step normalised for comparison: label and target tuple, plus guard
/// conjuncts, assignments and pops as sorted multisets (× and the
/// expansion conjoin and concatenate in different orders).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Step {
    sync: PortSet,
    targets: Vec<StateId>,
    guard: Vec<String>,
    assigns: Vec<String>,
    pops: Vec<MemId>,
    mems: BTreeSet<MemId>,
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

fn normalise(t: &Transition, targets: &[StateId]) -> Step {
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

/// Check (a)–(c) on one connector. `Err` carries the violated clause;
/// `Ok(None)` means the eager product exceeded its budget (no oracle).
fn check_connector(scenario: &Scenario) -> Result<Option<usize>, String> {
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
    let autos = instantiate(&cc, &binding, &mut alloc)
        .map_err(|e| e.to_string())?
        .automata;
    let initial: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
    let opts = ProductOptions {
        max_states: 1 << 12,
        max_transitions: 1 << 16,
    };
    let Ok((prod, trace)) = product_all_traced(&autos, &initial, &opts) else {
        return Ok(None);
    };

    let expand = |tuple: &[StateId]| -> Result<Vec<Step>, String> {
        let core = JitCore::with_states(
            autos.clone(),
            tuple,
            CachePolicy::Unbounded.build(),
            1 << 16,
        );
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

/// Run the check; a violation panics with the case as corpus-file text.
fn assert_connected_steps_match_product(label: &str, case: &GenCase) -> Option<usize> {
    match check_connector(&case.scenario) {
        Ok(states) => states,
        Err(why) => {
            let mut bare = case.clone();
            bare.scenario.steps.clear();
            bare.expected = None;
            panic!(
                "{label}: {why}\n--- commit as tests/corpus/connected-{label}.case ---\n{}",
                reo_fuzz::to_text(&CorpusCase::Diff(bare), &format!("connected_steps {label}"))
            );
        }
    }
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

#[test]
fn fig12_families_expand_to_the_connected_steps_of_the_product() {
    let mut with_oracle = 0;
    for family in reo::connectors::families() {
        for n in [2, 3, 4] {
            let case = bare_case(family.source, family.def, &(family.sizes)(n));
            let label = format!("{}-n{n}", family.name);
            if assert_connected_steps_match_product(&label, &case).is_some() {
                with_oracle += 1;
            }
        }
    }
    // A budget that silently skipped cells would prove nothing.
    assert_eq!(with_oracle, 54, "cells whose eager product fit its budget");
}

#[test]
fn fuzzer_shapes_expand_to_the_connected_steps_of_the_product() {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for index in 0..96 {
        let case = reo_fuzz::generate(15, index);
        let label = format!("{}-seed15-{index}", case.shape);
        if assert_connected_steps_match_product(&label, &case).is_some() {
            *seen.entry(case.shape).or_default() += 1;
        }
    }
    assert!(seen.len() >= 7, "shapes with an oracle: {seen:?}");
}

#[test]
fn corpus_connectors_expand_to_the_connected_steps_of_the_product() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for (path, case) in reo_fuzz::load_dir(&dir).expect("corpus must load") {
        if let CorpusCase::Diff(case) | CorpusCase::Fault(case) = &case {
            let label = path.file_stem().unwrap().to_string_lossy().into_owned();
            assert_connected_steps_match_product(&label, case);
        }
    }
}
