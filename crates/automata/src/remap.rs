//! Renaming of ports and memory cells.
//!
//! Parametrized compilation composes "medium automata" over *symbolic* ids
//! at compile time; at run time each template instance is stamped out by
//! renaming symbolic ids to freshly allocated concrete ids (Sect. IV-C/D of
//! the paper — the `new Automaton3(i)` constructor calls of Fig. 10).

use crate::assign::{Assign, Dst};
use crate::automaton::{Automaton, AutomatonBuilder, Transition};
use crate::guard::Guard;
use crate::port::{MemId, PortId, PortSet};
use crate::term::Term;

/// Rename every port with `pm` and every memory cell with `mm`.
pub fn remap(
    aut: &Automaton,
    pm: &dyn Fn(PortId) -> PortId,
    mm: &dyn Fn(MemId) -> MemId,
) -> Automaton {
    let mut builder = AutomatonBuilder::new(aut.shared_name().clone());
    for _ in 0..aut.state_count() {
        builder.state();
    }
    builder.set_initial(aut.initial());
    for s in aut.all_states() {
        for t in aut.transitions_from(s) {
            builder.transition(s, remap_transition(t, pm, mm));
        }
    }
    let mut result = builder.build();
    let class = |ports: &PortSet| ports.iter().map(pm).collect();
    result.set_port_classes(
        class(aut.inputs()),
        class(aut.outputs()),
        class(aut.internals()),
    );
    result.replace_mems(
        aut.mem_layout()
            .iter()
            .map(|(m, init)| (mm(m), init))
            .collect(),
    );
    result.set_queue_hint(aut.queue_hint().map(|h| crate::automaton::QueueHint {
        input: pm(h.input),
        output: pm(h.output),
        capacity: h.capacity,
        initial: h.initial.clone(),
    }));
    result
}

fn remap_transition(
    t: &Transition,
    pm: &dyn Fn(PortId) -> PortId,
    mm: &dyn Fn(MemId) -> MemId,
) -> Transition {
    Transition {
        sync: PortSet::from_iter(t.sync.iter().map(pm)),
        guard: remap_guard(&t.guard, pm, mm),
        assigns: t
            .assigns
            .iter()
            .map(|a| Assign {
                dst: match a.dst {
                    Dst::Port(p) => Dst::Port(pm(p)),
                    Dst::MemSet(m) => Dst::MemSet(mm(m)),
                    Dst::MemPush(m) => Dst::MemPush(mm(m)),
                },
                src: remap_term(&a.src, pm, mm),
            })
            .collect(),
        pops: t.pops.iter().map(|&m| mm(m)).collect(),
        target: t.target,
    }
}

fn remap_term(term: &Term, pm: &dyn Fn(PortId) -> PortId, mm: &dyn Fn(MemId) -> MemId) -> Term {
    match term {
        Term::Port(p) => Term::Port(pm(*p)),
        Term::Mem(m) => Term::Mem(mm(*m)),
        Term::Const(v) => Term::Const(v.clone()),
        Term::Apply(f, args) => Term::Apply(
            f.clone(),
            args.iter().map(|a| remap_term(a, pm, mm)).collect(),
        ),
    }
}

fn remap_guard(g: &Guard, pm: &dyn Fn(PortId) -> PortId, mm: &dyn Fn(MemId) -> MemId) -> Guard {
    match g {
        Guard::True => Guard::True,
        Guard::TermEq(a, b) => Guard::TermEq(remap_term(a, pm, mm), remap_term(b, pm, mm)),
        Guard::TermNe(a, b) => Guard::TermNe(remap_term(a, pm, mm), remap_term(b, pm, mm)),
        Guard::MemLen(m, c, n) => Guard::MemLen(mm(*m), *c, *n),
        Guard::Pred(p, t) => Guard::Pred(p.clone(), remap_term(t, pm, mm)),
        Guard::NotPred(p, t) => Guard::NotPred(p.clone(), remap_term(t, pm, mm)),
        Guard::And(a, b) => Guard::And(
            Box::new(remap_guard(a, pm, mm)),
            Box::new(remap_guard(b, pm, mm)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fire::try_fire;
    use crate::primitives::{fifo1, sync};
    use crate::store::Store;
    use crate::value::Value;

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn remapped_sync_uses_new_ids() {
        let aut = sync(p(0), p(1));
        let shifted = remap(&aut, &|q| PortId(q.0 + 10), &|m| m);
        assert!(shifted.inputs().contains(p(10)));
        assert!(shifted.outputs().contains(p(11)));
        let t = &shifted.transitions_from(shifted.initial())[0];
        assert!(t.sync.contains(p(10)) && t.sync.contains(p(11)));
    }

    #[test]
    fn remapped_fifo_preserves_behaviour() {
        let aut = fifo1(p(0), p(1), MemId(0));
        let renamed = remap(&aut, &|q| PortId(q.0 + 5), &|m| MemId(m.0 + 3));
        assert_eq!(renamed.mem_ids(), &[MemId(3)]);
        let mut store = Store::new(renamed.mem_layout());
        let fill = &renamed.transitions_from(renamed.initial())[0];
        try_fire(fill, &|q| (q == p(5)).then_some(Value::Int(2)), &mut store)
            .unwrap()
            .unwrap();
        assert_eq!(store.peek(MemId(3)).unwrap().as_int(), Some(2));
        let take = &renamed.transitions_from(fill.target)[0];
        let f = try_fire(take, &|_| None, &mut store).unwrap().unwrap();
        assert_eq!(f.deliveries[0].0, p(6));
        assert_eq!(f.deliveries[0].1.as_int(), Some(2));
    }

    #[test]
    fn remap_is_identity_with_identity_maps() {
        let aut = fifo1(p(0), p(1), MemId(0));
        let same = remap(&aut, &|q| q, &|m| m);
        assert_eq!(same.state_count(), aut.state_count());
        assert_eq!(same.transition_count(), aut.transition_count());
        assert_eq!(same.ports(), aut.ports());
    }
}
