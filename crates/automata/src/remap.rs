//! Renaming of ports and memory cells.
//!
//! Parametrized compilation composes "medium automata" over *symbolic* ids
//! at compile time; at run time each template instance is stamped out by
//! renaming symbolic ids to freshly allocated concrete ids (Sect. IV-C/D of
//! the paper — the `new Automaton3(i)` constructor calls of Fig. 10).

use crate::assign::Dst;
use crate::automaton::{Automaton, Transition};
use crate::guard::Guard;
use crate::port::{MemId, PortId};
use crate::term::Term;

/// Rename every port with `pm` and every memory cell with `mm`.
pub fn remap(
    aut: &Automaton,
    pm: &dyn Fn(PortId) -> PortId,
    mm: &dyn Fn(MemId) -> MemId,
) -> Automaton {
    let mut renamed = aut.clone();
    renamed.rename(pm, mm);
    renamed
}

/// [`remap`] one transition in place.
pub(crate) fn rename_transition(
    t: &mut Transition,
    pm: &dyn Fn(PortId) -> PortId,
    mm: &dyn Fn(MemId) -> MemId,
) {
    t.sync = t.sync.iter().map(pm).collect();
    rename_guard(&mut t.guard, pm, mm);
    for a in &mut t.assigns {
        a.dst = match a.dst {
            Dst::Port(p) => Dst::Port(pm(p)),
            Dst::MemSet(m) => Dst::MemSet(mm(m)),
            Dst::MemPush(m) => Dst::MemPush(mm(m)),
        };
        rename_term(&mut a.src, pm, mm);
    }
    t.pops.iter_mut().for_each(|m| *m = mm(*m));
}

fn rename_term(term: &mut Term, pm: &dyn Fn(PortId) -> PortId, mm: &dyn Fn(MemId) -> MemId) {
    match term {
        Term::Port(p) => *p = pm(*p),
        Term::Mem(m) => *m = mm(*m),
        Term::Const(_) => {}
        Term::Apply(_, args) => args.iter_mut().for_each(|a| rename_term(a, pm, mm)),
    }
}

fn rename_guard(g: &mut Guard, pm: &dyn Fn(PortId) -> PortId, mm: &dyn Fn(MemId) -> MemId) {
    match g {
        Guard::True => {}
        Guard::TermEq(a, b) | Guard::TermNe(a, b) => {
            rename_term(a, pm, mm);
            rename_term(b, pm, mm);
        }
        Guard::MemLen(m, _, _) => *m = mm(*m),
        Guard::Pred(_, t) | Guard::NotPred(_, t) => rename_term(t, pm, mm),
        Guard::And(a, b) => {
            rename_guard(a, pm, mm);
            rename_guard(b, pm, mm);
        }
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
