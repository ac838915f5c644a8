//! The primitive connectors ("small automata") of Fig. 6/7 of the paper,
//! plus the rest of Reo's standard channel set.
//!
//! Every builder takes the *caller's* port/memory ids (handed out by one
//! shared [`crate::port::PortAllocator`]), so primitives can be wired into
//! larger connectors simply by mentioning the same vertex id.

use crate::assign::Assign;
use crate::automaton::{Automaton, AutomatonBuilder, QueueHint, Transition};
use crate::guard::{Cmp, Guard, Pred};
use crate::port::{MemId, PortId, PortSet};
use crate::term::{Func, Term};
use crate::value::Value;

/// `sync(a;b)`: in every step, a message synchronously flows from `a` to `b`.
pub fn sync(a: PortId, b: PortId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("Sync({a};{b})"));
    let s = builder.state();
    builder.input(a);
    builder.output(b);
    builder.transition(
        s,
        Transition::new(PortSet::from_iter([a, b]), s)
            .with_assign(Assign::to_port(b, Term::Port(a))),
    );
    builder.build()
}

/// `lossy(a;b)`: flows `a`→`b`, or accepts on `a` and loses the message.
pub fn lossy(a: PortId, b: PortId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("Lossy({a};{b})"));
    let s = builder.state();
    builder.input(a);
    builder.output(b);
    builder.transition(
        s,
        Transition::new(PortSet::from_iter([a, b]), s)
            .with_assign(Assign::to_port(b, Term::Port(a))),
    );
    builder.transition(s, Transition::new(PortSet::singleton(a), s));
    builder.build()
}

/// `sync_drain(a,b;)`: accepts on both tails simultaneously; data is lost.
pub fn sync_drain(a: PortId, b: PortId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("SyncDrain({a},{b};)"));
    let s = builder.state();
    builder.input(a);
    builder.input(b);
    builder.transition(s, Transition::new(PortSet::from_iter([a, b]), s));
    builder.build()
}

/// `async_drain(a,b;)`: accepts on exactly one tail per step; data is lost.
pub fn async_drain(a: PortId, b: PortId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("AsyncDrain({a},{b};)"));
    let s = builder.state();
    builder.input(a);
    builder.input(b);
    builder.transition(s, Transition::new(PortSet::singleton(a), s));
    builder.transition(s, Transition::new(PortSet::singleton(b), s));
    builder.build()
}

/// `sync_spout(;a,b)`: offers unit tokens on both heads simultaneously.
pub fn sync_spout(a: PortId, b: PortId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("SyncSpout(;{a},{b})"));
    let s = builder.state();
    builder.output(a);
    builder.output(b);
    builder.transition(
        s,
        Transition::new(PortSet::from_iter([a, b]), s)
            .with_assign(Assign::to_port(a, Term::Const(Value::Unit)))
            .with_assign(Assign::to_port(b, Term::Const(Value::Unit))),
    );
    builder.build()
}

/// `fifo1(a;b)`: the two-state buffer of Fig. 7(b); `m` holds the datum.
pub fn fifo1(a: PortId, b: PortId, m: MemId) -> Automaton {
    fifo1_with_init(a, b, m, None)
}

/// `fifo1` whose buffer starts *full* with `init` — the token source used by
/// sequencers and token rings.
pub fn fifo1_full(a: PortId, b: PortId, m: MemId, init: Value) -> Automaton {
    fifo1_with_init(a, b, m, Some(init))
}

fn fifo1_with_init(a: PortId, b: PortId, m: MemId, init: Option<Value>) -> Automaton {
    let full_init = init.is_some();
    let mut builder = AutomatonBuilder::new(if full_init {
        format!("Fifo1Full({a};{b})")
    } else {
        format!("Fifo1({a};{b})")
    });
    builder.queue_hint(QueueHint {
        input: a,
        output: b,
        capacity: Some(1),
        initial: init.clone().into_iter().collect(),
    });
    let empty = builder.state();
    let full = builder.state();
    builder.input(a);
    builder.output(b);
    builder.mem(m, init.map(|v| vec![v]).unwrap_or_default());
    builder.set_initial(if full_init { full } else { empty });
    builder.transition(
        empty,
        Transition::new(PortSet::singleton(a), full).with_assign(Assign::set_mem(m, Term::Port(a))),
    );
    builder.transition(
        full,
        Transition::new(PortSet::singleton(b), empty)
            .with_assign(Assign::to_port(b, Term::Mem(m)))
            .with_pop(m),
    );
    builder.build()
}

/// `fifo_n(a;b)`: bounded buffer of capacity `n ≥ 1`, with `n + 1` control
/// states counting the fill level (the constraint-automata formalization of
/// the paper's `fifon`).
pub fn fifo_n(a: PortId, b: PortId, m: MemId, n: usize) -> Automaton {
    assert!(n >= 1, "fifo_n needs capacity >= 1");
    let mut builder = AutomatonBuilder::new(format!("Fifo{n}({a};{b})"));
    builder.queue_hint(QueueHint {
        input: a,
        output: b,
        capacity: Some(n),
        initial: Vec::new(),
    });
    let levels: Vec<_> = (0..=n).map(|_| builder.state()).collect();
    builder.input(a);
    builder.output(b);
    builder.mem(m, Vec::new());
    builder.set_initial(levels[0]);
    for i in 0..n {
        builder.transition(
            levels[i],
            Transition::new(PortSet::singleton(a), levels[i + 1])
                .with_assign(Assign::push_mem(m, Term::Port(a))),
        );
    }
    for i in 1..=n {
        builder.transition(
            levels[i],
            Transition::new(PortSet::singleton(b), levels[i - 1])
                .with_assign(Assign::to_port(b, Term::Mem(m)))
                .with_pop(m),
        );
    }
    builder.build()
}

/// `fifo(a;b)`: the *unbounded* buffer of Fig. 6(b). Two control states
/// (empty / non-empty) plus queue-length guards keep the automaton finite
/// while the queue itself grows without bound.
pub fn fifo_unbounded(a: PortId, b: PortId, m: MemId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("Fifo({a};{b})"));
    builder.queue_hint(QueueHint {
        input: a,
        output: b,
        capacity: None,
        initial: Vec::new(),
    });
    let empty = builder.state();
    let nonempty = builder.state();
    builder.input(a);
    builder.output(b);
    builder.mem(m, Vec::new());
    builder.transition(
        empty,
        Transition::new(PortSet::singleton(a), nonempty)
            .with_assign(Assign::push_mem(m, Term::Port(a))),
    );
    builder.transition(
        nonempty,
        Transition::new(PortSet::singleton(a), nonempty)
            .with_assign(Assign::push_mem(m, Term::Port(a))),
    );
    builder.transition(
        nonempty,
        Transition::new(PortSet::singleton(b), empty)
            .with_guard(Guard::MemLen(m, Cmp::Eq, 1))
            .with_assign(Assign::to_port(b, Term::Mem(m)))
            .with_pop(m),
    );
    builder.transition(
        nonempty,
        Transition::new(PortSet::singleton(b), nonempty)
            .with_guard(Guard::MemLen(m, Cmp::Gt, 1))
            .with_assign(Assign::to_port(b, Term::Mem(m)))
            .with_pop(m),
    );
    builder.build()
}

/// `seq_k(t1,…,tk;)`: accepts on its tails strictly in round-robin order,
/// losing the data — the paper's `seq2` (Fig. 6(c)) generalized to `k`
/// phases. `seq_k(&[x, y])` is exactly `Seq2(x,y;)`.
pub fn seq_k(tails: &[PortId]) -> Automaton {
    assert!(tails.len() >= 2, "seq_k needs at least two tails");
    let name = format!(
        "Seq{}({};)",
        tails.len(),
        tails
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut builder = AutomatonBuilder::new(name);
    let states: Vec<_> = tails.iter().map(|_| builder.state()).collect();
    for &t in tails {
        builder.input(t);
    }
    for (i, &t) in tails.iter().enumerate() {
        let next = states[(i + 1) % tails.len()];
        builder.transition(states[i], Transition::new(PortSet::singleton(t), next));
    }
    builder.build()
}

/// `merger(t1,…,tn;h)`: Fig. 6(d) generalized — in every step a message
/// flows from one nondeterministically selected tail to the head.
pub fn merger(tails: &[PortId], head: PortId) -> Automaton {
    assert!(!tails.is_empty(), "merger needs at least one tail");
    let mut builder = AutomatonBuilder::new(format!("Merger{}(..;{head})", tails.len()));
    let s = builder.state();
    for &t in tails {
        builder.input(t);
    }
    builder.output(head);
    for &t in tails {
        builder.transition(
            s,
            Transition::new(PortSet::from_iter([t, head]), s)
                .with_assign(Assign::to_port(head, Term::Port(t))),
        );
    }
    builder.build()
}

/// `replicator(t;h1,…,hn)`: Fig. 6(e) generalized — in every step a message
/// flows from the tail to *each* head simultaneously.
pub fn replicator(tail: PortId, heads: &[PortId]) -> Automaton {
    assert!(!heads.is_empty(), "replicator needs at least one head");
    let mut builder = AutomatonBuilder::new(format!("Repl{}({tail};..)", heads.len()));
    let s = builder.state();
    builder.input(tail);
    for &h in heads {
        builder.output(h);
    }
    let sync = std::iter::once(tail).chain(heads.iter().copied()).collect();
    let mut t = Transition::new(sync, s);
    for &h in heads {
        t = t.with_assign(Assign::to_port(h, Term::Port(tail)));
    }
    builder.transition(s, t);
    builder.build()
}

/// `router(t;h1,…,hn)`: the exclusive router — in every step a message flows
/// from the tail to exactly one nondeterministically selected head.
pub fn router(tail: PortId, heads: &[PortId]) -> Automaton {
    assert!(!heads.is_empty(), "router needs at least one head");
    let mut builder = AutomatonBuilder::new(format!("Router{}({tail};..)", heads.len()));
    let s = builder.state();
    builder.input(tail);
    for &h in heads {
        builder.output(h);
    }
    for &h in heads {
        builder.transition(
            s,
            Transition::new(PortSet::from_iter([tail, h]), s)
                .with_assign(Assign::to_port(h, Term::Port(tail))),
        );
    }
    builder.build()
}

/// `filter(a;b)`: flows `a`→`b` when `pred` holds of the message, otherwise
/// accepts on `a` and loses the message.
pub fn filter(a: PortId, b: PortId, pred: Pred) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("Filter[{}]({a};{b})", pred.name()));
    let s = builder.state();
    builder.input(a);
    builder.output(b);
    builder.transition(
        s,
        Transition::new(PortSet::from_iter([a, b]), s)
            .with_guard(Guard::Pred(pred.clone(), Term::Port(a)))
            .with_assign(Assign::to_port(b, Term::Port(a))),
    );
    builder.transition(
        s,
        Transition::new(PortSet::singleton(a), s).with_guard(Guard::NotPred(pred, Term::Port(a))),
    );
    builder.build()
}

/// `transform(a;b)`: flows `f(message)` from `a` to `b`.
pub fn transform(a: PortId, b: PortId, f: Func) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("Transform[{}]({a};{b})", f.name()));
    let s = builder.state();
    builder.input(a);
    builder.output(b);
    builder.transition(
        s,
        Transition::new(PortSet::from_iter([a, b]), s)
            .with_assign(Assign::to_port(b, Term::Apply(f, vec![Term::Port(a)]))),
    );
    builder.build()
}

/// `variable(w;r)`: a shared cell. Writes on `w` overwrite; reads on `r` are
/// non-destructive and enabled once the first write has happened.
pub fn variable(w: PortId, r: PortId, m: MemId) -> Automaton {
    let mut builder = AutomatonBuilder::new(format!("Var({w};{r})"));
    let unset = builder.state();
    let set = builder.state();
    builder.input(w);
    builder.output(r);
    builder.mem(m, Vec::new());
    builder.transition(
        unset,
        Transition::new(PortSet::singleton(w), set).with_assign(Assign::set_mem(m, Term::Port(w))),
    );
    builder.transition(
        set,
        Transition::new(PortSet::singleton(w), set).with_assign(Assign::set_mem(m, Term::Port(w))),
    );
    builder.transition(
        set,
        Transition::new(PortSet::singleton(r), set).with_assign(Assign::to_port(r, Term::Mem(m))),
    );
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fire::try_fire;
    use crate::store::Store;

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn sync_has_one_state_one_transition() {
        let aut = sync(p(0), p(1));
        assert_eq!(aut.state_count(), 1);
        assert_eq!(aut.transition_count(), 1);
        let t = &aut.transitions_from(aut.initial())[0];
        assert_eq!(t.sync.len(), 2);
    }

    #[test]
    fn fifo1_matches_fig7b_shape() {
        let aut = fifo1(p(0), p(1), MemId(0));
        assert_eq!(aut.state_count(), 2);
        assert_eq!(aut.transition_count(), 2);
        // Initially empty: only {a} enabled.
        let init = aut.transitions_from(aut.initial());
        assert_eq!(init.len(), 1);
        assert!(init[0].sync.contains(p(0)));
    }

    #[test]
    fn fifo1_full_starts_offering() {
        let aut = fifo1_full(p(0), p(1), MemId(0), Value::Int(9));
        let init = aut.transitions_from(aut.initial());
        assert_eq!(init.len(), 1);
        assert!(init[0].sync.contains(p(1)));
        // The initial token really is in the store.
        let mut store = Store::new(aut.mem_layout());
        let firing = try_fire(&init[0], &|_| None, &mut store).unwrap().unwrap();
        assert_eq!(firing.deliveries[0].1.as_int(), Some(9));
    }

    #[test]
    fn fifo_n_counts_levels() {
        let aut = fifo_n(p(0), p(1), MemId(0), 3);
        assert_eq!(aut.state_count(), 4);
        // Level 0: only accept; level 3: only offer; middle: both.
        assert_eq!(aut.transitions_from(StateIdAt(0)).len(), 1);
        assert_eq!(aut.transitions_from(StateIdAt(3)).len(), 1);
        assert_eq!(aut.transitions_from(StateIdAt(1)).len(), 2);
    }

    #[allow(non_snake_case)]
    fn StateIdAt(i: u32) -> crate::automaton::StateId {
        crate::automaton::StateId(i)
    }

    #[test]
    fn seq2_alternates() {
        let aut = seq_k(&[p(0), p(1)]);
        assert_eq!(aut.state_count(), 2);
        let s0 = aut.transitions_from(aut.initial());
        assert_eq!(s0.len(), 1);
        assert!(s0[0].sync.contains(p(0)));
        let s1 = aut.transitions_from(s0[0].target);
        assert!(s1[0].sync.contains(p(1)));
        // Round-robin: back to the initial state.
        assert_eq!(s1[0].target, aut.initial());
    }

    #[test]
    fn merger_has_one_transition_per_tail() {
        let aut = merger(&[p(0), p(1), p(2)], p(3));
        assert_eq!(aut.transition_count(), 3);
        for t in aut.transitions_from(aut.initial()) {
            assert!(t.sync.contains(p(3)));
            assert_eq!(t.sync.len(), 2);
        }
    }

    #[test]
    fn replicator_fires_all_heads_at_once() {
        let aut = replicator(p(0), &[p(1), p(2)]);
        assert_eq!(aut.transition_count(), 1);
        let t = &aut.transitions_from(aut.initial())[0];
        assert_eq!(t.sync.len(), 3);
        let mut store = Store::new(aut.mem_layout());
        let firing = try_fire(t, &|q| (q == p(0)).then_some(Value::Int(4)), &mut store)
            .unwrap()
            .unwrap();
        assert_eq!(firing.deliveries.len(), 2);
        assert!(firing.deliveries.iter().all(|(_, v)| v.as_int() == Some(4)));
    }

    #[test]
    fn router_fires_exactly_one_head() {
        let aut = router(p(0), &[p(1), p(2)]);
        assert_eq!(aut.transition_count(), 2);
        for t in aut.transitions_from(aut.initial()) {
            assert_eq!(t.sync.len(), 2);
        }
    }

    #[test]
    fn filter_drops_non_matching() {
        let even = Pred::new("even", |v| v.as_int().is_some_and(|i| i % 2 == 0));
        let aut = filter(p(0), p(1), even);
        let mut store = Store::new(aut.mem_layout());
        let trans = aut.transitions_from(aut.initial());
        let pass = trans.iter().find(|t| t.sync.len() == 2).unwrap();
        let drop = trans.iter().find(|t| t.sync.len() == 1).unwrap();
        // Odd value: pass-guard false, drop-guard true.
        let odd = |q: PortId| (q == p(0)).then_some(Value::Int(3));
        assert!(try_fire(pass, &odd, &mut store).unwrap().is_none());
        assert!(try_fire(drop, &odd, &mut store).unwrap().is_some());
    }

    #[test]
    fn variable_reads_after_first_write() {
        let aut = variable(p(0), p(1), MemId(0));
        assert_eq!(aut.transitions_from(aut.initial()).len(), 1);
        let mut store = Store::new(aut.mem_layout());
        let write = &aut.transitions_from(aut.initial())[0];
        try_fire(write, &|_| Some(Value::Int(1)), &mut store)
            .unwrap()
            .unwrap();
        let set_state = write.target;
        // Non-destructive read: value still present after reading.
        let read = aut
            .transitions_from(set_state)
            .iter()
            .find(|t| t.sync.contains(p(1)))
            .unwrap();
        let f = try_fire(read, &|_| None, &mut store).unwrap().unwrap();
        assert_eq!(f.deliveries[0].1.as_int(), Some(1));
        assert_eq!(store.len(MemId(0)), 1);
    }

    #[test]
    fn unbounded_fifo_grows_and_drains() {
        let aut = fifo_unbounded(p(0), p(1), MemId(0));
        let mut store = Store::new(aut.mem_layout());
        let mut state = aut.initial();
        let offer = |q: PortId| (q == p(0)).then_some(Value::Int(1));
        // Push three times.
        for _ in 0..3 {
            let t = aut
                .transitions_from(state)
                .iter()
                .find(|t| t.sync.contains(p(0)))
                .unwrap();
            try_fire(t, &offer, &mut store).unwrap().unwrap();
            state = t.target;
        }
        assert_eq!(store.len(MemId(0)), 3);
        // Drain three times; the len==1 guard must steer back to empty.
        for step in 0..3 {
            let enabled: Vec<_> = aut
                .transitions_from(state)
                .iter()
                .filter(|t| t.sync.contains(p(1)))
                .collect();
            let mut fired = None;
            for t in enabled {
                if let Some(f) = try_fire(t, &|_| None, &mut store).unwrap() {
                    fired = Some((t.target, f));
                    break;
                }
            }
            let (next, _) = fired.expect("a drain transition must be enabled");
            state = next;
            assert_eq!(store.len(MemId(0)), 2 - step);
        }
        assert_eq!(state, aut.initial());
    }
}
