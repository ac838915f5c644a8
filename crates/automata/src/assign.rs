//! Transition actions: where data goes when a transition fires.
//!
//! Firing a transition moves data in one atomic step: values offered on the
//! firing ports and values held in memory cells are routed to receiving
//! ports and/or memory cells. Assignments are executed in two phases — all
//! sources are evaluated against the *pre*-state first, then all writes are
//! applied — matching constraint-automata semantics where a transition's
//! data constraint relates pre-state to post-state.

use crate::port::{MemId, PortId};
use crate::store::Store;
use crate::term::Term;
use crate::value::Value;

/// Where an assignment writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dst {
    /// Deliver to a receiving (head) port: completes a pending `recv`.
    Port(PortId),
    /// Replace the contents of a memory cell.
    MemSet(MemId),
    /// Enqueue at the back of a memory cell.
    MemPush(MemId),
}

/// One data movement of a transition.
#[derive(Clone, Debug)]
pub struct Assign {
    pub dst: Dst,
    pub src: Term,
}

impl Assign {
    pub fn new(dst: Dst, src: Term) -> Self {
        Self { dst, src }
    }

    /// `port := term`.
    pub fn to_port(p: PortId, src: Term) -> Self {
        Self::new(Dst::Port(p), src)
    }

    /// `mem := term` (replace).
    pub fn set_mem(m: MemId, src: Term) -> Self {
        Self::new(Dst::MemSet(m), src)
    }

    /// `mem.push(term)`.
    pub fn push_mem(m: MemId, src: Term) -> Self {
        Self::new(Dst::MemPush(m), src)
    }

    pub fn structurally_eq(&self, other: &Assign) -> bool {
        self.dst == other.dst && self.src.structurally_eq(&other.src)
    }
}

/// Memory cells that a transition pops (dequeues) when it fires, *in
/// addition* to its assignments. Pops happen after source evaluation, so an
/// assignment may read `Term::Mem(m)` while the same transition pops `m`:
/// that is exactly how a fifo's "take" step is modelled.
pub type Pops = Vec<MemId>;

/// The effect of executing a transition's assignments: values delivered to
/// receiving ports (the engine completes the matching pending `recv`s).
#[derive(Debug, Default)]
pub struct Deliveries {
    pub to_ports: Vec<(PortId, Value)>,
}

/// Execute `assigns` then `pops` against the store.
///
/// `ports` resolves values offered on the transition's sending ports.
pub fn execute(
    assigns: &[Assign],
    pops: &[MemId],
    ports: &dyn Fn(PortId) -> Value,
    store: &mut Store,
) -> Deliveries {
    // Phase 1: evaluate every source against the pre-state.
    let mut staged: Vec<Value> = Vec::with_capacity(assigns.len());
    for a in assigns {
        staged.push(a.src.eval(ports, store));
    }
    // Phase 2: apply pops, then writes.
    for &m in pops {
        store.pop(m);
    }
    let mut deliveries = Deliveries::default();
    for (a, v) in assigns.iter().zip(staged) {
        match a.dst {
            Dst::Port(p) => deliveries.to_ports.push((p, v)),
            Dst::MemSet(m) => store.set(m, v),
            Dst::MemPush(m) => store.push(m, v),
        }
    }
    deliveries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemLayout;

    #[test]
    fn port_to_mem_and_mem_to_port() {
        let mut store = Store::new(&MemLayout::cells(1));
        let m = MemId(0);
        // Fill step: m := port 0.
        let fill = [Assign::set_mem(m, Term::Port(PortId(0)))];
        let d = execute(&fill, &[], &|_| Value::Int(5), &mut store);
        assert!(d.to_ports.is_empty());
        assert_eq!(store.peek(m).unwrap().as_int(), Some(5));
        // Take step: port 1 := m, pop m.
        let take = [Assign::to_port(PortId(1), Term::Mem(m))];
        let d = execute(&take, &[m], &|_| panic!("no sender"), &mut store);
        assert_eq!(d.to_ports.len(), 1);
        assert_eq!(d.to_ports[0].0, PortId(1));
        assert_eq!(d.to_ports[0].1.as_int(), Some(5));
        assert!(store.is_cell_empty(m));
    }

    #[test]
    fn sources_see_pre_state() {
        // Swap two cells in one transition: both reads happen before writes.
        let (a, b) = (MemId(0), MemId(1));
        let mut layout = MemLayout::default();
        layout.add(a, vec![Value::Int(1)]);
        layout.add(b, vec![Value::Int(2)]);
        let mut store = Store::new(&layout);
        let swap = [
            Assign::set_mem(a, Term::Mem(b)),
            Assign::set_mem(b, Term::Mem(a)),
        ];
        execute(&swap, &[], &|_| panic!(), &mut store);
        assert_eq!(store.peek(a).unwrap().as_int(), Some(2));
        assert_eq!(store.peek(b).unwrap().as_int(), Some(1));
    }

    #[test]
    fn pop_after_read_models_fifo_take() {
        let m = MemId(0);
        let mut layout = MemLayout::default();
        layout.add(m, vec![Value::Int(7), Value::Int(8)]);
        let mut store = Store::new(&layout);
        let take = [Assign::to_port(PortId(9), Term::Mem(m))];
        let d = execute(&take, &[m], &|_| panic!(), &mut store);
        assert_eq!(d.to_ports[0].1.as_int(), Some(7));
        // Next front is 8 after the pop.
        assert_eq!(store.peek(m).unwrap().as_int(), Some(8));
    }

    #[test]
    fn push_appends() {
        let mut store = Store::new(&MemLayout::cells(1));
        let m = MemId(0);
        execute(
            &[Assign::push_mem(m, Term::Const(Value::Int(1)))],
            &[],
            &|_| panic!(),
            &mut store,
        );
        execute(
            &[Assign::push_mem(m, Term::Const(Value::Int(2)))],
            &[],
            &|_| panic!(),
            &mut store,
        );
        assert_eq!(store.len(m), 2);
        assert_eq!(store.peek(m).unwrap().as_int(), Some(1));
    }
}
