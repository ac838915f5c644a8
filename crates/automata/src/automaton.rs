//! Constraint automata with memory.
//!
//! States represent a connector's internal configurations, transitions its
//! global execution steps (Sect. III-B of the paper). A transition carries
//! the set of ports through which messages synchronously flow, a guard, and
//! the data movements to perform. Buffer *contents* live in memory cells
//! (see [`crate::store`]), keeping the control state finite.

use std::fmt;

use crate::assign::{Assign, Dst};
use crate::guard::Guard;
use crate::name::Name;
use crate::port::{MemId, PortId, PortSet};
use crate::store::MemLayout;

/// A control state, local to one automaton.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One global execution step the connector can make from a given state.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Ports through which messages synchronously flow in this step.
    pub sync: PortSet,
    /// Data constraint; must hold for the step to be takeable.
    pub guard: Guard,
    /// Data movements performed by the step.
    pub assigns: Vec<Assign>,
    /// Memory cells dequeued by the step (after sources are read).
    pub pops: Vec<MemId>,
    /// Successor control state.
    pub target: StateId,
}

impl Transition {
    pub fn new(sync: PortSet, target: StateId) -> Self {
        Self {
            sync,
            guard: Guard::True,
            assigns: Vec::new(),
            pops: Vec::new(),
            target,
        }
    }

    pub fn with_guard(mut self, guard: Guard) -> Self {
        self.guard = guard;
        self
    }

    pub fn with_assign(mut self, assign: Assign) -> Self {
        self.assigns.push(assign);
        self
    }

    pub fn with_pop(mut self, mem: MemId) -> Self {
        self.pops.push(mem);
        self
    }

    /// An internal (τ) step: fires no ports at all. Such steps only arise
    /// from hiding and fire spontaneously whenever their guard holds.
    pub fn is_internal(&self) -> bool {
        self.sync.is_empty()
    }
}

/// Marks an automaton as behaving like a plain queue between one input and
/// one output port — the asynchrony witness that the partitioned-execution
/// optimization (reference \[32\] of the paper) may cut a connector at.
#[derive(Clone, Debug)]
pub struct QueueHint {
    pub input: PortId,
    pub output: PortId,
    /// `None` = unbounded.
    pub capacity: Option<usize>,
    /// Initial queue contents (a full `fifo1full` starts with its token).
    pub initial: Vec<crate::value::Value>,
}

/// A constraint automaton with memory.
#[derive(Clone, Debug)]
pub struct Automaton {
    name: Name,
    /// Transitions grouped per source state; indexed by `StateId`.
    states: Vec<Vec<Transition>>,
    initial: StateId,
    /// Ports where the connector *accepts* data (tasks' outports attach).
    inputs: PortSet,
    /// Ports where the connector *offers* data (tasks' inports attach).
    outputs: PortSet,
    /// Ports internal to the automaton (matched input/output pairs from
    /// composition). They appear in labels until hidden by simplification.
    internals: PortSet,
    /// inputs ∪ outputs ∪ internals, kept with the three classes.
    ports: PortSet,
    /// The memory cells this automaton owns, with their initial contents
    /// (global ids, in allocation order).
    mems: MemLayout,
    /// Set by the fifo builders; lost under composition (a composite is no
    /// longer a plain queue).
    queue_hint: Option<QueueHint>,
}

impl Automaton {
    /// All ports occurring in this automaton (inputs ∪ outputs ∪ internals).
    pub fn ports(&self) -> &PortSet {
        &self.ports
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name itself, to give another automaton without a copy.
    pub(crate) fn shared_name(&self) -> &Name {
        &self.name
    }

    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// A clone of this automaton whose initial state is `s` — used by the
    /// reconfiguration splice to resume a constituent from its *current*
    /// control state rather than from scratch. States unreachable from `s`
    /// are kept (they are harmless and keep [`StateId`]s stable).
    pub fn with_initial(&self, s: StateId) -> Automaton {
        assert!(s.index() < self.states.len(), "state {s:?} out of range");
        let mut a = self.clone();
        a.initial = s;
        a
    }

    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    pub fn transition_count(&self) -> usize {
        self.states.iter().map(Vec::len).sum()
    }

    pub fn transitions_from(&self, s: StateId) -> &[Transition] {
        &self.states[s.index()]
    }

    pub fn all_states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    pub fn inputs(&self) -> &PortSet {
        &self.inputs
    }

    pub fn outputs(&self) -> &PortSet {
        &self.outputs
    }

    pub fn internals(&self) -> &PortSet {
        &self.internals
    }

    pub fn mem_layout(&self) -> &MemLayout {
        &self.mems
    }

    pub fn mem_ids(&self) -> &[MemId] {
        self.mems.ids()
    }

    /// Queue metadata, if this automaton is a plain fifo (see [`QueueHint`]).
    pub fn queue_hint(&self) -> Option<&QueueHint> {
        self.queue_hint.as_ref()
    }

    pub(crate) fn set_queue_hint(&mut self, hint: Option<QueueHint>) {
        self.queue_hint = hint;
    }

    /// Replace the memory cells wholesale (renaming, product and
    /// simplification carry their operands' cells over).
    pub(crate) fn replace_mems(&mut self, mems: MemLayout) {
        self.mems = mems;
    }

    pub(crate) fn set_port_classes(
        &mut self,
        inputs: PortSet,
        outputs: PortSet,
        internals: PortSet,
    ) {
        debug_assert!(
            inputs.is_disjoint(&outputs),
            "a port cannot be both input and output of one automaton"
        );
        self.ports = inputs.union(&outputs).union(&internals);
        self.inputs = inputs;
        self.outputs = outputs;
        self.internals = internals;
    }

    /// Pretty multi-line dump, for debugging and golden tests.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "automaton {} (initial {:?}, {} states, {} transitions)",
            self.name,
            self.initial,
            self.state_count(),
            self.transition_count()
        );
        for (i, trans) in self.states.iter().enumerate() {
            for t in trans {
                let _ = writeln!(
                    s,
                    "  s{} --{:?}--> {:?}  assigns={} pops={} guard={:?}",
                    i,
                    t.sync,
                    t.target,
                    t.assigns.len(),
                    t.pops.len(),
                    t.guard
                );
            }
        }
        s
    }
}

/// Incremental construction of an [`Automaton`]. Ports are collected and
/// each class is built as a set once, so declaring `n` ports costs one sort.
pub struct AutomatonBuilder {
    name: Name,
    states: Vec<Vec<Transition>>,
    initial: StateId,
    inputs: Vec<PortId>,
    outputs: Vec<PortId>,
    internals: Vec<PortId>,
    mems: MemLayout,
    queue_hint: Option<QueueHint>,
}

impl AutomatonBuilder {
    pub fn new(name: impl Into<Name>) -> Self {
        Self {
            name: name.into(),
            states: Vec::new(),
            initial: StateId(0),
            inputs: Vec::new(),
            outputs: Vec::new(),
            internals: Vec::new(),
            mems: MemLayout::default(),
            queue_hint: None,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mark the automaton under construction as a plain queue.
    pub fn queue_hint(&mut self, hint: QueueHint) {
        self.queue_hint = Some(hint);
    }

    /// Add a state; the first added state is the initial state by default.
    pub fn state(&mut self) -> StateId {
        self.states.push(Vec::new());
        StateId((self.states.len() - 1) as u32)
    }

    pub fn set_initial(&mut self, s: StateId) {
        self.initial = s;
    }

    /// Declare a port where the connector accepts data (task sends here).
    pub fn input(&mut self, p: PortId) {
        self.inputs.push(p);
    }

    /// Declare a port where the connector offers data (task receives here).
    pub fn output(&mut self, p: PortId) {
        self.outputs.push(p);
    }

    /// Declare an internal port.
    pub fn internal(&mut self, p: PortId) {
        self.internals.push(p);
    }

    /// Register a memory cell (global id) with initial contents.
    pub fn mem(&mut self, m: MemId, init: Vec<crate::value::Value>) {
        self.mems.add(m, init);
    }

    pub fn transition(&mut self, from: StateId, t: Transition) {
        debug_assert!(t.target.index() < self.states.len(), "dangling target");
        self.states[from.index()].push(t);
    }

    pub fn build(self) -> Automaton {
        debug_assert!(
            !self.states.is_empty(),
            "automaton must have at least one state"
        );
        let mut a = Automaton {
            name: self.name,
            states: self.states,
            initial: self.initial,
            inputs: PortSet::new(),
            outputs: PortSet::new(),
            internals: PortSet::new(),
            ports: PortSet::new(),
            mems: self.mems,
            queue_hint: self.queue_hint,
        };
        a.set_port_classes(
            PortSet::from_iter(self.inputs),
            PortSet::from_iter(self.outputs),
            PortSet::from_iter(self.internals),
        );
        a
    }
}

/// Collect the ports a transition *reads* data from (sources of assigns and
/// guard operands). Used by firing and simplification.
pub fn ports_read_by(t: &Transition) -> Vec<PortId> {
    let mut ports = Vec::new();
    for a in &t.assigns {
        a.src.ports_read(&mut ports);
    }
    t.guard.ports_read(&mut ports);
    ports.sort_unstable();
    ports.dedup();
    ports
}

/// Collect the ports a transition *writes* (delivers data to).
pub fn ports_written_by(t: &Transition) -> Vec<PortId> {
    let mut ports: Vec<PortId> = t
        .assigns
        .iter()
        .filter_map(|a| match a.dst {
            Dst::Port(p) => Some(p),
            _ => None,
        })
        .collect();
    ports.sort_unstable();
    ports.dedup();
    ports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assign;
    use crate::term::Term;

    #[test]
    fn builder_constructs_sync_shape() {
        let (a, b) = (PortId(0), PortId(1));
        let mut builder = AutomatonBuilder::new("sync");
        let s = builder.state();
        builder.input(a);
        builder.output(b);
        builder.transition(
            s,
            Transition::new(PortSet::from_iter([a, b]), s)
                .with_assign(Assign::to_port(b, Term::Port(a))),
        );
        let aut = builder.build();
        assert_eq!(aut.state_count(), 1);
        assert_eq!(aut.transition_count(), 1);
        assert_eq!(aut.ports().len(), 2);
        assert!(aut.inputs().contains(a));
        assert!(aut.outputs().contains(b));
        assert!(aut.internals().is_empty());
    }

    #[test]
    fn reads_and_writes_extraction() {
        let (a, b) = (PortId(0), PortId(1));
        let t = Transition::new(PortSet::from_iter([a, b]), StateId(0))
            .with_assign(Assign::to_port(b, Term::Port(a)));
        assert_eq!(ports_read_by(&t), vec![a]);
        assert_eq!(ports_written_by(&t), vec![b]);
    }

    #[test]
    fn internal_transition_detection() {
        let t = Transition::new(PortSet::new(), StateId(0));
        assert!(t.is_internal());
        let u = Transition::new(PortSet::singleton(PortId(1)), StateId(0));
        assert!(!u.is_internal());
    }

    #[test]
    fn dump_mentions_name_and_counts() {
        let mut b = AutomatonBuilder::new("probe");
        let s = b.state();
        b.transition(s, Transition::new(PortSet::singleton(PortId(0)), s));
        let dump = b.build().dump();
        assert!(dump.contains("probe"));
        assert!(dump.contains("1 states"));
    }
}
