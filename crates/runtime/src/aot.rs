//! The interpreting executor of one fully composed automaton — the
//! Fig. 12 baseline.
//!
//! The *existing approach* (monolithic compilation) produces one large
//! automaton; this core walks it, checking each transition's sync set
//! against the pending table port by port (`op_enabled`) and evaluating
//! its guard and assignment `Term`s through the valuation fixpoint
//! (`fire_one`). It is the core that interprets; the other one
//! ([`crate::jit`]) lowers each step on first use, whether it expands the
//! medium automata's states just in time or all reachable ones at
//! `connect` (Sect. IV-D, first approach; [`crate::Mode::compiled`]), so
//! `existing` differs from
//! `jit` both in *when* the product is built and in *how* a step is fired
//! — which is the comparison Fig. 12 makes.

use std::collections::HashSet;

use reo_automata::{
    product_all_traced, Automaton, PortId, PortSet, ProductOptions, StateId, Store,
};

use crate::engine::{fire_one, op_enabled, unsynced_ports, EngineCore, PendingTable};
use crate::error::RuntimeError;

/// Sequential state machine over one fully composed automaton.
pub struct AotCore {
    automaton: Automaton,
    state: StateId,
    inputs: PortSet,
    outputs: PortSet,
    /// Product-state → constituent-tuple trace, present when composed via
    /// [`AotCore::compose_traced`]; lets a reconfiguration splice read the
    /// current per-constituent control states back out of the product.
    trace: Option<Vec<Box<[StateId]>>>,
    /// Fairness: rotate the scan start so that no transition starves.
    rotation: usize,
    /// Hangup analysis: the product states whose walk under the current
    /// dead set added nothing to it.
    walked: HashSet<StateId>,
}

impl AotCore {
    /// Wrap an already-composed automaton (the monolithic path).
    pub fn from_automaton(automaton: Automaton) -> Self {
        let inputs = automaton.inputs().clone();
        let outputs = automaton.outputs().clone();
        let state = automaton.initial();
        AotCore {
            automaton,
            state,
            inputs,
            outputs,
            trace: None,
            rotation: 0,
            walked: HashSet::new(),
        }
    }

    /// Compose from an explicit constituent state tuple, recording the
    /// product trace so the tuple stays recoverable from any later product
    /// state ([`EngineCore::constituent_states`]). Label simplification is
    /// deliberately skipped — merging states would orphan the trace. This
    /// is the composition path of reconfigurable sessions.
    pub fn compose_traced(
        automata: &[Automaton],
        starts: &[StateId],
        opts: &ProductOptions,
    ) -> Result<Self, RuntimeError> {
        let (large, trace) = product_all_traced(automata, starts, opts)?;
        let mut core = Self::from_automaton(large);
        core.trace = Some(trace);
        Ok(core)
    }

    pub fn state_count(&self) -> usize {
        self.automaton.state_count()
    }

    pub fn transition_count(&self) -> usize {
        self.automaton.transition_count()
    }
}

impl EngineCore for AotCore {
    fn try_step(
        &mut self,
        pending: &mut PendingTable,
        store: &mut Store,
        completed: &mut Vec<PortId>,
    ) -> Result<bool, RuntimeError> {
        let transitions = self.automaton.transitions_from(self.state);
        let n = transitions.len();
        for k in 0..n {
            let t = &transitions[(k + self.rotation) % n];
            if !op_enabled(t, &self.inputs, &self.outputs, pending) {
                continue;
            }
            if fire_one(t, &self.inputs, &self.outputs, pending, store, completed)? {
                self.state = t.target;
                self.rotation = self.rotation.wrapping_add(1);
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn boundary_inputs(&self) -> &PortSet {
        &self.inputs
    }

    fn boundary_outputs(&self) -> &PortSet {
        &self.outputs
    }

    fn constituent_states(&self) -> Option<Vec<StateId>> {
        self.trace.as_ref().map(|t| t[self.state.index()].to_vec())
    }

    fn any_enabled(&mut self, pending: &PendingTable) -> bool {
        self.automaton
            .transitions_from(self.state)
            .iter()
            .any(|t| op_enabled(t, &self.inputs, &self.outputs, pending))
    }

    fn grow_dead(&mut self, dead: &mut PortSet, frontier: PortSet, walks: &mut u64) -> PortSet {
        if !frontier.is_empty() {
            self.walked.clear();
        }
        let mut grown = frontier;
        if !dead.is_empty() && !self.walked.contains(&self.state) {
            *walks += 1;
            let found = self.unsynced(dead).difference(dead);
            if !found.is_empty() {
                self.walked.clear();
            }
            // Found or not, a second walk from here would add nothing.
            self.walked.insert(self.state);
            for p in found.iter() {
                dead.insert(p);
                grown.insert(p);
            }
        }
        grown
    }

    #[cfg(debug_assertions)]
    fn dead_ports(&self, hungup: &PortSet) -> PortSet {
        hungup.union(&self.unsynced(hungup))
    }
}

impl AotCore {
    /// Product-level reachability from the current state via live
    /// transitions; the boundary ports none of them synchronizes are dead.
    fn unsynced(&self, dead: &PortSet) -> PortSet {
        let boundary = self.inputs.union(&self.outputs);
        unsynced_ports(&self.automaton, self.state, dead, &boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use reo_automata::{product_all, simplify, MemLayout, PortAllocator, PortId, Value};
    use reo_core::{compile, examples, instantiate, Binding};

    fn build_ex11(n: usize, simplified: bool) -> (Engine, Vec<PortId>, Vec<PortId>) {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let mut alloc = PortAllocator::new();
        let tl = alloc.fresh_ports(n);
        let hd = alloc.fresh_ports(n);
        let binding: Binding = [
            ("tl".to_string(), tl.clone()),
            ("hd".to_string(), hd.clone()),
        ]
        .into();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        let mut large = product_all(&inst.automata, &ProductOptions::default()).unwrap();
        if simplified {
            let boundary: PortSet = inst.boundary.values().flatten().copied().collect();
            large = simplify(&large, &boundary);
        }
        let core = AotCore::from_automaton(large);
        let mut layout = MemLayout::cells(alloc.mem_count());
        layout.merge(&inst.mem_layout);
        let engine = Engine::new(
            Box::new(core),
            crate::engine::PortMap::dense(alloc.port_count()),
            Store::new(&layout),
        );
        (engine, tl, hd)
    }

    #[test]
    fn ex11_n2_enforces_producer_order() {
        // Producer 2's send must NOT be completable before the consumer
        // received producer 1's message.
        let (eng, tl, hd) = build_ex11(2, true);
        // Producer 1 sends: completes (buffered).
        eng.send(tl[0], Value::Int(1)).unwrap();
        // Producer 2 registers a send; it must stay pending.
        assert!(eng.offer(tl[1], Value::Int(2)).is_none());
        assert_eq!(eng.steps(), 1);
        // Consumer receives from hd[1]: value 1 arrives, and only then can
        // producer 2's send complete.
        let v1 = eng.recv(hd[0]).unwrap();
        assert_eq!(v1.as_int(), Some(1));
        eng.send_until(tl[1], None, None).unwrap();
        assert_eq!(eng.recv(hd[1]).unwrap().as_int(), Some(2));
    }

    #[test]
    fn simplified_and_unsimplified_agree_on_order() {
        for simplify in [false, true] {
            let (eng, tl, hd) = build_ex11(3, simplify);
            // Only producer 1's send can complete before any receive.
            for (i, &t) in tl.iter().enumerate() {
                let done = eng.offer(t, Value::Int(i as i64)).is_some();
                assert_eq!(done, i == 0, "simplify={simplify}");
            }
            for (i, &h) in hd.iter().enumerate() {
                assert_eq!(
                    eng.recv(h).unwrap().as_int(),
                    Some(i as i64),
                    "simplify={simplify}"
                );
            }
            eng.send_until(tl[1], None, None).unwrap();
            eng.send_until(tl[2], None, None).unwrap();
        }
    }
}
