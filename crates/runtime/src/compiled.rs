//! The compiled engine core: the eager product, lowered whole.
//!
//! Where [`crate::aot::AotCore`] interprets the composed automaton's `Term`
//! trees on every firing, `CompiledCore` lowers the (product) automaton
//! **once** at build time ([`mod@reo_automata::lower`]) and then steps it with
//!
//! 1. the table's **armed set** ([`PendingTable::armed`]): each transition's
//!    sync set is resolved once into the send and receive bits it needs, so
//!    operational enabledness is a few word compares per transition at any
//!    boundary width — the same test the just-in-time core dispatches by;
//! 2. the **straight-line bytecode** of each transition: guards and
//!    assignments run over a flat register file with zero per-step
//!    allocation, then deliveries/completions are written back to the
//!    shared [`PendingTable`].
//!
//! The core implements the same [`EngineCore`] contract as the other
//! cores, so everything above it — the blocking port protocol, the
//! partitioned scheduler and the link protocol ([`crate::partition`]) —
//! works unchanged; the differential `mode_equivalence` suite pins the
//! equivalence.
//!
//! ```
//! use reo_runtime::{Connector, Mode};
//!
//! let program = reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
//! let connector = Connector::builder(&program, "Buf")
//!     .mode(Mode::compiled())
//!     .build()
//!     .unwrap();
//! let mut session = connector.session().connect().unwrap();
//! let tx = session.typed_outport::<i64>("a").unwrap();
//! let rx = session.typed_inport::<i64>("b").unwrap();
//! tx.send(7).unwrap();
//! assert_eq!(rx.recv().unwrap(), 7);
//! ```

use reo_automata::lower::{lower_with, ExecScratch, LowerOptions, Lowered, LoweredTransition};
use reo_automata::{
    product_all, product_all_traced, simplify, Automaton, PortId, PortSet, ProductOptions, StateId,
    Store, Value,
};
use reo_core::ConnectorInstance;

use crate::engine::{EngineCore, Need, Pending, PendingTable};
use crate::error::RuntimeError;
use crate::jit::boundary_classes;

/// Sequential state machine over one lowered (product) automaton.
pub struct CompiledCore {
    lowered: Lowered,
    state: StateId,
    inputs: PortSet,
    outputs: PortSet,
    /// Per state, per transition: the armed-set test of its sync set.
    /// Resolved against the pending table's port map on the first step (a
    /// core is built before the engine that shards its ports).
    need: Vec<Box<[Need]>>,
    /// Fairness: rotate the scan start so that no transition starves.
    rotation: usize,
    scratch: ExecScratch,
    deliveries: Vec<(PortId, Value)>,
    /// Product-state → constituent-tuple trace, present when built via
    /// [`CompiledCore::compose_traced`] / [`CompiledCore::from_region_traced`];
    /// lets a reconfiguration splice read the current per-constituent
    /// control states back out of the lowered product.
    trace: Option<Vec<Box<[StateId]>>>,
}

impl CompiledCore {
    /// Compose the instance's automata now, optionally label-simplify down
    /// to the boundary, then lower the result. This is the paper's
    /// ahead-of-time composition ([`crate::Mode::compiled`]).
    pub fn compose(
        instance: &ConnectorInstance,
        opts: &ProductOptions,
        apply_simplify: bool,
    ) -> Result<Self, RuntimeError> {
        let large = product_all(&instance.automata, opts)?;
        let boundary: PortSet = instance.boundary.values().flatten().copied().collect();
        let large = if apply_simplify {
            simplify(&large, &boundary)
        } else {
            large
        };
        Self::from_automaton(&large)
    }

    /// Lower an already-composed automaton, taking its own port classes as
    /// the boundary.
    pub fn from_automaton(a: &Automaton) -> Result<Self, RuntimeError> {
        Self::from_parts(a, a.inputs().clone(), a.outputs().clone())
    }

    /// Compose a partition region's automata and lower the product. The
    /// boundary classes are derived exactly as the JIT region core derives
    /// them ([`boundary_classes`]), so cross-region link ports keep their
    /// send/receive roles.
    pub fn from_region(
        automata: &[Automaton],
        opts: &ProductOptions,
    ) -> Result<Self, RuntimeError> {
        let (inputs, outputs) = boundary_classes(automata);
        let product = product_all(automata, opts)?;
        Self::from_parts(&product, inputs, outputs)
    }

    /// Compose from an explicit constituent state tuple, recording the
    /// product trace so the tuple stays recoverable from any later product
    /// state ([`EngineCore::constituent_states`]). No label simplification
    /// (it would merge states and orphan the trace). The whole-connector
    /// composition path of reconfigurable compiled sessions; "re-lower" in
    /// the splice protocol means rebuilding the core through here.
    pub fn compose_traced(
        automata: &[Automaton],
        starts: &[StateId],
        opts: &ProductOptions,
    ) -> Result<Self, RuntimeError> {
        let (large, trace) = product_all_traced(automata, starts, opts)?;
        let mut core = Self::from_automaton(&large)?;
        core.trace = Some(trace);
        Ok(core)
    }

    /// The traced twin of [`from_region`](Self::from_region): re-lower a
    /// partition region from its current state tuple during a splice,
    /// keeping the tuple recoverable afterwards.
    pub fn from_region_traced(
        automata: &[Automaton],
        starts: &[StateId],
        opts: &ProductOptions,
    ) -> Result<Self, RuntimeError> {
        let (inputs, outputs) = boundary_classes(automata);
        let (product, trace) = product_all_traced(automata, starts, opts)?;
        let mut core = Self::from_parts(&product, inputs, outputs)?;
        core.trace = Some(trace);
        Ok(core)
    }

    fn from_parts(a: &Automaton, inputs: PortSet, outputs: PortSet) -> Result<Self, RuntimeError> {
        let lowered = lower_with(
            a,
            &LowerOptions {
                seeds: &inputs,
                deliver: Some(&outputs),
            },
        )?;
        Ok(CompiledCore {
            state: a.initial(),
            scratch: lowered.new_scratch(),
            lowered,
            inputs,
            outputs,
            need: Vec::new(),
            rotation: 0,
            deliveries: Vec::new(),
            trace: None,
        })
    }

    pub fn state_count(&self) -> usize {
        self.lowered.state_count()
    }

    pub fn transition_count(&self) -> usize {
        self.lowered.transition_count()
    }

    /// The current state's armed-set tests (all states' are resolved on
    /// the first call).
    fn needs(&mut self, pending: &PendingTable) -> &[Need] {
        if self.need.is_empty() {
            self.need = (0..self.lowered.state_count())
                .map(|s| {
                    let from = self.lowered.transitions_from(StateId(s as u32));
                    let need =
                        |t: &LoweredTransition| pending.need(&t.sync, &self.inputs, &self.outputs);
                    from.iter().map(need).collect()
                })
                .collect();
        }
        &self.need[self.state.index()]
    }

    /// Attempt transition `index` from the current state; on success,
    /// complete the fired sends and deliveries in `pending`.
    fn fire_at(
        &mut self,
        index: usize,
        pending: &mut PendingTable,
        store: &mut Store,
        completed: &mut Vec<PortId>,
    ) -> Result<bool, RuntimeError> {
        let input = |p: PortId| match pending.get(p) {
            Pending::Send(v) => Some(v.clone()),
            _ => None,
        };
        // Split borrows: `lowered` stays shared while scratch/deliveries are
        // mutably threaded through, so the fired transition needs no second
        // lookup for its writeback metadata.
        let Self {
            lowered,
            scratch,
            deliveries,
            ..
        } = self;
        let fired = lowered
            .try_fire(self.state, index, &input, store, scratch, deliveries)
            .map_err(RuntimeError::Unresolved)?;
        let Some(target) = fired else {
            return Ok(false);
        };
        let t = &lowered.transitions_from(self.state)[index];
        for &p in t.send_ports.iter() {
            pending.set(p, Pending::DoneSend);
            completed.push(p);
        }
        for (p, v) in self.deliveries.drain(..) {
            pending.set(p, Pending::DoneRecv(v));
            completed.push(p);
        }
        self.state = target;
        self.rotation = self.rotation.wrapping_add(1);
        Ok(true)
    }
}

impl EngineCore for CompiledCore {
    fn try_step(
        &mut self,
        pending: &mut PendingTable,
        store: &mut Store,
        completed: &mut Vec<PortId>,
    ) -> Result<bool, RuntimeError> {
        let n = self.needs(pending).len();
        for k in 0..n {
            let i = (k + self.rotation) % n;
            if pending.armed(&self.need[self.state.index()][i])
                && self.fire_at(i, pending, store, completed)?
            {
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
        self.needs(pending).iter().any(|need| pending.armed(need))
    }

    fn dead_ports(&self, hungup: &PortSet) -> PortSet {
        // Same product-level reachability as the AOT core, over the
        // lowered transition tables (sync sets survive lowering intact).
        let boundary = self.inputs.union(&self.outputs);
        crate::engine::dead_ports_reach(
            self.lowered.state_count(),
            self.state,
            hungup,
            &boundary,
            &|s| {
                self.lowered
                    .transitions_from(s)
                    .iter()
                    .map(|t| (t.sync.clone(), t.target))
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_automata::PortAllocator;
    use reo_core::{compile, instantiate, Binding};

    #[test]
    fn composition_failure_reports_explosion() {
        // Wide unsynchronized connector: the eager product must fail
        // within budget, typed.
        use reo_core::ir::*;
        let def = ConnectorDef {
            name: "Buffers".into(),
            tails: vec![Param::array("a")],
            heads: vec![Param::array("b")],
            body: CExpr::prod(
                "i",
                IExpr::Const(1),
                IExpr::len("a"),
                CExpr::Inst(Inst::new(
                    "Fifo1",
                    vec![PortRef::indexed("a", IExpr::var("i"))],
                    vec![PortRef::indexed("b", IExpr::var("i"))],
                )),
            ),
        };
        let prog = reo_core::Program::new(vec![def]);
        let cc = compile(&prog, "Buffers").unwrap();
        let mut alloc = PortAllocator::new();
        let binding: Binding = [
            ("a".to_string(), alloc.fresh_ports(20)),
            ("b".to_string(), alloc.fresh_ports(20)),
        ]
        .into();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        let opts = ProductOptions {
            max_states: 1 << 12,
            max_transitions: 1 << 14,
        };
        assert!(matches!(
            CompiledCore::compose(&inst, &opts, true),
            Err(RuntimeError::Explosion(_))
        ));
    }
}
