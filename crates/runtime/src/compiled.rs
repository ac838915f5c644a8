//! The compiled engine core: table dispatch over lowered stepping programs.
//!
//! Where [`crate::aot::AotCore`] interprets the composed automaton's `Term`
//! trees on every firing, `CompiledCore` lowers the (product) automaton
//! **once** at build time ([`mod@reo_automata::lower`]) and then steps it with
//!
//! 1. a **pending-port mask**: one bit per boundary port, set when the port
//!    is armed (a pending `Send` on an input, a pending `Recv` on an
//!    output), rebuilt in one linear scan per step;
//! 2. **dense transition tables** keyed by `(state, mask)` — for small
//!    boundaries every `(state, mask)` pair is precomputed into the exact
//!    candidate list, so operational-enabledness checking is a single
//!    indexed load instead of a per-transition sync-set walk;
//! 3. the **straight-line bytecode** of each transition: guards and
//!    assignments run over a flat register file with zero per-step
//!    allocation, then deliveries/completions are written back to the
//!    shared [`PendingTable`].
//!
//! The core implements the same [`EngineCore`] contract as the interpreting
//! engines, so everything above it — the blocking port protocol, the PR 4
//! partitioned scheduler and the PR 5 batched link pumping
//! (`link_drain_deliveries` / `link_offer_batch`) — works unchanged; the
//! differential `mode_equivalence` suite pins the equivalence.
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

use reo_automata::lower::{lower_with, ExecScratch, LowerOptions, Lowered};
use reo_automata::{
    product_all, product_all_traced, simplify, Automaton, PortId, PortSet, ProductOptions, StateId,
    Store, Value,
};
use reo_core::ConnectorInstance;

use crate::engine::{EngineCore, Pending, PendingTable};
use crate::error::RuntimeError;
use crate::jit::boundary_classes;

/// Ceiling on boundary bits for the dense `(state, mask)` table.
const DENSE_MAX_BITS: u32 = 10;
/// Ceiling on total dense-table entries (states × 2^bits).
const DENSE_MAX_ENTRIES: usize = 1 << 16;

/// `table[state][mask]` = indices of the transitions enabled under `mask`.
type DenseTable = Box<[Box<[Box<[u16]>]>]>;

/// Sequential state machine over one lowered (product) automaton.
pub struct CompiledCore {
    lowered: Lowered,
    state: StateId,
    inputs: PortSet,
    outputs: PortSet,
    /// Boundary ports in bit order; `true` marks an input.
    mask_ports: Box<[(PortId, bool)]>,
    /// Per state, per transition: the mask bits its sync set requires.
    /// Empty (and unused) when the boundary exceeds 128 ports.
    need: Box<[Box<[u128]>]>,
    /// `dense[state][mask]` = indices of transitions enabled under `mask`,
    /// when the `(state, mask)` space is small enough to precompute.
    dense: Option<DenseTable>,
    /// True when the boundary exceeds 128 ports: fall back to per-port
    /// sync-set scanning (no such connector exists in the bench set).
    wide: bool,
    /// Fairness: rotate the scan start so that no transition starves.
    rotation: usize,
    /// Armed-mask cache: valid while `pending.version()` still equals
    /// `mask_version`. A firing updates it in place (`mask & !need`), so
    /// back-to-back `try_step` calls — the batched-drain hot path — skip
    /// the per-port rescan entirely.
    cached_mask: u128,
    mask_version: u64,
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
        let mask_ports: Box<[(PortId, bool)]> = inputs
            .iter()
            .map(|p| (p, true))
            .chain(outputs.iter().map(|p| (p, false)))
            .collect();
        let bits = mask_ports.len();
        let wide = bits > 128;
        let bit_of = |p: PortId| mask_ports.iter().position(|&(q, _)| q == p);

        let need: Box<[Box<[u128]>]> = if wide {
            Box::new([])
        } else {
            a.all_states()
                .map(|s| {
                    lowered
                        .transitions_from(s)
                        .iter()
                        .map(|t| {
                            let mut m = 0u128;
                            for p in t.sync.iter() {
                                if let Some(b) = bit_of(p) {
                                    m |= 1u128 << b;
                                }
                            }
                            m
                        })
                        .collect()
                })
                .collect()
        };

        let dense = (!wide
            && bits as u32 <= DENSE_MAX_BITS
            && a.state_count().saturating_mul(1usize << bits) <= DENSE_MAX_ENTRIES)
            .then(|| {
                need.iter()
                    .map(|needs| {
                        (0u128..1u128 << bits)
                            .map(|mask| {
                                needs
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, need)| **need & mask == **need)
                                    .map(|(i, _)| i as u16)
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            });

        Ok(CompiledCore {
            state: a.initial(),
            scratch: lowered.new_scratch(),
            lowered,
            inputs,
            outputs,
            mask_ports,
            need,
            dense,
            wide,
            rotation: 0,
            cached_mask: 0,
            mask_version: u64::MAX,
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

    /// True when `(state, mask)` dispatch is fully table-driven.
    pub fn is_table_dispatched(&self) -> bool {
        self.dense.is_some()
    }

    /// The armed-port mask: bit `i` set iff boundary port `i` can take part
    /// in a firing right now.
    fn armed_mask(&self, pending: &PendingTable) -> u128 {
        let mut mask = 0u128;
        for (i, &(p, is_input)) in self.mask_ports.iter().enumerate() {
            let armed = match pending.get(p) {
                Pending::Send(_) => is_input,
                Pending::Recv => !is_input,
                _ => false,
            };
            mask |= (armed as u128) << i;
        }
        mask
    }

    /// Per-port enabledness scan, used only for >128-port boundaries.
    fn wide_enabled(&self, sync: &PortSet, pending: &PendingTable) -> bool {
        sync.iter().all(|p| {
            if self.inputs.contains(p) {
                matches!(pending.get(p), Pending::Send(_))
            } else if self.outputs.contains(p) {
                matches!(pending.get(p), Pending::Recv)
            } else {
                true
            }
        })
    }

    /// Attempt transition `index` from the current state; on success,
    /// complete the fired sends and deliveries in `pending`. `mask` is the
    /// armed mask the dispatch ran under (ignored on the wide path): a
    /// firing completes exactly its `need` bits, so the post-fire mask is
    /// `mask & !need` and can be cached against the table version.
    fn fire_at(
        &mut self,
        index: usize,
        mask: u128,
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
        if !self.wide && pending.version() != u64::MAX {
            self.cached_mask = mask & !self.need[self.state.index()][index];
            self.mask_version = pending.version();
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
        let s = self.state.index();
        if self.wide {
            let n = self.lowered.transitions_from(self.state).len();
            for k in 0..n {
                let i = (k + self.rotation) % n;
                let sync = self.lowered.transitions_from(self.state)[i].sync.clone();
                if !self.wide_enabled(&sync, pending) {
                    continue;
                }
                if self.fire_at(i, 0, pending, store, completed)? {
                    return Ok(true);
                }
            }
            return Ok(false);
        }

        // The armed mask survives across calls when nobody wrote the table
        // in between (the firing itself updated the cache to `mask & !need`).
        let mask = if self.mask_version == pending.version() {
            self.cached_mask
        } else {
            self.armed_mask(pending)
        };
        if let Some(dense) = &self.dense {
            // Table dispatch: the candidate list is exact — every entry is
            // operationally enabled under `mask`; only guards can reject.
            let n = dense[s][mask as usize].len();
            for k in 0..n {
                // Re-borrow per iteration: `fire_at` needs `&mut self`.
                let i = self.dense.as_ref().expect("checked above")[s][mask as usize]
                    [(k + self.rotation) % n] as usize;
                if self.fire_at(i, mask, pending, store, completed)? {
                    return Ok(true);
                }
            }
            return Ok(false);
        }

        // Mask dispatch: one u128 comparison per transition.
        let n = self.need[s].len();
        for k in 0..n {
            let i = (k + self.rotation) % n;
            let need = self.need[s][i];
            if need & mask != need {
                continue;
            }
            if self.fire_at(i, mask, pending, store, completed)? {
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
        if self.wide {
            return self
                .lowered
                .transitions_from(self.state)
                .iter()
                .any(|t| self.wide_enabled(&t.sync, pending));
        }
        let mask = self.armed_mask(pending);
        self.need[self.state.index()]
            .iter()
            .any(|need| need & mask == *need)
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
