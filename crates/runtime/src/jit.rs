//! Just-in-time composition (Sect. IV-D, second approach).
//!
//! "The idea is to initially compute only the initial state …, plus the
//! initial state's outgoing transitions (formed by synchronizing the
//! outgoing transitions of the initial states in the 'medium automata', as
//! prescribed by ×). Only once a transition out of the initial state fires,
//! that transition's target state is 'expanded' …— and so on."
//!
//! # Connected-step expansion
//!
//! × (Eq. 1, [`mod@reo_automata::product`]) also admits *joint* steps of
//! constituents that share no fired port, so a state's ×-fan-out is
//! exponential in the number of independent constituents — Fig. 13
//! finding 3. Expansion here emits only **connected** steps: a set of local
//! transitions, one per participating automaton, that agree on shared
//! ports, whose participants are linked to one another through *fired*
//! shared ports, and that is closed (every automaton touching a fired port
//! participates); everyone else idles. A step is grown from a seed
//! transition through the port → owner index and kept only when the seed is
//! its lowest-index participant, so each appears once and growing it costs
//! its own neighbourhood rather than all `n` automata.
//!
//! Nothing is lost. A × step picks at most one local transition per
//! automaton, so it falls apart into connected steps with pairwise disjoint
//! participants — hence disjoint ports, disjoint memory cells, and guards
//! that cannot see each other's writes — and its target tuple is the
//! componentwise successor whichever part fires first. A joint step
//! therefore equals firing its parts in any order: reachable tuples and
//! per-port traces are those of ×, while fan-out is linear in the number
//! of independent components (`tests/connected_steps.rs` checks both
//! directions against the eager product). Fan-out that is genuinely
//! connected — a replicator feeding `k` `LossySync`s is still `2^k` — is
//! reported as [`RuntimeError::ExpansionOverflow`] when it exceeds the
//! budget.

use std::sync::Arc;

use reo_automata::{automaton::Transition, Automaton, Guard, PortId, PortSet, StateId, Store};

use crate::cache::{CacheStats, Expanded, GlobalTransition, StateCache};
use crate::engine::{fire_one, op_enabled, EngineCore, PendingTable};
use crate::error::RuntimeError;

/// Tuple-of-medium-automata state machine with memoized lazy expansion.
pub struct JitCore {
    automata: Vec<Automaton>,
    /// Current local state per automaton.
    states: Box<[StateId]>,
    cache: Box<dyn StateCache>,
    /// Per-automaton port signatures.
    ports: Vec<PortSet>,
    /// Port → owner index: `(port, automaton)` pairs sorted by port, so a
    /// step grows through its own neighbourhood, not all `n` automata.
    owners: Vec<(PortId, usize)>,
    inputs: PortSet,
    outputs: PortSet,
    /// Maximum global transitions per expanded state.
    expansion_budget: usize,
    rotation: usize,
    expansions: u64,
}

/// Compute global boundary classes from a set of medium automata: a port
/// that is input of one automaton and output of another is internal.
pub fn boundary_classes(automata: &[Automaton]) -> (PortSet, PortSet) {
    let mut all_inputs = PortSet::new();
    let mut all_outputs = PortSet::new();
    for a in automata {
        all_inputs = all_inputs.union(a.inputs());
        all_outputs = all_outputs.union(a.outputs());
    }
    (
        all_inputs.difference(&all_outputs),
        all_outputs.difference(&all_inputs),
    )
}

impl JitCore {
    pub fn new(
        automata: Vec<Automaton>,
        cache: Box<dyn StateCache>,
        expansion_budget: usize,
    ) -> Self {
        let (inputs, outputs) = boundary_classes(&automata);
        let ports: Vec<PortSet> = automata.iter().map(|a| a.ports()).collect();
        let mut owners: Vec<(PortId, usize)> = (ports.iter().enumerate())
            .flat_map(|(i, ps)| ps.iter().map(move |p| (p, i)))
            .collect();
        owners.sort_unstable();
        let states: Box<[StateId]> = automata.iter().map(|a| a.initial()).collect();
        JitCore {
            automata,
            states,
            cache,
            ports,
            owners,
            inputs,
            outputs,
            expansion_budget,
            rotation: 0,
            expansions: 0,
        }
    }

    /// Like [`new`](Self::new), but resume from an explicit constituent
    /// state tuple instead of the initials — the dynamic-reconfiguration
    /// splice re-creates a region's core mid-run this way (and it is the
    /// fallback when re-lowering a compiled region explodes).
    pub fn with_states(
        automata: Vec<Automaton>,
        states: &[StateId],
        cache: Box<dyn StateCache>,
        expansion_budget: usize,
    ) -> Self {
        assert_eq!(automata.len(), states.len(), "one state per automaton");
        let mut core = Self::new(automata, cache, expansion_budget);
        core.states.copy_from_slice(states);
        core
    }

    pub fn automata_count(&self) -> usize {
        self.automata.len()
    }

    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Automata whose signature contains `p` (index range into `owners`).
    fn owners_of(&self, p: PortId) -> impl Iterator<Item = usize> + '_ {
        let lo = self.owners.partition_point(|&(q, _)| q < p);
        self.owners[lo..]
            .iter()
            .take_while(move |&&(q, _)| q == p)
            .map(|&(_, i)| i)
    }

    /// Expand the current state: every connected step, each exactly once
    /// (from the seed that is its lowest-index participant).
    pub fn expand(&self) -> Result<Expanded, RuntimeError> {
        let mut chosen: Vec<Option<&Transition>> = vec![None; self.automata.len()];
        let mut out: Vec<GlobalTransition> = Vec::new();
        for seed in 0..self.automata.len() {
            for t in self.automata[seed].transitions_from(self.states[seed]) {
                chosen[seed] = Some(t);
                self.grow(seed, &t.sync, &self.ports[seed], &mut chosen, &mut out)?;
            }
            chosen[seed] = None;
        }
        Ok(Expanded { transitions: out })
    }

    /// Close the partial step `chosen` under "every automaton touching a
    /// fired port joins". `fired` is the union of the chosen labels,
    /// `joined` the union of the chosen automata's signatures.
    fn grow<'a>(
        &'a self,
        seed: usize,
        fired: &PortSet,
        joined: &PortSet,
        chosen: &mut Vec<Option<&'a Transition>>,
        out: &mut Vec<GlobalTransition>,
    ) -> Result<(), RuntimeError> {
        let next = fired
            .iter()
            .flat_map(|p| self.owners_of(p))
            .filter(|&j| chosen[j].is_none())
            .min();
        let Some(j) = next else {
            out.push(self.compose(chosen));
            if out.len() > self.expansion_budget {
                return Err(RuntimeError::ExpansionOverflow {
                    state_transitions: out.len(),
                    budget: self.expansion_budget,
                });
            }
            return Ok(());
        };
        if j < seed {
            return Ok(()); // emitted from seed `j`
        }
        // `j` must fire exactly the fired ports it shares with the step so
        // far, and no silent port of an automaton that already joined.
        let required = fired.intersection(&self.ports[j]);
        let with_j = joined.union(&self.ports[j]);
        for u in self.automata[j].transitions_from(self.states[j]) {
            if u.sync.intersection(joined) != required {
                continue;
            }
            chosen[j] = Some(u);
            self.grow(seed, &fired.union(&u.sync), &with_j, chosen, out)?;
        }
        chosen[j] = None;
        Ok(())
    }

    /// Synthesize the composed transition for one choice vector.
    fn compose(&self, chosen: &[Option<&Transition>]) -> GlobalTransition {
        let mut sync = PortSet::new();
        let mut guard = Guard::True;
        let mut assigns = Vec::new();
        let mut pops = Vec::new();
        let mut targets = Vec::with_capacity(chosen.len());
        for (i, choice) in chosen.iter().enumerate() {
            match choice {
                Some(t) => {
                    sync = sync.union(&t.sync);
                    guard = guard.and(t.guard.clone());
                    assigns.extend(t.assigns.iter().cloned());
                    pops.extend(t.pops.iter().copied());
                    targets.push(t.target);
                }
                None => targets.push(self.states[i]),
            }
        }
        GlobalTransition {
            trans: Transition {
                sync,
                guard,
                assigns,
                pops,
                // Target within the synthesized transition is unused; the
                // tuple successor lives in `targets`.
                target: StateId(0),
            },
            targets: targets.into_boxed_slice(),
        }
    }
}

impl EngineCore for JitCore {
    fn try_step(
        &mut self,
        pending: &mut PendingTable,
        store: &mut Store,
        completed: &mut Vec<PortId>,
    ) -> Result<bool, RuntimeError> {
        let expanded = match self.cache.get(&self.states) {
            Some(e) => e,
            None => {
                let e = Arc::new(self.expand()?);
                self.expansions += 1;
                self.cache.put(self.states.clone(), Arc::clone(&e));
                e
            }
        };
        let n = expanded.transitions.len();
        for k in 0..n {
            let gt = &expanded.transitions[(k + self.rotation) % n];
            if !op_enabled(&gt.trans, &self.inputs, &self.outputs, pending) {
                continue;
            }
            if fire_one(
                &gt.trans,
                &self.inputs,
                &self.outputs,
                pending,
                store,
                completed,
            )? {
                // In-place copy, not `clone()`: a step is the engine's
                // innermost hot path (batched link drains fire many steps
                // per lock hold), and the tuple size never changes.
                self.states.copy_from_slice(&gt.targets);
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

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn constituent_states(&self) -> Option<Vec<StateId>> {
        Some(self.states.to_vec())
    }

    fn any_enabled(&mut self, pending: &PendingTable) -> bool {
        // Diagnostic only: consult the cache but do not expand — an
        // unexpanded current state reports not-enabled rather than paying
        // (or failing) an expansion inside a stall snapshot.
        let Some(expanded) = self.cache.get(&self.states) else {
            return false;
        };
        expanded
            .transitions
            .iter()
            .any(|gt| op_enabled(&gt.trans, &self.inputs, &self.outputs, pending))
    }

    fn dead_ports(&self, hungup: &PortSet) -> PortSet {
        // Per-constituent reachability: a local transition is dead when it
        // synchronizes a dead port, and local states reachable from the
        // current one via live transitions over-approximate the global
        // reach (every global step either idles a constituent or takes one
        // of its local transitions). So a port that *some* constituent can
        // no longer synchronize on any reachable live local transition is
        // dead for the whole product — sound, and it never builds the
        // product the JIT exists to avoid.
        //
        // Deadness crosses internal vertices (a `Merg2` chain's `m[i]`):
        // a port proved dead in one constituent kills the transitions of
        // its neighbour, so iterate to a fixpoint, feeding newly dead
        // ports back in. Only constituents touching a newly dead port are
        // (re-)analyzed — a port drop costs its own neighbourhood, not
        // the whole connector.
        let mut dead = hungup.clone();
        let mut frontier = hungup.clone();
        while !frontier.is_empty() {
            let mut newly = PortSet::new();
            for (i, a) in self.automata.iter().enumerate() {
                if self.ports[i].is_disjoint(&frontier) {
                    continue;
                }
                let local = crate::engine::dead_ports_reach(
                    a.state_count(),
                    self.states[i],
                    &dead,
                    &self.ports[i],
                    &|s| {
                        a.transitions_from(s)
                            .iter()
                            .map(|t| (t.sync.clone(), t.target))
                            .collect()
                    },
                );
                for p in local.iter().filter(|p| !dead.contains(*p)) {
                    newly.insert(p);
                }
            }
            dead = dead.union(&newly);
            frontier = newly;
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use crate::engine::Engine;
    use reo_automata::{primitives, MemId, MemLayout, PortAllocator, PortId, Value};

    fn engine_from(automata: Vec<Automaton>, ports: usize, policy: CachePolicy) -> Engine {
        let mut layout = MemLayout::cells(0);
        for a in &automata {
            layout.merge(a.mem_layout());
        }
        let mut full = MemLayout::cells(ports); // ports >= mems in tests
        full.merge(&layout);
        let core = JitCore::new(automata, policy.build(), 1 << 20);
        Engine::new(
            Box::new(core),
            crate::engine::PortMap::dense(ports),
            Store::new(&full),
        )
    }

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn pipeline_of_two_syncs_behaves_synchronously_across_mediums() {
        // Two *separate* medium automata share vertex 1; the JIT engine must
        // synchronize them: the send completes only with the receive.
        let autos = vec![primitives::sync(p(0), p(1)), primitives::sync(p(1), p(2))];
        let eng = std::sync::Arc::new(engine_from(autos, 3, CachePolicy::Unbounded));
        let e2 = std::sync::Arc::clone(&eng);
        let rx = std::thread::spawn(move || {
            e2.register_recv(p(2)).unwrap();
            e2.wait_recv(p(2), None).unwrap()
        });
        eng.register_send(p(0), Value::Int(11)).unwrap();
        eng.wait_send(p(0), None).unwrap();
        assert_eq!(rx.join().unwrap().as_int(), Some(11));
        assert_eq!(eng.steps(), 1); // one global step, not two
    }

    #[test]
    fn independent_fifos_expand_to_their_two_fills() {
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::fifo1(p(2), p(3), MemId(1)),
        ];
        let core = JitCore::new(autos, CachePolicy::Unbounded.build(), 1 << 20);
        let expanded = core.expand().unwrap();
        // One fill each and no joint fill: the eager product keeps the
        // third (`product.rs::independent_fifos_get_joint_and_interleaved_steps`),
        // which here is the two fills fired in either order.
        assert_eq!(expanded.transitions.len(), 2);
    }

    #[test]
    fn expansion_budget_reproduces_fig13_finding3() {
        // A replicator feeding 12 lossy syncs is one connected component:
        // each lossy independently passes or loses, so the initial state
        // alone has 2^12 steps; with a budget of 1000 expansion must fail.
        let mut alloc = PortAllocator::new();
        let tail = alloc.fresh_port();
        let heads = alloc.fresh_ports(12);
        let mut autos = vec![primitives::replicator(tail, &heads)];
        for &h in &heads {
            autos.push(primitives::lossy(h, alloc.fresh_port()));
        }
        let core = JitCore::new(autos, CachePolicy::Unbounded.build(), 1000);
        assert!(matches!(
            core.expand(),
            Err(RuntimeError::ExpansionOverflow { .. })
        ));
    }

    #[test]
    fn npbcomm_initial_fanout_is_linear() {
        use reo_core::{compile, instantiate, Binding};
        // The Fig. 13 protocol (`reo_npb::comm::NPB_COMM_SOURCE`) at 4
        // slaves: 16 medium automata whose initial ×-fan-out is 2,047.
        let prog = reo_dsl::parse_program(
            "NpbComm(m,v[],fwd[],bwd[];w[],res,fin[],bin[]) =
               Replicator(m;c[1..#w])
               mult prod (i:1..#w) Fifo1(c[i];w[i])
               mult prod (i:1..#v) Fifo1(v[i];d[i])
               mult Merger(d[1..#v];res)
               mult prod (i:1..#fwd-1) Fifo(fwd[i];fin[i+1])
               mult prod (i:2..#bwd) Fifo(bwd[i];bin[i-1])",
        )
        .unwrap();
        let cc = compile(&prog, "NpbComm").unwrap();
        let mut alloc = PortAllocator::new();
        let arity = |name: &str| if name == "m" || name == "res" { 1 } else { 4 };
        let binding: Binding = ["m", "v", "fwd", "bwd", "w", "res", "fin", "bin"]
            .into_iter()
            .map(|name| (name.to_string(), alloc.fresh_ports(arity(name))))
            .collect();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        assert_eq!(inst.automata.len(), 16);
        let core = JitCore::new(inst.automata, CachePolicy::Unbounded.build(), 1 << 20);
        let fanout = core.expand().unwrap().transitions.len();
        assert!(fanout <= 16, "initial fan-out {fanout}");
    }

    #[test]
    fn ex11n_via_jit_enforces_order() {
        use reo_core::{compile, examples, instantiate, Binding};
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let mut alloc = PortAllocator::new();
        let tl = alloc.fresh_ports(3);
        let hd = alloc.fresh_ports(3);
        let binding: Binding = [
            ("tl".to_string(), tl.clone()),
            ("hd".to_string(), hd.clone()),
        ]
        .into();
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        let mut layout = MemLayout::cells(alloc.mem_count());
        layout.merge(&inst.mem_layout);
        let core = JitCore::new(inst.automata, CachePolicy::Unbounded.build(), 1 << 20);
        let eng = Engine::new(
            Box::new(core),
            crate::engine::PortMap::dense(alloc.port_count()),
            Store::new(&layout),
        );

        // All three producers offer; only the first can complete.
        for (i, &t) in tl.iter().enumerate() {
            eng.register_send(t, Value::Int(10 + i as i64)).unwrap();
        }
        eng.wait_send(tl[0], None).unwrap();
        for (i, &h) in hd.iter().enumerate() {
            eng.register_recv(h).unwrap();
            assert_eq!(
                eng.wait_recv(h, None).unwrap().as_int(),
                Some(10 + i as i64)
            );
        }
        eng.wait_send(tl[1], None).unwrap();
        eng.wait_send(tl[2], None).unwrap();
        // States visited: a handful; the cache must have them resident.
        let stats = eng.cache_stats().unwrap();
        assert!(stats.resident >= 2);
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn lru_cache_recomputes_after_eviction_with_same_behaviour() {
        // Drive a sequencer-like ring long enough to cycle through states
        // twice; with capacity 1 every revisit recomputes, yet behaviour is
        // identical to the unbounded cache.
        let mk = || {
            vec![
                primitives::fifo1_full(p(0), p(1), MemId(0), Value::Unit),
                primitives::fifo1(p(2), p(3), MemId(1)),
            ]
        };
        let run = |policy: CachePolicy| {
            let eng = engine_from(mk(), 4, policy);
            let mut log = Vec::new();
            for round in 0..3 {
                eng.register_recv(p(1)).unwrap();
                let v = eng.wait_recv(p(1), None).unwrap();
                log.push(format!("{round}:{v}"));
                eng.register_send(p(0), Value::Int(round)).unwrap();
                eng.wait_send(p(0), None).unwrap();
            }
            (log, eng.cache_stats().unwrap())
        };
        let (log_u, stats_u) = run(CachePolicy::Unbounded);
        let (log_b, stats_b) = run(CachePolicy::BoundedLru { capacity: 1 });
        assert_eq!(log_u, log_b);
        assert_eq!(stats_u.evictions, 0);
        assert!(stats_b.evictions > 0, "capacity 1 must evict");
    }
}
