//! Just-in-time composition (Sect. IV-D, second approach).
//!
//! "The idea is to initially compute only the initial state …, plus the
//! initial state's outgoing transitions (formed by synchronizing the
//! outgoing transitions of the initial states in the 'medium automata', as
//! prescribed by ×). Only once a transition out of the initial state fires,
//! that transition's target state is 'expanded' …— and so on."
//!
//! Expansion enumerates every ×-combination: for each medium automaton,
//! either idle or one of its current-state transitions, such that all
//! choices agree on shared ports. Because × also admits *joint* steps of
//! independent constituents, a single state's fan-out can be exponential in
//! the number of independent automata — Fig. 13 finding 3, reported here as
//! [`RuntimeError::ExpansionOverflow`] when it exceeds the budget.

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
    /// Per-automaton port signatures, and suffix unions for backtracking.
    ports: Vec<PortSet>,
    suffix_ports: Vec<PortSet>,
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
        let mut suffix_ports = vec![PortSet::new(); automata.len() + 1];
        for i in (0..automata.len()).rev() {
            suffix_ports[i] = suffix_ports[i + 1].union(&ports[i]);
        }
        let states: Box<[StateId]> = automata.iter().map(|a| a.initial()).collect();
        JitCore {
            automata,
            states,
            cache,
            ports,
            suffix_ports,
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

    /// Expand the current state: enumerate all compatible combinations.
    fn expand(&self) -> Result<Expanded, RuntimeError> {
        let n = self.automata.len();
        let locals: Vec<&[Transition]> = (0..n)
            .map(|i| self.automata[i].transitions_from(self.states[i]))
            .collect();
        let mut chosen: Vec<Option<&Transition>> = vec![None; n];
        let mut out: Vec<GlobalTransition> = Vec::new();
        self.rec(
            0,
            &locals,
            &PortSet::new(),
            &PortSet::new(),
            &mut chosen,
            &mut out,
        )?;
        Ok(Expanded { transitions: out })
    }

    /// Backtracking over automata in index order.
    ///
    /// `must_fire`: ports already promised by chosen earlier transitions
    /// that are shared with automata `>= i`. `must_not`: ports of earlier
    /// automata shared with automata `>= i` that were *not* fired.
    fn rec<'a>(
        &'a self,
        i: usize,
        locals: &[&'a [Transition]],
        must_fire: &PortSet,
        must_not: &PortSet,
        chosen: &mut Vec<Option<&'a Transition>>,
        out: &mut Vec<GlobalTransition>,
    ) -> Result<(), RuntimeError> {
        if i == locals.len() {
            if chosen.iter().all(Option::is_none) {
                return Ok(()); // the empty global step is not a step
            }
            out.push(self.compose(chosen));
            if out.len() > self.expansion_budget {
                return Err(RuntimeError::ExpansionOverflow {
                    state_transitions: out.len(),
                    budget: self.expansion_budget,
                });
            }
            return Ok(());
        }
        let pi = &self.ports[i];
        let later = &self.suffix_ports[i + 1];
        let required = must_fire.intersection(pi);
        let forbidden = must_not.intersection(pi);

        // Option 1: automaton i idles — allowed iff nothing requires it.
        if required.is_empty() {
            chosen[i] = None;
            let shared_later = pi.intersection(later);
            let must_not2 = must_not.union(&shared_later);
            self.rec(i + 1, locals, must_fire, &must_not2, chosen, out)?;
        }

        // Option 2: automaton i takes one of its transitions.
        for t in locals[i] {
            if !required.is_subset(&t.sync) {
                continue;
            }
            if !t.sync.is_disjoint(&forbidden) {
                continue;
            }
            chosen[i] = Some(t);
            let fired_later = t.sync.intersection(later);
            let silent_later = pi.intersection(later).difference(&t.sync);
            let must_fire2 = must_fire.union(&fired_later);
            let must_not2 = must_not.union(&silent_later);
            self.rec(i + 1, locals, &must_fire2, &must_not2, chosen, out)?;
        }
        chosen[i] = None;
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
    fn independent_fifos_expand_with_joint_steps() {
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::fifo1(p(2), p(3), MemId(1)),
        ];
        let core = JitCore::new(autos, CachePolicy::Unbounded.build(), 1 << 20);
        let expanded = core.expand().unwrap();
        // fills of each + joint fill = 3 (matches the eager product).
        assert_eq!(expanded.transitions.len(), 3);
    }

    #[test]
    fn expansion_budget_reproduces_fig13_finding3() {
        // 12 independent fifo1s: the initial state alone has 2^12 - 1
        // combinations; with a budget of 1000 expansion must fail.
        let mut alloc = PortAllocator::new();
        let autos: Vec<Automaton> = (0..12)
            .map(|_| {
                let a = alloc.fresh_port();
                let b = alloc.fresh_port();
                primitives::fifo1(a, b, alloc.fresh_mem())
            })
            .collect();
        let core = JitCore::new(autos, CachePolicy::Unbounded.build(), 1000);
        assert!(matches!(
            core.expand(),
            Err(RuntimeError::ExpansionOverflow { .. })
        ));
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
