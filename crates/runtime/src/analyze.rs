//! Connector analysis: the model-checking-flavoured guarantees the paper
//! leans on ("The connectors can subsequently be formally verified through
//! model checking (e.g., to prove deadlock freedom …), fully
//! automatically", Sect. II).
//!
//! Full temporal-logic checking is out of scope; this module provides the
//! practically useful subset on the *instantiated* connector: reachable
//! state-space statistics, deadlock detection, and dead-port detection
//! (boundary ports no transition ever fires — a common wiring bug).

use reo_automata::explore::{deadlock_states, space_stats};
use reo_automata::PortAllocator;
use reo_automata::{product_all, PortId, PortSet, ProductOptions};
use reo_core::instantiate;

use crate::connector::{bind, Connector};
use crate::error::RuntimeError;

/// What the analysis found.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Reachable composed states.
    pub states: usize,
    /// Reachable composed transitions.
    pub transitions: usize,
    /// Largest per-state fan-out (the Fig. 13 finding-3 hazard metric).
    pub max_fanout: usize,
    /// Control states with no outgoing transition.
    pub deadlocks: usize,
    /// Boundary ports that no reachable transition mentions: sends/receives
    /// on them can never complete.
    pub dead_ports: Vec<PortId>,
    /// Number of medium automata before composition.
    pub medium_count: usize,
}

impl AnalysisReport {
    pub fn is_deadlock_free(&self) -> bool {
        self.deadlocks == 0
    }

    pub fn has_dead_ports(&self) -> bool {
        !self.dead_ports.is_empty()
    }
}

impl Connector {
    /// Statically analyse the connector at the given sizes: compose the
    /// instance (within `opts` budgets) and inspect the reachable space.
    ///
    /// Uses the same instantiation path as
    /// [`SessionSpec::connect`](crate::SessionSpec::connect), so the analysed
    /// artifact is exactly what would run.
    pub fn analyze(
        &self,
        sizes: &[(&str, usize)],
        opts: &ProductOptions,
    ) -> Result<AnalysisReport, RuntimeError> {
        let program = self.program();
        let name = self.name();
        let cc = reo_core::compile(program, name)?;
        let mut alloc = PortAllocator::new();
        let binding = bind(cc.params(), sizes, &mut alloc)?;
        let instance = instantiate(&cc, &binding, &mut alloc)?;
        let medium_count = instance.automata.len();
        let composed = product_all(&instance.automata, opts)?;
        let stats = space_stats(&composed);
        let deadlocks = deadlock_states(&composed).len();

        let boundary: PortSet = binding.values().flatten().copied().collect();
        let mentioned: PortSet = (composed.all_states())
            .flat_map(|s| composed.transitions_from(s))
            .flat_map(|t| t.sync.iter())
            .collect();
        let dead_ports: Vec<PortId> = boundary
            .iter()
            .filter(|p| !mentioned.contains(*p))
            .collect();

        Ok(AnalysisReport {
            states: stats.states,
            transitions: stats.transitions,
            max_fanout: stats.max_fanout,
            deadlocks,
            dead_ports,
            medium_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::Mode;
    use reo_dsl::parse_program;

    #[test]
    fn ex11n_is_deadlock_free_across_sizes() {
        let program = parse_program(reo_dsl::stdlib::FIG9_SOURCE).unwrap();
        let connector = Connector::builder(&program, "ConnectorEx11N")
            .mode(Mode::jit())
            .build()
            .unwrap();
        for n in [1usize, 2, 4] {
            let report = connector
                .analyze(&[("tl", n), ("hd", n)], &ProductOptions::default())
                .unwrap();
            assert!(report.is_deadlock_free(), "n={n}: {report:?}");
            assert!(!report.has_dead_ports(), "n={n}: {report:?}");
            assert!(report.states >= 2);
        }
    }

    #[test]
    fn dangling_port_is_detected() {
        // `b2` is declared but never wired: a genuine wiring bug.
        let program = parse_program("Oops(a;b1,b2) = Sync(a;b1)").unwrap();
        let connector = Connector::builder(&program, "Oops")
            .mode(Mode::jit())
            .build()
            .unwrap();
        let report = connector.analyze(&[], &ProductOptions::default()).unwrap();
        assert_eq!(report.dead_ports.len(), 1);
    }

    #[test]
    fn fanout_metric_flags_independent_constituents() {
        let program = parse_program("Chans(t[];h[]) = prod (i:1..#t) Sync(t[i];h[i])").unwrap();
        let connector = Connector::builder(&program, "Chans")
            .mode(Mode::jit())
            .build()
            .unwrap();
        let report = connector
            .analyze(&[("t", 10), ("h", 10)], &ProductOptions::default())
            .unwrap();
        // × admits every nonempty subset of the 10 independent syncs.
        assert_eq!(report.max_fanout, (1 << 10) - 1);
        assert!(report.is_deadlock_free());
    }

    #[test]
    fn analysis_respects_budgets() {
        let program = parse_program("Bufs(t[];h[]) = prod (i:1..#t) Fifo1(t[i];h[i])").unwrap();
        let connector = Connector::builder(&program, "Bufs")
            .mode(Mode::jit())
            .build()
            .unwrap();
        let tight = ProductOptions {
            max_states: 64,
            max_transitions: 1 << 20,
        };
        assert!(matches!(
            connector.analyze(&[("t", 10), ("h", 10)], &tight),
            Err(RuntimeError::Explosion(_))
        ));
    }
}
