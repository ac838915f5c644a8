//! Connector analysis: the model-checking-flavoured guarantees the paper
//! leans on ("The connectors can subsequently be formally verified through
//! model checking (e.g., to prove deadlock freedom …), fully
//! automatically", Sect. II).
//!
//! Full temporal-logic checking is out of scope; this module checks the
//! rows a compiled session fills at `connect`: reachable state counts,
//! deadlocks, and dead ports (boundary ports no step fires — a wiring bug).

use reo_automata::{PortId, PortSet, ProductOptions, StateId};

use crate::connector::Connector;
use crate::error::RuntimeError;
use crate::jit::JitCore;

/// What the analysis found.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Reachable state tuples: the resident rows.
    pub states: usize,
    /// Connected steps summed over rows.
    pub transitions: usize,
    /// The longest row: the fan-out the engine scans in one state. × would
    /// hold every union of its port-disjoint steps there, the exponential
    /// fan-out of Fig. 13 finding 3 that connected-step expansion removed.
    pub max_row_steps: usize,
    /// Rows with no step: a × state has no transition iff it has none.
    pub deadlocks: usize,
    /// Boundary ports that no step's label names: sends/receives on them
    /// can never complete.
    pub dead_ports: Vec<PortId>,
    /// Number of constituents instantiated.
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
    /// Statically analyse the connector at the given sizes: every reachable
    /// row of its instantiated template as one region, filled within
    /// `opts` — the medium automata of the new approach, or the primitives
    /// of the existing one, whose reachable states are the same.
    pub fn analyze(
        &self,
        sizes: &[(&str, usize)],
        opts: &ProductOptions,
    ) -> Result<AnalysisReport, RuntimeError> {
        let (_, instance) = self.instantiate(sizes)?;
        let medium_count = instance.automata.len();
        let starts: Vec<StateId> = instance.automata.iter().map(|a| a.initial()).collect();
        let core = JitCore::eager(instance.automata, &starts, opts)?;

        let rows: Vec<usize> = core.rows().map(|(_, steps)| steps.len()).collect();
        let named: PortSet = core.labels().fold(PortSet::new(), |all, l| all.union(&l));
        let boundary: PortSet = instance.boundary.values().flatten().copied().collect();
        Ok(AnalysisReport {
            states: rows.len(),
            transitions: rows.iter().sum(),
            max_row_steps: rows.iter().copied().max().unwrap_or(0),
            deadlocks: rows.iter().filter(|&&steps| steps == 0).count(),
            dead_ports: boundary.iter().filter(|p| !named.contains(*p)).collect(),
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
        // One row of the 10 independent syncs, where × would hold every
        // nonempty subset of them (1,023).
        assert_eq!((report.states, report.max_row_steps), (1, 10));
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
