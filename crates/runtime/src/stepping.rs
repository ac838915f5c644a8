//! Raw stepping microbench: drive a [`JitCore`](crate::jit::JitCore)
//! directly, no tasks.
//!
//! The task-driven harness (`reo-connectors`) measures the whole stack —
//! blocking ports, wakeups, context switches — which on a single hardware
//! thread is dominated by scheduling, not stepping: a core that fires 10×
//! faster looks identical once every step costs two context switches. This
//! module isolates the *stepping* cost that lowering attacks: one
//! thread owns the core, its pending table and its store, keeps every
//! boundary port saturated (inputs armed with fresh sends, outputs armed
//! with receives), and counts both `try_step` firings and **completed
//! boundary operations** for a fixed window. Every [`Mode`] runs the same
//! core ([`JitCore`](crate::jit::JitCore): lowered register programs behind
//! the pending table's armed set), firing the same connected steps; what
//! differs is what it steps — the medium automata, or the existing
//! approach's composed automaton — and when a state's row is filled: on
//! first visit, or for every reachable state before the first step. The
//! placement does not apply: the run steps one core. Completed operations
//! per second is the throughput measure (a firing may complete several
//! operations), and it is what the repo benchmark's
//! `runtime.stepping.{jit,compiled}_ns_per_op` rows compare between
//! [`Mode::jit`] and [`Mode::compiled`] (named by [`SteppingMode`]).
//! A saturated boundary keeps nearly every row watch
//! ([`crate::cache::Row`]) armed, so these rows see a poll reject a row
//! whose common need is unarmed but hardly the per-entry skip; that shows
//! in `runtime.port.poll_ns_per_op` and `runtime.engine.lock_port_ns`.
//!
//! ```
//! use std::time::Duration;
//! use reo_runtime::{stepping_run, Limits, Mode};
//!
//! let program = reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
//! let run = stepping_run(
//!     &program,
//!     "Buf",
//!     &[],
//!     Mode::compiled(),
//!     Limits::default(),
//!     Duration::from_millis(10),
//! )
//! .unwrap();
//! assert!(run.firings > 0 && run.ops >= run.firings);
//! ```

use std::time::{Duration, Instant};

use reo_automata::{PortId, PortSet, StateId, Store, Value};
use reo_core::Program;

use crate::connector::{core_for, Connector, Limits, Mode};
use crate::engine::{Pending, PendingTable};
use crate::error::RuntimeError;
use crate::partition::region_port_map;

/// The two modes the repo benchmark's `stepping` cells name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteppingMode {
    /// The medium automata, composed just in time ([`Mode::jit`]).
    Jit,
    /// The same, with every reachable row filled up front
    /// ([`Mode::compiled`]).
    Compiled,
}

impl From<SteppingMode> for Mode {
    fn from(mode: SteppingMode) -> Mode {
        match mode {
            SteppingMode::Jit => Mode::jit(),
            SteppingMode::Compiled => Mode::compiled(),
        }
    }
}

/// Counters of one saturated stepping window.
#[derive(Clone, Copy, Debug, Default)]
pub struct SteppingRun {
    /// `try_step` calls that fired a transition.
    pub firings: u64,
    /// Boundary operations those firings completed (sends taken plus
    /// values delivered) — the granularity-independent throughput measure:
    /// a combined transition counts once as a firing but moves several
    /// values.
    pub ops: u64,
}

/// Instantiate `def` from `program` for the given array `sizes` — and
/// under [`Mode::Existing`] compose it, as `connect` does — then step its
/// core flat-out for `window`, keeping every boundary port saturated.
/// Returns the firing and completed-operation counts.
///
/// Saturation protocol, applied whenever the core stops progressing: every
/// boundary input holding `None`/`DoneSend` is re-armed with a fresh
/// `Value::Int` (a global counter, so values stay distinguishable) and
/// every boundary output holding `None`/`DoneRecv` is re-armed with a
/// receive. If re-arming enables nothing the connector is quiescent under
/// saturation and the run ends early.
pub fn stepping_run(
    program: &Program,
    def: &str,
    sizes: &[(&str, usize)],
    mode: impl Into<Mode>,
    limits: Limits,
    window: Duration,
) -> Result<SteppingRun, RuntimeError> {
    let mode = mode.into();
    let connector = Connector::builder(program, def).mode(mode).build()?;
    let (_, mut instance) = connector.instantiate(sizes)?;
    if mode == Mode::Existing {
        instance = instance.monolithic(&limits.product)?;
    }
    let starts: Vec<StateId> = instance.automata.iter().map(|a| a.initial()).collect();
    let ports = region_port_map(&instance.automata);
    let mut core = core_for(mode, &limits, instance.automata, &starts, &ports)?;

    let inputs: PortSet = core.boundary_inputs().clone();
    let outputs: PortSet = core.boundary_outputs().clone();
    let mut pending = PendingTable::new(ports);
    let mut store = Store::new(&instance.mem_layout);
    let mut completed: Vec<PortId> = Vec::new();

    let mut run = SteppingRun::default();
    let mut next_value: i64 = 0;
    let start = Instant::now();
    loop {
        // Saturate the boundary.
        let mut armed_any = false;
        for p in inputs.iter() {
            if matches!(pending.get(p), Pending::None | Pending::DoneSend) {
                pending.set(p, Pending::Send(Value::Int(next_value)));
                next_value += 1;
                armed_any = true;
            }
        }
        for p in outputs.iter() {
            if matches!(pending.get(p), Pending::None | Pending::DoneRecv(_)) {
                pending.set(p, Pending::Recv);
                armed_any = true;
            }
        }
        // Step until the core needs fresh operations.
        let mut progressed = false;
        while core.try_step(&mut pending, &mut store, &mut completed)? {
            run.firings += 1;
            run.ops += completed.len() as u64;
            progressed = true;
            completed.clear();
            if run.firings % 1024 == 0 && start.elapsed() >= window {
                return Ok(run);
            }
        }
        if start.elapsed() >= window {
            return Ok(run);
        }
        if !progressed && !armed_any {
            // Saturated yet quiescent: nothing will ever fire again.
            return Ok(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(def_src: &str, name: &str, sizes: &[(&str, usize)], mode: Mode) -> SteppingRun {
        let program = reo_dsl::parse_program(def_src).unwrap();
        stepping_run(
            &program,
            name,
            sizes,
            mode,
            Limits::default(),
            Duration::from_millis(20),
        )
        .unwrap()
    }

    #[test]
    fn every_mode_steps_a_buffer_under_saturation() {
        let src = "Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])";
        for &(name, mode) in Mode::grid() {
            let r = run(src, "Buf", &[("a", 2), ("b", 2)], mode);
            assert!(r.firings > 100, "{name} made only {} firings", r.firings);
            assert!(
                r.ops >= r.firings,
                "{name}: every firing completes at least one op"
            );
        }
    }

    #[test]
    fn quiescent_connector_terminates_early() {
        // `Repl3(c;x,y,j) · Fifo1(x;z) · SyncDrain(y,z;)` can never fire —
        // the buffer would have to fill and empty in one step — so `j`
        // never refills the token `k` that the first `a → b` drains. One
        // firing, two operations, and then the connector is wedged however
        // saturated its boundary is: the run must end there, not at the
        // end of its window.
        let src = "Once(a,c;b) = Repl2(a;b,t) mult SyncDrain(t,k;) mult Fifo1Full(j;k)
                     mult Repl3(c;x,y,j) mult Fifo1(x;z) mult SyncDrain(y,z;)";
        let program = reo_dsl::parse_program(src).unwrap();
        for &(name, mode) in Mode::grid() {
            let window = Duration::from_secs(30);
            let start = Instant::now();
            let r = stepping_run(&program, "Once", &[], mode, Limits::default(), window).unwrap();
            assert_eq!((r.firings, r.ops), (1, 2), "{name}");
            assert!(start.elapsed() < window / 2, "{name} ran its window out");
        }
    }
}
