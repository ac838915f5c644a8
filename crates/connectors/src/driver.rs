//! Benchmark driver: the no-compute tasks of the paper's connector
//! benchmarks (Sect. V-B).
//!
//! "As we wanted to study the performance of the generated code, the tasks
//! performed no computations; every task just tried to send and receive as
//! often as possible." Each driven port gets one thread spinning on its
//! operation until the connector is closed; the run lasts a fixed wall-clock
//! window, and the metric is the number of global execution steps the
//! connector made.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reo_core::ir::Program;
use reo_runtime::{Connector, ConnectorHandle, Limits, Mode, RuntimeError};

use crate::families::{Family, Role};

/// Result of one measured cell.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Global execution steps within the window.
    pub steps: u64,
    /// Wall time actually spent connecting (composition work).
    pub connect_time: Duration,
    /// Whether construction failed (the "existing approach fails" cells).
    pub failure: Option<String>,
}

impl RunOutcome {
    pub fn failed(msg: String, connect_time: Duration) -> Self {
        RunOutcome {
            steps: 0,
            connect_time,
            failure: Some(msg),
        }
    }

    pub fn steps_per_sec(&self, window: Duration) -> f64 {
        self.steps as f64 / window.as_secs_f64()
    }
}

/// Compile (untimed) + connect (timed) + drive for `window`.
///
/// Returns the steps the connector made. Any construction error becomes a
/// failure outcome rather than a panic, so the harness can tabulate it.
pub fn drive(
    program: &Program,
    family: &Family,
    n: usize,
    mode: Mode,
    window: Duration,
) -> RunOutcome {
    drive_with_limits(program, family, n, mode, window, Limits::default())
}

/// Like [`drive`], with explicit composition/expansion budgets (the harness
/// uses small budgets so failure cells fail fast).
pub fn drive_with_limits(
    program: &Program,
    family: &Family,
    n: usize,
    mode: Mode,
    window: Duration,
    limits: Limits,
) -> RunOutcome {
    let connector = match Connector::builder(program, family.def)
        .mode(mode)
        .limits(limits)
        .build()
    {
        Ok(c) => c,
        Err(e) => return RunOutcome::failed(e.to_string(), Duration::ZERO),
    };
    let sizes = (family.sizes)(n);
    let start = Instant::now();
    let mut session = match connector.session().replicate_all(&sizes).connect() {
        Ok(c) => c,
        Err(e) => return RunOutcome::failed(e.to_string(), start.elapsed()),
    };
    let connect_time = start.elapsed();
    let handle = session.handle();

    // Port acquisition is fallible now; a family spec naming a missing
    // parameter becomes a tabulated failure, not a crash.
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let spawn_result = (|| -> Result<(), reo_runtime::RuntimeError> {
        for (param, role) in family.drivers {
            match role {
                Role::Send => {
                    for port in session.typed_outports::<i64>(param)? {
                        threads.push(std::thread::spawn(move || {
                            let mut k: i64 = 0;
                            while port.send(k).is_ok() {
                                k += 1;
                            }
                        }));
                    }
                }
                Role::Recv => {
                    for port in session.inports(param)? {
                        threads.push(std::thread::spawn(move || while port.recv().is_ok() {}));
                    }
                }
            }
        }
        for (acq, rel) in family.paired_sends {
            let acquires = session.typed_outports::<()>(acq)?;
            let releases = session.typed_outports::<()>(rel)?;
            for (a, r) in acquires.into_iter().zip(releases) {
                threads.push(std::thread::spawn(move || {
                    while a.send(()).is_ok() && r.send(()).is_ok() {}
                }));
            }
        }
        Ok(())
    })();
    if let Err(e) = spawn_result {
        handle.close();
        for t in threads {
            let _ = t.join();
        }
        return RunOutcome::failed(e.to_string(), connect_time);
    }

    std::thread::sleep(window);
    // Read while the tasks are still firing, before close() ends the run.
    let steps = handle.steps();
    handle.close();
    for t in threads {
        t.join().expect("driver thread panicked");
    }
    // Poisoned engines (e.g. expansion overflow mid-run) count as failures.
    let failure = probe_poisoned(&handle);
    RunOutcome {
        steps,
        connect_time,
        failure,
    }
}

fn probe_poisoned(handle: &ConnectorHandle) -> Option<String> {
    handle.poison_message()
}

/// Parse the family's program, then [`drive`] it.
pub fn drive_family(family: &Family, n: usize, mode: Mode, window: Duration) -> RunOutcome {
    let program = family.program();
    drive(&program, family, n, mode, window)
}

/// A quick semantic smoke test used by integration tests: run briefly and
/// require at least `min_steps` global steps (progress/liveness).
pub fn assert_progress(family: &Family, n: usize, mode: Mode, min_steps: u64) {
    let outcome = drive_family(family, n, mode, Duration::from_millis(120));
    assert!(
        outcome.failure.is_none(),
        "{} at n={n}: {}",
        family.name,
        outcome.failure.unwrap()
    );
    assert!(
        outcome.steps >= min_steps,
        "{} at n={n}: only {} steps",
        family.name,
        outcome.steps
    );
}

/// Helper for tests that need raw handles without the spin drivers.
pub fn connect_only(
    family: &Family,
    n: usize,
    mode: Mode,
) -> Result<(reo_runtime::Session, Arc<Program>), RuntimeError> {
    let program = Arc::new(family.program());
    let connector = Connector::builder(&program, family.def)
        .mode(mode)
        .build()?;
    let session = connector
        .session()
        .replicate_all(&(family.sizes)(n))
        .connect()?;
    Ok((session, program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::families;

    fn family(name: &str) -> Family {
        families().into_iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn merger_makes_progress_in_both_approaches() {
        for mode in [Mode::jit(), Mode::existing()] {
            assert_progress(&family("merger"), 3, mode, 10);
        }
    }

    #[test]
    fn sequencer_clients_complete_in_rotation() {
        // Round-robin enabling: with the token starting at client 1 (index
        // 0), the sequence 0,1,0,1 completes from a single thread — which
        // is only possible if each send is enabled exactly in turn.
        let (mut connected, _prog) = connect_only(&family("sequencer"), 2, Mode::jit()).unwrap();
        let clients = connected.typed_outports::<()>("t").unwrap();
        for _ in 0..2 {
            clients[0].send(()).unwrap();
            clients[1].send(()).unwrap();
        }
        assert!(connected.handle().steps() >= 4);
    }

    #[test]
    fn sequencer_blocks_out_of_turn_client() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut connected, _prog) = connect_only(&family("sequencer"), 2, Mode::jit()).unwrap();
        let mut clients = connected.typed_outports::<()>("t").unwrap();
        let c1 = clients.pop().unwrap();
        let c0 = clients.pop().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            let _ = c1.send(()); // out of turn: must block
            flag.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            !done.load(Ordering::SeqCst),
            "client 2 completed before client 1 took its turn"
        );
        c0.send(()).unwrap();
        t.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn lock_run_is_live() {
        assert_progress(&family("lock"), 4, Mode::jit(), 8);
    }

    #[test]
    fn ordered_family_is_live_in_all_modes() {
        for &(_, mode) in Mode::grid() {
            assert_progress(&family("ordered"), 3, mode, 6);
        }
    }
}
