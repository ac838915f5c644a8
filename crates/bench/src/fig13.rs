//! The Fig. 13 NPB harness (Sect. V-C).
//!
//! Runs CG and LU for each workload class and slave count, once with the
//! hand-written communication back end ("original program") and once with
//! the Reo connector back ends ("Reo-based program": one JIT engine, and
//! the partitioned engines), and reports run times. `--large-n` moves the
//! same comparison to N ∈ {16,32,64}, where the paper's finding 3 (N ≥ 16
//! DNF without partitioning) used to reproduce: connected-step expansion
//! (`reo_runtime::jit`) removed the exponential fan-out, so one engine now
//! finishes N = 16 and 32 and partitioning is what buys parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reo_npb::cg::{self, Csr};
use reo_npb::comm::Comm;
use reo_npb::lu;
use reo_npb::{CgClass, HandWritten, LuClass, ReoComm};
use reo_runtime::{Mode, RuntimeError};

/// Which communication backend a run uses.
#[derive(Clone, Copy, Debug)]
pub enum BackendKind {
    HandWritten,
    Reo(Mode),
}

impl BackendKind {
    pub fn label(&self) -> String {
        match self {
            BackendKind::HandWritten => "original".into(),
            BackendKind::Reo(mode) => format!("reo-{}", mode.name()),
        }
    }

    fn build(&self, n: usize) -> Result<Arc<dyn Comm>, RuntimeError> {
        Ok(match self {
            BackendKind::HandWritten => HandWritten::new(n),
            BackendKind::Reo(mode) => ReoComm::new(n, *mode)?,
        })
    }
}

/// One measured run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall time; `None` = did not finish (timeout or connector failure).
    pub secs: Option<f64>,
    /// Why it did not finish, if it did not.
    pub dnf: Option<String>,
    /// Connector steps (0 for the hand-written backend).
    pub steps: u64,
    /// Whether the run computed the right thing. CG: the zeta check when
    /// the class has an official value, else bitwise agreement with the
    /// class's sequential zeta. LU: agreement with the sequential
    /// reference of the class ([`lu::LuResult::agrees_with`]).
    pub verified: Option<bool>,
}

fn run_guarded<R: Send + 'static>(
    comm: Arc<dyn Comm>,
    timeout: Duration,
    body: impl FnOnce() -> R + Send + 'static,
) -> Result<R, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(body));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(timeout) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(panic)) => {
            let cause = comm.failure().unwrap_or_else(|| {
                (panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "run panicked".into())
            });
            Err(format!("connector failure: {cause}"))
        }
        Err(_) => {
            // Unblock the runaway run, then wait briefly for it to unwind.
            comm.close();
            let _ = rx.recv_timeout(Duration::from_secs(10));
            Err(format!("timeout after {:.0?}", timeout))
        }
    }
}

/// Measure one CG cell, and check its zeta: against the official value
/// when the class has one, else against `reference`, the zeta of the
/// class's [`cg::sequential::run_on_matrix`], which callers compute once
/// per class. Parallel CG adds in the sequential order, so the two agree
/// bit for bit.
pub fn measure_cg(
    a: &Arc<Csr>,
    class: &CgClass,
    reference: f64,
    n: usize,
    backend: BackendKind,
    timeout: Duration,
) -> Measurement {
    let comm = match backend.build(n) {
        Ok(c) => c,
        Err(e) => {
            return Measurement {
                secs: None,
                dnf: Some(e.to_string()),
                steps: 0,
                verified: None,
            }
        }
    };
    let a2 = Arc::clone(a);
    let class2 = *class;
    let comm_for_run = Arc::clone(&comm);
    let start = Instant::now();
    match run_guarded(Arc::clone(&comm), timeout, move || {
        cg::run_parallel(a2, &class2, comm_for_run)
    }) {
        Ok(result) => Measurement {
            secs: Some(start.elapsed().as_secs_f64()),
            dnf: None,
            steps: comm.steps(),
            verified: Some(
                result
                    .verified
                    .unwrap_or(result.zeta.to_bits() == reference.to_bits()),
            ),
        },
        Err(reason) => Measurement {
            secs: None,
            dnf: Some(reason),
            steps: comm.steps(),
            verified: None,
        },
    }
}

/// Measure one LU cell, and check its result against `reference` — the
/// class's [`lu::run_sequential`], which callers compute once per class.
pub fn measure_lu(
    class: &LuClass,
    reference: &lu::LuResult,
    n: usize,
    backend: BackendKind,
    timeout: Duration,
) -> Measurement {
    let comm = match backend.build(n) {
        Ok(c) => c,
        Err(e) => {
            return Measurement {
                secs: None,
                dnf: Some(e.to_string()),
                steps: 0,
                verified: None,
            }
        }
    };
    let class2 = *class;
    let comm_for_run = Arc::clone(&comm);
    let start = Instant::now();
    match run_guarded(Arc::clone(&comm), timeout, move || {
        lu::run_parallel(&class2, comm_for_run)
    }) {
        Ok(result) => Measurement {
            secs: Some(start.elapsed().as_secs_f64()),
            dnf: None,
            steps: comm.steps(),
            verified: Some(result.agrees_with(reference)),
        },
        Err(reason) => Measurement {
            secs: None,
            dnf: Some(reason),
            steps: comm.steps(),
            verified: None,
        },
    }
}

/// The Fig. 13 backends: original vs Reo on one JIT engine vs Reo
/// partitioned.
pub fn standard_backends() -> Vec<BackendKind> {
    vec![
        BackendKind::HandWritten,
        BackendKind::Reo(Mode::jit()),
        BackendKind::Reo(Mode::partitioned()),
    ]
}

/// Render one measurement for the table.
pub fn render(m: &Measurement) -> String {
    match (&m.secs, &m.dnf) {
        (Some(s), _) => {
            let v = match m.verified {
                Some(true) => " OK",
                Some(false) => " BADVER",
                None => "",
            };
            format!("{s:>8.3}s{v}")
        }
        (None, Some(reason)) => format!("DNF ({reason})"),
        (None, None) => "DNF".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_small_cell_measures_both_backends() {
        let class = CgClass {
            name: "tiny",
            na: 80,
            nonzer: 3,
            niter: 2,
            shift: 5.0,
            zeta_verify: None,
        };
        let a = Arc::new(cg::class_matrix(&class));
        let reference = cg::sequential::run_on_matrix(&a, &class).zeta;
        let timeout = Duration::from_secs(30);
        for backend in standard_backends() {
            let m = measure_cg(&a, &class, reference, 2, backend, timeout);
            assert!(m.secs.is_some(), "{}: {:?}", backend.label(), m.dnf);
            assert_eq!(m.verified, Some(true), "{}", backend.label());
            let wrong = measure_cg(&a, &class, -reference, 2, backend, timeout);
            assert_eq!(wrong.verified, Some(false), "{}", backend.label());
        }
    }

    #[test]
    fn lu_small_cell_measures_both_backends() {
        let class = LuClass {
            name: "tiny",
            nx: 12,
            ny: 12,
            itmax: 3,
            omega: 1.2,
            jblock: 4,
        };
        let reference = lu::run_sequential(&class);
        for backend in standard_backends() {
            let m = measure_lu(&class, &reference, 2, backend, Duration::from_secs(30));
            assert!(m.secs.is_some(), "{}: {:?}", backend.label(), m.dnf);
            assert_eq!(m.verified, Some(true), "{}", backend.label());
        }
    }

    #[test]
    fn reo_steps_are_counted() {
        let class = CgClass {
            name: "tiny",
            na: 60,
            nonzer: 3,
            niter: 1,
            shift: 5.0,
            zeta_verify: None,
        };
        let a = Arc::new(cg::class_matrix(&class));
        let m = measure_cg(
            &a,
            &class,
            0.0,
            2,
            BackendKind::Reo(Mode::jit()),
            Duration::from_secs(30),
        );
        assert!(m.steps > 0, "connector made no steps?");
    }
}
