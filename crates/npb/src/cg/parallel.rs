//! Master–slaves CG (the Fig. 13 structure).
//!
//! The master runs the power iteration and the CG recurrences; the N slaves
//! own contiguous row strips of A and perform the sparse matrix–vector
//! products — the dominant cost. Every inner iteration broadcasts the
//! direction vector to all slaves and gathers the product strips back, so
//! the run exercises the connector (or channels) continuously.
//!
//! The arithmetic is performed in exactly the sequential order, so `zeta`
//! verification values hold for every backend and slave count.

use std::sync::Arc;

use reo_automata::Value;

use crate::cg::sequential::CgResult;
use crate::cg::{verify, Csr, CGITMAX};
use crate::classes::CgClass;
use crate::comm::{is_stop, untag_sorted, Comm};

/// Row strip of slave `id` out of `n` for an `na`-row matrix.
pub fn strip(id: usize, n: usize, na: usize) -> (usize, usize) {
    let base = na / n;
    let extra = na % n;
    let lo = id * base + id.min(extra);
    let hi = lo + base + usize::from(id < extra);
    (lo, hi)
}

/// Slave body: answer matrix–vector products until the stop sentinel.
fn slave_loop(id: usize, a: Arc<Csr>, comm: Arc<dyn Comm>) {
    let n = comm.slaves();
    let (lo, hi) = strip(id, n, a.n);
    let mut q = vec![0.0; hi - lo];
    loop {
        let msg = comm.recv_bcast(id);
        if is_stop(&msg) {
            return;
        }
        let p = msg.as_floats().expect("broadcast carries the vector");
        a.mul_rows(lo, hi, p, &mut q);
        comm.send_master(id, Value::floats(q.clone()));
    }
}

/// Distributed `q = A·p`: broadcast `p`, gather and reassemble strips.
fn distributed_mul(a: &Csr, comm: &dyn Comm, p: &[f64], q: &mut Vec<f64>) {
    comm.bcast(Value::floats(p.to_vec()));
    let strips = untag_sorted(comm.gather());
    assert_eq!(
        strips.len(),
        comm.slaves(),
        "connector failed during gather (state-space blow-up or shutdown)"
    );
    q.clear();
    for s in strips {
        q.extend_from_slice(s.as_floats().expect("strip payload"));
    }
    assert_eq!(q.len(), a.n, "gathered strips do not cover the matrix");
}

/// One inner CG solve with distributed matrix–vector products.
fn conj_grad_dist(a: &Csr, comm: &dyn Comm, x: &[f64], z: &mut [f64]) -> f64 {
    let n = a.n;
    let mut q = Vec::with_capacity(n);
    let mut r = x.to_vec();
    let mut p = r.clone();
    z.iter_mut().for_each(|v| *v = 0.0);
    let mut rho: f64 = r.iter().map(|v| v * v).sum();

    for _ in 0..CGITMAX {
        distributed_mul(a, comm, &p, &mut q);
        let d: f64 = p.iter().zip(&q).map(|(pi, qi)| pi * qi).sum();
        let alpha = rho / d;
        for j in 0..n {
            z[j] += alpha * p[j];
            r[j] -= alpha * q[j];
        }
        let rho0 = rho;
        rho = r.iter().map(|v| v * v).sum();
        let beta = rho / rho0;
        for j in 0..n {
            p[j] = r[j] + beta * p[j];
        }
    }
    distributed_mul(a, comm, z, &mut q);
    let sum: f64 = x.iter().zip(&q).map(|(xi, qi)| (xi - qi) * (xi - qi)).sum();
    sum.sqrt()
}

/// The full parallel benchmark. Spawns the slave threads, runs the master,
/// broadcasts the stop sentinel, joins.
pub fn run_parallel(a: Arc<Csr>, class: &CgClass, comm: Arc<dyn Comm>) -> CgResult {
    let mut slaves = Vec::new();
    for id in 0..comm.slaves() {
        let a2 = Arc::clone(&a);
        let c2 = Arc::clone(&comm);
        slaves.push(
            std::thread::Builder::new()
                .name(format!("cg-slave-{id}"))
                .spawn(move || slave_loop(id, a2, c2))
                .expect("spawn slave"),
        );
    }

    let n = a.n;
    let mut x = vec![1.0; n];
    let mut z = vec![0.0; n];

    conj_grad_dist(&a, &*comm, &x, &mut z);
    normalize_into(&mut x, &z);
    x.iter_mut().for_each(|v| *v = 1.0);

    let mut zeta = 0.0;
    let mut rnorm = 0.0;
    for _ in 0..class.niter {
        rnorm = conj_grad_dist(&a, &*comm, &x, &mut z);
        let norm11: f64 = x.iter().zip(&z).map(|(xi, zi)| xi * zi).sum();
        zeta = class.shift + 1.0 / norm11;
        normalize_into(&mut x, &z);
    }

    comm.bcast(crate::comm::stop_value());
    for s in slaves {
        s.join().expect("slave panicked");
    }
    comm.close();

    CgResult {
        zeta,
        rnorm,
        verified: verify(class, zeta),
    }
}

fn normalize_into(x: &mut [f64], z: &[f64]) {
    let norm: f64 = z.iter().map(|v| v * v).sum::<f64>().sqrt();
    let inv = 1.0 / norm;
    for (xi, zi) in x.iter_mut().zip(z) {
        *xi = zi * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::class_matrix;
    use crate::comm::{HandWritten, ReoComm};
    use reo_runtime::Mode;

    #[test]
    fn strips_partition_evenly() {
        let n = 4;
        let na = 10;
        let strips: Vec<_> = (0..n).map(|id| strip(id, n, na)).collect();
        assert_eq!(strips[0], (0, 3));
        assert_eq!(strips[3], (8, 10));
        // Cover exactly [0, na) without gaps.
        for w in strips.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        assert_eq!(strips.last().unwrap().1, na);
    }

    #[test]
    fn parallel_handwritten_matches_sequential_bitwise() {
        let class = CgClass {
            name: "tiny",
            na: 120,
            nonzer: 4,
            niter: 3,
            shift: 6.0,
            zeta_verify: None,
        };
        let a = Arc::new(class_matrix(&class));
        let seq = crate::cg::sequential::run_on_matrix(&a, &class);
        let par = run_parallel(Arc::clone(&a), &class, HandWritten::new(3));
        assert_eq!(seq.zeta.to_bits(), par.zeta.to_bits());
    }

    #[test]
    fn cg_class_s_verifies_at_n8_under_jit() {
        // 32 medium automata on one engine: the cell that overflowed the
        // expansion budget while expansion enumerated every ×-combination.
        let class = CgClass::S;
        let a = Arc::new(class_matrix(&class));
        let comm = ReoComm::new(8, Mode::jit()).unwrap();
        let par = run_parallel(a, &class, comm);
        assert_eq!(par.verified, Some(true), "zeta = {:.13}", par.zeta);
    }

    #[test]
    fn parallel_reo_matches_sequential_bitwise() {
        let class = CgClass {
            name: "tiny",
            na: 90,
            nonzer: 3,
            niter: 2,
            shift: 6.0,
            zeta_verify: None,
        };
        let a = Arc::new(class_matrix(&class));
        let seq = crate::cg::sequential::run_on_matrix(&a, &class);
        for mode in [Mode::jit(), Mode::partitioned()] {
            let comm = ReoComm::new(2, mode).unwrap();
            let par = run_parallel(Arc::clone(&a), &class, comm);
            assert_eq!(seq.zeta.to_bits(), par.zeta.to_bits());
        }
    }
}
