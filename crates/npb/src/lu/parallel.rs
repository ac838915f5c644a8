//! Pipelined master–slaves SSOR — the Fig. 13 LU structure.
//!
//! Row strips are distributed over N slaves. Inside each sweep, the strip
//! boundary rows travel slave-to-slave in column blocks, forming the LU
//! wavefront pipeline; each iteration ends with a residual gather at the
//! master. Dependencies are identical to the sequential sweeps, so the
//! computed field matches the reference bit for bit (the residual differs
//! only by partial-sum grouping).

use std::sync::Arc;

use reo_automata::Value;

use crate::cg::parallel::strip;
use crate::classes::LuClass;
use crate::comm::{is_stop, untag_sorted, Comm};
use crate::lu::sequential::{residual_rows, Grid, LuResult};
use crate::lu::{h2f, relax};

/// Column blocks `[jlo, jhi]` (1-based, inclusive).
fn blocks(ny: usize, jblock: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut jlo = 1;
    while jlo <= ny {
        let jhi = (jlo + jblock - 1).min(ny);
        out.push((jlo, jhi));
        jlo = jhi + 1;
    }
    out
}

fn row_slice(g: &Grid, i: usize, jlo: usize, jhi: usize) -> Value {
    Value::floats((jlo..=jhi).map(|j| g.get(i, j)).collect())
}

fn set_row_slice(g: &mut Grid, i: usize, jlo: usize, v: &Value) {
    let vals = v.as_floats().expect("row payload");
    for (k, &x) in vals.iter().enumerate() {
        g.set(i, jlo + k, x);
    }
}

fn slave_loop(id: usize, class: LuClass, comm: Arc<dyn Comm>) {
    let n = comm.slaves();
    let (lo, hi) = strip(id, n, class.nx);
    let rows = hi - lo;
    // Local grid: `rows` interior rows, ghost row 0 (prev) and rows+1 (next).
    let mut g = Grid::new(rows, class.ny);
    let f = h2f(&class);
    let omega = class.omega;
    let blocks = blocks(class.ny, class.jblock);
    // Global centre cell, if this strip owns it.
    let (cx, cy) = (class.nx / 2, class.ny / 2);
    let owns_center = cx > lo && cx <= hi;

    loop {
        if is_stop(&comm.recv_bcast(id)) {
            return;
        }

        // Pre-forward: my old first row goes up; next's old first row is my
        // bottom ghost for this sweep.
        if id > 0 {
            comm.send_prev(id, row_slice(&g, 1, 1, class.ny));
        }
        if id < n - 1 {
            let v = comm.recv_next(id);
            set_row_slice(&mut g, rows + 1, 1, &v);
        }

        // Forward sweep, pipelined per column block.
        for &(jlo, jhi) in &blocks {
            if id > 0 {
                let v = comm.recv_prev(id);
                set_row_slice(&mut g, 0, jlo, &v);
            }
            for i in 1..=rows {
                for j in jlo..=jhi {
                    let v = relax(
                        g.get(i, j),
                        g.get(i - 1, j),
                        g.get(i + 1, j),
                        g.get(i, j - 1),
                        g.get(i, j + 1),
                        omega,
                        f,
                    );
                    g.set(i, j, v);
                }
            }
            if id < n - 1 {
                comm.send_next(id, row_slice(&g, rows, jlo, jhi));
            }
        }

        // Backward sweep, pipelined from the bottom, blocks right-to-left.
        for &(jlo, jhi) in blocks.iter().rev() {
            if id < n - 1 {
                let v = comm.recv_next(id);
                set_row_slice(&mut g, rows + 1, jlo, &v);
            }
            for i in (1..=rows).rev() {
                for j in (jlo..=jhi).rev() {
                    let v = relax(
                        g.get(i, j),
                        g.get(i - 1, j),
                        g.get(i + 1, j),
                        g.get(i, j - 1),
                        g.get(i, j + 1),
                        omega,
                        f,
                    );
                    g.set(i, j, v);
                }
            }
            if id > 0 {
                comm.send_prev(id, row_slice(&g, 1, jlo, jhi));
            }
        }

        // Refresh the top ghost for the residual (prev's final last row;
        // the bottom ghost is already final from the backward pipeline).
        if id < n - 1 {
            comm.send_next(id, row_slice(&g, rows, 1, class.ny));
        }
        if id > 0 {
            let v = comm.recv_prev(id);
            set_row_slice(&mut g, 0, 1, &v);
        }

        let partial = residual_rows(&g, 1, rows, f);
        let center = if owns_center {
            g.get(cx - lo, cy)
        } else {
            f64::NAN
        };
        comm.send_master(id, Value::floats(vec![partial, center]));
    }
}

/// The full parallel benchmark.
pub fn run_parallel(class: &LuClass, comm: Arc<dyn Comm>) -> LuResult {
    let mut slaves = Vec::new();
    for id in 0..comm.slaves() {
        let c2 = Arc::clone(&comm);
        let cls = *class;
        slaves.push(
            std::thread::Builder::new()
                .name(format!("lu-slave-{id}"))
                .spawn(move || slave_loop(id, cls, c2))
                .expect("spawn slave"),
        );
    }

    let mut residual = f64::NAN;
    let mut center = f64::NAN;
    for it in 0..class.itmax {
        comm.bcast(Value::Int(it as i64));
        let parts = untag_sorted(comm.gather());
        assert_eq!(
            parts.len(),
            comm.slaves(),
            "connector failed during gather (state-space blow-up or shutdown)"
        );
        let mut sum = 0.0;
        for p in &parts {
            let vals = p.as_floats().expect("partial payload");
            sum += vals[0];
            if !vals[1].is_nan() {
                center = vals[1];
            }
        }
        residual = sum.sqrt();
    }

    comm.bcast(crate::comm::stop_value());
    for s in slaves {
        s.join().expect("slave panicked");
    }
    comm.close();
    LuResult { residual, center }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{HandWritten, ReoComm};
    use crate::lu::run_sequential;
    use reo_runtime::Mode;

    #[test]
    fn blocks_cover_columns_exactly() {
        let bs = blocks(33, 8);
        assert_eq!(bs.first().unwrap().0, 1);
        assert_eq!(bs.last().unwrap().1, 33);
        for w in bs.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0);
        }
    }

    #[test]
    fn parallel_handwritten_matches_sequential() {
        let class = LuClass {
            itmax: 12,
            ..LuClass::S
        };
        let seq = run_sequential(&class);
        for n in [1usize, 2, 3] {
            let par = run_parallel(&class, HandWritten::new(n));
            assert!(par.agrees_with(&seq), "{par:?} vs {seq:?} at n={n}");
        }
    }

    #[test]
    fn parallel_reo_matches_sequential() {
        let class = LuClass {
            nx: 17,
            ny: 17,
            itmax: 8,
            omega: 1.2,
            jblock: 5,
            name: "tiny",
        };
        let seq = run_sequential(&class);
        for mode in [Mode::jit(), Mode::partitioned()] {
            let comm = ReoComm::new(2, mode).unwrap();
            let par = run_parallel(&class, comm);
            assert!(par.agrees_with(&seq), "{par:?} vs {seq:?} under {mode:?}");
        }
    }
}
