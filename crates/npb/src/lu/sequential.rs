//! Sequential SSOR reference.

use crate::classes::LuClass;
use crate::lu::{h2f, relax, residual_at};

/// Result of an SSOR run.
#[derive(Clone, Debug)]
pub struct LuResult {
    /// ‖Au − f‖ after the final iteration.
    pub residual: f64,
    /// Value at the grid centre (a cheap solution fingerprint).
    pub center: f64,
}

impl LuResult {
    /// Whether two runs of one class computed the same field. Every
    /// decomposition relaxes the points in the same dependency order, so the
    /// centre must match bitwise; the residual is a sum whose grouping
    /// follows the decomposition, so it may differ in the last bits.
    pub fn agrees_with(&self, other: &LuResult) -> bool {
        let scale = self.residual.abs().max(other.residual.abs()).max(1e-300);
        self.center.to_bits() == other.center.to_bits()
            && (self.residual - other.residual).abs() <= 1e-12 * scale
    }
}

/// Dense (nx+2)×(ny+2) grid with a zero ghost boundary.
pub struct Grid {
    pub nx: usize,
    pub ny: usize,
    pub u: Vec<f64>,
}

impl Grid {
    pub fn new(nx: usize, ny: usize) -> Self {
        Grid {
            nx,
            ny,
            u: vec![0.0; (nx + 2) * (ny + 2)],
        }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        i * (self.ny + 2) + j
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.u[self.idx(i, j)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.u[k] = v;
    }
}

/// One forward sweep over rows `1..=nx` (new north/west, old south/east).
pub fn forward_sweep(g: &mut Grid, omega: f64, f: f64) {
    for i in 1..=g.nx {
        for j in 1..=g.ny {
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
}

/// One backward sweep (new south/east, old north/west).
pub fn backward_sweep(g: &mut Grid, omega: f64, f: f64) {
    for i in (1..=g.nx).rev() {
        for j in (1..=g.ny).rev() {
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
}

/// Residual over rows `[lo, hi]` (1-based, inclusive).
pub fn residual_rows(g: &Grid, lo: usize, hi: usize, f: f64) -> f64 {
    let mut sum = 0.0;
    for i in lo..=hi {
        for j in 1..=g.ny {
            sum += residual_at(
                g.get(i, j),
                g.get(i - 1, j),
                g.get(i + 1, j),
                g.get(i, j - 1),
                g.get(i, j + 1),
                f,
            );
        }
    }
    sum
}

/// The full sequential benchmark.
pub fn run_sequential(class: &LuClass) -> LuResult {
    let mut g = Grid::new(class.nx, class.ny);
    let f = h2f(class);
    for _ in 0..class.itmax {
        forward_sweep(&mut g, class.omega, f);
        backward_sweep(&mut g, class.omega, f);
    }
    let residual = residual_rows(&g, 1, class.nx, f).sqrt();
    LuResult {
        residual,
        center: g.get(class.nx / 2, class.ny / 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssor_converges_on_class_s() {
        let r = run_sequential(&LuClass::S);
        // SSOR contracts slowly on a 33² grid (ρ ≈ 0.98 per double sweep);
        // after 50 iterations the residual must have dropped clearly below
        // the initial ‖f‖ = sqrt(nx·ny)·h², without demanding full
        // convergence.
        let f = h2f(&LuClass::S);
        let initial = (LuClass::S.nx as f64 * LuClass::S.ny as f64).sqrt() * f;
        assert!(
            r.residual < initial * 0.6,
            "residual {} vs initial {initial}",
            r.residual
        );
        assert!(r.center > 0.0, "heat spreads into the domain");
    }

    #[test]
    fn more_iterations_do_not_increase_residual() {
        let short = run_sequential(&LuClass {
            itmax: 10,
            ..LuClass::S
        });
        let long = run_sequential(&LuClass {
            itmax: 40,
            ..LuClass::S
        });
        assert!(long.residual <= short.residual);
    }

    #[test]
    fn result_is_deterministic() {
        let a = run_sequential(&LuClass::S);
        let b = run_sequential(&LuClass::S);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        assert_eq!(a.center.to_bits(), b.center.to_bits());
    }

    #[test]
    fn solution_is_symmetric_for_square_grid() {
        // Constant source + square domain: u(i,j) == u(j,i).
        let class = LuClass {
            nx: 17,
            ny: 17,
            itmax: 60,
            ..LuClass::S
        };
        let mut g = Grid::new(class.nx, class.ny);
        let f = h2f(&class);
        for _ in 0..class.itmax {
            forward_sweep(&mut g, class.omega, f);
            backward_sweep(&mut g, class.omega, f);
        }
        for i in 1..=class.nx {
            for j in 1..=class.ny {
                assert!(
                    (g.get(i, j) - g.get(j, i)).abs() < 1e-9,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }
}
