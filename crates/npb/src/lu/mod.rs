//! The NPB LU application, substituted: an SSOR
//! (symmetric successive over-relaxation) wavefront solver for a 2-D
//! Poisson system, with exactly the communication structure Fig. 13
//! attributes to LU — "master–slaves and pipeline".
//!
//! Each SSOR iteration makes a forward Gauss–Seidel sweep (dependencies on
//! the *updated* north and west neighbours) and a backward sweep
//! (dependencies on the updated south and east neighbours). Row strips are
//! distributed over slaves; inside a sweep, slave k may only process a
//! column block after receiving its neighbour's updated boundary row for
//! that block — the classic LU pipeline.

pub mod parallel;
pub mod sequential;

pub use parallel::run_parallel;
pub use sequential::{run_sequential, LuResult};

use crate::classes::LuClass;

/// The Poisson right-hand side: constant source term (h² f with f ≡ 1 on
/// the unit square).
pub fn h2f(class: &LuClass) -> f64 {
    let h = 1.0 / (class.nx.max(class.ny) + 1) as f64;
    h * h
}

/// Forward-sweep update of one cell. `n`/`w` are *new* values, `s`/`e` old.
#[inline]
pub fn relax(old: f64, n: f64, s: f64, w: f64, e: f64, omega: f64, h2f: f64) -> f64 {
    (1.0 - omega) * old + omega * 0.25 * (n + s + w + e + h2f)
}

/// Residual contribution of one interior cell against its neighbours.
#[inline]
pub fn residual_at(u: f64, n: f64, s: f64, w: f64, e: f64, h2f: f64) -> f64 {
    let r = 4.0 * u - n - s - w - e - h2f;
    r * r
}
