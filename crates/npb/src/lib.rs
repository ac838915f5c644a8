//! # reo-npb
//!
//! The NAS Parallel Benchmarks substrate of the paper's Fig. 13 evaluation:
//! the CG kernel (faithful port, official verification values) and the LU
//! application (SSOR wavefront substitute with the same master–slaves +
//! pipeline communication structure, see `lu`), each runnable over a
//! hand-written crossbeam back end ("original program") or a Reo connector
//! back end ("Reo-based program").

pub mod cg;
pub mod classes;
pub mod comm;
pub mod lu;
pub mod randlc;

pub use classes::{CgClass, LuClass};
pub use comm::{Comm, HandWritten, ReoComm};
pub use randlc::Randlc;
