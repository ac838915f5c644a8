//! # reo-bench
//!
//! Harnesses regenerating the paper's evaluation:
//!
//! * `fig12` binary — the connector benchmarks (Sect. V-B): 18 families ×
//!   N ∈ {2,…,64} × {existing, new}, step counts in a wall-clock window,
//!   plus the classification summary of Fig. 12.
//! * `fig13` binary — the NPB benchmarks (Sect. V-C): CG/LU × class × N,
//!   original vs Reo-based run times, plus the N ≥ 16 non-termination
//!   reproduction and its partitioned-execution fix.
//! * `bench_check` binary — schema validation and the CI
//!   failure-regression gate over the two `BENCH_*.json` reports (schemas
//!   documented in [`json`]).
//!
//! These reproduce the paper's figures. Changes to the repo are judged by
//! the stand-alone package under `benchmark/` (`BENCHMARK.json`), not here.

pub mod check;
pub mod cli;
pub mod fig12;
pub mod fig13;
pub mod json;

pub use cli::Args;
