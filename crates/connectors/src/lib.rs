//! # reo-connectors
//!
//! The eighteen parametrizable connector families of the paper's Fig. 12
//! connector benchmarks, written in the textual syntax of Sect. IV-B, with
//! the no-compute benchmark driver of Sect. V-B, plus the two link
//! workloads the repo benchmark drives: the disjoint-region `relay`
//! ([`families::relay_family`]) and the deep-backlog `burst`
//! ([`families::burst_family`]).

pub mod driver;
pub mod families;

pub use driver::{drive, drive_family, RunOutcome};
pub use families::{burst_family, families, relay_family, Family, Role, BURST_LINK_CAPACITY};
