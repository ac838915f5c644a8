//! # reo-core
//!
//! Parametrized compilation of Reo connector definitions — the central
//! contribution of *Modular Programming of Synchronization and Communication
//! among Tasks in Parallel Programs* (van Veen & Jongmans, IPDPSW 2018).
//!
//! The pipeline (Sect. IV-C of the paper):
//!
//! 1. **IR** ([`ir`]): connector definitions with port arrays, `#lengths`,
//!    iteration (`prod`) and conditionals — built programmatically or by the
//!    `reo-dsl` parser.
//! 2. **Flattening** ([`flat`]): composites expanded and in-lined, locals
//!    renamed apart (Example 9).
//! 3. **Normalization** ([`mod@normalize`]): constituents ∥ iterations ∥
//!    conditionals (Example 10).
//! 4. **Compilation** ([`mod@compile`]): each constituents section composed into
//!    a *medium automaton* over symbolic ports; the rest kept as a residual
//!    tree — the compile-time share.
//! 5. **Instantiation** ([`mod@instantiate`]): at `connect` time, with array
//!    lengths known, the residual tree is walked and templates are stamped
//!    out — the run-time share.
//!
//! The *existing* approach, Fig. 12's baseline, takes the same walk over
//! [`compile_primitives`]' template, which defers every primitive, and
//! composes the result into one large automaton for the fixed N.

pub mod affine;
pub mod builtins;
pub mod compile;
pub mod error;
pub mod examples;
pub mod flat;
pub mod instantiate;
pub mod ir;
pub mod normalize;
pub mod resolve;

pub use compile::{compile, compile_primitives, CompiledConnector, CompiledNode, MediumTemplate};
pub use error::CoreError;
pub use flat::{flatten, FlatDef};
pub use instantiate::{instantiate, ConnectorInstance, Origin, INSTANTIATION_BUDGET};
pub use ir::{
    Arity, BExpr, CExpr, Cmp, ConnectorDef, CustomPrim, IExpr, Inst, MainDef, Param, PortRef,
    PrimRegistry, Program, TaskInst,
};
pub use normalize::{normalize, NormalForm};
/// The identifiers of the IR (vertex, variable and primitive names).
pub use reo_automata::Name;
pub use resolve::{env_from_binding, Binding};
