//! # reo-automata
//!
//! Constraint automata with memory — the formal-semantics substrate of Reo
//! connectors, as used by the paper *Modular Programming of Synchronization
//! and Communication among Tasks in Parallel Programs* (van Veen & Jongmans,
//! IPDPSW 2018).
//!
//! A connector is a composition of primitive channels; every primitive has a
//! "small" constraint automaton (Fig. 7 of the paper), and the behaviour of
//! the whole connector is the synchronous product × of its constituents
//! (Eq. 1). This crate provides:
//!
//! * the automaton representation ([`automaton`]), with data terms
//!   ([`term`]), guards ([`guard`]), assignments ([`assign`]) and memory
//!   cells ([`store`]) so that automata are directly *executable*;
//! * builders for the full primitive set ([`primitives`]);
//! * the product × with reachable-only construction and explosion budgets
//!   ([`product()`] for two automata, [`product_all`] for a list), over the
//!   connected-step enumerator it shares with the JIT ([`connected`]);
//! * the transition-label simplification optimization of reference \[30\]
//!   ([`simplify()`]);
//! * exploration/analysis helpers ([`explore`]).
//!
//! Higher layers (`reo-core`, `reo-runtime`) build parametrized compilation
//! and the ahead-of-time/just-in-time execution engines on top of this
//! crate.

pub mod assign;
pub mod automaton;
pub mod buckets;
pub mod connected;
pub mod explore;
pub mod fire;
pub mod guard;
pub mod lower;
pub mod name;
pub mod port;
pub mod primitives;
pub mod product;
pub mod remap;
pub mod simplify;
pub mod store;
pub mod term;
pub mod value;

pub use assign::{Assign, Dst};
pub use automaton::{Automaton, AutomatonBuilder, StateId, Transition};
pub use buckets::{Buckets, IdHasher, IdMap};
pub use connected::{Choice, PortOwners, Steps};
pub use fire::{try_fire, Firing};
pub use guard::{Cmp, Guard, Pred};
pub use lower::{lower, ExecScratch, LowerError, LowerOptions, Lowered, LoweredTransition};
pub use name::Name;
pub use port::{MemId, PortAllocator, PortId, PortSet};
pub use product::{
    product, product_all, product_all_traced, product_from, Explosion, ProductOptions, StateTrace,
};
pub use simplify::simplify;
pub use store::{MemLayout, Store};
pub use term::{Func, Term};
pub use value::{FromValue, IntoValue, Value};
