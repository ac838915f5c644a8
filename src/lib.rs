//! # reo
//!
//! A Rust reproduction of **van Veen & Jongmans, *Modular Programming of
//! Synchronization and Communication among Tasks in Parallel Programs***
//! (IPDPSW 2018): Reo connectors parametrized in the number of tasks,
//! compiled into constraint-automata state machines with ahead-of-time or
//! just-in-time composition.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`automata`] — constraint automata with memory (the formal substrate);
//! * [`core`] — parametrized compilation (flattening, normalization,
//!   medium-automata templates, instantiation);
//! * [`dsl`] — the textual syntax of Sect. IV-B;
//! * [`runtime`] — blocking *and async* ports and the execution modes;
//! * [`exec`] — a minimal hand-rolled async executor (task arena,
//!   global+local run queues) for 100k+ concurrent sessions on a few
//!   threads;
//! * [`connectors`] — the 18 parametrizable connector families of Fig. 12;
//! * [`npb`] — the NAS Parallel Benchmarks substrate of Fig. 13.
//!
//! ## Quickstart
//!
//! ```
//! use reo::{Connector, Mode};
//!
//! // The paper's Example 8: N producers, one consumer, strictly ordered.
//! let program = reo::dsl::parse_program(reo::dsl::stdlib::FIG9_SOURCE).unwrap();
//! let connector = Connector::builder(&program, "ConnectorEx11N")
//!     .mode(Mode::jit())
//!     .build()
//!     .unwrap();
//!
//! // Choose N at *run time* — the generalization the paper contributes.
//! let n = 3;
//! let mut session = connector.session().replicate("tl", n).replicate("hd", n).connect().unwrap();
//!
//! // Typed handles: these ports carry plain i64s, no Value wrapping.
//! let producers = session.typed_outports::<i64>("tl").unwrap();
//! let consumer = session.typed_inports::<i64>("hd").unwrap();
//!
//! // Producer 1 may send immediately; the others are held back until the
//! // consumer catches up, enforcing producer order end to end.
//! producers[0].send(10).unwrap();
//! assert_eq!(consumer[0].recv().unwrap(), 10);
//! ```
//!
//! Port acquisition is fallible — a wrong name is a typed error, not a
//! panic — and every port also offers non-blocking (`try_send`/`try_recv`)
//! and deadline-bounded (`send_timeout`/`recv_timeout`) operations; see
//! [`runtime`] for the polling-loop example.

/// The map of the workspace, rendered from the repository's
/// `docs/ARCHITECTURE.md`: the crate table, the paper-to-module table, one
/// paragraph per layer pointing at its module docs, and three guided
/// examples, included here so they run as doctests of the facade.
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub mod architecture {}

pub use reo_automata as automata;
pub use reo_connectors as connectors;
pub use reo_core as core;
pub use reo_dsl as dsl;
pub use reo_exec as exec;
pub use reo_npb as npb;
pub use reo_runtime as runtime;

pub use reo_automata::{FromValue, IntoValue, Value};
pub use reo_runtime::{
    select2, select_slice, Branch, Connector, ConnectorHandle, Either, Inport, Mode, Outport,
    RecvFuture, RuntimeError, SendFuture, Session, SessionSpec,
};
