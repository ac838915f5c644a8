//! # reo-runtime
//!
//! Parametrized execution (Sect. IV-D of van Veen & Jongmans, IPDPSW 2018):
//! blocking ports in the generalized Foster–Chandy model, a sequential
//! protocol engine, and the paper's two approaches ([`Mode`], see
//! [`connector`]), both stepped by one core ([`jit::JitCore`]).
//!
//! There is one scheduler: as in the paper, the task that calls
//! `send`/`recv` steps the connector itself. Every port call runs the
//! engine's one wait protocol ([`engine`], [`port`]), and values cross
//! between synchronous regions by the link protocol ([`partition`]).
//! [`ConnectorHandle::stats`] returns the counters of both
//! ([`EngineStats`]).
//!
//! Compile with the builder, connect into a [`Session`], and take *typed*
//! port handles — `recv()` returns `i64` here, not a raw `Value`:
//!
//! ```
//! use reo_runtime::{Connector, Mode};
//!
//! let program = reo_dsl::parse_program(
//!     "Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])",
//! ).unwrap();
//! let connector = Connector::builder(&program, "Buf").mode(Mode::jit()).build().unwrap();
//! let mut session = connector.session().replicate("a", 2).replicate("b", 2).connect().unwrap();
//! let senders = session.typed_outports::<i64>("a").unwrap();
//! let receivers = session.typed_inports::<i64>("b").unwrap();
//! senders[0].send(7).unwrap();
//! assert_eq!(receivers[0].recv().unwrap(), 7);
//! ```
//!
//! Port acquisition is fallible (no panics on a wrong name), and every
//! port offers non-blocking and deadline-bounded operations:
//!
//! ```
//! use std::time::Duration;
//! use reo_runtime::{Connector, Mode, RuntimeError};
//!
//! let program = reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
//! let connector = Connector::builder(&program, "Buf").build().unwrap();
//! let mut session = connector.session().connect().unwrap();
//! assert!(matches!(
//!     session.outports("nope"),
//!     Err(RuntimeError::UnknownParam { .. })
//! ));
//! let tx = session.typed_outport::<i64>("a").unwrap();
//! let rx = session.typed_inport::<i64>("b").unwrap();
//!
//! assert_eq!(rx.try_recv().unwrap(), None); // buffer empty: no block
//! assert!(tx.try_send(1).unwrap()); // buffer free: accepted
//! assert!(!tx.try_send(2).unwrap()); // buffer full: retracted, not lost
//! assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 1);
//! ```

pub mod analyze;
pub mod cache;
pub mod connector;
mod dead;
pub mod engine;
pub mod error;
pub mod jit;
pub mod partition;
pub mod port;
pub mod program;
mod reconfig;
pub mod select;
pub mod stepping;
pub mod watchdog;

pub use cache::{CachePolicy, CacheStats};
pub use connector::{
    Branch, Composition, Connector, ConnectorBuilder, ConnectorHandle, Limits, Mode, Placement,
    Session, SessionSpec,
};
pub use engine::EngineStats;
pub use error::RuntimeError;
pub use port::{Inport, Messages, Outport, RecvFuture, SendFuture};
pub use program::{run_main, RunReport, TaskCtx, TaskRegistry};
pub use reo_automata::{FromValue, IntoValue};
pub use select::{select2, select_slice, Either, Select2, SelectSlice};
pub use stepping::{stepping_run, SteppingMode, SteppingRun};
pub use watchdog::{LinkReport, ParkedKind, ParkedOp, RegionReport, StallReport};

/// The ahead-of-time core is [`jit::JitCore`] with every reachable row
/// filled at `connect` ([`jit::JitCore::eager`]).
///
/// Every name below survives only because `benchmark/` calls it, and goes
/// once the benchmark is re-based (ROADMAP direction 1):
/// * this alias and its [`compose`](jit::JitCore::compose) shim;
/// * [`SteppingMode`], which [`stepping_run`] accepts beside any [`Mode`];
/// * [`reo_automata::lower::lower`] and its `Lowered`;
/// * [`CachePolicy`], the ignored argument of [`partition::partition`];
/// * the two budget fields of [`Limits`].
pub type CompiledCore = jit::JitCore;
