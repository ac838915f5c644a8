//! `reo-fuzz`: adversarial scenario generation for the connector runtime.
//!
//! Four pieces, layered on the scripted scenario driver
//! ([`scenario`], [`run_scenario`]):
//!
//! 1. [`gen`] — a deterministic, seed-driven generator of structured
//!    connector scenarios: random compositions of the paper's primitives
//!    (relays, replicated grids, fan-in/out, routers, the Fig. 9
//!    sequencer) plus churn scripts exercising the reconfiguration API.
//!    Every scenario is constructed together with a driving script the
//!    generator can prove live, so a timeout is evidence, not noise.
//! 2. [`diff`] — the differential harness: each scenario runs under
//!    every runtime of [`reo_runtime::Mode::grid`] and both port
//!    front-ends; observations must
//!    agree modulo the scenario's documented scheduling freedom, every
//!    value must arrive exactly once, and nothing may hang.
//! 3. [`pipeline`] — a front-end fuzzer feeding mutated and synthetic
//!    DSL text through lexer → parser → elaborator → lowering, hunting
//!    panics; typed refusals are the expected outcome.
//! 4. fault injection ([`gen::generate_fault`] + [`diff::fault_case`]) —
//!    scenarios that script a failure on purpose (a dropped port, a
//!    panic injected into a firing, a direct poison, a close racing
//!    live ops) and assert *graceful degradation* under every mode:
//!    typed errors within the deadline, zero hangs, zero escaped
//!    panics.
//!
//! Findings are shrunk by [`minimize`] and persisted by [`corpus`] as
//! `tests/corpus/*.case` files, which `tests/corpus_replay.rs` replays
//! on every `cargo test` run — the corpus only grows. The `reo-fuzz`
//! binary (`cargo run --release -p reo-fuzz -- diff --seconds 60`) is
//! the exploration front end, run time-boxed in CI.

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod minimize;
pub mod pipeline;
pub mod rng;
pub mod scenario;

pub use corpus::{from_text, load_dir, replay, to_text, CorpusCase};
pub use diff::{diff_case, fault_case, CaseOutcome, Finding, FindingKind};
pub use gen::{generate, generate_fault, Agreement, GenCase};
pub use minimize::{minimize_case, minimize_source};
pub use pipeline::{check_source, hostile_source, PipeFinding, PipeStage};
pub use rng::Rng;
pub use scenario::{
    run_scenario, Driver, Observation, Op, OpResult, PortRef, Scenario, ScenarioError, Step,
};
