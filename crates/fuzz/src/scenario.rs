//! Scripted scenario driving: one description, every runtime mode.
//!
//! A [`Scenario`] is a self-contained, declarative description of a
//! connector run — DSL source, entry definition, replication sizes, and a
//! script of send/receive batches (plus optional reconfiguration steps).
//! [`run_scenario`] executes it under any [`Mode`] and returns a
//! deterministic, comparable [`Observation`]: one [`OpResult`] per script
//! op, in script order, plus the values left buffered in the connector at
//! the end.
//!
//! This is the common substrate of the differential test harness: this
//! crate generates scenarios, runs them across the whole
//! [`Mode::grid`] and diffs the observations; the corpus replay tests
//! re-run checked-in scenarios the same way. Everything here is
//! single-process and timeout-protected — a scenario can *report* a hang
//! (as [`OpResult::TimedOut`]) but cannot cause one.
//!
//! Two drivers exercise the two port front-ends:
//!
//! * [`Driver::Threads`] uses the blocking calls (`send_timeout` /
//!   `recv_timeout`), one scoped thread per op in a batch — the
//!   synchronous API under real OS-thread concurrency.
//! * [`Driver::Polled`] uses the async futures (`send_async` /
//!   `recv_async`), hand-polled round-robin on the calling thread — the
//!   waker path, with drop-retraction for cancelled ops.
//!
//! Both must observe identical results for the same scenario; batches
//! with a `quorum` (where only some armed ops are expected to complete,
//! e.g. one `Router` leg out of two) always use the polled driver, since
//! cancelling a blocked OS thread is not possible.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use reo_automata::Value;
use reo_dsl::parse_program;
use reo_runtime::{Branch, Connector, Inport, Mode, Outport, RecvFuture, RuntimeError, SendFuture};

/// Which port front-end drives the script (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Blocking `send_timeout`/`recv_timeout`, one scoped thread per op.
    Threads,
    /// Hand-polled `send_async`/`recv_async` futures, single-threaded.
    Polled,
}

/// A port named by the script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortRef {
    /// `index`-th port of a connector parameter (0-based).
    Param { name: String, index: usize },
    /// The port of the `index`-th attached branch (attach order, 0-based).
    Branch { index: usize },
}

impl std::fmt::Display for PortRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortRef::Param { name, index } => write!(f, "{name}[{index}]"),
            PortRef::Branch { index } => write!(f, "branch#{index}"),
        }
    }
}

/// One scripted operation inside a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Offer `value` on an output-side port.
    Send { port: PortRef, value: i64 },
    /// Take one delivery from an input-side port.
    Recv { port: PortRef },
}

/// One step of a scenario script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Arm all `ops` concurrently; wait until `quorum` of them complete
    /// (`None`: all of them), then cancel the rest. Ops that neither
    /// complete nor get cancelled before the scenario timeout are
    /// recorded as [`OpResult::TimedOut`].
    Batch { ops: Vec<Op>, quorum: Option<usize> },
    /// Attach a fresh branch to replicated parameter `param`
    /// (reconfigurable sessions only); its port becomes
    /// [`PortRef::Branch`] with the next attach index.
    Attach { param: String },
    /// Detach the `branch`-th attached branch.
    Detach { branch: usize },
    /// Fault: drop the named port handle mid-script. Hangup-on-drop
    /// fires; peers whose every remaining transition needed the departed
    /// port must resolve `RuntimeError::Hangup` promptly instead of
    /// blocking to the deadline.
    DropPort { port: PortRef },
    /// Fault: arm the session's test-only panic countdown — the
    /// `after`-th step fired from now (0 = the very next one; counted per
    /// region engine) panics *inside the firing*, exercising panic
    /// containment (catch → poison → wake).
    InjectPanic { after: u64 },
    /// Fault: poison the session directly, as a contained engine failure
    /// would. Every subsequent (and parked) op must resolve
    /// `RuntimeError::Poisoned` promptly.
    Poison,
    /// Fault: close the session from a background thread after
    /// `delay_ms` — a close racing whatever the following steps arm.
    /// Racing ops must resolve (value or typed error), never hang.
    Close { delay_ms: u64 },
}

/// The outcome of one scripted op (or structural step), in script order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The send was accepted by the connector.
    Sent,
    /// The receive completed with this value (non-integer payloads are
    /// rendered through `Value::as_int`, which generated scenarios never
    /// produce).
    Received(i64),
    /// The op was still pending when the batch met its quorum; it was
    /// retracted, so it observed nothing.
    Cancelled,
    /// The op did not complete within the scenario timeout.
    TimedOut,
    /// A structural step (attach/detach) completed.
    Done,
    /// The op failed with a runtime error (rendered).
    Error(String),
}

/// A self-contained, mode-independent description of one connector run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Connector DSL source text.
    pub source: String,
    /// Name of the definition to build.
    pub entry: String,
    /// Replication sizes passed to the session (`(param, n)`).
    pub replicate: Vec<(String, usize)>,
    /// Whether to connect with the reconfigurable session spec (required
    /// when the script attaches/detaches branches).
    pub reconfigurable: bool,
    /// The script.
    pub steps: Vec<Step>,
    /// Per-op completion deadline. An op past it is a reported hang.
    pub timeout: Duration,
}

impl Scenario {
    /// A scenario with the defaults the fuzzer uses: not reconfigurable,
    /// 5-second op deadline.
    pub fn new(source: impl Into<String>, entry: impl Into<String>) -> Self {
        Scenario {
            source: source.into(),
            entry: entry.into(),
            replicate: Vec::new(),
            reconfigurable: false,
            steps: Vec::new(),
            timeout: Duration::from_secs(5),
        }
    }
}

/// Everything a scenario run observed, positionally comparable across
/// modes and drivers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// One result vector per script step: batches yield one [`OpResult`]
    /// per op (in op order); attach/detach steps yield a single
    /// [`OpResult::Done`] or [`OpResult::Error`].
    pub results: Vec<Vec<OpResult>>,
    /// Values still buffered at script end, drained with `try_recv` from
    /// every input-side port: `(port label, values in drain order)`,
    /// sorted by label. Exactly-once checks compare sends against
    /// received + residual.
    pub residual: Vec<(String, Vec<i64>)>,
    /// The reconfiguration epoch at the end (0 for static sessions).
    pub epoch: u64,
}

/// Why a scenario could not produce an [`Observation`] at all.
#[derive(Clone, Debug)]
pub enum ScenarioError {
    /// The DSL source did not parse.
    Parse(String),
    /// Builder compile failed (carries the rendered [`RuntimeError`]).
    Build(String),
    /// `connect` failed.
    Connect(String),
    /// The script referenced a port that does not exist, a branch that
    /// was never attached, or attached on a non-reconfigurable session.
    Script(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(m) => write!(f, "parse: {m}"),
            ScenarioError::Build(m) => write!(f, "build: {m}"),
            ScenarioError::Connect(m) => write!(f, "connect: {m}"),
            ScenarioError::Script(m) => write!(f, "script: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// An attached branch plus its (single-owner) port handle.
struct BranchSlot {
    branch: Option<Branch>,
    out: Option<Outport>,
    inp: Option<Inport>,
}

/// All ports a running scenario can address. Slots are `Option` so a
/// fault step ([`Step::DropPort`]) can drop a handle mid-script; a
/// dropped slot surfaces as a script error at any later op that
/// references it.
struct Ports {
    outs: HashMap<String, Vec<Option<Outport>>>,
    ins: HashMap<String, Vec<Option<Inport>>>,
    branches: Vec<BranchSlot>,
}

impl Ports {
    fn outport(&self, r: &PortRef) -> Result<&Outport, ScenarioError> {
        let missing = || ScenarioError::Script(format!("no output-side port `{r}`"));
        match r {
            PortRef::Param { name, index } => self
                .outs
                .get(name)
                .and_then(|v| v.get(*index))
                .and_then(|slot| slot.as_ref())
                .ok_or_else(missing),
            PortRef::Branch { index } => self
                .branches
                .get(*index)
                .and_then(|b| b.out.as_ref())
                .ok_or_else(missing),
        }
    }

    fn inport(&self, r: &PortRef) -> Result<&Inport, ScenarioError> {
        let missing = || ScenarioError::Script(format!("no input-side port `{r}`"));
        match r {
            PortRef::Param { name, index } => self
                .ins
                .get(name)
                .and_then(|v| v.get(*index))
                .and_then(|slot| slot.as_ref())
                .ok_or_else(missing),
            PortRef::Branch { index } => self
                .branches
                .get(*index)
                .and_then(|b| b.inp.as_ref())
                .ok_or_else(missing),
        }
    }

    /// Drop the named port handle (the [`Step::DropPort`] fault). The
    /// handle's `Drop` impl performs the hangup; a reference to a port
    /// that does not exist — or was already dropped — is reported as an
    /// op-level error rather than aborting the script, so shrunk fault
    /// scripts stay runnable.
    fn drop_port(&mut self, r: &PortRef) -> OpResult {
        let dropped = match r {
            PortRef::Param { name, index } => {
                if let Some(slot) = self.outs.get_mut(name).and_then(|v| v.get_mut(*index)) {
                    Some(slot.take().is_some())
                } else {
                    self.ins
                        .get_mut(name)
                        .and_then(|v| v.get_mut(*index))
                        .map(|slot| slot.take().is_some())
                }
            }
            PortRef::Branch { index } => self.branches.get_mut(*index).map(|b| {
                let had = b.out.is_some() || b.inp.is_some();
                b.out = None;
                b.inp = None;
                had
            }),
        };
        match dropped {
            Some(true) => OpResult::Done,
            Some(false) => OpResult::Error(format!("port `{r}` already dropped")),
            None => OpResult::Error(format!("no port `{r}` to drop")),
        }
    }
}

fn render_recv(v: Value) -> i64 {
    v.as_int().unwrap_or(i64::MIN)
}

/// Run one scenario under one mode with one driver.
///
/// Builds the connector, connects the session, executes every step, then
/// drains all input-side ports and closes the engine. The returned
/// [`Observation`] is deterministic for deterministic connectors; for
/// connectors with legitimate scheduling freedom (mergers, routers) the
/// *per-port value multisets* are deterministic while orders may vary —
/// the caller chooses the comparison discipline.
pub fn run_scenario(
    scenario: &Scenario,
    mode: Mode,
    driver: Driver,
) -> Result<Observation, ScenarioError> {
    let program =
        parse_program(&scenario.source).map_err(|e| ScenarioError::Parse(e.to_string()))?;
    let connector = Connector::builder(&program, &scenario.entry)
        .mode(mode)
        .build()
        .map_err(|e| ScenarioError::Build(e.to_string()))?;
    let mut spec = connector.session();
    for (name, n) in &scenario.replicate {
        spec = spec.replicate(name, *n);
    }
    if scenario.reconfigurable {
        spec = spec.reconfigurable();
    }
    let mut session = spec
        .connect()
        .map_err(|e| ScenarioError::Connect(e.to_string()))?;

    // Take every addressable port up front (ports are single-owner).
    // Direction is discovered, not declared: a param that has no
    // output-side ports is an input-side param.
    let mut ports = Ports {
        outs: HashMap::new(),
        ins: HashMap::new(),
        branches: Vec::new(),
    };
    let mut names: Vec<&str> = scenario.replicate.iter().map(|(n, _)| n.as_str()).collect();
    for step in &scenario.steps {
        match step {
            Step::Batch { ops, .. } => {
                for op in ops {
                    let (Op::Send { port, .. } | Op::Recv { port }) = op;
                    if let PortRef::Param { name, .. } = port {
                        names.push(name.as_str());
                    }
                }
            }
            Step::DropPort {
                port: PortRef::Param { name, .. },
            } => {
                names.push(name.as_str());
            }
            _ => {}
        }
    }
    names.sort_unstable();
    names.dedup();
    for name in names {
        if let Ok(outs) = session.outports(name) {
            ports
                .outs
                .insert(name.to_string(), outs.into_iter().map(Some).collect());
        } else if let Ok(ins) = session.inports(name) {
            ports
                .ins
                .insert(name.to_string(), ins.into_iter().map(Some).collect());
        }
        // A name the connector does not have at all surfaces later as a
        // Script error at the op that references it.
    }
    let handle = session.handle();

    // Background closer threads armed by `Step::Close`; joined before
    // the observation is assembled so their effect is part of the run.
    let mut closers: Vec<std::thread::JoinHandle<()>> = Vec::new();

    let mut results: Vec<Vec<OpResult>> = Vec::with_capacity(scenario.steps.len());
    for step in &scenario.steps {
        match step {
            Step::DropPort { port } => {
                results.push(vec![ports.drop_port(port)]);
            }
            Step::InjectPanic { after } => {
                handle.arm_panic_after_steps(*after);
                results.push(vec![OpResult::Done]);
            }
            Step::Poison => {
                handle.poison("injected fault: scripted poison");
                results.push(vec![OpResult::Done]);
            }
            Step::Close { delay_ms } => {
                let h = handle.clone();
                let delay = Duration::from_millis(*delay_ms);
                closers.push(std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    h.close();
                }));
                results.push(vec![OpResult::Done]);
            }
            Step::Attach { param } => {
                let res = match handle.attach(param) {
                    Ok(mut branch) => {
                        let out = branch.outport().ok();
                        let inp = if out.is_none() {
                            branch.inport().ok()
                        } else {
                            None
                        };
                        ports.branches.push(BranchSlot {
                            branch: Some(branch),
                            out,
                            inp,
                        });
                        OpResult::Done
                    }
                    Err(e) => OpResult::Error(e.to_string()),
                };
                results.push(vec![res]);
            }
            Step::Detach { branch } => {
                let slot = ports
                    .branches
                    .get_mut(*branch)
                    .ok_or_else(|| ScenarioError::Script(format!("no branch #{branch}")))?;
                // Drop the branch's ports first: detach refuses while the
                // branch still buffers undelivered values, and a held
                // inport counts as an undrained consumer.
                slot.out = None;
                slot.inp = None;
                let res = match slot.branch.take() {
                    Some(b) => match b.detach() {
                        Ok(()) => OpResult::Done,
                        Err(e) => OpResult::Error(e.to_string()),
                    },
                    None => OpResult::Error("branch already detached".into()),
                };
                results.push(vec![res]);
            }
            Step::Batch { ops, quorum } => {
                let outcomes = match (driver, quorum) {
                    // Quorum batches must be cancellable: always polled.
                    (Driver::Polled, _) | (_, Some(_)) => {
                        run_batch_polled(&ports, ops, *quorum, scenario.timeout)?
                    }
                    (Driver::Threads, None) => run_batch_threads(&ports, ops, scenario.timeout)?,
                };
                results.push(outcomes);
            }
        }
    }

    // Drain: anything still buffered behind an input-side port.
    let mut residual: Vec<(String, Vec<i64>)> = Vec::new();
    let mut drain = |label: String, port: &Inport| {
        let mut got = Vec::new();
        // Bounded, so a pathological engine cannot spin us forever.
        for _ in 0..100_000 {
            match port.try_recv() {
                Ok(Some(v)) => got.push(render_recv(v)),
                Ok(None) | Err(_) => break,
            }
        }
        residual.push((label, got));
    };
    let mut in_names: Vec<&String> = ports.ins.keys().collect();
    in_names.sort_unstable();
    for name in in_names {
        for (i, port) in ports.ins[name].iter().enumerate() {
            if let Some(port) = port {
                drain(format!("{name}[{i}]"), port);
            }
        }
    }
    for (i, slot) in ports.branches.iter().enumerate() {
        if let Some(inp) = &slot.inp {
            drain(format!("branch#{i}"), inp);
        }
    }
    let epoch = handle.epoch();
    handle.close();
    for c in closers {
        let _ = c.join();
    }
    Ok(Observation {
        results,
        residual,
        epoch,
    })
}

/// Blocking driver: one scoped thread per op, deadline-bounded calls.
fn run_batch_threads(
    ports: &Ports,
    ops: &[Op],
    timeout: Duration,
) -> Result<Vec<OpResult>, ScenarioError> {
    // Resolve every port before spawning, so script errors stay errors
    // (not per-thread panics).
    enum Resolved<'a> {
        Send(&'a Outport, i64),
        Recv(&'a Inport),
    }
    let resolved: Vec<Resolved<'_>> = ops
        .iter()
        .map(|op| match op {
            Op::Send { port, value } => Ok(Resolved::Send(ports.outport(port)?, *value)),
            Op::Recv { port } => Ok(Resolved::Recv(ports.inport(port)?)),
        })
        .collect::<Result<_, ScenarioError>>()?;
    let mut outcomes: Vec<OpResult> = Vec::with_capacity(ops.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = resolved
            .iter()
            .map(|r| {
                scope.spawn(move || match r {
                    Resolved::Send(port, value) => {
                        match port.send_timeout(Value::Int(*value), timeout) {
                            Ok(()) => OpResult::Sent,
                            Err(RuntimeError::Timeout) => OpResult::TimedOut,
                            Err(e) => OpResult::Error(e.to_string()),
                        }
                    }
                    Resolved::Recv(port) => match port.recv_timeout(timeout) {
                        Ok(v) => OpResult::Received(render_recv(v)),
                        Err(RuntimeError::Timeout) => OpResult::TimedOut,
                        Err(e) => OpResult::Error(e.to_string()),
                    },
                })
            })
            .collect();
        for h in handles {
            outcomes.push(h.join().expect("scenario op threads do not panic"));
        }
    });
    Ok(outcomes)
}

/// Polled driver: arm every op as a future, poll round-robin until the
/// quorum completes, then drop (retract) the rest.
fn run_batch_polled(
    ports: &Ports,
    ops: &[Op],
    quorum: Option<usize>,
    timeout: Duration,
) -> Result<Vec<OpResult>, ScenarioError> {
    enum InFlight<'a> {
        Send(SendFuture<'a>),
        Recv(RecvFuture<'a, Value>),
    }
    let mut futures: Vec<Option<InFlight<'_>>> = Vec::with_capacity(ops.len());
    for op in ops {
        futures.push(Some(match op {
            Op::Send { port, value } => {
                InFlight::Send(ports.outport(port)?.send_async(Value::Int(*value)))
            }
            Op::Recv { port } => InFlight::Recv(ports.inport(port)?.recv_async()),
        }));
    }
    let mut outcomes: Vec<Option<OpResult>> = vec![None; ops.len()];
    let need = quorum.unwrap_or(ops.len()).min(ops.len());
    let mut completed = 0usize;
    // The polled driver never sleeps on a wake: it polls round-robin,
    // yielding between full passes.
    let mut cx = Context::from_waker(Waker::noop());
    let deadline = Instant::now() + timeout;
    while completed < need {
        let mut progressed = false;
        for (i, slot) in futures.iter_mut().enumerate() {
            let Some(inflight) = slot else { continue };
            let outcome = match inflight {
                InFlight::Send(f) => match Pin::new(f).poll(&mut cx) {
                    Poll::Pending => None,
                    Poll::Ready(Ok(())) => Some(OpResult::Sent),
                    Poll::Ready(Err(e)) => Some(OpResult::Error(e.to_string())),
                },
                InFlight::Recv(f) => match Pin::new(f).poll(&mut cx) {
                    Poll::Pending => None,
                    Poll::Ready(Ok(v)) => Some(OpResult::Received(render_recv(v))),
                    Poll::Ready(Err(e)) => Some(OpResult::Error(e.to_string())),
                },
            };
            if let Some(res) = outcome {
                outcomes[i] = Some(res);
                *slot = None;
                completed += 1;
                progressed = true;
            }
        }
        if completed >= need {
            break;
        }
        if Instant::now() >= deadline {
            for (i, slot) in futures.iter_mut().enumerate() {
                if slot.take().is_some() {
                    // Dropping the future retracts the registration.
                    outcomes[i] = Some(OpResult::TimedOut);
                }
            }
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    // Quorum met: retract whatever is still armed.
    for (i, slot) in futures.iter_mut().enumerate() {
        if slot.take().is_some() {
            outcomes[i] = Some(OpResult::Cancelled);
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every op resolved, cancelled or timed out"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo_scenario() -> Scenario {
        let port = |name: &str| PortRef::Param {
            name: name.into(),
            index: 0,
        };
        let batch = |op: Op| Step::Batch {
            ops: vec![op],
            quorum: None,
        };
        let mut s = Scenario::new("P(a;b) = Fifo1(a;m) mult Fifo1(m;b)", "P");
        // One send per batch: two sends armed on the same port in one
        // batch would race for the slot under the threads driver.
        s.steps = vec![
            batch(Op::Send {
                port: port("a"),
                value: 7,
            }),
            batch(Op::Send {
                port: port("a"),
                value: 8,
            }),
            batch(Op::Recv { port: port("b") }),
        ];
        s
    }

    #[test]
    fn both_drivers_agree_on_a_buffered_pipeline() {
        let s = fifo_scenario();
        let threads = run_scenario(&s, Mode::jit(), Driver::Threads).unwrap();
        let polled = run_scenario(&s, Mode::jit(), Driver::Polled).unwrap();
        assert_eq!(threads, polled);
        assert_eq!(
            threads.results,
            vec![
                vec![OpResult::Sent],
                vec![OpResult::Sent],
                vec![OpResult::Received(7)],
            ]
        );
        // The second value is still buffered: the drain must find it.
        assert_eq!(threads.residual, vec![("b[0]".to_string(), vec![8])]);
    }

    #[test]
    fn sync_channel_needs_both_sides_in_one_batch() {
        let mut s = Scenario::new("P(a;b) = Sync(a;b)", "P");
        s.steps = vec![Step::Batch {
            ops: vec![
                Op::Send {
                    port: PortRef::Param {
                        name: "a".into(),
                        index: 0,
                    },
                    value: 3,
                },
                Op::Recv {
                    port: PortRef::Param {
                        name: "b".into(),
                        index: 0,
                    },
                },
            ],
            quorum: None,
        }];
        for driver in [Driver::Threads, Driver::Polled] {
            let obs = run_scenario(&s, Mode::jit(), driver).unwrap();
            assert_eq!(
                obs.results,
                vec![vec![OpResult::Sent, OpResult::Received(3)]],
                "{driver:?}"
            );
            assert!(obs.residual.iter().all(|(_, vs)| vs.is_empty()));
        }
    }

    #[test]
    fn quorum_batch_cancels_the_unserved_router_leg() {
        let mut s = Scenario::new("P(a;b[]) = Router(a;b[1..#b])", "P");
        s.replicate = vec![("b".into(), 2)];
        s.steps = vec![Step::Batch {
            ops: vec![
                Op::Send {
                    port: PortRef::Param {
                        name: "a".into(),
                        index: 0,
                    },
                    value: 11,
                },
                Op::Recv {
                    port: PortRef::Param {
                        name: "b".into(),
                        index: 0,
                    },
                },
                Op::Recv {
                    port: PortRef::Param {
                        name: "b".into(),
                        index: 1,
                    },
                },
            ],
            quorum: Some(2),
        }];
        let obs = run_scenario(&s, Mode::jit(), Driver::Polled).unwrap();
        let batch = &obs.results[0];
        assert_eq!(batch[0], OpResult::Sent);
        let received: Vec<&OpResult> = batch[1..]
            .iter()
            .filter(|r| matches!(r, OpResult::Received(_)))
            .collect();
        assert_eq!(received, vec![&OpResult::Received(11)]);
        assert_eq!(
            batch[1..]
                .iter()
                .filter(|r| matches!(r, OpResult::Cancelled))
                .count(),
            1
        );
    }

    #[test]
    fn bad_port_reference_is_a_script_error() {
        let mut s = Scenario::new("P(a;b) = Fifo1(a;b)", "P");
        s.steps = vec![Step::Batch {
            ops: vec![Op::Recv {
                port: PortRef::Param {
                    name: "zzz".into(),
                    index: 0,
                },
            }],
            quorum: None,
        }];
        assert!(matches!(
            run_scenario(&s, Mode::jit(), Driver::Polled),
            Err(ScenarioError::Script(_))
        ));
    }
}
