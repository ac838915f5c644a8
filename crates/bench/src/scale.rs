//! The `scale` harness: engine throughput *under contention*.
//!
//! Fig. 12 measures one connector family per cell with a handful of
//! no-compute tasks; this harness instead sweeps the **task count** and
//! compares three runtimes of [`Mode::grid`] side by side
//! ([`SWEEP_MODES`]) —
//!
//! * `jit` — one engine, one lock, all tasks contending on it;
//! * `part` — one engine per synchronous region, tasks pump the links
//!   bordering their own region after each operation;
//! * `comp-part` — the same regions and scheduler, each region stepped by
//!   a lowered flat program instead of the interpreter.
//!
//! Besides steps/second it records the engine contention counters
//! ([`reo_runtime::EngineStats`]): targeted wakeups, spurious wakeups,
//! completions, lock acquisitions, the batched link-transfer counters
//! (`batch_moves`, `batched_values`) and counted kicks, plus
//! per-operation latency percentiles from the driver
//! ([`reo_connectors::LatencySummary`]). Two baselines anchor the
//! verdicts:
//!
//! * `broadcast_baseline_wakeups` — the wakeups a per-engine broadcast
//!   condvar (the pre-PR 3 design: `notify_all` on every step) would have
//!   issued, estimated as `steps × (task threads − 2)`. Targeted wakeups
//!   must come in strictly below it on the disjoint-port workload
//!   (`channels`).
//! * the **unbatched-protocol baseline** for lock traffic is the seed
//!   measurement [`SEED_BURST_LOCKS_PER_VALUE`]: engine-lock
//!   acquisitions per cross-link value on the deep-backlog `burst`
//!   family under `part`, *before* batched pumping. The batched runtime
//!   must come in strictly below it — that is
//!   [`Verdict::locks_per_value_below_seed`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reo_automata::ProductOptions;
use reo_connectors::driver::drive_with_limits;
use reo_connectors::{burst_family, families, relay_family, Family, RunOutcome};
use reo_exec::Executor;
use reo_runtime::{stepping_run, Connector, Limits, Mode, SteppingMode};

/// The family names swept by default: the disjoint-port rendezvous
/// workload (`channels`), the disjoint-region link workload (`relay` —
/// since the kick-free fast path, also the witness that single-link
/// chains stop kicking), the deep-backlog batched-pumping workload
/// (`burst`), the fifo-ring `sequencer` (every region borders *two*
/// links, so the counted kick cascade stays exercised), three
/// multi-region shapes (`token_ring`, `ordered`, `scatter_gather`), a
/// fifo `pipeline`, and one single-region control (`merger`, where
/// partitioning cannot help).
pub const DEFAULT_FAMILIES: &[&str] = &[
    "channels",
    "relay",
    "burst",
    "sequencer",
    "token_ring",
    "ordered",
    "scatter_gather",
    "pipeline",
    "merger",
];

/// The [`Mode::grid`] names compared per cell (also the report labels).
/// `comp-part` rather than monolithic `comp` (which would explode on the
/// exponential-fanout families), so the column isolates the stepping-core
/// swap with regions and scheduler held fixed.
pub const SWEEP_MODES: &[&str] = &["jit", "part", "comp-part"];

/// Seed (pre-batching, PR 4 tree) engine-lock acquisitions per cross-link
/// value on the `burst` family under `part` — the unbatched
/// four-acquisitions-per-pump protocol.
/// Measured on the single-core container over n ∈ {1, 2, 4, 8, 16} with
/// 0.15 s windows: {22.60, 22.54, 22.49, 22.45, 22.40}; this constant is
/// the sweep's *minimum*, so "strictly below" beats the unbatched
/// protocol at its best. Values are counted as `completions / 4`: each
/// value crossing the burst link completes a producer send, a link-tail
/// delivery, a link-head consumption, and a consumer receive.
pub const SEED_BURST_LOCKS_PER_VALUE: f64 = 22.40;

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Config {
    pub window: Duration,
    /// Task-count sweep (the `N` of each family).
    pub ns: Vec<usize>,
    pub family_filter: Option<Vec<String>>,
    /// Session-count sweep of the async `sessions` family
    /// ([`run_sessions`]). Unlike the task-count sweep, these cells do a
    /// fixed amount of work instead of filling a time window.
    pub session_counts: Vec<usize>,
    /// Initial branch counts of the reconfiguration `churn` family
    /// ([`run_churn`]): producers merging into one sink while branches
    /// join and leave mid-window.
    pub churn_counts: Vec<usize>,
    /// Injections per cell of the fault-recovery `faults` family
    /// ([`run_faults`]): each iteration parks an op, injects one fault,
    /// and times the typed error.
    pub fault_iters: usize,
    pub limits: Limits,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            window: Duration::from_millis(200),
            ns: vec![1, 2, 4, 8, 16],
            family_filter: None,
            session_counts: vec![1_000, 10_000, 100_000],
            churn_counts: vec![2, 8],
            fault_iters: 40,
            limits: Limits {
                product: ProductOptions {
                    max_states: 1 << 16,
                    max_transitions: 1 << 18,
                },
                expansion_budget: 1 << 18,
            },
        }
    }
}

/// One measured cell: one (family, task count, runtime) triple.
#[derive(Clone, Debug)]
pub struct Cell {
    pub family: &'static str,
    pub n: usize,
    /// Report label of the runtime (one of [`SWEEP_MODES`]).
    pub mode: &'static str,
    /// No-compute task threads the driver spawned for this cell.
    pub threads: usize,
    pub outcome: RunOutcome,
    /// Estimated wakeups of the pre-rework broadcast engine for the same
    /// step count: `steps × (threads − 2)` (see module docs).
    pub broadcast_baseline_wakeups: u64,
}

impl Cell {
    pub fn steps_per_sec(&self, window: Duration) -> f64 {
        self.outcome.steps_per_sec(window)
    }

    /// Engine-lock acquisitions per cross-link value, defined only where
    /// the divisor is exact: `burst` cells in the partitioned modes, whose
    /// every value costs exactly four completions (see
    /// [`SEED_BURST_LOCKS_PER_VALUE`]). `None` elsewhere, and for cells
    /// that moved nothing.
    pub fn locks_per_value(&self) -> Option<f64> {
        if self.family != "burst" || self.mode == "jit" {
            return None;
        }
        let stats = self.outcome.stats?;
        let values = stats.completions / 4;
        if values == 0 {
            return None;
        }
        Some(stats.lock_acquisitions as f64 / values as f64)
    }
}

/// Families selected by the configuration (the eighteen of Fig. 12 plus
/// the `relay` and `burst` scale workloads).
pub fn selected_families(config: &Config) -> Vec<Family> {
    let wanted: Vec<String> = match &config.family_filter {
        Some(list) => list.clone(),
        None => DEFAULT_FAMILIES.iter().map(|s| s.to_string()).collect(),
    };
    let mut all = families();
    all.push(relay_family());
    all.push(burst_family());
    all.into_iter()
        .filter(|f| wanted.iter().any(|n| n == f.name))
        .collect()
}

/// Run the whole grid: families × task counts × [`SWEEP_MODES`].
pub fn run(config: &Config, mut progress: impl FnMut(&Cell)) -> Vec<Cell> {
    let mut cells = Vec::new();
    for family in selected_families(config) {
        let program = family.program();
        for &n in &config.ns {
            // Ring/exchange shapes need at least two peers (a one-task
            // sequencer ring deadlocks by construction: its single fifo
            // would have to pop and push in the same instant).
            if n < 2 && matches!(family.name, "exchanger" | "token_ring" | "sequencer") {
                continue;
            }
            for (label, mode) in Mode::grid_subset(SWEEP_MODES) {
                let outcome =
                    drive_with_limits(&program, &family, n, mode, config.window, config.limits);
                let threads = outcome.threads;
                let cell = Cell {
                    family: family.name,
                    n,
                    mode: label,
                    threads,
                    broadcast_baseline_wakeups: outcome.steps * (threads.saturating_sub(2)) as u64,
                    outcome,
                };
                progress(&cell);
                cells.push(cell);
            }
        }
    }
    cells
}

/// The families of the raw-stepping codegen duel (see [`run_codegen`]):
/// every fig12-style family the sweep carries except the two link-heavy
/// scale workloads (`relay`, `burst`), whose behavior is about pumping,
/// not stepping.
pub const CODEGEN_FAMILIES: &[&str] = &[
    "channels",
    "sequencer",
    "token_ring",
    "ordered",
    "scatter_gather",
    "pipeline",
    "merger",
];

/// Instance size of the codegen duel. Small enough that the monolithic
/// product stays well inside the limits on every family, large enough
/// that per-step work is not a single-transition special case.
pub const CODEGEN_N: usize = 4;

/// One codegen duel: the same connector instance stepped flat-out by the
/// interpreting [`reo_runtime::JitCore`](reo_runtime::jit::JitCore) and by
/// the lowered [`reo_runtime::CompiledCore`], single-threaded, boundary
/// saturated — no tasks, no wakeups, no locks (see
/// [`reo_runtime::stepping_run`]). This is the measurement behind the
/// `codegen_beats_jit` verdict: the task-driven sweep above is
/// scheduling-bound on a single hardware thread, so a stepping-core win
/// is invisible there.
///
/// The compared quantity is **completed boundary operations**, not raw
/// firings: the two cores walk the same product but fire different
/// transition mixes (the compiled core's exact candidate tables reach the
/// bigger combined transitions more often), and a combined firing moves
/// several values at once. Operations per second is the
/// granularity-independent throughput of the core.
#[derive(Clone, Debug)]
pub struct CodegenCell {
    pub family: &'static str,
    pub n: usize,
    /// Completed boundary operations of the best jit pass.
    pub jit_ops: u64,
    /// Completed boundary operations of the best compiled pass.
    pub compiled_ops: u64,
}

impl CodegenCell {
    /// Compiled-over-jit speedup; 0 when the jit completed no operations.
    pub fn ratio(&self) -> f64 {
        if self.jit_ops == 0 {
            return 0.0;
        }
        self.compiled_ops as f64 / self.jit_ops as f64
    }
}

/// Measurement passes per mode in one duel. The passes interleave
/// (jit, compiled, jit, compiled, …) and each mode keeps its best pass:
/// on a shared single-core runner, a pass can lose a large slice of its
/// wall-clock window to unrelated load, and best-of interleaved passes
/// cancels that noise symmetrically instead of gating on one unlucky
/// window.
pub const CODEGEN_PASSES: usize = 2;

/// Run the codegen duel over [`CODEGEN_FAMILIES`] (respecting the
/// configured family filter) at [`CODEGEN_N`].
pub fn run_codegen(config: &Config, mut progress: impl FnMut(&CodegenCell)) -> Vec<CodegenCell> {
    let mut cells = Vec::new();
    for family in selected_families(config) {
        if !CODEGEN_FAMILIES.contains(&family.name) {
            continue;
        }
        let program = family.program();
        let sizes = (family.sizes)(CODEGEN_N);
        let ops = |mode: SteppingMode| {
            stepping_run(
                &program,
                family.def,
                &sizes,
                mode,
                config.limits,
                config.window,
            )
            .unwrap_or_else(|e| panic!("{} stepping run failed: {e:?}", family.name))
            .ops
        };
        let mut jit_ops = 0;
        let mut compiled_ops = 0;
        for _ in 0..CODEGEN_PASSES {
            jit_ops = jit_ops.max(ops(SteppingMode::Jit));
            compiled_ops = compiled_ops.max(ops(SteppingMode::Compiled));
        }
        let cell = CodegenCell {
            family: family.name,
            n: CODEGEN_N,
            jit_ops,
            compiled_ops,
        };
        progress(&cell);
        cells.push(cell);
    }
    cells
}

/// The multiple the compiled stepping core must reach over the jit
/// interpreter on every codegen duel for [`Verdict::codegen_beats_jit`].
///
/// 3× until connected-step expansion (`reo_runtime::jit`): the jit then
/// stopped scanning joint steps of independent constituents and got up to
/// 2× faster on the wide families (`scatter_gather`, `pipeline`) while the
/// compiled core stood still, so `scatter_gather` fell to 2.2–2.8× over
/// four runs on the reference host. The floor follows the faster jit
/// rather than holding it back, with room for a noisy runner.
pub const CODEGEN_SPEEDUP_FLOOR: f64 = 1.5;

/// Executor threads of the `sessions` family — the "handful" the async
/// backend must carry 100k+ sessions on.
pub const SESSIONS_THREADS: usize = 4;

/// Values each session moves through its `Fifo1` in the `sessions`
/// family. Small on purpose: the family measures session *concurrency*
/// (opens, parked futures, targeted wakes), not per-channel throughput —
/// the other families cover that.
pub const SESSIONS_VALUES: usize = 2;

/// Ceiling on `waker_wakes / completions` for
/// [`Verdict::async_sessions_scale`]: a waker fires only when its port's
/// pending operation completed, so the engines may wake at most a small
/// constant per completed operation. A broadcast-style async backend
/// (wake every parked future on every step) would blow past this by
/// orders of magnitude at 100k sessions.
pub const SESSIONS_WAKE_PRECISION_CEILING: f64 = 2.0;

/// One cell of the async `sessions` sweep: `sessions` Fifo1 connectors
/// opened concurrently, each driven by an async producer/consumer task
/// pair on a [`SESSIONS_THREADS`]-thread [`Executor`]. Fixed work per
/// cell (every session moves [`SESSIONS_VALUES`] values), so the
/// interesting numbers are the wake counters and the footprint, not a
/// windowed rate.
#[derive(Clone, Debug)]
pub struct SessionsCell {
    /// Concurrently open sessions.
    pub sessions: usize,
    /// Spawned futures: two per session (producer + consumer).
    pub tasks: usize,
    /// Executor worker threads.
    pub threads: usize,
    /// Values moved per session.
    pub values: usize,
    /// Summed engine completions (one send + one recv per value).
    pub completions: u64,
    /// Summed `Waker` wakes — the async counterpart of `wakeups`.
    pub waker_wakes: u64,
    /// Summed condvar wakeups (blocking-side; ~0 in a pure-async sweep).
    pub wakeups: u64,
    /// Summed engine-lock acquisitions.
    pub lock_acquisitions: u64,
    /// Summed global execution steps.
    pub steps: u64,
    /// Wall-clock to open every session (connect + port take).
    pub open_secs: f64,
    /// Wall-clock from first spawn to last join.
    pub drain_secs: f64,
    /// Peak RSS estimate per open session in KiB (`/proc/self/statm`
    /// deltas; `None` off-Linux or when allocator reuse hides the delta).
    pub rss_per_session_kib: Option<f64>,
    pub failure: Option<String>,
}

impl SessionsCell {
    /// `waker_wakes / completions` — gated against
    /// [`SESSIONS_WAKE_PRECISION_CEILING`].
    pub fn wake_precision(&self) -> f64 {
        self.waker_wakes as f64 / (self.completions.max(1)) as f64
    }

    /// End-to-end values per second of the drain phase.
    pub fn values_per_sec(&self) -> f64 {
        if self.drain_secs <= 0.0 {
            return 0.0;
        }
        (self.sessions * self.values) as f64 / self.drain_secs
    }
}

/// Resident set size in KiB via `/proc/self/statm`, `None` off-Linux.
fn rss_kib() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

/// Run the async `sessions` sweep over `config.session_counts`.
///
/// Each cell compiles one `Fifo1` connector (once, shared), opens `n`
/// sessions up front, then spawns an async producer and consumer per
/// session onto a fresh [`SESSIONS_THREADS`]-thread executor and joins
/// them all. A watchdog closes every connector if a cell stalls past its
/// deadline, so a lost wake degrades into a recorded failure instead of
/// hanging the harness.
pub fn run_sessions(config: &Config, mut progress: impl FnMut(&SessionsCell)) -> Vec<SessionsCell> {
    let program =
        reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").expect("sessions family program parses");
    let connector = Connector::builder(&program, "Buf")
        .mode(Mode::jit())
        .build()
        .expect("sessions family connector builds");

    let mut cells = Vec::new();
    for &n in &config.session_counts {
        let values = SESSIONS_VALUES;
        let rss0 = rss_kib();

        // Open the whole fleet before any value moves.
        let t_open = Instant::now();
        let mut handles = Vec::with_capacity(n);
        let mut ports = Vec::with_capacity(n);
        let mut open_failure = None;
        for _ in 0..n {
            match connector.session().connect() {
                Ok(mut s) => {
                    let tx = s.typed_outport::<i64>("a").expect("port a");
                    let rx = s.typed_inport::<i64>("b").expect("port b");
                    handles.push(s.handle());
                    ports.push((tx, rx));
                }
                Err(e) => {
                    open_failure = Some(format!("connect failed: {e:?}"));
                    break;
                }
            }
        }
        let open_secs = t_open.elapsed().as_secs_f64();
        let rss_open = rss_kib();

        // Drive it: two tasks per session. Errors (a watchdog close) end
        // the task; value loss is caught by the received count below.
        let exec = Executor::new(SESSIONS_THREADS);
        let received = Arc::new(AtomicU64::new(0));
        let misordered = Arc::new(AtomicBool::new(false));
        let t_drain = Instant::now();
        let mut joins = Vec::with_capacity(2 * ports.len());
        for (tx, rx) in ports {
            joins.push(exec.spawn(async move {
                for v in 0..values as i64 {
                    if tx.send_async(v).await.is_err() {
                        return;
                    }
                }
            }));
            let received = Arc::clone(&received);
            let misordered = Arc::clone(&misordered);
            joins.push(exec.spawn(async move {
                for v in 0..values as i64 {
                    match rx.recv_async().await {
                        Ok(got) => {
                            if got != v {
                                misordered.store(true, Ordering::Relaxed);
                            }
                            received.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => return,
                    }
                }
            }));
        }

        // Watchdog: a stalled cell (lost wake, stuck session) is closed
        // out and recorded as a failure rather than hanging the sweep.
        let done = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let done = Arc::clone(&done);
            let handles = handles.clone();
            let deadline = Instant::now() + Duration::from_secs(30 + n as u64 / 500);
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if Instant::now() >= deadline {
                        for h in &handles {
                            h.close();
                        }
                        return true;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                false
            })
        };
        for j in joins {
            j.join().expect("session task panicked");
        }
        let drain_secs = t_drain.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let timed_out = watchdog.join().expect("watchdog thread");
        let rss_drained = rss_kib();

        let expected = (n * values) as u64;
        let got = received.load(Ordering::SeqCst);
        let failure = if let Some(f) = open_failure {
            Some(f)
        } else if timed_out {
            Some(format!("stalled: {got}/{expected} values after deadline"))
        } else if got != expected {
            Some(format!("lost values: received {got}, expected {expected}"))
        } else if misordered.load(Ordering::SeqCst) {
            Some("a session observed its stream out of order".into())
        } else {
            None
        };

        let (mut completions, mut waker_wakes, mut wakeups) = (0u64, 0u64, 0u64);
        let (mut lock_acquisitions, mut steps) = (0u64, 0u64);
        for h in &handles {
            let st = h.stats();
            completions += st.completions;
            waker_wakes += st.waker_wakes;
            wakeups += st.wakeups;
            lock_acquisitions += st.lock_acquisitions;
            steps += h.steps();
        }

        // Peak of the two samples minus the pre-open floor; allocator
        // reuse across cells can swallow the delta, hence the `None` arm.
        let rss_per_session_kib = match (rss0, rss_open, rss_drained) {
            (Some(a), Some(b), Some(c)) if b.max(c) > a && n > 0 => {
                Some((b.max(c) - a) as f64 / n as f64)
            }
            _ => None,
        };

        let cell = SessionsCell {
            sessions: n,
            tasks: 2 * n,
            threads: SESSIONS_THREADS,
            values,
            completions,
            waker_wakes,
            wakeups,
            lock_acquisitions,
            steps,
            open_secs,
            drain_secs,
            rss_per_session_kib,
            failure,
        };
        progress(&cell);
        cells.push(cell);
    }
    cells
}

/// The connector of the reconfiguration `churn` family: one `Fifo1` per
/// producer branch feeding a variadic stateless `Merger`. The buffered
/// branches let producers run ahead of the sink by one value each, and
/// the merger is the *variable-shape* constituent every splice reshapes.
pub const CHURN_SRC: &str =
    "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)";

/// One cell of the reconfiguration `churn` sweep: `n` initial producer
/// branches merging into one sink for a fixed window while the harness
/// thread attaches a fresh branch, pushes one value through it, and
/// detaches it again, as fast as the splice path allows. Fixed window,
/// so splices and values are both rates; the correctness claim is
/// *exactly-once across churn* — every accepted value reaches the sink
/// exactly once, with every join/leave counted by the session epoch.
#[derive(Clone, Debug)]
pub struct ChurnCell {
    /// Initial (static) producer branches.
    pub n: usize,
    /// Report label of the runtime (one of [`SWEEP_MODES`]).
    pub mode: &'static str,
    /// Successful splices — the final session epoch (attach + detach
    /// each count one).
    pub splices: u64,
    /// Values accepted by producer branches (static and churned).
    pub values: u64,
    /// Values that reached the sink; equals `values` on a clean run.
    pub received: u64,
    /// Wall-clock of the churn window in seconds.
    pub window_secs: f64,
    pub failure: Option<String>,
}

impl ChurnCell {
    /// Splices per second of the churn window.
    pub fn splices_per_sec(&self) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        self.splices as f64 / self.window_secs
    }

    /// End-to-end values per second of the churn window.
    pub fn values_per_sec(&self) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        self.received as f64 / self.window_secs
    }
}

/// Run the reconfiguration `churn` sweep over `config.churn_counts` ×
/// [`SWEEP_MODES`].
///
/// Each cell connects [`CHURN_SRC`] with `n` branches as a
/// *reconfigurable* session, spawns one producer thread per static
/// branch (non-blocking sends, counted on acceptance) and one sink
/// consumer, then spends the window on the harness thread churning:
/// attach a branch, push one value through it, detach. After the window,
/// producers stop, the sink drains to parity, and the cell records a
/// failure unless every accepted value arrived exactly once and the
/// epoch equals the number of successful splices.
pub fn run_churn(config: &Config, mut progress: impl FnMut(&ChurnCell)) -> Vec<ChurnCell> {
    let program = reo_dsl::parse_program(CHURN_SRC).expect("churn family program parses");
    let mut cells = Vec::new();
    for &n in &config.churn_counts {
        for (label, mode) in Mode::grid_subset(SWEEP_MODES) {
            let connector = match Connector::builder(&program, "M")
                .mode(mode)
                .limits(config.limits)
                .build()
            {
                Ok(c) => c,
                Err(e) => {
                    let cell = ChurnCell {
                        n,
                        mode: label,
                        splices: 0,
                        values: 0,
                        received: 0,
                        window_secs: 0.0,
                        failure: Some(format!("build failed: {e}")),
                    };
                    progress(&cell);
                    cells.push(cell);
                    continue;
                }
            };
            let cell = churn_cell(&connector, n, label, config.window);
            progress(&cell);
            cells.push(cell);
        }
    }
    cells
}

fn churn_cell(connector: &Connector, n: usize, label: &'static str, window: Duration) -> ChurnCell {
    use reo_automata::Value;
    use std::collections::HashSet;

    let fail = |msg: String| ChurnCell {
        n,
        mode: label,
        splices: 0,
        values: 0,
        received: 0,
        window_secs: 0.0,
        failure: Some(msg),
    };

    let mut session = match connector
        .session()
        .replicate("src", n)
        .reconfigurable()
        .connect()
    {
        Ok(s) => s,
        Err(e) => return fail(format!("connect failed: {e}")),
    };
    let handle = session.handle();
    let txs = session.outports("src").expect("src ports");
    let rx = session.typed_inport::<i64>("c").expect("sink port");

    // Static producers: non-blocking sends so a closing engine can never
    // wedge a thread mid-send; only *accepted* values count.
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let mut producers = Vec::new();
    for (p, tx) in txs.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&sent);
        producers.push(std::thread::spawn(move || {
            let mut k = 0i64;
            while !stop.load(Ordering::Relaxed) {
                match tx.try_send(Value::Int(p as i64 * 1_000_000 + k)) {
                    Ok(true) => {
                        k += 1;
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) => std::thread::yield_now(),
                    Err(_) => break,
                }
            }
        }));
    }

    // Sink: tally and dedup until the engine closes.
    let received = Arc::new(AtomicU64::new(0));
    let duplicated = Arc::new(AtomicBool::new(false));
    let consumer = {
        let received = Arc::clone(&received);
        let duplicated = Arc::clone(&duplicated);
        std::thread::spawn(move || {
            let mut seen = HashSet::new();
            while let Ok(v) = rx.recv() {
                if !seen.insert(v) {
                    duplicated.store(true, Ordering::Relaxed);
                }
                received.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // The churn loop: join, push one value through the new branch, leave.
    let t0 = Instant::now();
    let deadline = t0 + window;
    let mut churn_failure = None;
    let mut j = 0i64;
    while Instant::now() < deadline {
        let mut branch = match handle.attach("src") {
            Ok(b) => b,
            Err(e) => {
                churn_failure = Some(format!("attach failed: {e}"));
                break;
            }
        };
        let tx = branch.outport().expect("fresh branch outport");
        loop {
            match tx.try_send(Value::Int(900_000_000 + j)) {
                Ok(true) => {
                    j += 1;
                    sent.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Ok(false) => std::thread::yield_now(),
                Err(e) => {
                    churn_failure = Some(format!("churn send failed: {e}"));
                    break;
                }
            }
        }
        drop(tx);
        if let Err(e) = branch.detach() {
            churn_failure = Some(format!("detach failed: {e}"));
            break;
        }
        if churn_failure.is_some() {
            break;
        }
    }
    let window_secs = t0.elapsed().as_secs_f64();
    let splices = handle.epoch();

    // Stop the producers, let the sink drain to parity, then close.
    stop.store(true, Ordering::SeqCst);
    for p in producers {
        let _ = p.join();
    }
    let total_sent = sent.load(Ordering::SeqCst);
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while received.load(Ordering::SeqCst) < total_sent && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.close();
    let _ = consumer.join();

    let got = received.load(Ordering::SeqCst);
    let failure = if let Some(f) = churn_failure {
        Some(f)
    } else if got != total_sent {
        Some(format!(
            "lost values: received {got}, accepted {total_sent}"
        ))
    } else if duplicated.load(Ordering::SeqCst) {
        Some("a value was delivered twice".into())
    } else if splices < 2 {
        Some(format!(
            "no full churn cycle completed ({splices} splice(s))"
        ))
    } else {
        None
    };

    ChurnCell {
        n,
        mode: label,
        splices,
        values: total_sent,
        received: got,
        window_secs,
        failure,
    }
}

/// The fault kinds injected by the fault-recovery `faults` family: drop
/// the producer port of a parked receive (hangup-on-drop), panic inside
/// the next firing (panic containment), poison the session directly, and
/// close it from under the op.
pub const FAULT_KINDS: &[&str] = &["drop", "panic", "poison", "close"];

/// Ceiling on the p99 time from fault injection to the parked op's typed
/// error, in microseconds, for [`Verdict::fault_recovery_bounded`]. The
/// wake itself is a condvar notify (microseconds); the quarter-second
/// ceiling leaves room for scheduler hiccups on loaded CI machines while
/// still being ~20× under the bound a stranded op burns.
pub const FAULT_RECOVERY_P99_CEILING_US: f64 = 250_000.0;

/// How long a parked op may wait before the harness declares it
/// *stranded* — a fault that failed to produce any resolution at all.
const FAULT_STRANDED_BOUND: Duration = Duration::from_secs(5);

/// One cell of the fault-recovery `faults` sweep: [`Config::fault_iters`]
/// injections of one fault kind under one runtime, each timed from the
/// injection to the moment the parked operation resolved with the typed
/// error that fault promises (`Hangup`, `Poisoned`, or `Closed`).
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// One of [`FAULT_KINDS`].
    pub kind: &'static str,
    /// Report label of the runtime (one of [`SWEEP_MODES`]).
    pub mode: &'static str,
    /// Injections performed.
    pub iters: usize,
    /// Injections that resolved with the expected typed error.
    pub typed_errors: u64,
    /// Injections whose parked op was still unresolved after the stranded
    /// bound (`FAULT_STRANDED_BOUND`) — must be zero on a healthy runtime.
    pub stranded: u64,
    /// Median time-to-typed-error in microseconds.
    pub p50_us: f64,
    /// 99th-percentile time-to-typed-error in microseconds.
    pub p99_us: f64,
    pub failure: Option<String>,
}

/// Run the fault-recovery sweep: [`FAULT_KINDS`] × [`SWEEP_MODES`].
///
/// Each iteration opens a fresh `Fifo1` session, parks a deadline-bounded
/// receive on the empty buffer, injects the cell's fault, and measures
/// the wall-clock until the receive resolves. The receive can *only*
/// resolve through the fault's containment path — nothing is ever
/// delivered to it — so the elapsed time is exactly the runtime's
/// time-to-typed-error, and a deadline expiry is a stranded op.
pub fn run_faults(config: &Config, mut progress: impl FnMut(&FaultCell)) -> Vec<FaultCell> {
    let program = reo_dsl::parse_program("P(a;b) = Fifo1(a;b)").expect("faults family parses");
    let mut cells = Vec::new();
    // The `panic` kind injects a panic per iteration by design; silence
    // the default hook so contained backtraces don't bury the report.
    std::panic::set_hook(Box::new(|_| {}));
    for &kind in FAULT_KINDS {
        for (label, mode) in Mode::grid_subset(SWEEP_MODES) {
            let connector = match Connector::builder(&program, "P")
                .mode(mode)
                .limits(config.limits)
                .build()
            {
                Ok(c) => c,
                Err(e) => {
                    let cell = FaultCell {
                        kind,
                        mode: label,
                        iters: 0,
                        typed_errors: 0,
                        stranded: 0,
                        p50_us: 0.0,
                        p99_us: 0.0,
                        failure: Some(format!("build failed: {e}")),
                    };
                    progress(&cell);
                    cells.push(cell);
                    continue;
                }
            };
            let cell = fault_cell(&connector, kind, label, config.fault_iters);
            progress(&cell);
            cells.push(cell);
        }
    }
    let _ = std::panic::take_hook();
    cells
}

fn fault_cell(
    connector: &Connector,
    kind: &'static str,
    label: &'static str,
    iters: usize,
) -> FaultCell {
    use reo_runtime::RuntimeError;

    let mut elapsed_us: Vec<f64> = Vec::with_capacity(iters);
    let mut typed_errors = 0u64;
    let mut stranded = 0u64;
    let mut failure: Option<String> = None;
    for _ in 0..iters {
        let mut session = match connector.session().connect() {
            Ok(s) => s,
            Err(e) => {
                failure = Some(format!("connect failed: {e}"));
                break;
            }
        };
        let tx = session.typed_outport::<i64>("a").expect("producer port");
        let rx = session.typed_inport::<i64>("b").expect("consumer port");
        let handle = session.handle();

        // Park the victim: a bounded receive on an empty fifo. Nothing
        // will ever serve it; only the injected fault can resolve it.
        let waiter = std::thread::spawn(move || {
            let r = rx.recv_timeout(FAULT_STRANDED_BOUND);
            (r, Instant::now())
        });
        // Let the receive actually park before injecting.
        std::thread::sleep(Duration::from_millis(1));

        let t0 = Instant::now();
        let mut tx = Some(tx);
        match kind {
            "drop" => drop(tx.take()),
            "panic" => {
                // The very next firing of *this session* panics inside
                // the engine; the send that triggers it resolves
                // `Poisoned` itself.
                handle.arm_panic_after_steps(0);
                let _ = tx.as_ref().expect("tx live").try_send(1);
            }
            "poison" => handle.poison("bench: scripted poison"),
            "close" => handle.close(),
            other => unreachable!("unknown fault kind {other}"),
        }
        let (result, t_done) = waiter.join().expect("victim thread never panics");
        handle.close();

        let expected = matches!(
            (&result, kind),
            (Err(RuntimeError::Hangup(_)), "drop")
                | (Err(RuntimeError::Poisoned(_)), "panic" | "poison")
                | (Err(RuntimeError::Closed), "close")
        );
        if expected {
            typed_errors += 1;
            elapsed_us.push(t_done.saturating_duration_since(t0).as_secs_f64() * 1e6);
        } else if matches!(result, Err(RuntimeError::Timeout)) {
            stranded += 1;
        } else if failure.is_none() {
            failure = Some(format!("{kind} fault resolved as {result:?}"));
        }
    }

    elapsed_us.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let pct = |p: f64| -> f64 {
        if elapsed_us.is_empty() {
            return 0.0;
        }
        let ix = ((elapsed_us.len() as f64 * p).ceil() as usize).clamp(1, elapsed_us.len()) - 1;
        elapsed_us[ix]
    };
    if failure.is_none() && stranded > 0 {
        failure = Some(format!("{stranded} stranded op(s)"));
    }
    FaultCell {
        kind,
        mode: label,
        iters,
        typed_errors,
        stranded,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        failure,
    }
}

/// The acceptance checks the scale sweep exists to witness, evaluated on a
/// finished grid (also asserted by `tests/mode_equivalence.rs` at a
/// smaller scale):
///
/// 1. on the disjoint-port workload, targeted wakeups stay strictly below
///    the broadcast baseline wherever that baseline is non-trivial;
/// 2. on every `part` `burst` cell with real traffic, engine-lock
///    acquisitions per moved value stay strictly below the
///    unbatched-protocol seed measurement
///    ([`SEED_BURST_LOCKS_PER_VALUE`]);
/// 3. on every codegen duel, the lowered stepping program completes at
///    least [`CODEGEN_SPEEDUP_FLOOR`]× the boundary operations of the jit
///    interpreter;
/// 4. every async `sessions` cell completes all its values with wake
///    precision `waker_wakes / completions` at most
///    [`SESSIONS_WAKE_PRECISION_CEILING`];
/// 5. every reconfiguration `churn` cell survives its window of
///    join/leave splices with exactly-once delivery and an epoch equal
///    to the splice count;
/// 6. every fault-recovery `faults` cell resolves every injected fault
///    with the expected typed error — zero stranded ops — and its p99
///    time-to-typed-error stays under
///    [`FAULT_RECOVERY_P99_CEILING_US`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Check 1, over every `channels` cell with `threads > 2` and
    /// `steps > 0`.
    pub wakeups_below_broadcast: bool,
    /// Check 2, over every `burst`/`part` cell with `completions > 400`
    /// (≥ 100 moved values).
    pub locks_per_value_below_seed: bool,
    /// Check 3, over every [`CodegenCell`]; false when none ran.
    pub codegen_beats_jit: bool,
    /// Check 4, over every [`SessionsCell`]; false when none ran.
    pub async_sessions_scale: bool,
    /// Check 5, over every [`ChurnCell`]; false when none ran.
    pub reconfig_churn_scale: bool,
    /// Check 6, over every [`FaultCell`]; false when none ran.
    pub fault_recovery_bounded: bool,
}

pub fn verdict(
    cells: &[Cell],
    codegen: &[CodegenCell],
    sessions: &[SessionsCell],
    churn: &[ChurnCell],
    faults: &[FaultCell],
) -> Verdict {
    let disjoint: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.family == "channels" && c.threads > 2 && c.outcome.steps > 0)
        .collect();
    let wakeups_below_broadcast = !disjoint.is_empty()
        && disjoint.iter().all(|c| {
            c.outcome
                .stats
                .map(|s| s.wakeups < c.broadcast_baseline_wakeups)
                .unwrap_or(false)
        });

    // Check 2: batched pumping must beat the unbatched protocol's lock
    // traffic on the deep-backlog workload, mode against like mode.
    let burst_caller: Vec<&Cell> = cells
        .iter()
        .filter(|c| {
            c.family == "burst"
                && c.mode == "part"
                && c.outcome.failure.is_none()
                && c.outcome.stats.is_some_and(|s| s.completions > 400)
        })
        .collect();
    let locks_per_value_below_seed = !burst_caller.is_empty()
        && burst_caller.iter().all(|c| {
            c.locks_per_value()
                .is_some_and(|l| l < SEED_BURST_LOCKS_PER_VALUE)
        });

    // Check 3: the compiled stepping core must beat the interpreter by
    // the floor multiple on every duel that ran.
    let codegen_beats_jit =
        !codegen.is_empty() && codegen.iter().all(|c| c.ratio() >= CODEGEN_SPEEDUP_FLOOR);

    // Check 4: every async sessions cell delivered every value and the
    // engines woke futures with per-completion precision.
    let async_sessions_scale = !sessions.is_empty()
        && sessions.iter().all(|c| {
            c.failure.is_none()
                && c.completions > 0
                && c.wake_precision() <= SESSIONS_WAKE_PRECISION_CEILING
        });

    // Check 5: every churn cell must finish its window clean — its
    // `failure` already folds in exactly-once accounting and a minimum
    // of one full join/leave cycle; the epoch/splice identity is
    // restated here so a miscounting epoch cannot hide behind a clean
    // delivery tally.
    let reconfig_churn_scale = !churn.is_empty()
        && churn.iter().all(|c| {
            c.failure.is_none() && c.splices >= 2 && c.values > 0 && c.received == c.values
        });

    // Check 6: every injected fault produced its promised typed error
    // (no stranded ops, no misclassified resolutions) and the p99
    // injection-to-error latency is bounded.
    let fault_recovery_bounded = !faults.is_empty()
        && faults.iter().all(|c| {
            c.failure.is_none()
                && c.stranded == 0
                && c.typed_errors == c.iters as u64
                && c.p99_us <= FAULT_RECOVERY_P99_CEILING_US
        });

    Verdict {
        wakeups_below_broadcast,
        locks_per_value_below_seed,
        codegen_beats_jit,
        async_sessions_scale,
        reconfig_churn_scale,
        fault_recovery_bounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_produces_every_sweep_mode_and_stats() {
        let config = Config {
            window: Duration::from_millis(50),
            ns: vec![2],
            family_filter: Some(vec!["channels".into()]),
            ..Config::default()
        };
        let cells = run(&config, |_| {});
        assert_eq!(
            cells.iter().map(|c| c.mode).collect::<Vec<_>>(),
            SWEEP_MODES,
            "every sweep mode must name a Mode::grid() entry"
        );
        for c in &cells {
            assert!(c.outcome.failure.is_none(), "{}: {:?}", c.mode, c.outcome);
            assert!(c.outcome.steps > 0, "{} made no progress", c.mode);
            let stats = c.outcome.stats.expect("driver records stats");
            assert!(stats.lock_acquisitions > 0);
            assert_eq!(c.threads, 4);
            let lat = c.outcome.latency.expect("driver records latency");
            assert!(lat.ops > 0 && lat.p50_us <= lat.p99_us);
        }
    }

    #[test]
    fn disjoint_workload_beats_broadcast_baseline_in_miniature() {
        // Even a small contended sweep must show targeted wakeups below
        // what broadcast would have issued.
        let config = Config {
            window: Duration::from_millis(120),
            ns: vec![4],
            family_filter: Some(vec!["channels".into()]),
            ..Config::default()
        };
        let cells = run(&config, |_| {});
        let v = verdict(&cells, &[], &[], &[], &[]);
        assert!(
            v.wakeups_below_broadcast,
            "targeted wakeups not below broadcast baseline: {:?}",
            cells
                .iter()
                .map(|c| (c.mode, c.outcome.stats, c.broadcast_baseline_wakeups))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn relay_workload_is_kick_free_in_miniature() {
        // Every relay region borders exactly one link: the kick-free fast
        // path must keep the kick counter at zero in every partitioned
        // mode while traces still flow (steps > 0 checked per cell).
        let config = Config {
            window: Duration::from_millis(120),
            ns: vec![4],
            family_filter: Some(vec!["relay".into()]),
            ..Config::default()
        };
        let cells = run(&config, |_| {});
        for c in cells.iter().filter(|c| c.mode != "jit") {
            assert!(c.outcome.failure.is_none(), "{}: {:?}", c.mode, c.outcome);
            assert!(c.outcome.steps > 0, "{} made no progress", c.mode);
            let stats = c.outcome.stats.expect("stats recorded");
            assert_eq!(
                stats.kicks, 0,
                "{}: single-link chains must not kick: {stats:?}",
                c.mode
            );
            assert!(
                stats.batched_values > 0,
                "{}: values must cross via batched transfers: {stats:?}",
                c.mode
            );
        }
    }

    #[test]
    fn codegen_duel_runs_and_compiled_leads_in_miniature() {
        // One family, short window: both cores must make real progress
        // and the lowered program must already be ahead of the
        // interpreter (the full-window BENCH run enforces the floor).
        let config = Config {
            window: Duration::from_millis(60),
            family_filter: Some(vec!["pipeline".into()]),
            ..Config::default()
        };
        let codegen = run_codegen(&config, |_| {});
        assert_eq!(codegen.len(), 1);
        let c = &codegen[0];
        assert!(c.jit_ops > 0, "jit completed no operations: {c:?}");
        assert!(
            c.compiled_ops > 0,
            "compiled completed no operations: {c:?}"
        );
        assert!(
            c.ratio() > 1.0,
            "lowered stepping not ahead of the interpreter: {c:?}"
        );
        // The verdict is false on an empty duel set (nothing witnessed).
        assert!(!verdict(&[], &[], &[], &[], &[]).codegen_beats_jit);
    }

    #[test]
    fn sessions_sweep_completes_with_precise_wakes_in_miniature() {
        // A small fleet must deliver every value, keep the wake count
        // within the precision ceiling, and satisfy the sessions verdict.
        let config = Config {
            session_counts: vec![64],
            ..Config::default()
        };
        let cells = run_sessions(&config, |_| {});
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert!(c.failure.is_none(), "{c:?}");
        assert_eq!(c.sessions, 64);
        assert_eq!(c.tasks, 128);
        assert_eq!(c.threads, SESSIONS_THREADS);
        assert_eq!(
            c.completions,
            2 * 64 * SESSIONS_VALUES as u64,
            "every value completes one send and one recv: {c:?}"
        );
        assert!(
            c.wake_precision() <= SESSIONS_WAKE_PRECISION_CEILING,
            "waker storm in miniature: {c:?}"
        );
        assert!(verdict(&[], &[], &cells, &[], &[]).async_sessions_scale);
        // No sessions run → nothing witnessed → verdict false.
        assert!(!verdict(&[], &[], &[], &[], &[]).async_sessions_scale);
    }

    #[test]
    fn churn_sweep_survives_join_leave_in_miniature() {
        // A short window across the sweep modes: every cell must
        // complete at least one join/leave cycle with exactly-once
        // delivery, satisfying the churn verdict.
        let config = Config {
            window: Duration::from_millis(60),
            churn_counts: vec![2],
            ..Config::default()
        };
        let cells = run_churn(&config, |_| {});
        assert_eq!(
            cells.len(),
            SWEEP_MODES.len(),
            "one churn cell per runtime mode"
        );
        for c in &cells {
            assert!(c.failure.is_none(), "{}: {:?}", c.mode, c);
            assert!(c.splices >= 2, "{}: no full churn cycle: {c:?}", c.mode);
            assert_eq!(
                c.received, c.values,
                "{}: loss or duplication: {c:?}",
                c.mode
            );
        }
        assert!(verdict(&[], &[], &[], &cells, &[]).reconfig_churn_scale);
        // No churn cells run → nothing witnessed → verdict false.
        assert!(!verdict(&[], &[], &[], &[], &[]).reconfig_churn_scale);
    }

    #[test]
    fn fault_sweep_resolves_typed_errors_in_miniature() {
        // A few injections per (kind, mode) cell: every parked receive
        // must resolve to the expected typed error within the stranded
        // bound, satisfying the fault verdict.
        let config = Config {
            fault_iters: 3,
            ..Config::default()
        };
        let cells = run_faults(&config, |_| {});
        assert_eq!(
            cells.len(),
            FAULT_KINDS.len() * SWEEP_MODES.len(),
            "one cell per fault kind per runtime mode"
        );
        for c in &cells {
            assert!(c.failure.is_none(), "{}/{}: {:?}", c.kind, c.mode, c);
            assert_eq!(c.stranded, 0, "{}/{}: stranded ops: {c:?}", c.kind, c.mode);
            assert_eq!(
                c.typed_errors, c.iters as u64,
                "{}/{}: untyped resolution: {c:?}",
                c.kind, c.mode
            );
        }
        assert!(verdict(&[], &[], &[], &[], &cells).fault_recovery_bounded);
        // No fault cells run → nothing witnessed → verdict false.
        assert!(!verdict(&[], &[], &[], &[], &[]).fault_recovery_bounded);
    }

    #[test]
    fn burst_workload_beats_unbatched_lock_baseline_in_miniature() {
        // The deep-backlog workload: engine-lock acquisitions per moved
        // value must come in strictly below the unbatched seed protocol,
        // and batches must actually amortize (> 1 value per transfer).
        let config = Config {
            window: Duration::from_millis(150),
            ns: vec![8],
            family_filter: Some(vec!["burst".into()]),
            ..Config::default()
        };
        let cells = run(&config, |_| {});
        let v = verdict(&cells, &[], &[], &[], &[]);
        assert!(
            v.locks_per_value_below_seed,
            "locks per value not below the unbatched baseline {}: {:?}",
            SEED_BURST_LOCKS_PER_VALUE,
            cells
                .iter()
                .map(|c| (c.mode, c.locks_per_value(), c.outcome.stats))
                .collect::<Vec<_>>()
        );
        // Batch sizes above 1 are a concurrency phenomenon (ops pile up
        // while another thread holds the link), so a single-core sweep
        // only guarantees the counters move; the deterministic >1 cases
        // live in the partition unit tests.
        let caller = cells
            .iter()
            .find(|c| c.mode == "part")
            .expect("partitioned cell present");
        let stats = caller.outcome.stats.expect("stats recorded");
        assert!(stats.batch_moves > 0, "no batched transfer ran: {stats:?}");
        assert!(
            stats.batched_values >= stats.batch_moves,
            "each counted transfer moved at least one value: {stats:?}"
        );
    }
}
