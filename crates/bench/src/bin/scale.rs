//! The scalability sweep: engine throughput under task contention.
//!
//! ```text
//! cargo run --release -p reo-bench --bin scale -- \
//!     [--secs 0.2] [--ns 1,2,4,8,16] [--families channels,relay,…] \
//!     [--session-ns 1000,10000,100000] [--json [BENCH_scale.json]]
//! ```
//!
//! For every family × task count, the connector is driven by no-compute
//! tasks for a fixed window under three runtimes of `Mode::grid()` (`jit`,
//! `part`, `comp-part`); the report records steps/second, the engine
//! contention counters (targeted wakeups vs the broadcast baseline,
//! spurious wakeups, lock acquisitions), counted kicks and per-op latency
//! percentiles. With `--json` the
//! grid is written as `BENCH_scale.json` (schema in `reo_bench::json`);
//! the report header records `available_parallelism` so readers can tell
//! algorithmic wins from parallel ones.

use std::fmt::Write as _;
use std::time::Duration;

use reo_bench::json::{json_opt_str, json_path, json_str};
use reo_bench::scale::{
    run, run_churn, run_codegen, run_faults, run_sessions, verdict, Cell, ChurnCell, CodegenCell,
    Config, FaultCell, SessionsCell,
};
use reo_bench::Args;

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args = Args::from_env();
    let mut config = Config {
        window: Duration::from_secs_f64(args.f64("secs", 0.2)),
        ns: args.usize_list("ns", &[1, 2, 4, 8, 16]),
        session_counts: args.usize_list("session-ns", &[1_000, 10_000, 100_000]),
        churn_counts: args.usize_list("churn-ns", &[2, 8]),
        fault_iters: args.usize("fault-iters", 40),
        ..Config::default()
    };
    if args.get("families").is_some() {
        config.family_filter = Some(args.list("families", &[]));
    }

    println!(
        "Scale sweep: {:.2}s window per cell, tasks N in {:?}, modes {:?} \
         ({} core(s) available)",
        config.window.as_secs_f64(),
        config.ns,
        reo_bench::scale::SWEEP_MODES,
        available_parallelism()
    );
    println!(
        "{:<16}{:>4}  {:<20}{:>8}  {:>12}  {:>10}  {:>10}  {:>8}  {:>8}  {:>8}  {:>9}",
        "connector",
        "N",
        "mode",
        "threads",
        "steps/s",
        "wakeups",
        "bcast-est",
        "kicks",
        "b-moves",
        "b-vals",
        "p99-us"
    );

    let window = config.window;
    let cells = run(&config, |cell| {
        let stats = match &cell.outcome.failure {
            Some(f) => {
                println!(
                    "{:<16}{:>4}  {:<20}{:>8}  FAIL: {}",
                    cell.family,
                    cell.n,
                    cell.mode,
                    cell.threads,
                    f.lines().next().unwrap_or("?")
                );
                return;
            }
            None => cell.outcome.stats.expect("successful runs carry stats"),
        };
        let p99 = cell
            .outcome
            .latency
            .map(|l| format!("{:.1}", l.p99_us))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<16}{:>4}  {:<20}{:>8}  {:>12.0}  {:>10}  {:>10}  {:>8}  {:>8}  {:>8}  {:>9}",
            cell.family,
            cell.n,
            cell.mode,
            cell.threads,
            cell.steps_per_sec(window),
            stats.wakeups,
            cell.broadcast_baseline_wakeups,
            stats.kicks,
            stats.batch_moves,
            stats.batched_values,
            p99
        );
    });

    // The codegen duel: raw single-threaded stepping, jit interpreter vs
    // the lowered flat programs, boundary saturated (no tasks, so the
    // task-count sweep above cannot hide a stepping-core win behind
    // scheduling costs). The compared quantity is completed boundary
    // operations (values moved), best of the interleaved passes per mode.
    println!(
        "\nCodegen duel (raw stepping, N={}, best of {} x {:.2}s windows per core):",
        reo_bench::scale::CODEGEN_N,
        reo_bench::scale::CODEGEN_PASSES,
        window.as_secs_f64()
    );
    println!(
        "{:<16}{:>14}  {:>14}  {:>7}",
        "connector", "jit ops/s", "compiled ops/s", "ratio"
    );
    let codegen = run_codegen(&config, |c| {
        println!(
            "{:<16}{:>14.0}  {:>14.0}  {:>6.2}x",
            c.family,
            c.jit_ops as f64 / window.as_secs_f64(),
            c.compiled_ops as f64 / window.as_secs_f64(),
            c.ratio()
        );
    });

    // The async sessions sweep: fixed work, executor-driven, measuring
    // session concurrency and wake precision instead of a windowed rate.
    println!(
        "\nAsync sessions sweep ({} executor threads, {} values per session):",
        reo_bench::scale::SESSIONS_THREADS,
        reo_bench::scale::SESSIONS_VALUES
    );
    println!(
        "{:>9}  {:>8}  {:>8}  {:>10}  {:>11}  {:>11}  {:>10}  {:>9}",
        "sessions", "tasks", "open-s", "drain-s", "values/s", "waker-wakes", "precision", "rss-KiB"
    );
    let sessions = run_sessions(&config, |c| {
        if let Some(f) = &c.failure {
            println!("{:>9}  {:>8}  FAIL: {f}", c.sessions, c.tasks);
            return;
        }
        let rss = c
            .rss_per_session_kib
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>9}  {:>8}  {:>8.2}  {:>10.2}  {:>11.0}  {:>11}  {:>10.3}  {:>9}",
            c.sessions,
            c.tasks,
            c.open_secs,
            c.drain_secs,
            c.values_per_sec(),
            c.waker_wakes,
            c.wake_precision(),
            rss
        );
    });

    // The reconfiguration churn sweep: branches join and leave a running
    // merger as fast as the splice path allows, while static producers
    // keep the data moving; exactly-once accounting is folded into each
    // cell's failure field.
    println!(
        "\nReconfiguration churn sweep ({:.2}s window per cell):",
        window.as_secs_f64()
    );
    println!(
        "{:>4}  {:<20}{:>9}  {:>11}  {:>9}  {:>11}",
        "N", "mode", "splices", "splices/s", "values", "values/s"
    );
    let churn = run_churn(&config, |c| {
        if let Some(f) = &c.failure {
            println!("{:>4}  {:<20}FAIL: {f}", c.n, c.mode);
            return;
        }
        println!(
            "{:>4}  {:<20}{:>9}  {:>11.1}  {:>9}  {:>11.0}",
            c.n,
            c.mode,
            c.splices,
            c.splices_per_sec(),
            c.values,
            c.values_per_sec()
        );
    });

    // The fault-recovery sweep: park an op, inject a fault (drop, panic,
    // poison, close), and time the typed error it must resolve with.
    println!(
        "\nFault-recovery sweep ({} injections per cell):",
        config.fault_iters
    );
    println!(
        "{:<8}{:<20}{:>7}  {:>7}  {:>9}  {:>10}  {:>10}",
        "fault", "mode", "typed", "strand", "iters", "p50-us", "p99-us"
    );
    let faults = run_faults(&config, |c| {
        if let Some(f) = &c.failure {
            println!("{:<8}{:<20}FAIL: {f}", c.kind, c.mode);
            return;
        }
        println!(
            "{:<8}{:<20}{:>7}  {:>7}  {:>9}  {:>10.1}  {:>10.1}",
            c.kind, c.mode, c.typed_errors, c.stranded, c.iters, c.p50_us, c.p99_us
        );
    });

    let v = verdict(&cells, &codegen, &sessions, &churn, &faults);
    println!(
        "\nverdict: targeted wakeups below broadcast baseline (channels, threads>2): {}",
        v.wakeups_below_broadcast
    );
    // The eligible-cell count makes a false verdict diagnosable: 0
    // eligible cells means the sweep produced no burst traffic (window
    // too short / family filtered out), not a lock-amortization
    // regression.
    let eligible = cells
        .iter()
        .filter(|c| c.family == "burst" && c.mode == "part" && c.locks_per_value().is_some())
        .count();
    println!(
        "verdict: burst locks per value below the unbatched seed baseline ({}): {} \
         ({eligible} eligible cell(s))",
        reo_bench::scale::SEED_BURST_LOCKS_PER_VALUE,
        v.locks_per_value_below_seed
    );
    println!(
        "verdict: compiled stepping >= {}x jit boundary ops on every codegen duel \
         (3x before the jit dropped joint steps of independent constituents): {} \
         ({} duel(s))",
        reo_bench::scale::CODEGEN_SPEEDUP_FLOOR,
        v.codegen_beats_jit,
        codegen.len()
    );
    println!(
        "verdict: async sessions complete with wake precision <= {}: {} ({} cell(s))",
        reo_bench::scale::SESSIONS_WAKE_PRECISION_CEILING,
        v.async_sessions_scale,
        sessions.len()
    );
    println!(
        "verdict: churn cells deliver exactly-once across join/leave splices: {} ({} cell(s))",
        v.reconfig_churn_scale,
        churn.len()
    );
    println!(
        "verdict: fault cells resolve typed errors, zero stranded, p99 <= {}us: {} ({} cell(s))",
        reo_bench::scale::FAULT_RECOVERY_P99_CEILING_US,
        v.fault_recovery_bounded,
        faults.len()
    );

    if let Some(value) = args.get("json") {
        let path = json_path(value, "BENCH_scale.json");
        std::fs::write(
            path,
            to_json(&cells, &codegen, &sessions, &churn, &faults, &config),
        )
        .expect("write JSON report");
        println!("wrote {path} ({} cells)", cells.len());
    }
}

/// Serialize the run by hand — the offline workspace carries no serde.
/// Schema documented in [`reo_bench::json`].
fn to_json(
    cells: &[Cell],
    codegen: &[CodegenCell],
    sessions: &[SessionsCell],
    churn: &[ChurnCell],
    faults: &[FaultCell],
    config: &Config,
) -> String {
    let mut s = String::from("{\n");
    let v = verdict(cells, codegen, sessions, churn, faults);
    let _ = writeln!(
        s,
        r#"  "benchmark": "scale",
  "window_secs": {},
  "ns": {:?},
  "available_parallelism": {},
  "wakeups_below_broadcast": {},
  "locks_per_value_below_seed": {},
  "codegen_beats_jit": {},
  "async_sessions_scale": {},
  "reconfig_churn_scale": {},
  "fault_recovery_bounded": {},
  "codegen": ["#,
        config.window.as_secs_f64(),
        config.ns,
        available_parallelism(),
        v.wakeups_below_broadcast,
        v.locks_per_value_below_seed,
        v.codegen_beats_jit,
        v.async_sessions_scale,
        v.reconfig_churn_scale,
        v.fault_recovery_bounded
    );
    let secs = config.window.as_secs_f64();
    for (i, c) in codegen.iter().enumerate() {
        let _ = write!(
            s,
            r#"    {{"family":{},"n":{},"jit_ops_per_sec":{:.1},"compiled_ops_per_sec":{:.1},"ratio":{:.3}}}"#,
            json_str(c.family),
            c.n,
            c.jit_ops as f64 / secs,
            c.compiled_ops as f64 / secs,
            c.ratio()
        );
        s.push_str(if i + 1 < codegen.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"sessions\": [\n");
    for (i, c) in sessions.iter().enumerate() {
        let rss = c
            .rss_per_session_kib
            .map(|r| format!("{r:.3}"))
            .unwrap_or_else(|| "null".into());
        let _ = write!(
            s,
            r#"    {{"sessions":{},"tasks":{},"threads":{},"values":{},"completions":{},"waker_wakes":{},"wakeups":{},"lock_acquisitions":{},"steps":{},"open_secs":{:.3},"drain_secs":{:.3},"values_per_sec":{:.1},"wake_precision":{:.4},"rss_per_session_kib":{},"failure":{}}}"#,
            c.sessions,
            c.tasks,
            c.threads,
            c.values,
            c.completions,
            c.waker_wakes,
            c.wakeups,
            c.lock_acquisitions,
            c.steps,
            c.open_secs,
            c.drain_secs,
            c.values_per_sec(),
            c.wake_precision(),
            rss,
            json_opt_str(&c.failure)
        );
        s.push_str(if i + 1 < sessions.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"churn\": [\n");
    for (i, c) in churn.iter().enumerate() {
        let _ = write!(
            s,
            r#"    {{"family":"churn","n":{},"mode":{},"splices":{},"splices_per_sec":{:.1},"values":{},"received":{},"values_per_sec":{:.1},"window_secs":{:.3},"failure":{}}}"#,
            c.n,
            json_str(c.mode),
            c.splices,
            c.splices_per_sec(),
            c.values,
            c.received,
            c.values_per_sec(),
            c.window_secs,
            json_opt_str(&c.failure)
        );
        s.push_str(if i + 1 < churn.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"faults\": [\n");
    for (i, c) in faults.iter().enumerate() {
        let _ = write!(
            s,
            r#"    {{"family":"faults","kind":{},"mode":{},"iters":{},"typed_errors":{},"stranded":{},"p50_us":{:.1},"p99_us":{:.1},"failure":{}}}"#,
            json_str(c.kind),
            json_str(c.mode),
            c.iters,
            c.typed_errors,
            c.stranded,
            c.p50_us,
            c.p99_us,
            json_opt_str(&c.failure)
        );
        s.push_str(if i + 1 < faults.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let failure = match &c.outcome.failure {
            Some(f) => json_str(f),
            None => "null".to_string(),
        };
        let stats = c.outcome.stats.unwrap_or_default();
        let (p50, p95, p99) = match c.outcome.latency {
            Some(l) => (
                format!("{:.3}", l.p50_us),
                format!("{:.3}", l.p95_us),
                format!("{:.3}", l.p99_us),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        let locks_per_value = match c.locks_per_value() {
            Some(l) => format!("{l:.3}"),
            None => "null".into(),
        };
        let _ = write!(
            s,
            r#"    {{"family":{},"n":{},"mode":{},"threads":{},"steps":{},"steps_per_sec":{:.1},"wakeups":{},"spurious_wakeups":{},"completions":{},"lock_acquisitions":{},"broadcast_baseline_wakeups":{},"batch_moves":{},"batched_values":{},"locks_per_value":{},"kicks":{},"p50_us":{},"p95_us":{},"p99_us":{},"connect_ms":{:.3},"failure":{}}}"#,
            json_str(c.family),
            c.n,
            json_str(c.mode),
            c.threads,
            c.outcome.steps,
            c.steps_per_sec(config.window),
            stats.wakeups,
            stats.spurious_wakeups,
            stats.completions,
            stats.lock_acquisitions,
            c.broadcast_baseline_wakeups,
            stats.batch_moves,
            stats.batched_values,
            locks_per_value,
            stats.kicks,
            p50,
            p95,
            p99,
            c.outcome.connect_time.as_secs_f64() * 1e3,
            failure
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
