//! The repo benchmark: five workloads driving the `reo` facade from
//! outside, five end-to-end metrics each, and — in a traced run — the
//! per-layer metrics behind them. See README.md.
//!
//! ```text
//! reo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! reo-benchmark [--quick]          every workload, plain then traced
//! reo-benchmark selfcheck          the noise protocol (writes NOISE.md's content)
//! reo-benchmark schema             the text of BENCHMARK.json
//! reo-benchmark gen-cells          the text of cells/cold_open.txt
//! ```

mod cold_open;
mod duo;
mod json;
mod metrics;
mod npb;
mod rng;
mod run;
mod selfcheck;
mod session;
mod sizing;
mod stats;
mod stepping;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::{Config, Epoch, Inject, Layers, Summary, EPOCHS};
use trace::Trace;
use workloads::{Runner, Workload};

struct Args {
    command: Option<String>,
    /// Operands of the command.
    rest: Vec<String>,
    workload: Option<Workload>,
    trace: bool,
    sets: usize,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        rest: Vec::new(),
        workload: None,
        trace: false,
        sets: 10,
        cfg: Config {
            seed: 1,
            seconds: metrics::RUN_SECONDS as f64,
            quick: false,
            inject: None,
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                args.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
                args.cfg.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|_| "--sets takes a whole number")?;
            }
            "--quick" => args.cfg.quick = true,
            "--inject" => {
                args.cfg.inject = Some(match value("--inject")?.as_str() {
                    "wrong-value" => Inject::WrongValue,
                    "drop-port" => Inject::DropPort,
                    other => return Err(format!("unknown fault `{other}`")),
                });
            }
            cmd if !cmd.starts_with('-') && args.command.is_none() => {
                args.command = Some(cmd.to_string());
            }
            operand if !operand.starts_with('-') => args.rest.push(operand.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The host as it was when the run started, before pinning.
struct Host {
    parallelism: usize,
    loadavg_1m: Option<f64>,
}

/// What one run of one workload found.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in reporting order.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The result line of the contract.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a degenerate ratio reads 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn end_to_end(epochs: &[Epoch]) -> Vec<(String, f64, &'static str)> {
    let summary = Summary::of(epochs);
    for c in &summary.cells {
        println!(
            "# {:<20} samples={} ops_per_s={:.1} cpu_us_per_op={:.4} op_p50_us={:.4}",
            c.name,
            c.samples,
            c.ops_per_s(),
            c.cpu_ns_per_op / 1e3,
            c.p50_ns / 1e3
        );
    }
    // For comparison, the same figures from the median sample: what the
    // run looked like with this host's interference left in.
    let as_run = Summary::at(epochs, 0.5);
    println!(
        "# as run (median sample): ops_per_s={:.1} op_p50_us={:.4} cpu_us_per_op={:.4}",
        as_run.ops_per_s(),
        as_run.op_p50_us(),
        as_run.cpu_us_per_op()
    );
    let value = |name: &str| match name {
        // The fastest of the five set-ups, for the reason the quiet slices
        // are used: interference only adds time.
        "setup_s" => epochs.iter().map(Epoch::setup_s).fold(f64::MAX, f64::min),
        "ops_per_s" => summary.ops_per_s(),
        "op_p50_us" => summary.op_p50_us(),
        "cpu_us_per_op" => summary.cpu_us_per_op(),
        // The maximum over the run.
        "peak_rss_mib" => sys::peak_rss_mib(),
        other => unreachable!("no rule for end-to-end metric {other}"),
    };
    metrics::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), value(m.name), m.unit))
        .collect()
}

/// Run one workload: five fresh epochs. Plain, all five are measured with
/// tracing off and give the end-to-end metrics. Traced, epochs 1 and 3
/// record spans and the others do not; the per-layer metrics come from
/// this run and the end-to-end ones never do.
fn run_workload(workload: Workload, cfg: &Config, traced_run: bool, host: &Host) -> Outcome {
    println!(
        "# workload={} seed={} seconds={} trace={} quick={} available_parallelism={} loadavg_1m={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(traced_run),
        cfg.quick,
        host.parallelism,
        host.loadavg_1m
            .map_or("unknown".to_string(), |l| l.to_string()),
    );
    let runner = Runner::new(workload);
    let mut tr = Trace::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for e in 0..EPOCHS {
        let on = traced_run && e % 2 == 1;
        tr.set_on(on);
        let epoch = runner.epoch(cfg, &mut tr);
        let latency = epoch.latency();
        println!(
            "# epoch {e}{}: setup_s={:.4} measured_s={:.4} ops={} failed={} ops_per_s={:.1} p50_us={:.3} samples={} peak_rss_mib={:.1}",
            if on { " (traced)" } else { "" },
            epoch.setup_s(),
            epoch.measured_s(),
            epoch.ops(),
            epoch.failed(),
            epoch.raw_ops_per_s(),
            latency.quantile(0.5).unwrap_or(0.0) / 1e3,
            latency.count(),
            sys::peak_rss_mib(),
        );
        for c in &epoch.cells {
            println!(
                "#   {:<20} setup_s={:.4} measured_s={:.4} ops={} ops_per_s={:.1} cpu_us_per_op={:.3} p50_us={:.3}",
                c.name,
                c.setup_s,
                c.measured_s,
                c.ops,
                (c.ops - c.failed) as f64 / c.measured_s,
                c.cpu_s * 1e6 / c.ops as f64,
                c.latency.quantile(0.5).unwrap_or(0.0) / 1e3,
            );
            if let Some(err) = &c.error {
                println!("#   {}: {err}", c.name);
            }
            if c.gauges.late_warmup_growth > 0 {
                println!(
                    "#   {}: warm-up too short, the state cache grew by {} in its last tenth",
                    c.name, c.gauges.late_warmup_growth
                );
            }
        }
        if on { &mut traced } else { &mut plain }.push(epoch);
    }
    let attempted = plain.iter().chain(&traced).map(Epoch::ops).sum();
    let failed = plain.iter().chain(&traced).map(Epoch::failed).sum();

    let metrics = if traced_run {
        tr.set_on(true);
        let measured: Layers = runner.layers(cfg, &plain, &traced, &mut tr);
        let path =
            std::path::PathBuf::from(format!("benchmark/out/trace-{}.json", workload.name()));
        match tr.write_chrome(&path) {
            Ok(n) => println!(
                "# wrote {n} of {} spans to {}",
                tr.spans.len(),
                path.display()
            ),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
        if let Some(share) = measured.get("runtime.open_unaccounted_share") {
            if *share > 0.10 {
                println!("# warning: runtime.open_unaccounted_share {share:.3} is above 0.10");
            }
        }
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let v = measured.get(&m.name).copied().unwrap_or(0.0);
                (m.name, v, m.unit)
            })
            .collect()
    } else {
        end_to_end(&plain)
    };
    for (name, value, unit) in &metrics {
        // A layer metric the workload does not exercise reads 0.
        if !traced_run || *value != 0.0 {
            println!(
                "{:<44} {:>16.4} {}",
                format!("{}/{}", workload.name(), name),
                value,
                unit
            );
        }
    }
    println!("{}/ops_attempted {attempted}", workload.name());
    println!("{}/ops_failed {failed}", workload.name());
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Compare `BENCHMARK.json` in the working directory, when there is one,
/// with the tables in `metrics.rs`.
fn check_schema() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("# no BENCHMARK.json in the working directory: schema not checked");
        return Ok(());
    };
    let on_disk = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let built_in = json::parse(&metrics::schema()).expect("the built-in schema is JSON");
    if on_disk == built_in {
        println!("# BENCHMARK.json agrees with benchmark/src/metrics.rs");
        Ok(())
    } else {
        Err("BENCHMARK.json differs from `reo-benchmark schema`".into())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_deref() {
        Some("schema") => {
            print!("{}", metrics::schema());
            return ExitCode::SUCCESS;
        }
        Some("gen-cells") => {
            cold_open::generate_cells();
            return ExitCode::SUCCESS;
        }
        Some("probe-cell") => {
            return match cold_open::probe_cell(&args.rest) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(1)
                }
            };
        }
        Some("selfcheck") => return selfcheck::run(args.sets, &args.cfg),
        Some(other) => {
            eprintln!("reo-benchmark: unknown command `{other}`");
            return ExitCode::from(2);
        }
        None => {}
    }
    // Two driver threads on fewer than two cores would measure the
    // scheduler's time slices, not the connector.
    let host = Host {
        parallelism: sys::available_parallelism(),
        loadavg_1m: sys::load_average_1m(),
    };
    if host.parallelism < 2 {
        eprintln!("reo-benchmark: available_parallelism is below 2; refusing to report");
        return ExitCode::from(3);
    }
    // One CPU for the whole process. On this 2-vCPU virtual machine a wake
    // across CPUs costs about 20 us of hypervisor time, five times the
    // whole software path of a rendezvous, and whether two threads share
    // a CPU is the kernel's coin toss per epoch (merger8 measured 22 k to
    // 97 k ops/s unpinned, 98 k to 108 k pinned). Every workload here is
    // serial by construction or nearly so; see README.md for what pinning
    // leaves unmeasured.
    match sys::pin_to_one_cpu() {
        Some(cpu) => println!("# pinned to cpu {cpu}"),
        None => println!("# warning: could not pin to one cpu; expect a wide spread"),
    }
    let failed = match args.workload {
        Some(w) => {
            let outcome = run_workload(w, &args.cfg, args.trace, &host);
            println!("{}", outcome.json());
            outcome.failed
        }
        None => {
            let mut failed = 0;
            for w in Workload::ALL {
                for traced in [false, true] {
                    let outcome = run_workload(w, &args.cfg, traced, &host);
                    println!("{}", outcome.json());
                    failed += outcome.failed;
                }
            }
            if let Err(e) = check_schema() {
                eprintln!("reo-benchmark: {e}");
                return ExitCode::from(4);
            }
            failed
        }
    };
    // The parent commit fails no op on any workload, so one is too many.
    if failed > 0 {
        eprintln!("reo-benchmark: {failed} ops failed");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
