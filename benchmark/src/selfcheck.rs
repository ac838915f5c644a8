//! The noise protocol: run the whole set 2 x `sets` times, interleaved
//! A B A B, each run a process of its own with a seed of its own, and
//! hold the two sets against the bounds in `metrics.rs` the way the
//! acceptance rule does. The output is markdown; for the merged commit it
//! is checked in as NOISE.md.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::json;
use crate::metrics::END_TO_END;
use crate::run::Config;
use crate::stats::{iqr_share, median, quartiles};
use crate::sys;
use crate::workloads::Workload;

/// `values[(workload, metric)][side]` = one value per run.
type Samples = BTreeMap<(&'static str, &'static str), [Vec<f64>; 2]>;

fn one_run(workload: Workload, seed: u64, cfg: &Config) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("exit {}: {stdout}", out.status));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(line)?;
    let metrics = result
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("no metrics in the result line")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

pub fn run(sets: usize, cfg: &Config) -> ExitCode {
    let mut samples = Samples::new();
    println!("# Noise self-check");
    println!();
    println!(
        "`reo-benchmark selfcheck --sets {sets} --seconds {}`{}: every workload {sets} times per \
         set, sets A and B interleaved (A B A B ...), each run a fresh process with a seed of its own.",
        cfg.seconds,
        if cfg.quick { " (`--quick`)" } else { "" }
    );
    println!();
    println!(
        "Host: available_parallelism = {}, 1-minute load average at start = {}.",
        sys::available_parallelism(),
        sys::load_average_1m().map_or("unknown".to_string(), |l| l.to_string())
    );
    println!();
    for i in 0..sets {
        for side in 0..2 {
            for w in Workload::ALL {
                let seed = 1 + 2 * i as u64 + side as u64;
                match one_run(w, seed, cfg) {
                    Ok(metrics) => {
                        for m in &END_TO_END {
                            if let Some(v) = metrics.get(m.name) {
                                samples.entry((w.name(), m.name)).or_default()[side].push(*v);
                            }
                        }
                    }
                    Err(e) => {
                        println!("run {i} of set {side} of `{}` failed: {e}", w.name());
                        return ExitCode::from(1);
                    }
                }
                eprintln!(
                    "selfcheck: set {} run {i} {} done",
                    ["A", "B"][side],
                    w.name()
                );
            }
        }
    }

    println!(
        "A metric passes when the two medians differ by no more than its bound and, except for \
         `setup_s` (which the acceptance rule exempts), the interquartile range of each set — \
         `statistics.quantiles(values, n=4)` — stays within the bound as a share of the median. \
         The target is a spread below a third of the bound."
    );
    println!();
    println!("| workload | metric | median A | IQR A | median B | IQR B | medians differ | bound | verdict |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut failures = 0;
    for w in Workload::ALL {
        for m in &END_TO_END {
            let Some([a, b]) = samples.get(&(w.name(), m.name)) else {
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let (ia, ib) = (iqr_share(a), iqr_share(b));
            let differ = (mb - ma).abs() / ma;
            let spread_gated = m.name != "setup_s";
            let ok = differ <= m.bound && (!spread_gated || (ia <= m.bound && ib <= m.bound));
            let within_third = ia.max(ib) <= m.bound / 3.0;
            if !ok {
                failures += 1;
            }
            println!(
                "| {} | {} | {:.4} | {:.2} % | {:.4} | {:.2} % | {:.2} % | {:.0} % | {} |",
                w.name(),
                m.name,
                ma,
                ia * 100.0,
                mb,
                ib * 100.0,
                differ * 100.0,
                m.bound * 100.0,
                match (ok, within_third) {
                    (false, _) => "FAIL",
                    (true, true) => "ok",
                    (true, false) => "ok (spread above a third of the bound)",
                }
            );
        }
    }
    println!();
    println!("Quartiles per set (Q1 – Q3):");
    println!();
    println!("| workload | metric | A | B |");
    println!("|---|---|---|---|");
    for ((w, m), [a, b]) in &samples {
        if a.len() >= 2 && b.len() >= 2 {
            let (qa, qb) = (quartiles(a), quartiles(b));
            println!(
                "| {w} | {m} | {:.4} – {:.4} | {:.4} – {:.4} |",
                qa.0, qa.1, qb.0, qb.1
            );
        }
    }
    println!();
    if failures == 0 {
        println!("**selfcheck passed**: the two sets agree within every bound.");
        ExitCode::SUCCESS
    } else {
        println!("**selfcheck failed**: {failures} metrics outside their bound.");
        ExitCode::from(1)
    }
}
