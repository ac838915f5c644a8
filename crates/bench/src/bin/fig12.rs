//! Regenerates Fig. 12: the connector benchmarks.
//!
//! ```text
//! cargo run --release -p reo-bench --bin fig12 -- \
//!     [--secs 0.3] [--ns 2,4,8,16,32,64] [--families merger,router,…] \
//!     [--partitioned] [--compiled] [--json [BENCH_fig12.json]]
//! ```
//!
//! With `--json` the per-cell results are also written as a JSON document
//! (default path `BENCH_fig12.json`), the machine-readable datapoint
//! `bench_check` gates on.

use std::fmt::Write as _;
use std::time::Duration;

use reo_bench::fig12::{classify, run, summarize, Cell, Config};
use reo_bench::json::{json_path, json_str};
use reo_bench::Args;
use reo_connectors::RunOutcome;

fn main() {
    let args = Args::from_env();
    let mut config = Config {
        window: Duration::from_secs_f64(args.f64("secs", 0.3)),
        ns: args.usize_list("ns", &[2, 4, 8, 16, 32, 64]),
        partitioned: args.bool("partitioned"),
        compiled: args.bool("compiled"),
        ..Config::default()
    };
    if args.get("families").is_some() {
        config.family_filter = Some(args.list("families", &[]));
    }

    println!(
        "Fig. 12 reproduction: {:.2}s window per cell, N in {:?}, existing vs new approach{}",
        config.window.as_secs_f64(),
        config.ns,
        if config.partitioned {
            " (+ partitioned)"
        } else {
            ""
        },
    );
    if config.compiled {
        println!("(+ compiled: every reachable state expanded ahead of time)");
    }
    println!(
        "{:<16}{:>4}  {:>14}  {:>14}  {:>9}  bin",
        "connector", "N", "existing st/s", "new st/s", "ratio"
    );

    let window = config.window;
    let cells = run(&config, |cell| {
        let fmt = |o: &reo_connectors::RunOutcome| match &o.failure {
            Some(_) => "FAIL".to_string(),
            None => format!("{:.0}", o.steps_per_sec(window)),
        };
        let ratio = if cell.existing.failure.is_none() && cell.new.failure.is_none() {
            format!(
                "{:.2}",
                cell.new.steps as f64 / cell.existing.steps.max(1) as f64
            )
        } else {
            "-".into()
        };
        let part = match &cell.partitioned {
            Some(o) => format!("  part={}", fmt(o)),
            None => String::new(),
        };
        let comp = match &cell.compiled {
            Some(o) => format!("  comp={}", fmt(o)),
            None => String::new(),
        };
        println!(
            "{:<16}{:>4}  {:>14}  {:>14}  {:>9}  {}{}{}",
            cell.family,
            cell.n,
            fmt(&cell.existing),
            fmt(&cell.new),
            ratio,
            classify(cell).label(),
            part,
            comp
        );
    });

    println!("{}", summarize(&cells, &config.ns));
    println!(
        "Paper's Fig. 12 pie for reference: NEW-ONLY 8%, NEW-WINS 42%, \
         EXIST<=10x 42%, EXIST<=100x 8%."
    );

    if let Some(value) = args.get("json") {
        let path = json_path(value, "BENCH_fig12.json");
        std::fs::write(path, to_json(&cells, &config)).expect("write JSON report");
        println!("wrote {path} ({} cells)", cells.len());
    }
}

/// Serialize the run by hand — the offline workspace carries no serde.
fn to_json(cells: &[Cell], config: &Config) -> String {
    fn outcome(o: &RunOutcome) -> String {
        let failure = match &o.failure {
            Some(f) => json_str(f),
            None => "null".to_string(),
        };
        format!(
            r#"{{"steps":{},"connect_ms":{:.3},"failure":{}}}"#,
            o.steps,
            o.connect_time.as_secs_f64() * 1e3,
            failure
        )
    }
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        r#"  "benchmark": "fig12_connectors",
  "window_secs": {},
  "ns": {:?},
  "cells": ["#,
        config.window.as_secs_f64(),
        config.ns
    );
    for (i, c) in cells.iter().enumerate() {
        let partitioned = match &c.partitioned {
            Some(o) => outcome(o),
            None => "null".to_string(),
        };
        let compiled = match &c.compiled {
            Some(o) => outcome(o),
            None => "null".to_string(),
        };
        let _ = write!(
            s,
            r#"    {{"family":{},"n":{},"bin":{},"existing":{},"new":{},"partitioned":{},"compiled":{}}}"#,
            json_str(c.family),
            c.n,
            json_str(classify(c).label()),
            outcome(&c.existing),
            outcome(&c.new),
            partitioned,
            compiled
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
