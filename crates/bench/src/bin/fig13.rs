//! Regenerates Fig. 13: the NPB benchmarks.
//!
//! ```text
//! cargo run --release -p reo-bench --bin fig13 -- \
//!     [--prog cg|lu|both] [--classes S,C-scaled] [--ns 2,4,8] \
//!     [--timeout 120] [--large-n] [--backends original,reo-jit,reo-part] \
//!     [--json [BENCH_fig13.json]]
//! ```
//!
//! `--large-n` moves to N ∈ {16,32,64}, class S, 30 s timeout — the range
//! of the paper's finding 3. On the 2-core reference host CG-S under
//! `reo-jit` takes 0.34 s at N=16, 2.4 s at N=32 and 17 s at N=64
//! (`reo-part`: 0.18 s / 0.98 s / 3.9 s). At these sizes almost every
//! step reaches a state nobody has expanded, so the time is expansion —
//! N=64 can still run into the timeout on a busy host. Before steps were
//! interned and lowered N=32 and N=64 were DNF, and before connected-step
//! expansion every `reo-jit` cell from N=8 up was.
//!
//! `--backends` runs only the named columns of the table (all three by
//! default), so one backend's wall time and peak RSS are its own process's.
//!
//! With `--json` the per-cell measurements are also written as a JSON
//! document (default path `BENCH_fig13.json`), the NPB twin of the
//! `fig12 --json` datapoint.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use reo_bench::fig13::{
    measure_cg, measure_lu, render, standard_backends, BackendKind, Measurement,
};
use reo_bench::json::{json_opt_str, json_path, json_str};
use reo_bench::Args;
use reo_npb::{cg, lu, CgClass, LuClass};

/// One measured cell, tagged with its coordinates for the JSON report.
struct Row {
    prog: &'static str,
    class: String,
    n: usize,
    backend: String,
    m: Measurement,
}

fn main() {
    let args = Args::from_env();
    let progs: Vec<&'static str> = match args.get("prog").unwrap_or("both") {
        "cg" => vec!["cg"],
        "lu" => vec!["lu"],
        _ => vec!["cg", "lu"],
    };
    let large_n = args.bool("large-n");
    let default_ns: &[usize] = if large_n { &[16, 32, 64] } else { &[2, 4, 8] };
    let ns = args.usize_list("ns", default_ns);
    let classes = args.list("classes", if large_n { &["S"] } else { &["S", "C-scaled"] });
    let timeout = Duration::from_secs_f64(args.f64("timeout", if large_n { 30.0 } else { 600.0 }));
    let backends = select_backends(&args.list("backends", &[]));

    println!(
        "Fig. 13 reproduction: programs {progs:?}, classes {classes:?}, N {ns:?} \
         (original vs Reo-based)"
    );

    let mut rows: Vec<Row> = Vec::new();
    for prog in &progs {
        for class_name in &classes {
            match *prog {
                "cg" => {
                    let Some(class) = CgClass::by_name(class_name) else {
                        eprintln!("unknown CG class {class_name}");
                        continue;
                    };
                    println!(
                        "\nCG, size {} (na={}, nonzer={}, niter={}):",
                        class.name, class.na, class.nonzer, class.niter
                    );
                    let a = Arc::new(cg::class_matrix(&class));
                    let reference = cg::sequential::run_on_matrix(&a, &class).zeta;
                    header(&backends);
                    for &n in &ns {
                        print!("{n:>4}  ");
                        for backend in &backends {
                            let m = measure_cg(&a, &class, reference, n, *backend, timeout);
                            print!("{:>24}  ", render(&m));
                            rows.push(Row {
                                prog,
                                class: class_name.clone(),
                                n,
                                backend: backend.label(),
                                m,
                            });
                        }
                        println!();
                    }
                }
                "lu" => {
                    let Some(class) = LuClass::by_name(class_name) else {
                        eprintln!("unknown LU class {class_name}");
                        continue;
                    };
                    println!(
                        "\nLU (SSOR substitute), size {} ({}x{}, itmax={}):",
                        class.name, class.nx, class.ny, class.itmax
                    );
                    let reference = lu::run_sequential(&class);
                    header(&backends);
                    for &n in &ns {
                        print!("{n:>4}  ");
                        for backend in &backends {
                            let m = measure_lu(&class, &reference, n, *backend, timeout);
                            print!("{:>24}  ", render(&m));
                            rows.push(Row {
                                prog,
                                class: class_name.clone(),
                                n,
                                backend: backend.label(),
                                m,
                            });
                        }
                        println!();
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    println!(
        "\nPaper's Fig. 13 shape for reference: class S — Reo overhead dominates;\n\
         class C — comparable run times for N in {{2,4,8}}; N >= 16 without\n\
         partitioning — DNF in the paper (exponentially many transitions in one\n\
         state). Here expansion keeps connected steps only, so reo-jit runs on;\n\
         a DNF cell names its typed cause."
    );

    if let Some(value) = args.get("json") {
        let path = json_path(value, "BENCH_fig13.json");
        std::fs::write(path, to_json(&rows, timeout, large_n)).expect("write JSON report");
        println!("wrote {path} ({} cells)", rows.len());
    }
}

/// The standard backends whose table labels are `names`, in table order;
/// all of them when `names` is empty. Panics on a name no column has.
fn select_backends(names: &[String]) -> Vec<BackendKind> {
    let all = standard_backends();
    let labels: Vec<String> = all.iter().map(BackendKind::label).collect();
    if let Some(unknown) = names.iter().find(|name| !labels.contains(name)) {
        panic!("--backends: no backend {unknown}; the columns are {labels:?}");
    }
    let named = |b: &BackendKind| names.is_empty() || names.contains(&b.label());
    all.into_iter().filter(named).collect()
}

fn header(backends: &[BackendKind]) {
    print!("{:>4}  ", "N");
    for b in backends {
        print!("{:>24}  ", b.label());
    }
    println!();
}

/// Serialize the run by hand — the offline workspace carries no serde.
fn to_json(rows: &[Row], timeout: Duration, large_n: bool) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        r#"  "benchmark": "fig13_npb",
  "timeout_secs": {},
  "large_n": {},
  "cells": ["#,
        timeout.as_secs_f64(),
        large_n
    );
    for (i, r) in rows.iter().enumerate() {
        let secs = match r.m.secs {
            Some(x) => format!("{x:.6}"),
            None => "null".to_string(),
        };
        let verified = match r.m.verified {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            s,
            r#"    {{"prog":{},"class":{},"n":{},"backend":{},"secs":{},"dnf":{},"steps":{},"verified":{}}}"#,
            json_str(r.prog),
            json_str(&r.class),
            r.n,
            json_str(&r.backend),
            secs,
            json_opt_str(&r.m.dnf),
            r.m.steps,
            verified
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
