//! CI gate for the `BENCH_*.json` reports: schema validation plus
//! fail-regression comparison against a checked-in baseline.
//!
//! ```text
//! cargo run --release -p reo-bench --bin bench_check -- \
//!     --kind fig12|fig13 --new ci_fig12.json [--baseline BENCH_fig12.json] \
//!     [--relaxed] [--track deltas.txt]
//! ```
//!
//! Exit status 0 iff `--new` is schema-valid and no cell that has
//! `failure: null` (fig12) or `dnf: null` (fig13) in the baseline turned
//! into a failure in the new report. Without `--baseline` only the
//! schema is checked.
//!
//! `--relaxed` exempts the timing-sensitive cells (fig13 class S, whose
//! DNF verdicts flap on noisy CI runners) from the regression gate —
//! schema validation still covers them. `--track <path>` writes per-cell
//! primary-metric deltas vs the baseline (fig12 steps, fig13 seconds) to
//! `<path>`; CI uploads that file as an artifact instead of gating on
//! throughput, so runner noise stays reviewable without blocking merges.

use reo_bench::check::{failure_regressions_gated, metric_deltas, validate, Json, Kind};
use reo_bench::Args;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_check: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args = Args::from_env();
    let kind_name = args.get("kind").unwrap_or_else(|| {
        eprintln!("bench_check: --kind fig12|fig13 is required");
        std::process::exit(2);
    });
    let kind = Kind::by_name(kind_name).unwrap_or_else(|| {
        eprintln!("bench_check: unknown kind `{kind_name}` (expected fig12 or fig13)");
        std::process::exit(2);
    });
    let new_path = args.get("new").unwrap_or_else(|| {
        eprintln!("bench_check: --new <report.json> is required");
        std::process::exit(2);
    });

    let new = load(new_path);
    match validate(&new, kind) {
        Ok(cells) => println!("bench_check: {new_path}: schema OK ({cells} cells)"),
        Err(e) => {
            eprintln!("bench_check: {new_path}: schema error: {e}");
            std::process::exit(1);
        }
    }

    if let Some(baseline_path) = args.get("baseline") {
        let baseline = load(baseline_path);
        if let Err(e) = validate(&baseline, kind) {
            eprintln!("bench_check: {baseline_path}: schema error: {e}");
            std::process::exit(1);
        }
        if let Some(track_path) = args.get("track") {
            match metric_deltas(&new, &baseline, kind) {
                Ok(lines) => {
                    let mut body = lines.join("\n");
                    body.push('\n');
                    std::fs::write(track_path, body).unwrap_or_else(|e| {
                        eprintln!("bench_check: cannot write {track_path}: {e}");
                        std::process::exit(2);
                    });
                    println!(
                        "bench_check: wrote {} metric delta(s) to {track_path}",
                        lines.len()
                    );
                }
                Err(e) => {
                    eprintln!("bench_check: delta tracking error: {e}");
                    std::process::exit(1);
                }
            }
        }
        let relaxed = args.bool("relaxed");
        match failure_regressions_gated(&new, &baseline, kind, relaxed) {
            Ok(regressions) if regressions.is_empty() => {
                let mode = if relaxed { " (relaxed gate)" } else { "" };
                println!("bench_check: no failure regressions against {baseline_path}{mode}");
            }
            Ok(regressions) => {
                eprintln!(
                    "bench_check: {} cell(s) regressed from ok to failing:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("bench_check: comparison error: {e}");
                std::process::exit(1);
            }
        }
    }
}
