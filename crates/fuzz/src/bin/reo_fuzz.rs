//! The `reo-fuzz` binary: explore, minimize, persist, replay.
//!
//! ```text
//! reo-fuzz diff     [--seconds 60] [--scenarios N] [--seed S] [--corpus DIR]
//! reo-fuzz faults   [--seconds 60] [--scenarios N] [--seed S] [--corpus DIR]
//! reo-fuzz pipeline [--seconds 30] [--sources N]   [--seed S] [--corpus DIR]
//! reo-fuzz replay   [--corpus DIR]
//! ```
//!
//! * `diff` generates structured scenarios and runs each across the full
//!   `Mode::grid()` (see `reo_fuzz::diff`), stopping at the time box or
//!   the scenario budget, whichever comes first. Scenario counting is
//!   grid-wide: one generated case counts as one executed scenario per
//!   mode of the grid.
//! * `faults` generates *fault-injection* scenarios — dropped ports,
//!   panics injected into firings, scripted poisons, close races — and
//!   checks graceful degradation across the same grid: typed errors
//!   within the deadline, zero hangs, zero escaped panics.
//! * `pipeline` feeds mutated and synthetic DSL through the compilation
//!   pipeline hunting panics.
//! * `replay` re-runs every `*.case` file in the corpus and fails on
//!   any regression (the same check `cargo test` runs, available
//!   stand-alone for CI artifact triage).
//!
//! Any finding is minimized and written to the corpus directory as a
//! `.case` file; the process then exits nonzero so CI surfaces it and
//! uploads the file as an artifact.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use reo_fuzz::{
    check_source, diff_case, fault_case, generate, generate_fault, hostile_source, load_dir,
    minimize_case, minimize_source, replay, to_text, CaseOutcome, CorpusCase, Rng,
};

/// `--key value` flags (a bare `--key` is `true`) and positionals.
#[derive(Default)]
struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn from_env() -> Args {
        let mut args = Args::default();
        let mut argv = std::env::args().skip(1).peekable();
        while let Some(a) = argv.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positional.push(a);
                continue;
            };
            let value = argv.next_if(|v| !v.starts_with("--"));
            args.flags
                .insert(key.to_string(), value.unwrap_or("true".into()));
        }
        args
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// The number `--key` gives, `default` without it; a bad one panics.
    fn num<T: FromStr>(&self, key: &str, default: T) -> T {
        let parse = |s: &str| {
            s.parse()
                .unwrap_or_else(|_| panic!("--{key} expects a number"))
        };
        self.get(key).map_or(default, parse)
    }

    fn bool(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true" | "1" | "yes"))
    }
}

fn main() {
    let args = Args::from_env();
    let corpus_dir = PathBuf::from(args.get("corpus").unwrap_or("tests/corpus"));
    let seed = args.num("seed", 1u64);
    let ok = match args.positional.first().map(String::as_str) {
        Some("diff") => run_diff(&args, seed, &corpus_dir),
        Some("faults") => run_faults(&args, seed, &corpus_dir),
        Some("pipeline") => run_pipeline(&args, seed, &corpus_dir),
        Some("replay") => run_replay(&corpus_dir),
        other => {
            eprintln!("usage: reo-fuzz <diff|faults|pipeline|replay> [--seconds N] [--seed S] [--corpus DIR]; got {other:?}");
            false
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

fn write_case(dir: &PathBuf, name: &str, case: &CorpusCase, provenance: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("corpus dir must be creatable");
    let path = dir.join(format!("{name}.case"));
    std::fs::write(&path, to_text(case, provenance)).expect("corpus file must be writable");
    path
}

/// Differential fuzzing: the tentpole loop.
fn run_diff(args: &Args, seed: u64, corpus_dir: &PathBuf) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(args.num("seconds", 60.0));
    let budget = args.num("scenarios", usize::MAX);
    let grid = reo_runtime::Mode::grid().len();
    let mut executed = 0usize; // scenario-runs: cases × modes
    let mut agreed = 0usize;
    let mut refused = 0usize;
    let mut findings = 0usize;
    let mut index = 0u64;
    let verbose = args.bool("verbose");
    while Instant::now() < deadline && executed < budget {
        let case = generate(seed, index);
        if verbose {
            eprintln!("case seed={seed} index={index} shape={}", case.shape);
        }
        match diff_case(&case) {
            Ok(CaseOutcome::Agreed) => agreed += 1,
            Ok(CaseOutcome::Refused) => refused += 1,
            Err(finding) => {
                findings += 1;
                eprintln!(
                    "FINDING seed={seed} index={index} shape={}: {finding}",
                    case.shape
                );
                // Shrink while the *same* mode still shows the same kind
                // of disagreement; clamp the deadline so shrink attempts
                // that deadlock don't stall minimization.
                let mut probe = case.clone();
                probe.scenario.timeout = probe.scenario.timeout.min(Duration::from_millis(500));
                let min = minimize_case(&probe, |c| match diff_case(c) {
                    Err(f) => f.mode == finding.mode && f.kind == finding.kind,
                    Ok(_) => false,
                });
                let name = format!("diff-{}-{seed}-{index}", case.shape);
                let provenance = format!("seed={seed} index={index} finding={finding}");
                let path = write_case(corpus_dir, &name, &CorpusCase::Diff(min), &provenance);
                eprintln!("  minimized reproducer: {}", path.display());
            }
        }
        executed += grid;
        index += 1;
        if index.is_multiple_of(256) {
            eprintln!(
                "  …{executed} scenario-runs ({agreed} agreed, {refused} refused, {findings} findings)"
            );
        }
    }
    println!(
        "diff: {executed} scenario-runs across the {grid}-mode grid \
         ({agreed} cases agreed, {refused} refused uniformly, {findings} findings)"
    );
    findings == 0
}

/// Fault-injection fuzzing: graceful degradation across the grid.
fn run_faults(args: &Args, seed: u64, corpus_dir: &PathBuf) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(args.num("seconds", 60.0));
    let budget = args.num("scenarios", usize::MAX);
    let grid = reo_runtime::Mode::grid().len();
    let mut executed = 0usize;
    let mut graceful = 0usize;
    let mut refused = 0usize;
    let mut findings = 0usize;
    let mut index = 0u64;
    let verbose = args.bool("verbose");
    // Injected panics are *supposed* to fire (and be contained) on most
    // cases: silence the default hook so thousands of caught panics
    // don't bury the report.
    std::panic::set_hook(Box::new(|_| {}));
    while Instant::now() < deadline && executed < budget {
        let case = generate_fault(seed, index);
        if verbose {
            eprintln!("fault case seed={seed} index={index} shape={}", case.shape);
        }
        match fault_case(&case) {
            Ok(CaseOutcome::Agreed) => graceful += 1,
            Ok(CaseOutcome::Refused) => refused += 1,
            Err(finding) => {
                findings += 1;
                let _ = std::panic::take_hook();
                eprintln!(
                    "FINDING seed={seed} index={index} shape={}: {finding}",
                    case.shape
                );
                let mut probe = case.clone();
                probe.scenario.timeout = probe.scenario.timeout.min(Duration::from_millis(500));
                std::panic::set_hook(Box::new(|_| {}));
                let min = minimize_case(&probe, |c| match fault_case(c) {
                    Err(f) => f.mode == finding.mode && f.kind == finding.kind,
                    Ok(_) => false,
                });
                let _ = std::panic::take_hook();
                let name = format!("fault-{}-{seed}-{index}", case.shape);
                let provenance = format!("seed={seed} index={index} finding={finding}");
                let path = write_case(corpus_dir, &name, &CorpusCase::Fault(min), &provenance);
                eprintln!("  minimized reproducer: {}", path.display());
                std::panic::set_hook(Box::new(|_| {}));
            }
        }
        executed += grid;
        index += 1;
        if index.is_multiple_of(256) {
            eprintln!(
                "  …{executed} fault scenario-runs ({graceful} graceful, {refused} refused, {findings} findings)"
            );
        }
    }
    let _ = std::panic::take_hook();
    println!(
        "faults: {executed} scenario-runs across the {grid}-mode grid \
         ({graceful} cases degraded gracefully, {refused} refused uniformly, {findings} findings)"
    );
    findings == 0
}

/// Pipeline fuzzing: parse/build/connect must never panic.
fn run_pipeline(args: &Args, seed: u64, corpus_dir: &PathBuf) -> bool {
    let deadline = Instant::now() + Duration::from_secs_f64(args.num("seconds", 30.0));
    let budget = args.num("sources", usize::MAX);
    // Seed pool: well-formed generated sources to mutate.
    let seeds: Vec<String> = (0..64).map(|i| generate(seed, i).scenario.source).collect();
    let mut rng = Rng::new(seed ^ 0x5eed_f00d);
    let mut checked = 0usize;
    let mut findings = 0usize;
    // Panics are the thing being hunted: silence the default hook so a
    // million caught panics don't bury the report.
    std::panic::set_hook(Box::new(|_| {}));
    while Instant::now() < deadline && checked < budget {
        let src = hostile_source(&mut rng, &seeds);
        if let Some(finding) = check_source(&src) {
            findings += 1;
            let _ = std::panic::take_hook();
            eprintln!("FINDING seed={seed} n={checked}: {finding}");
            let min = minimize_source(&src, |s| {
                check_source(s).is_some_and(|f| f.stage == finding.stage)
            });
            std::panic::set_hook(Box::new(|_| {}));
            let name = format!("pipe-{seed}-{checked}");
            let provenance = format!("seed={seed} n={checked} finding={finding}");
            let path = write_case(
                corpus_dir,
                &name,
                &CorpusCase::Pipeline { source: min },
                &provenance,
            );
            eprintln!("  minimized reproducer: {}", path.display());
        }
        checked += 1;
    }
    let _ = std::panic::take_hook();
    println!("pipeline: {checked} sources through parse/build/connect, {findings} panics");
    findings == 0
}

/// Replay the corpus; any failure is a regression.
fn run_replay(corpus_dir: &Path) -> bool {
    let cases = match load_dir(corpus_dir) {
        Ok(cases) => cases,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            return false;
        }
    };
    let mut failed = 0usize;
    // Fault cases replay injected panics that are contained by design;
    // keep the default hook from echoing each one.
    std::panic::set_hook(Box::new(|_| {}));
    for (path, case) in &cases {
        if let Err(e) = replay(case) {
            failed += 1;
            eprintln!("REGRESSION {}: {e}", path.display());
        }
    }
    let _ = std::panic::take_hook();
    println!("replay: {} corpus cases, {failed} regressions", cases.len());
    failed == 0
}
