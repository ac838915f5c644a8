//! The five workloads: which cells each drives, one epoch of each, and —
//! for a traced run — the per-layer metrics each can measure.

use std::time::Duration;

use reo::runtime::{stepping_run, Limits, SteppingMode};

use crate::cold_open::{self, OpenCell};
use crate::duo::{self, DuoCell, Kind};
use crate::npb;
use crate::run::{CellRun, Config, Epoch, Layers, Summary};
use crate::session::{Counts, ModeName, Spec};
use crate::sizing::lookup;
use crate::stats::median;
use crate::stepping::{self, StepCell};
use crate::trace::Trace;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Handoff,
    Links,
    Stepping,
    ColdOpen,
    Npb,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Handoff,
        Workload::Links,
        Workload::Stepping,
        Workload::ColdOpen,
        Workload::Npb,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Handoff => "handoff",
            Workload::Links => "links",
            Workload::Stepping => "stepping",
            Workload::ColdOpen => "cold_open",
            Workload::Npb => "npb",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Names of the cells whose `ops_per_s` is reported one by one.
    pub fn cell_names(self) -> Vec<String> {
        match self {
            // One per mode: the 200 cells would be too many to list.
            Workload::ColdOpen => ModeName::ALL
                .iter()
                .map(|m| m.label().to_string())
                .collect(),
            Workload::Npb => vec![npb::CELL.to_string()],
            w => match Runner::new(w) {
                Runner::Duo { cells, .. } => cells.iter().map(|c| c.name.to_string()).collect(),
                Runner::Stepping(cells) => cells.iter().map(|c| c.name.to_string()).collect(),
                Runner::ColdOpen(_) | Runner::Npb => unreachable!("matched above"),
            },
        }
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Handoff => {
                "two threads rendezvous on one jit engine: lock, per-port wait queues and wakeups own the time"
            }
            Workload::Links => {
                "the same two-thread loop under partitioned mode: link pumping, batching and kicks own the time"
            }
            Workload::Stepping => {
                "one thread polls every rendezvous to completion on the jit and compiled cores: port call, lock and try_step"
            }
            Workload::ColdOpen => {
                "source text to first value over the Fig. 12 grid: parse, compile, instantiate, product and lowering"
            }
            Workload::Npb => {
                "Fig. 13: verified NPB CG class S with four slaves over a Reo connector, fresh connector per run"
            }
        }
    }
}

/// Four-stage `Fifo1` chains, one per sending port, that meet in a merger.
/// Each fifo sits in an iteration section of its own and so becomes a
/// link. The inner regions border two links each, so a pump there goes on
/// as a cascade; the merger's region borders one link per chain, so every
/// receive takes the counted kick path (`relay`'s regions border one link
/// and skip both).
const CHAIN_SOURCE: &str = "
ChainN(t[];hd) =
  prod (i:1..#t) Sync(t[i];a[i])
  mult prod (i:1..#t) Fifo1(a[i];b[i])
  mult prod (i:1..#t) Sync(b[i];c[i])
  mult prod (i:1..#t) Fifo1(c[i];d[i])
  mult prod (i:1..#t) Sync(d[i];e[i])
  mult prod (i:1..#t) Fifo1(e[i];f[i])
  mult prod (i:1..#t) Sync(f[i];g[i])
  mult prod (i:1..#t) Fifo1(g[i];h[i])
  mult Merger(h[1..#t];hd)
";

fn chain_spec(chains: usize) -> Spec {
    Spec {
        family: "chain".into(),
        source: CHAIN_SOURCE.into(),
        def: "ChainN".into(),
        sizes: vec![("t".into(), chains)],
        sends: vec!["t".into()],
        recvs: vec!["hd".into()],
    }
}

fn family(name: &str, n: usize) -> Spec {
    Spec::named(name, n).unwrap_or_else(|| panic!("no connector family `{name}`"))
}

fn duo_cell(name: &'static str, spec: Spec, mode: ModeName, kind: Kind) -> DuoCell {
    DuoCell {
        name,
        spec,
        mode,
        kind,
    }
}

/// A workload readied for a run: its cells parsed out of the families.
pub enum Runner {
    Duo {
        workload: Workload,
        cells: Vec<DuoCell>,
    },
    Stepping(Vec<StepCell>),
    ColdOpen(Vec<OpenCell>),
    Npb,
}

impl Runner {
    pub fn new(workload: Workload) -> Runner {
        match workload {
            Workload::Handoff => Runner::Duo {
                workload,
                cells: vec![
                    duo_cell("merger8", family("merger", 8), ModeName::Jit, Kind::Merge),
                    duo_cell(
                        "sequencer4",
                        family("sequencer", 4),
                        ModeName::Jit,
                        Kind::Tokens,
                    ),
                ],
            },
            Workload::Links => Runner::Duo {
                workload,
                cells: vec![
                    duo_cell(
                        "relay8",
                        family("relay", 8),
                        ModeName::Partitioned,
                        Kind::Fifo,
                    ),
                    duo_cell(
                        "burst8",
                        family("burst", 8),
                        ModeName::Partitioned,
                        Kind::Merge,
                    ),
                    duo_cell("chain4", chain_spec(2), ModeName::Partitioned, Kind::Merge),
                ],
            },
            Workload::Stepping => {
                let mut cells = Vec::new();
                for (jit, compiled, fam, n) in [
                    ("merger16.jit", "merger16.compiled", "merger", 16),
                    ("router16.jit", "router16.compiled", "router", 16),
                    ("sequencer8.jit", "sequencer8.compiled", "sequencer", 8),
                ] {
                    for (name, mode) in [(jit, ModeName::Jit), (compiled, ModeName::Compiled)] {
                        cells.push(StepCell {
                            name,
                            spec: family(fam, n),
                            mode,
                        });
                    }
                }
                Runner::Stepping(cells)
            }
            Workload::ColdOpen => Runner::ColdOpen(cold_open::listed_cells()),
            Workload::Npb => Runner::Npb,
        }
    }

    pub fn workload(&self) -> Workload {
        match self {
            Runner::Duo { workload, .. } => *workload,
            Runner::Stepping(_) => Workload::Stepping,
            Runner::ColdOpen(_) => Workload::ColdOpen,
            Runner::Npb => Workload::Npb,
        }
    }

    /// One fresh epoch: every cell set up, then measured.
    pub fn epoch(&self, cfg: &Config, tr: &mut Trace) -> Epoch {
        let w = self.workload().name();
        let cells = match self {
            Runner::Duo { cells, .. } => cells
                .iter()
                .map(|c| duo::run_cell(c, lookup(w, c.name), cfg, tr))
                .collect(),
            Runner::Stepping(cells) => cells
                .iter()
                .map(|c| stepping::run_cell(c, lookup(w, c.name), cfg, tr))
                .collect(),
            Runner::ColdOpen(cells) => cold_open::epoch(cells, lookup(w, "pass"), cfg, tr),
            Runner::Npb => vec![npb::epoch(lookup(w, npb::CELL), cfg, tr)],
        };
        Epoch { cells }
    }

    /// The per-layer metrics of a traced run. `plain` are the epochs run
    /// with tracing off, `traced` those run with it on; counters come from
    /// the plain epochs (they repeat exactly either way), times inside
    /// layer calls from the spans in `tr`, and differences of two drives
    /// from extra drives made here.
    pub fn layers(
        &self,
        cfg: &Config,
        plain: &[Epoch],
        traced: &[Epoch],
        tr: &mut Trace,
    ) -> Layers {
        let mut out = Layers::new();
        let w = self.workload().name();
        let mut put = |name: &str, value: f64| {
            out.insert(name.to_string(), value);
        };

        // driver.*
        let summary = Summary::of(plain);
        let p99: Vec<f64> = plain
            .iter()
            .map(|e| e.latency().quantile(0.99).unwrap_or(0.0) / 1e3)
            .collect();
        put("driver.op_p99_us", median(&p99));
        // How far interference pushed whole epochs apart; the reported
        // rates come from the quiet slices and do not move with it.
        let rates: Vec<f64> = plain.iter().map(Epoch::raw_ops_per_s).collect();
        let spread = rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min);
        put("driver.epoch_spread", spread / median(&rates));
        put(
            "driver.trace_overhead_share",
            1.0 - Summary::of(traced).ops_per_s() / summary.ops_per_s(),
        );
        for cell in &summary.cells {
            put(
                &format!("cell.{w}.{}.ops_per_s", cell.name),
                cell.ops_per_s(),
            );
        }

        let ops: u64 = plain.iter().map(Epoch::ops).sum();
        let per_op = |count: u64| count as f64 / ops as f64;
        let mut counts = Counts::default();
        for e in plain {
            counts.add(e.counts());
        }
        let span_p50_us = |tr: &Trace, name: &str| {
            let d = tr.durations(name);
            if d.is_empty() {
                0.0
            } else {
                median(&d) / 1e3
            }
        };
        let span_mean_us = |tr: &Trace, name: &str| {
            let d = tr.durations(name);
            d.iter().sum::<f64>() / d.len().max(1) as f64 / 1e3
        };

        match self {
            Runner::Duo { workload, cells } => {
                engine_counters(&mut put, counts, ops, plain);
                put(
                    "runtime.port.send_us_p50",
                    span_p50_us(tr, "runtime.port.send"),
                );
                put(
                    "runtime.port.recv_us_p50",
                    span_p50_us(tr, "runtime.port.recv"),
                );
                let mut quiet = Trace::new(false);
                if *workload == Workload::Handoff {
                    // wake = the two-thread drive minus the one-thread
                    // poll-driven drive of the same connector: what is
                    // left is parking, waking and the contended lock.
                    let merger = &cells[0];
                    let poll = StepCell {
                        name: "merger8.poll",
                        spec: merger.spec.clone(),
                        mode: merger.mode,
                    };
                    let r = stepping::run_cell(&poll, lookup(w, poll.name), cfg, &mut quiet);
                    let poll_ns = quiet_ns_per_op(r);
                    put("runtime.port.poll_ns_per_op", poll_ns);
                    put(
                        "runtime.engine.wake_ns",
                        summary.cell(merger.name).wall_ns_per_op - poll_ns,
                    );
                } else {
                    put("runtime.partition.regions", sum_gauge(plain, |g| g.regions));
                    put("runtime.partition.links", sum_gauge(plain, |g| g.links));
                    put(
                        "runtime.partition.values_per_batch",
                        counts.batched_values as f64 / counts.batch_moves.max(1) as f64,
                    );
                    put("runtime.partition.kicks_per_op", per_op(counts.kicks));
                    put("runtime.partition.locks_per_op", per_op(counts.locks));
                    // link = `burst` under partitioned minus the same
                    // connector under jit, where the deep fifo is engine
                    // state and no link exists.
                    let burst = &cells[1];
                    let single =
                        duo_cell("burst8.jit", burst.spec.clone(), ModeName::Jit, burst.kind);
                    let r = duo::run_cell(&single, lookup(w, single.name), cfg, &mut quiet);
                    put(
                        "runtime.partition.link_ns",
                        summary.cell(burst.name).wall_ns_per_op - quiet_ns_per_op(r),
                    );
                }
            }
            Runner::Stepping(cells) => {
                engine_counters(&mut put, counts, ops, plain);
                let poll_ns = 1e9 / summary.ops_per_s();
                put("runtime.port.poll_ns_per_op", poll_ns);
                // The stepping core alone, through `stepping_run`: it
                // counts completed boundary operations, of which one
                // exchange makes `completions / ops`.
                let window = Duration::from_secs_f64(if cfg.quick { 0.005 } else { 0.1 });
                let mut core_ns = [Vec::new(), Vec::new()];
                let mut lock_port_ns = Vec::new();
                for cell in cells {
                    let program = reo::dsl::parse_program(&cell.spec.source)
                        .expect("the cell opened, so its source parses");
                    let sizes: Vec<(&str, usize)> = cell
                        .spec
                        .sizes
                        .iter()
                        .map(|(p, n)| (p.as_str(), *n))
                        .collect();
                    let (slot, mode) = match cell.mode {
                        ModeName::Compiled => (1, SteppingMode::Compiled),
                        _ => (0, SteppingMode::Jit),
                    };
                    let t = std::time::Instant::now();
                    let r = stepping_run(
                        &program,
                        &cell.spec.def,
                        &sizes,
                        mode,
                        Limits::default(),
                        window,
                    )
                    .expect("stepping_run on a cell that opened");
                    let ns_per_completion = t.elapsed().as_nanos() as f64 / r.ops.max(1) as f64;
                    let cell_run = plain[0]
                        .cells
                        .iter()
                        .find(|c| c.name == cell.name)
                        .expect("cell ran");
                    let completions_per_op =
                        cell_run.counts.completions as f64 / cell_run.ops as f64;
                    core_ns[slot].push(ns_per_completion * completions_per_op);
                    // lock + port = the poll-driven exchange minus the bare
                    // stepping of the same connector.
                    lock_port_ns.push(
                        summary.cell(cell.name).wall_ns_per_op
                            - ns_per_completion * completions_per_op,
                    );
                }
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                put("runtime.stepping.jit_ns_per_op", mean(&core_ns[0]));
                put("runtime.stepping.compiled_ns_per_op", mean(&core_ns[1]));
                put("runtime.engine.lock_port_ns", mean(&lock_port_ns));
            }
            Runner::ColdOpen(cells) => {
                const STAGES: [&str; 10] = [
                    "dsl.parse",
                    "core.compile",
                    "core.instantiate",
                    "automata.product",
                    "automata.lower",
                    "runtime.compiled_core",
                    "runtime.partition",
                    "runtime.build",
                    "runtime.connect",
                    "runtime.first_value",
                ];
                let mut ledger = tr.fork(0);
                let reps = if cfg.quick { 1 } else { 5 };
                let mut sizes = cold_open::StageSizes::default();
                // Per stage, the sum over the cells of the stage's time on
                // that cell: the fastest of the repetitions, as everywhere.
                let mut stage_ns = [0.0; STAGES.len()];
                let mut tables_ns = 0.0;
                let mut unaccounted = Vec::new();
                for (i, cell) in cells.iter().enumerate() {
                    // Apart from the op ids of the epochs' opens.
                    let op = LEDGER_OPS + i as u64;
                    let first_span = ledger.spans.len();
                    for rep in 0..reps {
                        // A refusal was already counted in the epochs.
                        if let Ok(s) = cold_open::replay_stages(cell, &mut ledger, op) {
                            if rep == 0 {
                                sizes.add(s);
                            }
                        }
                        let _ = cold_open::open_once(cell, cfg.salt(), None, &mut ledger, op);
                    }
                    let fastest = STAGES.map(|name| {
                        ledger.spans[first_span..]
                            .iter()
                            .filter(|s| s.name == name)
                            .map(|s| (s.end_ns - s.start_ns) as f64)
                            .reduce(f64::min)
                            .unwrap_or(0.0)
                    });
                    let [_, compile, instantiate, product, lower, core, partition, build, connect, _] =
                        fastest;
                    // The runtime's dispatch tables: what building the
                    // compiled core takes beyond product and lowering.
                    let tables = (core - product - lower).max(0.0);
                    tables_ns += tables;
                    for (total, ns) in stage_ns.iter_mut().zip(fastest) {
                        *total += ns;
                    }
                    if build + connect > 0.0 {
                        let accounted =
                            compile + instantiate + product + lower + tables + partition;
                        unaccounted.push(1.0 - accounted / (build + connect));
                    }
                }
                // Mean over the cells, each opened equally often: the
                // stage means add up to the mean open.
                let per_open_us = |ns: f64| ns / cells.len().max(1) as f64 / 1e3;
                for (name, ns) in STAGES.iter().zip(stage_ns) {
                    match *name {
                        "runtime.compiled_core" => {
                            put("runtime.compiled.tables_us", per_open_us(tables_ns))
                        }
                        "runtime.partition" => put("runtime.partition.build_us", per_open_us(ns)),
                        name => put(&format!("{name}_us"), per_open_us(ns)),
                    }
                }
                put(
                    "runtime.open_unaccounted_share",
                    if unaccounted.is_empty() {
                        0.0
                    } else {
                        median(&unaccounted)
                    },
                );
                tr.absorb(ledger);
                put("core.templates", sizes.templates as f64);
                put("core.constituents", sizes.constituents as f64);
                put("automata.product_states", sizes.product_states as f64);
                put(
                    "automata.product_transitions",
                    sizes.product_transitions as f64,
                );
            }
            Runner::Npb => {
                put("npb.comm.bcast_us", span_mean_us(tr, "npb.comm.bcast"));
                put("npb.comm.gather_us", span_mean_us(tr, "npb.comm.gather"));
                put(
                    "npb.comm.recv_bcast_us",
                    span_mean_us(tr, "npb.comm.recv_bcast"),
                );
                put(
                    "npb.comm.send_master_us",
                    span_mean_us(tr, "npb.comm.send_master"),
                );
                let sum = |name: &str| tr.durations(name).iter().sum::<f64>();
                put(
                    "npb.comm_share",
                    (sum("npb.comm.bcast") + sum("npb.comm.gather")) / sum("driver.op").max(1.0),
                );
                put("npb.connect_us", span_mean_us(tr, "runtime.connect"));
                put("npb.steps_per_run", per_op(counts.steps));
                put("runtime.engine.steps_per_op", per_op(counts.steps));
                let (hand_s, seq_s) = npb::baselines(if cfg.quick { 1 } else { 5 });
                let reo_s = 1.0 / summary.ops_per_s();
                put("npb.handwritten_op_us", hand_s * 1e6);
                put("npb.sequential_op_us", seq_s * 1e6);
                put("npb.overhead_ratio", reo_s / hand_s);
            }
        }
        out
    }
}

/// Op ids of the `cold_open` ledger pass start here.
const LEDGER_OPS: u64 = 1 << 32;

/// Quiet per-op wall time of one extra drive.
fn quiet_ns_per_op(run: CellRun) -> f64 {
    Summary::of(&[Epoch { cells: vec![run] }]).cells[0].wall_ns_per_op
}

fn sum_gauge(epochs: &[Epoch], f: impl Fn(&crate::session::Gauges) -> u64) -> f64 {
    epochs[0].cells.iter().map(|c| f(&c.gauges)).sum::<u64>() as f64
}

/// Engine and cache counters over the measured phases, per op.
fn engine_counters(put: &mut impl FnMut(&str, f64), c: Counts, ops: u64, plain: &[Epoch]) {
    let per_op = |count: u64| count as f64 / ops as f64;
    put("runtime.engine.steps_per_op", per_op(c.steps));
    put("runtime.engine.locks_per_op", per_op(c.locks));
    put("runtime.engine.wakeups_per_op", per_op(c.wakeups));
    put("runtime.engine.waker_wakes_per_op", per_op(c.waker_wakes));
    put(
        "runtime.engine.spurious_share",
        c.spurious as f64 / c.wakeups.max(1) as f64,
    );
    put(
        "runtime.cache.resident_states",
        sum_gauge(plain, |g| g.resident),
    );
    put(
        "runtime.cache.miss_share",
        c.cache_misses as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
    );
    // The same counters cell by cell, for the reader of the ledger.
    for cell in &plain[0].cells {
        let k = cell.counts;
        let per_op = |count: u64| count as f64 / cell.ops as f64;
        println!(
            "# {:<20} per op: steps={:.3} locks={:.3} wakeups={:.3} waker_wakes={:.3} kicks={:.3} \
             values_per_batch={:.2} regions={} links={}",
            cell.name,
            per_op(k.steps),
            per_op(k.locks),
            per_op(k.wakeups),
            per_op(k.waker_wakes),
            per_op(k.kicks),
            k.batched_values as f64 / k.batch_moves.max(1) as f64,
            cell.gauges.regions,
            cell.gauges.links,
        );
    }
}
