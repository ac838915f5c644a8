//! The shape every workload shares: a run is [`EPOCHS`] fresh epochs, an
//! epoch sets up each of the workload's cells and then measures a fixed
//! number of ops on it, the measured phases are cut into repeated pieces,
//! and every reported figure adds up the fastest sample of each piece.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use reo::runtime::ConnectorHandle;

use crate::session::{Counts, Gauges};
use crate::stats::{median, quantile, Histogram};
use crate::sys::process_cpu_time;

/// Fresh sessions per run: five set-ups to take the fastest of, and five
/// stretches of a few seconds for each piece's samples to come from.
pub const EPOCHS: usize = 5;

/// The `--seconds` value the op counts in `sizing.rs` are written for.
pub const REFERENCE_SECONDS: f64 = 15.0;

/// Every blocking call in the driver carries this deadline, so a hang
/// becomes failed ops, not a hung benchmark.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

/// A deliberate fault in the driver, to show that it turns into failed ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// One payload is corrupted on its way in.
    WrongValue,
    /// The sending side drops its ports half-way through the measured phase.
    DropPort,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub inject: Option<Inject>,
}

impl Config {
    /// Measured ops for a cell sized `at_reference` in `sizing.rs`.
    pub fn measured(&self, at_reference: u64) -> u64 {
        let scaled = at_reference as f64 * self.seconds / REFERENCE_SECONDS;
        self.quick_cut(scaled.round() as u64)
    }

    /// Warm-up ops: set-up work, so not scaled by `--seconds`.
    pub fn warmup(&self, at_reference: u64) -> u64 {
        self.quick_cut(at_reference)
    }

    fn quick_cut(&self, ops: u64) -> u64 {
        if self.quick {
            (ops / 100).max(1)
        } else {
            ops.max(1)
        }
    }

    /// [`SALT_BITS`] bits mixed into every payload, so inputs depend on
    /// the seed.
    pub fn salt(&self) -> i64 {
        (crate::rng::SplitMix64::new(self.seed).next_u64() & SALT_MASK as u64) as i64
    }

    /// The payload carrying sequence number `seq`.
    pub fn payload(&self, seq: u64) -> i64 {
        (seq as i64) << SALT_BITS | self.salt()
    }
}

/// A payload is a sequence number above this many bits of seed salt.
pub const SALT_BITS: u32 = 16;
pub const SALT_MASK: i64 = (1 << SALT_BITS) - 1;

/// One piece of work the measured phase repeats, with one sample per
/// repetition: a slice of `n` ops of a steady loop, the open of one
/// particular cell, one iteration of a CG run. Every sample of a piece
/// covers the same work, so the fastest ones show what that work costs
/// when the host leaves the program alone.
#[derive(Clone, Debug, Default)]
pub struct Piece {
    /// How many of this piece make up one op (a fraction for a slice of
    /// many ops).
    pub per_op: f64,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Median op time within each sample, where a sample covers many ops.
    pub p50_ns: Vec<f64>,
}

impl Piece {
    pub fn new(per_op: f64) -> Piece {
        Piece {
            per_op,
            ..Piece::default()
        }
    }

    pub fn push(&mut self, wall_s: f64, cpu_s: f64) {
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
    }
}

/// How a cell's median op time follows from its pieces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MedianOp {
    /// One piece, a slice of many ops: the quiet value of the slices'
    /// medians.
    #[default]
    OfSlices,
    /// One piece per kind of op: the median over the kinds of their quiet
    /// times.
    OverPieces,
    /// The pieces add up to the one kind of op there is: its quiet time.
    WholeOp,
}

/// Both clocks a sample is timed with.
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_cpu_time(),
            wall: Instant::now(),
        }
    }

    /// Wall and CPU seconds since the start or the last lap.
    pub fn lap(&mut self) -> (f64, f64) {
        let (wall, cpu) = (Instant::now(), process_cpu_time());
        let lap = (
            (wall - self.wall).as_secs_f64(),
            (cpu - self.cpu).as_secs_f64(),
        );
        (self.wall, self.cpu) = (wall, cpu);
        lap
    }
}

/// Cuts the measured phase of a steady loop into slices of a fixed number
/// of ops. The driver records each op's time and closes a slice every
/// `slice_ops` ops.
struct Slicer {
    current: Histogram,
    piece: Piece,
    /// Every op's time, over all slices.
    all: Histogram,
}

impl Slicer {
    fn new(slice_ops: u64) -> Slicer {
        Slicer {
            current: Histogram::default(),
            piece: Piece::new(1.0 / slice_ops as f64),
            all: Histogram::default(),
        }
    }

    fn latency(&mut self, ns: u64) {
        self.current.record(ns);
    }

    fn close(&mut self, wall_s: f64, cpu_s: f64) {
        self.piece.push(wall_s, cpu_s);
        self.piece
            .p50_ns
            .push(self.current.quantile(0.5).unwrap_or(0.0));
        self.all.merge(&self.current);
        self.current.clear();
    }
}

/// Slices per measured phase of a steady loop: 3 to 30 ms each.
pub const SLICES: u64 = 64;

/// The measured phase of a steady loop as the driving thread sees it: the
/// whole window (time, CPU time, counter deltas) and the slices it is cut
/// into.
pub struct Window {
    t0: Instant,
    cpu0: Duration,
    counts0: Counts,
    watch: Stopwatch,
    slicer: Slicer,
    /// Calls of the driving thread per slice.
    slice_calls: u64,
    calls: u64,
}

impl Window {
    /// Open the window for `measured_calls` calls of the driving thread,
    /// each standing for `ops_per_call` ops.
    pub fn open(handle: &ConnectorHandle, measured_calls: u64, ops_per_call: u64) -> Window {
        let slice_calls = (measured_calls / SLICES).max(1);
        Window {
            counts0: Counts::read(handle),
            cpu0: process_cpu_time(),
            slicer: Slicer::new(slice_calls * ops_per_call),
            slice_calls,
            calls: 0,
            t0: Instant::now(),
            watch: Stopwatch::start(),
        }
    }

    /// One call completed; `latency_ns` is its op's time if the op was good.
    pub fn op(&mut self, latency_ns: Option<u64>) {
        if let Some(ns) = latency_ns {
            self.slicer.latency(ns);
        }
        self.calls += 1;
        if self.calls.is_multiple_of(self.slice_calls) {
            let (wall, cpu) = self.watch.lap();
            self.slicer.close(wall, cpu);
        }
    }

    pub fn close(self, handle: &ConnectorHandle, run: &mut CellRun) {
        run.measured_s = self.t0.elapsed().as_secs_f64();
        run.cpu_s = (process_cpu_time() - self.cpu0).as_secs_f64();
        run.counts = Counts::read(handle).since(self.counts0);
        run.take_slices(self.slicer);
    }
}

/// One cell of one epoch: a fresh session, set up, then measured.
#[derive(Default)]
pub struct CellRun {
    pub name: String,
    /// Measured ops attempted.
    pub ops: u64,
    pub failed: u64,
    /// From the cell's start to its first measured op.
    pub setup_s: f64,
    /// The whole measured phase, wall and process CPU time.
    pub measured_s: f64,
    pub cpu_s: f64,
    /// What the measured phase repeated; the same pieces in the same
    /// order in every epoch.
    pub pieces: Vec<Piece>,
    pub median_op: MedianOp,
    /// Per-op times of the measured phase, in nanoseconds.
    pub latency: Histogram,
    /// Counter deltas over the measured phase.
    pub counts: Counts,
    pub gauges: Gauges,
    /// The first failure, for the report.
    pub error: Option<String>,
}

impl CellRun {
    /// A cell that could not be set up: every op it would have made failed.
    pub fn refused(name: &str, ops: u64, setup_s: f64, error: String) -> CellRun {
        CellRun {
            name: name.to_string(),
            ops,
            failed: ops,
            setup_s,
            // Never 0, so rates stay finite.
            measured_s: f64::MIN_POSITIVE,
            error: Some(error),
            ..CellRun::default()
        }
    }

    /// A cell of a steady loop, just connected.
    pub fn connected(name: &str, ops: u64, handle: &ConnectorHandle) -> CellRun {
        CellRun {
            name: name.to_string(),
            ops,
            gauges: Gauges {
                regions: handle.region_count() as u64,
                links: handle.link_count() as u64,
                ..Gauges::default()
            },
            ..CellRun::default()
        }
    }

    /// Ops past the last full slice were measured but are in no slice;
    /// their times still count for the percentiles.
    fn take_slices(&mut self, mut slicer: Slicer) {
        slicer.all.merge(&slicer.current);
        self.pieces = vec![slicer.piece];
        self.median_op = MedianOp::OfSlices;
        self.latency = slicer.all;
    }
}

pub struct Epoch {
    pub cells: Vec<CellRun>,
}

impl Epoch {
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_s).sum()
    }

    pub fn measured_s(&self) -> f64 {
        self.cells.iter().map(|c| c.measured_s).sum()
    }

    pub fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }

    /// Ops over wall time of the whole measured phase, interference
    /// included: what this epoch looked like, not what is reported.
    pub fn raw_ops_per_s(&self) -> f64 {
        (self.ops() - self.failed()) as f64 / self.measured_s()
    }

    /// Per-op times over every cell's measured phase, in nanoseconds.
    pub fn latency(&self) -> Histogram {
        let mut all = Histogram::default();
        for c in &self.cells {
            all.merge(&c.latency);
        }
        all
    }

    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for c in &self.cells {
            total.add(c.counts);
        }
        total
    }
}

/// Which of a piece's samples are taken to be undisturbed. Other tenants
/// of this shared host only ever slow the program down, for stretches of
/// a few milliseconds up to ten seconds (a fixed pure-CPU loop ran 45 %
/// slower for 14 s on end while the benchmark was written), so the fast
/// end of the samples is the program's own speed and the median is the
/// neighbours'. Measured over ten runs per workload, the spread between
/// runs was 2-4 % for the fastest sample, 8-12 % for the fastest tenth
/// and 21-30 % for the median.
pub const QUIET_QUANTILE: f64 = 0.0;

/// One cell over a whole run: each piece's samples pooled over the
/// epochs, the quiet quantile taken per piece, and the pieces added up.
pub struct CellSummary {
    pub name: String,
    /// Measured ops per epoch.
    pub ops: u64,
    /// Samples behind the figures, over all pieces.
    pub samples: usize,
    pub wall_ns_per_op: f64,
    pub cpu_ns_per_op: f64,
    pub p50_ns: f64,
}

impl CellSummary {
    pub fn ops_per_s(&self) -> f64 {
        1e9 / self.wall_ns_per_op
    }
}

pub fn summarize(epochs: &[Epoch], q: f64) -> Vec<CellSummary> {
    let Some(first) = epochs.first() else {
        return Vec::new();
    };
    first
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let runs: Vec<&CellRun> = epochs.iter().filter_map(|e| e.cells.get(i)).collect();
            // Piece `k` of every epoch, pooled.
            let pooled: Vec<Piece> = (0..cell.pieces.len())
                .map(|k| {
                    let mut all = Piece::new(cell.pieces[k].per_op);
                    for p in runs.iter().filter_map(|r| r.pieces.get(k)) {
                        all.wall_s.extend(&p.wall_s);
                        all.cpu_s.extend(&p.cpu_s);
                        all.p50_ns.extend(&p.p50_ns);
                    }
                    all
                })
                .collect();
            let samples: usize = pooled.iter().map(|p| p.wall_s.len()).sum();
            if pooled.iter().any(|p| p.wall_s.is_empty()) {
                // A refused cell, or a phase shorter than one sample (a
                // `--quick` run): fall back on the whole measured phase.
                let whole = |f: &dyn Fn(&CellRun) -> f64| {
                    median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
                };
                return CellSummary {
                    name: cell.name.clone(),
                    ops: cell.ops,
                    samples,
                    wall_ns_per_op: whole(&|r| r.measured_s * 1e9 / r.ops.max(1) as f64),
                    cpu_ns_per_op: whole(&|r| r.cpu_s * 1e9 / r.ops.max(1) as f64),
                    p50_ns: whole(&|r| r.latency.quantile(0.5).unwrap_or(0.0)),
                };
            }
            let wall_ns_per_op: f64 = pooled
                .iter()
                .map(|p| p.per_op * quantile(&p.wall_s, q) * 1e9)
                .sum();
            CellSummary {
                name: cell.name.clone(),
                ops: cell.ops,
                samples,
                wall_ns_per_op,
                cpu_ns_per_op: pooled
                    .iter()
                    .map(|p| p.per_op * quantile(&p.cpu_s, q) * 1e9)
                    .sum(),
                p50_ns: match cell.median_op {
                    MedianOp::OfSlices => quantile(&pooled[0].p50_ns, q),
                    MedianOp::OverPieces => median(
                        &pooled
                            .iter()
                            .map(|p| quantile(&p.wall_s, q) * 1e9)
                            .collect::<Vec<_>>(),
                    ),
                    MedianOp::WholeOp => wall_ns_per_op,
                },
            }
        })
        .collect()
}

/// A workload's figures from its cells': total ops over total time, and
/// per-op figures weighted by each cell's share of the ops. The per-cell
/// rates are reported beside them so that a loss in one cell is not
/// averaged away.
pub struct Summary {
    pub cells: Vec<CellSummary>,
}

impl Summary {
    pub fn of(epochs: &[Epoch]) -> Summary {
        Summary::at(epochs, QUIET_QUANTILE)
    }

    pub fn at(epochs: &[Epoch], q: f64) -> Summary {
        Summary {
            cells: summarize(epochs, q),
        }
    }

    fn per_op(&self, f: impl Fn(&CellSummary) -> f64) -> f64 {
        let ops: u64 = self.cells.iter().map(|c| c.ops).sum();
        self.cells.iter().map(|c| c.ops as f64 * f(c)).sum::<f64>() / ops.max(1) as f64
    }

    pub fn ops_per_s(&self) -> f64 {
        1e9 / self.per_op(|c| c.wall_ns_per_op)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.per_op(|c| c.cpu_ns_per_op) / 1e3
    }

    pub fn op_p50_us(&self) -> f64 {
        self.per_op(|c| c.p50_ns) / 1e3
    }

    pub fn cell(&self, name: &str) -> &CellSummary {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no cell `{name}` in this run"))
    }
}

/// Per-layer metrics a traced run measured, by name.
pub type Layers = BTreeMap<String, f64>;
