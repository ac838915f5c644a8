//! `npb`: Fig. 13. An op is one verified CG class-S run with four slaves
//! over `ReoComm::new(4, Mode::jit())`, a fresh connector per op, `zeta`
//! checked against the official value. This is `handoff` with real
//! compute between operations, vector payloads (1,400 floats cloned
//! through a replicator) and the master–slaves protocol.
//!
//! It is the one workload with more threads than cores (master + 4
//! slaves): the run is serial under one engine lock, so one core is busy
//! (CPU time per op equals wall time per op). n=2 is not a cell because
//! there the connector is a few percent of the run and the workload would
//! measure the CG kernel.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reo::npb::cg::{self, Csr};
use reo::npb::{CgClass, Comm, HandWritten, ReoComm};
use reo::{Mode, Value};

use crate::run::{CellRun, Config, Epoch, Inject, MedianOp, Piece, Stopwatch, Summary};
use crate::sizing::Size;
use crate::sys::process_cpu_time;
use crate::trace::Trace;

pub const SLAVES: usize = 4;
pub const CELL: &str = "cg-S-4";

/// A run has no blocking call of the driver's own to put a deadline on,
/// so the whole run gets one: past it the connector is closed, which
/// releases every task, and the op has failed.
const RUN_DEADLINE: Duration = Duration::from_secs(20);

/// [`Comm`] that watches the protocol from outside, through the public
/// trait, and delegates. It marks the time of every broadcast — CG makes
/// 417 per run, 26 per inner solve, which is what lets a 0.4 s op be
/// measured in pieces — and, in a traced epoch, records a span around
/// every call. One recorder per role (master, then
/// each slave), so recording never contends.
pub struct Observed {
    inner: Arc<dyn Comm>,
    /// Wall and CPU clock at each `bcast`, in call order.
    marks: Mutex<Vec<(Instant, Duration)>>,
    /// `[master, slave 0, slave 1, ..]`.
    traces: Vec<Mutex<Trace>>,
    /// The op the calls belong to, and its root span.
    op: u64,
    root: u32,
}

impl Observed {
    pub fn new(inner: Arc<dyn Comm>, tr: &Trace, op: u64, root: u32) -> Arc<Observed> {
        let traces = (0..=inner.slaves())
            .map(|role| Mutex::new(tr.fork(role as u32)))
            .collect();
        Arc::new(Observed {
            inner,
            marks: Mutex::new(Vec::with_capacity(512)),
            traces,
            op,
            root,
        })
    }

    fn timed<R>(&self, role: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let mut tr = self.traces[role]
            .lock()
            .expect("a task panicked inside a comm call");
        tr.span(name, self.root, self.op, f)
    }

    /// Hand the spans to the caller's trace and return the marks.
    fn finish(&self, into: &mut Trace) -> Vec<(Instant, Duration)> {
        for t in &self.traces {
            let mut t = t.lock().expect("a task panicked inside a comm call");
            into.spans.append(&mut t.spans);
        }
        std::mem::take(&mut *self.marks.lock().expect("the master panicked inside bcast"))
    }
}

impl Comm for Observed {
    fn slaves(&self) -> usize {
        self.inner.slaves()
    }
    fn bcast(&self, v: Value) {
        self.marks
            .lock()
            .expect("the master panicked inside bcast")
            .push((Instant::now(), process_cpu_time()));
        self.timed(0, "npb.comm.bcast", || self.inner.bcast(v))
    }
    fn gather(&self) -> Vec<Value> {
        self.timed(0, "npb.comm.gather", || self.inner.gather())
    }
    fn recv_bcast(&self, id: usize) -> Value {
        self.timed(id + 1, "npb.comm.recv_bcast", || self.inner.recv_bcast(id))
    }
    fn send_master(&self, id: usize, payload: Value) {
        self.timed(id + 1, "npb.comm.send_master", || {
            self.inner.send_master(id, payload)
        })
    }
    // CG uses no pipeline; LU is not a workload (see README).
    fn send_next(&self, id: usize, v: Value) {
        self.inner.send_next(id, v)
    }
    fn recv_prev(&self, id: usize) -> Value {
        self.inner.recv_prev(id)
    }
    fn send_prev(&self, id: usize, v: Value) {
        self.inner.send_prev(id, v)
    }
    fn recv_next(&self, id: usize) -> Value {
        self.inner.recv_next(id)
    }
    fn close(&self) {
        self.inner.close()
    }
    fn steps(&self) -> u64 {
        self.inner.steps()
    }
}

/// Broadcasts per inner solve: `CGITMAX` iterations and the residual.
const SOLVE: usize = cg::CGITMAX + 1;

/// One verified run, in pieces: the 16 inner solves (26 broadcast-gather
/// iterations each, about 15 ms: long enough to hold the scheduler's
/// usual mix of cheap and dear iterations, short enough to fall between
/// a neighbour's bursts), and the two ends (connect and spawn before the
/// first broadcast, shutdown and join after the last).
pub struct RunSample {
    /// `(wall_s, cpu_s)` of each inner solve.
    pub solves: Vec<(f64, f64)>,
    pub ends: (f64, f64),
    pub steps: u64,
}

/// Run CG over `connect()`'s communication layer on a thread of its own
/// (so the deadline can be enforced) and verify `zeta`.
fn observed_run(
    a: &Arc<Csr>,
    class: &CgClass,
    connect: impl FnOnce() -> Result<Arc<dyn Comm>, String>,
    tr: &mut Trace,
    op: u64,
    sabotage: Option<Inject>,
) -> Result<RunSample, String> {
    let root = tr.begin("driver.op", 0, op);
    let begun = (Instant::now(), process_cpu_time());
    let result = tr
        .span("runtime.connect", root.id, op, connect)
        .and_then(|inner| {
            let comm = Observed::new(Arc::clone(&inner), tr, op, root.id);
            if sabotage == Some(Inject::DropPort) {
                // Closing the connector is what a dropped port amounts to
                // here: the ports live inside the communication layer.
                inner.close();
            }
            let zeta = guarded_run(a, class, comm.clone());
            let marks = comm.finish(tr);
            let ended = (Instant::now(), process_cpu_time());
            let zeta = zeta?
                + if sabotage == Some(Inject::WrongValue) {
                    1e-6
                } else {
                    0.0
                };
            if cg::verify(class, zeta) != Some(true) {
                return Err(format!("zeta {zeta:.13} failed verification"));
            }
            let (Some(first), Some(last)) = (marks.first(), marks.last()) else {
                return Err("the run made no broadcast".into());
            };
            let secs = |from: &(Instant, Duration), to: &(Instant, Duration)| {
                ((to.0 - from.0).as_secs_f64(), (to.1 - from.1).as_secs_f64())
            };
            let (head, tail) = (secs(&begun, first), secs(last, &ended));
            Ok(RunSample {
                solves: marks
                    .chunks(SOLVE)
                    .zip(marks.chunks(SOLVE).skip(1))
                    .map(|(this, next)| secs(&this[0], &next[0]))
                    .collect(),
                ends: (head.0 + tail.0, head.1 + tail.1),
                steps: inner.steps(),
            })
        });
    tr.end(root);
    result
}

/// One op: a fresh `ReoComm` connector, one verified run over it.
pub fn reo_run(
    a: &Arc<Csr>,
    class: &CgClass,
    tr: &mut Trace,
    op: u64,
    sabotage: Option<Inject>,
) -> Result<RunSample, String> {
    let connect = || {
        ReoComm::new(SLAVES, Mode::jit())
            .map(|c| c as Arc<dyn Comm>)
            .map_err(|e| format!("connect: {e}"))
    };
    observed_run(a, class, connect, tr, op, sabotage)
}

fn guarded_run(a: &Arc<Csr>, class: &CgClass, comm: Arc<Observed>) -> Result<f64, String> {
    let (tx, rx) = mpsc::channel();
    let (a, class) = (Arc::clone(a), *class);
    let for_run: Arc<dyn Comm> = comm.clone();
    let master = std::thread::spawn(move || {
        let _ = tx.send(cg::run_parallel(a, &class, for_run).zeta);
    });
    let outcome = rx.recv_timeout(RUN_DEADLINE);
    if outcome.is_err() {
        // Timed out, or the run panicked (its sender is gone): closing
        // releases every task still blocked on the connector.
        comm.close();
    }
    let joined = master.join();
    match (outcome, joined) {
        (Ok(zeta), Ok(())) => Ok(zeta),
        (_, Err(_)) => Err("the run panicked (connector failed under it)".into()),
        (Err(_), Ok(())) => Err(format!("run exceeded {RUN_DEADLINE:?}")),
    }
}

/// The pieces of `runs`: each inner solve by its position in the run,
/// then the ends. Positions are kept apart because they are not the same
/// work: on a fresh connector the first solve takes 90 to 170 ms against
/// 12 to 20 ms for the later ones, since it expands the JIT states.
fn pieces_of(runs: &[RunSample]) -> Vec<Piece> {
    let solves = runs.first().map_or(0, |r| r.solves.len());
    let mut pieces = vec![Piece::new(1.0); solves + 1];
    for r in runs {
        for (piece, &(wall, cpu)) in pieces.iter_mut().zip(&r.solves) {
            piece.push(wall, cpu);
        }
        pieces[solves].push(r.ends.0, r.ends.1);
    }
    pieces
}

/// One epoch: build the class matrix and make `warmup` unmeasured runs
/// (set-up), then `measured` runs.
pub fn epoch(size: &Size, cfg: &Config, tr: &mut Trace) -> CellRun {
    let start = Instant::now();
    let class = CgClass::S;
    let measured = cfg.measured(size.measured);
    let mut run = CellRun {
        name: CELL.to_string(),
        ops: measured,
        median_op: MedianOp::WholeOp,
        ..CellRun::default()
    };
    let setup = tr.begin("driver.setup", 0, 0);
    let a = Arc::new(tr.span("npb.class_matrix", setup.id, 0, || cg::class_matrix(&class)));
    let was_on = tr.on();
    tr.set_on(false);
    for k in 0..cfg.warmup(size.warmup) {
        if let Err(e) = reo_run(&a, &class, tr, k, None) {
            run.error.get_or_insert(format!("warm-up run: {e}"));
        }
    }
    tr.set_on(was_on);
    tr.end(setup);
    run.setup_s = start.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    let mut watch = Stopwatch::start();
    for k in 0..measured {
        let sabotage = cfg.inject.filter(|_| k == measured / 2);
        let outcome = reo_run(&a, &class, tr, k, sabotage);
        let (wall, cpu) = watch.lap();
        run.measured_s += wall;
        run.cpu_s += cpu;
        match outcome {
            Ok(sample) => {
                run.counts.steps += sample.steps;
                run.latency.record((wall * 1e9) as u64);
                samples.push(sample);
            }
            Err(e) => {
                run.failed += 1;
                run.error.get_or_insert(format!("run #{k}: {e}"));
            }
        }
    }
    run.pieces = pieces_of(&samples);
    run
}

/// The two bases the Reo-based run is compared with, in seconds per run:
/// the same tasks over hand-written channels, measured in the same pieces
/// as the Reo-based run, and the sequential kernel (fastest of `runs`).
/// Neither touches this repo's connector code, so neither may move with a
/// change to it.
pub fn baselines(runs: usize) -> (f64, f64) {
    let class = CgClass::S;
    let a = Arc::new(cg::class_matrix(&class));
    let mut quiet = Trace::new(false);
    let mut hand = Vec::new();
    let mut seq = f64::MAX;
    for k in 0..runs {
        let connect = || Ok(HandWritten::new(SLAVES) as Arc<dyn Comm>);
        hand.push(
            observed_run(&a, &class, connect, &mut quiet, k as u64, None)
                .expect("hand-written run verifies"),
        );
        let t = Instant::now();
        let r = cg::sequential::run_on_matrix(&a, &class);
        seq = seq.min(t.elapsed().as_secs_f64());
        assert_eq!(r.verified, Some(true), "sequential run failed verification");
    }
    let hand_run = CellRun {
        ops: runs as u64,
        pieces: pieces_of(&hand),
        median_op: MedianOp::WholeOp,
        ..CellRun::default()
    };
    let hand_s = Summary::of(&[Epoch {
        cells: vec![hand_run],
    }])
    .cells[0]
        .wall_ns_per_op
        / 1e9;
    (hand_s, seq)
}
