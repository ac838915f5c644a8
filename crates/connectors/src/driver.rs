//! Benchmark driver: the no-compute tasks of the paper's connector
//! benchmarks (Sect. V-B).
//!
//! "As we wanted to study the performance of the generated code, the tasks
//! performed no computations; every task just tried to send and receive as
//! often as possible." Each driven port gets one thread spinning on its
//! operation until the connector is closed; the run lasts a fixed wall-clock
//! window, and the metric is the number of global execution steps the
//! connector made.
//!
//! Besides step counts, every driver thread records the wall-clock latency
//! of each successful port operation into a log-bucketed
//! [`LatencyHistogram`]; the merged per-cell histogram is summarized as
//! p50/p95/p99 in [`RunOutcome::latency`], so scheduler improvements show
//! up as *tail-latency* wins, not only as throughput.

use std::sync::Arc;
use std::time::{Duration, Instant};

use reo_core::ir::Program;
use reo_runtime::{Connector, ConnectorHandle, Limits, Mode, RuntimeError};

use crate::families::{Family, Role};

/// A log₂-bucketed latency histogram with **four linear sub-buckets per
/// power of two** (HdrHistogram-style: two mantissa bits after the
/// leading one), cheap enough to update on every port operation of a
/// spinning driver. Quantiles are resolved to the upper bound of the
/// containing sub-bucket, so they are exact to within a factor of
/// `5/4 = 1.25` — tight enough that a p99 regression of 30 % cannot hide
/// inside one bucket, where the earlier pure-log₂ buckets were only
/// exact to 2×.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; Self::BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; Self::BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Mantissa bits kept after the leading one: `2^SUB_BITS` linear
    /// sub-buckets per log₂ bucket.
    const SUB_BITS: u32 = 2;
    const SUB: usize = 1 << Self::SUB_BITS;
    /// 0–3 ns exact, then 4 sub-buckets for each exponent up to 2⁶³.
    const BUCKETS: usize = 64 * Self::SUB;

    /// Sub-bucket index of a nanosecond value. Values below `SUB` get
    /// exact singleton buckets; above, the index packs
    /// `(exponent, top two mantissa bits)`, so consecutive buckets'
    /// bounds are `2^e · {4,5,6,7,8}/4` — a 1.25× ratio.
    fn index(ns: u64) -> usize {
        if ns < Self::SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // ≥ SUB_BITS
        let sub = ((ns >> (exp - Self::SUB_BITS)) & (Self::SUB as u64 - 1)) as usize;
        (exp - Self::SUB_BITS + 1) as usize * Self::SUB + sub
    }

    /// Inclusive upper bound (in nanoseconds) of bucket `i` — what
    /// quantiles resolve to.
    fn upper_bound_ns(i: usize) -> u64 {
        if i < Self::SUB {
            return i as u64 + 1;
        }
        let exp = (i / Self::SUB) as u32 + Self::SUB_BITS - 1;
        let sub = (i % Self::SUB) as u64;
        let step = 1u64 << (exp - Self::SUB_BITS);
        // The top sub-buckets' bound exceeds u64 — saturate, they only
        // ever hold `Duration`s that were clamped to u64::MAX anyway.
        (1u64 << exp).saturating_add((sub + 1) * step)
    }

    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Recorded operations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in microseconds — the upper bound
    /// of the sub-bucket containing that rank (within 1.25× of the true
    /// value). `None` if nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::upper_bound_ns(k) as f64 / 1e3);
            }
        }
        None
    }
}

/// Per-cell latency digest (see [`LatencyHistogram`] for precision).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Successful port operations measured.
    pub ops: u64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

impl LatencySummary {
    fn from_histogram(h: &LatencyHistogram) -> Option<Self> {
        Some(LatencySummary {
            ops: h.count(),
            p50_us: h.quantile_us(0.50)?,
            p95_us: h.quantile_us(0.95)?,
            p99_us: h.quantile_us(0.99)?,
        })
    }
}

/// Result of one measured cell.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Global execution steps within the window.
    pub steps: u64,
    /// Wall time actually spent connecting (composition work).
    pub connect_time: Duration,
    /// Whether construction failed (the "existing approach fails" cells).
    pub failure: Option<String>,
    /// Engine contention counters at the end of the window (wakeups,
    /// spurious wakeups, lock acquisitions, completions, scheduler
    /// kicks) — `None` for failed runs. The `scale` harness builds
    /// on these.
    pub stats: Option<reo_runtime::EngineStats>,
    /// No-compute task threads this driver actually spawned (0 when
    /// construction failed before any spawn).
    pub threads: usize,
    /// Per-operation latency percentiles merged over all driver threads —
    /// `None` for failed runs or when no operation completed.
    pub latency: Option<LatencySummary>,
}

impl RunOutcome {
    pub fn failed(msg: String, connect_time: Duration) -> Self {
        RunOutcome {
            steps: 0,
            connect_time,
            failure: Some(msg),
            stats: None,
            threads: 0,
            latency: None,
        }
    }

    pub fn steps_per_sec(&self, window: Duration) -> f64 {
        self.steps as f64 / window.as_secs_f64()
    }
}

/// Compile (untimed) + connect (timed) + drive for `window`.
///
/// Returns the steps the connector made. Any construction error becomes a
/// failure outcome rather than a panic, so the harness can tabulate it.
pub fn drive(
    program: &Program,
    family: &Family,
    n: usize,
    mode: Mode,
    window: Duration,
) -> RunOutcome {
    drive_with_limits(program, family, n, mode, window, Limits::default())
}

/// Like [`drive`], with explicit composition/expansion budgets (the harness
/// uses small budgets so failure cells fail fast).
pub fn drive_with_limits(
    program: &Program,
    family: &Family,
    n: usize,
    mode: Mode,
    window: Duration,
    limits: Limits,
) -> RunOutcome {
    let connector = match Connector::builder(program, family.def)
        .mode(mode)
        .limits(limits)
        .build()
    {
        Ok(c) => c,
        Err(e) => return RunOutcome::failed(e.to_string(), Duration::ZERO),
    };
    let sizes = (family.sizes)(n);
    let start = Instant::now();
    let mut session = match connector.session().replicate_all(&sizes).connect() {
        Ok(c) => c,
        Err(e) => return RunOutcome::failed(e.to_string(), start.elapsed()),
    };
    let connect_time = start.elapsed();
    let handle = session.handle();

    // Port acquisition is fallible now; a family spec naming a missing
    // parameter becomes a tabulated failure, not a crash. Every thread
    // returns its local latency histogram when the connector closes.
    let mut threads: Vec<std::thread::JoinHandle<LatencyHistogram>> = Vec::new();
    let spawn_result = (|| -> Result<(), reo_runtime::RuntimeError> {
        for (param, role) in family.drivers {
            match role {
                Role::Send => {
                    for port in session.typed_outports::<i64>(param)? {
                        threads.push(std::thread::spawn(move || {
                            let mut hist = LatencyHistogram::default();
                            let mut k: i64 = 0;
                            loop {
                                let t0 = Instant::now();
                                if port.send(k).is_err() {
                                    return hist;
                                }
                                hist.record(t0.elapsed());
                                k += 1;
                            }
                        }));
                    }
                }
                Role::Recv => {
                    for port in session.inports(param)? {
                        threads.push(std::thread::spawn(move || {
                            let mut hist = LatencyHistogram::default();
                            loop {
                                let t0 = Instant::now();
                                if port.recv().is_err() {
                                    return hist;
                                }
                                hist.record(t0.elapsed());
                            }
                        }));
                    }
                }
            }
        }
        for (acq, rel) in family.paired_sends {
            let acquires = session.typed_outports::<()>(acq)?;
            let releases = session.typed_outports::<()>(rel)?;
            for (a, r) in acquires.into_iter().zip(releases) {
                threads.push(std::thread::spawn(move || {
                    let mut hist = LatencyHistogram::default();
                    loop {
                        let t0 = Instant::now();
                        if a.send(()).is_err() {
                            return hist;
                        }
                        hist.record(t0.elapsed());
                        let t0 = Instant::now();
                        if r.send(()).is_err() {
                            return hist;
                        }
                        hist.record(t0.elapsed());
                    }
                }));
            }
        }
        Ok(())
    })();
    if let Err(e) = spawn_result {
        handle.close();
        for t in threads {
            let _ = t.join();
        }
        return RunOutcome::failed(e.to_string(), connect_time);
    }

    std::thread::sleep(window);
    // One snapshot for the whole cell (tasks are still firing): steps is
    // read out of the same stats so the counters stay consistent with each
    // other. Taken before close() adds its final wake-everyone burst.
    let stats = handle.stats();
    let steps = stats.steps;
    handle.close();
    let spawned = threads.len();
    let mut hist = LatencyHistogram::default();
    for t in threads {
        hist.merge(&t.join().expect("driver thread panicked"));
    }
    // Poisoned engines (e.g. expansion overflow mid-run) count as failures.
    let failure = probe_poisoned(&handle);
    RunOutcome {
        steps,
        connect_time,
        failure,
        stats: Some(stats),
        threads: spawned,
        latency: LatencySummary::from_histogram(&hist),
    }
}

fn probe_poisoned(handle: &ConnectorHandle) -> Option<String> {
    handle.poison_message()
}

/// Spawn-and-drive with a shared, pre-parsed program (used by criterion).
pub fn drive_family(family: &Family, n: usize, mode: Mode, window: Duration) -> RunOutcome {
    let program = family.program();
    drive(&program, family, n, mode, window)
}

/// A quick semantic smoke test used by integration tests: run briefly and
/// require at least `min_steps` global steps (progress/liveness).
pub fn assert_progress(family: &Family, n: usize, mode: Mode, min_steps: u64) {
    let outcome = drive_family(family, n, mode, Duration::from_millis(120));
    assert!(
        outcome.failure.is_none(),
        "{} at n={n}: {}",
        family.name,
        outcome.failure.unwrap()
    );
    assert!(
        outcome.steps >= min_steps,
        "{} at n={n}: only {} steps",
        family.name,
        outcome.steps
    );
}

/// Helper for tests that need raw handles without the spin drivers.
pub fn connect_only(
    family: &Family,
    n: usize,
    mode: Mode,
) -> Result<(reo_runtime::Session, Arc<Program>), RuntimeError> {
    let program = Arc::new(family.program());
    let connector = Connector::builder(&program, family.def)
        .mode(mode)
        .build()?;
    let session = connector
        .session()
        .replicate_all(&(family.sizes)(n))
        .connect()?;
    Ok((session, program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::families;

    fn family(name: &str) -> Family {
        families().into_iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn merger_makes_progress_in_both_approaches() {
        for mode in [Mode::jit(), Mode::existing()] {
            assert_progress(&family("merger"), 3, mode, 10);
        }
    }

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        for _ in 0..90 {
            h.record(Duration::from_nanos(900)); // sub-bucket [896, 1024) → 1.024 µs
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(100)); // sub-bucket [98304, 114688)
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        assert!(p50 <= 1.1, "p50 {p50} µs should sit in the sub-µs bucket");
        assert!(p99 >= 100.0, "p99 {p99} µs must see the slow tail");
        assert!(
            p99 <= 100.0 * 1.25,
            "p99 {p99} µs exceeds the 1.25x sub-bucket bound"
        );
        // Merging two histograms adds counts bucket-wise.
        let mut h2 = LatencyHistogram::default();
        h2.record(Duration::from_nanos(900));
        h2.merge(&h);
        assert_eq!(h2.count(), 101);
    }

    /// Satellite: the linear sub-buckets bound every quantile by 1.25×
    /// of the recorded value (the pure-log₂ scheme was only exact to
    /// 2×), across the whole dynamic range.
    #[test]
    fn latency_histogram_sub_buckets_are_exact_to_a_quarter() {
        for ns in [
            1u64, 3, 4, 5, 7, 9, 100, 900, 4096, 5000, 123_456, 10_000_000,
        ] {
            let mut h = LatencyHistogram::default();
            h.record(Duration::from_nanos(ns));
            let q = h.quantile_us(1.0).unwrap() * 1e3; // back to ns
            assert!(q > ns as f64, "upper bound must exceed the value: {ns}");
            assert!(
                q <= ns as f64 * 1.25 + 1.0,
                "bound {q} too loose for {ns} ns"
            );
        }
        // Adjacent values land in distinct sub-buckets once they differ
        // by more than 25 %.
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(4000));
        h.record(Duration::from_nanos(5200));
        assert!(h.quantile_us(0.25).unwrap() < h.quantile_us(1.0).unwrap());
    }

    #[test]
    fn driven_cells_report_latency_percentiles() {
        let outcome = drive_family(&family("merger"), 2, Mode::jit(), Duration::from_millis(80));
        assert!(outcome.failure.is_none());
        let lat = outcome.latency.expect("successful run records latency");
        assert!(lat.ops > 0);
        assert!(lat.p50_us <= lat.p95_us && lat.p95_us <= lat.p99_us);
    }

    #[test]
    fn sequencer_clients_complete_in_rotation() {
        // Round-robin enabling: with the token starting at client 1 (index
        // 0), the sequence 0,1,0,1 completes from a single thread — which
        // is only possible if each send is enabled exactly in turn.
        let (mut connected, _prog) = connect_only(&family("sequencer"), 2, Mode::jit()).unwrap();
        let clients = connected.typed_outports::<()>("t").unwrap();
        for _ in 0..2 {
            clients[0].send(()).unwrap();
            clients[1].send(()).unwrap();
        }
        assert!(connected.handle().steps() >= 4);
    }

    #[test]
    fn sequencer_blocks_out_of_turn_client() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut connected, _prog) = connect_only(&family("sequencer"), 2, Mode::jit()).unwrap();
        let mut clients = connected.typed_outports::<()>("t").unwrap();
        let c1 = clients.pop().unwrap();
        let c0 = clients.pop().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            let _ = c1.send(()); // out of turn: must block
            flag.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            !done.load(Ordering::SeqCst),
            "client 2 completed before client 1 took its turn"
        );
        c0.send(()).unwrap();
        t.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn lock_run_is_live() {
        assert_progress(&family("lock"), 4, Mode::jit(), 8);
    }

    #[test]
    fn ordered_family_is_live_in_all_modes() {
        for &(_, mode) in Mode::grid() {
            assert_progress(&family("ordered"), 3, mode, 6);
        }
    }
}
