//! The stall watchdog: off-thread no-progress detection with a wait-for
//! snapshot.
//!
//! Opt-in via [`SessionSpec::watchdog`](crate::SessionSpec::watchdog). A
//! sampler thread holds only a [`Weak`] reference to the session's
//! [`Partitioned`] (one region on one engine) and
//! periodically reads two cheap signals: a monotone **progress counter**
//! (steps + completions across every region engine) and the number of
//! **parked operations**. When operations are parked and the progress
//! counter has not moved for longer than the configured deadline, the
//! watchdog assembles a [`StallReport`] — parked ports with their pending
//! op kinds, per-region engine status (steps, parked ops, whether a
//! transition is enabled right now, closed/poisoned flags), and
//! cross-region link queue depths — a wait-for picture of the stuck
//! session.
//!
//! The report is exposed two ways: pulled via
//! [`ConnectorHandle::stall_report`](crate::ConnectorHandle::stall_report),
//! and attached to deadline expiries — a `send_timeout`/`recv_timeout`
//! that expires *while the watchdog has flagged a stall* reports
//! [`RuntimeError::Stalled`](crate::RuntimeError::Stalled) (carrying the
//! report) instead of a bare `Timeout`. Sessions without a watchdog are
//! byte-for-byte unaffected.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::partition::Partitioned;

/// The pending operation a parked port is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkedKind {
    /// A producer is blocked in `send` (value offered, not yet taken).
    Send,
    /// A consumer is blocked in `recv` (no value delivered yet).
    Recv,
}

impl fmt::Display for ParkedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParkedKind::Send => write!(f, "send"),
            ParkedKind::Recv => write!(f, "recv"),
        }
    }
}

/// One parked boundary operation at stall-detection time.
#[derive(Debug, Clone)]
pub struct ParkedOp {
    /// The global port the operation is parked on.
    pub port: reo_automata::PortId,
    /// What the caller is blocked waiting for.
    pub kind: ParkedKind,
    /// The region engine serving the port (0 on one engine).
    pub region: usize,
}

/// Per-region engine status at stall-detection time.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Region index (0 on one engine).
    pub region: usize,
    /// Steps fired since connect.
    pub steps: u64,
    /// Operations currently parked on this region's ports.
    pub parked_ops: usize,
    /// Whether some transition is operationally enabled *right now* —
    /// `true` here with no progress means the scheduler lost a link event;
    /// `false` everywhere means the session is genuinely wait-blocked.
    pub enabled: bool,
    /// The engine refused further work (shutdown).
    pub closed: bool,
    /// The engine was poisoned by a failed or panicked firing.
    pub poisoned: bool,
}

/// One cross-region link's queue at stall-detection time.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Link index in the partition topology.
    pub link: usize,
    /// Producing region.
    pub from: usize,
    /// Consuming region.
    pub to: usize,
    /// Values sitting in the link queue, accepted but not yet consumed.
    pub depth: usize,
}

/// A wait-for snapshot of a session that made no progress past the
/// watchdog deadline. Carried by
/// [`RuntimeError::Stalled`](crate::RuntimeError::Stalled) and returned by
/// [`ConnectorHandle::stall_report`](crate::ConnectorHandle::stall_report).
#[derive(Debug, Clone)]
pub struct StallReport {
    /// How long the progress counter had been flat when the report was
    /// assembled.
    pub stalled_for: Duration,
    /// Every parked boundary operation.
    pub parked: Vec<ParkedOp>,
    /// Per-region engine status.
    pub regions: Vec<RegionReport>,
    /// Cross-region link queues (empty on one engine).
    pub links: Vec<LinkReport>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no progress for {:?}; {} parked op(s)",
            self.stalled_for,
            self.parked.len()
        )?;
        for p in &self.parked {
            write!(
                f,
                " [{} parked on {} in region {}]",
                p.kind, p.port, p.region
            )?;
        }
        for r in &self.regions {
            write!(
                f,
                " (region {}: steps={} parked={}{}{}{})",
                r.region,
                r.steps,
                r.parked_ops,
                if r.enabled { " ENABLED" } else { "" },
                if r.closed { " closed" } else { "" },
                if r.poisoned { " poisoned" } else { "" },
            )?;
        }
        for l in &self.links {
            if l.depth > 0 {
                write!(
                    f,
                    " (link {} {}->{}: depth {})",
                    l.link, l.from, l.to, l.depth
                )?;
            }
        }
        Ok(())
    }
}

/// Shared state between the sampler thread and the error paths.
pub(crate) struct WatchdogState {
    /// Set while the sampler considers the session stalled; wait paths
    /// upgrade an expiring deadline to `Stalled` only while this is set.
    stalled: AtomicBool,
    latest: Mutex<Option<StallReport>>,
}

impl WatchdogState {
    pub(crate) fn is_stalled(&self) -> bool {
        self.stalled.load(Ordering::Acquire)
    }

    /// The most recent report, if a stall was ever detected. Reports are
    /// retained after progress resumes (the flag clears, the report
    /// stays) so post-mortems can read what the stall looked like.
    pub(crate) fn latest(&self) -> Option<StallReport> {
        self.latest
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }
}

/// Spawn the sampler thread. It exits on its own when the session is
/// dropped (the `Weak` stops upgrading), so nothing needs to join it.
pub(crate) fn spawn_watchdog(target: Weak<Partitioned>, deadline: Duration) -> Arc<WatchdogState> {
    let state = Arc::new(WatchdogState {
        stalled: AtomicBool::new(false),
        latest: Mutex::new(None),
    });
    let shared = Arc::clone(&state);
    // Sample several times per deadline so detection lag stays a fraction
    // of the configured window, but never busier than 10ms.
    let tick = (deadline / 4).max(Duration::from_millis(10));
    std::thread::Builder::new()
        .name("reo-watchdog".into())
        .spawn(move || {
            let mut last_progress = u64::MAX;
            let mut flat_since = Instant::now();
            loop {
                std::thread::sleep(tick);
                let Some(sample) = target.upgrade() else {
                    return;
                };
                let progress = sample.progress_counter();
                let parked = sample.parked_count();
                if progress != last_progress || parked == 0 {
                    last_progress = progress;
                    flat_since = Instant::now();
                    shared.stalled.store(false, Ordering::Release);
                    continue;
                }
                let flat = flat_since.elapsed();
                if flat >= deadline {
                    let report = sample.stall_snapshot(flat);
                    *shared.latest.lock().unwrap_or_else(|p| p.into_inner()) = Some(report);
                    shared.stalled.store(true, Ordering::Release);
                }
            }
        })
        .expect("spawning the watchdog thread must succeed");
    state
}
