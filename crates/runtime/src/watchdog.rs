//! The stall watchdog: no-progress judged on demand, with a wait-for
//! snapshot.
//!
//! Opt-in via [`SessionSpec::watchdog`](crate::SessionSpec::watchdog). As
//! the engine only reacts to tasks, the watchdog only reacts to someone
//! asking: there is no sampler thread. An **observation** is one
//! `Snapshot` of the session's [`Partitioned`] — one hold per region
//! engine — judged at once. A session is **stalled** when some operation
//! a task stands behind is parked (link-protocol ports do not count) and
//! the **progress counter** (steps + completions over every region) has
//! not moved for the deadline, counted from the first observation that
//! saw its current value. A judged stall stands until the counter moves.
//!
//! Who observes: a `send_timeout`/`recv_timeout` once it is registered
//! and pending, and again just before it retracts (no engine lock held);
//! and [`ConnectorHandle::is_stalled`](crate::ConnectorHandle::is_stalled)
//! and [`stall_report`](crate::ConnectorHandle::stall_report), each call.
//! A timed operation that expires on a stalled session reports
//! [`RuntimeError::Stalled`](crate::RuntimeError::Stalled), carrying the
//! [`StallReport`] — parked ports with their pending op kinds, per-region
//! engine status, and link queue depths — instead of a bare `Timeout`. A
//! session nobody asks costs nothing; sessions without a watchdog are
//! unaffected.

use std::fmt;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use reo_automata::PortSet;

#[cfg(doc)]
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

/// One look at a session, one hold per region engine
/// ([`Partitioned::snapshot`]): what the stall judgment and
/// [`Partitioned::unserved_links`] read.
pub(crate) struct Snapshot {
    /// Steps plus completions, summed over the regions.
    pub progress: u64,
    /// Link ports with an operation pending: the link protocol's own.
    pub armed_links: PortSet,
    /// The wait-for picture, `stalled_for` still zero.
    pub report: StallReport,
}

/// A session's watchdog, held once on its [`Partitioned`].
pub(crate) struct Watchdog {
    deadline: Duration,
    judged: Mutex<Judged>,
}

struct Judged {
    /// The progress counter last observed, and when an observation first
    /// saw that value.
    progress: u64,
    since: Instant,
    /// A stall was judged at `progress`; it stands until the counter moves.
    stalled: bool,
    /// The latest report, kept after progress resumes for post-mortems.
    latest: Option<StallReport>,
}

impl Watchdog {
    pub(crate) fn new(deadline: Duration) -> Self {
        let judged = Judged {
            progress: u64::MAX,
            since: Instant::now(),
            stalled: false,
            latest: None,
        };
        Watchdog {
            deadline,
            judged: Mutex::new(judged),
        }
    }

    /// Judge one observation: the standing report if the session is
    /// stalled.
    pub(crate) fn judge(&self, snap: Snapshot) -> Option<StallReport> {
        let mut j = self.judged.lock();
        let now = Instant::now();
        if snap.progress != j.progress {
            (j.progress, j.since, j.stalled) = (snap.progress, now, false);
        }
        let flat = now - j.since;
        if !snap.report.parked.is_empty() && flat >= self.deadline {
            j.stalled = true;
            j.latest = Some(StallReport {
                stalled_for: flat,
                ..snap.report
            });
        }
        j.stalled.then(|| j.latest.clone()).flatten()
    }

    /// The most recent report, if a stall was ever judged.
    pub(crate) fn latest(&self) -> Option<StallReport> {
        self.judged.lock().latest.clone()
    }
}
