//! Opening a session through the `reo` facade, and the counters read back
//! from its handle. Only facade re-exports and named constructors are
//! used (`Mode::jit()`, never a `Mode` variant), so a redesign of the mode
//! lattice can keep these names as aliases without editing the benchmark.

use reo::connectors::{Family, Role};
use reo::runtime::ConnectorHandle;
use reo::{Connector, Mode, Session};

use crate::trace::Trace;

/// The three execution modes the benchmark drives. Worker-pool modes are
/// absent on purpose: every pool thread would exceed `nproc` on this host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModeName {
    Jit,
    Partitioned,
    Compiled,
}

impl ModeName {
    pub const ALL: [ModeName; 3] = [ModeName::Jit, ModeName::Partitioned, ModeName::Compiled];

    pub fn mode(self) -> Mode {
        match self {
            ModeName::Jit => Mode::jit(),
            ModeName::Partitioned => Mode::partitioned(),
            ModeName::Compiled => Mode::compiled(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            ModeName::Jit => "jit",
            ModeName::Partitioned => "partitioned",
            ModeName::Compiled => "compiled",
        }
    }

    pub fn parse(s: &str) -> Option<ModeName> {
        ModeName::ALL.into_iter().find(|m| m.label() == s)
    }
}

/// What the driver needs to know about a connector definition: its source
/// text and which parameters tasks send on and receive from.
#[derive(Clone, Debug)]
pub struct Spec {
    pub family: String,
    pub source: String,
    pub def: String,
    pub sizes: Vec<(String, usize)>,
    /// Parameters tasks send on, in driver order.
    pub sends: Vec<String>,
    /// Parameters tasks receive from, in driver order.
    pub recvs: Vec<String>,
}

impl Spec {
    pub fn of_family(f: &Family, n: usize) -> Spec {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (param, role) in f.drivers {
            match role {
                Role::Send => sends.push(param.to_string()),
                Role::Recv => recvs.push(param.to_string()),
            }
        }
        for (acquire, release) in f.paired_sends {
            sends.push(acquire.to_string());
            sends.push(release.to_string());
        }
        Spec {
            family: f.name.to_string(),
            source: f.source.to_string(),
            def: f.def.to_string(),
            sizes: (f.sizes)(n)
                .into_iter()
                .map(|(p, k)| (p.to_string(), k))
                .collect(),
            sends,
            recvs,
        }
    }

    /// The spec of family `name` (one of the 18 of Fig. 12, `relay` or
    /// `burst`) at `n` tasks.
    pub fn named(name: &str, n: usize) -> Option<Spec> {
        all_families()
            .iter()
            .find(|f| f.name == name)
            .map(|f| Spec::of_family(f, n))
    }
}

/// The 18 families of Fig. 12 plus the two scale families.
pub fn all_families() -> Vec<Family> {
    let mut fams = reo::connectors::families();
    fams.push(reo::connectors::relay_family());
    fams.push(reo::connectors::burst_family());
    fams
}

/// Source text to connected session, each layer call under its own span:
/// `dsl.parse`, `runtime.build`, `runtime.connect`.
pub fn open(
    spec: &Spec,
    mode: ModeName,
    tr: &mut Trace,
    parent: u32,
    op: u64,
) -> Result<Session, String> {
    let program = tr
        .span("dsl.parse", parent, op, || {
            reo::dsl::parse_program(&spec.source)
        })
        .map_err(|e| format!("parse: {e}"))?;
    let connector = tr
        .span("runtime.build", parent, op, || {
            Connector::builder(&program, &spec.def)
                .mode(mode.mode())
                .build()
        })
        .map_err(|e| format!("build: {e}"))?;
    let sizes: Vec<(&str, usize)> = spec.sizes.iter().map(|(p, n)| (p.as_str(), *n)).collect();
    tr.span("runtime.connect", parent, op, || {
        connector.session().replicate_all(&sizes).connect()
    })
    .map_err(|e| format!("connect: {e}"))
}

/// Engine and cache counters of one session, as running totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub steps: u64,
    /// Port operations completed by fired transitions.
    pub completions: u64,
    pub locks: u64,
    pub wakeups: u64,
    pub waker_wakes: u64,
    pub spurious: u64,
    pub batch_moves: u64,
    pub batched_values: u64,
    pub kicks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counts {
    pub fn read(handle: &ConnectorHandle) -> Counts {
        let s = handle.stats();
        let c = handle.cache_stats().unwrap_or_default();
        Counts {
            steps: s.steps,
            completions: s.completions,
            locks: s.lock_acquisitions,
            wakeups: s.wakeups,
            waker_wakes: s.waker_wakes,
            spurious: s.spurious_wakeups,
            batch_moves: s.batch_moves,
            batched_values: s.batched_values,
            kicks: s.kicks,
            cache_hits: c.hits,
            cache_misses: c.misses,
        }
    }

    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            steps: self.steps - earlier.steps,
            completions: self.completions - earlier.completions,
            locks: self.locks - earlier.locks,
            wakeups: self.wakeups - earlier.wakeups,
            waker_wakes: self.waker_wakes - earlier.waker_wakes,
            spurious: self.spurious - earlier.spurious,
            batch_moves: self.batch_moves - earlier.batch_moves,
            batched_values: self.batched_values - earlier.batched_values,
            kicks: self.kicks - earlier.kicks,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
        }
    }

    pub fn add(&mut self, o: Counts) {
        self.steps += o.steps;
        self.completions += o.completions;
        self.locks += o.locks;
        self.wakeups += o.wakeups;
        self.waker_wakes += o.waker_wakes;
        self.spurious += o.spurious;
        self.batch_moves += o.batch_moves;
        self.batched_values += o.batched_values;
        self.kicks += o.kicks;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }
}

/// Sizes of a connected session that do not change while it runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub regions: u64,
    pub links: u64,
    /// JIT states resident when the measured phase ended.
    pub resident: u64,
    /// JIT states expanded during the last tenth of the warm-up; the
    /// warm-up is long enough when this is 0.
    pub late_warmup_growth: u64,
}

pub fn resident(handle: &ConnectorHandle) -> u64 {
    handle.cache_stats().map_or(0, |c| c.resident as u64)
}
