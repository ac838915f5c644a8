//! The `Connector` front-end: compile once, `connect` per run — with the
//! number of connectees chosen at `connect` time (the whole point of the
//! paper).
//!
//! A [`Mode`] is one of the paper's two approaches:
//!
//! * [`Mode::Existing`] — instantiate every primitive for the now-known N,
//!   compose one large automaton, fill all its rows. Work that the existing Reo
//!   compiler did at compile time happens inside `connect`.
//! * [`Mode::New`] — the medium automata, with two independent knobs: the
//!   [`Placement`] (one engine, or one per synchronous region as in the
//!   paper's reference \[32\], values crossing links on the calling task's
//!   own thread, see [`crate::partition`]) and the [`Composition`] (each
//!   row on first visit, or every reachable row at `connect`).
//!
//! Either way `build` compiles one template and every session, analysis
//! and stepping run instantiates it through `reo_core::instantiate`.
//! Every session is a [`Partitioned`], whose plan is all the placement
//! decides ([`crate::partition`]). [`Mode::grid`] is the one list of
//! runtimes every test and the fuzzer iterate; `core_for` is the one place
//! a mode becomes a stepping core.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use reo_automata::{
    Automaton, FromValue, IntoValue, PortAllocator, PortId, ProductOptions, StateId,
};
use reo_core::ir::Param;
use reo_core::{
    compile, compile_primitives, instantiate, Binding, CompiledConnector, ConnectorInstance,
    CoreError, Program, INSTANTIATION_BUDGET,
};

use crate::cache::CacheStats;
use crate::engine::EngineStats;
use crate::error::RuntimeError;
use crate::jit::JitCore;
use crate::partition::{partition_with_opts, Partitioned};
use crate::port::{Inport, Outport};
use crate::reconfig::{self, Change, ReconfigShared, ReconfigState};
use crate::watchdog::Watchdog;

/// Execution mode (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The Fig. 12 baseline: one monolithic product, label-simplified,
    /// with every row filled at `connect` ([`JitCore::eager`]).
    Existing,
    /// The medium automata, stepped by [`crate::jit::JitCore`].
    New {
        placement: Placement,
        composition: Composition,
    },
}

/// Where [`Mode::New`] runs the medium automata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// On one engine.
    Single,
    /// On one engine per synchronous region, cut fifos as links served by
    /// the calling task ([`crate::partition`]).
    Partitioned,
}

/// When [`Mode::New`] fills a state's row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Composition {
    /// Just in time: on first visit (Sect. IV-D, second approach).
    Lazy,
    /// Ahead of time: every row reachable from the initial states at
    /// `connect` ([`JitCore::eager`], Sect. IV-D, first approach), failing
    /// there with [`RuntimeError::Explosion`] past [`Limits::product`].
    Eager,
}

impl Mode {
    fn new(placement: Placement, composition: Composition) -> Self {
        Mode::New {
            placement,
            composition,
        }
    }

    /// The paper's baseline (existing approach, with its optimizations on).
    pub fn existing() -> Self {
        Mode::Existing
    }

    /// The paper's default for the new approach.
    pub fn jit() -> Self {
        Mode::new(Placement::Single, Composition::Lazy)
    }

    /// Partitioned JIT.
    pub fn partitioned() -> Self {
        Mode::new(Placement::Partitioned, Composition::Lazy)
    }

    /// The paper's ahead-of-time composition, on one engine.
    ///
    /// ```
    /// use reo_runtime::{Connector, Mode};
    ///
    /// let program = reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
    /// let connector = Connector::builder(&program, "Buf")
    ///     .mode(Mode::compiled())
    ///     .build()
    ///     .unwrap();
    /// let mut session = connector.session().connect().unwrap();
    /// let tx = session.typed_outport::<i64>("a").unwrap();
    /// let rx = session.typed_inport::<i64>("b").unwrap();
    /// tx.send(7).unwrap();
    /// assert_eq!(rx.recv().unwrap(), 7);
    /// ```
    pub fn compiled() -> Self {
        Mode::new(Placement::Single, Composition::Eager)
    }

    /// Ahead-of-time composition per synchronous region.
    pub fn compiled_partitioned() -> Self {
        Mode::new(Placement::Partitioned, Composition::Eager)
    }

    /// The mode's stable name in [`Mode::grid`].
    pub fn name(self) -> &'static str {
        use {Composition::*, Placement::*};
        match self {
            Mode::Existing => "mono",
            Mode::New {
                placement,
                composition,
            } => match (placement, composition) {
                (Single, Lazy) => "jit",
                (Partitioned, Lazy) => "part",
                (Single, Eager) => "comp",
                (Partitioned, Eager) => "comp-part",
            },
        }
    }

    /// Every runtime there is to differ, by [`name`](Mode::name):
    /// [`Mode::Existing`], then every [`Placement`] × [`Composition`]. The
    /// single source for the differential fuzzer and the equivalence tests
    /// — select a subset by name ([`Mode::grid_subset`]), never by copying
    /// entries.
    pub fn grid() -> &'static [(&'static str, Mode)] {
        static GRID: OnceLock<Vec<(&str, Mode)>> = OnceLock::new();
        GRID.get_or_init(|| {
            let placements = [Placement::Single, Placement::Partitioned];
            let new = [Composition::Lazy, Composition::Eager]
                .into_iter()
                .flat_map(|c| placements.map(|p| Mode::new(p, c)));
            let modes = std::iter::once(Mode::Existing).chain(new);
            modes.map(|mode| (mode.name(), mode)).collect()
        })
    }

    /// The [`Mode::grid`] entries called `names`, in grid order. Panics on
    /// a name the grid does not have — callers pass literals, so a miss is
    /// a typo that would otherwise silently shrink a test.
    pub fn grid_subset<'a>(names: &'a [&str]) -> impl Iterator<Item = (&'static str, Mode)> + 'a {
        for name in names {
            assert!(
                Self::grid().iter().any(|(n, _)| n == name),
                "no runtime mode named `{name}` in Mode::grid()"
            );
        }
        Self::grid()
            .iter()
            .copied()
            .filter(move |(name, _)| names.contains(name))
    }
}

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Budget for any eager composition. The monolithic mode's product
    /// may have this many states and transitions; the compiled modes'
    /// filled rows this many reachable tuples and connected steps summed
    /// over rows — what the engine can fire.
    pub product: ProductOptions,
    /// Budget for JIT expansion of a single state.
    pub expansion_budget: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            product: ProductOptions::default(),
            expansion_budget: 1 << 20,
        }
    }
}

/// The binding of `params` for the array sizes `sizes` (scalar parameters
/// and absent names get one port). A replication count beyond the
/// instantiation budget could never instantiate anyway: refuse it before
/// allocating millions of ports (and long before the `u32` port-id space
/// could wrap).
fn bind<'p>(
    params: impl IntoIterator<Item = &'p Param>,
    sizes: &[(&str, usize)],
    alloc: &mut PortAllocator,
) -> Result<Binding, RuntimeError> {
    let mut binding = Binding::new();
    for p in params {
        let given = sizes.iter().find(|(s, _)| *s == p.name);
        let n = given.filter(|_| p.is_array).map_or(1, |&(_, n)| n);
        if n > INSTANTIATION_BUDGET {
            let budget = INSTANTIATION_BUDGET;
            return Err(CoreError::InstantiationBudget { budget }.into());
        }
        binding.insert(p.name.clone(), alloc.fresh_ports(n));
    }
    Ok(binding)
}

/// The core stepping `automata` from `starts` under `mode` — the one place
/// that decides, for `connect`,
/// reconfiguration splices and the stepping microbench alike. The
/// partitioned modes ask per region. Only the composition matters: rows on
/// first visit, or all reachable rows now. The existing approach fills
/// them for what it composed — one simplified automaton, or the
/// primitives of a reconfigurable session.
pub(crate) fn core_for(
    mode: Mode,
    limits: &Limits,
    automata: Vec<Automaton>,
    starts: &[StateId],
) -> Result<JitCore, RuntimeError> {
    match mode {
        Mode::New {
            composition: Composition::Lazy,
            ..
        } => Ok(JitCore::with_states(
            automata,
            starts,
            limits.expansion_budget,
        )),
        _ => JitCore::eager(automata, starts, &limits.product),
    }
}

/// A compiled connector, ready to be connected for any number of tasks.
pub struct Connector {
    mode: Mode,
    limits: Limits,
    /// The one template every session instantiates, independent of N,
    /// shared with every reconfigurable session: a constituent's
    /// [`reo_core::Origin`] names a node by its address in it.
    compiled: Arc<CompiledConnector>,
}

/// Fluent entry point: `Connector::builder(&program, "Buf").mode(..)
/// .limits(..).build()`.
///
/// Defaults: [`Mode::jit`] and [`Limits::default`].
pub struct ConnectorBuilder<'p> {
    program: &'p Program,
    name: String,
    mode: Mode,
    limits: Limits,
}

impl ConnectorBuilder<'_> {
    /// Choose the execution mode (default: [`Mode::jit`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set all tuning knobs at once (default: [`Limits::default`]).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Compile the template every session instantiates: the medium
    /// automata of the new approach, or for the existing one the
    /// primitives, of which nothing is composed before N is known.
    pub fn build(self) -> Result<Connector, RuntimeError> {
        let compiled = match self.mode {
            Mode::Existing => compile_primitives(self.program, &self.name)?,
            Mode::New { .. } => compile(self.program, &self.name)?,
        };
        Ok(Connector {
            mode: self.mode,
            limits: self.limits,
            compiled: Arc::new(compiled),
        })
    }
}

impl Connector {
    /// Start building a connector compilation of `name` from `program`.
    pub fn builder<'p>(program: &'p Program, name: &str) -> ConnectorBuilder<'p> {
        ConnectorBuilder {
            program,
            name: name.to_string(),
            mode: Mode::jit(),
            limits: Limits::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.compiled.name
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Start describing a session over this connector: the typed
    /// replacement for the stringly `connect(&[("prod", n)])` call.
    ///
    /// ```ignore
    /// let mut session = connector
    ///     .session()
    ///     .replicate("prod", 3)
    ///     .reconfigurable()
    ///     .connect()?;
    /// ```
    pub fn session(&self) -> SessionSpec<'_> {
        SessionSpec {
            connector: self,
            sizes: Vec::new(),
            reconfigurable: false,
            watchdog: None,
        }
    }

    /// The one front end of `connect`, `analyze` and `stepping_run`: the
    /// template `build` compiled, bound for `sizes` (the length per array
    /// parameter; scalar parameters default to 1 and may be omitted) and
    /// instantiated. The instance's layout covers every allocated cell.
    pub(crate) fn instantiate(
        &self,
        sizes: &[(&str, usize)],
    ) -> Result<(PortAllocator, ConnectorInstance), RuntimeError> {
        let mut alloc = PortAllocator::new();
        let binding = bind(self.compiled.params(), sizes, &mut alloc)?;
        let instance = instantiate(&self.compiled, &binding, &mut alloc)?;
        Ok((alloc, instance))
    }

    /// Instantiate for concrete array sizes and build the engine(s).
    fn connect_impl(
        &self,
        sizes: &[(&str, usize)],
        reconfigurable: bool,
        watchdog: Option<Duration>,
    ) -> Result<Session, RuntimeError> {
        let start = Instant::now();
        let (alloc, mut instance) = self.instantiate(sizes)?;
        // A reconfigurable session steps the primitives themselves, so
        // that a splice can read each one's state.
        if self.mode == Mode::Existing && !reconfigurable {
            instance = instance.monolithic(&self.limits.product)?;
        }
        let instantiated = Instant::now();
        let medium_count = instance.automata.len();

        // The reconfiguration record snapshots the constituents before
        // the partition consumes them.
        let reconfig_seed = reconfigurable.then(|| (instance.automata.clone(), instance.origins));

        let binding = instance.boundary;
        let mut parts = partition_with_opts(
            instance.automata,
            alloc.port_count(),
            self.mode,
            self.limits,
            reconfigurable,
        )?;
        parts.watchdog = watchdog.map(Watchdog::new);
        let parts = Arc::new(parts);
        let planned = Instant::now();
        // Deterministic initial arming: tokens reach link heads before any
        // task operates.
        parts.pump();
        let marks = [start, instantiated, planned, Instant::now()];

        let reconfig = reconfig_seed.map(|(automata, origins)| {
            Arc::new(ReconfigShared {
                state: parking_lot::Mutex::new(ReconfigState {
                    cc: Arc::clone(&self.compiled),
                    binding: binding.clone(),
                    alloc,
                    automata,
                    origins,
                    phases: [Duration::ZERO; 3],
                }),
                epoch: AtomicU64::new(0),
            })
        });

        // Hand out port handles by formal parameter, tails as outports.
        let mut outports = HashMap::new();
        let mut inports = HashMap::new();
        for (name, ports) in &binding {
            let is_tail = self.compiled.tails.iter().any(|t| &t.name == name);
            if is_tail {
                outports.insert(
                    name.clone(),
                    Some(
                        ports
                            .iter()
                            .map(|&p| Outport::new(Arc::clone(&parts), p))
                            .collect(),
                    ),
                );
            } else {
                inports.insert(
                    name.clone(),
                    Some(
                        ports
                            .iter()
                            .map(|&p| Inport::new(Arc::clone(&parts), p))
                            .collect(),
                    ),
                );
            }
        }

        Ok(Session {
            outports,
            inports,
            handle: ConnectorHandle {
                parts,
                medium_count,
                reconfig,
                connect_phases: std::array::from_fn(|k| marks[k + 1] - marks[k]),
            },
        })
    }
}

/// Typed description of one session over a [`Connector`]: which
/// parameters are replicated and how widely, and whether the session may
/// [`attach`](Session::attach)/detach branches while running. Built by
/// [`Connector::session`], consumed by [`SessionSpec::connect`].
pub struct SessionSpec<'c> {
    connector: &'c Connector,
    sizes: Vec<(String, usize)>,
    reconfigurable: bool,
    watchdog: Option<Duration>,
}

impl SessionSpec<'_> {
    /// Replicate array parameter `name` across `n` branches (scalar
    /// parameters default to 1 and need no entry).
    pub fn replicate(mut self, name: &str, n: usize) -> Self {
        self.sizes.push((name.to_string(), n));
        self
    }

    /// Replicate every `(name, n)` pair in `sizes` — convenience for
    /// callers holding a runtime-computed size table.
    pub fn replicate_all(mut self, sizes: &[(&str, usize)]) -> Self {
        for (name, n) in sizes {
            self.sizes.push((name.to_string(), *n));
        }
        self
    }

    /// Allow runtime branch churn on this session. The existing approach
    /// then steps the primitives instead of their simplified product, so
    /// that a splice can read each one's state.
    pub fn reconfigurable(mut self) -> Self {
        self.reconfigurable = true;
        self
    }

    /// Arm a stall watchdog on this session, judged when asked
    /// ([`crate::watchdog`]): the session is stalled when operations are
    /// parked but the global progress counter has not moved for
    /// `deadline`. An expiring `send_timeout`/`recv_timeout` on a stalled
    /// session reports [`RuntimeError::Stalled`] with a full wait-for
    /// snapshot ([`crate::StallReport`]: parked ports, per-region
    /// enabled-transition status, link queue depths) instead of a bare
    /// `Timeout`; [`ConnectorHandle::stall_report`] asks too. Costs one
    /// hold per region engine per observation and nothing in between;
    /// sessions without a watchdog are unaffected.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Instantiate and build the engine(s) — the terminal call.
    pub fn connect(self) -> Result<Session, RuntimeError> {
        let sizes: Vec<(&str, usize)> = self.sizes.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        self.connector
            .connect_impl(&sizes, self.reconfigurable, self.watchdog)
    }
}

/// A connected connector: live port handles plus a control handle.
///
/// Port acquisition is *fallible* and *single-owner*: each parameter's
/// handles can be taken exactly once, and a wrong name is a
/// [`RuntimeError::UnknownParam`], not a panic. An inner `None` marks a
/// parameter whose ports were already moved out ([`RuntimeError::AlreadyTaken`]).
pub struct Session {
    outports: HashMap<String, Option<Vec<Outport>>>,
    inports: HashMap<String, Option<Vec<Inport>>>,
    handle: ConnectorHandle,
}

fn take_ports<P>(
    slots: &mut HashMap<String, Option<Vec<P>>>,
    name: &str,
) -> Result<Vec<P>, RuntimeError> {
    match slots.get_mut(name) {
        None => Err(RuntimeError::UnknownParam {
            name: name.to_string(),
        }),
        Some(slot) => slot.take().ok_or_else(|| RuntimeError::AlreadyTaken {
            name: name.to_string(),
        }),
    }
}

/// Scalar check that runs *before* the slot is consumed: a `NotScalar`
/// refusal must leave the ports takeable via the array accessor.
fn check_scalar<P>(
    slots: &HashMap<String, Option<Vec<P>>>,
    name: &str,
) -> Result<(), RuntimeError> {
    match slots.get(name) {
        Some(Some(ports)) if ports.len() != 1 => Err(RuntimeError::NotScalar {
            name: name.to_string(),
            len: ports.len(),
        }),
        // Missing or already-taken parameters fall through to `take_ports`,
        // which reports UnknownParam/AlreadyTaken.
        _ => Ok(()),
    }
}

impl Session {
    /// Take the outports of tail parameter `name`.
    pub fn outports(&mut self, name: &str) -> Result<Vec<Outport>, RuntimeError> {
        take_ports(&mut self.outports, name)
    }

    /// Take the inports of head parameter `name`.
    pub fn inports(&mut self, name: &str) -> Result<Vec<Inport>, RuntimeError> {
        take_ports(&mut self.inports, name)
    }

    /// Take the single outport of scalar parameter `name`. A `NotScalar`
    /// refusal leaves the ports in place for the array accessor.
    pub fn outport(&mut self, name: &str) -> Result<Outport, RuntimeError> {
        check_scalar(&self.outports, name)?;
        Ok(self.outports(name)?.pop().expect("scalar checked"))
    }

    /// Take the single inport of scalar parameter `name`. A `NotScalar`
    /// refusal leaves the ports in place for the array accessor.
    pub fn inport(&mut self, name: &str) -> Result<Inport, RuntimeError> {
        check_scalar(&self.inports, name)?;
        Ok(self.inports(name)?.pop().expect("scalar checked"))
    }

    /// Take the outports of `name` as typed handles sending `T`.
    pub fn typed_outports<T: IntoValue>(
        &mut self,
        name: &str,
    ) -> Result<Vec<Outport<T>>, RuntimeError> {
        Ok(self
            .outports(name)?
            .into_iter()
            .map(Outport::typed)
            .collect())
    }

    /// Take the inports of `name` as typed handles receiving `T`.
    pub fn typed_inports<T: FromValue>(
        &mut self,
        name: &str,
    ) -> Result<Vec<Inport<T>>, RuntimeError> {
        Ok(self.inports(name)?.into_iter().map(Inport::typed).collect())
    }

    /// Take the single outport of scalar parameter `name`, typed.
    pub fn typed_outport<T: IntoValue>(&mut self, name: &str) -> Result<Outport<T>, RuntimeError> {
        Ok(self.outport(name)?.typed())
    }

    /// Take the single inport of scalar parameter `name`, typed.
    pub fn typed_inport<T: FromValue>(&mut self, name: &str) -> Result<Inport<T>, RuntimeError> {
        Ok(self.inport(name)?.typed())
    }

    pub fn handle(&self) -> ConnectorHandle {
        self.handle.clone()
    }

    /// Attach one fresh branch to replicated parameter `name` while the
    /// session runs (requires [`SessionSpec::reconfigurable`]).
    ///
    /// The splice quiesces only the affected region(s), recomposes them
    /// from their current constituent states, and re-derives links and
    /// routing; traffic on unaffected regions never blocks. Serialized
    /// per session ([`RuntimeError::ReconfigInFlight`] if another splice
    /// is mid-flight); on success the session [`epoch`](ConnectorHandle::epoch)
    /// advances by one.
    pub fn attach(&self, name: &str) -> Result<Branch, RuntimeError> {
        self.handle.attach(name)
    }
}

/// Control handle: step counting, statistics, shutdown — and, for
/// reconfigurable sessions, branch churn ([`ConnectorHandle::attach`]).
#[derive(Clone)]
pub struct ConnectorHandle {
    parts: Arc<Partitioned>,
    medium_count: usize,
    reconfig: Option<Arc<ReconfigShared>>,
    connect_phases: [Duration; 3],
}

impl ConnectorHandle {
    /// Global execution steps fired so far — the Fig. 12 metric.
    pub fn steps(&self) -> u64 {
        self.parts.steps()
    }

    /// The [`EngineStats`] counters, summed over the session's region
    /// engines.
    pub fn stats(&self) -> EngineStats {
        self.parts.stats()
    }

    /// Shut the connector down; all blocked tasks get `Closed` errors.
    pub fn close(&self) {
        self.parts.close();
    }

    /// The message of the firing failure that poisoned the engine(s), if
    /// any — e.g. an expansion overflow mid-run. Harnesses use this to
    /// classify a run that kept its tasks alive but stopped progressing.
    pub fn poison_message(&self) -> Option<String> {
        self.parts.poison_message()
    }

    /// Poison every engine of this session directly, as a contained
    /// firing failure would: parked and future operations resolve
    /// [`RuntimeError::Poisoned`](crate::RuntimeError::Poisoned). A
    /// fault-injection hook for harnesses, not part of the stable API.
    #[doc(hidden)]
    pub fn poison(&self, msg: &str) {
        self.parts.poison_all(msg);
    }

    /// Make the `n`-th step fired from now (0 = the very next one; counted
    /// per region engine) panic *inside the firing*, to exercise panic
    /// containment (catch → poison → wake). Armed on this session only,
    /// so harnesses sharing a process cannot consume each other's fault.
    /// A fault-injection hook for harnesses, not part of the stable API.
    #[doc(hidden)]
    pub fn arm_panic_after_steps(&self, n: u64) {
        for e in &self.parts.topo().engines {
            e.arm_panic_after_steps(n);
        }
    }

    /// A weak reference that dies with this session's engine(s): lets a
    /// test assert that dropping every port and handle really frees them.
    /// A leak probe for tests, not part of the stable API.
    #[doc(hidden)]
    pub fn backend_probe(&self) -> std::sync::Weak<dyn std::any::Any + Send + Sync> {
        Arc::downgrade(&self.parts) as _
    }

    /// Observe the session for its watchdog ([`SessionSpec::watchdog`])
    /// and return the most recent stall report, or `None` without a
    /// watchdog or while no stall was ever judged. The report is retained
    /// after progress resumes, so post-mortems can still read what the
    /// stall looked like.
    pub fn stall_report(&self) -> Option<crate::StallReport> {
        let watchdog = self.parts.watchdog.as_ref()?;
        self.parts.observe().or_else(|| watchdog.latest())
    }

    /// Observe the session for its watchdog: whether it is stalled now
    /// (parked operations, no progress past the deadline).
    pub fn is_stalled(&self) -> bool {
        self.parts.observe().is_some()
    }

    /// The state caches of this session's cores, summed over regions.
    /// Always `Some`: every session runs on the one core.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.parts.cache_stats())
    }

    /// Number of medium automata the instance consists of.
    pub fn medium_count(&self) -> usize {
        self.medium_count
    }

    /// Number of synchronous regions (1 in the single-engine modes).
    pub fn region_count(&self) -> usize {
        self.parts.region_count()
    }

    /// Number of cross-region links (0 in the single-engine modes).
    pub fn link_count(&self) -> usize {
        self.parts.link_count()
    }

    /// Whether this session was connected with
    /// [`SessionSpec::reconfigurable`].
    pub fn is_reconfigurable(&self) -> bool {
        self.reconfig.is_some()
    }

    /// The session's configuration epoch: 0 at connect, +1 per successful
    /// attach/detach splice. Traces produced between two equal epoch
    /// readings ran under one fixed configuration.
    pub fn epoch(&self) -> u64 {
        self.reconfig
            .as_ref()
            .map(|r| r.epoch.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// The wall time of the last attach or detach, split into
    /// re-instantiation, join and splice (zero before the first).
    pub fn splice_phases(&self) -> [Duration; 3] {
        (self.reconfig.as_ref()).map_or([Duration::ZERO; 3], |r| r.state.lock().phases)
    }

    /// The wall time of `connect`: instantiation (and the existing approach's
    /// composition), regions (plan, renaming, cores, engines), first pump.
    pub fn connect_phases(&self) -> [Duration; 3] {
        self.connect_phases
    }

    /// [`Session::attach`], callable from any clone of the handle.
    pub fn attach(&self, name: &str) -> Result<Branch, RuntimeError> {
        let shared = self
            .reconfig
            .as_ref()
            .ok_or(RuntimeError::NotReconfigurable)?;
        let r = reconfig::reconfigure(shared, &self.parts, name, Change::Attach)?;
        let parts = Arc::clone(&self.parts);
        let (outport, inport) = if r.is_tail {
            (Some(Outport::new(parts, r.port)), None)
        } else {
            (None, Some(Inport::new(parts, r.port)))
        };
        Ok(Branch {
            name: name.to_string(),
            port: r.port,
            is_tail: r.is_tail,
            outport,
            inport,
            live: true,
            handle: self.clone(),
        })
    }
}

/// One dynamically attached branch of a replicated parameter: the port
/// handle plus the right to detach it again.
///
/// Dropping a `Branch` detaches it best-effort (bounded at ~1 s); call
/// [`Branch::detach`] for the blocking, error-reporting version. Either
/// way the detach only succeeds once the branch is *quiescent* — no
/// pending operation and no value buffered anywhere inside it — so churn
/// can never lose or duplicate data. After a detach, any surviving handle
/// to the branch's port fails with [`RuntimeError::Detached`].
pub struct Branch {
    name: String,
    port: PortId,
    is_tail: bool,
    outport: Option<Outport>,
    inport: Option<Inport>,
    live: bool,
    handle: ConnectorHandle,
}

impl Branch {
    /// The branch's global port id.
    pub fn port(&self) -> PortId {
        self.port
    }

    /// The replicated parameter this branch belongs to.
    pub fn param(&self) -> &str {
        &self.name
    }

    /// Take the branch's outport (tail-side branches; single-owner).
    pub fn outport(&mut self) -> Result<Outport, RuntimeError> {
        if !self.is_tail {
            return Err(RuntimeError::UnknownParam {
                name: self.name.clone(),
            });
        }
        self.outport
            .take()
            .ok_or_else(|| RuntimeError::AlreadyTaken {
                name: self.name.clone(),
            })
    }

    /// Take the branch's inport (head-side branches; single-owner).
    pub fn inport(&mut self) -> Result<Inport, RuntimeError> {
        if self.is_tail {
            return Err(RuntimeError::UnknownParam {
                name: self.name.clone(),
            });
        }
        self.inport
            .take()
            .ok_or_else(|| RuntimeError::AlreadyTaken {
                name: self.name.clone(),
            })
    }

    /// Detach this branch, blocking until the splice succeeds (bounded at
    /// ~5 s — a branch that still buffers undelivered values refuses to
    /// detach until they drain, then times out with the quiescence error).
    pub fn detach(mut self) -> Result<(), RuntimeError> {
        self.outport = None;
        self.inport = None;
        self.live = false;
        detach_blocking(&self.handle, &self.name, self.port, Duration::from_secs(5))
    }
}

impl Drop for Branch {
    fn drop(&mut self) {
        if self.live {
            self.outport = None;
            self.inport = None;
            // Best-effort: a branch that cannot quiesce within the bound
            // simply stays attached (harmless — its port is idle).
            let _ = detach_blocking(&self.handle, &self.name, self.port, Duration::from_secs(1));
        }
    }
}

/// Retry the detach splice until it succeeds or `budget` elapses;
/// transient refusals (another reconfiguration in flight, the branch not
/// yet quiescent) are retried, everything else returns immediately.
fn detach_blocking(
    handle: &ConnectorHandle,
    name: &str,
    port: PortId,
    budget: Duration,
) -> Result<(), RuntimeError> {
    let shared = handle
        .reconfig
        .as_ref()
        .ok_or(RuntimeError::NotReconfigurable)?;
    let deadline = Instant::now() + budget;
    loop {
        match reconfig::reconfigure(shared, &handle.parts, name, Change::Detach(port)) {
            Ok(_) => return Ok(()),
            Err(RuntimeError::Reconfig(_)) | Err(RuntimeError::ReconfigInFlight)
                if Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_names_are_unique_and_cover_every_constructor() {
        use {Composition::*, Placement::*};
        // `existing()` plus each (placement, composition) pair exactly
        // once, under the five stable names, each constructor among them.
        let expected = [
            ("mono", Mode::Existing),
            ("jit", Mode::new(Single, Lazy)),
            ("part", Mode::new(Partitioned, Lazy)),
            ("comp", Mode::new(Single, Eager)),
            ("comp-part", Mode::new(Partitioned, Eager)),
        ];
        assert_eq!(Mode::grid(), expected);
        let constructors = [
            Mode::existing(),
            Mode::jit(),
            Mode::partitioned(),
            Mode::compiled(),
            Mode::compiled_partitioned(),
        ];
        assert_eq!(constructors, expected.map(|(_, mode)| mode));
        // Subsets come back in grid order, whatever order they are named in.
        let subset: Vec<_> = Mode::grid_subset(&["comp", "jit"]).collect();
        assert_eq!(subset, [("jit", Mode::jit()), ("comp", Mode::compiled())]);
    }

    /// A detached branch's port leaves its engine's hangup sets: after 20
    /// attach/detach pairs, each branch sending one value and hanging up
    /// before it leaves, no engine's `hungup` or `dead` holds a port its
    /// map does not serve.
    #[test]
    fn a_detached_branch_leaves_its_engines_hangup_sets() {
        let program = reo_dsl::parse_program(
            "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)",
        )
        .unwrap();
        for mode in [Mode::jit(), Mode::partitioned()] {
            let connector = Connector::builder(&program, "M")
                .mode(mode)
                .build()
                .unwrap();
            let spec = connector.session().replicate("src", 2).reconfigurable();
            let mut session = spec.connect().unwrap();
            let handle = session.handle();
            let rx = session.typed_inport::<i64>("c").unwrap();
            for k in 0..20 {
                let mut branch = handle.attach("src").unwrap();
                branch.outport().unwrap().typed::<i64>().send(k).unwrap();
                assert_eq!(rx.recv().unwrap(), k);
                branch.detach().unwrap();
            }
            for e in &handle.parts.topo().engines {
                assert_eq!(e.unserved_hangups(), [], "{mode:?}");
            }
        }
    }
}
