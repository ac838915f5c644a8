//! Partitioned execution — the optimization of Jongmans/Santini/Arbab 2015
//! (reference \[32\]; Fig. 13 finding 3 names it as the fix for the
//! exponential transition fan-out at N ≥ 16).
//!
//! "This technique involves static analysis of the 'small automata' …;
//! the set of 'small automata' is partitioned, after which only automata in
//! the same subset are composed." Synchrony cannot cross a plain queue: a
//! fifo's two ports never fire together. So the medium-automata set is cut
//! at queue automata ([`reo_automata::automaton::QueueHint`]): each
//! synchronous region gets its own engine, and each cut fifo becomes a
//! [`Link`] — an actual queue moving values from one engine's boundary to
//! another's. Expansion work then scales with the largest *region*, not
//! with the whole connector. Each region engine allocates its
//! pending/waiter/condvar tables only for its own ports
//! ([`crate::engine::PortMap::Sparse`]), so memory also scales with the
//! region, not with the whole connector.
//!
//! # Batched link pumping
//!
//! One pump step of a link makes exactly **two** engine-lock
//! acquisitions — one per side — and each moves as many values as it
//! can: the fix for per-boundary overhead is to make each boundary
//! crossing do more work, not to dissolve the boundary.
//!
//! Concretely:
//!
//! * **Accept side** (`link_drain_deliveries`): under a single hold of
//!   the *from* engine's lock, every delivery at the link's tail is
//!   drained into the link queue, re-arming the receive between takes up
//!   to the link's free capacity (the *credit*). Each re-arm fires the
//!   engine in place, so the next stuck producer completes inside the
//!   same hold — a backlog of `k` pending sends drains in one
//!   acquisition.
//! * **Emit side** (`link_offer_batch`): under a single hold of the *to*
//!   engine's lock, a consumed front is acknowledged (popped) and queue
//!   fronts are re-offered until one stays armed or the queue runs dry —
//!   an eager downstream region swallows several values per acquisition.
//!
//! The old protocol took four acquisitions to move at most one value, so
//! a backlog of depth `k` cost `O(k)` cascade revisits and `O(4k)` lock
//! round-trips. [`EngineStats::batch_moves`] counts transfer holds that
//! moved anything and [`EngineStats::batched_values`] the values they
//! moved (each crossing counts once per side); their ratio is the
//! measured amortization.
//!
//! [`EngineStats::batch_moves`]: crate::EngineStats::batch_moves
//! [`EngineStats::batched_values`]: crate::EngineStats::batched_values
//!
//! # Caller-thread scheduling, and when it is skipped
//!
//! Moving values across links ("pumping") is work that someone has to do.
//! As in the paper's runtime (Sect. IV-D) there are no helper threads:
//! the task that calls `send`/`recv` pumps, and the pumping is *routed*,
//! not broadcast. The partition keeps a static adjacency (`region →
//! bordering links`); a task operation on a port of region `r` can only
//! ever enable the links bordering `r`, so a kick names exactly those
//! links. Pumping then *cascades*: when a pump step of link `l` makes
//! progress, it may have enabled the links bordering `l`'s two regions,
//! and only those are revisited — a worklist traversal of the link graph
//! that reaches quiescence without ever touching unaffected links.
//!
//! [`Partitioned::kick`] has three cases, cheapest first:
//!
//! * a region bordering **no link** returns before touching anything — a
//!   pure intra-region connector pays nothing per operation;
//! * a region bordering **exactly one link** pumps it inline, uncounted —
//!   the kick-free fast path. The link is armed at connect time
//!   ([`Partitioned::pump`]) and the batched pump keeps it armed (the
//!   drain re-arms inside the engine's own completion step while credit
//!   remains; the offer leaves a front offered), so a steady-state
//!   single-link chain such as the `relay` family's `Sync – Fifo1 – Sync`
//!   runs with [`EngineStats::kicks`] pinned at zero;
//! * a region bordering **two or more links** runs the cascade over them
//!   inline and counts one kick — exactly the cost model of the paper's
//!   sequential runtime, but bounded by the affected links, not the full
//!   link list.
//!
//! [`EngineStats::kicks`]: crate::EngineStats::kicks
//!
//! Each link's queue and its armed flag live behind **one** mutex
//! (`LinkState`) and every pump step holds it across the whole
//! take/arm/acknowledge sequence, so concurrent pumpers (several tasks)
//! can never tear an arm/consume pair apart or reorder two values of the
//! same link.
//!
//! # Example
//!
//! Note the section structure: constituents of one (iteration) section
//! compose into one medium automaton, so a fifo becomes a *link* exactly
//! when it sits in its own section between two solid ones.
//!
//! ```
//! use reo_runtime::{Connector, Mode};
//!
//! // Per channel: Sync – Fifo1 – Sync = two synchronous regions joined
//! // by one link.
//! let program = reo_dsl::parse_program(
//!     "P(a[];b[]) = prod (i:1..#a) Sync(a[i];m[i])
//!        mult prod (i:1..#a) Fifo1(m[i];n[i])
//!        mult prod (i:1..#a) Sync(n[i];b[i])",
//! ).unwrap();
//! let connector = Connector::builder(&program, "P")
//!     .mode(Mode::partitioned())
//!     .build()
//!     .unwrap();
//! let mut session = connector.session().replicate("a", 2).replicate("b", 2).connect().unwrap();
//! let handle = session.handle();
//! assert_eq!(handle.region_count(), 4); // 2 channels × 2 regions
//! assert_eq!(handle.link_count(), 2); // one cut fifo per channel
//!
//! let txs = session.typed_outports::<i64>("a").unwrap();
//! let rxs = session.typed_inports::<i64>("b").unwrap();
//! txs[0].send(5).unwrap();
//! assert_eq!(rxs[0].recv().unwrap(), 5);
//!
//! // Every region here borders exactly one link, so the kick-free fast
//! // path pumps inline, uncounted, and the value crossed the link
//! // through batched transfers.
//! let stats = handle.stats();
//! assert_eq!(stats.kicks, 0, "single-link chains must not kick");
//! assert!(stats.batched_values > 0, "the value crossed via batched pumps");
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use reo_automata::{Automaton, MemLayout, PortId, PortSet, ProductOptions, StateId, Store, Value};

use crate::cache::CachePolicy;
use crate::compiled::CompiledCore;
use crate::engine::{Engine, EngineCore, EngineInner, EngineStats, PortMap};
use crate::error::RuntimeError;
use crate::jit::JitCore;

thread_local! {
    /// Reusable in-worklist marks for the inline cascades (kicks and
    /// try-probes). [`Partitioned::pump_cascade`] leaves every
    /// mark false on exit, so the buffer only ever grows — no per-kick
    /// allocation, no O(links) re-zeroing on the operation hot path.
    static CASCADE_SCRATCH: std::cell::RefCell<Vec<bool>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The cascade-scratch invariant, checkable only in test builds: between
/// cascades every mark is false (each push's mark is cleared by its pop).
/// The scan is O(links), so it is deliberately *not* a `debug_assert!` on
/// the pump path — a debug `cargo test` pumps millions of cascades — and
/// lives behind `cfg(test)` for the dedicated invariant test instead.
#[cfg(test)]
fn cascade_scratch_is_clean() -> bool {
    CASCADE_SCRATCH.with(|s| s.borrow().iter().all(|&m| !m))
}

/// The queue of a cut fifo plus its arming flag — one lock for both, held
/// across every pump step, because they are read and written as a pair
/// (the front value stays queued while it is armed as a pending send).
struct LinkState {
    queue: std::collections::VecDeque<Value>,
    /// True while the queue front is armed as a pending send on
    /// [`Link::out_port`] (it leaves the queue only when the engine
    /// acknowledges consumption).
    armed: bool,
}

/// A cut fifo: an engine-to-engine queue.
///
/// The queue itself (`state`) is `Arc`-shared so that a reconfiguration
/// splice can carry a surviving link's in-flight values into the next
/// [`Topology`] without draining them: the new topology gets a fresh
/// `Link` record (region indices are renumbered by the splice) that
/// points at the *same* `LinkState`.
pub struct Link {
    /// The fifo's tail vertex — a boundary *output* of engine `from`.
    pub in_port: PortId,
    /// The fifo's head vertex — a boundary *input* of engine `to`.
    pub out_port: PortId,
    pub from: usize,
    pub to: usize,
    capacity: Option<usize>,
    state: Arc<Mutex<LinkState>>,
    /// The contention-handoff flag: a pumper that finds the link lock
    /// held raises it and leaves (the holder is already in a pump step
    /// and re-pumps on its way out) instead of convoying on the lock.
    /// Raised *before* the `try_lock` attempt and cleared by the holder
    /// only while it holds the lock, so a flag raised between the
    /// holder's last in-lock clear and its release is always observed by
    /// the holder's post-release re-check — a delegated pump cannot be
    /// stranded.
    repump: AtomicBool,
    /// Hangup propagation latches (monotone; reset only by a splice,
    /// which re-runs the fixpoint). `hangup_fwd`: the *from* engine's
    /// tail port is dead and the queue drained, so the head port was
    /// hung up on the *to* engine. `hangup_back`: the head port is dead
    /// (nothing downstream will ever consume), so the tail port was
    /// hung up on the *from* engine.
    hangup_fwd: AtomicBool,
    hangup_back: AtomicBool,
}

impl Link {
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    fn from_spec(spec: &LinkSpec, state: Option<Arc<Mutex<LinkState>>>) -> Link {
        Link {
            in_port: spec.in_port,
            out_port: spec.out_port,
            from: spec.from,
            to: spec.to,
            capacity: spec.capacity,
            state: state.unwrap_or_else(|| {
                Arc::new(Mutex::new(LinkState {
                    queue: spec.initial.iter().cloned().collect(),
                    armed: false,
                }))
            }),
            repump: AtomicBool::new(false),
            hangup_fwd: AtomicBool::new(false),
            hangup_back: AtomicBool::new(false),
        }
    }
}

/// One immutable snapshot of the partition's structure: regions, links,
/// routing. Hot paths clone an `Arc<Topology>` out of
/// [`Partitioned::topo`] and run against the snapshot lock-free; a
/// reconfiguration splice builds a successor snapshot and swaps it in
/// atomically. Engines of
/// surviving regions are carried over **by `Arc` identity** — blocked
/// tasks hold `Arc<Engine>` clones, so the engine they sleep in must be
/// the engine the new topology routes to.
pub struct Topology {
    /// One engine per synchronous region, each sharded to its own ports.
    pub engines: Vec<Arc<Engine>>,
    pub links: Vec<Link>,
    /// Port → engine index (boundary and internal ports of each region).
    pub router: HashMap<PortId, usize>,
    pub region_sizes: Vec<usize>,
    /// Region → indices of the links bordering it (either side). The
    /// static routing table of the kick protocol.
    region_links: Vec<Vec<usize>>,
    /// Link → links bordering either of its regions (incl. itself): the
    /// cascade frontier after a pump step of that link made progress.
    link_neighbors: Vec<Vec<usize>>,
    /// Region → constituent indices (into the automata list this topology
    /// was planned from), in composition order — the order of the region
    /// core's constituent state tuple.
    region_constituents: Vec<Vec<usize>>,
    /// Constituent index → its region; `None` for a cut queue (a link).
    automaton_region: Vec<Option<usize>>,
}

/// The result of partitioning a set of medium automata. Structure lives
/// in a swappable [`Topology`] snapshot; the kick counter persists across
/// reconfigurations.
pub struct Partitioned {
    topo: RwLock<Arc<Topology>>,
    /// What steps each region (needed again when a splice rebuilds one).
    engine_kind: RegionEngine,
    expansion_budget: usize,
    /// Counted kicks: operations on a region bordering ≥ 2 links
    /// ([`EngineStats::kicks`]).
    kicks: AtomicU64,
    /// Back-reference for fault fan-out, set once the partition is behind
    /// an `Arc` ([`Partitioned::wire_fault_fanout`]); splices use it to
    /// wire fresh region engines the same way.
    fanout: OnceLock<Weak<Partitioned>>,
    /// Shared stall-watchdog state, mirrored into every region engine so
    /// a deadline expiry anywhere can upgrade to [`RuntimeError::Stalled`].
    watchdog_state: OnceLock<Arc<crate::watchdog::WatchdogState>>,
    /// One-shot latch: a poisoned topology lock has already been reported
    /// (every engine poisoned), so recovery paths stay quiet afterwards.
    lock_poison_noted: AtomicBool,
}

/// A planned link: where a cut queue automaton will sit between regions.
struct LinkSpec {
    in_port: PortId,
    out_port: PortId,
    from: usize,
    to: usize,
    capacity: Option<usize>,
    initial: Vec<Value>,
}

/// Pure structural planning over a constituent list — regions, cut
/// links, routing — shared by initial construction and the splice path.
struct Plan {
    /// Region → member constituent indices, in composition order.
    regions: Vec<Vec<usize>>,
    automaton_region: Vec<Option<usize>>,
    links: Vec<LinkSpec>,
    router: HashMap<PortId, usize>,
    region_links: Vec<Vec<usize>>,
    link_neighbors: Vec<Vec<usize>>,
}

/// What steps a synchronous region: the JIT core, lowering connected steps
/// as states are first visited, or the region's product lowered whole
/// ([`crate::compiled::CompiledCore`]).
#[derive(Clone, Copy, Debug)]
pub enum RegionEngine {
    /// Just-in-time composition with the given state-cache policy.
    Jit(CachePolicy),
    /// Eager per-region product, lowered at build time — the paper's
    /// ahead-of-time composition, per region (the budget bounds each
    /// region's product, not the whole connector's).
    Compiled(ProductOptions),
}

/// [`partition_with_opts`] with the defaults of [`crate::Mode::partitioned`]:
/// a JIT core per region under the given state-cache policy, untraced.
pub fn partition(
    automata: Vec<Automaton>,
    _port_count: usize,
    mem_layout: &MemLayout,
    cache: CachePolicy,
    expansion_budget: usize,
) -> Result<Partitioned, RuntimeError> {
    partition_with_opts(
        automata,
        mem_layout,
        RegionEngine::Jit(cache),
        expansion_budget,
        false,
    )
}

/// Split `automata` into synchronous regions connected by queue links.
///
/// Every automaton *without* a queue hint goes into a region; regions are
/// the connected components over shared ports. A queue automaton whose two
/// sides touch different regions becomes a [`Link`]; one with both sides in
/// the same region (or dangling sides) stays an ordinary automaton of that
/// region. `engine` selects each region's stepping core.
///
/// `traced` must be set for sessions that intend to reconfigure: a splice
/// reads each affected region's per-constituent control states back out
/// of its core ([`EngineCore::constituent_states`]), which a compiled
/// region only records when composed via
/// [`CompiledCore::from_region_traced`] (JIT cores always track them).
/// Tracing skips label simplification, so non-reconfigurable sessions
/// keep the cheaper untraced build.
pub fn partition_with_opts(
    automata: Vec<Automaton>,
    mem_layout: &MemLayout,
    engine: RegionEngine,
    expansion_budget: usize,
    traced: bool,
) -> Result<Partitioned, RuntimeError> {
    let plan = plan_partition(&automata);

    // One engine per region, sharded to the region's own ports. The store
    // still shares the global layout (regions touch disjoint cells, so
    // sharing it is safe and keeps ids global).
    let mut engines: Vec<Arc<Engine>> = Vec::with_capacity(plan.regions.len());
    for members in &plan.regions {
        let autos: Vec<Automaton> = members.iter().map(|&i| automata[i].clone()).collect();
        let ports = region_port_map(&autos);
        let core: Box<dyn EngineCore> = match engine {
            RegionEngine::Jit(cache) => {
                Box::new(JitCore::new(autos, cache.build(), expansion_budget))
            }
            RegionEngine::Compiled(opts) if traced => {
                let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
                Box::new(CompiledCore::from_region_traced(&autos, &starts, &opts)?)
            }
            RegionEngine::Compiled(opts) => Box::new(CompiledCore::from_region(&autos, &opts)?),
        };
        engines.push(Arc::new(Engine::new(core, ports, Store::new(mem_layout))));
    }

    let links: Vec<Link> = plan
        .links
        .iter()
        .map(|spec| Link::from_spec(spec, None))
        .collect();

    Ok(Partitioned {
        topo: RwLock::new(Arc::new(Topology {
            engines,
            links,
            router: plan.router,
            region_sizes: plan.regions.iter().map(Vec::len).collect(),
            region_links: plan.region_links,
            link_neighbors: plan.link_neighbors,
            region_constituents: plan.regions,
            automaton_region: plan.automaton_region,
        })),
        engine_kind: engine,
        expansion_budget,
        kicks: AtomicU64::new(0),
        fanout: OnceLock::new(),
        watchdog_state: OnceLock::new(),
        lock_poison_noted: AtomicBool::new(false),
    })
}

/// Sparse port map over a region's automata (its own ports only).
fn region_port_map(autos: &[Automaton]) -> PortMap {
    PortMap::sparse(autos.iter().flat_map(|a| {
        let ps = a.ports();
        ps.iter().collect::<Vec<_>>()
    }))
}

/// The structural half of partitioning: regions as connected components
/// over shared ports, cut queues as links, kick routing tables. Pure —
/// no engines are built, so the splice path can re-plan a changed
/// constituent list and diff the result against the live topology.
fn plan_partition(automata: &[Automaton]) -> Plan {
    let n = automata.len();
    let is_queue: Vec<bool> = automata.iter().map(|a| a.queue_hint().is_some()).collect();

    // Union-find over non-queue automata sharing ports.
    let mut uf = UnionFind::new(n);
    let mut port_owner: HashMap<PortId, Vec<usize>> = HashMap::new();
    for (i, a) in automata.iter().enumerate() {
        for p in a.ports().iter() {
            port_owner.entry(p).or_default().push(i);
        }
    }
    for owners in port_owner.values() {
        let solid: Vec<usize> = owners.iter().copied().filter(|&i| !is_queue[i]).collect();
        for w in solid.windows(2) {
            uf.union(w[0], w[1]);
        }
    }

    // Decide the fate of each queue automaton.
    let mut keep_in_region: Vec<Option<usize>> = vec![None; n]; // root it joins
    let mut cut: Vec<bool> = vec![false; n];
    for (i, a) in automata.iter().enumerate() {
        let Some(hint) = a.queue_hint() else { continue };
        let neighbor = |p: PortId| -> Option<usize> {
            port_owner
                .get(&p)?
                .iter()
                .copied()
                .find(|&j| j != i && !is_queue[j])
        };
        let up = neighbor(hint.input);
        let down = neighbor(hint.output);
        match (up, down) {
            (Some(u), Some(d)) if uf.find(u) != uf.find(d) => cut[i] = true,
            (Some(u), _) => keep_in_region[i] = Some(uf.find(u)),
            (_, Some(d)) => keep_in_region[i] = Some(uf.find(d)),
            (None, None) => keep_in_region[i] = None, // its own region
        }
    }
    // Two queue automata chained back to back: if either side's neighbor is
    // itself a queue that got cut, the inner one keeps a dangling side —
    // treat conservatively by keeping (not cutting) chained queues.
    // (`neighbor` above only looks at non-queue automata, so a fifo chain
    // collapses into per-fifo singleton regions linked pairwise — correct,
    // if not maximally clever.)

    // Build regions: roots of non-queue automata + kept queues + singleton
    // queues.
    let mut region_of_root: HashMap<usize, usize> = HashMap::new();
    let mut regions: Vec<Vec<usize>> = Vec::new();
    let mut automaton_region: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if cut[i] {
            continue;
        }
        let root = if !is_queue[i] {
            Some(uf.find(i))
        } else {
            keep_in_region[i]
        };
        let region = match root {
            Some(r) => *region_of_root.entry(r).or_insert_with(|| {
                regions.push(Vec::new());
                regions.len() - 1
            }),
            None => {
                regions.push(Vec::new());
                regions.len() - 1
            }
        };
        regions[region].push(i);
        automaton_region[i] = Some(region);
    }

    // Links for the cut queues.
    let mut links = Vec::new();
    for (i, a) in automata.iter().enumerate() {
        if !cut[i] {
            continue;
        }
        let hint = a.queue_hint().expect("cut implies hint");
        let owner_region = |p: PortId| -> usize {
            port_owner[&p]
                .iter()
                .copied()
                .filter(|&j| j != i)
                .find_map(|j| automaton_region[j])
                .expect("cut queue has solid neighbors")
        };
        links.push(LinkSpec {
            in_port: hint.input,
            out_port: hint.output,
            from: owner_region(hint.input),
            to: owner_region(hint.output),
            capacity: hint.capacity,
            initial: hint.initial.clone(),
        });
    }

    let mut router = HashMap::new();
    for (i, region) in automaton_region.iter().enumerate() {
        if let Some(r) = region {
            for p in automata[i].ports().iter() {
                router.entry(p).or_insert(*r);
            }
        }
    }

    // Static kick routing: region → bordering links, link → cascade set.
    let mut region_links: Vec<Vec<usize>> = vec![Vec::new(); regions.len()];
    for (l, link) in links.iter().enumerate() {
        region_links[link.from].push(l);
        if link.to != link.from {
            region_links[link.to].push(l);
        }
    }
    let link_neighbors: Vec<Vec<usize>> = links
        .iter()
        .map(|link| {
            let mut ns: Vec<usize> = region_links[link.from]
                .iter()
                .chain(&region_links[link.to])
                .copied()
                .collect();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
        .collect();

    Plan {
        regions,
        automaton_region,
        links,
        router,
        region_links,
        link_neighbors,
    }
}

impl Partitioned {
    /// Snapshot the live topology. Hot paths clone the `Arc` out of a
    /// brief read lock and then run lock-free against the snapshot; a
    /// concurrent splice swaps in a successor snapshot without ever
    /// blocking readers for longer than the pointer swap.
    pub fn topo(&self) -> Arc<Topology> {
        match self.topo.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => {
                // A thread panicked while holding the topology lock. The
                // guarded value is a plain `Arc` pointer (the swap cannot
                // tear), so the snapshot itself is consistent — recover it
                // instead of cascading the panic into every operation, and
                // poison the engines once so tasks get a typed error
                // rather than running against a half-spliced session.
                let snap = Arc::clone(&poisoned.into_inner());
                if !self.lock_poison_noted.swap(true, Ordering::SeqCst) {
                    for e in &snap.engines {
                        e.poison("topology lock poisoned by a panicked reconfiguration");
                    }
                }
                snap
            }
        }
    }

    /// One **batched** pump step of one link, with the link's state locked
    /// across the whole sequence (lock order is always link → engine;
    /// engines never take link locks, so there is no cycle).
    ///
    /// **Contention-aware handoff:** the link lock is taken with a
    /// `try_lock`. A pumper that finds it held does not convoy behind the
    /// holder — it raises the link's `repump` flag and returns; the
    /// holder is mid-pump-step and, seeing the flag on its way out,
    /// re-pumps to cover the delegated work. The flag is raised *before*
    /// the `try_lock` and the holder clears it only while holding the
    /// lock, then re-checks it after every release: whichever side loses
    /// the race, the flag is observed and the work is done (see `Link`).
    ///
    /// Returns `true` iff *this call* observed progress. A delegated call
    /// returns `false` — the holder observes (and, in its own cascade,
    /// propagates) the progress instead.
    fn pump_link(&self, topo: &Topology, link: &Link) -> bool {
        link.repump.store(true, Ordering::SeqCst);
        let mut progressed = false;
        loop {
            let Some(mut st) = link.state.try_lock() else {
                // Lock held: the holder's post-release re-check sees the
                // flag we just raised and re-pumps on our behalf.
                return progressed;
            };
            link.repump.store(false, Ordering::SeqCst);
            progressed |= self.pump_link_locked(topo, link, &mut st);
            drop(st);
            if !link.repump.load(Ordering::SeqCst) {
                return progressed;
            }
            // A contender delegated to us between our last in-lock clear
            // and the release: loop and cover its pump.
        }
    }

    /// The pump-step body, with the link state lock held.
    ///
    /// Exactly two engine-lock acquisitions, each moving as many values as
    /// it can: the accept side drains every delivery the *from* engine can
    /// produce (re-arming between takes, up to the link's free capacity —
    /// the credit), the emit side acknowledges and re-offers queue fronts
    /// until the *to* engine stops consuming. The old protocol made four
    /// acquisitions to move at most one value, so a backlog of depth `k`
    /// cost `O(k)` cascade revisits at `O(4k)` lock round-trips; now it is
    /// one pump step at two.
    fn pump_link_locked(&self, topo: &Topology, link: &Link, st: &mut LinkState) -> bool {
        let LinkState { queue, armed } = st;
        // Credit: free slots in the link queue (the armed front stays
        // queued until acknowledged, so `len` counts resident values).
        let len0 = queue.len();
        let credit = link
            .capacity
            .map_or(usize::MAX, |cap| cap.saturating_sub(len0));
        let mut progressed =
            topo.engines[link.from].link_drain_deliveries(link.in_port, queue, credit);
        // The drain was capacity-throttled iff it used up every free slot
        // of a bounded queue — only then can an acknowledgment below free
        // anything worth a second pass.
        let throttled = link.capacity.is_some() && queue.len() - len0 == credit;
        let len1 = queue.len();
        progressed |= topo.engines[link.to].link_offer_batch(link.out_port, queue, armed);
        // Emit-before-drain credit: acknowledgments during the offer freed
        // queue slots, and the drain above had been starved of credit —
        // use the freed slots in this same pump step instead of leaving
        // them to the next one (one fewer pump per value on a full link).
        if throttled && queue.len() < len1 {
            let credit = link
                .capacity
                .map_or(usize::MAX, |cap| cap.saturating_sub(queue.len()));
            progressed |=
                topo.engines[link.from].link_drain_deliveries(link.in_port, queue, credit);
        }
        // Deferred hangup propagation: a link whose source port is dead
        // keeps delivering its buffered values; the moment the queue runs
        // dry (and no front is armed) the head port can never produce
        // again either, so it hangs up on the downstream engine. The
        // `any_hungup` probe is one atomic load, so the no-fault hot path
        // pays nothing beyond it.
        if queue.is_empty()
            && !*armed
            && !link.hangup_fwd.load(Ordering::Acquire)
            && topo.engines[link.from].any_hungup()
            && topo.engines[link.from].is_dead(link.in_port)
            && !topo.engines[link.from].has_parked_delivery(link.in_port)
        {
            link.hangup_fwd.store(true, Ordering::Release);
            topo.engines[link.to].hangup(&[link.out_port]);
            progressed = true; // cascade: downstream links may now be dead too
        }
        progressed
    }

    /// Worklist pump: start from the given links, and whenever a link's
    /// pump step makes progress, revisit the links bordering its regions
    /// (only those can have been enabled — a pump step touches exactly two
    /// engines). `scratch` marks in-worklist links; reaching an empty
    /// worklist is quiescence over everything the starting set could
    /// influence. Safe to run concurrently from any number of threads.
    ///
    /// `scratch` must be all-false on entry and is all-false again on
    /// exit (every mark set by a push is cleared by its pop), so callers
    /// reuse one buffer forever without re-zeroing; it only grows.
    fn pump_cascade(
        &self,
        topo: &Topology,
        start: impl IntoIterator<Item = usize>,
        scratch: &mut Vec<bool>,
    ) {
        if scratch.len() < topo.links.len() {
            scratch.resize(topo.links.len(), false);
        }
        // The all-false invariant is O(links) to scan, so it is *not*
        // checked here even in debug builds (a debug `cargo test` pumps
        // millions of cascades); `cascade_scratch_is_clean` + the
        // dedicated invariant test cover it.
        let mut work: Vec<usize> = Vec::new();
        for l in start {
            if !scratch[l] {
                scratch[l] = true;
                work.push(l);
            }
        }
        while let Some(i) = work.pop() {
            scratch[i] = false;
            if self.pump_link(topo, &topo.links[i]) {
                for &j in &topo.link_neighbors[i] {
                    if !scratch[j] {
                        scratch[j] = true;
                        work.push(j);
                    }
                }
            }
        }
    }

    /// Move values across every link until quiescent. Used for
    /// connect-time initial arming and by the synchronous try-probe paths
    /// (a value another task's cascade is still moving along an upstream
    /// link is unreachable from a targeted cascade, which only expands
    /// on progress — only the full sweep guarantees the probe observes
    /// everything already in flight). Safe to run concurrently from any
    /// thread.
    pub fn pump(&self) {
        let topo = self.topo();
        CASCADE_SCRATCH.with(|s| {
            self.pump_cascade(&topo, 0..topo.links.len(), &mut s.borrow_mut());
        });
    }

    /// Pump after an operation on port `p`, on the calling task's own
    /// thread: only the links bordering `p`'s region can have been
    /// enabled, so only those are considered.
    ///
    /// Three cases, cheapest first:
    ///
    /// * **zero links anywhere / zero links on this region's border** —
    ///   return immediately, uncounted. A pure intra-region connector
    ///   pays nothing beyond the (skipped-entirely when the partition has
    ///   no links at all) router lookup.
    /// * **exactly one bordering link — the kick-free fast path.** Pump
    ///   that link inline, uncounted. Combined with connect-time arming
    ///   and the batched pump's keep-armed discipline, a steady-state
    ///   single-link chain (`Sync – Fifo1 – Sync`) keeps
    ///   `EngineStats::kicks` at zero. When the link's cascade frontier
    ///   is itself alone, the pump loops in place; otherwise the inline
    ///   cascade covers downstream links.
    /// * **two or more bordering links** — one counted kick: an inline
    ///   cascade starting from all of them.
    pub fn kick(&self, p: PortId) {
        let topo = self.topo();
        if topo.links.is_empty() {
            return; // no links at all: nothing a kick could ever pump
        }
        let Some(&region) = topo.router.get(&p) else {
            return;
        };
        let adjacent = &topo.region_links[region];
        match adjacent.len() {
            0 => (), // region borders no link: the engine already did it all
            1 => {
                let l = adjacent[0];
                if topo.link_neighbors[l].len() == 1 {
                    while self.pump_link(&topo, &topo.links[l]) {}
                } else {
                    CASCADE_SCRATCH.with(|s| {
                        self.pump_cascade(&topo, std::iter::once(l), &mut s.borrow_mut());
                    });
                }
            }
            _ => {
                self.kicks.fetch_add(1, Ordering::Relaxed);
                CASCADE_SCRATCH.with(|s| {
                    self.pump_cascade(&topo, adjacent.iter().copied(), &mut s.borrow_mut());
                });
            }
        }
    }

    /// Sum of global steps over all regions.
    pub fn steps(&self) -> u64 {
        self.topo().engines.iter().map(|e| e.steps()).sum()
    }

    /// Number of synchronous regions in the live topology.
    pub fn region_count(&self) -> usize {
        self.topo().engines.len()
    }

    /// Number of cross-region links in the live topology.
    pub fn link_count(&self) -> usize {
        self.topo().links.len()
    }

    /// Aggregated contention counters over all region engines, plus the
    /// partition's own kick counter.
    pub fn stats(&self) -> EngineStats {
        let mut acc = EngineStats::default();
        for e in &self.topo().engines {
            acc.merge(&e.stats());
        }
        acc.kicks = self.kicks.load(Ordering::Relaxed);
        acc
    }

    /// First poison message among the region engines, if any.
    pub fn poison_message(&self) -> Option<String> {
        self.topo().engines.iter().find_map(|e| e.poison_message())
    }

    /// Poison every region engine (fault fan-out): one region's panic
    /// must not strand tasks parked in *other* regions, so the poison is
    /// spread session-wide and every parked waiter — condvar or async
    /// waker — resolves with [`RuntimeError::Poisoned`]. Idempotent.
    pub fn poison_all(&self, msg: &str) {
        for e in &self.topo().engines {
            e.poison(msg);
        }
    }

    /// Wire each region engine's fault notifier to poison the *whole*
    /// partition: a panic contained in one region's firing loop fans out
    /// so peers in other regions fail fast instead of waiting forever.
    /// Must be called once the partition sits behind its final `Arc`;
    /// splices reuse the stored back-reference for fresh regions.
    ///
    /// The notifier runs with the panicking engine's lock held, so the
    /// fan-out is deferred to a detached thread (lock order: never take
    /// another engine's lock while holding one).
    pub fn wire_fault_fanout(self: &Arc<Self>) {
        let _ = self.fanout.set(Arc::downgrade(self));
        for e in &self.topo().engines {
            Self::wire_engine_fanout(self.fanout.get().expect("fanout just set"), e);
        }
    }

    fn wire_engine_fanout(weak: &Weak<Partitioned>, engine: &Arc<Engine>) {
        let weak = weak.clone();
        engine.set_fault_notifier(Box::new(move |msg| {
            let weak = weak.clone();
            let msg = msg.to_string();
            // Deferred: the notifier fires under the poisoned engine's
            // lock; poisoning the siblings needs their locks.
            std::thread::spawn(move || {
                if let Some(part) = weak.upgrade() {
                    part.poison_all(&msg);
                }
            });
        }));
    }

    /// Arm the shared stall watchdog: every region engine gets the same
    /// state handle so a deadline expiry on any port can upgrade to
    /// [`RuntimeError::Stalled`] with the full cross-region report.
    pub(crate) fn set_watchdog_state(&self, w: Arc<crate::watchdog::WatchdogState>) {
        let _ = self.watchdog_state.set(Arc::clone(&w));
        for e in &self.topo().engines {
            e.set_watchdog(Arc::clone(&w));
        }
    }

    /// Hang up the given ports (their tasks dropped the handles) and
    /// propagate deadness across links to a fixpoint, then pump so any
    /// transition enabled by the wake-ups runs.
    pub fn hangup(&self, ports: &[PortId]) {
        let topo = self.topo();
        let mut any = false;
        for &p in ports {
            if let Some(&r) = topo.router.get(&p) {
                topo.engines[r].hangup(&[p]);
                any = true;
            }
        }
        if any {
            self.propagate_hangups(&topo);
            self.pump();
        }
    }

    /// Cross-link hangup fixpoint. Forward: a link whose tail port is
    /// dead on the *from* engine and whose queue is drained hangs up its
    /// head port on the *to* engine (buffered values still deliver — the
    /// drained-later case is covered by the pump,
    /// [`Partitioned::pump_link_locked`]). Backward: a link whose head
    /// port is dead on the *to* engine (nothing will ever consume) hangs
    /// up its tail port on the *from* engine immediately — values parked
    /// behind it could never be delivered anyway. The latches are
    /// monotone and finite, so the loop terminates.
    fn propagate_hangups(&self, topo: &Topology) {
        if !topo.engines.iter().any(|e| e.any_hungup()) {
            return;
        }
        loop {
            let mut changed = false;
            for link in &topo.links {
                let from = &topo.engines[link.from];
                let to = &topo.engines[link.to];
                if !link.hangup_fwd.load(Ordering::Acquire)
                    && from.any_hungup()
                    && from.is_dead(link.in_port)
                {
                    // Drained means *really* drained: the link queue is
                    // empty, no front is offered, and no fired delivery
                    // is still parked on the tail awaiting its pump.
                    let drained = {
                        let st = link.state.lock();
                        st.queue.is_empty() && !st.armed
                    } && !from.has_parked_delivery(link.in_port);
                    if drained {
                        link.hangup_fwd.store(true, Ordering::Release);
                        to.hangup(&[link.out_port]);
                        changed = true;
                    }
                }
                if !link.hangup_back.load(Ordering::Acquire)
                    && to.any_hungup()
                    && to.is_dead(link.out_port)
                {
                    link.hangup_back.store(true, Ordering::Release);
                    from.hangup(&[link.in_port]);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    pub fn close(&self) {
        for e in &self.topo().engines {
            e.close();
        }
    }

    /// Which engine serves port `p` (boundary ports of cut links route to
    /// the engine that owns the surviving side). Returns an owned `Arc`
    /// snapshot: the caller keeps a stable engine reference even if a
    /// splice swaps the topology mid-operation (kept regions preserve
    /// their engine's `Arc` identity, so a parked task wakes in the same
    /// engine the new topology routes to).
    ///
    /// A port the live topology no longer routes (detached by a splice)
    /// falls back to an arbitrary engine, whose port map then rejects the
    /// operation with [`RuntimeError::Detached`] — detached handles fail,
    /// they don't panic.
    pub fn engine_for(&self, p: PortId) -> Arc<Engine> {
        let topo = self.topo();
        match topo.router.get(&p) {
            Some(&r) => Arc::clone(&topo.engines[r]),
            None => Arc::clone(
                topo.engines
                    .first()
                    .expect("partition has at least one region"),
            ),
        }
    }

    /// A freshly composed region core for the splice path — always
    /// state-traced, so the *next* splice can read constituent states
    /// back out of it. A compiled re-lowering that blows its product
    /// budget falls back to a JIT core for this region instead of
    /// failing the splice ("re-lowering deferred").
    fn build_region_core(
        &self,
        autos: &[Automaton],
        starts: &[StateId],
    ) -> Result<Box<dyn EngineCore>, RuntimeError> {
        let jit = |cache: CachePolicy| -> Box<dyn EngineCore> {
            Box::new(JitCore::with_states(
                autos.to_vec(),
                starts,
                cache.build(),
                self.expansion_budget,
            ))
        };
        Ok(match self.engine_kind {
            RegionEngine::Jit(cache) => jit(cache),
            RegionEngine::Compiled(opts) => {
                match CompiledCore::from_region_traced(autos, starts, &opts) {
                    Ok(core) => Box::new(core),
                    Err(RuntimeError::Explosion(_)) => jit(CachePolicy::Unbounded),
                    Err(e) => return Err(e),
                }
            }
        })
    }

    /// Splice the live topology from the `old_automata` constituent list
    /// to `new_automata` — the partitioned half of a dynamic
    /// reconfiguration (attach/leave of a replicated branch).
    ///
    /// `old_of_new[i]` names the old constituent that new constituent `i`
    /// continues (`None` = freshly attached); old constituents not named
    /// by any entry are being detached. `layout` is the new global memory
    /// layout and **must be a superset of the old one** (memory ids are
    /// allocated monotonically; kept and removed cells retain their ids
    /// and initial contents).
    ///
    /// The protocol, in lock order (reconfig serialization is the
    /// caller's job — [`crate::Session::attach`] holds the session's
    /// reconfig lock):
    ///
    /// 1. **Plan** the new partition and match it against the live
    ///    topology: a new region inherits an old region's engine iff they
    ///    share a kept constituent. Merges and splits of live regions are
    ///    rejected ([`RuntimeError::Reconfig`]) — v1 supports branch
    ///    churn, not arbitrary re-partitioning.
    /// 2. **Quiesce**: lock removed links (link → engine is the pump's
    ///    lock order, so link locks come first), then every affected
    ///    engine. Verify removed ports are idle
    ///    (`Engine::removal_quiescent`), removed links empty, and every
    ///    detaching constituent at rest (initial control state, initial
    ///    memory) — the zero-loss guarantee: a branch with an undelivered
    ///    value refuses to detach.
    /// 3. **Splice**: recompose each affected region's core *from the
    ///    current constituent states* (kept constituents resume exactly
    ///    where they were) and install it into the same engine —
    ///    `Arc<Engine>` identity is preserved, so tasks parked in kept
    ///    regions wake in the engine the new topology routes to. Fresh
    ///    regions get fresh engines; untouched regions are not even
    ///    locked.
    /// 4. **Swap** in the successor [`Topology`]: surviving links carry
    ///    their in-flight values over via the shared `LinkState`.
    /// 5. **Re-pump** everything once, inline — nothing enabled by the
    ///    splice waits for the next task operation.
    ///
    /// On any error the live topology and every engine are left exactly
    /// as they were (all mutations happen after the last fallible step).
    pub fn splice(
        &self,
        old_automata: &[Automaton],
        new_automata: &[Automaton],
        old_of_new: &[Option<usize>],
        layout: &MemLayout,
    ) -> Result<(), RuntimeError> {
        assert_eq!(new_automata.len(), old_of_new.len());
        let old = self.topo();
        let plan = plan_partition(new_automata);

        // Kept constituents must keep their role: a queue that was a cut
        // link cannot re-enter a region mid-flight (its values live in
        // the link queue, not in its memory cell), and vice versa.
        for (ni, oi) in old_of_new.iter().enumerate() {
            let Some(oi) = *oi else { continue };
            if plan.automaton_region[ni].is_none() != old.automaton_region[oi].is_none() {
                return Err(RuntimeError::Reconfig(format!(
                    "constituent `{}` would change between link and region roles",
                    new_automata[ni].name()
                )));
            }
        }

        // Match regions old ↔ new through their kept constituents.
        let mut old_region_of: Vec<Option<usize>> = vec![None; plan.regions.len()];
        let mut taken: Vec<Option<usize>> = vec![None; old.engines.len()];
        for (nr, members) in plan.regions.iter().enumerate() {
            for &ni in members {
                let Some(oi) = old_of_new[ni] else { continue };
                let or = old.automaton_region[oi].expect("role checked above");
                match old_region_of[nr] {
                    None => old_region_of[nr] = Some(or),
                    Some(prev) if prev != or => {
                        return Err(RuntimeError::Reconfig(
                            "the reconfiguration would merge two live regions (unsupported)".into(),
                        ))
                    }
                    Some(_) => {}
                }
            }
            if let Some(or) = old_region_of[nr] {
                if taken[or].replace(nr).is_some() {
                    return Err(RuntimeError::Reconfig(
                        "the reconfiguration would split a live region (unsupported)".into(),
                    ));
                }
            }
        }
        let removed_regions: Vec<usize> = (0..old.engines.len())
            .filter(|&r| taken[r].is_none())
            .collect();

        // Ports leaving the session: ports of detached constituents that
        // no surviving constituent still uses.
        let mut kept_old = vec![false; old_automata.len()];
        for oi in old_of_new.iter().flatten() {
            kept_old[*oi] = true;
        }
        let live_ports: HashSet<PortId> = new_automata
            .iter()
            .flat_map(|a| {
                let ps = a.ports();
                ps.iter().collect::<Vec<_>>()
            })
            .collect();
        let mut removed_ports: Vec<PortId> = old_automata
            .iter()
            .enumerate()
            .filter(|(oi, _)| !kept_old[*oi])
            .flat_map(|(_, a)| {
                let ps = a.ports();
                ps.iter().collect::<Vec<_>>()
            })
            .filter(|p| !live_ports.contains(p))
            .collect();
        removed_ports.sort_unstable_by_key(|p| p.index());
        removed_ports.dedup();

        // Surviving links keep their queue (matched by port pair — kept
        // constituents keep their ports, fresh ones get fresh ports).
        let mut carried_state: Vec<Option<Arc<Mutex<LinkState>>>> = vec![None; plan.links.len()];
        let mut old_link_kept = vec![false; old.links.len()];
        for (li, spec) in plan.links.iter().enumerate() {
            if let Some((oli, ol)) = old
                .links
                .iter()
                .enumerate()
                .find(|(_, ol)| ol.in_port == spec.in_port && ol.out_port == spec.out_port)
            {
                carried_state[li] = Some(Arc::clone(&ol.state));
                old_link_kept[oli] = true;
            }
        }

        // Affected kept regions: constituent list (or its order, which is
        // the state-tuple order) changed. Identical regions are reused
        // untouched — they are never even locked.
        let mut affected: Vec<usize> = Vec::new();
        for (nr, members) in plan.regions.iter().enumerate() {
            let Some(or) = old_region_of[nr] else {
                continue;
            };
            let same = members.len() == old.region_constituents[or].len()
                && members
                    .iter()
                    .zip(&old.region_constituents[or])
                    .all(|(&ni, &oi)| old_of_new[ni] == Some(oi));
            if !same {
                affected.push(or);
            }
        }

        // ---- Quiesce (lock order: links, then engines). ----
        let mut removed_link_guards = Vec::new();
        for (oli, ol) in old.links.iter().enumerate() {
            if old_link_kept[oli] {
                continue;
            }
            let g = ol.state.lock();
            if !g.queue.is_empty() {
                return Err(RuntimeError::Reconfig(format!(
                    "link {} → {} of the detaching branch still holds {} undelivered value(s)",
                    ol.in_port,
                    ol.out_port,
                    g.queue.len()
                )));
            }
            removed_link_guards.push(g);
        }

        let mut locked: Vec<usize> = affected
            .iter()
            .chain(removed_regions.iter())
            .copied()
            .collect();
        locked.sort_unstable();
        locked.dedup();
        let mut guards: HashMap<usize, parking_lot::MutexGuard<'_, EngineInner>> = HashMap::new();
        for &r in &locked {
            let g = old.engines[r].lock_for_reconfig();
            Engine::check_open(&g)?;
            Engine::removal_quiescent(&g, &removed_ports)?;
            guards.insert(r, g);
        }

        // Removed regions: *every* port idle, every constituent at rest.
        for &r in &removed_regions {
            let g = &guards[&r];
            let all_ports: Vec<PortId> = g.pending.port_map().iter().collect();
            Engine::removal_quiescent(g, &all_ports)?;
            let states = constituent_states_of(g)?;
            for (pos, &oi) in old.region_constituents[r].iter().enumerate() {
                constituent_at_rest(&old_automata[oi], states[pos], g, layout)?;
            }
        }

        // Affected kept regions: verify detaching members at rest, then
        // recompose from the live constituent states.
        let mut installs: Vec<(usize, Box<dyn EngineCore>, PortMap)> = Vec::new();
        let mut fresh: HashMap<usize, (Box<dyn EngineCore>, PortMap)> = HashMap::new();
        for (nr, members) in plan.regions.iter().enumerate() {
            let autos: Vec<Automaton> =
                members.iter().map(|&ni| new_automata[ni].clone()).collect();
            match old_region_of[nr] {
                Some(or) if affected.contains(&or) => {
                    let g = &guards[&or];
                    let states = constituent_states_of(g)?;
                    for (pos, &oi) in old.region_constituents[or].iter().enumerate() {
                        if !kept_old[oi] {
                            constituent_at_rest(&old_automata[oi], states[pos], g, layout)?;
                        }
                    }
                    let starts: Vec<StateId> = members
                        .iter()
                        .map(|&ni| match old_of_new[ni] {
                            Some(oi) => {
                                let pos = old.region_constituents[or]
                                    .iter()
                                    .position(|&c| c == oi)
                                    .expect("kept member belongs to its matched region");
                                states[pos]
                            }
                            None => new_automata[ni].initial(),
                        })
                        .collect();
                    let core = self.build_region_core(&autos, &starts)?;
                    installs.push((or, core, region_port_map(&autos)));
                }
                Some(_) => {} // untouched: engine reused as-is
                None => {
                    let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
                    let core = self.build_region_core(&autos, &starts)?;
                    fresh.insert(nr, (core, region_port_map(&autos)));
                }
            }
        }

        // ---- Point of no return: install, assemble, swap. ----
        for (or, core, ports) in installs {
            let g = guards.get_mut(&or).expect("affected region is locked");
            old.engines[or].install(g, core, ports, layout);
        }
        let engines: Vec<Arc<Engine>> = (0..plan.regions.len())
            .map(|nr| match old_region_of[nr] {
                Some(or) => Arc::clone(&old.engines[or]),
                None => {
                    let (core, ports) = fresh.remove(&nr).expect("fresh region core built");
                    let engine = Arc::new(Engine::new(core, ports, Store::new(layout)));
                    // Fresh regions join the fault-containment fabric:
                    // poison fan-out and the shared stall watchdog.
                    if let Some(weak) = self.fanout.get() {
                        Self::wire_engine_fanout(weak, &engine);
                    }
                    if let Some(w) = self.watchdog_state.get() {
                        engine.set_watchdog(Arc::clone(w));
                    }
                    engine
                }
            })
            .collect();
        let links: Vec<Link> = plan
            .links
            .iter()
            .enumerate()
            .map(|(li, spec)| Link::from_spec(spec, carried_state[li].take()))
            .collect();
        let next = Topology {
            engines,
            links,
            router: plan.router,
            region_sizes: plan.regions.iter().map(Vec::len).collect(),
            region_links: plan.region_links,
            link_neighbors: plan.link_neighbors,
            region_constituents: plan.regions,
            automaton_region: plan.automaton_region,
        };
        let next = Arc::new(next);
        // A poisoned write lock means a reader panicked (the write section
        // itself is a pointer swap that cannot tear): recover the guard —
        // the swap below is still fully consistent — rather than aborting
        // a splice that already passed its point of no return.
        *self.topo.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&next);
        drop(guards);
        drop(removed_link_guards);
        // Detached regions' engines are shut so any straggling reference
        // fails with `Closed` instead of stepping a zombie core.
        for &r in &removed_regions {
            old.engines[r].close();
        }
        // The fresh `Link` records reset the hangup-propagation latches;
        // surviving engines keep their hungup sets, so one fixpoint pass
        // re-establishes cross-link deadness before the pump runs.
        self.propagate_hangups(&next);
        // One full pump covers everything the splice may have enabled
        // (fresh links arm, carried tokens reach new heads).
        self.pump();
        Ok(())
    }
}

/// Per-region sets of link-protocol ports: the pump keeps a receive armed
/// on every tail and offers fronts on every head, so these show up as
/// pending operations with no task behind them — the watchdog must not
/// count them as parked work.
fn link_port_excludes(topo: &Topology) -> Vec<PortSet> {
    let mut excludes = vec![PortSet::new(); topo.engines.len()];
    for link in &topo.links {
        excludes[link.from].insert(link.in_port);
        excludes[link.to].insert(link.out_port);
    }
    excludes
}

impl crate::watchdog::StallSample for Partitioned {
    fn progress_counter(&self) -> u64 {
        let topo = self.topo();
        topo.engines
            .iter()
            .map(|e| e.sample_progress(&PortSet::new()).0)
            .sum()
    }

    fn parked_count(&self) -> usize {
        let topo = self.topo();
        let excludes = link_port_excludes(&topo);
        topo.engines
            .iter()
            .zip(&excludes)
            .map(|(e, ex)| e.sample_progress(ex).1)
            .sum()
    }

    fn stall_snapshot(&self, stalled_for: Duration) -> crate::watchdog::StallReport {
        let topo = self.topo();
        let excludes = link_port_excludes(&topo);
        let mut parked = Vec::new();
        let mut regions = Vec::new();
        for (r, e) in topo.engines.iter().enumerate() {
            let (ops, report) = e.sample_region(r, &excludes[r]);
            parked.extend(ops);
            regions.push(report);
        }
        let links = topo
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| crate::watchdog::LinkReport {
                link: i,
                from: l.from,
                to: l.to,
                depth: l.depth(),
            })
            .collect();
        crate::watchdog::StallReport {
            stalled_for,
            parked,
            regions,
            links,
        }
    }
}

/// The per-constituent control states of a locked region engine, or the
/// reconfiguration error explaining that its core is not state-traced.
pub(crate) fn constituent_states_of(inner: &EngineInner) -> Result<Vec<StateId>, RuntimeError> {
    inner.core.constituent_states().ok_or_else(|| {
        RuntimeError::Reconfig(
            "region core does not track constituent states (session was not connected \
             as reconfigurable)"
                .into(),
        )
    })
}

/// A detaching constituent must be *at rest*: initial control state and
/// initial memory contents. Anything else means user data is still inside
/// the branch, and detaching would lose it.
pub(crate) fn constituent_at_rest(
    a: &Automaton,
    state: StateId,
    inner: &EngineInner,
    layout: &MemLayout,
) -> Result<(), RuntimeError> {
    if state != a.initial() {
        return Err(RuntimeError::Reconfig(format!(
            "constituent `{}` of the detaching branch is mid-protocol \
             (control state {state:?} is not its initial state)",
            a.name()
        )));
    }
    for &m in a.mem_ids() {
        if !inner.store.matches_initial(m, layout) {
            return Err(RuntimeError::Reconfig(format!(
                "constituent `{}` of the detaching branch still buffers data in memory \
                 cell {m:?}",
                a.name()
            )));
        }
    }
    Ok(())
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_automata::{primitives, MemId};

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    #[test]
    fn fifo_between_regions_is_cut() {
        // merger(0,1;2) -> fifo(2;3) -> replicator(3;4,5): two synchronous
        // regions joined by one link.
        let autos = vec![
            primitives::merger(&[p(0), p(1)], p(2)),
            primitives::fifo1(p(2), p(3), MemId(0)),
            primitives::replicator(p(3), &[p(4), p(5)]),
        ];
        let layout = MemLayout::cells(1);
        let part = partition(autos, 6, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        let t = part.topo();
        assert_eq!(t.engines.len(), 2);
        assert_eq!(t.links.len(), 1);
        assert_eq!(t.region_sizes, vec![1, 1]);
        assert_ne!(t.links[0].from, t.links[0].to);
        // The kick routing table covers both regions' borders.
        assert_eq!(t.region_links[t.links[0].from], vec![0]);
        assert_eq!(t.region_links[t.links[0].to], vec![0]);
        assert_eq!(t.link_neighbors[0], vec![0]);
    }

    #[test]
    fn synchronous_connector_stays_whole() {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::sync(p(1), p(2)),
            primitives::replicator(p(2), &[p(3), p(4)]),
        ];
        let layout = MemLayout::cells(0);
        let part = partition(autos, 5, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        assert_eq!(part.region_count(), 1);
        assert_eq!(part.link_count(), 0);
    }

    #[test]
    fn task_facing_fifo_is_kept_not_cut() {
        // Task -> fifo -> sync -> task: the fifo's tail is task-facing, so
        // it must stay inside the (single) region.
        let autos = vec![
            primitives::fifo1(p(0), p(1), MemId(0)),
            primitives::sync(p(1), p(2)),
        ];
        let layout = MemLayout::cells(1);
        let part = partition(autos, 3, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        assert_eq!(part.region_count(), 1);
        assert_eq!(part.link_count(), 0);
    }

    fn two_region_pipeline() -> Partitioned {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
            primitives::sync(p(2), p(3)),
        ];
        let layout = MemLayout::cells(1);
        partition(autos, 4, &layout, CachePolicy::Unbounded, 1 << 20).unwrap()
    }

    /// Replicator → two parallel fifo links → merger: both regions border
    /// *two* links, so operations run the counted kick cascade (the
    /// two_region_pipeline above takes the kick-free fast path instead). Every value sent at port 0 arrives twice at port 5.
    fn dual_link_pipeline() -> Partitioned {
        let autos = vec![
            primitives::replicator(p(0), &[p(1), p(2)]),
            primitives::fifo1(p(1), p(3), MemId(0)),
            primitives::fifo1(p(2), p(4), MemId(1)),
            primitives::merger(&[p(3), p(4)], p(5)),
        ];
        let layout = MemLayout::cells(2);
        let part = partition(autos, 6, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        assert_eq!(part.region_count(), 2);
        assert_eq!(part.link_count(), 2);
        part
    }

    #[test]
    fn values_flow_across_a_link_end_to_end() {
        let part = Arc::new(two_region_pipeline());
        part.pump(); // initial arming
        let sender_engine = part.engine_for(p(0));
        let recv_engine = part.engine_for(p(3));
        assert!(!Arc::ptr_eq(&sender_engine, &recv_engine));

        let part2 = Arc::clone(&part);
        let rx = std::thread::spawn(move || {
            let e = part2.engine_for(p(3));
            e.register_recv(p(3)).unwrap();
            part2.kick(p(3));
            let v = e.wait_recv(p(3), None).unwrap();
            part2.kick(p(3));
            v
        });
        let e = part.engine_for(p(0));
        e.register_send(p(0), Value::Int(21)).unwrap();
        part.kick(p(0));
        e.wait_send(p(0), None).unwrap();
        part.kick(p(0));
        assert_eq!(rx.join().unwrap().as_int(), Some(21));
        let stats = part.stats();
        assert_eq!(
            stats.kicks, 0,
            "single-link regions take the kick-free fast path: {stats:?}"
        );
        assert!(
            stats.batched_values > 0,
            "the value crossed via batched link transfers: {stats:?}"
        );
    }

    /// Satellite: a partition without any links must early-return from
    /// `kick` without counting — pure intra-region connectors pay no
    /// per-operation kick bookkeeping.
    #[test]
    fn zero_link_partitions_skip_kicks_entirely() {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
        ];
        let layout = MemLayout::cells(1);
        let part = partition(autos, 3, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        assert_eq!(part.link_count(), 0);
        for _ in 0..10 {
            part.kick(p(0));
            part.kick(p(2));
        }
        assert_eq!(part.stats().kicks, 0, "no-link kicks must stay uncounted");
    }

    /// The tentpole in miniature: three producers stuck behind one merger
    /// region drain across the link in a single accept-side engine-lock
    /// hold — one batched transfer, three values.
    #[test]
    fn batched_drain_moves_a_whole_backlog_in_one_lock_hold() {
        let autos = vec![
            primitives::merger(&[p(0), p(1), p(2)], p(3)),
            primitives::fifo_n(p(3), p(4), MemId(0), 8),
            primitives::sync(p(4), p(5)),
        ];
        let layout = MemLayout::cells(1);
        let part = partition(autos, 6, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        let t = part.topo();
        assert_eq!(t.links.len(), 1);
        assert_eq!(t.links[0].capacity, Some(8));
        part.pump(); // arm the accept side

        // All three producers register; only the first fires immediately
        // (the armed receive is single-slot), the rest pend.
        let from = part.engine_for(p(0));
        for (i, port) in [p(0), p(1), p(2)].into_iter().enumerate() {
            from.register_send(port, Value::Int(i as i64)).unwrap();
        }
        let before = from.stats();
        part.pump();
        let after = from.stats();
        assert_eq!(
            after.batched_values - before.batched_values,
            3,
            "one pump drains the whole backlog: {after:?}"
        );
        assert_eq!(
            after.batch_moves - before.batch_moves,
            1,
            "…in a single batched transfer: {after:?}"
        );
        assert_eq!(t.links[0].depth(), 3, "all three values reside in the link");

        // And they come out strictly in producer order.
        let to = part.engine_for(p(5));
        for expect in 0..3i64 {
            to.register_recv(p(5)).unwrap();
            part.kick(p(5));
            assert_eq!(to.wait_recv(p(5), None).unwrap().as_int(), Some(expect));
            part.kick(p(5));
        }
    }

    /// Satellite: the cascade scratch self-cleans (every mark set by a
    /// push is cleared by its pop). The O(links) scan lives here, not on
    /// the pump hot path.
    #[test]
    fn cascade_scratch_self_cleans_between_cascades() {
        let part = Arc::new(dual_link_pipeline());
        part.pump();
        let tx = part.engine_for(p(0));
        let rx = part.engine_for(p(5));
        for k in 0..50i64 {
            tx.register_send(p(0), Value::Int(k)).unwrap();
            part.kick(p(0));
            tx.wait_send(p(0), None).unwrap();
            part.kick(p(0));
            for _ in 0..2 {
                rx.register_recv(p(5)).unwrap();
                part.kick(p(5));
                rx.wait_recv(p(5), None).unwrap();
                part.kick(p(5));
            }
            assert!(
                cascade_scratch_is_clean(),
                "cascade left a worklist mark set at round {k}"
            );
        }
        // Both regions border two links, so every operation above was a
        // counted kick (the fast path would have left the counter at 0).
        assert!(part.stats().kicks > 0, "multi-link regions count kicks");
    }

    /// Satellite (emit-before-drain credit): on a *full* bounded link, one
    /// pump step must both acknowledge the consumed front (freeing a slot)
    /// and refill that slot from the producer side — without the second
    /// drain pass the refill costs an extra pump per value.
    #[test]
    fn freed_slot_is_reusable_within_the_same_pump_step() {
        let part = Arc::new(two_region_pipeline()); // fifo1 link: capacity 1
        part.pump();
        let t = part.topo();
        assert_eq!(t.links[0].capacity, Some(1));
        let tx = part.engine_for(p(0));
        let rx = part.engine_for(p(3));

        // Fill the link to capacity.
        tx.register_send(p(0), Value::Int(0)).unwrap();
        part.pump();
        tx.wait_send(p(0), None).unwrap();
        assert_eq!(t.links[0].depth(), 1, "link full");

        // The next value queues up behind the full link: pumping moves
        // nothing (no credit).
        tx.register_send(p(0), Value::Int(1)).unwrap();
        part.pump();
        assert_eq!(t.links[0].depth(), 1, "no credit: value 1 must wait");

        // The consumer takes the front; the acknowledgment (pop) is still
        // pending inside the link.
        rx.register_recv(p(3)).unwrap();
        assert_eq!(rx.wait_recv(p(3), None).unwrap().as_int(), Some(0));
        assert_eq!(t.links[0].depth(), 1, "front consumed but unacked");

        // ONE pump step: the offer acknowledges (slot freed) and the
        // second drain pass refills it immediately, completing the
        // producer — one fewer pump per value.
        assert!(part.pump_link(&t, &t.links[0]));
        assert_eq!(
            t.links[0].depth(),
            1,
            "freed slot must be refilled within the same pump step"
        );
        tx.wait_send(p(0), None).unwrap(); // already complete: no more pumps
    }

    #[test]
    fn initial_tokens_survive_the_cut() {
        // sync -> fifo1full(token) -> sync: the receiver must get the token
        // before any send happens.
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1_full(p(1), p(2), MemId(0), Value::Int(99)),
            primitives::sync(p(2), p(3)),
        ];
        let layout = MemLayout::cells(1);
        let part = partition(autos, 4, &layout, CachePolicy::Unbounded, 1 << 20).unwrap();
        part.pump();
        let e = part.engine_for(p(3));
        e.register_recv(p(3)).unwrap();
        part.kick(p(3));
        assert_eq!(e.wait_recv(p(3), None).unwrap().as_int(), Some(99));
    }

    /// Regression for the old split `queue`/`armed` mutex pair: concurrent
    /// pumpers racing the arm/consume sequence could reorder values or pop
    /// a front that was never armed. With one `LinkState` lock held across
    /// every pump step, any number of concurrent pumpers must preserve
    /// per-link FIFO order exactly.
    #[test]
    fn concurrent_pumpers_cannot_tear_arm_consume_pairs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let part = Arc::new(two_region_pipeline());
        part.pump();

        // Two rogue pumpers hammering the link while values flow.
        let stop = Arc::new(AtomicBool::new(false));
        let pumpers: Vec<_> = (0..2)
            .map(|_| {
                let part = Arc::clone(&part);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        part.pump();
                    }
                })
            })
            .collect();

        const K: i64 = 500;
        let part_tx = Arc::clone(&part);
        let tx = std::thread::spawn(move || {
            let e = part_tx.engine_for(p(0));
            for k in 0..K {
                e.register_send(p(0), Value::Int(k)).unwrap();
                part_tx.kick(p(0));
                e.wait_send(p(0), None).unwrap();
                part_tx.kick(p(0));
            }
        });
        let e = part.engine_for(p(3));
        for k in 0..K {
            e.register_recv(p(3)).unwrap();
            part.kick(p(3));
            let v = e.wait_recv(p(3), None).unwrap();
            part.kick(p(3));
            assert_eq!(v.as_int(), Some(k), "link reordered or lost a value");
        }
        tx.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for t in pumpers {
            t.join().unwrap();
        }
    }

    /// Satellite (contention-aware handoff): a pumper that finds the link
    /// lock held must not convoy — it raises the `repump` flag and
    /// returns immediately; the holder sees the flag on its way out and
    /// performs the delegated pump itself.
    #[test]
    fn contended_pump_delegates_to_the_holder_via_the_repump_flag() {
        use std::sync::atomic::Ordering;
        let part = two_region_pipeline();
        part.pump();
        let t = part.topo();
        let link = &t.links[0];

        // A value is ready to cross: the drain side can arm + take it.
        let tx = part.engine_for(p(0));
        tx.register_send(p(0), Value::Int(7)).unwrap();

        // Simulate a holder mid-pump-step: take the link state lock.
        let guard = link.state.lock();
        // The contender must neither block nor pump: it delegates.
        assert!(
            !part.pump_link(&t, link),
            "a delegated pump reports no progress"
        );
        assert!(
            link.repump.load(Ordering::SeqCst),
            "the contender must leave the repump flag raised for the holder"
        );
        // Inspect through the held guard (`depth()` would self-deadlock).
        assert_eq!(guard.queue.len(), 0, "the contender must not have pumped");
        drop(guard);

        // The holder's post-release re-check runs exactly this call: the
        // raised flag routes the delegated work to it, it pumps, and the
        // flag comes back down.
        assert!(
            part.pump_link(&t, link),
            "the holder's re-pump covers the work"
        );
        assert_eq!(link.depth(), 1, "the delegated value crossed the link");
        assert!(
            !link.repump.load(Ordering::SeqCst),
            "a completed pump leaves the flag clear"
        );
        tx.wait_send(p(0), None).unwrap(); // the producer was completed too
    }

    /// Satellite (contention-aware handoff), adversarially: two threads
    /// hammer `pump_link` on the same link while a full stream crosses
    /// it. Every overlap takes the delegation path; if a holder ever
    /// missed a raised flag the stream would strand (both ends block
    /// forever) — completion of all K values in order is the proof.
    #[test]
    fn delegated_pumps_are_never_stranded_under_contention() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let part = Arc::new(two_region_pipeline());
        part.pump();

        let stop = Arc::new(AtomicBool::new(false));
        let pumpers: Vec<_> = (0..2)
            .map(|_| {
                let part = Arc::clone(&part);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let t = part.topo();
                    while !stop.load(Ordering::Relaxed) {
                        part.pump_link(&t, &t.links[0]);
                    }
                })
            })
            .collect();

        // No kicks anywhere: the contending pumpers are the only engine
        // of progress, so a stranded delegation would hang this stream.
        const K: i64 = 500;
        let part_tx = Arc::clone(&part);
        let tx = std::thread::spawn(move || {
            let e = part_tx.engine_for(p(0));
            for k in 0..K {
                e.register_send(p(0), Value::Int(k)).unwrap();
                e.wait_send(p(0), None).unwrap();
            }
        });
        let e = part.engine_for(p(3));
        for k in 0..K {
            e.register_recv(p(3)).unwrap();
            let v = e.wait_recv(p(3), None).unwrap();
            assert_eq!(v.as_int(), Some(k), "contended link lost or reordered");
        }
        tx.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for t in pumpers {
            t.join().unwrap();
        }
    }
}
