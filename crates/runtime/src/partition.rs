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
//! another's. Each region's members are renamed to the region's own ids
//! (`rename`, over [`reo_automata::remap`]): a port is its slot in its
//! engine's table, a cell its place in the region's store, and the router
//! sends a session port to its engine and slot once per port call.
//! Expansion work and memory then scale with the largest *region*, not
//! with the whole connector.
//!
//! Every session is a [`Partitioned`]; the [`Placement`] only decides the
//! plan. On one engine ([`Placement::Single`], and the existing approach)
//! the plan is one region holding every constituent, with no links — the
//! paper's one state machine — and port calls, stall reports and splices
//! take the same paths as on many.
//!
//! # The link protocol
//!
//! A cut fifo is two ports with a queue between them ("Modularizing and
//! Specifying Protocols among Threads"), and each port serves itself.
//! Every region engine knows which of its ports are link tails and heads
//! (`LinkEnd`, set when the region is built and re-derived by a splice),
//! and its fire loop finishes a link port **in the hold that completed
//! it**: a completed tail moves the delivery into the link queue and
//! re-arms its receive while the queue has credit (so a backlog of `k`
//! stuck producers crosses in one hold), a completed head pops the
//! acknowledged front and offers the next one. Nobody polls a link.
//!
//! What belongs to the *other* engine of the link leaves the hold as an
//! event ([`LinkEvent`]) that says no more than **look at this end of your
//! link again**; what to do there is read from the link's state
//! (`LinkState`, under the link mutex) when the event is served:
//!
//! * `Offer(head)` — a push onto a link whose front was not on offer, or
//!   the tail died (`source_dead`). A head whose source is dead and whose
//!   queue is dry hangs up (buffered values deliver first; a head whose
//!   own pop dries such a queue hangs up in that hold, with no event);
//!   otherwise the front is put on offer.
//! * `Rearm(tail)` — a pop freed a slot while the tail had been left
//!   un-armed for lack of credit, or the head died (`sink_dead`). A tail
//!   whose sink is dead hangs up at once; otherwise it is armed while
//!   credit remains.
//!
//! A port that hangs up may kill its engine's other link ends, whose
//! flags change and raise the next events: deadness crosses a chain of
//! links as a value does. A fault leaves the same way: a firing that
//! fails poisons its engine and marks the hold's events, and the drain
//! first poisons every other region ([`Partitioned::poison_all`]) — when
//! an operation answers `Poisoned`, the whole session is.
//!
//! As in the paper's runtime (Sect. IV-D) there are no helper threads:
//! whoever's hold raised the events — a port call, a dropped handle —
//! drains them after it unlocked (`Partitioned::drain`), one hold of the
//! target engine per event (`Engine::serve`), each hold possibly raising
//! further events onto the same worklist — a value crosses a chain of
//! links on the thread of the task that sent it. Serving is idempotent,
//! so an event that went stale (a splice removed the port, someone else
//! armed it) costs one hold and changes nothing; [`Partitioned::pump`]
//! simply raises both events on every link and drains — connect, splice
//! and the one-shot try-probes use it.
//!
//! **Lock order.** A thread never holds two engine locks. The link mutex
//! (`LinkShared`) is a leaf: taken under at most one engine lock, held for
//! a push, a pop or a flag flip. Because a link end is only ever touched
//! under its own engine's lock, concurrent tasks cannot tear an
//! offer/acknowledge pair apart or reorder two values of one link, and
//! "dead and dry" is one look under one mutex, whoever comes last.
//!
//! **Cost.** A single-link chain such as the `relay` family's
//! `Sync – Fifo1 – Sync` costs four engine-lock holds per value: the poll
//! that completes the send and the `Offer` it raised; the poll that
//! completes the receive and the `Rearm` it raised. The link counters are
//! [`EngineStats`]'s.
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
//! // Every region here borders exactly one link, so no operation counts
//! // as a kick, and the value crossed the link end to end.
//! let stats = handle.stats();
//! assert_eq!(stats.kicks, 0, "single-link chains must not kick");
//! assert!(stats.batched_values > 0, "the value crossed the link, counted at both ends");
//! ```

use std::collections::{btree_map::Entry, BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use parking_lot::Mutex;
use reo_automata::{Automaton, MemId, MemLayout, PortId, PortOwners, PortSet, StateId, Value};

use crate::connector::{core_for, Limits, Mode, Placement};
use crate::engine::{
    Engine, EngineInner, EngineStats, LinkEnd, LinkShared, LinkState, Names, Pending, Slot,
};
pub use crate::engine::{LinkEvent, LinkEvents};
use crate::error::RuntimeError;
use crate::reconfig::splice_core;
use crate::watchdog::{LinkReport, Snapshot, StallReport, Watchdog};

/// A cut fifo: an engine-to-engine queue.
///
/// The queue itself (`shared`) is `Arc`-shared with the two engines'
/// link-end tables, and so that a reconfiguration splice can carry a
/// surviving link's in-flight values into the next [`Topology`] without
/// draining them: the new topology gets a fresh `Link` record (region
/// indices are renumbered by the splice) that points at the *same* state.
pub struct Link {
    /// The fifo's tail vertex — a boundary *output* of engine `from`.
    pub in_port: PortId,
    /// The fifo's head vertex — a boundary *input* of engine `to`.
    pub out_port: PortId,
    pub from: usize,
    pub to: usize,
    shared: Arc<LinkShared>,
    /// What the queue held when its constituent was stamped.
    initial: Vec<Value>,
}

impl Link {
    pub fn depth(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// The queue holds what it started with: the one at-rest rule a link
    /// shares with a region constituent (initial state and memory).
    fn at_rest(&self) -> bool {
        self.shared.state.lock().queue.iter().eq(&self.initial)
    }

    /// Deadness has crossed this link, in either direction.
    fn crossed(&self) -> bool {
        let st = self.shared.state.lock();
        st.source_dead || st.sink_dead
    }

    fn from_spec(spec: &LinkSpec, shared: Option<Arc<LinkShared>>) -> Link {
        Link {
            in_port: spec.in_port,
            out_port: spec.out_port,
            from: spec.from,
            to: spec.to,
            shared: shared.unwrap_or_else(|| {
                Arc::new(LinkShared {
                    capacity: spec.capacity,
                    state: Mutex::new(LinkState {
                        queue: spec.initial.iter().cloned().collect(),
                        ..LinkState::default()
                    }),
                })
            }),
            initial: spec.initial.clone(),
        }
    }
}

/// The link-end table of every region, in one pass over `links`: each
/// link hands its tail to region `from` and its head to region `to`, at
/// their ids there.
fn region_ends(links: &[Link], router: &[Router], regions: usize) -> Vec<Vec<(PortId, LinkEnd)>> {
    let mut ends = vec![Vec::new(); regions];
    for l in links {
        for (r, port, head, peer) in [
            (l.from, l.in_port, false, l.out_port),
            (l.to, l.out_port, true, l.in_port),
        ] {
            let local = PortId(router[port.index()].expect("a link's ports route").local);
            let shared = Arc::clone(&l.shared);
            ends[r].push((local, LinkEnd { head, peer, shared }));
        }
    }
    ends
}

/// Where a session port is served: its region, and its id there.
#[derive(Clone, Copy, Debug)]
struct Route {
    region: u32,
    local: u32,
}

/// A router entry: `None` for a port no region serves.
type Router = Option<Route>;

/// One immutable snapshot of the partition's structure: regions, links,
/// routing. A port call clones an `Arc<Topology>` out of
/// [`Partitioned::topo`] once and routes, and drains its link events,
/// against that snapshot lock-free; a reconfiguration splice builds a
/// successor snapshot and swaps it in atomically. Engines of
/// surviving regions are carried over **by `Arc` identity** — blocked
/// tasks hold `Arc<Engine>` clones, so the engine they sleep in must be
/// the engine the new topology routes to.
pub struct Topology {
    /// One engine per synchronous region, each over its own ports.
    pub engines: Vec<Arc<Engine>>,
    pub links: Vec<Link>,
    /// Session port → its region and its id there (boundary and internal
    /// ports of each region).
    router: Vec<Router>,
    /// Region → constituent indices (into the automata list this topology
    /// was planned from), in composition order — the order of the region
    /// core's constituent state tuple.
    region_constituents: Vec<Vec<usize>>,
    /// Constituent index → its region; `None` for a cut queue (a link).
    automaton_region: Vec<Option<usize>>,
}

impl Topology {
    /// The region serving port `p`, if any.
    pub fn region_of(&self, p: PortId) -> Option<usize> {
        Some((*self.router.get(p.index())?)?.region as usize)
    }

    /// The engine serving port `p` (a cut link's port, the side that owns
    /// it) and `p`'s slot there, which its port calls take; `None` for a
    /// port never wired or detached by a splice ([`RuntimeError::Detached`]).
    pub fn engine_for(&self, p: PortId) -> Option<(&Arc<Engine>, Slot)> {
        let route = (*self.router.get(p.index())?)?;
        Some((&self.engines[route.region as usize], Slot(route.local)))
    }
}

/// The result of partitioning a set of medium automata. Structure lives
/// in a swappable [`Topology`] snapshot; the kick counter persists across
/// reconfigurations.
pub struct Partitioned {
    topo: Topo,
    /// What steps each region (needed again when a splice rebuilds one).
    mode: Mode,
    limits: Limits,
    /// Counted kicks: operations on a region bordering ≥ 2 links
    /// ([`EngineStats::kicks`]).
    kicks: AtomicU64,
    /// The session's stall watchdog, if armed (`SessionSpec::watchdog`).
    pub(crate) watchdog: Option<Watchdog>,
    /// One-shot latch: a poisoned topology lock has already been reported
    /// (every engine poisoned), so recovery paths stay quiet afterwards.
    lock_poison_noted: AtomicBool,
}

/// Where a [`Partitioned`] keeps its topology. A session connected
/// `reconfigurable` keeps it behind the lock a splice swaps it under;
/// any other has one for life, which its port calls read without a lock
/// (a lock read and an `Arc` clone per poll cost the `stepping` workload
/// a sixth of its throughput on a shared 2-vCPU host).
enum Topo {
    Fixed(Arc<Topology>),
    Live(RwLock<Arc<Topology>>),
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
    router: Vec<Router>,
}

/// [`partition_with_opts`] under [`crate::Mode::partitioned`]: a JIT core
/// per region. The layout and cache arguments are the ones `benchmark/`
/// passes, unused: each region's store holds its own members' cells.
pub fn partition(
    automata: Vec<Automaton>,
    port_count: usize,
    _mem_layout: &MemLayout,
    _cache: crate::cache::CachePolicy,
    expansion_budget: usize,
) -> Result<Partitioned, RuntimeError> {
    let limits = Limits {
        expansion_budget,
        ..Limits::default()
    };
    partition_with_opts(automata, port_count, Mode::partitioned(), limits, false)
}

/// Build the engines of a session over `automata`: one per region of the
/// plan `mode` makes (`plan_partition`), connected by queue links, each
/// region renamed to its own ids (`rename`).
/// `mode` also selects how each region's core fills its rows
/// (`connector::core_for`); `port_count` sizes the port router (ports
/// beyond it still route: the table grows).
pub fn partition_with_opts(
    automata: Vec<Automaton>,
    port_count: usize,
    mode: Mode,
    limits: Limits,
    reconfigurable: bool,
) -> Result<Partitioned, RuntimeError> {
    let mut plan = plan_partition(&automata, port_count, mode);
    let links: Vec<Link> = plan
        .links
        .iter()
        .map(|spec| Link::from_spec(spec, None))
        .collect();

    let mut maps = Default::default();
    let mut cores = Vec::with_capacity(plan.regions.len());
    let mut unplaced: Vec<Option<Automaton>> = automata.into_iter().map(Some).collect();
    for (r, members) in plan.regions.iter().enumerate() {
        let place = |&i: &usize| unplaced[i].take().expect("one region per constituent");
        let mut autos: Vec<Automaton> = members.iter().map(place).collect();
        let mut names = Names::default();
        rename(&mut maps, &mut autos, &mut names, r, &mut plan.router);
        let starts: Vec<StateId> = autos.iter().map(|a| a.initial()).collect();
        cores.push((core_for(mode, &limits, autos, &starts)?, names));
    }
    let ends = region_ends(&links, &plan.router, cores.len());
    let engines = (cores.into_iter().zip(ends))
        .map(|((core, names), ends)| Arc::new(Engine::new(core, names, &ends)))
        .collect();

    let topo = Arc::new(Topology {
        engines,
        links,
        router: plan.router,
        region_constituents: plan.regions,
        automaton_region: plan.automaton_region,
    });
    Ok(Partitioned {
        topo: if reconfigurable {
            Topo::Live(RwLock::new(topo))
        } else {
            Topo::Fixed(topo)
        },
        mode,
        limits,
        kicks: AtomicU64::new(0),
        watchdog: None,
        lock_poison_noted: AtomicBool::new(false),
    })
}

/// Name the ids past `names[..known]`, the region's names so far: one
/// named already keeps its place, the others (ascending, once each) take
/// the places of names gone from the list, then places past its end. An
/// entry of `map` (session id → region id) is valid where `names` lists the id back.
fn name<T: Copy + Ord>(map: &mut Vec<u32>, names: &mut Vec<T>, known: usize, at: fn(T) -> usize) {
    names[known..].sort_unstable();
    let end = names.iter().map(|&id| at(id) + 1).max().unwrap_or(0);
    map.resize(map.len().max(end), u32::MAX);
    for (i, &id) in names[..known].iter().enumerate() {
        map[at(id)] = i as u32;
    }
    let gone = |&i: &usize| names[known..].binary_search(&names[i]).is_err();
    let free: Vec<usize> = (0..known).filter(gone).collect();
    let (mut free, mut named) = (free.into_iter(), known);
    for k in known..names.len() {
        let (id, i) = (names[k], map[at(names[k])] as usize);
        if i >= named || names[i] != id {
            let place = free.next().unwrap_or(named);
            named += usize::from(place == named);
            (map[at(id)], names[place]) = (place as u32, id);
        }
    }
    names.truncate(named);
}

/// Rename `autos` into the ids of region `region`, named by `names` so
/// far (`name`): a fresh region's ports are `0..k` in session order; a
/// kept port or cell keeps its place. Every router entry into `region`
/// learns its port's id. `maps` (session id → region id, ports and cells)
/// is scratch shared by every region of one build or splice.
fn rename(
    maps: &mut [Vec<u32>; 2],
    autos: &mut [Automaton],
    names: &mut Names,
    region: usize,
    router: &mut [Router],
) {
    let ([ports, cells], known) = (maps, (names.ports.len(), names.cells.len()));
    let port_ids = autos.iter().flat_map(|a| a.ports().iter());
    names.ports.extend(port_ids);
    let cell_ids = autos.iter().flat_map(|a| a.mem_ids().iter().copied());
    names.cells.extend(cell_ids);
    name(ports, &mut names.ports, known.0, PortId::index);
    name(cells, &mut names.cells, known.1, MemId::index);
    for (i, p) in names.ports.iter().enumerate() {
        let route = router[p.index()].as_mut();
        if let Some(route) = route.filter(|r| r.region == region as u32) {
            route.local = i as u32;
        }
    }
    // A region over its whole session names each id by itself: no rename.
    let same = names.ports.iter().enumerate().all(|(i, p)| p.index() == i);
    if !(same && names.cells.iter().enumerate().all(|(i, m)| m.index() == i)) {
        for a in autos {
            a.rename(&|p| PortId(ports[p.index()]), &|m| MemId(cells[m.index()]));
        }
    }
}

/// The structural half of partitioning, and the one place a [`Placement`]
/// decides anything: the regions, the cut queues as links and the port
/// router (at least `port_count` entries; each port at its session id).
/// [`Placement::Single`] and [`Mode::Existing`] plan one region holding
/// every constituent in instantiation order, with no links;
/// [`Placement::Partitioned`] plans the synchronous regions
/// ([`synchronous_regions`]). Either way only the regions' ports route, so
/// a port no constituent wires, or one a splice detached, is *unknown*
/// ([`RuntimeError::Detached`]) rather than a silent dead slot. Pure — no
/// engines are built, so the splice path can re-plan a changed
/// constituent list and diff the result against the live topology.
fn plan_partition(automata: &[Automaton], port_count: usize, mode: Mode) -> Plan {
    let n = automata.len();
    let mut plan = match mode {
        Mode::Existing
        | Mode::New {
            placement: Placement::Single,
            ..
        } => Plan {
            regions: vec![(0..n).collect()],
            automaton_region: vec![Some(0); n],
            links: Vec::new(),
            router: Vec::new(),
        },
        Mode::New {
            placement: Placement::Partitioned,
            ..
        } => synchronous_regions(automata),
    };
    plan.router = vec![None; port_count];
    for (i, region) in plan.automaton_region.iter().enumerate() {
        if let Some(r) = region {
            for p in automata[i].ports().iter() {
                if plan.router.len() <= p.index() {
                    plan.router.resize(p.index() + 1, None);
                }
                let (region, local) = (*r as u32, p.0);
                plan.router[p.index()].get_or_insert(Route { region, local });
            }
        }
    }
    plan
}

/// Regions as connected components over shared ports — every automaton
/// *without* a queue hint goes into one — and cut queues as links: a queue
/// automaton whose two sides touch different regions becomes a [`Link`];
/// one with both sides in the same region (or dangling sides) stays an
/// ordinary automaton of that region. The router is left to the caller.
fn synchronous_regions(automata: &[Automaton]) -> Plan {
    let n = automata.len();
    let is_queue: Vec<bool> = automata.iter().map(|a| a.queue_hint().is_some()).collect();

    // Union-find over non-queue automata sharing ports.
    let mut uf = UnionFind::new(n);
    let owners = PortOwners::new(automata);
    let owners = |p: PortId| owners.of(p).iter().map(|&j| j as usize);
    for (i, a) in automata.iter().enumerate().filter(|&(i, _)| !is_queue[i]) {
        for p in a.ports().iter() {
            owners(p)
                .filter(|&j| !is_queue[j])
                .for_each(|j| uf.union(i, j));
        }
    }

    // Decide the fate of each queue automaton.
    let mut keep_in_region: Vec<Option<usize>> = vec![None; n]; // root it joins
    let mut cut: Vec<bool> = vec![false; n];
    for (i, a) in automata.iter().enumerate() {
        let Some(hint) = a.queue_hint() else { continue };
        let neighbor = |p: PortId| owners(p).find(|&j| j != i && !is_queue[j]);
        let up = neighbor(hint.input);
        let down = neighbor(hint.output);
        match (up, down) {
            (Some(u), Some(d)) if uf.find(u) != uf.find(d) => cut[i] = true,
            (Some(u), _) => keep_in_region[i] = Some(uf.find(u)),
            (_, Some(d)) => keep_in_region[i] = Some(uf.find(d)),
            (None, None) => keep_in_region[i] = None, // its own region
        }
    }
    // `neighbor` looks at non-queue automata only: two queues chained back
    // to back become two singleton regions that share their middle port,
    // and no link joins them.

    // Build regions: roots of non-queue automata + kept queues + singleton
    // queues.
    let mut region_of_root: Vec<Option<usize>> = vec![None; n];
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
            Some(r) => *region_of_root[r].get_or_insert_with(|| {
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
            owners(p)
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
    Plan {
        regions,
        automaton_region,
        links,
        router: Vec::new(),
    }
}

impl Partitioned {
    /// Snapshot the live topology. Hot paths clone the `Arc` out of a
    /// brief read lock and then run lock-free against the snapshot; a
    /// concurrent splice swaps in a successor snapshot without ever
    /// blocking readers for longer than the pointer swap.
    pub fn topo(&self) -> Arc<Topology> {
        let live = match &self.topo {
            Topo::Fixed(topo) => return Arc::clone(topo),
            Topo::Live(live) => live,
        };
        match live.read() {
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

    /// Run `f` against the live topology: the fixed one of a session that
    /// cannot splice, else a snapshot ([`topo`](Self::topo)).
    pub(crate) fn with_topo<R>(&self, f: impl FnOnce(&Topology) -> R) -> R {
        match &self.topo {
            Topo::Fixed(topo) => f(topo),
            Topo::Live(_) => f(&self.topo()),
        }
    }

    /// Serve the next event of `work` in one hold of its target engine,
    /// which may add further events — a fault first, one hold of every
    /// engine; `false` once the list is empty. The step a drain is made
    /// of, public so a test can take it through every interleaving.
    pub fn serve_one(&self, topo: &Topology, work: &mut LinkEvents) -> bool {
        if let Some(msg) = work.fault.take() {
            self.poison_all(&msg);
            return true;
        }
        let Some(ev) = work.pop() else { return false };
        let (LinkEvent::Offer(p) | LinkEvent::Rearm(p)) = ev;
        // A hold that follows a splice can name a port younger than the
        // caller's snapshot: look again before giving the event up (a port
        // that is gone is not routed, or no link end any more).
        let fresh = topo.region_of(p).is_none().then(|| self.topo());
        if let Some((engine, at)) = fresh.as_deref().unwrap_or(topo).engine_for(p) {
            engine.serve(at, matches!(ev, LinkEvent::Offer(_)), work);
        }
        true
    }

    /// Run `hold` — a port call's poll in an engine of `topo` — and
    /// then, that lock released, drain what it left for other engines
    /// against the snapshot the call was routed by: one hold of the target
    /// engine per event, until no hold raises another. Never holds two
    /// engine locks; when the call returns, what it caused is done.
    pub(crate) fn drain<R>(&self, topo: &Topology, hold: impl FnOnce(&mut LinkEvents) -> R) -> R {
        let mut work = LinkEvents::default();
        let result = hold(&mut work);
        if work.counted {
            self.kicks.fetch_add(1, Ordering::Relaxed);
        }
        while self.serve_one(topo, &mut work) {}
        result
    }

    /// Raise both events on every link and drain: connect-time arming
    /// (initial tokens reach their heads, every tail with credit is
    /// armed), the end of a splice, and the synchronous
    /// try-probes, which get no second chance and so must see everything
    /// already in flight, including what another task's drain has not
    /// served yet. Safe to run concurrently from any thread.
    pub fn pump(&self) {
        self.pump_on(&self.topo());
    }

    /// [`pump`](Self::pump) against the snapshot a port call already took.
    pub(crate) fn pump_on(&self, topo: &Topology) {
        self.drain(topo, |work| raise_all(topo, work));
    }

    /// Test support: what the link protocol promises whenever no event is
    /// outstanding, checked on every link of one `Snapshot` — a queue
    /// front is on offer at its head, a tail with credit is armed unless
    /// its head is dead. One line per violation.
    pub fn unserved_links(&self) -> Vec<String> {
        let topo = self.topo();
        let armed = self.snapshot(&topo).armed_links;
        let mut faults = Vec::new();
        for (i, link) in topo.links.iter().enumerate() {
            let tail_armed = armed.contains(link.in_port);
            let head_armed = armed.contains(link.out_port);
            let st = link.shared.state.lock();
            if st.offered != head_armed || st.offered == st.queue.is_empty() {
                faults.push(format!(
                    "link {i}: {} queued, offered={}, head armed={head_armed}",
                    st.queue.len(),
                    st.offered
                ));
            }
            let credit = link.shared.capacity.is_none_or(|cap| st.queue.len() < cap);
            if tail_armed != credit && !st.sink_dead {
                faults.push(format!(
                    "link {i}: {} queued of {:?}, tail armed={tail_armed}",
                    st.queue.len(),
                    link.shared.capacity
                ));
            }
        }
        faults
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

    /// The region cores' state caches, summed.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        let mut acc = crate::cache::CacheStats::default();
        for s in self.topo().engines.iter().map(|e| e.cache_stats()) {
            acc.hits += s.hits;
            acc.misses += s.misses;
            acc.resident += s.resident;
            acc.steps += s.steps;
        }
        acc
    }

    /// First poison message among the region engines, if any.
    pub fn poison_message(&self) -> Option<String> {
        self.topo().engines.iter().find_map(|e| e.poison_message())
    }

    /// Poison every region engine (fault fan-out): one region's panic
    /// must not strand tasks parked in *other* regions, so the poison is
    /// spread session-wide and every parked operation — thread or task —
    /// resolves with [`RuntimeError::Poisoned`]. On the calling thread,
    /// one hold per engine. Idempotent.
    pub fn poison_all(&self, msg: &str) {
        for e in &self.topo().engines {
            e.poison(msg);
        }
    }

    pub fn close(&self) {
        for e in &self.topo().engines {
            e.close();
        }
    }

    /// Splice the live topology to the constituent list `new_automata` —
    /// the engine half of a dynamic reconfiguration (attach/leave of a
    /// replicated branch), on one region or many.
    ///
    /// `old_of_new[i]` names the live constituent that new constituent `i`
    /// continues (`None` = freshly attached); live constituents not named
    /// by any entry are being detached. Fresh cells start from their
    /// constituents' layouts, kept cells keep their contents.
    ///
    /// The protocol, in lock order (reconfig serialization is the
    /// caller's job — [`crate::Session::attach`] holds the session's
    /// reconfig lock):
    ///
    /// 1. **Plan** the new partition and match it against the live
    ///    topology through the two routers: a new region continues the
    ///    engine of the old region that served any of its ports, and a
    ///    port only the old router routes leaves the session. Merges
    ///    and splits of live regions are rejected
    ///    ([`RuntimeError::Reconfig`]) — v1 supports branch churn, not
    ///    arbitrary re-partitioning.
    /// 2. **Quiesce**: lock every affected engine — a region whose
    ///    constituents change, leave, or whose *border* changes (it gains
    ///    or loses a bordering link, with or without a change to its
    ///    constituent list), and both regions of every link that deadness
    ///    has crossed — and only then look at the removed links:
    ///    the link mutex is a leaf under the engine locks, and with both
    ///    ends' engines held nothing can push or pop. Verify every
    ///    detaching constituent at rest, under one rule for both roles: a
    ///    leaving link's queue holds what its constituent was stamped with
    ///    (`QueueHint::initial`), a region constituent is in its initial
    ///    control state and memory. Verify removed ports idle
    ///    (`Engine::removal_quiescent` — but for the ports of a leaving
    ///    link at rest: the receive its protocol keeps armed on the tail
    ///    is not traffic). This is the zero-loss guarantee: a branch with
    ///    an undelivered value, or a ring whose token is away, refuses to
    ///    splice.
    /// 3. **Splice**: recompose each region whose constituents changed
    ///    *from the current constituent states* (kept constituents resume
    ///    exactly where they were, fresh ones start initial). Those states
    ///    come from one table by old constituent, read once from each held
    ///    core, that the at-rest check of step 2 reads too. A region names
    ///    what joins it in the slots and places of what left, then past
    ///    its end, so no kept port moves. Install the region, with its re-derived link ends,
    ///    into the same engine — `Arc<Engine>` identity is preserved, so
    ///    tasks parked in kept regions wake in the engine (and the slot)
    ///    the new topology routes to; a removed port's slot is cleared. A
    ///    region that only changed its border gets the new link-end table.
    ///    Hangups that crossed a link are derived, so forgotten here and
    ///    recomputed from the task hangups alone. Fresh regions get fresh
    ///    engines; untouched regions are not even locked.
    /// 4. **Swap** in the successor [`Topology`]: surviving links carry
    ///    their in-flight values over via the shared link state.
    /// 5. **Re-pump** everything once, inline — nothing enabled by the
    ///    splice waits for the next task operation, and a fault in an
    ///    install's own firing poisons every region.
    ///
    /// On any error the live topology and every engine are left exactly
    /// as they were (all mutations happen after the last fallible step). A
    /// fixed topology has no lock to swap it under
    /// ([`RuntimeError::NotReconfigurable`]).
    pub fn splice(
        &self,
        new_automata: &[Automaton],
        old_of_new: &[Option<usize>],
    ) -> Result<(), RuntimeError> {
        assert_eq!(new_automata.len(), old_of_new.len());
        let Topo::Live(live) = &self.topo else {
            return Err(RuntimeError::NotReconfigurable);
        };
        let old = self.topo();
        let mut plan = plan_partition(new_automata, old.router.len(), self.mode);

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

        // Match regions old ↔ new through the ports they serve: a new
        // region continues the old region that served any of its ports,
        // whatever its members became. A port routed only by the old
        // router leaves the session.
        let mut old_region_of: Vec<Option<usize>> = vec![None; plan.regions.len()];
        let mut taken: Vec<Option<usize>> = vec![None; old.engines.len()];
        let mut bind = |nr: usize, or: usize| {
            let unsupported = |what| {
                RuntimeError::Reconfig(format!("the reconfiguration would {what} (unsupported)"))
            };
            if old_region_of[nr].replace(or).is_some_and(|prev| prev != or) {
                return Err(unsupported("merge two live regions"));
            }
            if taken[or].replace(nr).is_some_and(|prev| prev != nr) {
                return Err(unsupported("split a live region"));
            }
            Ok(())
        };
        let mut removed_ports: Vec<PortId> = Vec::new();
        for (p, (or, nr)) in old.router.iter().zip(&mut plan.router).enumerate() {
            match (or, nr) {
                (None, _) => {}
                (_, None) => removed_ports.push(PortId(p as u32)),
                (Some(or), Some(nr)) => {
                    nr.local = or.local; // a kept port keeps its slot
                    bind(nr.region as usize, or.region as usize)?;
                }
            }
        }
        let removed_regions: Vec<usize> = (0..old.engines.len())
            .filter(|&r| taken[r].is_none())
            .collect();

        // Surviving links keep their queue (matched by port pair — kept
        // constituents keep their ports, fresh ones get fresh ports). A
        // kept region whose border changes — it borders a link that comes
        // or one that goes — is held, whatever its constituents do.
        let mut old_link_kept = vec![false; old.links.len()];
        let mut rebordered: Vec<usize> = Vec::new();
        let links: Vec<Link> = (plan.links.iter())
            .map(|spec| {
                let same = |ol: &Link| ol.in_port == spec.in_port && ol.out_port == spec.out_port;
                let shared = old.links.iter().position(same).map(|oli| {
                    old_link_kept[oli] = true;
                    Arc::clone(&old.links[oli].shared)
                });
                if shared.is_none() {
                    let ends = [spec.from, spec.to].map(|nr| old_region_of[nr]);
                    rebordered.extend(ends.into_iter().flatten());
                }
                Link::from_spec(spec, shared)
            })
            .collect();
        let leaving: Vec<&Link> = (old.links.iter().zip(&old_link_kept))
            .filter_map(|(ol, kept)| (!kept).then_some(ol))
            .collect();
        for ol in &leaving {
            rebordered.extend([ol.from, ol.to]);
        }

        // A new region is rebuilt when it is fresh or its kept region's
        // constituent list (or its order, which is the state-tuple order)
        // changed; those kept regions are affected. Identical regions are
        // reused untouched — they are never even locked.
        let rebuilt: Vec<bool> = (plan.regions.iter().zip(&old_region_of))
            .map(|(members, &or)| {
                let continued = members.iter().map(|&ni| old_of_new[ni]);
                let same =
                    |or: usize| continued.eq(old.region_constituents[or].iter().copied().map(Some));
                !or.is_some_and(same)
            })
            .collect();
        let affected: Vec<usize> = (rebuilt.iter().zip(&old_region_of))
            .filter_map(|(&rebuilt, &or)| or.filter(|_| rebuilt))
            .collect();

        // ---- Quiesce (lock order: engines, then the leaf link locks). ----
        let mut guards = BTreeMap::new();
        for &r in affected.iter().chain(&removed_regions).chain(&rebordered) {
            hold_region(&mut guards, &old.engines, r)?;
        }
        // A link port only ever hangs up because the far end of its link is
        // dead: derived state, whose cause the splice may take away (a
        // sender joins a merger all of whose senders had left). So it is
        // recomputed, not inherited: both engines of every link deadness
        // has crossed are held too, and past the point of no return those
        // flags are cleared and so are the ports' hangup marks.
        let mut derived: Vec<&Link> = Vec::new();
        loop {
            let found = derived.len(); // a held engine's flags are final
            for ol in &old.links {
                if ol.crossed() && !derived.iter().any(|d| std::ptr::eq(*d, ol)) {
                    derived.push(ol);
                    hold_region(&mut guards, &old.engines, ol.from)?;
                    hold_region(&mut guards, &old.engines, ol.to)?;
                }
            }
            if derived.len() == found {
                break;
            }
        }
        // Both engines of a link that leaves are held, so its queue is
        // final. Once it is at rest, what is pending at its two ports is
        // the link protocol's own — the receive it keeps armed on the tail
        // — and not traffic: no task ever holds a link port. Those ports
        // pass the quiescence checks unseen and are cleared past the point
        // of no return, so a refused splice still leaves the link served.
        let mut own_ports = PortSet::new();
        for ol in &leaving {
            if !ol.at_rest() {
                return Err(RuntimeError::Reconfig(format!(
                    "link {} → {} of the detaching branch holds {} value(s), not the {} it \
                     started with",
                    ol.in_port,
                    ol.out_port,
                    ol.depth(),
                    ol.initial.len()
                )));
            }
            own_ports.insert(ol.in_port);
            own_ports.insert(ol.out_port);
        }
        // A removed region's ports are removed ports or a leaving link's,
        // so this one check covers it too.
        let route =
            |p: PortId| old.router[p.index()].map(|r| (r.region as usize, r.local as usize));
        let traffic = removed_ports.iter().filter(|p| !own_ports.contains(**p));
        for (r, at) in traffic.filter_map(|&p| route(p)) {
            guards
                .get(&r)
                .map_or(Ok(()), |g| Engine::removal_quiescent(g, at))?;
        }
        // The live state of every constituent a held region serves, read
        // once. Every detaching constituent a region served is at rest: its
        // region changes its members or leaves, so it is held.
        let mut kept_old = vec![false; old.automaton_region.len()];
        for &oi in old_of_new.iter().flatten() {
            kept_old[oi] = true;
        }
        let mut live_state: Vec<Option<StateId>> = vec![None; kept_old.len()];
        for (&r, g) in &guards {
            let states = g.core.constituent_states().into_iter().enumerate();
            for (&oi, (k, state)) in old.region_constituents[r].iter().zip(states) {
                if !kept_old[oi] {
                    constituent_at_rest(&g.core.automata[k], state, g)?;
                }
                live_state[oi] = Some(state);
            }
        }

        // Rebuilt regions recompose: a kept member from its live state, a
        // fresh one from its initial state, renamed into the region's ids.
        let mut maps = Default::default();
        let (mut installs, mut fresh) = (HashMap::new(), HashMap::new());
        for (nr, members) in plan.regions.iter().enumerate() {
            if !rebuilt[nr] {
                continue; // untouched: engine reused as-is
            }
            let or = old_region_of[nr];
            let held = or.map(|or| &guards[&or]);
            let mut names = held.map_or_else(Names::default, |g| g.names.clone());
            let mut autos: Vec<Automaton> =
                members.iter().map(|&ni| new_automata[ni].clone()).collect();
            rename(&mut maps, &mut autos, &mut names, nr, &mut plan.router);
            let start = |&ni: &usize| match old_of_new[ni] {
                Some(oi) => live_state[oi].expect("a kept member's region is held"),
                None => new_automata[ni].initial(),
            };
            let starts: Vec<StateId> = members.iter().map(start).collect();
            let core = splice_core(self.mode, &self.limits, autos, &starts)?;
            match or {
                Some(or) => installs.insert(or, (core, names)),
                None => fresh.insert(nr, (core, names)),
            };
        }

        // ---- Point of no return: disarm, install, assemble, swap. ----
        for port in leaving.iter().flat_map(|ol| [ol.in_port, ol.out_port]) {
            let (r, at) = route(port).expect("a link's ports are routed");
            let g = guards.get_mut(&r).expect("held above");
            g.pending.replace(at, Pending::None);
        }
        for ol in derived {
            let mut st = ol.shared.state.lock();
            (st.source_dead, st.sink_dead) = (false, false);
            for (r, at) in [ol.in_port, ol.out_port].into_iter().filter_map(route) {
                let g = &mut **guards.get_mut(&r).expect("held above");
                g.dead.mark(&mut g.pending, at, false);
            }
        }
        for (r, at) in removed_ports.iter().copied().filter_map(route) {
            if let Some(g) = guards.get_mut(&r) {
                g.pending.replace(at, Pending::None);
                g.pending.slots[at] = Default::default(); // idle, no mark
            }
        }
        // Every held engine redoes its hangup analysis against its new link
        // ends; what it leaves for others (a fault first) is drained below.
        let ends = region_ends(&links, &plan.router, plan.regions.len());
        let mut work = LinkEvents::default();
        for (&or, g) in guards.iter_mut() {
            let Some(nr) = taken[or] else {
                continue; // a removed region
            };
            let ends = &ends[nr];
            old.engines[or].install(g, installs.remove(&or), ends, &mut work);
        }
        let engines: Vec<Arc<Engine>> = (0..plan.regions.len())
            .map(|nr| match old_region_of[nr] {
                Some(or) => Arc::clone(&old.engines[or]),
                None => {
                    let (core, names) = fresh.remove(&nr).expect("fresh region core built");
                    Arc::new(Engine::new(core, names, &ends[nr]))
                }
            })
            .collect();
        let next = Topology {
            engines,
            links,
            router: plan.router,
            region_constituents: plan.regions,
            automaton_region: plan.automaton_region,
        };
        let next = Arc::new(next);
        // A poisoned write lock means a reader panicked (the write section
        // itself is a pointer swap that cannot tear): recover the guard —
        // the swap below is still fully consistent — rather than aborting
        // a splice that already passed its point of no return.
        *live.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&next);
        drop(guards);
        // Detached regions' engines are shut so any straggling reference
        // fails with `Closed` instead of stepping a zombie core.
        for &r in &removed_regions {
            old.engines[r].close();
        }
        // One full pump covers everything the splice may have enabled:
        // fresh links arm, carried tokens reach new heads, and deadness
        // crosses again where it still holds.
        self.drain(&next, |out| {
            work.drain_into(out);
            raise_all(&next, out)
        });
        Ok(())
    }
}

/// Lock region `r`'s engine for a splice unless it is held already; a
/// closed or poisoned engine refuses the splice.
fn hold_region<'a>(
    guards: &mut BTreeMap<usize, parking_lot::MutexGuard<'a, EngineInner>>,
    engines: &'a [Arc<Engine>],
    r: usize,
) -> Result<(), RuntimeError> {
    if let Entry::Vacant(slot) = guards.entry(r) {
        let g = engines[r].lock();
        Engine::check_open(&g)?;
        slot.insert(g);
    }
    Ok(())
}

/// Raise both events on every link of `topo`, all distinct, so with no
/// search of what `work` holds.
fn raise_all(topo: &Topology, work: &mut LinkEvents) {
    for link in &topo.links {
        work.raise(LinkEvent::Rearm(link.in_port));
        work.raise(LinkEvent::Offer(link.out_port));
    }
}

/// What the stall watchdog observes ([`crate::watchdog`]).
impl Partitioned {
    /// One look at every region engine of `topo`, one hold each, and at
    /// every link queue.
    pub(crate) fn snapshot(&self, topo: &Topology) -> Snapshot {
        let mut snap = Snapshot {
            progress: 0,
            armed_links: PortSet::new(),
            report: StallReport {
                stalled_for: Duration::ZERO,
                parked: Vec::new(),
                regions: Vec::with_capacity(topo.engines.len()),
                links: Vec::with_capacity(topo.links.len()),
            },
        };
        for (r, e) in topo.engines.iter().enumerate() {
            e.scan(r, &mut snap);
        }
        for (link, l) in topo.links.iter().enumerate() {
            snap.report.links.push(LinkReport {
                link,
                from: l.from,
                to: l.to,
                depth: l.depth(),
            });
        }
        snap
    }

    /// Observe the session for its watchdog: the standing report if it is
    /// stalled; `None` without a watchdog.
    pub(crate) fn observe(&self) -> Option<StallReport> {
        let watchdog = self.watchdog.as_ref()?;
        watchdog.judge(self.snapshot(&self.topo()))
    }
}

/// A detaching constituent — `a`, in its region's ids — must be *at
/// rest*: initial control state and initial memory contents. Anything else
/// means user data is still inside the branch, and detaching would lose
/// it.
fn constituent_at_rest(
    a: &Automaton,
    state: StateId,
    inner: &EngineInner,
) -> Result<(), RuntimeError> {
    if state != a.initial() {
        return Err(RuntimeError::Reconfig(format!(
            "constituent `{}` of the detaching branch is mid-protocol \
             (control state {state:?} is not its initial state)",
            a.name()
        )));
    }
    for &m in a.mem_ids() {
        if !inner.store.matches_initial(m, a.mem_layout()) {
            return Err(RuntimeError::Reconfig(format!(
                "constituent `{}` of the detaching branch still buffers data in memory \
                 cell {:?}",
                a.name(),
                inner.names.cells[m.index()]
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
    use crate::cache::CachePolicy;
    use reo_automata::{primitives, MemId};
    use std::task::Waker;

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    /// A blocking send through the partition, as a port handle does it.
    fn send(part: &Partitioned, port: PortId, v: i64) {
        let topo = part.topo();
        let ((e, at), mut v) = (topo.engine_for(port).unwrap(), Some(Value::Int(v)));
        let poll = |w: &Waker| part.drain(&topo, |ev| e.poll_send(at, &mut v, w, true, ev));
        crate::port::block_on(None, poll, || unreachable!("no deadline")).unwrap()
    }

    /// The receiving twin of [`send`].
    fn recv(part: &Partitioned, port: PortId) -> Option<i64> {
        let topo = part.topo();
        let ((e, at), mut reg) = (topo.engine_for(port).unwrap(), false);
        let poll = |w: &Waker| part.drain(&topo, |ev| e.poll_recv(at, &mut reg, w, true, ev));
        let got = crate::port::block_on(None, poll, || unreachable!("no deadline"));
        got.unwrap().as_int()
    }

    /// The first poll of a send and its drain; whether that completed it.
    fn offer(part: &Partitioned, port: PortId, v: i64) -> bool {
        let topo = part.topo();
        let ((e, at), mut v) = (topo.engine_for(port).unwrap(), Some(Value::Int(v)));
        let first = part.drain(&topo, |ev| {
            e.poll_send(at, &mut v, Waker::noop(), false, ev)
        });
        first.map(Result::unwrap).is_some()
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
        let part = partition(autos, 6, &layout, CachePolicy, 1 << 20).unwrap();
        let t = part.topo();
        assert_eq!(t.engines.len(), 2);
        assert_eq!(t.links.len(), 1);
        assert_eq!(t.region_constituents, vec![vec![0], vec![2]]);
        assert_ne!(t.links[0].from, t.links[0].to);
        // The router covers both regions, link ports included.
        assert_eq!(t.region_of(p(2)), Some(t.links[0].from));
        assert_eq!(t.region_of(p(3)), Some(t.links[0].to));
        assert_eq!(t.region_of(p(6)), None);
    }

    #[test]
    fn synchronous_connector_stays_whole() {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::sync(p(1), p(2)),
            primitives::replicator(p(2), &[p(3), p(4)]),
        ];
        let layout = MemLayout::cells(0);
        let part = partition(autos, 5, &layout, CachePolicy, 1 << 20).unwrap();
        assert_eq!(part.region_count(), 1);
        assert_eq!(part.link_count(), 0);
    }

    #[test]
    fn a_splice_names_what_joins_in_the_places_of_what_left() {
        // Branch k is fifo1(2k+1; 2k+2) into merger(2, 2k+2; 0); each splice
        // swaps the last branch for a fresh one, with fresh session ids.
        let autos = |k: u32| {
            vec![
                primitives::merger(&[p(2), p(2 * k + 2)], p(0)),
                primitives::fifo1(p(1), p(2), MemId(0)),
                primitives::fifo1(p(2 * k + 1), p(2 * k + 2), MemId(k)),
            ]
        };
        let limits = Limits::default();
        let part = partition_with_opts(autos(1), 5, Mode::partitioned(), limits, true).unwrap();
        let width = || {
            let engine = part.with_topo(|t| Arc::clone(&t.engines[0]));
            let g = engine.lock();
            (g.pending.len(), g.store.cell_count())
        };
        assert_eq!(width(), (5, 2));
        for k in 2..12 {
            part.splice(&autos(k), &[None, Some(1), None]).unwrap();
            assert_eq!(width(), (5, 2), "splice {k}");
            send(&part, p(2 * k + 1), k.into());
            assert_eq!(recv(&part, p(0)), Some(k.into()));
        }
        // A cell that takes a freed place starts from its own layout.
        let mut full = autos(12);
        full[2] = primitives::fifo1_full(p(25), p(26), MemId(12), Value::Int(-1));
        part.splice(&full, &[None, Some(1), None]).unwrap();
        assert_eq!(recv(&part, p(0)), Some(-1));
    }

    #[test]
    fn a_fixed_topology_refuses_a_splice() {
        let autos = vec![primitives::sync(p(0), p(1))];
        let layout = MemLayout::cells(0);
        let part = partition(autos.clone(), 2, &layout, CachePolicy, 1 << 20).unwrap();
        let spliced = part.splice(&autos, &[Some(0)]);
        assert!(matches!(spliced, Err(RuntimeError::NotReconfigurable)));
        assert_eq!(part.region_count(), 1);
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
        let part = partition(autos, 3, &layout, CachePolicy, 1 << 20).unwrap();
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
        partition(autos, 4, &layout, CachePolicy, 1 << 20).unwrap()
    }

    /// Replicator → two parallel fifo links → merger: both regions border
    /// *two* links, so operations that raise events count as kicks (the
    /// two_region_pipeline above never does). Every value sent at port 0
    /// arrives twice at port 5.
    fn dual_link_pipeline() -> Partitioned {
        let autos = vec![
            primitives::replicator(p(0), &[p(1), p(2)]),
            primitives::fifo1(p(1), p(3), MemId(0)),
            primitives::fifo1(p(2), p(4), MemId(1)),
            primitives::merger(&[p(3), p(4)], p(5)),
        ];
        let layout = MemLayout::cells(2);
        let part = partition(autos, 6, &layout, CachePolicy, 1 << 20).unwrap();
        assert_eq!(part.region_count(), 2);
        assert_eq!(part.link_count(), 2);
        part
    }

    #[test]
    fn values_flow_across_a_link_end_to_end() {
        let part = Arc::new(two_region_pipeline());
        part.pump(); // initial arming
        let topo = part.topo();
        let engine = |port| topo.engine_for(port).unwrap().0;
        assert!(!Arc::ptr_eq(engine(p(0)), engine(p(3))));

        let part2 = Arc::clone(&part);
        let rx = std::thread::spawn(move || recv(&part2, p(3)));
        send(&part, p(0), 21);
        assert_eq!(rx.join().unwrap(), Some(21));
        let stats = part.stats();
        assert_eq!(stats.kicks, 0, "single-link regions never kick: {stats:?}");
        assert_eq!(
            (stats.batch_moves, stats.batched_values),
            (2, 2),
            "the value crossed once per link end: {stats:?}"
        );
        assert_eq!(part.unserved_links(), Vec::<String>::new());
    }

    /// Operations on regions that border two links count a kick when they
    /// leave events to drain.
    #[test]
    fn multi_link_regions_count_kicks() {
        let part = dual_link_pipeline();
        part.pump();
        for k in 0..20 {
            send(&part, p(0), k);
            assert_eq!((recv(&part, p(5)), recv(&part, p(5))), (Some(k), Some(k)));
        }
        assert!(part.stats().kicks > 0, "multi-link regions count kicks");
        assert_eq!(part.unserved_links(), Vec::<String>::new());
    }

    /// A partition without links raises no events, so no operation on it
    /// has anything to drain or counts as a kick.
    #[test]
    fn zero_link_partitions_skip_kicks_entirely() {
        let autos = vec![
            primitives::sync(p(0), p(1)),
            primitives::fifo1(p(1), p(2), MemId(0)),
        ];
        let layout = MemLayout::cells(1);
        let part = partition(autos, 3, &layout, CachePolicy, 1 << 20).unwrap();
        assert_eq!(part.link_count(), 0);
        part.pump();
        for k in 0..10 {
            send(&part, p(0), k);
            assert_eq!(recv(&part, p(2)), Some(k));
        }
        assert_eq!(part.stats().kicks, 0, "no link, no kick");
    }

    /// Three producers behind one merger region all cross the link, in
    /// order, without a fourth port call: each hold re-arms the tail after
    /// its delivery while credit remains. A backlog that built up while
    /// the tail was un-armed crosses in the one hold that arms it — each
    /// re-arm fires the next stuck producer in place.
    #[test]
    fn batched_drain_moves_a_whole_backlog_in_one_lock_hold() {
        let backlog = |armed_first: bool| {
            let autos = vec![
                primitives::merger(&[p(0), p(1), p(2)], p(3)),
                primitives::fifo_n(p(3), p(4), MemId(0), 8),
                primitives::sync(p(4), p(5)),
            ];
            let layout = MemLayout::cells(1);
            let part = partition(autos, 6, &layout, CachePolicy, 1 << 20).unwrap();
            if armed_first {
                part.pump();
            }
            for (i, port) in [p(0), p(1), p(2)].into_iter().enumerate() {
                assert_eq!(offer(&part, port, i as i64), armed_first);
            }
            part
        };

        let part = backlog(true);
        let t = part.topo();
        assert_eq!(t.links[0].depth(), 3, "all three values reside in the link");
        for expect in 0..3 {
            assert_eq!(recv(&part, p(5)), Some(expect), "producer order");
        }
        assert_eq!(part.unserved_links(), Vec::<String>::new());

        let part = backlog(false);
        let t = part.topo();
        assert_eq!(t.links[0].depth(), 0, "tail un-armed: all three pend");
        let before = t.engine_for(p(0)).unwrap().0.stats();
        part.pump();
        let after = t.engine_for(p(0)).unwrap().0.stats();
        assert_eq!(after.batched_values - before.batched_values, 3, "{after:?}");
        assert_eq!(after.batch_moves - before.batch_moves, 1, "in one hold");
        for expect in 0..3 {
            assert_eq!(recv(&part, p(5)), Some(expect), "producer order");
        }
    }

    /// On a *full* bounded link the consumer's own call does it all: its
    /// hold pops the consumed front, the `Rearm` it drains refills the
    /// freed slot from the stuck producer, and the `Offer` that raises
    /// puts the new front on offer — no later call is needed.
    #[test]
    fn freed_slot_is_reusable_within_the_same_pump_step() {
        let part = Arc::new(two_region_pipeline()); // fifo1 link: capacity 1
        part.pump();
        let t = part.topo();
        let ((tx, sent), (rx, received)) =
            (t.engine_for(p(0)).unwrap(), t.engine_for(p(3)).unwrap());

        send(&part, p(0), 0);
        assert_eq!(t.links[0].depth(), 1, "link full");

        // The next value queues up behind the full link.
        assert!(!offer(&part, p(0), 1), "no credit: value 1 must wait");
        assert_eq!(t.links[0].depth(), 1);

        assert_eq!(recv(&part, p(3)), Some(0));
        assert_eq!(t.links[0].depth(), 1, "freed slot refilled by the recv");
        tx.retract_send(sent).unwrap(); // already complete
        assert_eq!(part.unserved_links(), Vec::<String>::new());
        // …and on offer: the next receive completes in its own hold.
        let got = rx.poll_recv(
            received,
            &mut false,
            Waker::noop(),
            false,
            &mut LinkEvents::default(),
        );
        assert_eq!(got.map(Result::unwrap), Some(Value::Int(1)));
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
        let part = partition(autos, 4, &layout, CachePolicy, 1 << 20).unwrap();
        part.pump();
        assert_eq!(recv(&part, p(3)), Some(99));
    }

    /// Regression for the old split `queue`/`armed` mutex pair: concurrent
    /// pumpers racing the arm/consume sequence could reorder values or pop
    /// a front that was never armed. Every link end is now touched under
    /// its own engine's lock only, so any number of threads raising and
    /// serving spurious events must preserve per-link FIFO order exactly.
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
        let tx = std::thread::spawn(move || (0..K).for_each(|k| send(&part_tx, p(0), k)));
        for k in 0..K {
            assert_eq!(recv(&part, p(3)), Some(k), "link reordered or lost a value");
        }
        tx.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for t in pumpers {
            t.join().unwrap();
        }
        assert_eq!(part.unserved_links(), Vec::<String>::new());
    }
}
