//! Dynamic reconfiguration: epoch-based attach/detach of
//! replicated branches on a *running* session.
//!
//! A reconfigurable session keeps its template, binding, port allocator
//! and live constituents in a [`ReconfigState`] behind a per-session
//! mutex. An attach or detach then replays the deterministic
//! instantiation walk against the *changed* binding and splices the
//! difference into the running engines:
//!
//! 1. **Re-instantiate** the template with the grown/shrunk binding on a
//!    scratch clone of the live allocator: its ids are only names until
//!    step 2 settles them, and a failed splice discards them.
//! 2. **Join** the new constituents to the live ones on their
//!    instantiation addresses ([`reo_core::Origin`], see [`join`]),
//!    anchored at the ports: a new constituent continues the live one
//!    the same template node stamped with the same port in the same slot,
//!    if the renaming of new ports onto live ones stays one-to-one.
//!    Matched constituents keep their *live* automata (ids, state,
//!    buffered data); the rest are fresh, their known ports renamed onto
//!    live ids and their other ports and cells drawn from the live
//!    allocator, so the id space grows by what the splice adds.
//! 3. **Splice** the difference into the session's partition
//!    ([`crate::partition::Partitioned::splice`]), which quiesces only the
//!    affected regions; a new region continues the engine of the region
//!    that served its ports.
//! 4. **Commit** the new state and bump the session epoch.
//!
//! Reconfigurations are serialized per session with `try_lock`
//! ([`RuntimeError::ReconfigInFlight`]); on any error the session is left
//! exactly as it was.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use reo_automata::{remap::remap, Automaton, MemLayout, PortAllocator, PortId, StateId};
use reo_core::{instantiate, Binding, CompiledConnector, ConnectorInstance, Origin};

use crate::connector::{core_for, Composition::Eager, Limits, Mode};
use crate::engine::PortMap;
use crate::error::RuntimeError;
use crate::jit::JitCore;
use crate::partition::Partitioned;

/// The per-session reconfiguration record, shared by every
/// [`crate::ConnectorHandle`] clone of a reconfigurable session.
pub(crate) struct ReconfigShared {
    pub(crate) state: Mutex<ReconfigState>,
    /// Bumped once per successful splice. Readers use it to name the
    /// configuration interval a trace was produced under.
    pub(crate) epoch: AtomicU64,
}

/// Everything `connect` knew, kept live so attach/detach can replay it.
pub(crate) struct ReconfigState {
    /// The connector's template, shared with it: origins name its nodes
    /// by address.
    pub(crate) cc: Arc<CompiledConnector>,
    /// The live binding: the concrete ports of every parameter.
    pub(crate) binding: Binding,
    /// The live allocator: every id a live or retired constituent holds
    /// is below its counts.
    pub(crate) alloc: PortAllocator,
    /// The live constituents, in instantiation order. Splices keep the
    /// *old* automaton objects for matched constituents, so ids and
    /// buffered data survive across epochs.
    pub(crate) automata: Vec<Automaton>,
    /// Where each live constituent came from, parallel to `automata`, in
    /// live ids.
    pub(crate) origins: Vec<Origin>,
    /// The last splice's re-instantiation, join and splice times.
    pub(crate) phases: [Duration; 3],
}

/// What a reconfiguration does to the named replicated parameter.
pub(crate) enum Change {
    /// Grow the parameter by one fresh branch port (appended last).
    Attach,
    /// Remove this branch port from the parameter.
    Detach(PortId),
}

/// The outcome `Session::attach`/`Branch::detach` need to build handles.
pub(crate) struct Reconfigured {
    pub(crate) port: PortId,
    pub(crate) is_tail: bool,
}

/// One attach/detach step: re-instantiate, join, splice, commit.
pub(crate) fn reconfigure(
    shared: &ReconfigShared,
    parts: &Partitioned,
    name: &str,
    change: Change,
) -> Result<Reconfigured, RuntimeError> {
    let mut st = shared
        .state
        .try_lock()
        .ok_or(RuntimeError::ReconfigInFlight)?;

    // Only replicated (array) parameters can churn branches.
    let param =
        st.cc
            .params()
            .find(|p| p.name == name)
            .ok_or_else(|| RuntimeError::UnknownParam {
                name: name.to_string(),
            })?;
    if !param.is_array {
        return Err(RuntimeError::NotReconfigurable);
    }

    // Stage the change on clones; nothing live mutates until the splice
    // has succeeded.
    let mut alloc = st.alloc.clone();
    let mut binding = st.binding.clone();
    let ports = binding
        .get_mut(name)
        .ok_or_else(|| RuntimeError::UnknownParam {
            name: name.to_string(),
        })?;
    let port = match change {
        Change::Attach => {
            let p = alloc.fresh_port();
            ports.push(p);
            p
        }
        Change::Detach(p) => {
            let i = ports
                .iter()
                .position(|&q| q == p)
                .ok_or(RuntimeError::Detached(p))?;
            if ports.len() == 1 {
                return Err(RuntimeError::Reconfig(format!(
                    "cannot detach the last branch of parameter `{name}`"
                )));
            }
            ports.remove(i);
            p
        }
    };

    let t0 = Instant::now();
    let instance = instantiate(&st.cc, &binding, &mut alloc.clone())?;
    let t1 = Instant::now();
    let joined = join(&st.automata, &st.origins, instance, &mut alloc);
    let t2 = Instant::now();

    // The session's table of every cell, each constituent's initialized.
    let mut layout = MemLayout::cells(alloc.mem_count());
    for a in &joined.automata {
        layout.merge(a.mem_layout());
    }

    parts.splice(&st.automata, &joined.automata, &joined.old_of_new, &layout)?;

    // Point of no return: the engines run the new configuration.
    st.alloc = alloc;
    st.binding = binding;
    st.automata = joined.automata;
    st.origins = joined.origins;
    st.phases = [t1 - t0, t2 - t1, t2.elapsed()];
    let is_tail = st.cc.tails.iter().any(|t| t.name == name);
    drop(st);
    shared
        .epoch
        .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    Ok(Reconfigured { port, is_tail })
}

/// The core a splice installs for the engine serving `ports`: [`core_for`]
/// from the current constituent states.
/// An eager fill that blows its budget mid-run steps just-in-time for this
/// epoch instead of failing the splice — `connect` reports the same
/// explosion. Only that fallback keeps a second copy of the constituents.
pub(crate) fn splice_core(
    mode: Mode,
    limits: &Limits,
    automata: Vec<Automaton>,
    starts: &[StateId],
    ports: &PortMap,
) -> Result<JitCore, RuntimeError> {
    let eager = matches!(mode, Mode::New { composition, .. } if composition == Eager);
    let spare = eager.then(|| automata.clone());
    match (core_for(mode, limits, automata, starts, ports), spare) {
        (Err(RuntimeError::Explosion(_)), Some(automata)) => {
            core_for(Mode::jit(), limits, automata, starts, ports)
        }
        (core, _) => core,
    }
}

/// The join's result: the new constituent list with live identities
/// kept, its origins in live ids, and the live index of every match.
struct Joined {
    automata: Vec<Automaton>,
    origins: Vec<Origin>,
    old_of_new: Vec<Option<usize>>,
}

/// Join a scratch instance of the template to the live constituents on
/// their instantiation addresses.
///
/// A renaming from the instance's ports to live ports starts with every
/// bound port mapped to itself. A new constituent's candidate is the live
/// one the same template node stamped with the renamed port in the same
/// slot — at most one, as a port has one input side and one output side.
/// It matches if their integer arguments and slot counts agree and its
/// ports extend the renaming one-to-one; the ports it maps are then
/// known, and the constituents touching them queue again, in
/// instantiation order, behind those already waiting. So a constituent
/// nearer the bound ports claims its live ids first, and a ring's closing
/// `Fifo1Full` cannot take the live vertex its last stage keeps.
/// Matched constituents keep their live automaton.
/// The others are fresh: their known ports are renamed onto live ids,
/// and their other ports and cells take the next ids of `alloc`.
fn join(
    live: &[Automaton],
    live_origins: &[Origin],
    new: ConnectorInstance,
    alloc: &mut PortAllocator,
) -> Joined {
    let live_at: HashMap<(usize, usize, PortId), usize> = (live_origins.iter().enumerate())
        .flat_map(|(oi, o)| (o.ports.iter().enumerate()).map(move |(k, &p)| ((o.node, k, p), oi)))
        .collect();
    let mut touching: HashMap<PortId, Vec<usize>> = HashMap::new();
    for (ni, o) in new.origins.iter().enumerate() {
        for &p in &o.ports {
            touching.entry(p).or_default().push(ni);
        }
    }
    let mut rename: HashMap<PortId, PortId> =
        new.boundary.values().flatten().map(|&p| (p, p)).collect();
    let mut image: HashSet<PortId> = rename.values().copied().collect();
    let mut old_of_new: Vec<Option<usize>> = vec![None; new.origins.len()];
    let mut taken = vec![false; live.len()];
    let mut queue: VecDeque<usize> = (0..new.origins.len()).collect();
    while let Some(ni) = queue.pop_front() {
        let o = &new.origins[ni];
        let candidate = (o.ports.iter().enumerate())
            .find_map(|(k, p)| live_at.get(&(o.node, k, *rename.get(p)?)).copied());
        let Some(oi) = candidate.filter(|&oi| !taken[oi]) else {
            continue;
        };
        let lo = &live_origins[oi];
        let fits = lo.iargs == o.iargs
            && lo.ports.len() == o.ports.len()
            && (o.ports.iter().zip(&lo.ports)).all(|(p, l)| match rename.get(p) {
                Some(r) => r == l,
                None => !image.contains(l),
            });
        if !fits {
            continue;
        }
        taken[oi] = true;
        old_of_new[ni] = Some(oi);
        for (&p, &l) in o.ports.iter().zip(&lo.ports) {
            if rename.insert(p, l).is_none() {
                image.insert(l);
                queue.extend(touching[&p].iter().filter(|&&nj| old_of_new[nj].is_none()));
            }
        }
    }

    let (automata, origins) = (new.automata.into_iter().zip(new.origins))
        .zip(&old_of_new)
        .map(|((a, o), m)| match *m {
            Some(oi) => (live[oi].clone(), live_origins[oi].clone()),
            None => {
                let ports: Vec<PortId> = (o.ports.iter())
                    .map(|p| *rename.entry(*p).or_insert_with(|| alloc.fresh_port()))
                    .collect();
                let mems: Vec<_> = o.mems.iter().map(|_| alloc.fresh_mem()).collect();
                let mm: HashMap<_, _> = o.mems.iter().copied().zip(mems.iter().copied()).collect();
                let a = remap(&a, &|p| rename[&p], &|c| mm[&c]);
                (a, Origin { ports, mems, ..o })
            }
        })
        .unzip();
    Joined {
        automata,
        origins,
        old_of_new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_automata::{primitives, MemId, Value};

    fn p(i: u32) -> PortId {
        PortId(i)
    }

    /// Constituents as `(template node, automaton)`, with the origins a
    /// deferred primitive gets: no integer arguments but its tail count,
    /// tails then heads.
    fn stamped(parts: Vec<(usize, Automaton)>) -> (Vec<Automaton>, Vec<Origin>) {
        parts
            .into_iter()
            .map(|(node, a)| {
                let origin = Origin {
                    node,
                    iargs: vec![a.inputs().len() as i64],
                    ports: a.inputs().iter().chain(a.outputs().iter()).collect(),
                    mems: a.mem_ids().to_vec(),
                };
                (a, origin)
            })
            .unzip()
    }

    /// Join `new`, bound at `bound`, to `live`, with every id below
    /// `live_ids` taken.
    fn join_at(
        live: Vec<(usize, Automaton)>,
        new: Vec<(usize, Automaton)>,
        bound: &[u32],
        live_ids: usize,
    ) -> Joined {
        let (live, live_origins) = stamped(live);
        let (automata, origins) = stamped(new);
        let instance = ConnectorInstance {
            automata,
            origins,
            boundary: [("b".to_string(), bound.iter().map(|&i| p(i)).collect())].into(),
            mem_layout: MemLayout::cells(0),
        };
        let mut alloc = PortAllocator::new();
        alloc.fresh_ports(live_ids);
        join(&live, &live_origins, instance, &mut alloc)
    }

    #[test]
    fn join_renames_shared_internals_onto_live_ids() {
        // Live: two branches feeding an internal node p5, which a sync of
        // its own drains into p1 (bound). Re-instantiated with a third
        // branch, the internal node got the scratch id p50.
        const BRANCH: usize = 1;
        const SINK: usize = 2;
        let live = vec![
            (BRANCH, primitives::sync(p(0), p(5))),
            (BRANCH, primitives::sync(p(2), p(5))),
            (SINK, primitives::sync(p(5), p(1))),
        ];
        let new = vec![
            (BRANCH, primitives::sync(p(0), p(50))),
            (BRANCH, primitives::sync(p(2), p(50))),
            (BRANCH, primitives::sync(p(3), p(50))), // fresh branch
            (SINK, primitives::sync(p(50), p(1))),
        ];
        let j = join_at(live, new, &[0, 1, 2, 3], 6);
        assert_eq!(j.old_of_new, vec![Some(0), Some(1), None, Some(2)]);
        // The fresh branch's internal side was renamed onto the live p5.
        let ps = j.automata[2].ports();
        assert!(ps.contains(p(5)), "fresh branch rewired to live internal");
        assert!(!ps.contains(p(50)), "no fresh duplicate of the internal");
        assert_eq!(j.origins[2].ports, vec![p(3), p(5)]);
    }

    #[test]
    fn join_never_renames_two_new_ports_onto_one_live_port() {
        // Fig. 12's merger chain grown from two tails to three: the final
        // sync is the same node at every width, but matching it would
        // rename both the new m[2] (p50) and m[3] (p51) onto the live p5.
        const FIRST: usize = 1;
        const CHAINED: usize = 2;
        const SINK: usize = 3;
        let live = vec![
            (FIRST, primitives::merger(&[p(0), p(1)], p(5))),
            (SINK, primitives::sync(p(5), p(9))),
        ];
        let new = vec![
            (FIRST, primitives::merger(&[p(0), p(1)], p(50))),
            (CHAINED, primitives::merger(&[p(50), p(2)], p(51))),
            (SINK, primitives::sync(p(51), p(9))),
        ];
        let j = join_at(live, new, &[0, 1, 2, 9], 10);
        assert_eq!(j.old_of_new, vec![Some(0), None, None], "the sync detaches");
        // m[3] takes the next live id, not its scratch one.
        let grown = j.automata[1].ports();
        assert!(
            grown.contains(p(5)) && grown.contains(p(10)),
            "fed by m[2], feeds m[3]"
        );
        assert!(
            j.automata[2].ports().contains(p(10)),
            "a fresh sync drains m[3]"
        );
    }

    #[test]
    fn join_matches_all_local_stages_by_address() {
        // Fig. 12's sequencer grown from two stages to three. Every
        // `Repl2(y[i];u[i],z[i])` stage has only local ports and the same
        // shape; each is found through the drain that binds it to t[i]
        // and keeps its live ids, while the ring's closing full fifo is
        // re-stamped behind the new last stage.
        const STAGE: usize = 1;
        const DRAIN: usize = 2;
        const FIFO: usize = 3;
        const CLOSE: usize = 4;
        let stage = |y, u, z| (STAGE, primitives::replicator(p(y), &[p(u), p(z)]));
        let drain = |t, u| (DRAIN, primitives::sync_drain(p(t), p(u)));
        let fifo = |z, y, m| (FIFO, primitives::fifo1(p(z), p(y), MemId(m)));
        let close = |z, y, m| {
            let full = primitives::fifo1_full(p(z), p(y), MemId(m), Value::Int(0));
            (CLOSE, full)
        };
        // t = p0, p1 (and p2 joins); stage i has y, u, z = 10i, 10i+1, 10i+2.
        let live = vec![
            stage(10, 11, 12),
            stage(20, 21, 22),
            drain(0, 11),
            drain(1, 21),
            fifo(12, 20, 0),
            close(22, 10, 1),
        ];
        let new = vec![
            stage(110, 111, 112),
            stage(120, 121, 122),
            stage(130, 131, 132),
            drain(0, 111),
            drain(1, 121),
            drain(2, 131),
            fifo(112, 120, 10),
            fifo(122, 130, 11),
            close(132, 110, 12),
        ];
        let j = join_at(live, new, &[0, 1, 2], 30);
        let kept = [
            Some(0),
            Some(1),
            None,
            Some(2),
            Some(3),
            None,
            Some(4),
            None,
            None,
        ];
        assert_eq!(j.old_of_new, kept);
        // The fresh fifo leaves the live z[2]; the new ring closes on the
        // live y[1].
        assert_eq!(j.origins[7].ports[0], p(22));
        assert_eq!(j.origins[8].ports[1], p(10));
        // Only the new stage's three vertices are allocated.
        let fresh: HashSet<PortId> = (j.origins.iter())
            .flat_map(|o| o.ports.iter().copied())
            .filter(|q| q.index() >= 30)
            .collect();
        assert_eq!(fresh, [p(30), p(31), p(32)].into_iter().collect());
    }
}
