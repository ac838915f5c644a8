//! Dynamic reconfiguration: epoch-based attach/detach of
//! replicated branches on a *running* session.
//!
//! A reconfigurable session keeps the ingredients of its own `connect` —
//! the compiled template, the parameter binding, the port allocator, the
//! live constituent list and the global memory layout — in a
//! [`ReconfigState`] behind a per-session mutex. An attach or detach then
//! replays the deterministic instantiation walk against the *changed*
//! binding and splices the difference into the running engines:
//!
//! 1. **Re-instantiate** the template with the grown/shrunk binding,
//!    using a clone of the live allocator so fresh internals cannot
//!    collide with live ids (and so a failed splice discards them).
//! 2. **Diff** the new constituent list against the live one
//!    ([`diff`]): constituents are matched by a canonical structural
//!    signature (boundary ports concrete, local ports and memory cells
//!    normalized away) via an order-preserving longest-common-subsequence
//!    — valid because instantiation is a deterministic walk, so surviving
//!    constituents keep their relative order. A matched pair stands only
//!    if its local ports and cells extend one renaming of new ids onto
//!    live ones *one-to-one*; otherwise both sides count as unmatched.
//!    Matched constituents keep their *old* automata (ids, state,
//!    buffered data); unmatched new ones get their shared internals
//!    renamed onto the live ids through that renaming.
//! 3. **Splice** the difference into the session's partition
//!    ([`crate::partition::Partitioned::splice`]), which quiesces only the
//!    affected regions; a new region continues the engine of the region
//!    that served its ports.
//! 4. **Commit** the new state and bump the session epoch.
//!
//! Reconfigurations are serialized per session with `try_lock`
//! ([`RuntimeError::ReconfigInFlight`]); on any error the session is left
//! exactly as it was.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicU64;

use parking_lot::Mutex;
use reo_automata::{remap::remap, Automaton, MemId, MemLayout, PortAllocator, PortId, StateId};
use reo_core::{instantiate, Binding, CompiledConnector};

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
    pub(crate) cc: CompiledConnector,
    pub(crate) binding: Binding,
    pub(crate) alloc: PortAllocator,
    /// The live constituents, in instantiation order. Splices keep the
    /// *old* automaton objects for matched constituents, so ids and
    /// buffered data survive across epochs.
    pub(crate) automata: Vec<Automaton>,
    /// Global memory layout; grows monotonically (a superset of every
    /// earlier epoch's layout, so retired cells keep their ids and
    /// initial contents).
    pub(crate) layout: MemLayout,
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

/// One attach/detach step: re-instantiate, diff, splice, commit.
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

    let instance = instantiate(&st.cc, &binding, &mut alloc)?;

    // Boundary ports stay concrete through canonicalization: every port
    // ever bound to a parameter (old and new binding alike).
    let boundary: HashSet<PortId> = st
        .binding
        .values()
        .chain(binding.values())
        .flatten()
        .copied()
        .collect();
    let diffed = diff(&st.automata, &instance.automata, &boundary);

    // The new global layout is a superset of the old: surviving and
    // retired cells keep their ids and initial contents, fresh
    // constituents append theirs.
    let mut layout = MemLayout::cells(alloc.mem_count());
    layout.merge(&st.layout);
    layout.merge(&instance.mem_layout);

    parts.splice(&st.automata, &diffed.automata, &diffed.old_of_new, &layout)?;

    // Point of no return: the engines run the new configuration.
    st.alloc = alloc;
    st.binding = binding;
    st.automata = diffed.automata;
    st.layout = layout;
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
/// explosion.
pub(crate) fn splice_core(
    mode: Mode,
    limits: &Limits,
    automata: &[Automaton],
    starts: &[StateId],
    ports: &PortMap,
) -> Result<JitCore, RuntimeError> {
    let eager = matches!(mode, Mode::New { composition, .. } if composition == Eager);
    match core_for(mode, limits, automata.to_vec(), starts, ports) {
        Err(RuntimeError::Explosion(_)) if eager => {
            core_for(Mode::jit(), limits, automata.to_vec(), starts, ports)
        }
        core => core,
    }
}

/// The template diff: the new constituent list with live identities
/// restored, plus the old-index of every matched entry.
struct Diff {
    automata: Vec<Automaton>,
    old_of_new: Vec<Option<usize>>,
}

/// Match the re-instantiated constituent list against the live one.
fn diff(old: &[Automaton], new: &[Automaton], boundary: &HashSet<PortId>) -> Diff {
    let old_sig: Vec<String> = old.iter().map(|a| canonical(a, boundary)).collect();
    let new_sig: Vec<String> = new.iter().map(|a| canonical(a, boundary)).collect();

    // A global local-id renaming (new instance → live ids), grown over the
    // matched pairs while it stays one-to-one. A pair that would break it
    // (two new ports onto one live port) stays unmatched: the new
    // constituent is fresh, and the old one detaches, so it must be at rest.
    let mut pm: HashMap<PortId, PortId> = HashMap::new();
    let mut mm: HashMap<MemId, MemId> = HashMap::new();
    let mut old_of_new = vec![None; new.len()];
    for (oi, ni) in lcs(&old_sig, &new_sig) {
        if align(&old[oi], &new[ni], boundary, &mut pm, &mut mm) {
            old_of_new[ni] = Some(oi);
        }
    }
    let automata = new
        .iter()
        .enumerate()
        .map(|(ni, a)| match old_of_new[ni] {
            // Matched: keep the live automaton object (ids, hint, state).
            Some(oi) => old[oi].clone(),
            // Fresh: rename the internals it shares with matched
            // neighbours onto their live ids; its own fresh ids stay.
            None => remap(a, &|p| pm.get(&p).copied().unwrap_or(p), &|m| {
                mm.get(&m).copied().unwrap_or(m)
            }),
        })
        .collect();
    Diff {
        automata,
        old_of_new,
    }
}

/// Non-boundary ports of `a`, sorted by id. Instantiation allocates ids
/// monotonically along a deterministic walk, so sorted order is stamping
/// order — the old and new instances of one constituent line up
/// positionally.
fn local_ports(a: &Automaton, boundary: &HashSet<PortId>) -> Vec<PortId> {
    let mut locals: Vec<PortId> = (a.ports().iter())
        .filter(|p| !boundary.contains(p))
        .collect();
    locals.sort_unstable_by_key(|p| p.index());
    locals
}

/// Record the local-id renaming `new → old` implied by a matched pair, if
/// it extends `pm` and `mm` one-to-one; `false`, with both untouched,
/// otherwise. Equal signatures have equal local port and cell counts.
fn align(
    old: &Automaton,
    new: &Automaton,
    boundary: &HashSet<PortId>,
    pm: &mut HashMap<PortId, PortId>,
    mm: &mut HashMap<MemId, MemId>,
) -> bool {
    let ports: Vec<_> = local_ports(new, boundary)
        .into_iter()
        .zip(local_ports(old, boundary))
        .collect();
    let mems: Vec<_> = (new.mem_ids().iter().copied())
        .zip(old.mem_ids().iter().copied())
        .collect();
    let fits = one_to_one(pm, &ports) && one_to_one(mm, &mems);
    if fits {
        pm.extend(ports);
        mm.extend(mems);
    }
    fits
}

/// Whether renaming `map` stays one-to-one with `pairs` (new → old) added.
fn one_to_one<T: Copy + Eq + std::hash::Hash>(map: &HashMap<T, T>, pairs: &[(T, T)]) -> bool {
    pairs.iter().all(|&(n, o)| match map.get(&n) {
        Some(&prev) => prev == o,
        None => !map.values().any(|&v| v == o),
    })
}

/// A structural signature that is invariant under local-id renaming:
/// boundary ports stay concrete (they pin a constituent to *its* branch),
/// local ports are replaced by their rank in stamping order, memory cells
/// by theirs. Two instantiations of the same template stamped against the
/// same boundary ports canonicalize identically.
fn canonical(a: &Automaton, boundary: &HashSet<PortId>) -> String {
    use std::fmt::Write;
    // Rank locals into an id band no real allocation reaches, so a
    // canonical id can never collide with a concrete boundary id.
    const BAND: u32 = 1 << 30;
    let prank: HashMap<PortId, u32> = local_ports(a, boundary)
        .into_iter()
        .enumerate()
        .map(|(r, p)| (p, BAND + r as u32))
        .collect();
    let mrank: HashMap<MemId, u32> = a
        .mem_ids()
        .iter()
        .enumerate()
        .map(|(r, &m)| (m, r as u32))
        .collect();
    let c = remap(
        a,
        &|p| prank.get(&p).map(|&r| PortId(r)).unwrap_or(p),
        &|m| MemId(mrank[&m]),
    );
    // The name is deliberately excluded: primitive builders embed
    // concrete port ids in it ("Fifo1(p0;p7)"), which would defeat the
    // local-id normalization. Structure + boundary ports pin identity.
    let mut s = String::new();
    let _ = write!(
        s,
        "init={:?}|in={:?}|out={:?}|internal={:?}",
        c.initial(),
        c.inputs(),
        c.outputs(),
        c.internals()
    );
    for state in c.all_states() {
        for t in c.transitions_from(state) {
            let _ = write!(s, "|{state:?}:{t:?}");
        }
    }
    for &m in c.mem_ids() {
        let _ = write!(s, "|{m:?}={:?}", c.mem_layout().initial_contents(m));
    }
    let _ = write!(
        s,
        "|hint={:?}",
        c.queue_hint()
            .map(|h| (h.input, h.output, h.capacity, h.initial.clone()))
    );
    s
}

/// Longest common subsequence over canonical signatures — the
/// order-preserving matching. Instantiation is a deterministic walk, so a
/// grown/shrunk binding inserts/removes contiguous runs and never
/// reorders survivors.
fn lcs(old: &[String], new: &[String]) -> Vec<(usize, usize)> {
    let (n, m) = (old.len(), new.len());
    let mut dp = vec![vec![0u32; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i][j] = if old[i] == new[j] {
                dp[i + 1][j + 1] + 1
            } else {
                dp[i + 1][j].max(dp[i][j + 1])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if old[i] == new[j] {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if dp[i + 1][j] >= dp[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_automata::primitives;

    fn p(i: u32) -> PortId {
        PortId(i)
    }
    fn m(i: u32) -> MemId {
        MemId(i)
    }

    #[test]
    fn canonicalization_erases_local_ids_but_keeps_boundary_ids() {
        let boundary: HashSet<PortId> = [p(0)].into_iter().collect();
        // Same shape, different local/mem ids: canonically equal.
        let a = primitives::fifo1(p(0), p(7), m(3));
        let b = primitives::fifo1(p(0), p(9), m(5));
        assert_eq!(canonical(&a, &boundary), canonical(&b, &boundary));
        // Different boundary port: canonically distinct.
        let c = primitives::fifo1(p(1), p(9), m(5));
        assert_ne!(canonical(&a, &boundary), canonical(&c, &boundary));
    }

    #[test]
    fn lcs_matches_the_surviving_run() {
        let old = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        let new = vec!["a".into(), "c".into(), "d".into(), "e".into()];
        assert_eq!(lcs(&old, &new), vec![(0, 0), (2, 1), (3, 2)]);
    }

    #[test]
    fn diff_renames_shared_internals_onto_live_ids() {
        // Live: two branches feeding an internal node p5; the "merger"
        // side is a sync p5 -> p1 (boundary). Re-instantiated with a
        // third branch, the internal node got the fresh id p50.
        let boundary: HashSet<PortId> = [p(0), p(1), p(2), p(3)].into_iter().collect();
        let old = vec![
            primitives::sync(p(0), p(5)),
            primitives::sync(p(2), p(5)),
            primitives::sync(p(5), p(1)),
        ];
        let new = vec![
            primitives::sync(p(0), p(50)),
            primitives::sync(p(2), p(50)),
            primitives::sync(p(3), p(50)), // fresh branch
            primitives::sync(p(50), p(1)),
        ];
        let d = diff(&old, &new, &boundary);
        assert_eq!(d.old_of_new, vec![Some(0), Some(1), None, Some(2)]);
        // The fresh branch's internal side was renamed onto the live p5.
        let fresh = &d.automata[2];
        let ps = fresh.ports();
        assert!(ps.contains(p(5)), "fresh branch rewired to live internal");
        assert!(!ps.contains(p(50)), "no fresh duplicate of the internal");
    }

    #[test]
    fn diff_never_renames_two_new_ports_onto_one_live_port() {
        // Fig. 12's merger chain grown from two tails to three: the final
        // sync has the same signature at every width, but pairing it would
        // rename both the new m[2] (p50) and m[3] (p51) onto the live p5.
        let boundary: HashSet<PortId> = [p(0), p(1), p(2), p(9)].into_iter().collect();
        let old = vec![
            primitives::merger(&[p(0), p(1)], p(5)),
            primitives::sync(p(5), p(9)),
        ];
        let new = vec![
            primitives::merger(&[p(0), p(1)], p(50)),
            primitives::merger(&[p(50), p(2)], p(51)),
            primitives::sync(p(51), p(9)),
        ];
        let d = diff(&old, &new, &boundary);
        assert_eq!(d.old_of_new, vec![Some(0), None, None], "the sync detaches");
        let grown = d.automata[1].ports();
        assert!(
            grown.contains(p(5)) && grown.contains(p(51)),
            "fed by m[2], feeds m[3]"
        );
        assert!(
            d.automata[2].ports().contains(p(51)),
            "a fresh sync drains m[3]"
        );
    }
}
