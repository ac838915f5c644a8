//! The state cache of just-in-time composition.
//!
//! The JIT engine memoizes every expanded global state (Sect. IV-D). The
//! paper's runtime "saves them for eternity" ([`CachePolicy::Unbounded`])
//! and sketches a *bounded* cache with eviction as future work — "the
//! disadvantage is the possible need to recompute states …; the advantage
//! is that arbitrarily large state spaces can be handled".
//! [`CachePolicy::BoundedLru`] implements that sketch.
//!
//! An expanded state is a [`Row`]: the ids of its connected steps (the
//! steps themselves are interned by the core and shared between rows) and,
//! per step, a [`Link`] to the row its firing leads to. Links make the
//! steady state lookup-free: the state tuple is hashed once per *edge* of
//! the visited state graph — and on the lookups that follow an eviction —
//! never per step.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use reo_automata::StateId;

/// One local state per medium automaton: the core's current global state
/// and the key its row is cached under. Hashed in a single `write` of the
/// `u32` bytes, so a lookup costs the same whether or not the optimiser
/// inlines the hasher's per-word path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleKey(Box<[u32]>);

impl Hash for TupleKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // No length prefix: one cache only sees tuples of one length.
        u32::hash_slice(&self.0, state);
    }
}

impl FromIterator<StateId> for TupleKey {
    fn from_iter<I: IntoIterator<Item = StateId>>(states: I) -> Self {
        TupleKey(states.into_iter().map(|s| s.0).collect())
    }
}

impl TupleKey {
    #[inline]
    pub fn get(&self, i: usize) -> StateId {
        StateId(self.0[i])
    }

    #[inline]
    pub fn set(&mut self, i: usize, s: StateId) {
        self.0[i] = s.0;
    }

    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.0.iter().map(|&s| StateId(s))
    }
}

/// A handle to a cached row: its slot, and the generation the slot had
/// when the handle was issued. Eviction bumps the generation, so a stale
/// handle resolves to nothing rather than to the slot's next tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    slot: u32,
    generation: u32,
}

/// One expanded global state.
#[derive(Debug, Default)]
pub struct Row {
    /// The state's connected steps in emission order (ids into the core's
    /// step table), each with the successor row once a firing resolved it.
    pub steps: Box<[(u32, Option<Link>)]>,
}

/// Cache statistics, surfaced through `ConnectorHandle`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `try_step` calls served from a resident row, linked or looked up.
    pub hits: u64,
    /// Lookups that found no row: the state was expanded.
    pub misses: u64,
    pub evictions: u64,
    /// Rows resident.
    pub resident: usize,
    /// Lowered connected steps resident (each shared by every row naming
    /// it); filled in by the core.
    pub steps: usize,
}

/// Configuration, chosen at connector construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Keep every expanded state forever (the paper's current runtime).
    #[default]
    Unbounded,
    /// Keep at most `capacity` expanded states, evicting least recently
    /// used (the paper's future-work design, implemented).
    BoundedLru { capacity: usize },
}

impl CachePolicy {
    pub fn build(self) -> StateCache {
        StateCache {
            capacity: match self {
                CachePolicy::Unbounded => usize::MAX,
                CachePolicy::BoundedLru { capacity } => capacity.max(1),
            },
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

struct Slot {
    /// The resident row's key (what unlinks it from `map` on eviction).
    key: TupleKey,
    generation: u32,
    /// Last use, when the cache is bounded.
    tick: u64,
    row: Row,
}

/// Rows by state tuple, under a [`CachePolicy`].
pub struct StateCache {
    /// `usize::MAX` when unbounded.
    capacity: usize,
    map: HashMap<TupleKey, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Bounded caches only: tick of last use → slot (O(log n) touch/evict).
    recency: BTreeMap<u64, u32>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl StateCache {
    /// Look a state up; counts a hit or a miss.
    pub fn lookup(&mut self, key: &TupleKey) -> Option<Link> {
        let Some(&slot) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(slot);
        let generation = self.slots[slot as usize].generation;
        Some(Link { slot, generation })
    }

    /// Whether `link`'s row — the row of `key` — is still resident; if so,
    /// counts a hit.
    #[inline]
    pub fn follow(&mut self, link: Link, key: &TupleKey) -> bool {
        let slot = &self.slots[link.slot as usize];
        let live = slot.generation == link.generation;
        if live {
            debug_assert_eq!(slot.key, *key, "a link led to another state's row");
            self.hits += 1;
            self.touch(link.slot);
        }
        live
    }

    /// The row of a link that [`follow`](Self::follow) or
    /// [`lookup`](Self::lookup) just vouched for.
    #[inline]
    pub fn row(&self, link: Link) -> &Row {
        let slot = &self.slots[link.slot as usize];
        debug_assert_eq!(slot.generation, link.generation, "stale link dereferenced");
        &slot.row
    }

    /// Memoise `to` as the successor of entry `entry` of row `from`, if
    /// that row is still resident.
    pub fn link(&mut self, from: Link, entry: usize, to: Link) {
        let slot = &mut self.slots[from.slot as usize];
        if slot.generation == from.generation {
            slot.row.steps[entry].1 = Some(to);
        }
    }

    /// Cache the freshly expanded `row` of `key` (not resident). Returns
    /// its link and the row evicted to make room, if any.
    pub fn insert(&mut self, key: &TupleKey, row: Row) -> (Link, Option<Row>) {
        let evicted = (self.map.len() >= self.capacity).then(|| self.evict());
        self.tick += 1;
        let reused = self.free.pop();
        let generation = reused.map_or(0, |slot| self.slots[slot as usize].generation);
        let fresh = Slot {
            key: key.clone(),
            generation,
            tick: self.tick,
            row,
        };
        let slot = match reused {
            Some(slot) => {
                self.slots[slot as usize] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        if self.capacity != usize::MAX {
            self.recency.insert(self.tick, slot);
        }
        let previous = self.map.insert(key.clone(), slot);
        debug_assert!(previous.is_none(), "inserted a state that was resident");
        (Link { slot, generation }, evicted)
    }

    /// Free the least recently used row: every link into it goes stale.
    fn evict(&mut self) -> Row {
        let (_, slot) = self
            .recency
            .pop_first()
            .expect("a bounded cache at capacity");
        let victim = &mut self.slots[slot as usize];
        victim.generation += 1;
        self.map.remove(&victim.key);
        // A slot out of generations is retired, not reused: no stale link
        // may ever match a later tenant.
        if victim.generation < u32::MAX {
            self.free.push(slot);
        }
        self.evictions += 1;
        std::mem::take(&mut victim.row)
    }

    fn touch(&mut self, slot: u32) {
        if self.capacity != usize::MAX {
            self.tick += 1;
            let used = std::mem::replace(&mut self.slots[slot as usize].tick, self.tick);
            self.recency.remove(&used);
            self.recency.insert(self.tick, slot);
        }
    }

    /// Every resident row with its tuple, in no particular order.
    pub fn resident(&self) -> impl Iterator<Item = (&TupleKey, &Row)> + '_ {
        (self.map.iter()).map(|(key, &slot)| (key, &self.slots[slot as usize].row))
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident: self.map.len(),
            steps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ids: &[u32]) -> TupleKey {
        ids.iter().map(|&i| StateId(i)).collect()
    }

    fn row(step: u32) -> Row {
        Row {
            steps: Box::new([(step, None)]),
        }
    }

    #[test]
    fn unbounded_remembers_everything() {
        let mut c = CachePolicy::Unbounded.build();
        for i in 0..100 {
            assert!(c.insert(&key(&[i]), row(i)).1.is_none());
        }
        for i in 0..100 {
            let link = c.lookup(&key(&[i])).expect("resident");
            assert_eq!(c.row(link).steps[0].0, i);
        }
        let s = c.stats();
        assert_eq!(s.resident, 100);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits, 100);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = CachePolicy::BoundedLru { capacity: 2 }.build();
        let (one, _) = c.insert(&key(&[1]), row(1));
        let (two, _) = c.insert(&key(&[2]), row(2));
        assert!(c.follow(one, &key(&[1]))); // 1 is now most recent
        let (_, evicted) = c.insert(&key(&[3]), row(3)); // evicts 2
        assert_eq!(evicted.expect("over capacity").steps[0].0, 2);
        assert!(c.lookup(&key(&[2])).is_none());
        assert!(
            !c.follow(two, &key(&[2])),
            "a link into an evicted row is stale"
        );
        assert!(c.lookup(&key(&[1])).is_some());
        assert!(c.lookup(&key(&[3])).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident, 2);
    }

    #[test]
    fn lru_reinsert_updates_value_not_size() {
        // A freed slot is reused under a new generation: the old tenant's
        // links stay stale, its successor links go with it, size holds.
        let mut c = CachePolicy::BoundedLru { capacity: 1 }.build();
        let (one, _) = c.insert(&key(&[1]), row(1));
        let (two, _) = c.insert(&key(&[2]), row(2));
        c.link(one, 0, two); // `one` is gone: must not write into `two`'s row
        assert!(!c.follow(one, &key(&[1])) && c.follow(two, &key(&[2])));
        assert_eq!(c.row(two).steps[0], (2, None));
        let (again, _) = c.insert(&key(&[1]), row(7));
        assert_eq!(c.row(again).steps[0].0, 7);
        assert_eq!(c.stats().resident, 1);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let mut c = CachePolicy::BoundedLru { capacity: 0 }.build();
        c.insert(&key(&[1]), row(1));
        assert_eq!(c.stats().resident, 1);
        c.insert(&key(&[2]), row(2));
        assert_eq!(c.stats().resident, 1);
        assert!(c.lookup(&key(&[2])).is_some());
    }

    #[test]
    fn policy_builds_expected_kind() {
        let mut u = CachePolicy::Unbounded.build();
        let mut b = CachePolicy::BoundedLru { capacity: 4 }.build();
        for i in 0..8 {
            u.insert(&key(&[i]), row(i));
            b.insert(&key(&[i]), row(i));
        }
        assert_eq!((u.stats().resident, u.stats().evictions), (8, 0));
        assert_eq!((b.stats().resident, b.stats().evictions), (4, 4));
    }

    #[test]
    fn links_resolve_without_a_lookup_and_count_as_hits() {
        let mut c = CachePolicy::Unbounded.build();
        let (a, _) = c.insert(&key(&[0, 0]), row(0));
        let (b, _) = c.insert(&key(&[0, 1]), row(1));
        c.link(a, 0, b);
        let next = c.row(a).steps[0].1.expect("memoised");
        assert!(c.follow(next, &key(&[0, 1])));
        assert_eq!(c.row(next).steps[0].0, 1);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
    }
}
