//! State caches for just-in-time composition.
//!
//! The JIT engine memoizes every expanded global state (Sect. IV-D). The
//! paper's runtime "saves them for eternity" ([`Unbounded`]) and sketches a
//! *bounded* cache with eviction as future work — "the disadvantage is the
//! possible need to recompute states …; the advantage is that arbitrarily
//! large state spaces can be handled". [`BoundedLru`] implements that
//! sketch.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use reo_automata::{StateId, Transition};

/// One expanded global state: the composed transitions leaving it.
#[derive(Debug)]
pub struct Expanded {
    /// Composed transition (its `target` field is unused) plus the successor
    /// local-state tuple it leads to.
    pub transitions: Vec<GlobalTransition>,
}

/// A composed global transition of the product, built just in time.
#[derive(Debug)]
pub struct GlobalTransition {
    /// The synthesized transition: union label, conjoined guard,
    /// concatenated assignments and pops.
    pub trans: Transition,
    /// Successor local state per medium automaton.
    pub targets: Box<[StateId]>,
}

/// Cache statistics, surfaced through `ConnectorHandle`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident: usize,
}

/// Storage policy for expanded states.
pub trait StateCache: Send {
    fn get(&mut self, key: &[StateId]) -> Option<Arc<Expanded>>;
    fn put(&mut self, key: Box<[StateId]>, value: Arc<Expanded>);
    fn stats(&self) -> CacheStats;
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
    pub fn build(self) -> Box<dyn StateCache> {
        match self {
            CachePolicy::Unbounded => Box::new(Unbounded::default()),
            CachePolicy::BoundedLru { capacity } => Box::new(BoundedLru::new(capacity)),
        }
    }
}

/// Never evicts.
#[derive(Default)]
pub struct Unbounded {
    map: HashMap<Box<[StateId]>, Arc<Expanded>>,
    hits: u64,
    misses: u64,
}

impl StateCache for Unbounded {
    fn get(&mut self, key: &[StateId]) -> Option<Arc<Expanded>> {
        match self.map.get(key) {
            Some(v) => {
                self.hits += 1;
                Some(Arc::clone(v))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, key: Box<[StateId]>, value: Arc<Expanded>) {
        self.map.insert(key, value);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: 0,
            resident: self.map.len(),
        }
    }
}

/// Least-recently-used bounded cache: `HashMap` for lookup plus a
/// `BTreeMap<tick, key>` recency index (O(log n) touch/evict).
pub struct BoundedLru {
    capacity: usize,
    map: HashMap<Box<[StateId]>, (Arc<Expanded>, u64)>,
    recency: BTreeMap<u64, Box<[StateId]>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BoundedLru {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: &[StateId]) {
        self.tick += 1;
        if let Some((_, t)) = self.map.get_mut(key) {
            let old = *t;
            *t = self.tick;
            let moved = self.recency.remove(&old).expect("recency in sync");
            self.recency.insert(self.tick, moved);
        }
    }
}

impl StateCache for BoundedLru {
    fn get(&mut self, key: &[StateId]) -> Option<Arc<Expanded>> {
        if self.map.contains_key(key) {
            self.hits += 1;
            self.touch(key);
            Some(Arc::clone(&self.map[key].0))
        } else {
            self.misses += 1;
            None
        }
    }

    fn put(&mut self, key: Box<[StateId]>, value: Arc<Expanded>) {
        self.tick += 1;
        if let Some((_, old_tick)) = self.map.insert(key.clone(), (value, self.tick)) {
            self.recency.remove(&old_tick);
        }
        self.recency.insert(self.tick, key);
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.recency.iter().next().expect("nonempty over capacity");
            let victim = self.recency.remove(&oldest).expect("present");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_automata::PortSet;

    fn key(ids: &[u32]) -> Box<[StateId]> {
        ids.iter().map(|&i| StateId(i)).collect()
    }

    fn dummy() -> Arc<Expanded> {
        Arc::new(Expanded {
            transitions: vec![GlobalTransition {
                trans: Transition::new(PortSet::new(), StateId(0)),
                targets: Box::new([]),
            }],
        })
    }

    #[test]
    fn unbounded_remembers_everything() {
        let mut c = Unbounded::default();
        for i in 0..100 {
            c.put(key(&[i]), dummy());
        }
        for i in 0..100 {
            assert!(c.get(&key(&[i])).is_some());
        }
        let s = c.stats();
        assert_eq!(s.resident, 100);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits, 100);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = BoundedLru::new(2);
        c.put(key(&[1]), dummy());
        c.put(key(&[2]), dummy());
        assert!(c.get(&key(&[1])).is_some()); // 1 is now most recent
        c.put(key(&[3]), dummy()); // evicts 2
        assert!(c.get(&key(&[2])).is_none());
        assert!(c.get(&key(&[1])).is_some());
        assert!(c.get(&key(&[3])).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident, 2);
    }

    #[test]
    fn lru_reinsert_updates_value_not_size() {
        let mut c = BoundedLru::new(2);
        c.put(key(&[1]), dummy());
        c.put(key(&[1]), dummy());
        assert_eq!(c.stats().resident, 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let mut c = BoundedLru::new(0);
        c.put(key(&[1]), dummy());
        assert_eq!(c.stats().resident, 1);
        c.put(key(&[2]), dummy());
        assert_eq!(c.stats().resident, 1);
        assert!(c.get(&key(&[2])).is_some());
    }

    #[test]
    fn policy_builds_expected_kind() {
        let mut u = CachePolicy::Unbounded.build();
        let mut b = CachePolicy::BoundedLru { capacity: 4 }.build();
        u.put(key(&[7]), dummy());
        b.put(key(&[7]), dummy());
        assert!(u.get(&key(&[7])).is_some());
        assert!(b.get(&key(&[7])).is_some());
    }
}
