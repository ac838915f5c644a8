//! The state cache of just-in-time composition.
//!
//! The JIT engine memoizes every expanded global state and, as the paper's
//! runtime does, "saves them for eternity" (Sect. IV-D).
//!
//! An expanded state is a [`Row`]: the ids of its connected steps (the
//! steps themselves are interned by the core and shared between rows) and,
//! per step, a [`Link`] to the row its firing leads to. Links make the
//! steady state lookup-free: the state tuple is hashed once per *edge* of
//! the visited state graph, never per step.

use std::collections::HashMap;
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

/// A handle to a cached row. Rows are kept for the whole session, so a
/// link never goes stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link(u32);

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
    /// Rows resident.
    pub resident: usize,
    /// Lowered connected steps resident (each shared by every row naming
    /// it); filled in by the core.
    pub steps: usize,
}

/// The one cache policy: every expanded state is kept (the paper's
/// runtime). Only `benchmark/` still passes it, to
/// [`partition`](crate::partition::partition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CachePolicy;

/// Rows by state tuple, kept for the whole session.
#[derive(Default)]
pub struct StateCache {
    map: HashMap<TupleKey, Link>,
    rows: Vec<Row>,
    hits: u64,
    misses: u64,
}

impl StateCache {
    /// Look a state up; counts a hit or a miss.
    pub fn lookup(&mut self, key: &TupleKey) -> Option<Link> {
        let found = self.map.get(key).copied();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Count a hit served through a link, without a lookup.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    #[inline]
    pub fn row(&self, link: Link) -> &Row {
        &self.rows[link.0 as usize]
    }

    /// Memoise `to` as the successor of entry `entry` of row `from`.
    pub fn link(&mut self, from: Link, entry: usize, to: Link) {
        self.rows[from.0 as usize].steps[entry].1 = Some(to);
    }

    /// Cache the freshly expanded `row` of `key` (not resident).
    pub fn insert(&mut self, key: &TupleKey, row: Row) -> Link {
        let link = Link(self.rows.len() as u32);
        self.rows.push(row);
        let previous = self.map.insert(key.clone(), link);
        debug_assert!(previous.is_none(), "inserted a state that was resident");
        link
    }

    /// Every resident row with its tuple, in no particular order.
    pub fn resident(&self) -> impl Iterator<Item = (&TupleKey, &Row)> + '_ {
        (self.map.iter()).map(|(key, &link)| (key, self.row(link)))
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            resident: self.rows.len(),
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
        let mut c = StateCache::default();
        for i in 0..100 {
            c.insert(&key(&[i]), row(i));
        }
        for i in 0..100 {
            let link = c.lookup(&key(&[i])).expect("resident");
            assert_eq!(c.row(link).steps[0].0, i);
        }
        let s = c.stats();
        assert_eq!(s.resident, 100);
        assert_eq!(s.hits, 100);
    }

    #[test]
    fn links_resolve_without_a_lookup_and_count_as_hits() {
        let mut c = StateCache::default();
        let a = c.insert(&key(&[0, 0]), row(0));
        let b = c.insert(&key(&[0, 1]), row(1));
        c.link(a, 0, b);
        let next = c.row(a).steps[0].1.expect("memoised");
        c.hit();
        assert_eq!(c.row(next).steps[0].0, 1);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
    }
}
