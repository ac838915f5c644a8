//! The state cache of just-in-time composition.
//!
//! The JIT engine memoizes every expanded global state and, as the paper's
//! runtime does, "saves them for eternity" (Sect. IV-D).
//!
//! An expanded state is a [`Row`]: the ids of its connected steps (the
//! steps themselves are interned by the core and shared between rows) and,
//! per step, a [`Link`] to the row its firing leads to. Links make the
//! steady state lookup-free: the state tuple is hashed once per *edge* of
//! the visited state graph, never per step. Tuples live end to end in one
//! arena in the order they were first seen, indexed by [`Buckets`]; a
//! row's link is its tuple's place there.

use reo_automata::{Buckets, StateId};

/// One local state per medium automaton: the core's current global state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleKey(Box<[u32]>);

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

    /// The states' ids, the form the cache keys rows by.
    pub fn ids(&self) -> &[u32] {
        &self.0
    }
}

/// A handle to a cached row. Rows are kept for the whole session, so a
/// link never goes stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link(u32);

impl Link {
    /// The row of the `r`-th tuple the cache saw.
    pub(crate) fn nth(r: usize) -> Link {
        Link(r as u32)
    }
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
    /// The tuple of row `r` is `tuples[r * width..][..width]`.
    tuples: Vec<u32>,
    width: usize,
    index: Buckets,
    rows: Vec<Row>,
    hits: u64,
    misses: u64,
}

impl StateCache {
    /// A cache of tuples of `width` states.
    pub fn new(width: usize) -> Self {
        StateCache {
            width,
            ..StateCache::default()
        }
    }

    fn hash(key: &[u32]) -> u64 {
        Buckets::hash(0, key.iter().copied())
    }

    fn find(&self, key: &[u32], hash: u64) -> Option<Link> {
        let found = self
            .index
            .under(hash)
            .find(|&r| self.tuple(Link(r as u32)) == key);
        found.map(|r| Link(r as u32))
    }

    /// Look a state up; counts a hit or a miss.
    pub fn lookup(&mut self, key: &[u32]) -> Option<Link> {
        let found = self.find(key, Self::hash(key));
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

    /// The tuple `link` is the row of.
    pub fn tuple(&self, link: Link) -> &[u32] {
        &self.tuples[link.0 as usize * self.width..][..self.width]
    }

    /// Memoise `to` as the successor of entry `entry` of row `from`.
    pub fn link(&mut self, from: Link, entry: usize, to: Link) {
        self.rows[from.0 as usize].steps[entry].1 = Some(to);
    }

    /// The link of `key` and whether it is new: a new tuple gets an empty
    /// row, for [`fill`](Self::fill) to replace.
    pub fn intern(&mut self, key: &[u32]) -> (Link, bool) {
        debug_assert_eq!(key.len(), self.width, "one state per automaton");
        let hash = Self::hash(key);
        if let Some(link) = self.find(key, hash) {
            return (link, false);
        }
        let link = Link(self.index.push(hash) as u32);
        self.tuples.extend_from_slice(key);
        self.rows.push(Row::default());
        (link, true)
    }

    /// Give `link` its expanded row.
    pub fn fill(&mut self, link: Link, row: Row) {
        self.rows[link.0 as usize] = row;
    }

    /// Cache the freshly expanded `row` of `key` (not resident).
    pub fn insert(&mut self, key: &[u32], row: Row) -> Link {
        let (link, fresh) = self.intern(key);
        debug_assert!(fresh, "inserted a state that was resident");
        self.fill(link, row);
        link
    }

    /// Tuples seen so far, each with a row.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every resident row with its tuple, in the order tuples were seen.
    pub fn resident(&self) -> impl Iterator<Item = (&[u32], &Row)> + '_ {
        (0..self.rows.len() as u32).map(|r| (self.tuple(Link(r)), self.row(Link(r))))
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

    fn row(step: u32) -> Row {
        Row {
            steps: Box::new([(step, None)]),
        }
    }

    #[test]
    fn unbounded_remembers_everything() {
        let mut c = StateCache::new(1);
        for i in 0..100 {
            c.insert(&[i], row(i));
        }
        for i in 0..100 {
            let link = c.lookup(&[i]).expect("resident");
            assert_eq!(c.row(link).steps[0].0, i);
        }
        let s = c.stats();
        assert_eq!(s.resident, 100);
        assert_eq!(s.hits, 100);
    }

    #[test]
    fn links_resolve_without_a_lookup_and_count_as_hits() {
        let mut c = StateCache::new(2);
        let a = c.insert(&[0, 0], row(0));
        let b = c.insert(&[0, 1], row(1));
        c.link(a, 0, b);
        let next = c.row(a).steps[0].1.expect("memoised");
        c.hit();
        assert_eq!(c.row(next).steps[0].0, 1);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
    }
}
