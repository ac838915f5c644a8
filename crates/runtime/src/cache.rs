//! The state cache of just-in-time composition.
//!
//! The JIT engine memoizes every expanded global state and, as the paper's
//! runtime does, "saves them for eternity" (Sect. IV-D).
//!
//! An expanded state is a [`Row`]: the ids of its connected steps (the
//! steps themselves are interned by the core and shared between rows) and,
//! per step, the armed-set bit that watches it and a [`Link`] to the row
//! its firing leads to. Links make the steady state lookup-free: the state
//! tuple is hashed once per *edge* of the visited state graph, never per
//! step. Tuples live end to end in one arena in the order they were first
//! seen, indexed by [`Buckets`]; a row's link is its tuple's place there.

use std::num::NonZeroU32;

use reo_automata::{Buckets, StateId};

use crate::engine::PendingTable;

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
/// link never goes stale. It holds the row's place plus one, so that an
/// `Option<Link>` is no wider than a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link(NonZeroU32);

impl Link {
    /// The row of the `r`-th tuple the cache saw.
    pub(crate) fn nth(r: usize) -> Link {
        let r = u32::try_from(r + 1).expect("fewer than 2^32 rows");
        Link(NonZeroU32::new(r).expect("one past a place is not zero"))
    }

    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// One expanded global state: its connected steps in emission order, and
/// what a poll tests before it reads any of them.
///
/// Each entry is *watched* by one bit of its step's
/// [`Need`](crate::engine::Need): the one the fewest entries of the row
/// share. An entry whose watch is unarmed cannot be enabled, so a poll
/// skips it without reading its step, and a row none of whose watches is
/// armed, or with a bit every entry needs unarmed, is rejected whole
/// ([`StateCache::scan`]); the step a poll
/// fires is the one a full scan would. Watches are set the first time a
/// poll tries the row, so a row filled at `connect` and never visited
/// costs nothing for them.
#[derive(Debug, Default)]
pub struct Row {
    pub steps: Box<[Entry]>,
    watch: Watch,
}

/// Which entries of a row a poll tests.
#[derive(Clone, Copy, Debug, Default)]
enum Watch {
    /// Every entry: no poll has tried the row yet, so none is watched.
    #[default]
    Unset,
    /// Every entry: one needs nothing pending (a step over internal ports
    /// only).
    Always,
    /// The entries whose watch is armed: the cache's `watched[start..mid]`
    /// are their watches OR-ed per armed-set word and `watched[mid..end]`
    /// the bits every entry needs, and a row is rejected whole when no
    /// watch or not every common bit is armed.
    Words(u32, u32, u32),
}

/// One row entry.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Its step: an id into the core's step table.
    pub step: u32,
    /// Its watch, as armed-set word × 64 + bit, once the row is watched by
    /// words.
    pub watch: u32,
    /// The successor row, once a firing resolved it.
    pub next: Option<Link>,
}

/// `(word, bits)` pairs over an armed set.
pub type WordBits = [(u32, u64)];

// A watch costs a row entry no bytes: `Option<Link>` uses the link's niche.
const _: () = assert!(std::mem::size_of::<Entry>() == 12);

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
    /// Every row's watch words end to end, so a row costs no allocation
    /// of its own for them.
    watched: Vec<(u32, u64)>,
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
            .find(|&r| self.tuple(Link::nth(r)) == key);
        found.map(Link::nth)
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
        &self.rows[link.index()]
    }

    /// The tuple `link` is the row of.
    pub fn tuple(&self, link: Link) -> &[u32] {
        &self.tuples[link.index() * self.width..][..self.width]
    }

    /// Memoise `to` as the successor of entry `entry` of row `from`.
    pub fn link(&mut self, from: Link, entry: usize, to: Link) {
        self.rows[from.index()].steps[entry].next = Some(to);
    }

    /// The link of `key` and whether it is new: a new tuple gets an empty
    /// row, for [`fill`](Self::fill) to replace.
    pub fn intern(&mut self, key: &[u32]) -> (Link, bool) {
        debug_assert_eq!(key.len(), self.width, "one state per automaton");
        let hash = Self::hash(key);
        if let Some(link) = self.find(key, hash) {
            return (link, false);
        }
        let link = Link::nth(self.index.push(hash));
        self.tuples.extend_from_slice(key);
        self.rows.push(Row::default());
        (link, true)
    }

    /// Give `link` its expanded row, its entries not yet watched.
    pub fn fill(&mut self, link: Link, steps: Box<[Entry]>) {
        self.rows[link.index()] = Row {
            steps,
            watch: Watch::Unset,
        };
    }

    /// Cache the freshly expanded row of `key` (not resident).
    pub fn insert(&mut self, key: &[u32], steps: Box<[Entry]>) -> Link {
        let (link, fresh) = self.intern(key);
        debug_assert!(fresh, "inserted a state that was resident");
        self.fill(link, steps);
        link
    }

    /// The entries of row `link`, to be watched, if no poll has tried it.
    #[inline(always)]
    pub fn unwatched(&mut self, link: Link) -> Option<&mut [Entry]> {
        let row = &mut self.rows[link.index()];
        matches!(row.watch, Watch::Unset).then_some(&mut row.steps)
    }

    /// Row `link`'s entries are watched: `words` are their watches OR-ed
    /// per armed-set word and the bits all of them need, `None` if an entry
    /// needs nothing pending.
    pub fn watched(&mut self, link: Link, words: Option<(&WordBits, &WordBits)>) {
        let start = self.watched.len() as u32;
        self.rows[link.index()].watch = match words {
            None => Watch::Always,
            Some((watches, common)) => {
                self.watched.extend_from_slice(watches);
                let mid = self.watched.len() as u32;
                self.watched.extend_from_slice(common);
                Watch::Words(start, mid, self.watched.len() as u32)
            }
        };
    }

    /// How a poll scans row `link` under `pending`: `None` when no entry's
    /// watch, or not every bit all entries need, is armed, so none can be
    /// enabled; otherwise whether an entry is tested only if its own watch
    /// is armed (not when every watch is, nor in a row without words).
    #[inline(always)]
    pub fn scan(&self, link: Link, pending: &PendingTable) -> Option<bool> {
        match self.rows[link.index()].watch {
            Watch::Words(start, mid, end) => {
                let (start, mid, end) = (start as usize, mid as usize, end as usize);
                let (watches, common) = (&self.watched[start..mid], &self.watched[mid..end]);
                let open = pending.all_armed(common) && pending.any_armed(watches);
                open.then(|| !pending.all_armed(watches))
            }
            Watch::Unset | Watch::Always => Some(false),
        }
    }

    /// Tuples seen so far, each with a row.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every resident row's link, in the order tuples were seen.
    pub fn resident(&self) -> impl Iterator<Item = Link> {
        (0..self.rows.len()).map(Link::nth)
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

    fn row(step: u32) -> Box<[Entry]> {
        Box::new([Entry {
            step,
            watch: 0,
            next: None,
        }])
    }

    #[test]
    fn unbounded_remembers_everything() {
        let mut c = StateCache::new(1);
        for i in 0..100 {
            c.insert(&[i], row(i));
        }
        for i in 0..100 {
            let link = c.lookup(&[i]).expect("resident");
            assert_eq!(c.row(link).steps[0].step, i);
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
        let next = c.row(a).steps[0].next.expect("memoised");
        c.hit();
        assert_eq!(c.row(next).steps[0].step, 1);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 0));
    }
}
