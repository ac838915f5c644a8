//! Port (vertex) identifiers and sets of ports.
//!
//! In Reo's formal model a connector is a hypergraph over *vertices*; tasks
//! are linked to public vertices through outports and inports, and every
//! transition of a constraint automaton is labelled with the set of vertices
//! through which messages synchronously flow (Fig. 7 of the paper). We call
//! those vertices *ports* and identify them by dense `u32` ids handed out by
//! a [`PortAllocator`]. A label is a [`PortSet`]: a sorted array, held
//! inline up to five ports, since most labels have one to four.

use std::fmt;

/// A vertex of a connector. Dense ids so engines can index arrays by port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    /// The id as a usize, for direct array indexing in engines.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Hands out fresh [`PortId`]s and memory-cell ids.
///
/// One allocator is shared per connector program so that distinct primitives
/// never collide on ids, which lets the run-time address pending-operation
/// tables and stores as flat arrays.
#[derive(Debug, Default, Clone)]
pub struct PortAllocator {
    next_port: u32,
    next_mem: u32,
}

impl PortAllocator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate one fresh port.
    pub fn fresh_port(&mut self) -> PortId {
        let id = PortId(self.next_port);
        self.next_port += 1;
        id
    }

    /// Allocate `n` consecutive fresh ports.
    pub fn fresh_ports(&mut self, n: usize) -> Vec<PortId> {
        (0..n).map(|_| self.fresh_port()).collect()
    }

    /// Allocate one fresh memory cell.
    pub fn fresh_mem(&mut self) -> MemId {
        let id = MemId(self.next_mem);
        self.next_mem += 1;
        id
    }

    /// Number of ports allocated so far (= size of engine port tables).
    pub fn port_count(&self) -> usize {
        self.next_port as usize
    }

    /// Number of memory cells allocated so far (= size of engine stores).
    pub fn mem_count(&self) -> usize {
        self.next_mem as usize
    }
}

/// A memory cell of a constraint automaton with memory (e.g. a fifo buffer).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemId(pub u32);

impl MemId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Ports a [`PortSet`] holds without the heap.
const INLINE: usize = 5;

/// A sorted, duplicate-free set of ports.
///
/// A sorted array beats hash sets on every operation the engines perform:
/// subset tests, intersection emptiness, and ordered iteration. A set of at
/// most five ports is always inline and results are built inline first, so
/// an operation with a small result never allocates; a larger set is a heap
/// slice. Either way the set is 24 bytes, a `Vec`'s size, so the transition
/// tables stepping reads do not grow.
#[derive(Clone)]
pub struct PortSet(Repr);

#[derive(Clone)]
enum Repr {
    /// `ports[..len]`; `len <= INLINE`.
    Inline { len: u8, ports: [PortId; INLINE] },
    /// More than `INLINE` ports.
    Heap(Box<[PortId]>),
}

impl PortSet {
    pub fn new() -> Self {
        Self::from_sorted(std::iter::empty())
    }

    pub fn singleton(p: PortId) -> Self {
        Self::from_sorted(std::iter::once(p))
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    pub fn contains(&self, p: PortId) -> bool {
        self.as_slice().binary_search(&p).is_ok()
    }

    /// Insert a port, keeping the set sorted.
    pub fn insert(&mut self, p: PortId) {
        let Err(at) = self.as_slice().binary_search(&p) else {
            return;
        };
        if let Repr::Inline { len, ports } = &mut self.0 {
            if usize::from(*len) < INLINE {
                ports.copy_within(at..usize::from(*len), at + 1);
                ports[at] = p;
                *len += 1;
                return;
            }
        }
        let (below, above) = self.as_slice().split_at(at);
        *self = Self::from_sorted(below.iter().chain(&[p]).chain(above).copied());
    }

    /// Remove a port if present; returns whether it was present.
    pub fn remove(&mut self, p: PortId) -> bool {
        let found = self.contains(p);
        if found {
            self.retain(|q| q != p);
        }
        found
    }

    pub fn iter(&self) -> impl Iterator<Item = PortId> + '_ {
        self.as_slice().iter().copied()
    }

    pub fn as_slice(&self) -> &[PortId] {
        match &self.0 {
            Repr::Inline { len, ports } => &ports[..usize::from(*len)],
            Repr::Heap(ports) => ports,
        }
    }

    /// The set of `ports`, which come sorted and distinct: inline unless a
    /// sixth arrives.
    fn from_sorted(mut ports: impl Iterator<Item = PortId>) -> Self {
        let mut inline = [PortId(0); INLINE];
        for len in 0..=INLINE {
            match ports.next() {
                None => {
                    return PortSet(Repr::Inline {
                        len: len as u8,
                        ports: inline,
                    })
                }
                Some(p) if len < INLINE => inline[len] = p,
                Some(p) => {
                    let all: Vec<PortId> = inline.into_iter().chain([p]).chain(ports).collect();
                    return PortSet(Repr::Heap(all.into()));
                }
            }
        }
        unreachable!("the sixth port spills")
    }

    /// The ports of `self` and `other` that `keep(in self, in other)`
    /// admits, in one merge of the two sorted runs.
    fn merge(&self, other: &PortSet, keep: impl Fn(bool, bool) -> bool) -> PortSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        Self::from_sorted(std::iter::from_fn(|| loop {
            let (p, in_a, in_b) = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => (x, true, true),
                (Some(&x), Some(&y)) if x < y => (x, true, false),
                (Some(&x), None) => (x, true, false),
                (_, Some(&y)) => (y, false, true),
                (None, None) => return None,
            };
            i += usize::from(in_a);
            j += usize::from(in_b);
            if keep(in_a, in_b) {
                return Some(p);
            }
        }))
    }

    /// Set union (merge of two sorted runs).
    pub fn union(&self, other: &PortSet) -> PortSet {
        self.merge(other, |a, b| a || b)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &PortSet) -> PortSet {
        self.merge(other, |a, b| a && b)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &PortSet) -> PortSet {
        self.merge(other, |a, b| a && !b)
    }

    /// True iff the two sets have no port in common. The hot check of the
    /// product and of just-in-time expansion, so it avoids allocation.
    pub fn is_disjoint(&self, other: &PortSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// True iff every port of `self` is in `other`.
    pub fn is_subset(&self, other: &PortSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            if j >= b.len() {
                return false;
            }
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Retain only ports satisfying the predicate.
    pub fn retain(&mut self, mut f: impl FnMut(PortId) -> bool) {
        *self = Self::from_sorted(self.iter().filter(|&p| f(p)));
    }
}

impl Default for PortSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for PortSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PortSet {}

impl std::hash::Hash for PortSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

/// Builds from any iterator; sorts and deduplicates. Up to five ports
/// never touch the heap.
impl FromIterator<PortId> for PortSet {
    fn from_iter<I: IntoIterator<Item = PortId>>(iter: I) -> Self {
        let mut ports = iter.into_iter();
        let (mut inline, mut len) = ([PortId(0); INLINE], 0);
        for slot in &mut inline {
            let Some(p) = ports.next() else { break };
            (*slot, len) = (p, len + 1);
        }
        let Some(sixth) = ports.next() else {
            let got = &mut inline[..len];
            got.sort_unstable();
            let mut last = None;
            return Self::from_sorted(got.iter().copied().filter(|&p| last.replace(p) != Some(p)));
        };
        let mut all: Vec<PortId> = inline.into_iter().chain([sixth]).chain(ports).collect();
        all.sort_unstable();
        all.dedup();
        match all.len() {
            ..=INLINE => Self::from_sorted(all.into_iter()),
            _ => PortSet(Repr::Heap(all.into())),
        }
    }
}

impl<'a> IntoIterator for &'a PortSet {
    type Item = PortId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, PortId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> PortSet {
        PortSet::from_iter(ids.iter().map(|&i| PortId(i)))
    }

    #[test]
    fn allocator_hands_out_distinct_ids() {
        let mut alloc = PortAllocator::new();
        let a = alloc.fresh_port();
        let b = alloc.fresh_port();
        let m = alloc.fresh_mem();
        assert_ne!(a, b);
        assert_eq!(alloc.port_count(), 2);
        assert_eq!(alloc.mem_count(), 1);
        assert_eq!(m.index(), 0);
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let s = set(&[3, 1, 2, 3, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_slice(), &[PortId(1), PortId(2), PortId(3)]);
    }

    #[test]
    fn insert_keeps_sorted_and_unique() {
        let mut s = set(&[5, 1]);
        s.insert(PortId(3));
        s.insert(PortId(3));
        assert_eq!(s.as_slice(), &[PortId(1), PortId(3), PortId(5)]);
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = set(&[1, 2]);
        assert!(s.remove(PortId(1)));
        assert!(!s.remove(PortId(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 2, 3]);
        let b = set(&[3, 4]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), set(&[3]));
        assert_eq!(a.difference(&b), set(&[1, 2]));
        assert_eq!(b.difference(&a), set(&[4]));
    }

    #[test]
    fn disjoint_and_subset() {
        let a = set(&[1, 2]);
        let b = set(&[3, 4]);
        let c = set(&[2, 3]);
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
        assert!(set(&[1]).is_subset(&a));
        assert!(!c.is_subset(&a));
        assert!(set(&[]).is_subset(&b));
    }

    #[test]
    fn sets_cross_the_inline_bound_both_ways() {
        assert_eq!(std::mem::size_of::<PortSet>(), 24);
        let mut s = set(&[9, 7, 5, 3, 1]);
        s.insert(PortId(4));
        assert_eq!(s, set(&[1, 3, 4, 5, 7, 9]));
        assert!(s.remove(PortId(9)));
        assert_eq!(s, set(&[1, 3, 4, 5, 7]));
        let big = set(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(big.intersection(&s), set(&[1, 3, 4, 5, 7]));
        assert_eq!(big.difference(&s), set(&[2, 6, 8]));
        assert_eq!(big.union(&s), big);
        assert_eq!(big.union(&set(&[0, 9])).len(), 10);
        let mut odd = big.clone();
        odd.retain(|p| p.0 % 2 == 1);
        assert_eq!(odd.as_slice(), set(&[1, 3, 5, 7]).as_slice());
        assert_eq!(set(&[6, 6, 5, 4, 3, 2, 1, 1]).len(), 6);
    }
}
