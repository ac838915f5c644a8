//! Hash buckets over items their owner stores: the owner numbers items in
//! insertion order and keeps them (a tuple arena, a transition list); this
//! only remembers which numbers were pushed under which hash, so a lookup
//! compares against the owner's storage and nothing is stored twice.

use std::collections::HashMap;

#[derive(Default)]
pub struct Buckets {
    /// Hash → the last item pushed under it.
    heads: HashMap<u64, usize>,
    /// Per item, the one pushed under the same hash before it.
    chain: Vec<Option<usize>>,
}

impl Buckets {
    /// A hash of `seed` and a run of ids (ports, cells, states).
    pub fn hash(seed: u32, ids: impl IntoIterator<Item = u32>) -> u64 {
        let mix = |h: u64, x: u32| (h ^ u64::from(x)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ids.into_iter().fold(mix(0, seed), mix)
    }

    /// The items pushed under `hash`, latest first.
    pub fn under(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.heads.get(&hash).copied(), |&i| self.chain[i])
    }

    /// Number the next item, under `hash`.
    pub fn push(&mut self, hash: u64) -> usize {
        let item = self.chain.len();
        self.chain.push(self.heads.insert(hash, item));
        item
    }

    pub fn len(&self) -> usize {
        self.chain.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    pub fn clear(&mut self) {
        self.heads.clear();
        self.chain.clear();
    }
}
