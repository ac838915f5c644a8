//! Hash buckets over items their owner stores: the owner numbers items in
//! insertion order and keeps them (a tuple arena, a transition list); this
//! only remembers which numbers were pushed under which hash, so a lookup
//! compares against the owner's storage and nothing is stored twice.
//!
//! Its mix, `(h ^ x) · φ·2⁶⁴`, also hashes the internal maps keyed by ids,
//! names and symbols ([`IdMap`]): their keys are trusted and short, so
//! SipHash's flood resistance buys nothing there; public maps keep it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// φ·2⁶⁴, odd: a bijective multiply that carries every input bit upwards.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A [`Hasher`] of one multiply per word written (module docs).
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    /// The well-mixed high bits rotated down to where tables index, so that
    /// keys differing only past their first bytes (`v~12`, `v~13`) spread.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }
}

/// A map on [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[derive(Default)]
pub struct Buckets {
    /// Hash → the last item pushed under it.
    heads: IdMap<u64, usize>,
    /// Per item, the one pushed under the same hash before it.
    chain: Vec<Option<usize>>,
}

impl Buckets {
    /// A hash of `seed` and a run of ids (ports, cells, states).
    pub fn hash(seed: u32, ids: impl IntoIterator<Item = u32>) -> u64 {
        let mix = |h, x: u32| mix(h, u64::from(x));
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
