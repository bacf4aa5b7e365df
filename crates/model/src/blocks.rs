//! Sets of cache blocks, the currency of CRPD/CPRO analysis.

use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

use serde::{Deserialize, Serialize};

use crate::ModelError;

const WORD_BITS: usize = 64;

/// A set of cache blocks identified by the cache set they map to.
///
/// The paper (and the CRPD literature it builds on) represents a task's cache
/// footprint as sets of cache-set indices: *evicting cache blocks* (`ECB_i`),
/// *useful cache blocks* (`UCB_i`) and *persistent cache blocks* (`PCB_i`).
/// With a direct-mapped cache, two blocks conflict iff they map to the same
/// set, so set indices are the right granularity for all the intersection
/// and union algebra of Eq. (2) and Eq. (14).
///
/// The representation is a fixed-capacity bitset whose capacity equals the
/// number of cache sets of the platform, so intersections (`γ`, CPRO) are
/// word-parallel.
///
/// # Example
///
/// ```
/// use cpa_model::CacheBlockSet;
///
/// # fn main() -> Result<(), cpa_model::ModelError> {
/// let pcb1 = CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10])?;
/// let ecb2 = CacheBlockSet::from_blocks(256, 1..=6)?;
/// // The Fig. 1 overlap that causes CPRO: PCBs {5, 6} of τ1 evicted by τ2.
/// assert_eq!(pcb1.intersection_len(&ecb2), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheBlockSet {
    capacity: usize,
    words: Vec<u64>,
}

impl CacheBlockSet {
    /// Creates an empty set over `capacity` cache sets.
    ///
    /// ```
    /// use cpa_model::CacheBlockSet;
    /// let s = CacheBlockSet::new(128);
    /// assert!(s.is_empty());
    /// assert_eq!(s.capacity(), 128);
    /// ```
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        CacheBlockSet {
            capacity,
            words: vec![0; capacity.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a set over `capacity` cache sets containing `blocks`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BlockOutOfRange`] if any block index is
    /// `>= capacity`.
    pub fn from_blocks<I>(capacity: usize, blocks: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut set = CacheBlockSet::new(capacity);
        for block in blocks {
            set.insert(block)?;
        }
        Ok(set)
    }

    /// Creates the contiguous set `[start, start + len)` with indices wrapped
    /// modulo `capacity`.
    ///
    /// This is the canonical layout for synthetic workloads in the CRPD
    /// evaluation literature: a task occupies a run of consecutive cache sets
    /// starting at some offset. When `len >= capacity` the whole cache is
    /// covered.
    ///
    /// ```
    /// use cpa_model::CacheBlockSet;
    /// let s = CacheBlockSet::contiguous(8, 6, 4);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 6, 7]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero and `len > 0`.
    #[must_use]
    pub fn contiguous(capacity: usize, start: usize, len: usize) -> Self {
        let mut set = CacheBlockSet::new(capacity);
        if len == 0 {
            return set;
        }
        assert!(capacity > 0, "contiguous blocks require non-zero capacity");
        // The wrapped range [start, start + len) mod capacity is at most
        // two linear runs; fill them word-wise instead of bit by bit
        // (task generation builds three of these per task).
        let len = len.min(capacity);
        let start = start % capacity;
        let first = (capacity - start).min(len);
        set.fill_range(start, start + first);
        set.fill_range(0, len - first);
        set
    }

    /// Sets every bit in `[lo, hi)` (callers keep `hi <= capacity`).
    fn fill_range(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let wl = lo / WORD_BITS;
        let wh = (hi - 1) / WORD_BITS;
        let mask_lo = !0u64 << (lo % WORD_BITS);
        let mask_hi = !0u64 >> (WORD_BITS - 1 - (hi - 1) % WORD_BITS);
        if wl == wh {
            self.words[wl] |= mask_lo & mask_hi;
        } else {
            self.words[wl] |= mask_lo;
            for word in &mut self.words[wl + 1..wh] {
                *word = !0;
            }
            self.words[wh] |= mask_hi;
        }
    }

    /// Number of cache sets this set ranges over.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks in the set (the `|·|` of Eq. (2) and (14)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if `block` is in the set.
    #[must_use]
    pub fn contains(&self, block: usize) -> bool {
        block < self.capacity && self.words[block / WORD_BITS] & (1 << (block % WORD_BITS)) != 0
    }

    /// Inserts `block`; returns `true` if it was newly inserted.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BlockOutOfRange`] if `block >= capacity`.
    pub fn insert(&mut self, block: usize) -> Result<bool, ModelError> {
        if block >= self.capacity {
            return Err(ModelError::BlockOutOfRange {
                block,
                capacity: self.capacity,
            });
        }
        let present = self.contains(block);
        self.set_bit(block);
        Ok(!present)
    }

    /// Removes `block`; returns `true` if it was present.
    pub fn remove(&mut self, block: usize) -> bool {
        if !self.contains(block) {
            return false;
        }
        self.words[block / WORD_BITS] &= !(1 << (block % WORD_BITS));
        true
    }

    fn set_bit(&mut self, block: usize) {
        self.words[block / WORD_BITS] |= 1 << (block % WORD_BITS);
    }

    /// Empties the set in place, keeping its capacity and allocation.
    /// The reset primitive for scratch sets reused across many union
    /// folds (the per-`j` evictor unions of the analysis-context fill).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the contained block indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            (0..WORD_BITS)
                .filter(move |bit| word & (1 << bit) != 0)
                .map(move |bit| wi * WORD_BITS + bit)
        })
    }

    /// Set union `self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ; block sets are only comparable within
    /// one cache geometry.
    #[must_use]
    pub fn union(&self, other: &CacheBlockSet) -> CacheBlockSet {
        self.assert_same_capacity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        CacheBlockSet {
            capacity: self.capacity,
            words,
        }
    }

    /// In-place set union; avoids an allocation when folding many sets
    /// (the `∪_{h ∈ hep(j)} ECB_h` of Eq. (2)).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_in_place(&mut self, other: &CacheBlockSet) {
        self.assert_same_capacity(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set intersection `self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn intersection(&self, other: &CacheBlockSet) -> CacheBlockSet {
        self.assert_same_capacity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        CacheBlockSet {
            capacity: self.capacity,
            words,
        }
    }

    /// Size of the intersection without materialising it — the hot path of
    /// CRPD (Eq. (2)) and CPRO (Eq. (14)) computations.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn intersection_len(&self, other: &CacheBlockSet) -> usize {
        self.assert_same_capacity(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn difference(&self, other: &CacheBlockSet) -> CacheBlockSet {
        self.assert_same_capacity(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & !b)
            .collect();
        CacheBlockSet {
            capacity: self.capacity,
            words,
        }
    }

    /// Returns `true` if every block of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn is_subset(&self, other: &CacheBlockSet) -> bool {
        self.assert_same_capacity(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Rotates every block by `shift` cache sets, wrapping modulo the
    /// capacity — the cache-coloring move of `cpa-optimize`. Shifting a
    /// task's whole footprint (`ECB`, `UCB`, `PCB` by the same amount)
    /// relocates it in the cache without changing its size or internal
    /// subset structure, so recoloring never invalidates task invariants;
    /// only the *inter-task* overlaps (`γ`, CPRO) change.
    ///
    /// ```
    /// use cpa_model::CacheBlockSet;
    /// let s = CacheBlockSet::contiguous(8, 6, 3);
    /// assert_eq!(s.rotated(2).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    /// assert_eq!(s.rotated(0), s);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the set is non-empty with zero capacity (unreachable for
    /// constructed sets).
    #[must_use]
    pub fn rotated(&self, shift: usize) -> CacheBlockSet {
        let mut out = CacheBlockSet::new(self.capacity);
        if self.capacity == 0 {
            assert!(self.is_empty(), "non-empty set with zero capacity");
            return out;
        }
        let shift = shift % self.capacity;
        // Rotating a `capacity`-bit integer: `(x << shift) | (x >> (capacity
        // − shift))`, word by word. Bits beyond `capacity` are zero, so the
        // right shift brings in exactly the wrapped blocks; the left shift
        // pushes blocks past `capacity`, which the tail mask clears.
        let (ws, bs) = (shift / WORD_BITS, shift % WORD_BITS);
        for i in ws..out.words.len() {
            let mut word = self.words[i - ws] << bs;
            if bs != 0 && i > ws {
                word |= self.words[i - ws - 1] >> (WORD_BITS - bs);
            }
            out.words[i] = word;
        }
        let back = self.capacity - shift;
        let (ws, bs) = (back / WORD_BITS, back % WORD_BITS);
        for i in 0..self.words.len().saturating_sub(ws) {
            let mut word = self.words[i + ws] >> bs;
            if bs != 0 && i + ws + 1 < self.words.len() {
                word |= self.words[i + ws + 1] << (WORD_BITS - bs);
            }
            out.words[i] |= word;
        }
        let tail = self.capacity % WORD_BITS;
        if tail != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    /// Feeds the set's canonical encoding into a
    /// [`crate::ContentHasher`]: the capacity plus the raw bitset words.
    /// The words *are* canonical — every mutation keeps bits beyond
    /// `capacity` zero and the word count is a function of the
    /// capacity — and hashing them directly costs one write per 64
    /// blocks instead of one per set block (fingerprinting task sets
    /// sits on the analysis hot path).
    pub fn hash_content(&self, hasher: &mut crate::ContentHasher) {
        hasher.write_usize(self.capacity);
        for &word in &self.words {
            hasher.write_u64(word);
        }
    }

    fn assert_same_capacity(&self, other: &CacheBlockSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "cache block sets have different capacities ({} vs {})",
            self.capacity, other.capacity
        );
    }
}

impl BitOr for &CacheBlockSet {
    type Output = CacheBlockSet;

    fn bitor(self, rhs: &CacheBlockSet) -> CacheBlockSet {
        self.union(rhs)
    }
}

impl BitAnd for &CacheBlockSet {
    type Output = CacheBlockSet;

    fn bitand(self, rhs: &CacheBlockSet) -> CacheBlockSet {
        self.intersection(rhs)
    }
}

impl Sub for &CacheBlockSet {
    type Output = CacheBlockSet;

    fn sub(self, rhs: &CacheBlockSet) -> CacheBlockSet {
        self.difference(rhs)
    }
}

impl fmt::Debug for CacheBlockSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheBlockSet(cap={}, ", self.capacity)?;
        f.debug_set().entries(self.iter()).finish()?;
        write!(f, ")")
    }
}

impl fmt::Display for CacheBlockSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for CacheBlockSet {
    /// Extends the set, **silently ignoring** out-of-range blocks is not an
    /// option we take: out-of-range blocks panic. Use [`CacheBlockSet::insert`]
    /// for fallible insertion.
    ///
    /// # Panics
    ///
    /// Panics if any block is `>= capacity`.
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for block in iter {
            self.insert(block).expect("block out of range in extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(blocks: impl IntoIterator<Item = usize>) -> CacheBlockSet {
        CacheBlockSet::from_blocks(256, blocks).unwrap()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = CacheBlockSet::new(100);
        assert!(s.insert(5).unwrap());
        assert!(!s.insert(5).unwrap());
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = CacheBlockSet::new(8);
        assert!(matches!(
            s.insert(8),
            Err(ModelError::BlockOutOfRange {
                block: 8,
                capacity: 8
            })
        ));
        assert!(!s.contains(10_000));
    }

    #[test]
    fn fig1_overlap() {
        // τ1's PCBs and τ2's ECBs overlap on {5, 6} — the source of CPRO in
        // the paper's running example.
        let pcb1 = set([5, 6, 7, 8, 10]);
        let ecb2 = set(1..=6);
        assert_eq!(pcb1.intersection_len(&ecb2), 2);
        let inter = pcb1.intersection(&ecb2);
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    fn algebra_against_reference() {
        let a = set([1, 3, 5, 64, 65, 200]);
        let b = set([3, 4, 64, 199, 200]);
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 3, 4, 5, 64, 65, 199, 200]
        );
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            vec![3, 64, 200]
        );
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 5, 65]);
        assert_eq!((&a | &b).len(), 8);
        assert_eq!((&a & &b).len(), 3);
        assert_eq!((&a - &b).len(), 3);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = set([1, 2]);
        let b = set([1, 2, 3]);
        let c = set([7, 8]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert_eq!(a.intersection_len(&c), 0);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(CacheBlockSet::new(256).is_subset(&a));
    }

    #[test]
    fn contiguous_wraps() {
        let s = CacheBlockSet::contiguous(8, 6, 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 6, 7]);
        let full = CacheBlockSet::contiguous(8, 3, 100);
        assert_eq!(full.len(), 8);
        let empty = CacheBlockSet::contiguous(8, 2, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn rotation_wraps_and_preserves_structure() {
        let s = CacheBlockSet::contiguous(8, 6, 3);
        assert_eq!(s.rotated(2).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s.rotated(0), s);
        assert_eq!(s.rotated(8), s, "full-capacity rotation is the identity");
        assert_eq!(s.rotated(10), s.rotated(2), "shift wraps modulo capacity");
        // Rotating a subset pair by the same shift preserves the relation.
        let ecb = set([1, 2, 3, 200]);
        let pcb = set([2, 200]);
        assert!(pcb.rotated(77).is_subset(&ecb.rotated(77)));
        assert_eq!(
            pcb.rotated(77).intersection_len(&ecb.rotated(77)),
            pcb.intersection_len(&ecb)
        );
        assert!(CacheBlockSet::new(0).rotated(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn mixed_capacity_panics() {
        let a = CacheBlockSet::new(8);
        let b = CacheBlockSet::new(16);
        let _ = a.union(&b);
    }

    #[test]
    fn debug_and_display_nonempty() {
        let s = set([1, 2]);
        assert!(format!("{s:?}").contains("cap=256"));
        assert_eq!(s.to_string(), "{1, 2}");
    }

    #[test]
    fn serde_round_trip() {
        let s = set([0, 63, 64, 255]);
        let json = serde_json::to_string(&s).unwrap();
        let back: CacheBlockSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = set([1, 200]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 256);
        assert!(s.insert(255).unwrap());
    }

    /// Bit-by-bit rotation: the definition [`CacheBlockSet::rotated`]
    /// computes word by word.
    fn rotated_reference(s: &CacheBlockSet, shift: usize) -> CacheBlockSet {
        let mut out = CacheBlockSet::new(s.capacity());
        for block in s.iter() {
            out.set_bit((block + shift) % s.capacity());
        }
        out
    }

    #[test]
    fn rotated_matches_reference_at_every_capacity_up_to_1100() {
        // Every capacity, including all that are not multiples of 64, at
        // shifts on and around the word boundaries plus the wrap points.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for capacity in 1..=1100usize {
            let mut s = CacheBlockSet::new(capacity);
            for _ in 0..capacity.div_ceil(3) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                s.set_bit(state as usize % capacity);
            }
            for shift in [
                0,
                1,
                31,
                63,
                64,
                65,
                127,
                128,
                129,
                capacity - 1,
                capacity,
                capacity + 7,
            ] {
                assert_eq!(
                    s.rotated(shift),
                    rotated_reference(&s, shift),
                    "capacity {capacity} shift {shift}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn contiguous_matches_bit_by_bit_reference(
            capacity in 1usize..300,
            start in 0usize..600,
            len in 0usize..600,
        ) {
            let fast = CacheBlockSet::contiguous(capacity, start, len);
            let mut reference = CacheBlockSet::new(capacity);
            for offset in 0..len.min(capacity) {
                reference.set_bit((start + offset) % capacity);
            }
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn rotated_matches_bit_by_bit_reference(
            capacity in 1usize..1101,
            seeds in proptest::collection::vec(0usize..1100, 0..96),
            shift in 0usize..2300,
        ) {
            let blocks: Vec<usize> = seeds.iter().map(|b| b % capacity).collect();
            let s = CacheBlockSet::from_blocks(capacity, blocks).unwrap();
            prop_assert_eq!(s.rotated(shift), rotated_reference(&s, shift));
        }

        #[test]
        fn rotated_full_and_contiguous_sets_match_reference(
            capacity in 1usize..1101,
            start in 0usize..1100,
            len in 0usize..1100,
            shift in 0usize..2300,
        ) {
            // Dense runs cross every word boundary the sparse case misses.
            let s = CacheBlockSet::contiguous(capacity, start, len);
            prop_assert_eq!(s.rotated(shift), rotated_reference(&s, shift));
        }

        #[test]
        fn union_len_inclusion_exclusion(
            a in proptest::collection::hash_set(0usize..256, 0..64),
            b in proptest::collection::hash_set(0usize..256, 0..64),
        ) {
            let sa = set(a.iter().copied());
            let sb = set(b.iter().copied());
            prop_assert_eq!(
                sa.union(&sb).len() + sa.intersection_len(&sb),
                sa.len() + sb.len()
            );
        }

        #[test]
        fn intersection_is_subset_of_both(
            a in proptest::collection::hash_set(0usize..256, 0..64),
            b in proptest::collection::hash_set(0usize..256, 0..64),
        ) {
            let sa = set(a.iter().copied());
            let sb = set(b.iter().copied());
            let i = sa.intersection(&sb);
            prop_assert!(i.is_subset(&sa));
            prop_assert!(i.is_subset(&sb));
            prop_assert_eq!(i.len(), sa.intersection_len(&sb));
        }

        #[test]
        fn iter_sorted_and_consistent(
            a in proptest::collection::hash_set(0usize..256, 0..64),
        ) {
            let sa = set(a.iter().copied());
            let items: Vec<usize> = sa.iter().collect();
            let mut sorted = items.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&items, &sorted);
            prop_assert_eq!(items.len(), sa.len());
            for x in items {
                prop_assert!(sa.contains(x));
            }
        }
    }
}
