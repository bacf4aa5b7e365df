//! Abstract *must* cache analysis with LRU age bounds (Ferdinand-style).
//!
//! The must cache maps each resident memory block to an **upper bound on
//! its LRU age** (0 = most recently used). A block with a bound below the
//! associativity is guaranteed resident on every path — an access to it is
//! an *always hit*. Joins at control-flow merges intersect the residents
//! and take the worse (larger) age bound.

use std::collections::BTreeMap;

use cpa_model::CacheGeometry;

/// Abstract must-cache state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MustCache {
    geometry: CacheGeometry,
    /// Per cache set: block → upper bound on LRU age (`< associativity`).
    sets: Vec<BTreeMap<u64, u8>>,
}

impl MustCache {
    /// The empty (cold) must cache: nothing is guaranteed resident.
    #[must_use]
    pub fn cold(geometry: CacheGeometry) -> Self {
        MustCache {
            sets: vec![BTreeMap::new(); geometry.sets()],
            geometry,
        }
    }

    /// A must cache pre-seeded with `blocks`, each given the weakest
    /// still-resident age bound that the *number of blocks sharing its
    /// set* allows. Used to model "all PCBs already cached" for the
    /// `MD^r` computation.
    #[must_use]
    pub fn seeded<I: IntoIterator<Item = u64>>(geometry: CacheGeometry, blocks: I) -> Self {
        let mut state = MustCache::cold(geometry);
        let mut per_set: Vec<Vec<u64>> = vec![Vec::new(); geometry.sets()];
        for block in blocks {
            let set = (block as usize) % geometry.sets();
            if !per_set[set].contains(&block) {
                per_set[set].push(block);
            }
        }
        for (set, blocks) in per_set.into_iter().enumerate() {
            let count = blocks.len();
            if count == 0 || count > geometry.associativity() {
                // More seeds than ways can hold: nothing is guaranteed.
                continue;
            }
            for block in blocks {
                state.sets[set].insert(block, (count - 1) as u8);
            }
        }
        state
    }

    /// `true` if `block` is guaranteed resident.
    #[must_use]
    pub fn contains_block(&self, block: u64) -> bool {
        let set = (block as usize) % self.geometry.sets();
        self.sets[set].contains_key(&block)
    }

    /// Number of blocks guaranteed resident across all sets.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.sets.iter().map(BTreeMap::len).sum()
    }

    /// Iterates over all guaranteed-resident blocks.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets.iter().flat_map(|s| s.keys().copied())
    }

    /// Applies an access to `block`: returns `true` if the access is an
    /// **always hit** (the block was guaranteed resident), updating the
    /// age bounds per the LRU must-update rule.
    pub fn access_block(&mut self, block: u64) -> bool {
        let assoc = self.geometry.associativity() as u8;
        let set = (block as usize) % self.geometry.sets();
        let entries = &mut self.sets[set];
        let old_age = entries.get(&block).copied();
        let hit = old_age.is_some();
        // Blocks younger than the accessed block's (old) age get older;
        // if the block was not guaranteed resident its age is unbounded,
        // so every resident ages.
        let threshold = old_age.unwrap_or(assoc);
        entries.retain(|&b, age| {
            if b == block {
                return true;
            }
            if *age < threshold {
                *age += 1;
            }
            *age < assoc
        });
        entries.insert(block, 0);
        hit
    }

    /// Joins two states at a control-flow merge: intersection of residents
    /// with the worse age bound.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    #[must_use]
    pub fn join(&self, other: &MustCache) -> MustCache {
        assert_eq!(
            self.geometry, other.geometry,
            "cannot join must caches of different geometries"
        );
        let sets = self
            .sets
            .iter()
            .zip(&other.sets)
            .map(|(a, b)| {
                a.iter()
                    .filter_map(|(&block, &age_a)| {
                        b.get(&block).map(|&age_b| (block, age_a.max(age_b)))
                    })
                    .collect()
            })
            .collect();
        MustCache {
            geometry: self.geometry,
            sets,
        }
    }

    /// Removes every block mapping to one of the given cache sets (the
    /// effect of a preemption by tasks whose ECBs cover those sets).
    pub fn evict_sets<I: IntoIterator<Item = usize>>(&mut self, sets: I) {
        for s in sets {
            if s < self.sets.len() {
                self.sets[s].clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::{AccessOutcome, CacheSim};
    use proptest::prelude::*;

    fn dm(sets: usize) -> CacheGeometry {
        CacheGeometry::direct_mapped(sets, 16)
    }

    #[test]
    fn cold_then_hit() {
        let mut m = MustCache::cold(dm(4));
        assert!(!m.access_block(0), "first access is not a guaranteed hit");
        assert!(m.access_block(0), "second access is");
        assert!(m.contains_block(0));
        assert_eq!(m.resident_count(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut m = MustCache::cold(dm(4));
        m.access_block(0);
        m.access_block(4); // same set
        assert!(!m.contains_block(0));
        assert!(m.contains_block(4));
    }

    #[test]
    fn lru_aging_two_way() {
        let g = CacheGeometry::set_associative(1, 16, 2);
        let mut m = MustCache::cold(g);
        m.access_block(0);
        m.access_block(1);
        assert!(m.contains_block(0) && m.contains_block(1));
        // A third block evicts the oldest (block 0).
        m.access_block(2);
        assert!(!m.contains_block(0));
        assert!(m.contains_block(1) && m.contains_block(2));
        // Re-touching 1 keeps it young: loading 3 evicts 2.
        assert!(m.access_block(1));
        m.access_block(3);
        assert!(m.contains_block(1) && m.contains_block(3) && !m.contains_block(2));
    }

    #[test]
    fn join_intersects_with_worse_age() {
        let g = CacheGeometry::set_associative(1, 16, 2);
        let mut a = MustCache::cold(g);
        a.access_block(0);
        a.access_block(1); // ages: 1→0, 0→1
        let mut b = MustCache::cold(g);
        b.access_block(1);
        b.access_block(0); // ages: 0→0, 1→1
        let j = a.join(&b);
        assert!(j.contains_block(0) && j.contains_block(1));
        // Both have the worst age 1: one more access to a new block must
        // evict both conservatively.
        let mut j2 = j.clone();
        j2.access_block(2);
        assert!(!j2.contains_block(0) && !j2.contains_block(1));

        // Intersection drops one-sided residents.
        let mut c = MustCache::cold(g);
        c.access_block(7);
        assert_eq!(a.join(&c).resident_count(), 0);
    }

    #[test]
    fn seeded_respects_capacity() {
        let g = CacheGeometry::direct_mapped(4, 16);
        let m = MustCache::seeded(g, [0u64, 1, 2]);
        assert_eq!(m.resident_count(), 3);
        assert!(m.contains_block(0));
        // Two blocks in the same direct-mapped set cannot both be seeded.
        let m = MustCache::seeded(g, [0u64, 4]);
        assert_eq!(m.resident_count(), 0);
        // Duplicates collapse.
        let m = MustCache::seeded(g, [3u64, 3]);
        assert_eq!(m.resident_count(), 1);
    }

    #[test]
    fn evict_sets_clears() {
        let mut m = MustCache::cold(dm(4));
        m.access_block(0);
        m.access_block(1);
        m.evict_sets([0usize, 17]);
        assert!(!m.contains_block(0));
        assert!(m.contains_block(1));
    }

    proptest! {
        /// Soundness against the concrete cache: whatever the must cache
        /// classifies as a guaranteed hit must hit in a concrete cache that
        /// executed the same access sequence from cold.
        #[test]
        fn must_hits_are_concrete_hits(
            trace in proptest::collection::vec(0u64..32, 1..200),
            assoc in 1usize..4,
        ) {
            let g = CacheGeometry::set_associative(4, 16, assoc);
            let mut concrete = CacheSim::new(g);
            let mut must = MustCache::cold(g);
            for &block in &trace {
                let guaranteed = must.contains_block(block);
                let outcome = concrete.access_block(block);
                if guaranteed {
                    prop_assert_eq!(outcome, AccessOutcome::Hit);
                }
                must.access_block(block);
            }
        }

        /// The join is a sound lower bound: joining with anything can only
        /// remove guarantees, never add them.
        #[test]
        fn join_only_weakens(
            a in proptest::collection::vec(0u64..32, 0..50),
            b in proptest::collection::vec(0u64..32, 0..50),
        ) {
            let g = CacheGeometry::set_associative(4, 16, 2);
            let mut ma = MustCache::cold(g);
            for &x in &a { ma.access_block(x); }
            let mut mb = MustCache::cold(g);
            for &x in &b { mb.access_block(x); }
            let j = ma.join(&mb);
            for block in j.resident_blocks() {
                prop_assert!(ma.contains_block(block));
                prop_assert!(mb.contains_block(block));
            }
            // Join is commutative.
            prop_assert_eq!(j, mb.join(&ma));
        }
    }
}
