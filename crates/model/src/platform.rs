//! The multicore platform: cores, private caches, shared memory bus.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ModelError, Time};

/// Geometry of a private instruction cache.
///
/// The paper's platform uses direct-mapped LRU instruction caches; the model
/// also carries an associativity so the cache-analysis substrate can handle
/// set-associative LRU caches.
///
/// ```
/// use cpa_model::CacheGeometry;
/// let g = CacheGeometry::direct_mapped(256, 32);
/// assert_eq!(g.sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    sets: usize,
    block_size: usize,
    associativity: usize,
}

impl CacheGeometry {
    /// A direct-mapped cache with `sets` cache sets of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `block_size` is zero.
    #[must_use]
    pub fn direct_mapped(sets: usize, block_size: usize) -> Self {
        Self::set_associative(sets, block_size, 1)
    }

    /// A set-associative LRU cache.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    #[must_use]
    pub fn set_associative(sets: usize, block_size: usize, associativity: usize) -> Self {
        assert!(sets > 0, "cache must have at least one set");
        assert!(block_size > 0, "cache blocks must be at least one byte");
        assert!(associativity > 0, "cache must have at least one way");
        CacheGeometry {
            sets,
            block_size,
            associativity,
        }
    }

    /// Number of cache sets.
    #[must_use]
    pub const fn sets(&self) -> usize {
        self.sets
    }

    /// Block (line) size in bytes.
    #[must_use]
    pub const fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of ways per set (1 = direct-mapped).
    #[must_use]
    pub const fn associativity(&self) -> usize {
        self.associativity
    }

    /// Maps a byte address to the cache set its block belongs to.
    ///
    /// ```
    /// use cpa_model::CacheGeometry;
    /// let g = CacheGeometry::direct_mapped(256, 32);
    /// assert_eq!(g.set_of_address(0), 0);
    /// assert_eq!(g.set_of_address(32), 1);
    /// assert_eq!(g.set_of_address(256 * 32), 0); // wraps
    /// ```
    #[must_use]
    pub const fn set_of_address(&self, address: u64) -> usize {
        (address as usize / self.block_size) % self.sets
    }

    /// Maps a byte address to its memory-block number (address / block size),
    /// the tag-granularity identity of a cached block.
    #[must_use]
    pub const fn block_of_address(&self, address: u64) -> u64 {
        address / self.block_size as u64
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sets × {} way(s) × {} B",
            self.sets, self.associativity, self.block_size
        )
    }
}

/// A multicore platform: `m` identical timing-compositional cores, each with
/// a private instruction cache, connected to main memory by a shared bus
/// whose worst-case per-access latency is `d_mem` (§II).
///
/// # Example
///
/// ```
/// use cpa_model::{CacheGeometry, Platform, Time};
///
/// # fn main() -> Result<(), cpa_model::ModelError> {
/// // The paper's default evaluation platform: 4 cores, 256-set caches with
/// // 32-byte lines, d_mem = 5 µs ≙ 5000 cycles at 1 GHz.
/// let platform = Platform::builder()
///     .cores(4)
///     .cache(CacheGeometry::direct_mapped(256, 32))
///     .memory_latency(Time::from_cycles(5_000))
///     .build()?;
/// assert_eq!(platform.cores(), 4);
/// assert_eq!(platform.memory_latency().cycles(), 5_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Platform {
    cores: usize,
    cache: CacheGeometry,
    d_mem: Time,
}

impl Platform {
    /// Starts building a platform.
    #[must_use]
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::default()
    }

    /// Number of cores `m`.
    #[must_use]
    pub const fn cores(&self) -> usize {
        self.cores
    }

    /// Geometry of each core's private instruction cache.
    #[must_use]
    pub const fn cache(&self) -> CacheGeometry {
        self.cache
    }

    /// `d_mem`: worst-case time for one access to main memory.
    #[must_use]
    pub const fn memory_latency(&self) -> Time {
        self.d_mem
    }

    /// Returns a copy of this platform with a different core count
    /// (the Fig. 3a sweep).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlatform`] if `cores` is zero.
    pub fn with_cores(&self, cores: usize) -> Result<Platform, ModelError> {
        PlatformBuilder::from(self.clone()).cores(cores).build()
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores, L1I {}, d_mem = {}",
            self.cores, self.cache, self.d_mem
        )
    }
}

/// Builder for [`Platform`].
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    cores: usize,
    cache: CacheGeometry,
    d_mem: Time,
}

impl Default for PlatformBuilder {
    /// Defaults to the paper's evaluation platform: 4 cores, direct-mapped
    /// 256-set caches with 32-byte blocks, `d_mem` = 5000 cycles (5 µs at
    /// 1 GHz).
    fn default() -> Self {
        PlatformBuilder {
            cores: 4,
            cache: CacheGeometry::direct_mapped(256, 32),
            d_mem: Time::from_cycles(5_000),
        }
    }
}

impl From<Platform> for PlatformBuilder {
    fn from(p: Platform) -> Self {
        PlatformBuilder {
            cores: p.cores,
            cache: p.cache,
            d_mem: p.d_mem,
        }
    }
}

impl PlatformBuilder {
    /// Sets the number of cores.
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the private cache geometry.
    #[must_use]
    pub fn cache(mut self, cache: CacheGeometry) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the worst-case main-memory access latency `d_mem`.
    #[must_use]
    pub fn memory_latency(mut self, d_mem: Time) -> Self {
        self.d_mem = d_mem;
        self
    }

    /// Builds the platform.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlatform`] if the platform has zero
    /// cores or a zero memory latency.
    pub fn build(self) -> Result<Platform, ModelError> {
        if self.cores == 0 {
            return Err(ModelError::InvalidPlatform {
                reason: "platform must have at least one core".into(),
            });
        }
        if self.d_mem.is_zero() {
            return Err(ModelError::InvalidPlatform {
                reason: "memory latency d_mem must be positive".into(),
            });
        }
        Ok(Platform {
            cores: self.cores,
            cache: self.cache,
            d_mem: self.d_mem,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let g = CacheGeometry::direct_mapped(256, 32);
        assert_eq!(g.sets(), 256);
        assert_eq!(g.block_size(), 32);
        assert_eq!(g.associativity(), 1);
        let a = CacheGeometry::set_associative(64, 32, 4);
        assert_eq!(a.to_string(), "64 sets × 4 way(s) × 32 B");
    }

    #[test]
    fn address_mapping() {
        let g = CacheGeometry::direct_mapped(4, 16);
        assert_eq!(g.set_of_address(0), 0);
        assert_eq!(g.set_of_address(15), 0);
        assert_eq!(g.set_of_address(16), 1);
        assert_eq!(g.set_of_address(64), 0);
        assert_eq!(g.block_of_address(0), 0);
        assert_eq!(g.block_of_address(47), 2);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        let _ = CacheGeometry::direct_mapped(0, 32);
    }

    #[test]
    fn default_platform_matches_paper() {
        let p = Platform::builder().build().unwrap();
        assert_eq!(p.cores(), 4);
        assert_eq!(p.cache().sets(), 256);
        assert_eq!(p.cache().block_size(), 32);
        assert_eq!(p.memory_latency(), Time::from_cycles(5_000));
        assert!(p.to_string().contains("4 cores"));
    }

    #[test]
    fn builder_validation() {
        assert!(Platform::builder().cores(0).build().is_err());
        assert!(Platform::builder()
            .memory_latency(Time::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn with_variants() {
        let p = Platform::builder().build().unwrap();
        assert_eq!(p.with_cores(8).unwrap().cores(), 8);
        assert!(p.with_cores(0).is_err());
        // The original is untouched.
        assert_eq!(p.cores(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let p = Platform::builder().cores(6).build().unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: Platform = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
