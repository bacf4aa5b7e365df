//! Content-addressed result cache.
//!
//! Keys are 64-bit fingerprints of the *canonical* request content (task
//! set, bus, persistence mode, platform shape, seed, search knobs — see
//! `service::request_key`); values are the exact serialized response
//! documents. Because the stored bytes are replayed verbatim, a warm run
//! is byte-identical to the cold run that populated the cache — which is
//! what makes cache hits indistinguishable in the output and observable
//! only through the `optimize.cache_{hits,misses}` counters and the batch
//! stats.
//!
//! The cache is two-level: a process-local map, optionally backed by a
//! directory with one `<key:016x>.json` file per entry so separate
//! invocations share results.
//!
//! Below the response cache, each search keeps a private memo of its own
//! candidate solves (`crate::search`); nothing below the response cache
//! is shared between requests.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// A content-addressed store of serialized response documents.
#[derive(Debug, Default)]
pub struct ResultCache {
    memory: HashMap<u64, String>,
    dir: Option<PathBuf>,
}

impl ResultCache {
    /// A cache that lives only as long as this process.
    #[must_use]
    pub fn in_memory() -> ResultCache {
        ResultCache::default()
    }

    /// A cache backed by `dir` (created if missing); entries persist
    /// across invocations.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn persistent(dir: impl AsRef<Path>) -> io::Result<ResultCache> {
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            memory: HashMap::new(),
            dir: Some(dir.as_ref().to_path_buf()),
        })
    }

    fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// Looks up `key`, bumping `optimize.cache_hits` or
    /// `optimize.cache_misses`. Disk hits are promoted into memory.
    pub fn get(&mut self, key: u64) -> Option<String> {
        if let Some(doc) = self.memory.get(&key) {
            cpa_obs::counter("optimize.cache_hits").incr();
            return Some(doc.clone());
        }
        if let Some(path) = self.path_for(key) {
            if let Ok(doc) = std::fs::read_to_string(&path) {
                cpa_obs::counter("optimize.cache_hits").incr();
                self.memory.insert(key, doc.clone());
                return Some(doc);
            }
        }
        cpa_obs::counter("optimize.cache_misses").incr();
        None
    }

    /// Stores `doc` under `key`, writing through to disk when persistent.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the write-through fails; the in-memory
    /// entry is only inserted after a successful write.
    pub fn put(&mut self, key: u64, doc: &str) -> io::Result<()> {
        if let Some(path) = self.path_for(key) {
            std::fs::write(&path, doc)?;
        }
        self.memory.insert(key, doc.to_string());
        Ok(())
    }

    /// Number of entries currently resident in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// `true` when no entries are resident in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_round_trip() {
        let mut cache = ResultCache::in_memory();
        assert!(cache.get(7).is_none());
        cache.put(7, "{\"x\":1}").unwrap();
        assert_eq!(cache.get(7).as_deref(), Some("{\"x\":1}"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn persistent_entries_survive_a_new_handle() {
        let dir = std::env::temp_dir().join(format!("cpa-optimize-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = ResultCache::persistent(&dir).unwrap();
            cache.put(0xdead_beef, "{\"y\":2}").unwrap();
        }
        let mut fresh = ResultCache::persistent(&dir).unwrap();
        assert_eq!(fresh.get(0xdead_beef).as_deref(), Some("{\"y\":2}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
