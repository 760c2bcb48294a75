//! Per-processor set-associative tag array.

use crate::CacheConfig;

/// A per-processor cache tag array with LRU replacement.
///
/// Tracks only *which* line addresses are resident (data lives in the
/// page frames of `mgs-vm`). The array is private to its processor's
/// thread; coherence validity is determined by the SSMP
/// [`Directory`](crate::Directory), so remote invalidations never need
/// to touch this structure — a resident-but-invalidated tag simply
/// fails the directory check on its next use.
///
/// # Layout
///
/// One zeroed `Vec<u64>` of `sets × ways` tags, set-major. A tag is
/// `line + 1`, so 0 means "empty" and a fresh array is a single zeroed
/// allocation the host only backs with memory where sets are touched.
/// Each set is kept in most-recently-used-first order with its empty
/// ways last: a use moves the tag to way 0, so the last occupied way is
/// always the least recently used one and exact LRU needs no
/// timestamps. A hit on way 0 — the common case — writes nothing.
///
/// # Example
///
/// ```
/// use mgs_cache::{CacheConfig, ProcCache};
///
/// let mut cache = ProcCache::new(CacheConfig::tiny());
/// assert!(!cache.contains(0x40));
/// assert_eq!(cache.insert(0x40), None);
/// assert!(cache.contains(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct ProcCache {
    cfg: CacheConfig,
    /// `sets × ways` tags, set-major; see the type docs for the order
    /// kept within a set.
    tags: Vec<u64>,
    /// `sets - 1` (the set count is a power of two).
    set_mask: usize,
}

/// The tag stored for `line`. Line addresses are byte addresses divided
/// by the line size, so `line + 1` cannot overflow.
#[inline]
fn tag_of(line: u64) -> u64 {
    line + 1
}

impl ProcCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> ProcCache {
        let sets = cfg.sets();
        ProcCache {
            cfg,
            tags: vec![0; sets * cfg.ways],
            set_mask: sets - 1,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The ways of the set `line` maps to, most recently used first.
    #[inline]
    fn set_of(&mut self, line: u64) -> &mut [u64] {
        let ways = self.cfg.ways;
        let first = ((line as usize) & self.set_mask) * ways;
        &mut self.tags[first..first + ways]
    }

    /// Moves `line`'s tag to the front of `set` if it is resident.
    #[inline]
    fn touch(set: &mut [u64], line: u64) -> bool {
        let tag = tag_of(line);
        match set.iter().position(|&t| t == tag) {
            Some(0) => true,
            Some(way) => {
                set[..=way].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Returns `true` if `line` is resident, updating its LRU position.
    #[inline]
    pub fn contains(&mut self, line: u64) -> bool {
        Self::touch(self.set_of(line), line)
    }

    /// Inserts `line`, returning the evicted line address if a resident
    /// line had to be displaced. Inserting a line that is already
    /// resident refreshes it and evicts nothing.
    pub fn insert(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        if Self::touch(set, line) {
            return None;
        }
        // The last way holds an empty slot if the set has one, and the
        // LRU line otherwise; either way it is the one to reuse.
        set.rotate_right(1);
        let displaced = std::mem::replace(&mut set[0], tag_of(line));
        displaced.checked_sub(1)
    }

    /// Removes `line` if resident (used when the owner itself flushes,
    /// e.g. during page cleaning of its own pages).
    pub fn evict(&mut self, line: u64) -> bool {
        let tag = tag_of(line);
        let set = self.set_of(line);
        let Some(way) = set.iter().position(|&t| t == tag) else {
            return false;
        };
        // Close the gap so the empties stay last.
        set[way] = 0;
        set[way..].rotate_left(1);
        true
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        self.tags.fill(0);
    }

    /// Number of resident lines (O(cache size); for tests/stats).
    pub fn resident(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProcCache {
        ProcCache::new(CacheConfig::tiny()) // 8 sets × 2 ways
    }

    #[test]
    fn insert_then_contains() {
        let mut c = tiny();
        c.insert(5);
        assert!(c.contains(5));
        assert!(!c.contains(6));
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = tiny();
        c.insert(5);
        assert_eq!(c.insert(5), None);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn conflict_evicts_lru() {
        let mut c = tiny();
        // Lines 0, 8, 16 all map to set 0 (8 sets); 2 ways.
        c.insert(0);
        c.insert(8);
        c.contains(0); // refresh 0 so 8 is LRU
        let evicted = c.insert(16);
        assert_eq!(evicted, Some(8));
        assert!(c.contains(0));
        assert!(c.contains(16));
    }

    #[test]
    fn evict_removes() {
        let mut c = tiny();
        c.insert(3);
        assert!(c.evict(3));
        assert!(!c.contains(3));
        assert!(!c.evict(3));
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        for line in 0..10 {
            c.insert(line);
        }
        c.clear();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn capacity_bounded() {
        let mut c = tiny();
        for line in 0..1000 {
            c.insert(line);
        }
        assert!(c.resident() <= c.config().total_lines());
    }
}
