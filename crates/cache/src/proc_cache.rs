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
/// One zeroed `Vec<u64>` of `sets × ways` tag words, set-major. A word's
/// low 40 bits are `line + 1`, so 0 means "empty" and a fresh array is a
/// single zeroed allocation the host only backs with memory where sets
/// are touched; its high 24 bits remember the [`Directory`] hint the
/// line's last access used (0: none), so that when the line is evicted
/// its directory block is reached without a lookup: the block of the
/// line's cell — its frame's, which still holds the line unless the
/// frame has died, or, for a bare line, its chunk's in the cache
/// system's line map, which holds it for the system's life (see the
/// directory's docs).
/// A bare line's tag hit takes its hint from the memo too. The memo
/// costs no memory of its own.
/// Each set is kept in most-recently-used-first order with its empty
/// ways last: a use moves the tag to way 0, so the last occupied way is
/// always the least recently used one and exact LRU needs no
/// timestamps. A hit on way 0 — the common case — writes nothing.
///
/// [`Directory`]: crate::Directory
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
    /// `sets × ways` tag words, set-major; see the type docs for the
    /// order kept within a set.
    tags: Vec<u64>,
    /// `sets - 1` (the set count is a power of two).
    set_mask: usize,
}

/// Bits of a tag word that hold `line + 1`; the rest hold the memo.
const LINE_BITS: u32 = 40;
const LINE_MASK: u64 = (1 << LINE_BITS) - 1;
/// The largest hint the memo can hold.
const MEMO_MAX: u32 = (1 << (u64::BITS - LINE_BITS)) - 1;

/// The tag word for `line` remembering `hint`. A hint too large for
/// the memo is remembered as "none".
#[inline]
fn word_of(line: u64, hint: u32) -> u64 {
    assert!(line < LINE_MASK, "line address {line:#x} exceeds 40 bits");
    let memo = if hint <= MEMO_MAX { u64::from(hint) } else { 0 };
    memo << LINE_BITS | (line + 1)
}

/// Does `word` hold `line`'s tag? (A line past 40 bits is never
/// resident.)
#[inline]
fn holds(word: u64, line: u64) -> bool {
    line < LINE_MASK && word & LINE_MASK == line + 1
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

    /// Where the set `line` maps to starts in `tags`.
    #[inline]
    fn first_way(&self, line: u64) -> usize {
        ((line as usize) & self.set_mask) * self.cfg.ways
    }

    /// The ways of the set `line` maps to, most recently used first.
    #[inline]
    fn set_of(&mut self, line: u64) -> &mut [u64] {
        let first = self.first_way(line);
        &mut self.tags[first..first + self.cfg.ways]
    }

    /// If `line` is resident, its way and the directory hint remembered
    /// beside it; moves nothing.
    #[inline]
    pub(crate) fn peek(&self, line: u64) -> Option<(usize, u32)> {
        let first = self.first_way(line);
        let set = &self.tags[first..first + self.cfg.ways];
        let way = set.iter().position(|&w| holds(w, line))?;
        Some((way, (set[way] >> LINE_BITS) as u32))
    }

    /// Marks the resident line at `way` of `line`'s set (as
    /// [`peek`](Self::peek) found it) most recently used.
    #[inline]
    pub(crate) fn promote(&mut self, line: u64, way: usize) {
        if way != 0 {
            self.set_of(line)[..=way].rotate_right(1);
        }
    }

    /// If `line` is resident, moves its tag to the front of its set and
    /// returns the directory hint remembered beside it.
    #[inline]
    fn lookup(&mut self, line: u64) -> Option<u32> {
        let (way, memo) = self.peek(line)?;
        self.promote(line, way);
        Some(memo)
    }

    /// Installs `line`, which must not be resident, with no hint
    /// remembered; returns the displaced line and the hint remembered
    /// beside it, if a resident line had to go.
    #[inline]
    pub(crate) fn fill(&mut self, line: u64) -> Option<(u64, u32)> {
        let word = word_of(line, 0);
        let set = self.set_of(line);
        debug_assert!(!set.iter().any(|&w| holds(w, line)));
        // The last way holds an empty slot if the set has one, and the
        // LRU line otherwise; either way it is the one to reuse.
        set.rotate_right(1);
        let displaced = std::mem::replace(&mut set[0], word);
        let victim = (displaced & LINE_MASK).checked_sub(1)?;
        Some((victim, (displaced >> LINE_BITS) as u32))
    }

    /// Remembers `hint` beside `line`, the most recently used line of
    /// its set.
    #[inline]
    pub(crate) fn remember(&mut self, line: u64, hint: u32) {
        let word = word_of(line, hint);
        let set = self.set_of(line);
        debug_assert!(holds(set[0], line));
        set[0] = word;
    }

    /// Returns `true` if `line` is resident, updating its LRU position.
    #[inline]
    pub fn contains(&mut self, line: u64) -> bool {
        self.lookup(line).is_some()
    }

    /// Inserts `line`, returning the evicted line address if a resident
    /// line had to be displaced. Inserting a line that is already
    /// resident refreshes it and evicts nothing.
    pub fn insert(&mut self, line: u64) -> Option<u64> {
        if self.contains(line) {
            return None;
        }
        self.fill(line).map(|(victim, _)| victim)
    }

    /// Removes `line` if resident (used when the owner itself flushes,
    /// e.g. during page cleaning of its own pages).
    pub fn evict(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let Some(way) = set.iter().position(|&w| holds(w, line)) else {
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
