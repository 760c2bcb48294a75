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
/// `sets × ways` tag words, set-major, cut into leaves of 512 words
/// (one 4 KB host page: 256 Alewife sets). A leaf is built zeroed on
/// the heap at the first fill of one of its sets, so a processor that
/// never misses holds only its table of leaf pointers. A query on a set
/// whose leaf does not exist yet is a miss and allocates nothing, as an
/// empty leaf would answer. (A flat zeroed array would not do: an
/// allocator clears a zeroed block it recycles from freed memory, so
/// the whole array would be resident from the start.)
/// A word's low 40 bits are `line + 1`, so 0 means "empty"; its high 24
/// bits remember the [`Directory`] hint the line's last access used (0:
/// none), so that when the line is evicted its directory block is
/// reached without a lookup: the block of the line's cell — its
/// frame's, which still holds the line unless the frame has died, or,
/// for a bare line, its chunk's in the cache system's line map, which
/// holds it for the system's life (see the directory's docs).
/// A bare line's tag hit takes its hint from the memo too. The memo
/// costs no memory of its own.
/// Each set is kept in most-recently-used-first order with its empty
/// ways last: a use moves the tag to way 0, so the last occupied way is
/// always the least recently used one and exact LRU needs no
/// timestamps. A hit on way 0 — the common case — writes nothing.
///
/// The array also counts its processor's accesses, which
/// [`SsmpCacheSystem::absorb`](crate::SsmpCacheSystem::absorb) moves to
/// the SSMP's [`CacheStats`](crate::CacheStats).
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
    /// Leaf `i` holds sets `i << leaf_shift .. (i + 1) << leaf_shift`,
    /// `ways` words each; `None` until one of them is filled. See the
    /// type docs for the order kept within a set.
    leaves: Box<[Option<Box<[u64]>>]>,
    /// `sets - 1` (the set count is a power of two).
    set_mask: usize,
    /// log2 of the sets per leaf.
    leaf_shift: u32,
    /// Accesses not yet absorbed, loads then stores, by
    /// [`MissClass::index`](crate::MissClass::index).
    pub(crate) counts: [[u64; 6]; 2],
}

/// Tag words per leaf at most: one 4 KB host page. Smaller leaves cost
/// a processor that touches a few sets less, but enlarge the table of
/// leaves every processor holds and the number of blocks one that
/// fills its cache allocates; DESIGN.md gives the measurements.
const LEAF_WORDS: usize = 512;

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

/// A leaf of `words` empty tag words, built in place on the heap,
/// never on the (task) stack.
#[cold]
fn new_leaf(words: usize) -> Box<[u64]> {
    vec![0; words].into_boxed_slice()
}

/// Does `word` hold `line`'s tag? (A line past 40 bits is never
/// resident.)
#[inline]
fn holds(word: u64, line: u64) -> bool {
    line < LINE_MASK && word & LINE_MASK == line + 1
}

impl ProcCache {
    /// Creates an empty cache with the given geometry. No leaf is
    /// allocated.
    pub fn new(cfg: CacheConfig) -> ProcCache {
        let sets = cfg.sets();
        // The most sets a leaf of at most `LEAF_WORDS` words holds, as
        // a power of two (at least one set, at most all of them).
        let leaf_sets = (LEAF_WORDS / cfg.ways).max(1);
        let leaf_shift = leaf_sets.ilog2().min(sets.ilog2());
        ProcCache {
            cfg,
            leaves: (0..sets >> leaf_shift).map(|_| None).collect(),
            set_mask: sets - 1,
            leaf_shift,
            counts: [[0; 6]; 2],
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The leaf that holds the set `line` maps to, and where the set
    /// starts in it.
    #[inline]
    fn locate(&self, line: u64) -> (usize, usize) {
        let set = (line as usize) & self.set_mask;
        let within = set & ((1 << self.leaf_shift) - 1);
        (set >> self.leaf_shift, within * self.cfg.ways)
    }

    /// The ways of the set `line` maps to, most recently used first, if
    /// its leaf exists.
    #[inline]
    fn set(&self, line: u64) -> Option<&[u64]> {
        let (leaf, first) = self.locate(line);
        let leaf = self.leaves[leaf].as_deref()?;
        Some(&leaf[first..first + self.cfg.ways])
    }

    /// [`set`](Self::set), mutably.
    #[inline]
    fn set_mut(&mut self, line: u64) -> Option<&mut [u64]> {
        let (leaf, first) = self.locate(line);
        let ways = self.cfg.ways;
        let leaf = self.leaves[leaf].as_deref_mut()?;
        Some(&mut leaf[first..first + ways])
    }

    /// If `line` is resident, its way and the directory hint remembered
    /// beside it; moves nothing.
    #[inline]
    pub(crate) fn peek(&self, line: u64) -> Option<(usize, u32)> {
        let set = self.set(line)?;
        let way = set.iter().position(|&w| holds(w, line))?;
        Some((way, (set[way] >> LINE_BITS) as u32))
    }

    /// Marks the resident line at `way` of `line`'s set (as
    /// [`peek`](Self::peek) found it) most recently used.
    #[inline]
    pub(crate) fn promote(&mut self, line: u64, way: usize) {
        if way == 0 {
            return;
        }
        // A resident line's leaf exists.
        if let Some(set) = self.set_mut(line) {
            set[..=way].rotate_right(1);
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
    /// remembered, building its set's leaf if this is the leaf's first
    /// fill; returns the displaced line and the hint remembered beside
    /// it, if a resident line had to go.
    #[inline]
    pub(crate) fn fill(&mut self, line: u64) -> Option<(u64, u32)> {
        let word = word_of(line, 0);
        let (leaf, first) = self.locate(line);
        let (ways, leaf_words) = (self.cfg.ways, self.cfg.ways << self.leaf_shift);
        let leaf = self.leaves[leaf].get_or_insert_with(|| new_leaf(leaf_words));
        let set = &mut leaf[first..first + ways];
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
        // A resident line's leaf exists.
        if let Some(set) = self.set_mut(line) {
            debug_assert!(holds(set[0], line));
            set[0] = word;
        }
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
        let Some(set) = self.set_mut(line) else {
            return false;
        };
        let Some(way) = set.iter().position(|&w| holds(w, line)) else {
            return false;
        };
        // Close the gap so the empties stay last.
        set[way] = 0;
        set[way..].rotate_left(1);
        true
    }

    /// Drops every resident line, and with them every leaf.
    pub fn clear(&mut self) {
        self.leaves.fill(None);
    }

    /// Number of resident lines (O(cache size); for tests/stats).
    pub fn resident(&self) -> usize {
        let words = self.leaves.iter().flatten().flat_map(|leaf| leaf.iter());
        words.filter(|&&t| t != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProcCache {
        ProcCache::new(CacheConfig::tiny()) // 8 sets × 2 ways
    }

    fn alewife() -> ProcCache {
        ProcCache::new(CacheConfig::alewife()) // 2048 sets × 2 ways
    }

    /// How many leaves have been built.
    fn leaves(c: &ProcCache) -> usize {
        c.leaves.iter().flatten().count()
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

    #[test]
    fn no_leaf_before_the_first_fill() {
        let mut c = alewife();
        assert_eq!(c.leaves.len(), 8, "4096 words in 512-word leaves");
        assert_eq!(leaves(&c), 0);
        c.insert(7);
        assert_eq!(leaves(&c), 1);
        assert_eq!(c.leaves[0].as_ref().map(|l| l.len()), Some(LEAF_WORDS));
    }

    #[test]
    fn an_untouched_set_misses_and_allocates_nothing() {
        let mut c = alewife();
        c.insert(0); // leaf 0 exists; the rest do not
        for line in [256, 300, 2047, (1 << 30) + 1024] {
            assert_eq!(c.peek(line), None);
            assert!(!c.contains(line));
            assert!(!c.evict(line));
        }
        assert_eq!(leaves(&c), 1, "a query allocates no leaf");
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn sets_256_apart_live_in_separate_leaves() {
        let mut c = alewife();
        // Sets 3 and 259: leaves 0 and 1, two lines each, one memo each.
        let (a, b) = (3, 3 + 256);
        for (line, hint) in [(a, 11), (a + 2048, 0), (b + 2048, 22), (b, 0)] {
            c.fill(line);
            c.remember(line, hint);
        }
        assert_eq!(leaves(&c), 2);
        // LRU order is per set: a is set a's LRU line, b + 2048 set b's.
        assert_eq!(c.fill(a + 4096), Some((a, 11)));
        assert_eq!(c.fill(b + 4096), Some((b + 2048, 22)));
        assert_eq!(c.peek(a + 2048), Some((1, 0)));
        assert_eq!(c.peek(b), Some((1, 0)));
        c.remember(b + 4096, 33);
        assert_eq!(c.peek(b + 4096), Some((0, 33)));
        assert_eq!(c.peek(a + 4096), Some((0, 0)));
    }

    #[test]
    fn the_tiny_geometry_is_one_short_leaf() {
        let mut c = tiny();
        assert_eq!(c.leaves.len(), 1);
        for line in 0..16 {
            c.insert(line);
        }
        assert_eq!(leaves(&c), 1);
        assert_eq!(c.leaves[0].as_ref().map(|l| l.len()), Some(16));
        assert_eq!(c.resident(), 16);
        assert_eq!(c.insert(16), Some(0));
    }

    /// An access is counted on its processor's tag array, by class and
    /// by load or store; absorbing adds the counts to the SSMP's totals
    /// and zeroes them, so a second absorb adds nothing.
    #[test]
    fn accesses_are_counted_here_until_absorbed() {
        use crate::{MissClass, SsmpCacheSystem};
        let sys = SsmpCacheSystem::new(5);
        let (mut a, mut b) = (alewife(), alewife());
        sys.access(&mut a, 0, 1, 0, false); // local miss
        sys.access(&mut a, 0, 1, 0, false); // hit
        sys.access(&mut a, 0, 1, 0, true); // local miss (an upgrade alone)
        sys.access(&mut a, 0, 2, 1, true); // remote clean
        sys.access(&mut b, 1, 1, 0, false); // 2-party: dirty at its home, 0
        let (hit, local, remote, two) = (
            MissClass::Hit.index(),
            MissClass::LocalMiss.index(),
            MissClass::RemoteClean.index(),
            MissClass::TwoParty.index(),
        );
        let mut loads = [0; 6];
        let mut stores = [0; 6];
        (loads[local], loads[hit], stores[local], stores[remote]) = (1, 1, 1, 1);
        assert_eq!(a.counts, [loads, stores]);
        let mut b_loads = [0; 6];
        b_loads[two] = 1;
        assert_eq!(b.counts, [b_loads, [0; 6]]);
        assert_eq!(
            sys.stats().total(),
            0,
            "nothing reaches the totals before an absorb"
        );

        sys.absorb(&mut a);
        assert_eq!(a.counts, [[0; 6]; 2]);
        assert_eq!(sys.stats().accesses(false), 2);
        assert_eq!(sys.stats().accesses(true), 2);
        sys.absorb(&mut b);
        sys.absorb(&mut b);
        assert_eq!(b.counts, [[0; 6]; 2]);
        for (class, n) in [
            (MissClass::Hit, 1),
            (MissClass::LocalMiss, 2),
            (MissClass::RemoteClean, 1),
            (MissClass::TwoParty, 1),
            (MissClass::ThreeParty, 0),
        ] {
            assert_eq!(sys.stats().count(class), n, "{class}");
        }
        assert_eq!(sys.stats().total(), 5);
        assert_eq!(a.resident() + b.resident(), 3, "absorbing keeps the tags");
    }

    #[test]
    fn clear_frees_the_leaves_and_resident_counts_across_them() {
        let mut c = alewife();
        for line in (0..2048).step_by(100) {
            c.insert(line);
        }
        assert_eq!(leaves(&c), 8);
        assert_eq!(c.resident(), 21);
        c.clear();
        assert_eq!(leaves(&c), 0);
        assert_eq!(c.resident(), 0);
        assert!(!c.contains(100));
    }
}
