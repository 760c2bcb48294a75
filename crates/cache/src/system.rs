//! The combined intra-SSMP cache system and latency classification.

use crate::{CleanOutcome, Directory, ProcCache};
use mgs_sim::{CleanTier, CostModel, Cycles};
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

/// Latency class of one hardware shared-memory access, matching the
/// first group of Table 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// Hit in the processor's own cache.
    Hit,
    /// Miss satisfied by the local node's memory (11 cycles).
    LocalMiss,
    /// Miss satisfied by a remote node's memory, line clean (38 cycles).
    RemoteClean,
    /// Miss involving one other cache (dirty at the home node's cache,
    /// or a write-upgrade invalidating other sharers; 42 cycles).
    TwoParty,
    /// Miss involving a third node's cache (63 cycles).
    ThreeParty,
    /// Directory overflowed into software (Alewife LimitLESS; 425
    /// cycles).
    SwDirectory,
}

impl MissClass {
    /// All classes, in Table 3 order.
    pub const ALL: [MissClass; 6] = [
        MissClass::Hit,
        MissClass::LocalMiss,
        MissClass::RemoteClean,
        MissClass::TwoParty,
        MissClass::ThreeParty,
        MissClass::SwDirectory,
    ];

    /// Stall cycles for this class under `cost`.
    pub fn cost(self, cost: &CostModel) -> Cycles {
        match self {
            MissClass::Hit => cost.cache_hit,
            MissClass::LocalMiss => cost.miss_local,
            MissClass::RemoteClean => cost.miss_remote,
            MissClass::TwoParty => cost.miss_two_party,
            MissClass::ThreeParty => cost.miss_three_party,
            MissClass::SwDirectory => cost.miss_sw_directory,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MissClass::Hit => "hit",
            MissClass::LocalMiss => "local",
            MissClass::RemoteClean => "remote",
            MissClass::TwoParty => "2-party",
            MissClass::ThreeParty => "3-party",
            MissClass::SwDirectory => "sw-dir",
        }
    }

    /// Dense index of this class (its position in [`MissClass::ALL`]),
    /// for external per-class counter arrays.
    pub const fn index(self) -> usize {
        match self {
            MissClass::Hit => 0,
            MissClass::LocalMiss => 1,
            MissClass::RemoteClean => 2,
            MissClass::TwoParty => 3,
            MissClass::ThreeParty => 4,
            MissClass::SwDirectory => 5,
        }
    }
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The frame side of one access ([`SsmpCacheSystem::access_hinted`]):
/// the word it loads or stores and the mapping generation it must find
/// unchanged. The page frame that owns both builds it.
#[derive(Debug, Clone, Copy)]
pub struct FrameWord<'a> {
    /// The frame's mapping generation.
    pub generation: &'a AtomicU64,
    /// The generation the caller's translation was made against; once
    /// the frame has moved past it the access is refused.
    pub expect: u64,
    /// The word.
    pub cell: &'a AtomicU64,
    /// What a write stores (a read ignores it).
    pub value: u64,
}

impl FrameWord<'_> {
    /// Whether the caller's translation is still the frame's.
    #[inline]
    fn current(&self) -> bool {
        self.generation.load(Acquire) == self.expect
    }
}

/// What one access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Its latency class.
    pub class: MissClass,
    /// The hint of the line's directory block (a guess corrected, or a
    /// frame's own).
    pub hint: u32,
    /// The word a read loaded or a write stored (0 with no frame word).
    pub value: u64,
}

/// One local processor's counters, on cache lines of their own so that
/// the processors of an SSMP never write a line another one counts on
/// (128 bytes covers the adjacent-line prefetcher's pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct StatShard {
    counts: [AtomicU64; 6],
}

/// Per-class access counters for one SSMP.
///
/// Sharded by local processor: an access bumps only its own
/// processor's shard, and readers sum the shards. The totals are exact
/// — every access is recorded exactly once, in exactly one shard.
///
/// A shard has a single writer: the simulated processor it belongs to,
/// whose task runs on one host worker at a time (a task that moves to
/// another worker is handed over through the scheduler's lock, which
/// orders its last increment before its next). So an increment is a
/// relaxed load and a relaxed store, not a read-modify-write; readers
/// may see a count one access behind, never a lost one.
#[derive(Debug)]
pub struct CacheStats {
    shards: Box<[StatShard]>,
}

impl Default for CacheStats {
    fn default() -> CacheStats {
        CacheStats::new()
    }
}

impl CacheStats {
    /// Shards per SSMP: the [`Directory`]'s sharer bitmask already caps
    /// an SSMP at 64 local processors.
    const SHARDS: usize = 64;

    /// Creates zeroed statistics.
    pub fn new() -> CacheStats {
        CacheStats {
            shards: (0..Self::SHARDS).map(|_| StatShard::default()).collect(),
        }
    }

    /// Records one access of the given class, in local processor 0's
    /// shard (its one writer, like every access of processor 0).
    pub fn record(&self, class: MissClass) {
        self.record_for(0, class);
    }

    /// Records one access of the given class by local processor `proc`,
    /// the shard's one writer.
    #[inline]
    fn record_for(&self, proc: usize, class: MissClass) {
        let count = &self.shards[proc].counts[class.index()];
        count.store(count.load(Relaxed) + 1, Relaxed);
    }

    /// Accesses of the given class so far.
    pub fn count(&self, class: MissClass) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counts[class.index()].load(Relaxed))
            .sum()
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.counts)
            .map(|c| c.load(Relaxed))
            .sum()
    }

    /// Fraction of accesses that hit (0.0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(MissClass::Hit) as f64 / total as f64
        }
    }
}

/// The hardware shared-memory system of one SSMP: the line directory
/// plus access classification. Per-processor tag arrays are owned by
/// the processor threads and passed in by `&mut`.
///
/// # Example
///
/// ```
/// use mgs_cache::{CacheConfig, MissClass, ProcCache, SsmpCacheSystem};
///
/// let sys = SsmpCacheSystem::new(5);
/// let mut cache = ProcCache::new(CacheConfig::alewife());
/// // Processor 0 reads a line homed at itself: a local miss, then hits.
/// assert_eq!(sys.access(&mut cache, 0, 0x40, 0, false), MissClass::LocalMiss);
/// assert_eq!(sys.access(&mut cache, 0, 0x40, 0, false), MissClass::Hit);
/// ```
#[derive(Debug)]
pub struct SsmpCacheSystem {
    directory: Directory,
    stats: CacheStats,
    /// LimitLESS hardware pointer count: reads that would create more
    /// sharers than this are handled by a software directory handler.
    hw_pointers: usize,
}

impl SsmpCacheSystem {
    /// Creates the cache system with the given LimitLESS hardware
    /// pointer count (Alewife: 5).
    pub fn new(hw_pointers: usize) -> SsmpCacheSystem {
        SsmpCacheSystem {
            directory: Directory::new(),
            stats: CacheStats::new(),
            hw_pointers,
        }
    }

    /// The SSMP's line directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Simulates one access by local processor `proc` to `line` whose
    /// backing memory is homed at local processor `home`. Updates the
    /// directory and the processor's tag array, and returns the latency
    /// class. This is [`access_hinted`](Self::access_hinted) given no
    /// hint and no frame word.
    pub fn access(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
    ) -> MissClass {
        self.access_hinted(cache, proc, line, home, is_write, Directory::NO_HINT, None)
            .expect("an access with no frame word is never refused")
            .class
    }

    /// One whole access: [`access`](Self::access) given the hint of
    /// `line`'s directory block and the frame word it loads or stores.
    /// Returns what it did, or `None`, having changed nothing, when the
    /// frame's mapping generation has moved past the one `word`
    /// expects: the caller's translation is stale and must be redone.
    ///
    /// With a frame word, `hint` is the frame's own
    /// ([`Directory::hint`]), right by construction, and nothing asks
    /// the directory's index: the line's entry is in the block the hint
    /// names, and a victim whose memo names a block that holds another
    /// chunk now belonged to a frame that has died. Without one, the
    /// access is the hint-less API's and `hint` is a guess — an earlier
    /// answer, or [`Directory::NO_HINT`] — checked and corrected
    /// through the index.
    ///
    /// This is the simulator's hottest function, and it synchronizes on
    /// one word, the sequence number of the line's directory stripe. A
    /// read whose tag hits, whose hint names the line's block and whose
    /// sharer bit is set is served without a lock and without a store
    /// to anything shared: the directory entry, the generation check
    /// and the word load run inside an optimistic read of the stripe,
    /// kept only if no writer took it meanwhile. Every other access
    /// takes the stripe and, under it, checks the generation, then does
    /// the tag-array work (LRU, fill and victim choice), the
    /// transaction (classification, state change) and the word load or
    /// store; the victim's sharer bit is removed after, under the
    /// victim's stripe. The tag array is private to the calling
    /// processor, so it is only peeked at until the access is sure to
    /// happen. With no hint from the caller a tag hit uses the one
    /// remembered beside the tag. Debug builds assert that a locked
    /// access whose hint was right (it never consulted the index) took
    /// exactly one stripe lock for its line.
    #[allow(clippy::too_many_arguments)] // the fused hot path: one call
    pub fn access_hinted(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
        hint: u32,
        word: Option<FrameWord<'_>>,
    ) -> Option<Served> {
        let stale = || word.is_some_and(|w| !w.current());
        // Not yet the check that counts, which is made under the
        // stripe; but a translation retired well before costs nothing
        // more than this.
        if stale() {
            return None;
        }
        let tag = cache.peek(line);
        let memo = tag.map(|(_, memo)| memo);
        let guess = if hint == Directory::NO_HINT {
            memo.unwrap_or(hint)
        } else {
            hint
        };
        let served = |cache: &mut ProcCache, class: MissClass, hint: u32, value: u64| {
            if memo != Some(hint) {
                cache.remember(line, hint);
            }
            self.stats.record_for(proc, class);
            Some(Served { class, hint, value })
        };
        if let (false, Some((way, _))) = (is_write, tag) {
            let load = || word.map_or(Some(0), |w| w.current().then(|| w.cell.load(Acquire)));
            if let Some(value) = self.directory.read_shared(line, proc, guess, load) {
                cache.promote(line, way);
                return served(cache, MissClass::Hit, guess, value);
            }
        }
        #[cfg(debug_assertions)]
        let locks_before = Directory::thread_locks();
        let mut entry = match word {
            Some(_) => self.directory.lock_claimed(line, guess),
            None => self.directory.lock_line(line, guess),
        };
        if stale() {
            return None;
        }
        #[cfg(debug_assertions)]
        {
            let (stripes, index) = Directory::thread_locks();
            // No index lookup means no guess was wrong.
            if index == locks_before.1 {
                debug_assert_eq!(
                    stripes - locks_before.0,
                    1,
                    "a rightly hinted access takes exactly one stripe lock for its line"
                );
            }
        }
        let evicted = match tag {
            Some((way, _)) => {
                cache.promote(line, way);
                None
            }
            None => cache.fill(line),
        };
        let class = entry.transact(proc, home, is_write, self.hw_pointers, tag.is_some());
        let value = word.map_or(0, |w| {
            if is_write {
                w.cell.store(w.value, Release);
                w.value
            } else {
                w.cell.load(Acquire)
            }
        });
        let found = entry.hint();
        entry.evict(evicted, proc);
        served(cache, class, found, value)
    }

    /// Cleans lines of the hint-less API (§4.2.4): removes them from
    /// the directory and returns the cycle cost under `cost`, tiered per
    /// line by whether the line was dirty.
    pub fn clean_page<I: IntoIterator<Item = u64>>(&self, lines: I, cost: &CostModel) -> Cycles {
        let out = self.directory.clean_page(lines);
        Self::clean_cost(out, cost)
    }

    /// Cycle cost of a [`CleanOutcome`] under `cost`.
    pub fn clean_cost(out: CleanOutcome, cost: &CostModel) -> Cycles {
        cost.clean_per_line(CleanTier::Dirty) * out.dirty_lines
            + cost.clean_per_line(CleanTier::Clean) * (out.shared_lines + out.uncached_lines)
    }
}

/// Iterates the line addresses covering `[base, base + bytes)`.
pub fn lines_of(base: u64, bytes: u64, line_bytes: u64) -> impl Iterator<Item = u64> {
    let first = base / line_bytes;
    let count = bytes / line_bytes;
    first..first + count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCell, CacheConfig};

    #[allow(clippy::needless_range_loop)]
    fn setup() -> (SsmpCacheSystem, Vec<ProcCache>) {
        let sys = SsmpCacheSystem::new(5);
        let caches = (0..8)
            .map(|_| ProcCache::new(CacheConfig::alewife()))
            .collect();
        (sys, caches)
    }

    #[test]
    fn read_miss_then_hit() {
        let (sys, mut caches) = setup();
        assert_eq!(
            sys.access(&mut caches[0], 0, 10, 0, false),
            MissClass::LocalMiss
        );
        assert_eq!(sys.access(&mut caches[0], 0, 10, 0, false), MissClass::Hit);
    }

    #[test]
    fn remote_clean_miss() {
        let (sys, mut caches) = setup();
        assert_eq!(
            sys.access(&mut caches[0], 0, 10, 3, false),
            MissClass::RemoteClean
        );
    }

    #[test]
    fn two_party_when_dirty_at_home() {
        let (sys, mut caches) = setup();
        // Home proc 1 writes the line (dirty in its cache).
        let (c0, rest) = caches.split_at_mut(1);
        sys.access(&mut rest[0], 1, 10, 1, true);
        // Proc 0 reads: dirty at owner == home → 2-party.
        assert_eq!(sys.access(&mut c0[0], 0, 10, 1, false), MissClass::TwoParty);
    }

    #[test]
    fn three_party_when_dirty_elsewhere() {
        let (sys, mut caches) = setup();
        // Proc 2 writes a line homed at proc 1.
        let (a, b) = caches.split_at_mut(2);
        sys.access(&mut b[0], 2, 10, 1, true);
        // Proc 0 reads it: requester, home, and owner are all distinct.
        assert_eq!(
            sys.access(&mut a[0], 0, 10, 1, false),
            MissClass::ThreeParty
        );
    }

    #[test]
    fn read_of_dirty_line_downgrades_owner() {
        let (sys, mut caches) = setup();
        let (a, b) = caches.split_at_mut(1);
        sys.access(&mut b[0], 1, 10, 0, true);
        sys.access(&mut a[0], 0, 10, 0, false);
        let (sharers, owner) = sys.directory().probe(10);
        assert_eq!(sharers, 2);
        assert_eq!(owner, None);
    }

    #[test]
    fn write_upgrade_invalidates_sharers() {
        let (sys, mut caches) = setup();
        let (a, b) = caches.split_at_mut(1);
        sys.access(&mut a[0], 0, 10, 0, false);
        sys.access(&mut b[0], 1, 10, 0, false);
        // Proc 0 upgrades its shared copy.
        assert_eq!(sys.access(&mut a[0], 0, 10, 0, true), MissClass::TwoParty);
        // Proc 1's copy is no longer valid: next read misses.
        assert_ne!(sys.access(&mut b[0], 1, 10, 0, false), MissClass::Hit);
    }

    #[test]
    fn write_upgrade_alone_is_local() {
        let (sys, mut caches) = setup();
        sys.access(&mut caches[0], 0, 10, 0, false);
        assert_eq!(
            sys.access(&mut caches[0], 0, 10, 0, true),
            MissClass::LocalMiss
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn limitless_overflow_goes_to_software() {
        let (sys, mut caches) = setup();
        for p in 0..5 {
            assert_ne!(
                sys.access(&mut caches[p], p, 10, 0, false),
                MissClass::SwDirectory
            );
        }
        // The sixth sharer exceeds the 5 hardware pointers.
        assert_eq!(
            sys.access(&mut caches[5], 5, 10, 0, false),
            MissClass::SwDirectory
        );
    }

    #[test]
    fn eviction_clears_directory_bit() {
        let sys = SsmpCacheSystem::new(5);
        let mut cache = ProcCache::new(CacheConfig::tiny()); // 8 sets × 2 ways
                                                             // Three lines mapping to the same set: 0, 8, 16.
        sys.access(&mut cache, 0, 0, 0, false);
        sys.access(&mut cache, 0, 8, 0, false);
        sys.access(&mut cache, 0, 16, 0, false); // evicts line 0 (LRU)
        assert!(!sys.directory().is_sharer(0, 0));
        assert!(sys.directory().is_sharer(16, 0));
    }

    #[test]
    fn invalidated_resident_line_misses() {
        let (sys, mut caches) = setup();
        let (a, b) = caches.split_at_mut(1);
        sys.access(&mut a[0], 0, 10, 0, false);
        // Proc 1 writes the line, invalidating proc 0 through the
        // directory only (proc 0's tag array is untouched).
        sys.access(&mut b[0], 1, 10, 0, true);
        // Proc 0 still has the tag, but the access must miss.
        assert_ne!(sys.access(&mut a[0], 0, 10, 0, false), MissClass::Hit);
    }

    #[test]
    fn clean_page_costs_by_tier() {
        let (sys, mut caches) = setup();
        let cost = CostModel::alewife();
        sys.access(&mut caches[0], 0, 100, 0, true); // dirty line
        sys.access(&mut caches[1], 1, 101, 0, false); // shared line
        let total = sys.clean_page(100..104, &cost);
        // 1 dirty + 3 clean-tier lines.
        let expect = cost.clean_line_dirty + cost.clean_line_clean * 3;
        assert_eq!(total, expect);
        assert_eq!(sys.directory().tracked_lines(), 0);
    }

    #[test]
    fn stats_track_classes() {
        let (sys, mut caches) = setup();
        sys.access(&mut caches[0], 0, 1, 0, false);
        sys.access(&mut caches[0], 0, 1, 0, false);
        assert_eq!(sys.stats().count(MissClass::LocalMiss), 1);
        assert_eq!(sys.stats().count(MissClass::Hit), 1);
        assert!((sys.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Lines 0, 8 and 16 share set 0 of the 8-set cache and (one
    /// block, all ≡ 0 mod 8) one stripe: the victim goes under the
    /// line's own lock.
    #[test]
    fn a_victim_in_the_lines_stripe_is_removed_under_one_lock() {
        let sys = SsmpCacheSystem::new(5);
        let mut cache = ProcCache::new(CacheConfig::tiny());
        sys.access(&mut cache, 0, 0, 0, false);
        sys.access(&mut cache, 0, 8, 0, false);
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        assert_eq!(
            sys.access(&mut cache, 0, 16, 0, false),
            MissClass::LocalMiss
        );
        #[cfg(debug_assertions)]
        assert_eq!(
            Directory::thread_locks(),
            (before.0 + 1, before.1 + 1),
            "no hint to go by: one index lookup, then one stripe for the line and its victim"
        );
        assert!(
            !sys.directory().is_sharer(0, 0),
            "victim's sharer bit cleared"
        );
        assert!(sys.directory().is_sharer(16, 0));
    }

    #[test]
    fn victims_in_another_stripe_and_block_are_removed() {
        let sys = SsmpCacheSystem::new(5);
        // Two sets of two ways: even lines share set 0 across stripes.
        let mut cache = ProcCache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
        });
        // 4 evicts 0 (stripe 0 of the same block); 64 evicts 2 (in
        // another block).
        for line in [0, 2, 4, 64] {
            sys.access(&mut cache, 0, line, 0, false);
        }
        assert!(!sys.directory().is_sharer(0, 0));
        assert!(!sys.directory().is_sharer(2, 0));
        assert!(sys.directory().is_sharer(4, 0) && sys.directory().is_sharer(64, 0));
        assert_eq!(sys.directory().tracked_lines(), 2);
    }

    #[test]
    fn write_upgrade_matches_take_exclusive() {
        let (sys, mut caches) = setup();
        let reference = Directory::new();
        for (proc, cache) in caches.iter_mut().enumerate().take(2) {
            sys.access(cache, proc, 5, 0, false);
            reference.add_sharer(5, proc);
        }
        assert_eq!(
            sys.access(&mut caches[0], 0, 5, 0, true),
            MissClass::TwoParty
        );
        reference.take_exclusive(5, 0);
        assert_eq!(sys.directory().probe(5), reference.probe(5));
    }

    /// An access whose translation went stale is refused with nothing
    /// changed — tags, entries, counts, blocks — even on a line its
    /// frame's block has never seen; given the new generation it goes
    /// through.
    #[test]
    fn a_stale_access_changes_nothing() {
        let sys = SsmpCacheSystem::new(5);
        let mut cache = ProcCache::new(CacheConfig::tiny());
        let (generation, cell) = (AtomicU64::new(1), AtomicU64::new(0));
        let word = |expect, value| {
            Some(FrameWord {
                generation: &generation,
                expect,
                cell: &cell,
                value,
            })
        };
        // Two frames: lines 0..64 and 64..128.
        let frames = [BlockCell::default(), BlockCell::default()];
        for (line, write) in [(64, false), (3, true), (3, false)] {
            let frame = (line / 64) as usize;
            let lines = line / 64 * 64..line / 64 * 64 + 64;
            let hint = sys.directory().hint(&frames[frame], lines, line);
            let tags = cache.clone();
            let before = (sys.directory().tracked_lines(), sys.stats().total());
            let blocks = sys.directory().blocks_allocated();
            let got = sys.access_hinted(&mut cache, 0, line, 0, write, hint, word(0, 9));
            assert_eq!(got, None, "line {line}");
            assert_eq!(cache.peek(line), tags.peek(line));
            assert_eq!(cache.resident(), tags.resident());
            assert_eq!(
                (sys.directory().tracked_lines(), sys.stats().total()),
                before
            );
            assert_eq!(sys.directory().blocks_allocated(), blocks);
            let served = sys.access_hinted(&mut cache, 0, line, 0, write, hint, word(1, 9));
            assert_eq!(
                served.map(|s| (s.value, s.hint)),
                Some((if write { 9 } else { cell.load(Relaxed) }, hint))
            );
        }
        assert_eq!(cell.load(Relaxed), 9);
    }

    #[test]
    fn lines_of_covers_range() {
        let v: Vec<u64> = lines_of(1024, 64, 16).collect();
        assert_eq!(v, vec![64, 65, 66, 67]);
    }
}
