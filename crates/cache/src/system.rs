//! The combined intra-SSMP cache system and latency classification.

use crate::{CleanOutcome, Directory, ProcCache};
use mgs_sim::{CleanTier, CostModel, Counter, Cycles};
use std::fmt;

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

/// One local processor's counters, on cache lines of their own so that
/// the processors of an SSMP never write a line another one counts on
/// (128 bytes covers the adjacent-line prefetcher's pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct StatShard {
    counts: [Counter; 6],
}

/// Per-class access counters for one SSMP.
///
/// Sharded by local processor: an access bumps only its own
/// processor's shard, and readers sum the shards. The totals are exact
/// — every access is recorded exactly once, in exactly one shard.
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

    /// Records one access of the given class (not attributed to a
    /// particular processor).
    pub fn record(&self, class: MissClass) {
        self.record_for(0, class);
    }

    /// Records one access of the given class by local processor `proc`.
    #[inline]
    fn record_for(&self, proc: usize, class: MissClass) {
        self.shards[proc].counts[class.index()].incr();
    }

    /// Accesses of the given class so far.
    pub fn count(&self, class: MissClass) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counts[class.index()].get())
            .sum()
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.counts)
            .map(Counter::get)
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
    /// class. This is [`access_hinted`](Self::access_hinted) for a
    /// caller with no hint to give.
    pub fn access(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
    ) -> MissClass {
        self.access_hinted(cache, proc, line, home, is_write, Directory::NO_HINT)
            .0
    }

    /// [`access`](Self::access) given the caller's guess at `line`'s
    /// directory block — the hint an earlier access to the same page
    /// returned, or [`Directory::NO_HINT`]. Returns the latency class
    /// and the block's true hint, for the caller to remember.
    ///
    /// This is the simulator's hottest function. The tag array is
    /// probed (and, on a tag miss, filled) first — it is private to the
    /// calling thread — and the entire directory transaction
    /// (classification, state change) then runs under one stripe lock
    /// of the line's block in [`Directory::transact_hinted`], the
    /// victim's removal under another. With no hint from the caller a
    /// tag hit uses the one remembered beside the tag. Debug builds
    /// assert that a tag hit whose hint was right (it never consulted
    /// the index) took exactly one stripe lock.
    pub fn access_hinted(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
        hint: u32,
    ) -> (MissClass, u32) {
        #[cfg(debug_assertions)]
        let locks_before = Directory::thread_locks();
        let memo = cache.lookup(line);
        // On a tag miss every outcome installs the line, so the fill
        // (and its LRU eviction decision) can run before the directory
        // transaction; on a tag hit `lookup` already refreshed LRU.
        let evicted = if memo.is_none() {
            cache.fill(line)
        } else {
            None
        };
        let guess = if hint == Directory::NO_HINT {
            memo.unwrap_or(hint)
        } else {
            hint
        };
        let (class, found) = self.directory.transact_hinted(
            line,
            proc,
            home,
            is_write,
            self.hw_pointers,
            memo.is_some(),
            guess,
            evicted,
        );
        if memo != Some(found) {
            cache.remember(line, found);
        }
        #[cfg(debug_assertions)]
        {
            let (stripes, index) = Directory::thread_locks();
            // No index lookup means no guess was wrong.
            if memo.is_some() && index == locks_before.1 {
                debug_assert_eq!(
                    stripes - locks_before.0,
                    1,
                    "a rightly hinted tag hit takes exactly one stripe lock"
                );
            }
        }
        self.stats.record_for(proc, class);
        (class, found)
    }

    /// Cleans a page's lines (§4.2.4): removes them from the directory
    /// and returns the cycle cost under `cost`, tiered per line by
    /// whether the line was dirty.
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
    use crate::CacheConfig;

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

    #[test]
    fn lines_of_covers_range() {
        let v: Vec<u64> = lines_of(1024, 64, 16).collect();
        assert_eq!(v, vec![64, 65, 66, 67]);
    }
}
