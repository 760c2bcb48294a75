//! The combined intra-SSMP cache system and latency classification.

use crate::directory::BLOCK_LINES;
use crate::{BlockCell, CleanOutcome, Directory, ProcCache};
use mgs_sim::{CleanTier, CostModel, Cycles};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

#[cfg(debug_assertions)]
thread_local! {
    /// Line-map lookups by this thread (debug builds only): the access
    /// path asserts that a locked access makes none, and tests that a
    /// frame's paths never do.
    static LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

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
    /// The word a read loaded or a write stored.
    pub value: u64,
}

/// One local processor's counters, loads then stores by class, on
/// cache lines of their own so that the processors of an SSMP never
/// write a line another one counts on (128 bytes covers the
/// adjacent-line prefetcher's pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct StatShard {
    counts: [[AtomicU64; 6]; 2],
}

/// Per-class access counters for one SSMP, split into loads and
/// stores: the machine's one count of its simulated accesses.
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

    /// Records one load (or store, `is_write`) of the given class by
    /// local processor `proc`, the shard's one writer.
    #[inline]
    fn record_for(&self, proc: usize, class: MissClass, is_write: bool) {
        let count = &self.shards[proc].counts[usize::from(is_write)][class.index()];
        count.store(count.load(Relaxed) + 1, Relaxed);
    }

    /// Accesses of the given class so far.
    pub fn count(&self, class: MissClass) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.counts)
            .map(|by_class| by_class[class.index()].load(Relaxed))
            .sum()
    }

    /// Loads (`is_write == false`) or stores so far, over every class.
    pub fn accesses(&self, is_write: bool) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.counts[usize::from(is_write)])
            .map(|c| c.load(Relaxed))
            .sum()
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.accesses(false) + self.accesses(true)
    }
}

/// The hardware shared-memory system of one SSMP: the line directory
/// plus access classification. Per-processor tag arrays are owned by
/// the processor threads and passed in by `&mut`.
///
/// A line with no page frame (a **bare line**: [`access`](Self::access),
/// [`clean_page`](Self::clean_page), [`probe`](Self::probe); tests,
/// oracles and host micro-benchmarks) has its chunk's [`BlockCell`] in
/// the system's **line map**, made in the system's own directory on
/// first touch and kept for the system's life, and then runs the frame
/// path. The map's lock is taken before stripes (a bare clean holds
/// it), never under one.
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
    /// The line map: the cell of each chunk a bare line touched.
    lines: Mutex<HashMap<u64, BlockCell>>,
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
            lines: Mutex::default(),
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

    /// Line-map lookups made by the calling thread so far (debug builds
    /// only; used by the access path's no-lookup assertion and tests).
    #[cfg(debug_assertions)]
    pub fn thread_lookups() -> u64 {
        LOOKUPS.with(|c| c.get())
    }

    /// The hint of bare `line`'s block, from its chunk's cell in the
    /// line map: created and claimed if the chunk has none and `create`
    /// says so, `None` otherwise.
    fn line_hint(&self, line: u64, create: bool) -> Option<u32> {
        #[cfg(debug_assertions)]
        LOOKUPS.with(|c| c.set(c.get() + 1));
        let chunk = line / BLOCK_LINES;
        let mut cells = self.lines.lock();
        let cell = if create {
            cells.entry(chunk).or_insert_with(|| {
                self.directory
                    .cell(chunk * BLOCK_LINES..(chunk + 1) * BLOCK_LINES)
            })
        } else {
            cells.get(&chunk)?
        };
        Some(cell.hint(line))
    }

    /// Bare `line`'s directory entry: its sharer mask, one bit per local
    /// processor, and its dirty owner. A line whose chunk was never
    /// touched has none, and the lookup claims nothing.
    pub fn probe(&self, line: u64) -> (u64, Option<usize>) {
        self.line_hint(line, false).map_or((0, None), |hint| {
            self.directory.lock_claimed(line, hint).entry()
        })
    }

    /// Simulates one access by local processor `proc` to `line`, a
    /// bare line (one with no page frame), whose backing memory is
    /// homed at local processor `home`. Updates the directory and the
    /// processor's tag array, and returns the latency class.
    ///
    /// This is [`access_hinted`](Self::access_hinted) given the hint of
    /// the block of the line's chunk in the line map and a word of its
    /// own at a generation that never moves. A tag hit takes the hint
    /// from the memo beside the tag, which stays right because a bare
    /// chunk's block is kept for the system's life; a tag miss looks it
    /// up, claiming the chunk's block on its first touch.
    ///
    /// # Panics
    ///
    /// Panics if `cache` holds `line` with a memo that does not name
    /// the line's block in this directory: a tag array filled by hand
    /// ([`ProcCache::insert`]) or against another system.
    pub fn access(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
    ) -> MissClass {
        let tag = cache.peek(line);
        let hint = match tag {
            Some((_, memo)) => memo,
            None => self
                .line_hint(line, true)
                .expect("a creating lookup finds a block"),
        };
        let (generation, cell) = (AtomicU64::new(0), AtomicU64::new(0));
        let word = FrameWord {
            generation: &generation,
            expect: 0,
            cell: &cell,
            value: 0,
        };
        self.access_tagged(cache, proc, line, home, is_write, hint, word, tag)
            .expect("a generation that never moves is never stale")
            .class
    }

    /// One whole access to `line`, a frame's: [`access`](Self::access)
    /// given the hint of the line's directory block, which is the
    /// frame's own ([`BlockCell::hint`]) and right by construction, and
    /// the frame word it loads or stores. Returns what it did, or
    /// `None`, having changed nothing, when the frame's mapping
    /// generation has moved past the one `word` expects: the caller's
    /// translation is stale and must be redone. The line's entry is in
    /// the block the hint names, and a victim whose memo names a block
    /// that holds another chunk now belonged to a frame that has died.
    ///
    /// This is the simulator's hottest function, and it synchronizes on
    /// one word, the sequence number of the line's directory stripe. A
    /// read whose tag hits and whose sharer bit is set is served
    /// without a lock and without a store to anything shared: the
    /// directory entry, the generation check and the word load run
    /// inside an optimistic read of the stripe, kept only if no writer
    /// took it meanwhile. Every other access takes the stripe and,
    /// under it, checks the generation, then does the tag-array work
    /// (LRU, fill and victim choice), the transaction (classification,
    /// state change) and the word load or store; the victim's sharer
    /// bit is removed after, under the victim's stripe. The tag array
    /// is private to the calling processor, so it is only peeked at
    /// until the access is sure to happen. Debug builds assert that a
    /// locked access takes exactly one stripe lock for its line and no
    /// line-map lookup.
    #[allow(clippy::too_many_arguments)] // the fused hot path: one call
    pub fn access_hinted(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
        hint: u32,
        word: FrameWord<'_>,
    ) -> Option<Served> {
        // Not yet the check that counts, which is made under the
        // stripe; but a translation retired well before costs nothing
        // more than this.
        if !word.current() {
            return None;
        }
        let tag = cache.peek(line);
        self.access_tagged(cache, proc, line, home, is_write, hint, word, tag)
    }

    /// The body of [`access_hinted`](Self::access_hinted), given what
    /// its one peek at `cache` found for `line`: the way and memo of a
    /// resident tag, or `None`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn access_tagged(
        &self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
        hint: u32,
        word: FrameWord<'_>,
        tag: Option<(usize, u32)>,
    ) -> Option<Served> {
        let served = |cache: &mut ProcCache, class: MissClass, value: u64| {
            if tag.map(|(_, memo)| memo) != Some(hint) {
                cache.remember(line, hint);
            }
            self.stats.record_for(proc, class, is_write);
            Some(Served { class, value })
        };
        if let (false, Some((way, _))) = (is_write, tag) {
            let load = || word.current().then(|| word.cell.load(Acquire));
            if let Some(value) = self.directory.read_shared(line, proc, hint, load) {
                cache.promote(line, way);
                return served(cache, MissClass::Hit, value);
            }
        }
        #[cfg(debug_assertions)]
        let before = (Directory::thread_locks(), Self::thread_lookups());
        let mut entry = self.directory.lock_claimed(line, hint);
        if !word.current() {
            return None;
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            (
                Directory::thread_locks() - before.0,
                Self::thread_lookups() - before.1
            ),
            (1, 0),
            "a locked access takes exactly one stripe lock and no line-map lookup"
        );
        let evicted = match tag {
            Some((way, _)) => {
                cache.promote(line, way);
                None
            }
            None => cache.fill(line),
        };
        let class = entry.transact(proc, home, is_write, self.hw_pointers, tag.is_some());
        let value = if is_write {
            word.cell.store(word.value, Release);
            word.value
        } else {
            word.cell.load(Acquire)
        };
        entry.evict(evicted, proc);
        served(cache, class, value)
    }

    /// Cleans bare lines (§4.2.4): removes them from the directory and
    /// returns the cycle cost under `cost`, tiered per line by whether
    /// the line was dirty. Each run of lines in one chunk is one
    /// [`BlockCell::clean_lines`] of the chunk's cell; a line named
    /// twice is cleaned twice, and a chunk never touched has only
    /// uncached lines and takes no stripe lock.
    pub fn clean_page<I: IntoIterator<Item = u64>>(&self, lines: I, cost: &CostModel) -> Cycles {
        #[cfg(debug_assertions)]
        LOOKUPS.with(|c| c.set(c.get() + 1));
        let cells = self.lines.lock();
        let mut lines = lines.into_iter().peekable();
        let mut total = Cycles::ZERO;
        while let Some(&first) = lines.peek() {
            let chunk = first / BLOCK_LINES;
            let run = std::iter::from_fn(|| lines.next_if(|line| line / BLOCK_LINES == chunk));
            let out = match cells.get(&chunk) {
                Some(cell) => cell.clean_lines(run),
                None => CleanOutcome {
                    uncached_lines: run.count() as u64,
                    ..CleanOutcome::default()
                },
            };
            total += Self::clean_cost(out, cost);
        }
        total
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
        assert_eq!(sys.probe(10), (0b11, None));
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
        assert_eq!(sys.probe(0), (0, None));
        assert_eq!(sys.probe(16), (1, None));
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
        sys.access(&mut caches[0], 0, 2, 0, true);
        assert_eq!(sys.stats().count(MissClass::LocalMiss), 2);
        assert_eq!(sys.stats().count(MissClass::Hit), 1);
        assert_eq!(sys.stats().accesses(false), 2);
        assert_eq!(sys.stats().accesses(true), 1);
        assert_eq!(sys.stats().total(), 3);
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
        let before = (Directory::thread_locks(), SsmpCacheSystem::thread_lookups());
        assert_eq!(
            sys.access(&mut cache, 0, 16, 0, false),
            MissClass::LocalMiss
        );
        #[cfg(debug_assertions)]
        assert_eq!(
            (Directory::thread_locks(), SsmpCacheSystem::thread_lookups()),
            (before.0 + 1, before.1 + 1),
            "a tag miss: one line-map lookup, then one stripe for the line and its victim"
        );
        assert_eq!(sys.probe(0), (0, None), "victim's sharer bit cleared");
        assert_eq!(sys.probe(16), (1, None));
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
        for (line, sharers) in [(0, 0), (2, 0), (4, 1), (64, 1)] {
            assert_eq!(sys.probe(line), (sharers, None), "line {line}");
        }
        assert_eq!(sys.directory().tracked_lines(), 2);
    }

    #[test]
    fn write_upgrade_leaves_the_writer_sole_owner() {
        let (sys, mut caches) = setup();
        for (proc, cache) in caches.iter_mut().enumerate().take(2) {
            sys.access(cache, proc, 5, 0, false);
        }
        assert_eq!(sys.probe(5), (0b11, None));
        assert_eq!(
            sys.access(&mut caches[0], 0, 5, 0, true),
            MissClass::TwoParty
        );
        assert_eq!(sys.probe(5), (0b1, Some(0)));
    }

    #[test]
    fn probe_unknown_line() {
        let sys = SsmpCacheSystem::new(5);
        assert_eq!(sys.probe(12345), (0, None));
        assert_eq!(
            sys.directory().blocks_allocated(),
            0,
            "a lookup creates nothing"
        );
    }

    /// A bare line's chunk claims its block on first touch and keeps
    /// it: cleaning empties the block but frees nothing, the next
    /// access to the chunk finds the same block, and a chunk never
    /// touched is cleaned with no lock and no claim.
    #[test]
    fn a_bare_chunks_block_is_claimed_once_and_kept() {
        let sys = SsmpCacheSystem::new(5);
        let d = sys.directory();
        let cost = CostModel::alewife();
        let mut cache = ProcCache::new(CacheConfig::alewife());
        // Chunks 1, 2 and 15.
        let lines = [64, 65, 130, 1000];
        for line in lines {
            sys.access(&mut cache, 0, line, 0, line % 2 == 0);
        }
        assert_eq!(d.blocks_allocated(), 3);
        let hint = sys.line_hint(130, false).expect("a touched chunk");
        assert_eq!(
            sys.clean_page(lines, &cost),
            cost.clean_line_dirty * 3 + cost.clean_line_clean,
            "three dirty lines, one shared"
        );
        assert_eq!(d.tracked_lines(), 0);
        assert_eq!(d.blocks_allocated(), 3, "cleaning frees nothing");
        let mut other = ProcCache::new(CacheConfig::alewife());
        sys.access(&mut other, 1, 131, 0, false);
        assert_eq!(other.peek(131).map(|(_, memo)| memo), Some(hint));
        assert_eq!(d.blocks_allocated(), 3, "the same block");
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let charged = sys.clean_page(640..704, &cost);
        #[cfg(debug_assertions)]
        assert_eq!(Directory::thread_locks(), before, "no stripe lock");
        assert_eq!(charged, cost.clean_line_clean * 64);
        assert_eq!(d.blocks_allocated(), 3, "and no claim");
    }

    /// A clean may name lines of several chunks, in any order, each
    /// run of one chunk cleaned through its cell; a line named twice
    /// costs twice.
    #[test]
    fn a_clean_spans_chunks_and_repeats() {
        let sys = SsmpCacheSystem::new(5);
        let cost = CostModel::alewife();
        let mut cache = ProcCache::new(CacheConfig::alewife());
        for line in [3, 70, 71] {
            sys.access(&mut cache, 0, line, 0, line != 3);
        }
        assert_eq!(
            sys.clean_page([70, 3, 3, 71, 200], &cost),
            cost.clean_line_dirty * 2 + cost.clean_line_clean * 3
        );
        assert_eq!(sys.directory().tracked_lines(), 0);
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
        let word = |expect, value| FrameWord {
            generation: &generation,
            expect,
            cell: &cell,
            value,
        };
        // Two frames: lines 0..64 and 64..128.
        let frames = [sys.directory().cell(0..64), sys.directory().cell(64..128)];
        for (line, write) in [(64, false), (3, true), (3, false)] {
            let hint = frames[(line / 64) as usize].hint(line);
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
                served.map(|s| s.value),
                Some(if write { 9 } else { cell.load(Relaxed) })
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
