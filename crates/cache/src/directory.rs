//! Per-SSMP cache-line directory.

use crate::MissClass;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Lines per shard pre-allocation: an Alewife SSMP tracks at most
/// `C × 4096` lines, so 1024 slots per shard absorbs the common case
/// without rehashing.
const SHARD_CAPACITY: usize = 1024;

/// A fast multiply-xor hasher (the Fx hash used by the Firefox and
/// rustc hash maps) for the directory's small-integer line keys. The
/// default SipHash spends more cycles hashing one `u64` than the rest
/// of a directory lookup combined.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_ne_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;
type Shard = HashMap<u64, DirEntry, FxBuildHasher>;

#[cfg(debug_assertions)]
thread_local! {
    /// Shard-lock acquisitions by this thread (debug builds only): the
    /// fused access path asserts it takes exactly one per access.
    static SHARD_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Outcome of cleaning a page's lines out of the directory
/// (§4.2.4 of the paper: "page cleaning").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CleanOutcome {
    /// Lines that were resident somewhere in the SSMP in shared state.
    pub shared_lines: u64,
    /// Lines that were dirty in some processor's cache.
    pub dirty_lines: u64,
    /// Lines that were not cached at all.
    pub uncached_lines: u64,
}

/// State of one cache line within an SSMP.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of local processors holding the line.
    sharers: u64,
    /// Local processor index owning the line dirty, if any.
    owner: Option<u8>,
}

/// The SSMP's line directory: the source of truth for intra-SSMP
/// hardware coherence state.
///
/// Sharded internally so that the C processors of an SSMP can perform
/// concurrent lookups with little contention. Processor indices are
/// *local* to the SSMP (0..C, C ≤ 64).
///
/// The shard count is chosen so that a set-associative cache's victim
/// line always lands in the *same* shard as the line that displaced it:
/// victims come from the same set (`set = line & (sets - 1)`), so as
/// long as the set count is a multiple of [`Directory::SHARDS`], the
/// entire access — classification, directory update, and victim
/// removal — completes under a single shard lock (see
/// [`Directory::transact`]).
///
/// # Example
///
/// ```
/// use mgs_cache::Directory;
///
/// let dir = Directory::new();
/// dir.add_sharer(0x100, 2);
/// assert!(dir.is_sharer(0x100, 2));
/// assert!(!dir.is_sharer(0x100, 3));
/// ```
#[derive(Debug, Default)]
pub struct Directory {
    shards: Vec<Mutex<Shard>>,
}

impl Directory {
    /// Number of internal shards. A power of two that divides every
    /// supported set count (8 for [`crate::CacheConfig::tiny`], 2048
    /// for [`crate::CacheConfig::alewife`]), guaranteeing victim
    /// co-location in [`transact`](Self::transact).
    pub const SHARDS: usize = 8;

    /// Creates an empty directory.
    pub fn new() -> Directory {
        Directory {
            shards: (0..Self::SHARDS)
                .map(|_| {
                    Mutex::new(Shard::with_capacity_and_hasher(
                        SHARD_CAPACITY,
                        FxBuildHasher::default(),
                    ))
                })
                .collect(),
        }
    }

    #[inline]
    fn shard_index(&self, line: u64) -> usize {
        (line as usize) & (Self::SHARDS - 1)
    }

    /// The single chokepoint for shard-lock acquisition; debug builds
    /// count acquisitions per thread so the fused access path can
    /// assert it locks exactly once.
    #[inline]
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, Shard> {
        #[cfg(debug_assertions)]
        SHARD_LOCKS.with(|c| c.set(c.get() + 1));
        self.shards[idx].lock()
    }

    #[inline]
    fn shard(&self, line: u64) -> MutexGuard<'_, Shard> {
        self.lock_shard(self.shard_index(line))
    }

    /// Shard-lock acquisitions made by the calling thread so far
    /// (debug builds only; used by the one-lock-per-access assertion
    /// and tests).
    #[cfg(debug_assertions)]
    pub fn thread_shard_locks() -> u64 {
        SHARD_LOCKS.with(|c| c.get())
    }

    /// One fused coherence transaction: classifies the access from the
    /// directory state, applies the matching state change, and removes
    /// the tag-array victim's sharer bit — all under one shard-lock
    /// acquisition when the victim is co-located (always true when the
    /// cache's set count is a multiple of [`Self::SHARDS`]).
    ///
    /// `tag_hit` is whether `line` was already present in `proc`'s tag
    /// array; `evicted` is the victim the tag array displaced to make
    /// room (`None` on a tag hit). Behaviour is observably identical to
    /// the unfused sequence `is_sharer` / `probe` / `take_exclusive` /
    /// `downgrade` / `add_sharer` / `remove_sharer` that
    /// `tests/transact_oracle.rs` keeps as the reference.
    #[allow(clippy::too_many_arguments)] // the fused hot path: one call, one lock
    pub fn transact(
        &self,
        line: u64,
        proc: usize,
        home: usize,
        is_write: bool,
        hw_pointers: usize,
        tag_hit: bool,
        evicted: Option<u64>,
    ) -> MissClass {
        let primary = self.shard_index(line);
        // A victim from a foreign shard (only possible for geometries
        // whose set count is not a multiple of SHARDS) is fixed up
        // after the primary lock is dropped — locks are never nested.
        let foreign_victim = evicted.filter(|&e| self.shard_index(e) != primary);

        let mut shard = self.lock_shard(primary);
        let (sharer_mask, owner) = match shard.get(&line) {
            Some(e) => (e.sharers, e.owner.map(|p| p as usize)),
            None => (0, None),
        };
        let class = if tag_hit && sharer_mask & (1 << proc) != 0 {
            if !is_write || owner == Some(proc) {
                MissClass::Hit
            } else {
                // Write to a shared line: upgrade, invalidating other
                // sharers through the directory.
                let others = (sharer_mask & !(1 << proc)).count_ones();
                let e = shard.entry(line).or_default();
                e.sharers = 1 << proc;
                e.owner = Some(proc as u8);
                if others > 0 {
                    MissClass::TwoParty
                } else {
                    MissClass::LocalMiss
                }
            }
        } else {
            // Miss: classify from directory state before updating it.
            let class = match owner {
                Some(o) if o != proc => {
                    if o == home {
                        MissClass::TwoParty
                    } else {
                        MissClass::ThreeParty
                    }
                }
                _ => {
                    if !is_write && sharer_mask.count_ones() as usize >= hw_pointers {
                        MissClass::SwDirectory
                    } else if home == proc {
                        MissClass::LocalMiss
                    } else {
                        MissClass::RemoteClean
                    }
                }
            };
            let e = shard.entry(line).or_default();
            if is_write {
                e.sharers = 1 << proc;
                e.owner = Some(proc as u8);
            } else {
                if let Some(o) = owner {
                    // Reading a dirty line forces a write-back; the
                    // line becomes shared.
                    if e.owner == Some(o as u8) {
                        e.owner = None;
                    }
                }
                e.sharers |= 1 << proc;
            }
            class
        };
        if let Some(ev) = evicted {
            if foreign_victim.is_none() {
                Self::remove_from(&mut shard, ev, proc);
            }
        }
        drop(shard);
        if let Some(ev) = foreign_victim {
            let mut other = self.shard(ev);
            Self::remove_from(&mut other, ev, proc);
        }
        class
    }

    fn remove_from(shard: &mut Shard, line: u64, proc: usize) {
        if let Some(e) = shard.get_mut(&line) {
            e.sharers &= !(1 << proc);
            if e.owner == Some(proc as u8) {
                e.owner = None;
            }
            if e.sharers == 0 {
                shard.remove(&line);
            }
        }
    }

    /// Is `proc` currently a sharer of `line`?
    pub fn is_sharer(&self, line: u64, proc: usize) -> bool {
        self.shard(line)
            .get(&line)
            .is_some_and(|e| e.sharers & (1 << proc) != 0)
    }

    /// Adds `proc` as a sharer of `line`. Returns the resulting number
    /// of sharers (used for the LimitLESS overflow check).
    pub fn add_sharer(&self, line: u64, proc: usize) -> u32 {
        let mut shard = self.shard(line);
        let e = shard.entry(line).or_default();
        e.sharers |= 1 << proc;
        e.sharers.count_ones()
    }

    /// Removes `proc` as a sharer (e.g. on eviction from its cache). If
    /// `proc` was the dirty owner, ownership is dropped (write-back).
    pub fn remove_sharer(&self, line: u64, proc: usize) {
        let mut shard = self.shard(line);
        Self::remove_from(&mut shard, line, proc);
    }

    /// Information needed to classify a miss: `(sharer_count,
    /// dirty_owner)`.
    pub fn probe(&self, line: u64) -> (u32, Option<usize>) {
        let shard = self.shard(line);
        match shard.get(&line) {
            Some(e) => (e.sharers.count_ones(), e.owner.map(|p| p as usize)),
            None => (0, None),
        }
    }

    /// Grants `proc` exclusive dirty ownership of `line`, invalidating
    /// all other sharers. Returns how many other sharers were
    /// invalidated.
    pub fn take_exclusive(&self, line: u64, proc: usize) -> u32 {
        let mut shard = self.shard(line);
        let e = shard.entry(line).or_default();
        let others = (e.sharers & !(1 << proc)).count_ones();
        e.sharers = 1 << proc;
        e.owner = Some(proc as u8);
        others
    }

    /// Downgrades `line` so that `proc` holds it shared (dirty data has
    /// been written back). Other sharers are preserved.
    pub fn downgrade(&self, line: u64, proc: usize) {
        let mut shard = self.shard(line);
        if let Some(e) = shard.get_mut(&line) {
            if e.owner == Some(proc as u8) {
                e.owner = None;
            }
        }
    }

    /// Removes a whole page's lines from the directory (page cleaning,
    /// §4.2.4). `lines` iterates the page's line addresses. Returns the
    /// per-tier line counts so the caller can cost the operation.
    pub fn clean_page<I: IntoIterator<Item = u64>>(&self, lines: I) -> CleanOutcome {
        let mut out = CleanOutcome::default();
        for line in lines {
            let mut shard = self.shard(line);
            match shard.remove(&line) {
                Some(e) if e.owner.is_some() => out.dirty_lines += 1,
                Some(_) => out.shared_lines += 1,
                None => out.uncached_lines += 1,
            }
        }
        out
    }

    /// Marks a range of lines dirty-owned by `proc` (used when the
    /// protocol engine at the home merges diff data through its cache).
    pub fn mark_dirty_lines<I: IntoIterator<Item = u64>>(&self, lines: I, proc: usize) {
        for line in lines {
            self.take_exclusive(line, proc);
        }
    }

    /// Total number of tracked lines (for tests/statistics).
    pub fn tracked_lines(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_sharers() {
        let d = Directory::new();
        assert_eq!(d.add_sharer(7, 0), 1);
        assert_eq!(d.add_sharer(7, 3), 2);
        d.remove_sharer(7, 0);
        assert!(!d.is_sharer(7, 0));
        assert!(d.is_sharer(7, 3));
    }

    #[test]
    fn empty_entries_are_garbage_collected() {
        let d = Directory::new();
        d.add_sharer(9, 1);
        d.remove_sharer(9, 1);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn take_exclusive_invalidates_others() {
        let d = Directory::new();
        d.add_sharer(5, 0);
        d.add_sharer(5, 1);
        d.add_sharer(5, 2);
        let invalidated = d.take_exclusive(5, 1);
        assert_eq!(invalidated, 2);
        assert!(d.is_sharer(5, 1));
        assert!(!d.is_sharer(5, 0));
        let (n, owner) = d.probe(5);
        assert_eq!((n, owner), (1, Some(1)));
    }

    #[test]
    fn downgrade_clears_owner_keeps_sharer() {
        let d = Directory::new();
        d.take_exclusive(4, 2);
        d.downgrade(4, 2);
        let (n, owner) = d.probe(4);
        assert_eq!((n, owner), (1, None));
    }

    #[test]
    fn removing_owner_drops_ownership() {
        let d = Directory::new();
        d.take_exclusive(4, 2);
        d.remove_sharer(4, 2);
        let (n, owner) = d.probe(4);
        assert_eq!((n, owner), (0, None));
    }

    #[test]
    fn clean_page_classifies_lines() {
        let d = Directory::new();
        d.add_sharer(100, 0); // shared
        d.take_exclusive(101, 1); // dirty
        let out = d.clean_page(100..104);
        assert_eq!(out.shared_lines, 1);
        assert_eq!(out.dirty_lines, 1);
        assert_eq!(out.uncached_lines, 2);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn probe_unknown_line() {
        let d = Directory::new();
        assert_eq!(d.probe(12345), (0, None));
    }

    #[test]
    fn transact_miss_then_hit() {
        let d = Directory::new();
        assert_eq!(
            d.transact(10, 0, 0, false, 5, false, None),
            MissClass::LocalMiss
        );
        assert_eq!(d.transact(10, 0, 0, false, 5, true, None), MissClass::Hit);
    }

    #[test]
    fn transact_removes_colocated_victim_under_one_lock() {
        let d = Directory::new();
        // Lines 0 and 8 share set 0 of a tiny cache and (both ≡ 0 mod
        // 8) the same directory shard.
        d.transact(0, 0, 0, false, 5, false, None);
        #[cfg(debug_assertions)]
        let before = Directory::thread_shard_locks();
        let class = d.transact(8, 0, 0, false, 5, false, Some(0));
        #[cfg(debug_assertions)]
        assert_eq!(Directory::thread_shard_locks() - before, 1);
        assert_eq!(class, MissClass::LocalMiss);
        assert!(!d.is_sharer(0, 0), "victim's sharer bit cleared");
        assert!(d.is_sharer(8, 0));
    }

    #[test]
    fn transact_handles_foreign_shard_victim() {
        let d = Directory::new();
        d.transact(3, 0, 0, false, 5, false, None);
        // Victim 3 maps to shard 3, line 8 to shard 0: fix-up path.
        d.transact(8, 0, 0, false, 5, false, Some(3));
        assert!(!d.is_sharer(3, 0));
        assert!(d.is_sharer(8, 0));
    }

    #[test]
    fn transact_write_upgrade_matches_take_exclusive() {
        let fused = Directory::new();
        let reference = Directory::new();
        for d in [&fused, &reference] {
            d.add_sharer(5, 0);
            d.add_sharer(5, 1);
        }
        // Fused upgrade by proc 0 (resident shared write).
        let class = fused.transact(5, 0, 0, true, 5, true, None);
        assert_eq!(class, MissClass::TwoParty);
        reference.take_exclusive(5, 0);
        assert_eq!(fused.probe(5), reference.probe(5));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let d = Arc::new(Directory::new());
        let handles: Vec<_> = (0..4usize)
            .map(|p| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for line in 0..1000u64 {
                        d.add_sharer(line, p);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.tracked_lines(), 1000);
        assert_eq!(d.probe(500).0, 4);
    }

    #[test]
    fn fx_hasher_spreads_small_keys() {
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000u64 {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000, "no collisions on small keys");
    }
}
