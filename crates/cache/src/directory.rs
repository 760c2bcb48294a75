//! Per-SSMP cache-line directory: a slab of dense 64-line blocks.

use crate::MissClass;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::{OnceLock, PoisonError, RwLock};

/// Lines per block.
const BLOCK_LINES: u64 = 64;
/// Lock stripes per block; also the entries per stripe.
const STRIPES: usize = 8;
/// Blocks in the first segment (as a power of two); segment `k` holds
/// `1 << (FIRST_SEGMENT_BITS + k)`.
const FIRST_SEGMENT_BITS: u32 = 4;
/// Segments the slab can grow to: 16 × (2²⁰ − 1) blocks, 16 GB of
/// simulated memory cached in one SSMP at once.
const SEGMENTS: usize = 20;

#[cfg(debug_assertions)]
thread_local! {
    /// `(stripe, index)` lock acquisitions by this thread (debug builds
    /// only): the access path asserts that a right hint costs one
    /// stripe lock and no index lookup.
    static LOCKS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

#[cfg(debug_assertions)]
fn note_lock(stripe: bool) {
    LOCKS.with(|c| {
        let (s, i) = c.get();
        c.set(if stripe { (s + 1, i) } else { (s, i + 1) });
    });
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

/// One eighth of a block: the entries of its lines congruent to the
/// stripe's number modulo 8. An entry exists iff its sharer mask is
/// nonzero, and an owned entry's mask is exactly its owner's bit.
#[derive(Debug, Default)]
struct Stripe {
    /// `chunk + 1` of the chunk the block holds; 0 while it is free.
    holds: u64,
    /// Per entry, the bitmask of local processors holding the line.
    sharers: [u64; STRIPES],
    /// Per entry, `proc + 1` of the local processor owning the line
    /// dirty; 0 if none.
    owner: [u8; STRIPES],
}

impl Stripe {
    fn owner(&self, e: usize) -> Option<usize> {
        (self.owner[e] as usize).checked_sub(1)
    }

    /// Makes `proc` the dirty owner and only sharer of entry `e`;
    /// returns how many other sharers that invalidated.
    fn take_exclusive(&mut self, e: usize, proc: usize) -> u32 {
        let others = (self.sharers[e] & !(1 << proc)).count_ones();
        self.sharers[e] = 1 << proc;
        self.owner[e] = proc as u8 + 1;
        others
    }

    /// Drops `proc`'s copy of entry `e` (and its ownership, if it was
    /// the owner); the last sharer to leave zeroes the entry.
    fn remove(&mut self, e: usize, proc: usize) {
        self.sharers[e] &= !(1 << proc);
        if self.sharers[e] == 0 || self.owner(e) == Some(proc) {
            self.owner[e] = 0;
        }
    }

    /// Entries that exist.
    fn live(&self) -> usize {
        self.sharers.iter().filter(|&&s| s != 0).count()
    }

    fn is_empty(&self) -> bool {
        self.sharers.iter().all(|&s| s == 0)
    }
}

#[derive(Debug, Default)]
struct Block {
    stripes: [Mutex<Stripe>; STRIPES],
}

/// Where a line's entry is: `(chunk, stripe, entry)`.
#[inline]
fn place(line: u64) -> (u64, usize, usize) {
    let within = (line % BLOCK_LINES) as usize;
    (line / BLOCK_LINES, within % STRIPES, within / STRIPES)
}

/// Which blocks exist: the `chunk → hint` map consulted when a hint
/// misses, and the slots not in it.
#[derive(Debug, Default)]
struct Index {
    hints: HashMap<u64, u32>,
    /// Recycled slots, reused last-in first-out.
    free: Vec<u32>,
    /// Slots ever handed out.
    next: u32,
}

/// The SSMP's line directory: the source of truth for intra-SSMP
/// hardware coherence state. Processor indices are *local* to the SSMP
/// (0..C, C ≤ 64).
///
/// # Layout
///
/// On Alewife a line's directory entry sits at the line's home memory,
/// beside the data. The model keeps that shape: the directory is a slab
/// of dense **blocks**, one per 64 consecutive physical lines (1 KB —
/// one default page), and a line's entry is found by indexing, never by
/// hashing the line.
///
/// * A block is eight **stripes**, each behind its own mutex; stripe
///   `line & 7` holds the eight entries of the block's lines congruent
///   to it, entry `(line & 63) >> 3`. Two processors collide only on
///   the same eighth of the same block at the same instant.
/// * A stripe records which 64-line **chunk** (`line >> 6`) its block
///   currently holds, or that the block is free. That record is checked
///   *under the stripe's lock* before an entry is touched.
/// * A block is reached through a **hint** (`slot + 1`, or
///   [`Directory::NO_HINT`]) the caller remembered from an earlier
///   answer: `PageFrame`'s directory-slot cell, [`ProcCache`]'s memo
///   beside each tag. A hint is only ever a guess — out of range,
///   recycled, or taken from another directory, it fails the chunk
///   check and the lookup falls back to the `chunk → slot` index, which
///   is also where blocks are created on first touch.
/// * Blocks live in segments that double in size, each allocated on
///   first use; a block that [`clean_page`](Self::clean_page)
///   leaves empty goes back on a free list, so the slab is as large as
///   what is cached now, not as what ever was.
///
/// # Locks
///
/// Two stripes are never held at once outside a recycle, and nothing
/// takes the index lock while holding a stripe. The index *write* lock
/// is the only lock under which a stripe is taken: creating a block
/// claims its eight stripes one at a time, recycling one holds all
/// eight (in order) while it checks they are empty and marks them free.
/// A transaction that raced with the recycle either finished before it
/// or fails the chunk check afterwards and re-creates the block.
///
/// [`ProcCache`]: crate::ProcCache
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
#[derive(Debug)]
pub struct Directory {
    segments: [OnceLock<Box<[Block]>>; SEGMENTS],
    index: RwLock<Index>,
}

impl Default for Directory {
    fn default() -> Directory {
        Directory::new()
    }
}

impl Directory {
    /// The hint that names no block: every lookup given it goes through
    /// the index.
    pub const NO_HINT: u32 = 0;

    /// Creates an empty directory. Allocates nothing: the first segment
    /// appears with the first line tracked.
    pub fn new() -> Directory {
        Directory {
            segments: [const { OnceLock::new() }; SEGMENTS],
            index: RwLock::new(Index::default()),
        }
    }

    /// `(stripe, index)` lock acquisitions made by the calling thread
    /// so far (debug builds only; used by the access path's
    /// one-stripe-lock assertion and tests).
    #[cfg(debug_assertions)]
    pub fn thread_locks() -> (u64, u64) {
        LOCKS.with(|c| c.get())
    }

    /// `(segment, offset)` of a slot.
    #[inline]
    fn locate(slot: u32) -> (usize, usize) {
        let n = u64::from(slot) + (1 << FIRST_SEGMENT_BITS);
        let top = n.ilog2();
        (
            (top - FIRST_SEGMENT_BITS) as usize,
            (n - (1 << top)) as usize,
        )
    }

    /// The block a hint names, if this directory has one there.
    #[inline]
    fn block(&self, hint: u32) -> Option<&Block> {
        let (segment, offset) = Self::locate(hint.checked_sub(1)?);
        self.segments.get(segment)?.get()?.get(offset)
    }

    /// The single chokepoint for stripe-lock acquisition.
    #[inline]
    fn lock(stripe: &Mutex<Stripe>) -> MutexGuard<'_, Stripe> {
        #[cfg(debug_assertions)]
        note_lock(true);
        stripe.lock()
    }

    fn index_lookup(&self, chunk: u64) -> Option<u32> {
        #[cfg(debug_assertions)]
        note_lock(false);
        self.index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .hints
            .get(&chunk)
            .copied()
    }

    /// Gives `chunk` a block (unless a racing caller just did) and
    /// returns its hint.
    #[cold]
    fn create(&self, chunk: u64) -> u32 {
        #[cfg(debug_assertions)]
        note_lock(false);
        let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&hint) = index.hints.get(&chunk) {
            return hint;
        }
        let slot = index.free.pop().unwrap_or_else(|| {
            index.next += 1;
            index.next - 1
        });
        let (segment, offset) = Self::locate(slot);
        assert!(segment < SEGMENTS, "directory slab exhausted");
        let blocks = self.segments[segment].get_or_init(|| {
            (0..1usize << (FIRST_SEGMENT_BITS as usize + segment))
                .map(|_| Block::default())
                .collect()
        });
        for stripe in &blocks[offset].stripes {
            let mut stripe = Self::lock(stripe);
            debug_assert!(stripe.holds == 0 && stripe.is_empty());
            stripe.holds = chunk + 1;
        }
        index.hints.insert(chunk, slot + 1);
        slot + 1
    }

    /// Frees `chunk`'s block if every entry in it is zero.
    #[cold]
    fn recycle(&self, chunk: u64) {
        #[cfg(debug_assertions)]
        note_lock(false);
        let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
        let Some(&hint) = index.hints.get(&chunk) else {
            return;
        };
        let block = self.block(hint).expect("an indexed block exists");
        let mut stripes = block.stripes.each_ref().map(Self::lock);
        if !stripes.iter().all(|s| s.is_empty()) {
            return; // a racing access repopulated it
        }
        for stripe in &mut stripes {
            stripe.holds = 0;
        }
        index.hints.remove(&chunk);
        index.free.push(hint - 1);
    }

    /// Locks stripe `stripe` of the block holding `chunk`, trying
    /// `hint` first, and returns the guard with the block's true hint.
    /// `None` if the chunk has no block and `create` is false.
    #[inline]
    fn stripe_of(
        &self,
        chunk: u64,
        stripe: usize,
        mut hint: u32,
        create: bool,
    ) -> Option<(MutexGuard<'_, Stripe>, u32)> {
        loop {
            if let Some(block) = self.block(hint) {
                let guard = Self::lock(&block.stripes[stripe]);
                if guard.holds == chunk + 1 {
                    return Some((guard, hint));
                }
            }
            // The guess was wrong (or the block was recycled between
            // the index's answer and the lock): ask the index.
            hint = match self.index_lookup(chunk) {
                Some(hint) => hint,
                None if create => self.create(chunk),
                None => return None,
            };
        }
    }

    /// [`transact_hinted`](Self::transact_hinted) with no hints.
    #[allow(clippy::too_many_arguments)] // the fused hot path: one call
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
        let evicted = evicted.map(|line| (line, Self::NO_HINT));
        self.transact_hinted(
            line,
            proc,
            home,
            is_write,
            hw_pointers,
            tag_hit,
            Self::NO_HINT,
            evicted,
        )
        .0
    }

    /// One fused coherence transaction: classifies the access from the
    /// directory state and applies the matching state change under one
    /// stripe lock, then removes the tag-array victim's sharer bit
    /// under the victim's (the same lock only when the victim shares
    /// the line's stripe, as in an 8-set cache).
    ///
    /// `tag_hit` is whether `line` was already present in `proc`'s tag
    /// array; `evicted` is the victim the tag array displaced to make
    /// room (`None` on a tag hit) with the hint remembered beside its
    /// tag; `hint` is the caller's guess at `line`'s block. Returns the
    /// class and the block's true hint, for the caller to remember.
    /// Behaviour is observably identical to the unfused sequence
    /// `is_sharer` / `probe` / `take_exclusive` / `downgrade` /
    /// `add_sharer` / `remove_sharer` that `tests/transact_oracle.rs`
    /// keeps as the reference.
    #[allow(clippy::too_many_arguments)] // the fused hot path: one call
    pub fn transact_hinted(
        &self,
        line: u64,
        proc: usize,
        home: usize,
        is_write: bool,
        hw_pointers: usize,
        tag_hit: bool,
        hint: u32,
        evicted: Option<(u64, u32)>,
    ) -> (MissClass, u32) {
        let (chunk, stripe, e) = place(line);
        let (mut entries, hint) = self
            .stripe_of(chunk, stripe, hint, true)
            .expect("a creating lookup finds a block");
        let sharer_mask = entries.sharers[e];
        let owner = entries.owner(e);
        let class = if tag_hit && sharer_mask & (1 << proc) != 0 {
            if !is_write || owner == Some(proc) {
                MissClass::Hit
            } else if entries.take_exclusive(e, proc) > 0 {
                // Write to a shared line: upgrade, invalidating other
                // sharers through the directory.
                MissClass::TwoParty
            } else {
                MissClass::LocalMiss
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
            if is_write {
                entries.take_exclusive(e, proc);
            } else {
                // Reading a dirty line forces a write-back; the line
                // becomes shared.
                entries.owner[e] = 0;
                entries.sharers[e] |= 1 << proc;
            }
            class
        };
        if let Some((victim, victim_hint)) = evicted {
            let (v_chunk, v_stripe, v_e) = place(victim);
            if (v_chunk, v_stripe) == (chunk, stripe) {
                entries.remove(v_e, proc);
            } else {
                drop(entries);
                if let Some((mut entries, _)) =
                    self.stripe_of(v_chunk, v_stripe, victim_hint, false)
                {
                    entries.remove(v_e, proc);
                }
            }
        }
        (class, hint)
    }

    /// `line`'s stripe, locked, and its entry's index there, with no
    /// hint to go by; `None` if the line's chunk has no block and
    /// `create` is false.
    fn entry_of(&self, line: u64, create: bool) -> Option<(MutexGuard<'_, Stripe>, usize)> {
        let (chunk, stripe, e) = place(line);
        let (entries, _) = self.stripe_of(chunk, stripe, Self::NO_HINT, create)?;
        Some((entries, e))
    }

    /// Is `proc` currently a sharer of `line`?
    pub fn is_sharer(&self, line: u64, proc: usize) -> bool {
        self.entry_of(line, false)
            .is_some_and(|(entries, e)| entries.sharers[e] & (1 << proc) != 0)
    }

    /// Adds `proc` as a sharer of `line`. Returns the resulting number
    /// of sharers (used for the LimitLESS overflow check).
    pub fn add_sharer(&self, line: u64, proc: usize) -> u32 {
        let (mut entries, e) = self
            .entry_of(line, true)
            .expect("a creating lookup finds a block");
        entries.sharers[e] |= 1 << proc;
        entries.sharers[e].count_ones()
    }

    /// Removes `proc` as a sharer (e.g. on eviction from its cache). If
    /// `proc` was the dirty owner, ownership is dropped (write-back).
    pub fn remove_sharer(&self, line: u64, proc: usize) {
        if let Some((mut entries, e)) = self.entry_of(line, false) {
            entries.remove(e, proc);
        }
    }

    /// Information needed to classify a miss: `(sharer_count,
    /// dirty_owner)`.
    pub fn probe(&self, line: u64) -> (u32, Option<usize>) {
        match self.entry_of(line, false) {
            Some((entries, e)) => (entries.sharers[e].count_ones(), entries.owner(e)),
            None => (0, None),
        }
    }

    /// Grants `proc` exclusive dirty ownership of `line`, invalidating
    /// all other sharers. Returns how many other sharers were
    /// invalidated.
    pub fn take_exclusive(&self, line: u64, proc: usize) -> u32 {
        let (mut entries, e) = self
            .entry_of(line, true)
            .expect("a creating lookup finds a block");
        entries.take_exclusive(e, proc)
    }

    /// Downgrades `line` so that `proc` holds it shared (dirty data has
    /// been written back). Other sharers are preserved.
    pub fn downgrade(&self, line: u64, proc: usize) {
        if let Some((mut entries, e)) = self.entry_of(line, false) {
            if entries.owner(e) == Some(proc) {
                entries.owner[e] = 0;
            }
        }
    }

    /// The entries of a stripe that `lanes` selects: entry `e` iff bit
    /// `8 * e` is set.
    fn entries_of(lanes: u64) -> impl Iterator<Item = usize> {
        (0..STRIPES).filter(move |e| lanes >> (e * STRIPES) & 1 != 0)
    }

    /// Walks `lines` a block at a time: each run of lines that falls in
    /// one chunk (without repeating a line) locks each stripe it
    /// touches once and calls `visit(stripe, lanes)` with the stripe —
    /// `None` if the chunk has no block and `create` is false — and the
    /// run's lines in it, as [`entries_of`](Self::entries_of) reads
    /// them. `hint` is the caller's guess at the blocks. A block the
    /// walk leaves with all eight stripes empty is recycled.
    fn walk(
        &self,
        lines: impl IntoIterator<Item = u64>,
        hint: u32,
        create: bool,
        mut visit: impl FnMut(Option<&mut Stripe>, u64),
    ) {
        let mut block = |chunk: u64, mask: u64| {
            let mut hint = hint;
            let mut emptied = 0;
            for stripe in 0..STRIPES {
                let lanes = mask >> stripe & 0x0101_0101_0101_0101;
                if lanes == 0 {
                    continue;
                }
                match self.stripe_of(chunk, stripe, hint, create) {
                    Some((mut entries, found)) => {
                        hint = found;
                        visit(Some(&mut entries), lanes);
                        emptied += usize::from(entries.is_empty());
                    }
                    None => visit(None, lanes),
                }
            }
            if emptied == STRIPES {
                self.recycle(chunk);
            }
        };
        // The run so far: its chunk, and one bit per line of the block.
        let (mut chunk, mut mask) = (0, 0u64);
        for line in lines {
            let bit = 1 << (line % BLOCK_LINES);
            if line / BLOCK_LINES != chunk || mask & bit != 0 {
                if mask != 0 {
                    block(chunk, mask);
                }
                (chunk, mask) = (line / BLOCK_LINES, 0);
            }
            mask |= bit;
        }
        if mask != 0 {
            block(chunk, mask);
        }
    }

    /// [`clean_page_hinted`](Self::clean_page_hinted) with no hint.
    pub fn clean_page<I: IntoIterator<Item = u64>>(&self, lines: I) -> CleanOutcome {
        self.clean_page_hinted(lines, Self::NO_HINT)
    }

    /// Removes a whole page's lines from the directory (page cleaning,
    /// §4.2.4). `lines` iterates the page's line addresses; `hint` is
    /// the caller's guess at their block. Returns the per-tier line
    /// counts so the caller can cost the operation.
    ///
    /// A linear walk: each stripe of a block is locked once for all of
    /// its lines, and a block the walk leaves empty is recycled.
    pub fn clean_page_hinted<I: IntoIterator<Item = u64>>(
        &self,
        lines: I,
        hint: u32,
    ) -> CleanOutcome {
        let mut out = CleanOutcome::default();
        self.walk(lines, hint, false, |stripe, lanes| {
            let Some(entries) = stripe else {
                out.uncached_lines += u64::from(lanes.count_ones());
                return;
            };
            for e in Self::entries_of(lanes) {
                if entries.owner[e] != 0 {
                    out.dirty_lines += 1;
                } else if entries.sharers[e] != 0 {
                    out.shared_lines += 1;
                } else {
                    out.uncached_lines += 1;
                }
                entries.sharers[e] = 0;
                entries.owner[e] = 0;
            }
        });
        out
    }

    /// [`mark_dirty_lines_hinted`](Self::mark_dirty_lines_hinted) with
    /// no hint.
    pub fn mark_dirty_lines<I: IntoIterator<Item = u64>>(&self, lines: I, proc: usize) {
        self.mark_dirty_lines_hinted(lines, proc, Self::NO_HINT);
    }

    /// Marks a range of lines dirty-owned by `proc` (used when the
    /// protocol engine at the home merges diff data through its cache);
    /// `hint` is the caller's guess at their block.
    pub fn mark_dirty_lines_hinted<I: IntoIterator<Item = u64>>(
        &self,
        lines: I,
        proc: usize,
        hint: u32,
    ) {
        self.walk(lines, hint, true, |stripe, lanes| {
            let entries = stripe.expect("a creating walk finds a block");
            for e in Self::entries_of(lanes) {
                entries.take_exclusive(e, proc);
            }
        });
    }

    /// Total number of tracked lines (for tests/statistics).
    pub fn tracked_lines(&self) -> usize {
        (1..=self.blocks_allocated())
            .filter_map(|hint| self.block(hint))
            .flat_map(|block| &block.stripes)
            .map(|stripe| Self::lock(stripe).live())
            .sum()
    }

    /// Blocks the slab has ever handed out, in use or on the free list
    /// (for the bounded-memory test).
    pub fn blocks_allocated(&self) -> u32 {
        self.index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .next
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

    /// `#[derive(Default)]` used to build a directory with no shards,
    /// which panicked on first use.
    #[test]
    fn default_and_new_both_transact() {
        for d in [Directory::default(), Directory::new()] {
            assert!(!d.is_sharer(1, 0));
            assert_eq!(
                d.transact(1, 0, 0, true, 5, false, None),
                MissClass::LocalMiss
            );
            assert_eq!(d.probe(1), (1, Some(0)));
        }
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

    /// A line named twice is cleaned twice: cached the first time,
    /// uncached the second, as when each line was its own map removal.
    #[test]
    fn clean_page_counts_a_repeated_line_twice() {
        let d = Directory::new();
        d.add_sharer(3, 0);
        let out = d.clean_page([3, 3]);
        assert_eq!((out.shared_lines, out.uncached_lines), (1, 1));
    }

    #[test]
    fn probe_unknown_line() {
        let d = Directory::new();
        assert_eq!(d.probe(12345), (0, None));
        assert_eq!(d.blocks_allocated(), 0, "a lookup creates nothing");
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
        // Lines 0 and 8 share set 0 of a tiny cache and (same block,
        // both ≡ 0 mod 8) the same stripe.
        let (_, hint) = d.transact_hinted(0, 0, 0, false, 5, false, Directory::NO_HINT, None);
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let (class, _) = d.transact_hinted(8, 0, 0, false, 5, false, hint, Some((0, hint)));
        #[cfg(debug_assertions)]
        assert_eq!(Directory::thread_locks(), (before.0 + 1, before.1));
        assert_eq!(class, MissClass::LocalMiss);
        assert!(!d.is_sharer(0, 0), "victim's sharer bit cleared");
        assert!(d.is_sharer(8, 0));
    }

    #[test]
    fn transact_removes_victim_in_another_stripe_and_block() {
        let d = Directory::new();
        d.transact(3, 0, 0, false, 5, false, None);
        d.transact(64 + 3, 0, 0, false, 5, false, None);
        // Victim 3 sits in stripe 3 of line 8's block, victim 67 in
        // another block: both are reached after the line's own stripe
        // is released.
        d.transact(8, 0, 0, false, 5, false, Some(3));
        d.transact(16, 0, 0, false, 5, false, Some(64 + 3));
        assert!(!d.is_sharer(3, 0));
        assert!(!d.is_sharer(64 + 3, 0));
        assert!(d.is_sharer(8, 0) && d.is_sharer(16, 0));
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

    /// A resident default-size page is cleaned under eight stripe
    /// locks, found through the hint with no index lookup; emptying the
    /// block adds one recycle (the index lock, then the eight stripes).
    #[test]
    fn clean_page_walks_one_block_and_recycles_it() {
        let d = Directory::new();
        d.add_sharer(1000, 0);
        let (_, hint) = d.transact_hinted(64, 1, 0, true, 5, false, Directory::NO_HINT, None);
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let out = d.clean_page_hinted(64..128, hint);
        #[cfg(debug_assertions)]
        assert_eq!(
            Directory::thread_locks(),
            (before.0 + 8 + 8, before.1 + 1),
            "eight stripes for the walk, one index lock and eight stripes for the recycle"
        );
        assert_eq!((out.dirty_lines, out.uncached_lines), (1, 63));
        // The freed slot is the next one handed out, and the stale
        // hint now names another chunk's block: the old chunk reads
        // empty through it, the new one is found.
        let (_, reused) = d.transact_hinted(6400, 2, 0, false, 5, false, hint, None);
        assert_eq!(reused, hint);
        assert_eq!(d.clean_page_hinted(64..128, hint).uncached_lines, 64);
        assert!(d.is_sharer(6400, 2));
        assert_eq!(d.blocks_allocated(), 2);
    }

    /// A page smaller than a block keeps the block while its other
    /// half is cached.
    #[test]
    fn half_a_block_is_not_recycled_while_the_other_half_is_live() {
        let d = Directory::new();
        d.mark_dirty_lines(0..64, 0);
        assert_eq!(d.clean_page(0..32).dirty_lines, 32);
        assert_eq!(d.tracked_lines(), 32);
        assert!(d.is_sharer(40, 0));
        assert_eq!(d.clean_page(32..64).dirty_lines, 32);
        assert_eq!(d.tracked_lines(), 0);
        d.add_sharer(7, 1);
        assert_eq!(d.blocks_allocated(), 1, "the emptied block was reused");
    }

    #[test]
    fn slots_map_onto_doubling_segments_without_gaps() {
        let mut expect = (0, 0);
        for slot in 0..5000 {
            assert_eq!(Directory::locate(slot), expect, "slot {slot}");
            expect.1 += 1;
            if expect.1 == 16 << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
        assert_eq!(
            Directory::locate(u32::MAX - 1).0,
            28,
            "past the slab: no block"
        );
        assert!(Directory::new().block(u32::MAX).is_none());
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
}
