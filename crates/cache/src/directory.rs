//! Per-SSMP cache-line directory: a slab of dense 64-line blocks.

use crate::MissClass;
use parking_lot::HeldLock;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard};

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
/// Attempts a writer spins on a held stripe before it yields its host
/// thread between attempts.
const SPINS: u32 = 64;

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
/// stripe's number modulo 8, behind a sequence lock. An entry exists
/// iff its sharer mask is nonzero, and an owned entry's mask is
/// exactly its owner's bit.
///
/// Every field is an atomic accessed `Relaxed`: a writer holds the
/// stripe ([`lock`](Stripe::lock)) and is the only one storing, and an
/// optimistic reader ([`read_begin`](Stripe::read_begin) …
/// [`read_valid`](Stripe::read_valid)) may load them while a writer
/// stores — which the sequence number then reports, so the reader
/// discards what it saw.
#[derive(Debug, Default)]
struct Stripe {
    /// Even while the stripe is free, odd while it is held; every
    /// release moves it on, so finding it unchanged and even means no
    /// writer came and went.
    seq: AtomicU32,
    /// `chunk + 1` of the chunk the block holds; 0 while it is free.
    holds: AtomicU64,
    /// Per entry, the bitmask of local processors holding the line.
    sharers: [AtomicU64; STRIPES],
    /// Per entry, `proc + 1` of the local processor owning the line
    /// dirty; 0 if none.
    owner: [AtomicU8; STRIPES],
}

impl Stripe {
    fn holds(&self) -> u64 {
        self.holds.load(Relaxed)
    }

    fn sharers(&self, e: usize) -> u64 {
        self.sharers[e].load(Relaxed)
    }

    fn owner(&self, e: usize) -> Option<usize> {
        (self.owner[e].load(Relaxed) as usize).checked_sub(1)
    }

    /// Entries that exist.
    fn live(&self) -> usize {
        (0..STRIPES).filter(|&e| self.sharers(e) != 0).count()
    }

    fn is_empty(&self) -> bool {
        self.sharers.iter().fold(0, |any, s| any | s.load(Relaxed)) == 0
    }

    /// The single chokepoint for taking a stripe: moves `seq` from even
    /// to odd in one read-modify-write — setting the low bit of an even
    /// number adds one, and a stripe found odd is left as it was. (A
    /// load before the write would cost a second trip for the cache
    /// line, which is usually another core's.) A held stripe is watched
    /// with plain loads, spinning briefly, then yielding the host thread
    /// between looks; nobody sleeps on a futex.
    fn acquire(&self) {
        #[cfg(debug_assertions)]
        note_lock(true);
        let mut spins = 0;
        while self.seq.fetch_or(1, Acquire) & 1 != 0 {
            while self.seq.load(Relaxed) & 1 != 0 {
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        // An optimistic reader that sees one of the field stores to
        // come must also see `seq` odd.
        fence(Release);
    }

    /// Gives back a stripe this thread holds: a plain store of the next
    /// even `seq`.
    fn release(&self) {
        let seq = self.seq.load(Relaxed);
        self.seq.store(seq.wrapping_add(1), Release);
    }

    fn lock(&self) -> Held<'_> {
        self.acquire();
        Held {
            stripe: self,
            _held: HeldLock::new(),
        }
    }

    /// Starts an optimistic read: the sequence number to validate
    /// against, or `None` while a writer holds the stripe.
    #[inline]
    fn read_begin(&self) -> Option<u32> {
        let seq = self.seq.load(Acquire);
        (seq & 1 == 0).then_some(seq)
    }

    /// Whether no writer took the stripe since
    /// [`read_begin`](Self::read_begin) returned `seq`, so that every
    /// load in between saw one state.
    #[inline]
    fn read_valid(&self, seq: u32) -> bool {
        fence(Acquire);
        self.seq.load(Relaxed) == seq
    }
}

/// A held stripe, released on drop: the only way to change one.
struct Held<'a> {
    stripe: &'a Stripe,
    _held: HeldLock,
}

impl Deref for Held<'_> {
    type Target = Stripe;
    fn deref(&self) -> &Stripe {
        self.stripe
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.stripe.release();
    }
}

impl Held<'_> {
    fn set_holds(&mut self, holds: u64) {
        self.holds.store(holds, Relaxed);
    }

    fn set(&mut self, e: usize, sharers: u64, owner: Option<usize>) {
        self.sharers[e].store(sharers, Relaxed);
        self.owner[e].store(owner.map_or(0, |p| p as u8 + 1), Relaxed);
    }

    /// Adds `proc` as a sharer of entry `e`; returns the sharer count.
    fn add_sharer(&mut self, e: usize, proc: usize) -> u32 {
        let sharers = self.sharers(e) | 1 << proc;
        self.sharers[e].store(sharers, Relaxed);
        sharers.count_ones()
    }

    /// Makes `proc` the dirty owner and only sharer of entry `e`;
    /// returns how many other sharers that invalidated.
    fn take_exclusive(&mut self, e: usize, proc: usize) -> u32 {
        let others = (self.sharers(e) & !(1 << proc)).count_ones();
        self.set(e, 1 << proc, Some(proc));
        others
    }

    /// Drops `proc`'s copy of entry `e` (and its ownership, if it was
    /// the owner); the last sharer to leave zeroes the entry.
    fn remove(&mut self, e: usize, proc: usize) {
        let sharers = self.sharers(e) & !(1 << proc);
        let owner = self.owner(e).filter(|&o| sharers != 0 && o != proc);
        self.set(e, sharers, owner);
    }

    /// One coherence transaction on entry `e`: classifies the access
    /// from the entry and applies the matching state change.
    /// `tag_hit` is whether the line was already in `proc`'s tag array.
    fn transact(
        &mut self,
        e: usize,
        proc: usize,
        home: usize,
        is_write: bool,
        hw_pointers: usize,
        tag_hit: bool,
    ) -> MissClass {
        let sharer_mask = self.sharers(e);
        let owner = self.owner(e);
        if tag_hit && sharer_mask & (1 << proc) != 0 {
            return if !is_write || owner == Some(proc) {
                MissClass::Hit
            } else if self.take_exclusive(e, proc) > 0 {
                // Write to a shared line: upgrade, invalidating other
                // sharers through the directory.
                MissClass::TwoParty
            } else {
                MissClass::LocalMiss
            };
        }
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
            self.take_exclusive(e, proc);
        } else {
            // Reading a dirty line forces a write-back; the line
            // becomes shared.
            self.set(e, sharer_mask | 1 << proc, None);
        }
        class
    }
}

#[derive(Debug, Default)]
struct Block {
    stripes: [Stripe; STRIPES],
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
/// * A block is eight **stripes**, each behind its own sequence lock;
///   stripe `line & 7` holds the eight entries of the block's lines
///   congruent to it, entry `(line & 63) >> 3`. Two processors collide
///   only on the same eighth of the same block at the same instant.
/// * A stripe records which 64-line **chunk** (`line >> 6`) its block
///   currently holds, or that the block is free. That record is checked
///   *under the stripe's lock* (or inside a validated optimistic read)
///   before an entry is used.
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
/// A stripe is a sequence lock: a writer takes it by moving its
/// sequence number from even to the next, odd one in one atomic
/// read-modify-write, and gives it back with a plain store of the next
/// even one. Nobody sleeps: a writer finding it held spins briefly,
/// then yields its host thread between attempts. A read
/// of an entry that changes nothing (a cache read hit) takes no lock at
/// all: it reads the sequence number, the entry and whatever else it
/// needs, and keeps the answer only if the sequence number is still the
/// even value it started from.
///
/// Two stripes are never held at once outside a recycle or a
/// [`hold`](Self::hold), and nothing takes the index lock while holding
/// a stripe. The index *write* lock is the only lock under which a
/// single stripe is taken: creating a block claims its eight stripes
/// one at a time, recycling one holds all eight (in order) while it
/// checks they are empty and marks them free. A transaction that raced
/// with the recycle either finished before it or fails the chunk check
/// afterwards and re-creates the block. [`hold`](Self::hold) takes
/// whole blocks' stripes, in chunk order, found through a hint or under
/// the index *read* lock.
///
/// Every held stripe carries a [`parking_lot::HeldLock`], so the
/// debug-build check that no task suspends holding a host lock sees it.
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

    fn read_index(&self) -> RwLockReadGuard<'_, Index> {
        #[cfg(debug_assertions)]
        note_lock(false);
        self.index.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn index_lookup(&self, chunk: u64) -> Option<u32> {
        self.read_index().hints.get(&chunk).copied()
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
            let mut stripe = stripe.lock();
            debug_assert!(stripe.holds() == 0 && stripe.is_empty());
            stripe.set_holds(chunk + 1);
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
        let mut stripes = block.stripes.each_ref().map(Stripe::lock);
        if !stripes.iter().all(|s| s.is_empty()) {
            return; // a racing access repopulated it
        }
        for stripe in &mut stripes {
            stripe.set_holds(0);
        }
        index.hints.remove(&chunk);
        index.free.push(hint - 1);
    }

    /// Locks stripe `stripe` of the block holding `chunk`, trying
    /// `hint` first, and returns the guard with the block's true hint.
    /// A chunk with no block is given one if `create()` says so, and
    /// answers `None` otherwise.
    #[inline]
    fn stripe_of(
        &self,
        chunk: u64,
        stripe: usize,
        mut hint: u32,
        create: impl Fn() -> bool,
    ) -> Option<(Held<'_>, u32)> {
        loop {
            if let Some(block) = self.block(hint) {
                let guard = block.stripes[stripe].lock();
                if guard.holds() == chunk + 1 {
                    return Some((guard, hint));
                }
            }
            // The guess was wrong (or the block was recycled between
            // the index's answer and the lock): ask the index.
            hint = match self.index_lookup(chunk) {
                Some(hint) => hint,
                None if create() => self.create(chunk),
                None => return None,
            };
        }
    }

    /// Serves a read of `line` by `proc` without taking a lock, if the
    /// block `hint` names holds the line and lists `proc` as a sharer:
    /// `load` runs inside the optimistic read (it may refuse, too), and
    /// its answer is kept only if no writer took the stripe meanwhile.
    /// Stores nothing. `None`: take the lock instead.
    #[inline]
    pub(crate) fn read_shared<R>(
        &self,
        line: u64,
        proc: usize,
        hint: u32,
        load: impl FnOnce() -> Option<R>,
    ) -> Option<R> {
        let (chunk, stripe, e) = place(line);
        let stripe = &self.block(hint)?.stripes[stripe];
        let seq = stripe.read_begin()?;
        if stripe.holds() != chunk + 1 || stripe.sharers(e) & (1 << proc) == 0 {
            return None;
        }
        let value = load()?;
        stripe.read_valid(seq).then_some(value)
    }

    /// Locks the stripe holding `line`'s entry, trying `hint` first. A
    /// chunk with no block is given one if `create()` says so, and
    /// answers `None` otherwise — so a caller can refuse before a block
    /// exists that it would leave empty.
    #[inline]
    pub(crate) fn lock_line(
        &self,
        line: u64,
        hint: u32,
        create: impl Fn() -> bool,
    ) -> Option<LineGuard<'_>> {
        let (chunk, stripe, entry) = place(line);
        let (held, hint) = self.stripe_of(chunk, stripe, hint, create)?;
        Some(LineGuard {
            directory: self,
            held,
            place: (chunk, stripe),
            entry,
            hint,
        })
    }

    /// Removes `proc`'s copy of `line`, trying `hint` first; a line
    /// whose chunk has no block has no copies.
    fn remove_hinted(&self, line: u64, proc: usize, hint: u32) {
        let (chunk, stripe, e) = place(line);
        if let Some((mut entries, _)) = self.stripe_of(chunk, stripe, hint, || false) {
            entries.remove(e, proc);
        }
    }

    /// `line`'s stripe, locked, and its entry's index there, with no
    /// hint to go by; `None` if the line's chunk has no block and
    /// `create` is false.
    fn entry_of(&self, line: u64, create: bool) -> Option<(Held<'_>, usize)> {
        let (chunk, stripe, e) = place(line);
        let (entries, _) = self.stripe_of(chunk, stripe, Self::NO_HINT, || create)?;
        Some((entries, e))
    }

    /// Is `proc` currently a sharer of `line`?
    pub fn is_sharer(&self, line: u64, proc: usize) -> bool {
        self.entry_of(line, false)
            .is_some_and(|(entries, e)| entries.sharers(e) & (1 << proc) != 0)
    }

    /// Adds `proc` as a sharer of `line`. Returns the resulting number
    /// of sharers (used for the LimitLESS overflow check).
    pub fn add_sharer(&self, line: u64, proc: usize) -> u32 {
        let (mut entries, e) = self
            .entry_of(line, true)
            .expect("a creating lookup finds a block");
        entries.add_sharer(e, proc)
    }

    /// Removes `proc` as a sharer (e.g. on eviction from its cache). If
    /// `proc` was the dirty owner, ownership is dropped (write-back).
    pub fn remove_sharer(&self, line: u64, proc: usize) {
        self.remove_hinted(line, proc, Self::NO_HINT);
    }

    /// Information needed to classify a miss: `(sharer_count,
    /// dirty_owner)`.
    pub fn probe(&self, line: u64) -> (u32, Option<usize>) {
        match self.entry_of(line, false) {
            Some((entries, e)) => (entries.sharers(e).count_ones(), entries.owner(e)),
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
                let sharers = entries.sharers(e);
                entries.set(e, sharers, None);
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
        mut visit: impl FnMut(Option<&mut Held<'_>>, u64),
    ) {
        let mut block = |chunk: u64, mask: u64| {
            let mut hint = hint;
            let mut emptied = 0;
            for stripe in 0..STRIPES {
                let lanes = mask >> stripe & 0x0101_0101_0101_0101;
                if lanes == 0 {
                    continue;
                }
                match self.stripe_of(chunk, stripe, hint, || create) {
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
                // An entry that does not exist is all zero already.
                if entries.sharers(e) == 0 {
                    out.uncached_lines += 1;
                    continue;
                }
                if entries.owner(e).is_some() {
                    out.dirty_lines += 1;
                } else {
                    out.shared_lines += 1;
                }
                entries.set(e, 0, None);
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

    /// Holds every stripe of the blocks that cover `lines`, in chunk
    /// order, until the guard drops: no access to those lines can
    /// complete meanwhile — a locked one waits for its stripe, an
    /// optimistic read fails its validation. `hint` is the caller's
    /// guess at the block (of a page no larger than one). Creates
    /// nothing: a chunk with no block is kept from getting one by the
    /// index read lock, which the guard then holds too (creating a
    /// block takes the write lock).
    ///
    /// This is how a page frame is quiesced (`PageFrame::quiesce`): the
    /// data and mapping generation of a frame are only ever touched by
    /// accesses under its lines' stripes.
    pub fn hold(&self, lines: Range<u64>, hint: u32) -> HeldLines<'_> {
        let chunks = lines.start / BLOCK_LINES..lines.end.div_ceil(BLOCK_LINES);
        // First through the hint alone; failing that, through the index
        // under its read lock, where nothing is midway through a create
        // or a recycle.
        let mut index: Option<RwLockReadGuard<'_, Index>> = None;
        loop {
            let mut held = HeldLines {
                blocks: [None; HELD_INLINE],
                more: Vec::new(),
                index: None,
                _held: HeldLock::new(),
            };
            let mut valid = true;
            for (i, chunk) in chunks.clone().enumerate() {
                let block = match &index {
                    None => match self.block(hint) {
                        Some(block) if block.stripes[0].holds() == chunk + 1 => block,
                        _ => {
                            valid = false;
                            break;
                        }
                    },
                    Some(index) => match index.hints.get(&chunk).and_then(|&h| self.block(h)) {
                        Some(block) => block,
                        None => continue,
                    },
                };
                // Without the index lock the block may have been recycled
                // or be mid-create by now: its stripes say so.
                for stripe in &block.stripes {
                    stripe.acquire();
                    valid &= stripe.holds() == chunk + 1;
                }
                match held.blocks.get_mut(i) {
                    Some(slot) => *slot = Some(block),
                    None => held.more.push(block),
                }
            }
            if valid {
                // With every block held the index matters no more: none
                // can be recycled, and no chunk is left to create one.
                if held.blocks().count() < chunks.clone().count() {
                    held.index = index;
                }
                return held;
            }
            debug_assert!(index.is_none(), "nothing changes under the index lock");
            drop(held);
            index = Some(self.read_index());
        }
    }

    /// Total number of tracked lines (for tests/statistics).
    pub fn tracked_lines(&self) -> usize {
        (1..=self.blocks_allocated())
            .filter_map(|hint| self.block(hint))
            .flat_map(|block| &block.stripes)
            .map(|stripe| stripe.lock().live())
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

/// `line`'s stripe, held for one access ([`Directory::lock_line`]).
pub(crate) struct LineGuard<'a> {
    directory: &'a Directory,
    held: Held<'a>,
    /// `(chunk, stripe)` of the line.
    place: (u64, usize),
    entry: usize,
    hint: u32,
}

impl LineGuard<'_> {
    /// The true hint of the line's block, for the caller to remember.
    pub(crate) fn hint(&self) -> u32 {
        self.hint
    }

    /// The line's coherence transaction: classifies the access and
    /// applies the state change. `tag_hit` is whether the line was
    /// already in `proc`'s tag array. Observably identical to the
    /// unfused sequence `is_sharer` / `probe` / `take_exclusive` /
    /// `downgrade` / `add_sharer` that `tests/transact_oracle.rs` keeps
    /// as the reference.
    pub(crate) fn transact(
        &mut self,
        proc: usize,
        home: usize,
        is_write: bool,
        hw_pointers: usize,
        tag_hit: bool,
    ) -> MissClass {
        self.held
            .transact(self.entry, proc, home, is_write, hw_pointers, tag_hit)
    }

    /// Releases the line's stripe, removing `proc`'s copy of the victim
    /// its tag array displaced (with the hint remembered beside the
    /// victim's tag): under the line's stripe if the victim shares it,
    /// as in an 8-set cache, and under the victim's own after the
    /// line's is released otherwise.
    pub(crate) fn evict(mut self, victim: Option<(u64, u32)>, proc: usize) {
        let Some((victim, hint)) = victim else {
            return;
        };
        let (chunk, stripe, e) = place(victim);
        if (chunk, stripe) == self.place {
            self.held.remove(e, proc);
        } else {
            let directory = self.directory;
            drop(self);
            directory.remove_hinted(victim, proc, hint);
        }
    }
}

/// Blocks a [`HeldLines`] keeps without allocating: one 4 KB page's.
const HELD_INLINE: usize = 4;

/// Every stripe of the blocks covering some lines, held
/// ([`Directory::hold`]); released on drop.
pub struct HeldLines<'a> {
    /// The blocks held, in chunk order, as far as they fit inline.
    blocks: [Option<&'a Block>; HELD_INLINE],
    /// The rest, for pages larger than 4 KB.
    more: Vec<&'a Block>,
    /// Held if a chunk has no block.
    index: Option<RwLockReadGuard<'a, Index>>,
    _held: HeldLock,
}

impl HeldLines<'_> {
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks
            .iter()
            .flatten()
            .chain(self.more.iter())
            .copied()
    }
}

impl Drop for HeldLines<'_> {
    fn drop(&mut self) {
        for block in self.blocks() {
            for stripe in &block.stripes {
                stripe.release();
            }
        }
    }
}

impl fmt::Debug for HeldLines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeldLines")
            .field("blocks", &self.blocks().count())
            .field("index", &self.index.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hint of the block holding `line`, if it has one.
    fn hint_of(d: &Directory, line: u64) -> u32 {
        d.index_lookup(line / BLOCK_LINES)
            .unwrap_or(Directory::NO_HINT)
    }

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
    fn default_and_new_both_track_lines() {
        for d in [Directory::default(), Directory::new()] {
            assert!(!d.is_sharer(1, 0));
            assert_eq!(d.take_exclusive(1, 0), 0);
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

    /// A resident default-size page is cleaned under eight stripe
    /// locks, found through the hint with no index lookup; emptying the
    /// block adds one recycle (the index lock, then the eight stripes).
    #[test]
    fn clean_page_walks_one_block_and_recycles_it() {
        let d = Directory::new();
        d.add_sharer(1000, 0);
        d.take_exclusive(64, 1);
        let hint = hint_of(&d, 64);
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
        d.add_sharer(6400, 2);
        assert_eq!(hint_of(&d, 6400), hint);
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

    // -----------------------------------------------------------------
    // The sequence lock
    // -----------------------------------------------------------------

    /// A read that finds the line's stripe held fails at once, and
    /// succeeds, unchanged, once the stripe is free again.
    #[test]
    fn an_optimistic_read_fails_while_the_stripe_is_held() {
        let d = Directory::new();
        d.add_sharer(70, 3);
        let hint = hint_of(&d, 70);
        let read = || d.read_shared(70, 3, hint, || Some(7));
        assert_eq!(read(), Some(7));
        let held = d.hold(64..128, hint);
        assert_eq!(read(), None, "stripe held by a quiesce");
        drop(held);
        let (_, stripe, _) = place(70);
        let guard = d.block(hint).unwrap().stripes[stripe].lock();
        assert_eq!(read(), None, "stripe held by a writer");
        drop(guard);
        assert_eq!(read(), Some(7));
        assert_eq!(d.read_shared(70, 2, hint, || Some(7)), None, "not a sharer");
        assert_eq!(
            d.read_shared(70, 3, hint + 1, || Some(7)),
            None,
            "wrong hint"
        );
    }

    /// A writer that takes and gives back the stripe between the two
    /// reads of its sequence number makes the read fail, even though
    /// the stripe is free again by then and the entry looks the same.
    #[test]
    fn validation_catches_a_write_in_between() {
        let d = Directory::new();
        d.add_sharer(70, 3);
        let hint = hint_of(&d, 70);
        let (_, stripe, _) = place(70);
        let stripe = &d.block(hint).unwrap().stripes[stripe];
        let seq = stripe.read_begin().expect("free");
        drop(stripe.lock());
        assert!(!stripe.read_valid(seq));
        // Through the whole read: the load itself lets a writer in.
        let got = d.read_shared(70, 3, hint, || {
            d.add_sharer(70 + 8, 1); // another entry of the same stripe
            Some(())
        });
        assert_eq!(got, None);
        let seq = stripe.read_begin().expect("free");
        assert!(stripe.read_valid(seq), "no writer: valid");
    }

    /// `hold` takes every stripe of each covering block and creates
    /// nothing; its guard counts as a held host lock.
    #[test]
    fn hold_locks_whole_blocks_and_creates_none() {
        let d = Directory::new();
        d.add_sharer(64 * 3 + 5, 0); // chunk 3 only
        let allocated = d.blocks_allocated();
        let hint = hint_of(&d, 64 * 3);
        let seqs = || {
            d.block(hint)
                .unwrap()
                .stripes
                .each_ref()
                .map(|s| s.seq.load(Relaxed))
        };
        let before_seqs = seqs();
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let held = d.hold(64..64 * 5, hint); // a 4 KB page: chunks 1 to 4
        #[cfg(debug_assertions)]
        assert_eq!(
            Directory::thread_locks(),
            (before.0 + 8, before.1 + 1),
            "the hint names chunk 3's block, not chunk 1's: the index read \
             lock, and the one existing block's eight stripes"
        );
        assert_eq!(
            parking_lot::held_locks(),
            usize::from(cfg!(debug_assertions))
        );
        assert_eq!(d.blocks_allocated(), allocated);
        assert_eq!(seqs(), before_seqs.map(|s| s + 1), "every stripe held");
        drop(held);
        assert_eq!(parking_lot::held_locks(), 0);
        assert_eq!(seqs(), before_seqs.map(|s| s + 2), "and given back");
        // Half a block (512 B pages) holds the whole block.
        let held = d.hold(64 * 3 + 32..64 * 4, Directory::NO_HINT);
        assert!(d.read_shared(64 * 3 + 5, 0, hint, || Some(())).is_none());
        drop(held);
        assert!(d.read_shared(64 * 3 + 5, 0, hint, || Some(())).is_some());
    }

    /// Writers on one stripe from four threads, and readers validating
    /// optimistically beside them: the counts add up, and no validated
    /// read ever saw an entry between a writer's two stores.
    #[test]
    fn optimistic_readers_never_see_half_a_write() {
        const THREADS: usize = 4;
        let d = Directory::new();
        d.add_sharer(70, 0);
        let hint = hint_of(&d, 70);
        let (_, s, e) = place(70);
        let stripe = &d.block(hint).unwrap().stripes[s];
        let start = stripe.seq.load(Relaxed);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let d = &d;
                scope.spawn(move || {
                    for _ in 0..20_000 {
                        if t % 2 == 0 {
                            // Two stores that a reader must see both
                            // or neither of.
                            let mut held = stripe.lock();
                            held.set(e, 0b11, Some(1));
                            held.set(e, 0b01, None);
                        } else if let Some((sharers, owner)) = d
                            .read_shared(70, 0, hint, || Some((stripe.sharers(e), stripe.owner(e))))
                        {
                            assert_eq!((sharers, owner), (0b01, None));
                        }
                    }
                });
            }
        });
        let writes = THREADS as u32 / 2 * 20_000;
        assert_eq!(stripe.seq.load(Relaxed), start + 2 * writes);
    }
}
