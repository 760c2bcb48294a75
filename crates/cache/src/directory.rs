//! Per-SSMP cache-line directory: a slab of dense 64-line blocks.

use crate::MissClass;
use parking_lot::{HeldLock, Mutex};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8};
use std::sync::{Arc, OnceLock};

/// Lines per block: a chunk, `line >> 6`.
pub(crate) const BLOCK_LINES: u64 = 64;
/// Lock stripes per block; also the entries per stripe.
const STRIPES: usize = 8;
/// Blocks in the first segment (as a power of two); segment `k` holds
/// `1 << (FIRST_SEGMENT_BITS + k)`.
const FIRST_SEGMENT_BITS: u32 = 4;
/// Segments the slab can grow to: 16 × (2²⁰ − 1) blocks, 16 GB of
/// simulated memory in the frames one SSMP has touched. Every slot fits
/// the memo a tag array keeps beside a line.
const SEGMENTS: usize = 20;
/// Attempts a writer spins on a held stripe before it yields its host
/// thread between attempts.
const SPINS: u32 = 64;

#[cfg(debug_assertions)]
thread_local! {
    /// Stripe lock acquisitions by this thread (debug builds only): the
    /// access path asserts that a locked access costs one.
    static STRIPE_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        STRIPE_LOCKS.with(|c| c.set(c.get() + 1));
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

    /// Makes `proc` the dirty owner and only sharer of entry `e`;
    /// returns how many other sharers that invalidated.
    fn own(&mut self, e: usize, proc: usize) -> u32 {
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
            } else if self.own(e, proc) > 0 {
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
            self.own(e, proc);
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

impl Block {
    /// Empties the entries of the lines `mask` selects (one bit per line
    /// of the chunk), counting each live one in `out` as dirty or
    /// shared. Locks each stripe it touches once.
    fn clean(&self, mask: u64, out: &mut CleanOutcome) {
        for (stripe, lanes) in stripes_of(mask) {
            let mut entries = self.stripes[stripe].lock();
            for e in entries_of(lanes) {
                if entries.sharers(e) == 0 {
                    continue;
                }
                if entries.owner(e).is_some() {
                    out.dirty_lines += 1;
                } else {
                    out.shared_lines += 1;
                }
                entries.set(e, 0, None);
            }
        }
    }

    /// Makes `proc` the dirty owner of the lines `mask` selects. Locks
    /// each stripe it touches once.
    fn mark_dirty(&self, mask: u64, proc: usize) {
        for (stripe, lanes) in stripes_of(mask) {
            let mut entries = self.stripes[stripe].lock();
            for e in entries_of(lanes) {
                entries.own(e, proc);
            }
        }
    }
}

/// Where a line's entry is: `(chunk, stripe, entry)`.
#[inline]
fn place(line: u64) -> (u64, usize, usize) {
    let within = (line % BLOCK_LINES) as usize;
    (line / BLOCK_LINES, within % STRIPES, within / STRIPES)
}

/// Splits `lines` into runs that each fall in one chunk without
/// repeating a line, and calls `visit(chunk, mask)` for each, with one
/// bit of `mask` per line of the chunk.
fn chunk_runs(lines: impl IntoIterator<Item = u64>, mut visit: impl FnMut(u64, u64)) {
    let (mut chunk, mut mask) = (0, 0u64);
    for line in lines {
        let bit = 1 << (line % BLOCK_LINES);
        if line / BLOCK_LINES != chunk || mask & bit != 0 {
            if mask != 0 {
                visit(chunk, mask);
            }
            (chunk, mask) = (line / BLOCK_LINES, 0);
        }
        mask |= bit;
    }
    if mask != 0 {
        visit(chunk, mask);
    }
}

/// What [`chunk_runs`] visits for the contiguous run `lines`, each
/// chunk's mask computed from the run's ends.
fn range_runs(lines: Range<u64>, mut visit: impl FnMut(u64, u64)) {
    if lines.is_empty() {
        return;
    }
    for chunk in lines.start / BLOCK_LINES..lines.end.div_ceil(BLOCK_LINES) {
        let base = chunk * BLOCK_LINES;
        let lo = lines.start.max(base) - base;
        let hi = lines.end.min(base + BLOCK_LINES) - base;
        visit(chunk, u64::MAX >> (BLOCK_LINES - (hi - lo)) << lo);
    }
}

/// The stripes a chunk mask touches, each with its lines in it as
/// [`entries_of`] reads them.
fn stripes_of(mask: u64) -> impl Iterator<Item = (usize, u64)> {
    (0..STRIPES)
        .map(move |stripe| (stripe, mask >> stripe & 0x0101_0101_0101_0101))
        .filter(|&(_, lanes)| lanes != 0)
}

/// The entries of a stripe that `lanes` selects: entry `e` iff bit
/// `8 * e` is set.
fn entries_of(lanes: u64) -> impl Iterator<Item = usize> {
    (0..STRIPES).filter(move |e| lanes >> (e * STRIPES) & 1 != 0)
}

/// The blocks of one directory and the record of which are free. The
/// directory and every frame holding a claim on some of them share it,
/// so a frame that outlives its directory still frees into a live slab.
#[derive(Debug)]
struct Slab {
    segments: [OnceLock<Box<[Block]>>; SEGMENTS],
    /// A leaf lock, held for one take or give-back.
    free: Mutex<Free>,
}

/// Which slots may be handed out.
#[derive(Debug, Default)]
struct Free {
    /// `runs[k]`: the first slots of freed runs of `1 << k` blocks,
    /// reused last-in first-out.
    runs: Vec<Vec<u32>>,
    /// Slots ever handed out, skipped ones included.
    next: u32,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            segments: [const { OnceLock::new() }; SEGMENTS],
            free: Mutex::default(),
        }
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

    /// The block a hint names, if the slab has one there.
    #[inline]
    fn block(&self, hint: u32) -> Option<&Block> {
        let (segment, offset) = Self::locate(hint.checked_sub(1)?);
        self.segments.get(segment)?.get()?.get(offset)
    }

    /// The run of `blocks` blocks from `slot` on, as one slice: a run
    /// never straddles two segments.
    fn run(&self, slot: u32, blocks: u32) -> &[Block] {
        let (segment, offset) = Self::locate(slot);
        let segment = self.segments[segment]
            .get()
            .expect("a run's segment exists");
        &segment[offset..offset + blocks as usize]
    }

    /// Hands out a run of `blocks` zeroed blocks, `blocks` a power of
    /// two, and returns its first slot: a freed run of that length if
    /// there is one, else the next that fits in one segment at an
    /// offset that is a multiple of its length (the slots it skips are
    /// never used).
    fn take(&self, blocks: u32) -> u32 {
        debug_assert!(blocks.is_power_of_two());
        let mut free = self.free.lock();
        let k = blocks.trailing_zeros() as usize;
        if let Some(slot) = free.runs.get_mut(k).and_then(Vec::pop) {
            return slot;
        }
        loop {
            let (segment, offset) = Self::locate(free.next);
            assert!(segment < SEGMENTS, "directory slab exhausted");
            let len = 1usize << (FIRST_SEGMENT_BITS as usize + segment);
            let start = offset.next_multiple_of(blocks as usize);
            if start + blocks as usize > len {
                free.next += (len - offset) as u32;
                continue;
            }
            self.segments[segment].get_or_init(|| zeroed_blocks(len));
            let slot = free.next + (start - offset) as u32;
            free.next = slot + blocks;
            return slot;
        }
    }

    /// Zeroes every entry of the run from `slot` and marks its blocks
    /// free, under each stripe's lock (a victim's removal may be on
    /// one), then puts the run on the free list.
    fn free(&self, slot: u32, blocks: u32) {
        for block in self.run(slot, blocks) {
            for stripe in &block.stripes {
                let mut stripe = stripe.lock();
                for e in 0..STRIPES {
                    stripe.set(e, 0, None);
                }
                stripe.set_holds(0);
            }
        }
        let k = blocks.trailing_zeros() as usize;
        let mut free = self.free.lock();
        if free.runs.len() <= k {
            free.runs.resize_with(k + 1, Vec::new);
        }
        free.runs[k].push(slot);
    }
}

/// `len` free blocks in memory the allocator hands out zeroed, so the
/// pages of a segment cost no resident memory until a block on them is
/// claimed.
fn zeroed_blocks(len: usize) -> Box<[Block]> {
    let layout = std::alloc::Layout::array::<Block>(len).expect("a segment fits in memory");
    // SAFETY: `layout` is not empty (`len` ≥ 16). A block is atomic
    // integers and nothing else, and an atomic integer is valid with
    // any bits, all zeros being its zero value: `len` zeroed blocks are
    // `len` blocks equal to `Block::default()`. The memory comes from
    // the global allocator with the layout `Box` frees it with.
    unsafe {
        let blocks = std::alloc::alloc_zeroed(layout).cast::<Block>();
        if blocks.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(blocks, len))
    }
}

/// A directory-slot cell: the run of blocks, in one directory's slab,
/// that holds some lines' entries. The directory that makes it
/// ([`Directory::cell`]) and the lines it covers are bound when it is
/// made: a page frame's cell is made by its allocator, in the directory
/// of its home node's SSMP, and for lines with no frame
/// [`SsmpCacheSystem`] makes one per chunk. Empty when made; the first
/// access, quiesce or dirty-marking claims the run ([`hint`](Self::hint)),
/// which is then the cell's alone and never moves; dropping the cell —
/// the frame dies — zeroes the run and frees it.
///
/// A frame is aligned to its size, so its lines are half a block (a
/// 512 B page, whose block's other half stays zero), one block, or a
/// power of two of them; a bare chunk's lines are one block.
///
/// [`SsmpCacheSystem`]: crate::SsmpCacheSystem
#[derive(Debug)]
pub struct BlockCell {
    slab: Arc<Slab>,
    lines: Range<u64>,
    /// The run's first slot, once claimed.
    slot: OnceLock<u32>,
}

impl Drop for BlockCell {
    fn drop(&mut self) {
        if let Some(&slot) = self.slot.get() {
            self.slab.free(slot, self.blocks());
        }
    }
}

impl BlockCell {
    /// The lines the cell covers.
    pub fn lines(&self) -> Range<u64> {
        self.lines.clone()
    }

    /// The chunk the run's first block holds.
    fn chunk(&self) -> u64 {
        self.lines.start / BLOCK_LINES
    }

    /// Blocks in the run.
    fn blocks(&self) -> u32 {
        (self.lines.end.div_ceil(BLOCK_LINES) - self.chunk()) as u32
    }

    /// The run's first slot, taken from the slab on first use. Takes no
    /// stripe lock: a run off the free list is zero and reachable by
    /// nobody else, so its chunks are written plainly and published with
    /// the slot.
    #[inline]
    fn slot(&self) -> u32 {
        *self.slot.get_or_init(|| {
            let slot = self.slab.take(self.blocks());
            for (chunk, block) in (self.chunk()..).zip(self.slab.run(slot, self.blocks())) {
                for stripe in &block.stripes {
                    debug_assert!(
                        stripe.holds() == 0 && stripe.is_empty(),
                        "a free block is zero"
                    );
                    stripe.holds.store(chunk + 1, Relaxed);
                }
            }
            slot
        })
    }

    /// The run, claimed on first use.
    fn run(&self) -> &[Block] {
        self.slab.run(self.slot(), self.blocks())
    }

    /// The hint of `line`'s block, claiming the run on first use: right
    /// by construction for as long as the cell lives.
    #[inline]
    pub fn hint(&self, line: u64) -> u32 {
        self.slot() + 1 + (line / BLOCK_LINES - self.chunk()) as u32
    }

    /// Holds every stripe of the run (claiming it on first use), in
    /// order, until the guard drops: no access to the cell's lines can
    /// complete meanwhile — a locked one waits for its stripe, an
    /// optimistic read fails its validation.
    ///
    /// This is how a page frame is quiesced (`PageFrame::quiesce`): the
    /// data and mapping generation of a frame are only ever touched by
    /// accesses under its lines' stripes.
    pub fn hold(&self) -> HeldLines<'_> {
        let blocks = self.run();
        for stripe in blocks.iter().flat_map(|block| &block.stripes) {
            stripe.acquire();
        }
        HeldLines {
            blocks,
            _held: HeldLock::new(),
        }
    }

    /// Removes every line of the cell from the directory (page
    /// cleaning, §4.2.4) and returns the per-tier line counts so the
    /// caller can cost the operation. Each block's mask comes from the
    /// range's ends, not from a walk of its lines.
    ///
    /// One pass: each block locks each stripe it touches once and reads
    /// its entries in a straight loop. A cell never used has no blocks:
    /// every line is uncached, and no lock is taken.
    pub fn clean(&self) -> CleanOutcome {
        self.clean_runs(|visit| range_runs(self.lines(), visit))
    }

    /// [`clean`](Self::clean) of `lines`, some of the cell's, walked one
    /// by one: the bare-line path passes a chunk's cell and the lines
    /// asked for. A line named twice is cleaned twice: cached the first
    /// time, uncached the second.
    ///
    /// # Panics
    ///
    /// Panics if the cell has claimed its blocks and a line lies outside
    /// them.
    pub fn clean_lines(&self, lines: impl IntoIterator<Item = u64>) -> CleanOutcome {
        self.clean_runs(|visit| chunk_runs(lines, visit))
    }

    /// Cleans the lines of each `(chunk, mask)` that `runs` visits.
    fn clean_runs(&self, runs: impl FnOnce(&mut dyn FnMut(u64, u64))) -> CleanOutcome {
        let mut out = CleanOutcome::default();
        let blocks = self
            .slot
            .get()
            .map(|&slot| self.slab.run(slot, self.blocks()));
        runs(&mut |chunk, mask| {
            out.uncached_lines += u64::from(mask.count_ones());
            if let Some(blocks) = blocks {
                blocks[(chunk - self.chunk()) as usize].clean(mask, &mut out);
            }
        });
        out.uncached_lines -= out.shared_lines + out.dirty_lines;
        out
    }

    /// Marks `dirty`, some of the cell's lines, dirty-owned by `proc`
    /// (used when the protocol engine writes a diff or a push through
    /// its cache), claiming the run on first use. Each run of lines in
    /// one block locks each stripe it touches once.
    pub fn mark_dirty(&self, dirty: impl IntoIterator<Item = u64>, proc: usize) {
        let blocks = self.run();
        chunk_runs(dirty, |chunk, mask| {
            blocks[(chunk - self.chunk()) as usize].mark_dirty(mask, proc);
        });
    }
}

/// The SSMP's line directory: the source of truth for intra-SSMP
/// hardware coherence state. Processor indices are *local* to the SSMP
/// (0..C, C ≤ 64).
///
/// # Layout
///
/// On Alewife a line's directory entry sits at the line's home memory,
/// beside the data. The model keeps that shape: the directory is a slab
/// of dense **blocks**, each holding the entries of 64 consecutive
/// physical lines (a **chunk**, `line >> 6`: 1 KB, one default page),
/// and a line's entry is found by indexing its cell's block, never by
/// hashing the line.
///
/// * A block is eight **stripes**, each behind its own sequence lock;
///   stripe `line & 7` holds the eight entries of the block's lines
///   congruent to it, entry `(line & 63) >> 3`. Two processors collide
///   only on the same eighth of the same block at the same instant.
/// * A stripe records which chunk its block holds, or that the block is
///   free. A hint is `slot + 1`, and 0 names no block.
/// * Every block is claimed by a [`BlockCell`], which the directory
///   makes for some lines ([`cell`](Self::cell)) and which claims a run
///   of blocks on first use, with no stripe lock, and keeps it, with
///   the same hint, until it drops. Every path reaches a line's entry
///   through its cell — an access with the cell's
///   [`hint`](BlockCell::hint), a quiesce ([`hold`](BlockCell::hold)),
///   a page clean ([`clean`](BlockCell::clean)), a dirty-marking
///   ([`mark_dirty`](BlockCell::mark_dirty)) — and the hint is right by
///   construction. The directory knows no line outside a cell, and a
///   cell knows no directory but the one that made it.
/// * A page frame carries its own cell, made in the directory of its
///   home node's SSMP when the frame is. A frame's lines are never
///   reused (frames never reuse a base), so when the frame dies its run
///   is zeroed and freed, and a block that no longer holds a line's
///   chunk means the line's frame is dead. A tag array's memo beside a
///   line ([`ProcCache`]) is the hint of the line's block; a victim
///   whose memo names a block holding another chunk has no entry left
///   to remove.
/// * A line with no frame (a **bare line**) has its chunk's cell in
///   [`SsmpCacheSystem`]'s line map, and then takes the frame path.
/// * Blocks live in segments that double in size, each allocated on
///   first use. The slab is as large as the cells that were touched and
///   are still alive.
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
/// Two stripes are never held at once outside a
/// [`hold`](BlockCell::hold),
/// which takes every stripe of a frame's run in order; freeing a run
/// and cleaning a frame take its stripes one at a time. The free list
/// is a leaf lock.
///
/// Every held stripe carries a [`parking_lot::HeldLock`], so the
/// debug-build check that no task suspends holding a host lock sees it.
///
/// [`ProcCache`]: crate::ProcCache
/// [`SsmpCacheSystem`]: crate::SsmpCacheSystem
///
/// # Example
///
/// ```
/// use mgs_cache::Directory;
///
/// // A frame's lines, 64..128, and the cell it carries.
/// let dir = Directory::new();
/// let cell = dir.cell(64..128);
/// cell.mark_dirty([70, 71], 2);
/// assert_eq!(dir.tracked_lines(), 2);
/// let out = cell.clean();
/// assert_eq!((out.dirty_lines, out.uncached_lines), (2, 62));
/// assert_eq!(dir.tracked_lines(), 0);
/// ```
///
/// A clone is another handle on the same directory.
#[derive(Debug, Clone)]
pub struct Directory {
    slab: Arc<Slab>,
}

impl Default for Directory {
    fn default() -> Directory {
        Directory::new()
    }
}

impl Directory {
    /// Creates an empty directory. Allocates no block: the first
    /// segment appears with the first line tracked.
    pub fn new() -> Directory {
        Directory {
            slab: Arc::new(Slab::new()),
        }
    }

    /// A cell for `lines`, bound to this directory: it claims their
    /// blocks here on first use, and nowhere else.
    pub fn cell(&self, lines: Range<u64>) -> BlockCell {
        BlockCell {
            slab: Arc::clone(&self.slab),
            lines,
            slot: OnceLock::new(),
        }
    }

    /// Stripe lock acquisitions made by the calling thread so far
    /// (debug builds only; used by the access path's one-stripe-lock
    /// assertion and tests).
    #[cfg(debug_assertions)]
    pub fn thread_locks() -> u64 {
        STRIPE_LOCKS.with(|c| c.get())
    }

    /// The block a hint names, if this directory has one there.
    #[inline]
    fn block(&self, hint: u32) -> Option<&Block> {
        self.slab.block(hint)
    }

    /// Locks the stripe holding `line`'s entry in the block `hint`
    /// names, a live cell's claimed block.
    ///
    /// # Panics
    ///
    /// Panics if that block does not hold the line: the hint is not
    /// the line's cell's, or not of this directory.
    #[inline]
    pub(crate) fn lock_claimed(&self, line: u64, hint: u32) -> LineGuard<'_> {
        let (chunk, stripe, entry) = place(line);
        let held = self.claimed(hint).stripes[stripe].lock();
        assert_eq!(
            held.holds(),
            chunk + 1,
            "a live cell's block holds its lines"
        );
        LineGuard {
            directory: self,
            held,
            place: (chunk, stripe),
            entry,
            hint,
        }
    }

    /// The block `hint` names, a live cell's.
    fn claimed(&self, hint: u32) -> &Block {
        self.block(hint)
            .expect("a cell's hint names a block of its directory")
    }

    /// Removes `proc`'s copy of `line` from the block its memo `hint`
    /// names; a block that no longer holds the line's chunk belonged to
    /// a frame that has died, and its entries with it.
    fn remove_claimed(&self, line: u64, proc: usize, hint: u32) {
        let (chunk, stripe, e) = place(line);
        if let Some(block) = self.block(hint) {
            let mut entries = block.stripes[stripe].lock();
            if entries.holds() == chunk + 1 {
                entries.remove(e, proc);
            }
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

    /// Total number of tracked lines (for tests/statistics).
    pub fn tracked_lines(&self) -> usize {
        (1..=self.blocks_allocated())
            .filter_map(|hint| self.block(hint))
            .flat_map(|block| &block.stripes)
            .map(|stripe| stripe.lock().live())
            .sum()
    }

    /// Slots the slab has ever handed out, in use, free or skipped
    /// (for the bounded-memory tests).
    pub fn blocks_allocated(&self) -> u32 {
        self.slab.free.lock().next
    }
}

/// `line`'s stripe, held for one access ([`Directory::lock_claimed`]).
pub(crate) struct LineGuard<'a> {
    directory: &'a Directory,
    held: Held<'a>,
    /// `(chunk, stripe)` of the line.
    place: (u64, usize),
    entry: usize,
    hint: u32,
}

impl LineGuard<'_> {
    /// The line's entry: its sharer mask, one bit per local processor,
    /// and its dirty owner.
    pub(crate) fn entry(&self) -> (u64, Option<usize>) {
        (self.held.sharers(self.entry), self.held.owner(self.entry))
    }

    /// The line's coherence transaction: classifies the access and
    /// applies the state change. `tag_hit` is whether the line was
    /// already in `proc`'s tag array. Observably identical to the
    /// hashed per-line directory's transaction that
    /// `tests/directory_oracle.rs` keeps as the reference.
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
    /// victim's tag): under the line's stripe if the victim's entry is
    /// in it, as in an 8-set cache, and under the victim's own after
    /// the line's is released otherwise. A line has its block only
    /// through its memo (two 512 B frames share a chunk, not a block),
    /// and a victim whose block holds another chunk now is skipped.
    pub(crate) fn evict(mut self, victim: Option<(u64, u32)>, proc: usize) {
        let Some((victim, hint)) = victim else {
            return;
        };
        let (chunk, stripe, e) = place(victim);
        if (chunk, stripe) == self.place && hint == self.hint {
            self.held.remove(e, proc);
            return;
        }
        let directory = self.directory;
        drop(self);
        directory.remove_claimed(victim, proc, hint);
    }
}

/// Every stripe of a frame's blocks, held ([`BlockCell::hold`]);
/// released on drop.
pub struct HeldLines<'a> {
    blocks: &'a [Block],
    _held: HeldLock,
}

impl Drop for HeldLines<'_> {
    fn drop(&mut self) {
        for stripe in self.blocks.iter().flat_map(|block| &block.stripes) {
            stripe.release();
        }
    }
}

impl fmt::Debug for HeldLines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeldLines")
            .field("blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line`'s stripe, locked, in the block `cell` claims for it.
    fn lock<'d>(d: &'d Directory, cell: &BlockCell, line: u64) -> LineGuard<'d> {
        d.lock_claimed(line, cell.hint(line))
    }

    /// A directory and a cell for the chunk of `line` in it.
    fn chunk_cell(line: u64) -> (Directory, BlockCell) {
        let d = Directory::new();
        let chunk = line / BLOCK_LINES * BLOCK_LINES;
        let cell = d.cell(chunk..chunk + BLOCK_LINES);
        (d, cell)
    }

    /// `proc`'s access to `line` through `cell`, homed at processor 0
    /// with five hardware pointers: its class.
    fn access(d: &Directory, cell: &BlockCell, line: u64, proc: usize, write: bool) -> MissClass {
        let tag_hit = lock(d, cell, line).entry().0 & 1 << proc != 0;
        lock(d, cell, line).transact(proc, 0, write, 5, tag_hit)
    }

    /// `line`'s entry through `cell`: its sharer mask and owner.
    fn entry(d: &Directory, cell: &BlockCell, line: u64) -> (u64, Option<usize>) {
        lock(d, cell, line).entry()
    }

    #[test]
    fn add_and_remove_sharers() {
        let (d, cell) = chunk_cell(7);
        access(&d, &cell, 7, 0, false);
        access(&d, &cell, 7, 3, false);
        assert_eq!(entry(&d, &cell, 7), (0b1001, None));
        d.remove_claimed(7, 0, cell.hint(7));
        assert_eq!(entry(&d, &cell, 7), (0b1000, None));
    }

    #[test]
    fn empty_entries_are_garbage_collected() {
        let (d, cell) = chunk_cell(9);
        access(&d, &cell, 9, 1, false);
        assert_eq!(d.tracked_lines(), 1);
        d.remove_claimed(9, 1, cell.hint(9));
        assert_eq!(d.tracked_lines(), 0);
    }

    /// `#[derive(Default)]` used to build a directory with no shards,
    /// which panicked on first use.
    #[test]
    fn default_and_new_both_track_lines() {
        for d in [Directory::default(), Directory::new()] {
            let cell = d.cell(0..64);
            assert_eq!(entry(&d, &cell, 1), (0, None));
            assert_eq!(access(&d, &cell, 1, 0, true), MissClass::LocalMiss);
            assert_eq!(entry(&d, &cell, 1), (1, Some(0)));
        }
    }

    /// A write to a shared copy is an upgrade: the writer becomes the
    /// owner and only sharer.
    #[test]
    fn take_exclusive_invalidates_others() {
        let (d, cell) = chunk_cell(5);
        for proc in 0..3 {
            access(&d, &cell, 5, proc, false);
        }
        assert_eq!(access(&d, &cell, 5, 1, true), MissClass::TwoParty);
        assert_eq!(entry(&d, &cell, 5), (0b10, Some(1)));
    }

    #[test]
    fn downgrade_clears_owner_keeps_sharer() {
        let (d, cell) = chunk_cell(4);
        access(&d, &cell, 4, 2, true);
        assert_eq!(access(&d, &cell, 4, 1, false), MissClass::ThreeParty);
        assert_eq!(entry(&d, &cell, 4), (0b110, None));
    }

    #[test]
    fn removing_owner_drops_ownership() {
        let (d, cell) = chunk_cell(4);
        access(&d, &cell, 4, 2, true);
        d.remove_claimed(4, 2, cell.hint(4));
        assert_eq!(entry(&d, &cell, 4), (0, None));
    }

    #[test]
    fn clean_page_classifies_lines() {
        let (d, cell) = chunk_cell(100);
        access(&d, &cell, 100, 0, false); // shared
        access(&d, &cell, 101, 1, true); // dirty
        let out = cell.clean_lines(100..104);
        assert_eq!(out.shared_lines, 1);
        assert_eq!(out.dirty_lines, 1);
        assert_eq!(out.uncached_lines, 2);
        assert_eq!(d.tracked_lines(), 0);
    }

    /// A line named twice is cleaned twice: cached the first time,
    /// uncached the second, as when each line was its own map removal.
    #[test]
    fn clean_page_counts_a_repeated_line_twice() {
        let (d, cell) = chunk_cell(3);
        access(&d, &cell, 3, 0, false);
        let out = cell.clean_lines([3, 3]);
        assert_eq!((out.shared_lines, out.uncached_lines), (1, 1));
    }

    /// A clean names only the cell's own lines.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn cleaning_a_line_outside_the_cells_blocks_panics() {
        let (d, cell) = chunk_cell(3);
        access(&d, &cell, 3, 0, false);
        cell.clean_lines([64]);
    }

    /// A frame's lines, `first_chunk`'s onward, at `lines` lines to a
    /// frame.
    fn frame(first_chunk: u64, lines: u64) -> Range<u64> {
        first_chunk * BLOCK_LINES..first_chunk * BLOCK_LINES + lines
    }

    /// A frame's blocks are claimed with no lock at all and cleaned in
    /// one pass under their eight stripes; dropping the frame frees the
    /// block, zeroed, for the next frame.
    #[test]
    fn a_frame_claims_cleans_and_frees_its_block_without_the_line_map() {
        let d = Directory::new();
        let cell = d.cell(frame(1, 64));
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let hint = cell.hint(70);
        #[cfg(debug_assertions)]
        assert_eq!(Directory::thread_locks(), before, "a claim takes no lock");
        assert_eq!(cell.hint(127), hint, "one block");
        cell.mark_dirty([64, 65, 100], 1);
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let out = cell.clean();
        #[cfg(debug_assertions)]
        assert_eq!(Directory::thread_locks(), before + 8, "eight stripes");
        assert_eq!(
            (out.dirty_lines, out.shared_lines, out.uncached_lines),
            (3, 0, 61)
        );
        assert_eq!(cell.clean().uncached_lines, 64);
        // Dropped with live entries, the block comes back zero.
        cell.mark_dirty([66], 2);
        assert_eq!(d.tracked_lines(), 1);
        drop(cell);
        assert_eq!(d.tracked_lines(), 0);
        assert_eq!(d.block(hint).unwrap().stripes[0].holds(), 0, "free");
        let next = d.cell(frame(9, 64));
        assert_eq!(next.hint(9 * 64), hint, "reused");
        assert_eq!(d.blocks_allocated(), 1);
    }

    /// A frame never accessed has no block: its clean reads every line
    /// uncached, takes no lock and claims nothing.
    #[test]
    fn a_frame_never_accessed_cleans_without_a_block() {
        let d = Directory::new();
        let cell = d.cell(frame(3, 32));
        #[cfg(debug_assertions)]
        let before = Directory::thread_locks();
        let out = cell.clean();
        #[cfg(debug_assertions)]
        assert_eq!(Directory::thread_locks(), before);
        assert_eq!(out.uncached_lines, 32);
        assert_eq!(d.blocks_allocated(), 0);
    }

    /// A 512 B frame is half a block, and the other half of its chunk
    /// is another frame with a block of its own; a 4 KB frame is a run
    /// of four blocks in one segment, one per chunk.
    #[test]
    fn frames_of_half_a_block_and_of_four_blocks() {
        let d = Directory::new();
        let (lo, hi) = (d.cell(64..96), d.cell(96..128));
        lo.mark_dirty(lo.lines(), 0);
        hi.mark_dirty([100], 1);
        assert_ne!(lo.hint(64), hi.hint(96));
        let out = hi.clean();
        assert_eq!((out.dirty_lines, out.uncached_lines), (1, 31));
        assert_eq!(d.tracked_lines(), 32, "the other half is untouched");
        assert_eq!(lo.clean().dirty_lines, 32);

        let big = d.cell(frame(4, 256));
        let first = big.hint(big.lines().start);
        for (i, line) in big.lines().step_by(64).enumerate() {
            assert_eq!(big.hint(line + 63), first + i as u32);
        }
        assert_eq!((first - 1) % 4, 0, "aligned to its length");
        big.mark_dirty([256, 300, 511], 3);
        let out = big.clean();
        assert_eq!((out.dirty_lines, out.uncached_lines), (3, 253));
    }

    /// The range path's masks clean what the per-line walk cleans, for
    /// frames of half a block (either half of a chunk), one block and
    /// four blocks, over entries shared, dirty and absent.
    #[test]
    fn a_range_clean_matches_the_per_line_walk() {
        let state = |line: u64| line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
        for lines in [frame(2, 32), 160..192, frame(3, 64), frame(4, 256)] {
            let outcomes = [true, false].map(|range| {
                let d = Directory::new();
                let cell = d.cell(lines.clone());
                for line in lines.clone() {
                    let hint = cell.hint(line);
                    for proc in 0..state(line) {
                        let mut entry = d.lock_claimed(line, hint);
                        let tag_hit = entry.entry().0 & 1 << proc != 0;
                        entry.transact(proc as usize, 0, state(line) == 1, 5, tag_hit);
                    }
                }
                let tracked = d.tracked_lines();
                let out = if range {
                    cell.clean()
                } else {
                    cell.clean_lines(lines.clone())
                };
                assert_eq!(d.tracked_lines(), 0, "{lines:?}");
                (tracked, out)
            });
            assert_eq!(outcomes[0], outcomes[1], "{lines:?}");
            let (tracked, out) = outcomes[0];
            assert_eq!(out.shared_lines + out.dirty_lines, tracked as u64);
            assert!(out.shared_lines > 0 && out.dirty_lines > 0 && out.uncached_lines > 0);
        }
        let out = Directory::new().cell(frame(1, 256)).clean();
        assert_eq!(out.uncached_lines, 256);
    }

    /// A cell bound to its directory and lines costs what an unbound
    /// one with its claim's slab, slot and chunk did.
    #[test]
    fn a_cell_fits_in_32_bytes() {
        assert!(std::mem::size_of::<BlockCell>() <= 32);
    }

    /// Runs are handed out whole inside one segment, and a freed run is
    /// reused only for one of its own length.
    #[test]
    fn runs_never_straddle_a_segment() {
        let slab = Slab::new();
        let mut taken = Vec::new();
        for blocks in [1, 4, 8, 1, 16, 2, 32, 4] {
            let slot = slab.take(blocks);
            let (segment, offset) = Slab::locate(slot);
            assert_eq!(offset % blocks as usize, 0, "{blocks} at {slot}");
            assert!(
                offset + blocks as usize <= 16 << segment,
                "{blocks} at {slot}"
            );
            assert_eq!(slab.run(slot, blocks).len(), blocks as usize);
            taken.push((slot, blocks));
        }
        let (slot, blocks) = taken[1];
        slab.free(slot, blocks);
        assert_ne!(slab.take(1), slot, "a run of four is not a run of one");
        assert_eq!(slab.take(4), slot);
    }

    #[test]
    fn slots_map_onto_doubling_segments_without_gaps() {
        let mut expect = (0, 0);
        for slot in 0..5000 {
            assert_eq!(Slab::locate(slot), expect, "slot {slot}");
            expect.1 += 1;
            if expect.1 == 16 << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
        assert_eq!(Slab::locate(u32::MAX - 1).0, 28, "past the slab: no block");
        assert!(Directory::new().block(u32::MAX).is_none());
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let d = Arc::new(Directory::new());
        let cells: Arc<[BlockCell]> = (0..16)
            .map(|chunk| d.cell(chunk * BLOCK_LINES..(chunk + 1) * BLOCK_LINES))
            .collect();
        let handles: Vec<_> = (0..4usize)
            .map(|p| {
                let (d, cells) = (Arc::clone(&d), Arc::clone(&cells));
                std::thread::spawn(move || {
                    for line in 0..1000u64 {
                        let cell = &cells[(line / BLOCK_LINES) as usize];
                        lock(&d, cell, line).transact(p, 0, false, 64, false);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.tracked_lines(), 1000);
        assert_eq!(entry(&d, &cells[7], 500), (0b1111, None));
    }

    // -----------------------------------------------------------------
    // The sequence lock
    // -----------------------------------------------------------------

    /// A read that finds the line's stripe held fails at once, and
    /// succeeds, unchanged, once the stripe is free again.
    #[test]
    fn an_optimistic_read_fails_while_the_stripe_is_held() {
        let d = Directory::new();
        let cell = d.cell(frame(1, 64));
        cell.mark_dirty([70], 3);
        let hint = cell.hint(70);
        let read = || d.read_shared(70, 3, hint, || Some(7));
        assert_eq!(read(), Some(7));
        let held = cell.hold();
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
        let (d, cell) = chunk_cell(70);
        access(&d, &cell, 70, 3, false);
        let hint = cell.hint(70);
        let (_, stripe, _) = place(70);
        let stripe = &d.block(hint).unwrap().stripes[stripe];
        let seq = stripe.read_begin().expect("free");
        drop(stripe.lock());
        assert!(!stripe.read_valid(seq));
        // Through the whole read: the load itself lets a writer in.
        let got = d.read_shared(70, 3, hint, || {
            access(&d, &cell, 70 + 8, 1, false); // another entry of the same stripe
            Some(())
        });
        assert_eq!(got, None);
        let seq = stripe.read_begin().expect("free");
        assert!(stripe.read_valid(seq), "no writer: valid");
    }

    /// `hold` takes every stripe of a frame's blocks — claiming them
    /// first if the frame has none yet; its guard counts as one held
    /// host lock.
    #[test]
    fn hold_locks_a_frames_whole_blocks() {
        let d = Directory::new();
        let cell = d.cell(frame(4, 256)); // a 4 KB page: chunks 4 to 7
        let hint = cell.hint(64 * 6);
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
        let held = cell.hold();
        #[cfg(debug_assertions)]
        assert_eq!(
            Directory::thread_locks(),
            before + 4 * 8,
            "four blocks' stripes"
        );
        assert_eq!(
            parking_lot::held_locks(),
            usize::from(cfg!(debug_assertions))
        );
        assert_eq!(seqs(), before_seqs.map(|s| s + 1), "every stripe held");
        drop(held);
        assert_eq!(parking_lot::held_locks(), 0);
        assert_eq!(seqs(), before_seqs.map(|s| s + 2), "and given back");
        // Half a block (512 B pages), never touched: the hold claims it.
        let half = d.cell(64 * 3 + 32..64 * 4);
        let held = half.hold();
        let hint = half.hint(64 * 3 + 40);
        assert!(d.block(hint).unwrap().stripes[0].read_begin().is_none());
        drop(held);
        assert_eq!(d.blocks_allocated(), 5);
    }

    /// Four threads on one frame, one of them also cleaning it and
    /// holding it (so the others' reads fail validation and wait):
    /// afterwards every entry is either empty, shared with no owner, or
    /// owned by its only sharer, and the tracked count is the number of
    /// nonempty ones.
    #[test]
    fn four_threads_on_one_frame_keep_the_entry_invariant() {
        use crate::{CacheConfig, FrameWord, ProcCache, SsmpCacheSystem};
        const THREADS: usize = 4;
        let sys = SsmpCacheSystem::new(5);
        let cell = sys.directory().cell(frame(1, 64));
        let generation = AtomicU64::new(0);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for proc in 0..THREADS {
                let (sys, cell) = (&sys, &cell);
                let (generation, start) = (&generation, &start);
                scope.spawn(move || {
                    let mut cache = ProcCache::new(CacheConfig::tiny());
                    let mut rng = mgs_sim::XorShift64::new(0x7EAD_0000 + proc as u64);
                    let word = AtomicU64::new(0);
                    start.wait();
                    for round in 0..20_000 {
                        let r = rng.next_u64();
                        let line = 64 + r % 64;
                        let hint = cell.hint(line);
                        let word = FrameWord {
                            generation,
                            expect: 0,
                            cell: &word,
                            value: r,
                        };
                        let write = r >> 62 == 0;
                        sys.access_hinted(&mut cache, proc, line, 0, write, hint, word)
                            .expect("never refused");
                        if proc == 0 && round % 64 == 63 {
                            cell.clean();
                        }
                        if proc == 0 && round % 64 == 31 {
                            let held = cell.hold();
                            std::hint::black_box(&held);
                        }
                    }
                    sys.absorb(&mut cache);
                });
            }
        });
        let d = sys.directory();
        let block = d.block(cell.hint(64)).unwrap();
        let mut nonempty = 0;
        for stripe in &block.stripes {
            for e in 0..STRIPES {
                let (sharers, owner) = (stripe.sharers(e), stripe.owner(e));
                nonempty += usize::from(sharers != 0);
                if let Some(owner) = owner {
                    assert_eq!(sharers, 1 << owner, "an owned entry has one sharer");
                }
            }
        }
        assert_eq!(d.tracked_lines(), nonempty);
        assert_eq!(sys.stats().total(), THREADS as u64 * 20_000);
        assert_eq!(d.blocks_allocated(), 1);
    }

    /// Writers on one stripe from four threads, and readers validating
    /// optimistically beside them: the counts add up, and no validated
    /// read ever saw an entry between a writer's two stores.
    #[test]
    fn optimistic_readers_never_see_half_a_write() {
        const THREADS: usize = 4;
        let (d, cell) = chunk_cell(70);
        access(&d, &cell, 70, 0, false);
        let hint = cell.hint(70);
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
