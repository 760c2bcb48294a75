//! Physical page frames: the actual backing store.

use crate::PageGeometry;
use mgs_cache::{BlockCell, CleanOutcome, Directory, FrameWord, HeldLines};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A physical page frame.
///
/// Holds the page's data as atomic 64-bit words so that the simulated
/// applications compute **real, verifiable results** — coherence bugs in
/// the protocol implementation show up as wrong numerical answers in the
/// application test suite.
///
/// Each frame has:
///
/// * a unique **physical base address** (used by the cache model to form
///   line addresses),
/// * a **home node** (the global processor id whose memory holds it —
///   first-touch placement within the SSMP, §3.1.2 of the paper),
/// * a **mapping generation**, which an access checks and a page
///   invalidation bumps — the simulator's analogue of the paper's
///   "translation critical section" roll-back mechanism (§4.2.1),
/// * a **directory-slot cell** ([`BlockCell`]): the run of blocks in
///   the SSMP's line directory that holds its lines' entries. Empty in
///   a fresh frame, it is claimed by the frame's first access
///   ([`dir_hint`](PageFrame::dir_hint)), quiesce or dirty-marking,
///   stays the frame's for life — every accessor reaches the entries
///   through the frame it already has in hand, never through a lookup
///   — and is zeroed and freed when the frame drops.
///
/// The frame holds no lock. Its guard is the line directory of the SSMP
/// whose processors access it: a simulated access checks the
/// generation and touches its word under its line's directory stripe
/// ([`word`](PageFrame::word) hands both to
/// `SsmpCacheSystem::access_hinted`), so holding every stripe of the
/// frame's lines ([`quiesce`](PageFrame::quiesce)) drains the frame.
#[derive(Debug)]
pub struct PageFrame {
    base: u64,
    home_node: usize,
    words: Box<[AtomicU64]>,
    generation: AtomicU64,
    blocks: BlockCell,
}

impl PageFrame {
    /// Physical base address (aligned to the page size).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Global processor id whose memory holds this frame.
    pub fn home_node(&self) -> usize {
        self.home_node
    }

    /// Number of 8-byte words in the frame.
    pub fn len_words(&self) -> u64 {
        self.words.len() as u64
    }

    /// Loads the word at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn load(&self, idx: u64) -> u64 {
        self.words[idx as usize].load(Ordering::Acquire)
    }

    /// Stores `value` at word `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn store(&self, idx: u64, value: u64) {
        self.words[idx as usize].store(value, Ordering::Release);
    }

    /// Atomically snapshots the frame contents (used for twins and
    /// diffs).
    pub fn snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect()
    }

    /// Word-atomically snapshots the frame into an existing buffer
    /// (typically a recycled [`TwinPool`](crate::TwinPool) buffer),
    /// overwriting every word — the allocation-free counterpart of
    /// [`snapshot`](PageFrame::snapshot). Safe on a live frame:
    /// concurrent accessors are not blocked.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly the frame's length.
    pub fn snapshot_into(&self, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.words.len(),
            "snapshot buffer/frame size mismatch"
        );
        for (o, w) in out.iter_mut().zip(self.words.iter()) {
            *o = w.load(Ordering::Acquire);
        }
    }

    /// Stores a contiguous run of words starting at `start` (one bounds
    /// check for the whole run; used by the per-run diff apply on live
    /// home frames).
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds the frame.
    #[inline]
    pub fn store_words(&self, start: u64, data: &[u64]) {
        let s = start as usize;
        for (w, &v) in self.words[s..s + data.len()].iter().zip(data) {
            w.store(v, Ordering::Release);
        }
    }

    /// Overwrites the frame with `data` word-atomically. Safe on a
    /// live frame: concurrent accessors are not blocked.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the frame.
    pub fn fill(&self, data: &[u64]) {
        assert!(data.len() <= self.words.len(), "fill larger than frame");
        for (w, &v) in self.words.iter().zip(data) {
            w.store(v, Ordering::Release);
        }
    }

    /// The frame side of an access to word `idx` by a translation made
    /// against generation `expect`, storing `value` if it writes.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn word(&self, idx: u64, expect: u64, value: u64) -> FrameWord<'_> {
        FrameWord {
            generation: &self.generation,
            expect,
            cell: &self.words[idx as usize],
            value,
        }
    }

    /// Drains the frame: holds every stripe of its blocks in
    /// `directory` (claiming them if it has none yet), so no access to
    /// it is in flight or can start until the guard drops. `directory`
    /// must be the one its accesses go through: that of the SSMP of its
    /// home node.
    ///
    /// The protocol holds this to bump the generation
    /// ([`Quiesced::bump_generation`]) and to read the frame as a
    /// plain slice ([`Quiesced::words`]).
    pub fn quiesce<'a>(&'a self, directory: &'a Directory) -> Quiesced<'a> {
        Quiesced {
            _held: directory.hold(&self.blocks, self.lines()),
            frame: self,
        }
    }

    /// Runs `f` over the frame's words as one plain shared slice,
    /// [`quiesce`](PageFrame::quiesce)d through `directory` for the
    /// duration.
    ///
    /// The plain view lets page-grain kernels compile to vectorized
    /// slice code instead of a per-word atomic-load loop. Use it only
    /// where the frame is already logically private (e.g. the release
    /// path's diff, which runs after the TLB shootdown): on a live
    /// frame the drain would serialize concurrent accessors, changing
    /// host-side interleavings.
    pub fn with_quiesced<R>(&self, directory: &Directory, f: impl FnOnce(&[u64]) -> R) -> R {
        f(self.quiesce(directory).words())
    }

    /// The frame's mapping generation. A TLB entry is only valid while
    /// its recorded generation matches; invalidations bump it (while
    /// quiesced), which forces accesses that cloned the entry before
    /// the shootdown to re-fault instead of touching a retired or
    /// re-armed copy. This is the simulator's equivalent of the
    /// paper's translation-critical-section rollback (§4.2.1).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The hint of the block holding `line`, one of the frame's, in
    /// `directory` (claiming the frame's blocks there on first use):
    /// fixed for the frame's life, and what
    /// `SsmpCacheSystem::access_hinted` takes beside the frame's
    /// [`word`](PageFrame::word).
    #[inline]
    pub fn dir_hint(&self, directory: &Directory, line: u64) -> u32 {
        directory.hint(&self.blocks, self.lines(), line)
    }

    /// Cleans the frame's lines out of `directory` (page cleaning,
    /// §4.2.4) in one pass over its blocks; a frame never accessed
    /// has none, and every line counts as uncached.
    pub fn clean(&self, directory: &Directory) -> CleanOutcome {
        directory.clean_frame(&self.blocks, self.lines())
    }

    /// Marks `lines`, some of the frame's, dirty-owned by local
    /// processor `proc` in `directory`: the protocol engine wrote them
    /// through its cache.
    pub fn mark_dirty(
        &self,
        directory: &Directory,
        lines: impl IntoIterator<Item = u64>,
        proc: usize,
    ) {
        directory.mark_dirty_frame(&self.blocks, self.lines(), lines, proc);
    }

    /// Line addresses (for the cache model) covering this frame.
    pub fn lines(&self) -> std::ops::Range<u64> {
        let first = self.base / PageGeometry::LINE_BYTES;
        let count = self.len_words() * PageGeometry::WORD_BYTES / PageGeometry::LINE_BYTES;
        first..first + count
    }

    /// Line address (for the cache model) containing word `idx`.
    #[inline]
    pub fn line_of_word(&self, idx: u64) -> u64 {
        (self.base + idx * PageGeometry::WORD_BYTES) / PageGeometry::LINE_BYTES
    }
}

/// A drained frame ([`PageFrame::quiesce`]): every directory stripe of
/// its lines is held, so no simulated access reads or writes it until
/// the guard drops.
#[derive(Debug)]
pub struct Quiesced<'a> {
    _held: HeldLines<'a>,
    frame: &'a PageFrame,
}

impl Quiesced<'_> {
    /// The frame's words as one plain slice.
    pub fn words(&self) -> &[u64] {
        let words = &self.frame.words;
        // SAFETY: `AtomicU64` has the same size and bit validity as
        // `u64`. Every store to a live frame's words is an access under
        // its line's stripe, all of which this guard holds, so no store
        // races with these plain reads for the borrow's length, which
        // the guard outlives; the stripes' release and acquire order
        // them before and after any store. (The protocol's own stores —
        // fills, diff merges and pushes — run under the page's server
        // lock, as the quiesced sites do.)
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len()) }
    }

    /// Bumps the frame's mapping generation, retiring every translation
    /// made before: an access holding one finds out under its line's
    /// stripe and re-faults. Bumps are serialized by the guard, so the
    /// increment is a plain load and store, not a read-modify-write.
    pub fn bump_generation(&self) {
        let generation = &self.frame.generation;
        let g = generation.load(Ordering::Relaxed);
        generation.store(g + 1, Ordering::Release);
    }
}

/// Allocates [`PageFrame`]s with unique physical base addresses.
///
/// # Example
///
/// ```
/// use mgs_vm::{FrameAllocator, PageGeometry};
///
/// let alloc = FrameAllocator::new(PageGeometry::default());
/// let a = alloc.alloc(0);
/// let b = alloc.alloc(3);
/// assert_ne!(a.base(), b.base());
/// assert_eq!(b.home_node(), 3);
/// ```
#[derive(Debug)]
pub struct FrameAllocator {
    geometry: PageGeometry,
    next_base: AtomicU64,
}

impl FrameAllocator {
    /// Creates an allocator for the given geometry. Physical addresses
    /// start at one page (so that no frame has base 0).
    pub fn new(geometry: PageGeometry) -> FrameAllocator {
        FrameAllocator {
            geometry,
            next_base: AtomicU64::new(geometry.page_bytes()),
        }
    }

    /// The geometry frames are allocated with.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Allocates a zeroed frame homed at global processor `home_node`.
    pub fn alloc(&self, home_node: usize) -> Arc<PageFrame> {
        let bytes = self.geometry.page_bytes();
        let base = self.next_base.fetch_add(bytes, Ordering::Relaxed);
        let words = (0..self.geometry.words_per_page())
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(PageFrame {
            base,
            home_node,
            words,
            generation: AtomicU64::new(0),
            blocks: BlockCell::default(),
        })
    }

    /// Number of frames allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next_base.load(Ordering::Relaxed) / self.geometry.page_bytes() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> FrameAllocator {
        FrameAllocator::new(PageGeometry::default())
    }

    #[test]
    fn frames_are_zeroed() {
        let f = alloc().alloc(0);
        assert!((0..f.len_words()).all(|i| f.load(i) == 0));
    }

    #[test]
    fn load_store_roundtrip() {
        let f = alloc().alloc(0);
        f.store(5, 0xDEAD_BEEF);
        assert_eq!(f.load(5), 0xDEAD_BEEF);
    }

    #[test]
    fn unique_page_aligned_bases() {
        let a = alloc();
        let f1 = a.alloc(0);
        let f2 = a.alloc(1);
        assert_eq!(f1.base() % 1024, 0);
        assert_eq!(f2.base(), f1.base() + 1024);
        assert_eq!(a.allocated(), 2);
    }

    #[test]
    fn snapshot_and_fill() {
        let f = alloc().alloc(0);
        f.store(0, 1);
        f.store(127, 2);
        let snap = f.snapshot();
        assert_eq!(snap.len(), 128);
        assert_eq!((snap[0], snap[127]), (1, 2));
        let g = alloc().alloc(0);
        g.fill(&snap);
        assert_eq!(g.load(127), 2);
    }

    #[test]
    fn lines_cover_frame() {
        let a = alloc();
        let f = a.alloc(0);
        let lines: Vec<u64> = f.lines().collect();
        assert_eq!(lines.len(), 64);
        assert_eq!(lines[0], f.base() / 16);
        assert_eq!(f.line_of_word(0), lines[0]);
        assert_eq!(f.line_of_word(2), lines[1]);
        assert_eq!(f.line_of_word(127), lines[63]);
    }

    /// A frame's blocks are claimed once, by whichever comes first, and
    /// given back when the frame drops.
    #[test]
    fn a_frame_claims_its_block_once_and_frees_it_when_it_drops() {
        let frames = alloc();
        let directory = Directory::new();
        let f = frames.alloc(0);
        assert_eq!(f.clean(&directory).uncached_lines, 64, "no block yet");
        assert_eq!(directory.blocks_allocated(), 0);
        f.mark_dirty(&directory, [f.line_of_word(0)], 1);
        let hint = f.dir_hint(&directory, f.line_of_word(127));
        drop(f.quiesce(&directory));
        assert_eq!(f.dir_hint(&directory, f.line_of_word(0)), hint);
        assert_eq!(directory.tracked_lines(), 1);
        drop(f);
        assert_eq!(directory.tracked_lines(), 0);
        let g = frames.alloc(0);
        assert_eq!(g.dir_hint(&directory, g.line_of_word(0)), hint, "reused");
        assert_eq!(directory.blocks_allocated(), 1);
    }

    /// A quiesced frame shows its words plainly; once a bump has retired
    /// the generation, an access under the old one is refused and one
    /// under the new one goes through.
    #[test]
    fn quiesce_drains_accesses_and_bump_retires_translations() {
        use mgs_cache::{CacheConfig, ProcCache, SsmpCacheSystem};
        let f = alloc().alloc(0);
        let sys = SsmpCacheSystem::new(5);
        let mut cache = ProcCache::new(CacheConfig::alewife());
        let line = f.line_of_word(3);
        let hint = f.dir_hint(sys.directory(), line);
        let mut write = |gen, value| {
            sys.access_hinted(&mut cache, 0, line, 0, true, hint, f.word(3, gen, value))
                .map(|s| s.value)
        };
        assert_eq!(write(0, 5), Some(5));
        {
            let q = f.quiesce(sys.directory());
            assert_eq!(q.words()[3], 5);
            q.bump_generation();
        }
        assert_eq!(f.generation(), 1);
        assert_eq!(write(0, 6), None, "a retired translation re-faults");
        assert_eq!(f.load(3), 5);
        assert_eq!(write(1, 6), Some(6));
        // A cleaned frame keeps its block.
        assert_eq!(f.clean(sys.directory()).dirty_lines, 1);
        f.with_quiesced(sys.directory(), |w| assert_eq!(w[3], 6));
        assert_eq!(sys.directory().blocks_allocated(), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_load_panics() {
        alloc().alloc(0).load(9999);
    }
}
