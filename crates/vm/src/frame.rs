//! Physical page frames: the actual backing store.

use crate::PageGeometry;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
/// * an **access guard**: memory accesses hold it shared; a page
///   invalidation takes it exclusively *after* the TLB shootdown, which
///   drains in-flight accesses. This is the simulator's analogue of the
///   paper's "translation critical section" roll-back mechanism
///   (§4.2.1),
/// * a **directory-slot cell**: one relaxed `u32`, zero in a fresh
///   frame, that `mgs-vm` stores and returns and gives no meaning. The
///   cache model keeps its guess at where the frame's lines sit in the
///   SSMP's line directory here, so that the guess travels with the
///   frame every accessor already has in hand.
#[derive(Debug)]
pub struct PageFrame {
    base: u64,
    home_node: usize,
    words: Box<[AtomicU64]>,
    guard: RwLock<()>,
    generation: AtomicU64,
    dir_hint: AtomicU32,
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

    /// Runs `f` over the frame's words as one plain shared slice,
    /// holding the access guard exclusively for the duration (draining
    /// in-flight accesses first, exactly like
    /// [`quiesce`](PageFrame::quiesce)).
    ///
    /// The exclusive plain view lets page-grain kernels compile to
    /// vectorized slice code instead of a per-word atomic-load loop.
    /// Use it only where the frame is already logically private (e.g.
    /// the release path's diff, which runs after the TLB shootdown) —
    /// on a live frame the exclusive guard would serialize concurrent
    /// accessors, changing host-side interleavings.
    pub fn with_quiesced<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        let _drain = self.quiesce();
        // SAFETY: `AtomicU64` has the same size and bit validity as
        // `u64`, and the exclusive guard drains every in-flight
        // accessor, so no atomic access can race with these plain
        // reads; the guard's release edge orders them before any
        // later atomic access.
        let words: &[u64] =
            unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast(), self.words.len()) };
        f(words)
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

    /// Takes the access guard shared; memory operations hold this across
    /// the word access. (The guard protects no data, so a poisoned lock
    /// is simply taken.)
    pub fn begin_access(&self) -> RwLockReadGuard<'_, ()> {
        self.guard.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the access guard exclusively, draining in-flight accesses.
    /// The protocol holds this while computing diffs and pruning DUQs so
    /// that no store can land unrecorded.
    pub fn quiesce(&self) -> RwLockWriteGuard<'_, ()> {
        self.guard.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The frame's mapping generation. A TLB entry is only valid while
    /// its recorded generation matches; invalidations bump it (under
    /// the quiesce guard), which forces accesses that cloned the entry
    /// before the shootdown to re-fault instead of touching a retired
    /// or re-armed copy. This is the simulator's equivalent of the
    /// paper's translation-critical-section rollback (§4.2.1).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Bumps the mapping generation. Call only while holding the
    /// [`quiesce`](PageFrame::quiesce) guard — which is also why the
    /// increment is a plain load + store rather than an atomic RMW:
    /// bumps are serialized by the exclusive guard, only the
    /// generation word's store itself needs to be atomic for the
    /// concurrent [`generation`](PageFrame::generation) readers.
    pub fn bump_generation(&self) {
        let g = self.generation.load(Ordering::Relaxed);
        self.generation.store(g + 1, Ordering::Release);
    }

    /// The directory-slot cell's value (0 until someone sets it). A
    /// guess published to nobody in particular: relaxed.
    #[inline]
    pub fn dir_hint(&self) -> u32 {
        self.dir_hint.load(Ordering::Relaxed)
    }

    /// Sets the directory-slot cell.
    #[inline]
    pub fn set_dir_hint(&self, hint: u32) {
        self.dir_hint.store(hint, Ordering::Relaxed);
    }

    /// Line addresses (for the cache model) covering this frame.
    pub fn lines(&self) -> impl Iterator<Item = u64> {
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
            guard: RwLock::new(()),
            generation: AtomicU64::new(0),
            dir_hint: AtomicU32::new(0),
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

    #[test]
    fn dir_hint_cell_starts_at_zero_and_holds_what_is_set() {
        let f = alloc().alloc(0);
        assert_eq!(f.dir_hint(), 0);
        f.set_dir_hint(41);
        assert_eq!(f.dir_hint(), 41);
    }

    #[test]
    fn guard_excludes_quiesce_during_access() {
        let f = alloc().alloc(0);
        let read = f.begin_access();
        assert!(f.guard.try_write().is_err());
        drop(read);
        assert!(f.guard.try_write().is_ok());
    }

    #[test]
    #[should_panic]
    fn out_of_range_load_panics() {
        alloc().alloc(0).load(9999);
    }
}
