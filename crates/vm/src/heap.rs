//! Shared virtual-address allocation.

use crate::{PageGeometry, VIRT_BASE};
use parking_lot::Mutex;

/// How an allocation is accessed, which determines the cost of the
/// in-lined software translation (§4.2.1, Table 3).
///
/// * [`DistArray`](AccessKind::DistArray) — a distributed array: the
///   compiler knows the object is mapped, translation costs 18 cycles.
/// * [`Pointer`](AccessKind::Pointer) — a general pointer dereference:
///   translation must first discriminate virtual from physical
///   addresses, costing 24 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Distributed-array access (18-cycle translation).
    DistArray,
    /// Pointer dereference (24-cycle translation).
    Pointer,
}

/// A contiguous range of shared virtual memory returned by
/// [`SharedHeap::alloc`].
///
/// `VRange` is a plain descriptor (`Copy`): it can be freely passed to
/// every processor of the machine. Typed array views on top of it live
/// in `mgs-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VRange {
    vbase: u64,
    words: u64,
    kind: AccessKind,
}

impl VRange {
    /// First virtual address of the range.
    pub fn vbase(self) -> u64 {
        self.vbase
    }

    /// Length in 8-byte words.
    pub fn words(self) -> u64 {
        self.words
    }

    /// Access kind for translation costing.
    pub fn kind(self) -> AccessKind {
        self.kind
    }

    /// Virtual address of word `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn addr_of(self, idx: u64) -> u64 {
        assert!(idx < self.words, "index {idx} out of range");
        self.vbase + idx * PageGeometry::WORD_BYTES
    }
}

/// A bump allocator for the shared virtual address space.
///
/// Two policies are offered:
///
/// * [`alloc`](SharedHeap::alloc) packs objects contiguously (like the
///   `malloc` the paper's applications used). Adjacent small objects
///   share pages, which is exactly what produces the false sharing the
///   paper observes in TSP (56-byte path elements on 1 KB pages).
/// * [`alloc_pages`](SharedHeap::alloc_pages) starts the object on a
///   fresh page boundary, for data structures that are deliberately
///   page-aligned.
///
/// # Example
///
/// ```
/// use mgs_vm::{AccessKind, PageGeometry, SharedHeap};
///
/// let heap = SharedHeap::new(PageGeometry::default());
/// let a = heap.alloc(7, AccessKind::DistArray);
/// let b = heap.alloc(7, AccessKind::DistArray);
/// // Packed: `b` begins right after `a`, on the same page.
/// assert_eq!(b.vbase(), a.vbase() + 7 * 8);
/// let c = heap.alloc_pages(1, AccessKind::Pointer);
/// assert_eq!((c.vbase() - a.vbase()) % 1024, 0);
/// ```
#[derive(Debug)]
pub struct SharedHeap {
    geometry: PageGeometry,
    next: Mutex<u64>,
}

impl SharedHeap {
    /// Creates an empty heap starting at [`VIRT_BASE`].
    pub fn new(geometry: PageGeometry) -> SharedHeap {
        SharedHeap {
            geometry,
            next: Mutex::new(VIRT_BASE),
        }
    }

    /// The heap's page geometry.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Allocates `words` 8-byte words, packed (word-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn alloc(&self, words: u64, kind: AccessKind) -> VRange {
        assert!(words > 0, "empty allocation");
        let mut next = self.next.lock();
        let vbase = *next;
        *next += words * PageGeometry::WORD_BYTES;
        VRange { vbase, words, kind }
    }

    /// Allocates `words` words starting on a fresh page boundary.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn alloc_pages(&self, words: u64, kind: AccessKind) -> VRange {
        assert!(words > 0, "empty allocation");
        let page = self.geometry.page_bytes();
        let mut next = self.next.lock();
        let vbase = next.div_ceil(page) * page;
        *next = vbase + words * PageGeometry::WORD_BYTES;
        VRange { vbase, words, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SharedHeap {
        SharedHeap::new(PageGeometry::default())
    }

    #[test]
    fn packed_allocations_are_adjacent() {
        let h = heap();
        let a = h.alloc(3, AccessKind::Pointer);
        let b = h.alloc(5, AccessKind::Pointer);
        assert_eq!(b.vbase(), a.vbase() + 24);
    }

    #[test]
    fn page_allocations_are_aligned() {
        let h = heap();
        h.alloc(1, AccessKind::Pointer);
        let b = h.alloc_pages(10, AccessKind::DistArray);
        assert_eq!((b.vbase() - VIRT_BASE) % 1024, 0);
        assert!(b.vbase() > VIRT_BASE);
    }

    #[test]
    fn first_page_alloc_uses_base() {
        let h = heap();
        let a = h.alloc_pages(1, AccessKind::DistArray);
        assert_eq!(a.vbase(), VIRT_BASE);
    }

    #[test]
    fn addr_of_indexes_words() {
        let h = heap();
        let a = h.alloc(4, AccessKind::DistArray);
        assert_eq!(a.addr_of(0), a.vbase());
        assert_eq!(a.addr_of(3), a.vbase() + 24);
    }

    #[test]
    fn kinds_are_preserved() {
        let h = heap();
        assert_eq!(h.alloc(1, AccessKind::Pointer).kind(), AccessKind::Pointer);
        assert_eq!(
            h.alloc(1, AccessKind::DistArray).kind(),
            AccessKind::DistArray
        );
    }

    #[test]
    #[should_panic(expected = "empty allocation")]
    fn zero_alloc_panics() {
        heap().alloc(0, AccessKind::Pointer);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn addr_of_out_of_range_panics() {
        let h = heap();
        let a = h.alloc(2, AccessKind::Pointer);
        let _ = a.addr_of(2);
    }
}
