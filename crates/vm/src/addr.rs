//! Virtual address space layout and page geometry.

/// Base of the virtual address space.
///
/// The virtual and physical spaces have disjoint address assignments
/// (§4.2.1: this is what lets the inline pointer-translation code
/// discriminate virtual from physical pointers at a cost of 24 instead
/// of 18 cycles). Physical frame addresses are allocated upward from 0;
/// virtual addresses live above `VIRT_BASE`.
pub const VIRT_BASE: u64 = 1 << 47;

/// Page size and derived geometry.
///
/// The paper uses **1 KB pages** for every measurement ("All
/// measurements were taken assuming a 1K-byte page size", §5.1), which
/// is this type's default. Cache lines are 16 bytes (Alewife) and words
/// are 8 bytes throughout the simulator.
///
/// # Example
///
/// ```
/// use mgs_vm::{PageGeometry, VIRT_BASE};
///
/// let geom = PageGeometry::default();
/// assert_eq!(geom.page_bytes(), 1024);
/// assert_eq!(geom.words_per_page(), 128);
/// assert_eq!(geom.lines_per_page(), 64);
/// let va = VIRT_BASE + 1024 * 5 + 16;
/// assert_eq!(geom.page_of(va), 5);
/// assert_eq!(geom.word_offset(va), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageGeometry {
    page_bytes: u64,
}

impl PageGeometry {
    /// Cache line size in bytes (Alewife).
    pub const LINE_BYTES: u64 = 16;
    /// Word size in bytes.
    pub const WORD_BYTES: u64 = 8;

    /// Creates a geometry with the given page size.
    ///
    /// # Panics
    ///
    /// Panics unless `page_bytes` is a power of two and at least one
    /// cache line.
    pub fn new(page_bytes: u64) -> PageGeometry {
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= Self::LINE_BYTES,
            "page size must be a power of two >= {} bytes",
            Self::LINE_BYTES
        );
        PageGeometry { page_bytes }
    }

    /// Page size in bytes.
    pub fn page_bytes(self) -> u64 {
        self.page_bytes
    }

    /// 8-byte words per page.
    pub fn words_per_page(self) -> u64 {
        self.page_bytes / Self::WORD_BYTES
    }

    /// Cache lines per page.
    pub fn lines_per_page(self) -> u64 {
        self.page_bytes / Self::LINE_BYTES
    }

    /// Virtual page number of a virtual address (numbered from
    /// [`VIRT_BASE`]).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `va` is below [`VIRT_BASE`].
    #[inline]
    pub fn page_of(self, va: u64) -> u64 {
        debug_assert!(va >= VIRT_BASE, "not a virtual address: {va:#x}");
        // A shift, not a division: the page size is a power of two.
        (va - VIRT_BASE) >> self.page_bytes.trailing_zeros()
    }

    /// Word index within its page of a virtual address.
    #[inline]
    pub fn word_offset(self, va: u64) -> u64 {
        ((va - VIRT_BASE) & (self.page_bytes - 1)) / Self::WORD_BYTES
    }

    /// Is `addr` a virtual (as opposed to physical) address?
    #[inline]
    pub fn is_virtual(addr: u64) -> bool {
        addr >= VIRT_BASE
    }

    /// Number of pages covering `bytes` bytes starting at a page
    /// boundary.
    pub fn pages_for(self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes)
    }
}

impl Default for PageGeometry {
    fn default() -> PageGeometry {
        PageGeometry::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_1k() {
        assert_eq!(PageGeometry::default().page_bytes(), 1024);
    }

    #[test]
    fn geometry_derivations() {
        let g = PageGeometry::new(4096);
        assert_eq!(g.words_per_page(), 512);
        assert_eq!(g.lines_per_page(), 256);
    }

    #[test]
    fn page_of_and_offset() {
        let g = PageGeometry::default();
        let va = VIRT_BASE + 3 * 1024 + 24;
        assert_eq!(g.page_of(va), 3);
        assert_eq!(g.word_offset(va), 3);
    }

    #[test]
    fn virtual_discrimination() {
        assert!(PageGeometry::is_virtual(VIRT_BASE));
        assert!(!PageGeometry::is_virtual(0x1000));
    }

    #[test]
    fn pages_for_rounds_up() {
        let g = PageGeometry::default();
        assert_eq!(g.pages_for(1), 1);
        assert_eq!(g.pages_for(1024), 1);
        assert_eq!(g.pages_for(1025), 2);
        assert_eq!(g.pages_for(0), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_panics() {
        PageGeometry::new(1000);
    }
}
