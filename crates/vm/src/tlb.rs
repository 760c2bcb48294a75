//! Per-processor software TLBs.

use crate::PageFrame;
use mgs_sim::Counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One mapping in a processor's software TLB.
///
/// Absence of an entry is the paper's `TLB_INV` state; an entry with
/// `writable == false` is `TLB_READ`; with `writable == true`,
/// `TLB_WRITE`.
#[derive(Debug, Clone)]
pub struct TlbEntry {
    /// The physical frame backing the page within this SSMP.
    pub frame: Arc<PageFrame>,
    /// Whether the mapping carries write privilege.
    pub writable: bool,
    /// The frame generation this mapping was created against; the
    /// mapping is stale once `frame.generation()` moves past it.
    pub gen: u64,
}

/// Hashes a page number with one multiply by the golden ratio: page
/// numbers are small and dense, so SipHash's defence against chosen
/// keys buys nothing, and the product spreads them over both the low
/// bits (the bucket) and the high ones (the map's tag byte).
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// TLB traffic statistics.
#[derive(Debug, Default)]
pub struct TlbStats {
    /// Successful lookups.
    pub hits: Counter,
    /// Lookups that found no entry (or insufficient privilege).
    pub misses: Counter,
    /// Entries removed by shootdowns (the protocol's PINV messages).
    pub shootdowns: Counter,
}

/// A processor's software TLB (its "local page table" in the paper's
/// terms, §4.2.1).
///
/// The owning processor looks entries up on every shared access; the
/// Remote Client of its SSMP removes entries during page invalidation
/// (a TLB shootdown via PINV), which is why the map is behind a mutex.
/// Capacity is unbounded: on Alewife the per-processor page table *is*
/// the TLB, so there are no capacity misses, only invalidation misses
/// and cold misses.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mgs_vm::{FrameAllocator, PageGeometry, Tlb, TlbEntry};
///
/// let frames = FrameAllocator::new(PageGeometry::default());
/// let tlb = Tlb::new();
/// assert!(tlb.lookup(7, false).is_none());
/// let frame = frames.alloc(0);
/// tlb.insert(7, TlbEntry { gen: frame.generation(), frame, writable: false });
/// assert!(tlb.lookup(7, false).is_some());
/// assert!(tlb.lookup(7, true).is_none()); // read-only mapping
/// ```
#[derive(Debug, Default)]
pub struct Tlb {
    map: Mutex<HashMap<u64, TlbEntry, BuildHasherDefault<PageHasher>>>,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Tlb {
        Tlb::default()
    }

    /// Looks up the mapping for `page`. Returns `None` when there is no
    /// entry or when `need_write` and the entry is read-only (the
    /// `WTLBFault` case of the protocol).
    pub fn lookup(&self, page: u64, need_write: bool) -> Option<TlbEntry> {
        let map = self.map.lock();
        match map.get(&page) {
            Some(e) if e.writable || !need_write => {
                self.stats.hits.incr();
                Some(e.clone())
            }
            _ => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Installs (or upgrades) the mapping for `page`.
    pub fn insert(&self, page: u64, entry: TlbEntry) {
        self.map.lock().insert(page, entry);
    }

    /// Removes the mapping for `page` (a PINV shootdown). Returns
    /// whether an entry was present.
    pub fn shootdown(&self, page: u64) -> bool {
        let removed = self.map.lock().remove(&page).is_some();
        if removed {
            self.stats.shootdowns.incr();
        }
        removed
    }

    /// Removes every mapping (used between runs).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// `true` if no mappings are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameAllocator, PageGeometry};

    fn entry(writable: bool) -> TlbEntry {
        let frames = FrameAllocator::new(PageGeometry::default());
        let frame = frames.alloc(0);
        TlbEntry {
            gen: frame.generation(),
            frame,
            writable,
        }
    }

    #[test]
    fn missing_entry_is_tlb_inv() {
        let tlb = Tlb::new();
        assert!(tlb.lookup(1, false).is_none());
        assert_eq!(tlb.stats().misses.get(), 1);
    }

    #[test]
    fn read_entry_serves_reads_not_writes() {
        let tlb = Tlb::new();
        tlb.insert(1, entry(false));
        assert!(tlb.lookup(1, false).is_some());
        assert!(tlb.lookup(1, true).is_none());
    }

    #[test]
    fn write_entry_serves_both() {
        let tlb = Tlb::new();
        tlb.insert(1, entry(true));
        assert!(tlb.lookup(1, false).is_some());
        assert!(tlb.lookup(1, true).is_some());
        assert_eq!(tlb.stats().hits.get(), 2);
    }

    #[test]
    fn upgrade_replaces_entry() {
        let tlb = Tlb::new();
        tlb.insert(1, entry(false));
        tlb.insert(1, entry(true));
        assert!(tlb.lookup(1, true).is_some());
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn shootdown_removes() {
        let tlb = Tlb::new();
        tlb.insert(1, entry(true));
        assert!(tlb.shootdown(1));
        assert!(!tlb.shootdown(1));
        assert!(tlb.lookup(1, false).is_none());
        assert_eq!(tlb.stats().shootdowns.get(), 1);
    }

    #[test]
    fn dense_and_strided_pages_keep_their_own_entries() {
        let tlb = Tlb::new();
        let pages: Vec<u64> = (0..512).chain((1..64).map(|i| i << 32)).collect();
        for &page in &pages {
            tlb.insert(page, entry(page % 2 == 0));
        }
        assert_eq!(tlb.len(), pages.len());
        for &page in &pages {
            assert!(tlb.lookup(page, false).is_some());
            assert_eq!(tlb.lookup(page, true).is_some(), page % 2 == 0);
        }
        assert!(tlb.lookup(512, false).is_none());
    }

    #[test]
    fn clear_empties() {
        let tlb = Tlb::new();
        tlb.insert(1, entry(false));
        tlb.insert(2, entry(false));
        tlb.clear();
        assert!(tlb.is_empty());
    }
}
