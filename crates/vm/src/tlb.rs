//! Per-processor software TLBs.

use crate::PageFrame;
use mgs_sim::Counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One mapping in a processor's software TLB, as a fault returns it.
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

/// Pages per leaf of a [`ProcTlb`].
const LEAF_PAGES: usize = 64;

/// A processor's software TLB: its "local page table" in the paper's
/// terms (§4.2.1), owned by the processor alone.
///
/// A table indexed by page number (pages count from `VIRT_BASE`): a
/// `Vec` of 64-page leaves, each allocated on the first fill of one of
/// its pages, so a processor that touches no page holds only the `Vec`
/// header. A leaf is built in place on the heap. On Alewife the page
/// table *is* the TLB, so there are no capacity misses, only cold and
/// invalidation misses, and nothing is ever evicted.
///
/// Nobody else writes it. A PINV shoot-down does not reach in: it
/// bumps the frame's generation, and the owner's next access to the
/// page finds its slot retired under the line's directory stripe and
/// re-faults (the translation critical section of §4.2.1). So a probe
/// takes `&self` and no lock, and a fill takes `&mut self`. A retired
/// slot keeps its frame, and so that frame's directory blocks, alive
/// until the owner's next fault on the page overwrites it or its next
/// acquire point [`prune`](ProcTlb::prune)s the table.
///
/// # Example
///
/// ```
/// use mgs_vm::{FrameAllocator, PageGeometry, ProcTlb, TlbEntry};
///
/// let frames = FrameAllocator::new(PageGeometry::default());
/// let mut tlb = ProcTlb::new();
/// assert!(tlb.probe(7, false).is_none()); // TLB_INV
/// let frame = frames.alloc(0);
/// tlb.fill(7, TlbEntry { gen: frame.generation(), frame: frame.clone(), writable: false });
/// assert!(tlb.probe(7, false).is_some());
/// assert!(tlb.probe(7, true).is_none()); // TLB_READ
/// // A shoot-down retires the slot; the owner sees it at its next access.
/// frame.quiesce().bump_generation();
/// let (mapped, gen) = tlb.probe(7, false).unwrap();
/// assert_ne!(gen, mapped.generation());
/// ```
#[derive(Debug, Default)]
pub struct ProcTlb {
    /// Leaf `i` maps pages `64 i .. 64 (i + 1)`; `None` until one of
    /// them is filled. A page's slot is `None` until its first fill.
    leaves: Vec<Option<Box<[Option<TlbEntry>]>>>,
}

impl ProcTlb {
    /// An empty table: no leaf is allocated.
    pub fn new() -> ProcTlb {
        ProcTlb::default()
    }

    /// The frame and mapping generation of `page`'s slot, if it was
    /// filled with enough privilege for the access (a write needs a
    /// writable mapping: the `WTLBFault` case). The generation may be
    /// retired; the access checks it.
    #[inline]
    pub fn probe(&self, page: u64, write: bool) -> Option<(&Arc<PageFrame>, u64)> {
        let leaf = self.leaves.get(page as usize / LEAF_PAGES)?.as_deref()?;
        let slot = leaf[page as usize % LEAF_PAGES].as_ref()?;
        (slot.writable || !write).then_some((&slot.frame, slot.gen))
    }

    /// Overwrites `page`'s slot with `entry` (a fault's result),
    /// allocating the page's leaf on its first fill.
    pub fn fill(&mut self, page: u64, entry: TlbEntry) {
        let leaf = page as usize / LEAF_PAGES;
        if self.leaves.len() <= leaf {
            self.leaves.resize_with(leaf + 1, || None);
        }
        let leaf = self.leaves[leaf].get_or_insert_with(|| (0..LEAF_PAGES).map(|_| None).collect());
        leaf[page as usize % LEAF_PAGES] = Some(entry);
    }

    /// Empties every slot whose frame has retired its generation,
    /// letting go of the invalidated copy. The table reads the same
    /// afterwards: a retired slot serves no access, so the page faults
    /// at its next access either way. Leaves stay allocated.
    pub fn prune(&mut self) {
        for leaf in self.leaves.iter_mut().flatten() {
            for slot in leaf.iter_mut() {
                if matches!(slot, Some(e) if e.frame.generation() != e.gen) {
                    *slot = None;
                }
            }
        }
    }
}

/// Hashes a page number with one multiply by the golden ratio. Kept
/// only for [`Tlb`], which nothing in the simulator fills any more.
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

/// TLB traffic statistics of a [`Tlb`].
#[derive(Debug, Default)]
pub struct TlbStats {
    /// Successful lookups.
    pub hits: Counter,
    /// Lookups that found no entry (or insufficient privilege).
    pub misses: Counter,
    /// Entries removed by [`Tlb::shootdown`].
    pub shootdowns: Counter,
}

/// A mutex-guarded page-to-mapping map, the software TLB's old shape.
///
/// The simulator no longer uses it: each processor's `Env` owns a
/// [`ProcTlb`], and a shoot-down is a generation bump. The type stays
/// while the benchmark crate times its lookup and insert, and
/// `MgsProtocol::tlb` returns one that is never filled, so every
/// counter of its [`TlbStats`] reads 0.
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
    /// entry or when `need_write` and the entry is read-only.
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

    /// Removes the mapping for `page`. Returns whether an entry was
    /// present.
    pub fn shootdown(&self, page: u64) -> bool {
        let removed = self.map.lock().remove(&page).is_some();
        if removed {
            self.stats.shootdowns.incr();
        }
        removed
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

    /// Leaves `tlb` has allocated.
    fn leaves(tlb: &ProcTlb) -> usize {
        tlb.leaves.iter().flatten().count()
    }

    fn entry(frames: &FrameAllocator, writable: bool) -> TlbEntry {
        let frame = frames.alloc(0);
        TlbEntry {
            gen: frame.generation(),
            frame,
            writable,
        }
    }

    #[test]
    fn no_leaf_before_the_first_fill() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut tlb = ProcTlb::new();
        assert_eq!(leaves(&tlb), 0);
        assert!(tlb.probe(0, false).is_none());
        assert!(tlb.probe(1 << 20, false).is_none());
        tlb.prune();
        assert_eq!(leaves(&tlb), 0, "a probe or a prune allocates no leaf");
        tlb.fill(5, entry(&frames, false));
        assert_eq!(leaves(&tlb), 1);
        // The rest of the leaf is still TLB_INV.
        assert!(tlb.probe(4, false).is_none());
        assert!(tlb.probe(6, false).is_none());
    }

    #[test]
    fn an_upgrade_overwrites_the_slot_in_place() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut tlb = ProcTlb::new();
        let read = entry(&frames, false);
        tlb.fill(3, read.clone());
        assert!(
            tlb.probe(3, true).is_none(),
            "a read-only slot serves no write"
        );
        let write = TlbEntry {
            writable: true,
            ..read.clone()
        };
        tlb.fill(3, write);
        let (frame, gen) = tlb.probe(3, true).expect("upgraded");
        assert!(Arc::ptr_eq(frame, &read.frame));
        assert_eq!(gen, read.gen);
        assert!(tlb.probe(3, false).is_some());
        assert_eq!(leaves(&tlb), 1);
    }

    #[test]
    fn a_retired_generation_is_refilled_by_the_next_fault() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut tlb = ProcTlb::new();
        let old = entry(&frames, true);
        tlb.fill(9, old.clone());
        old.frame.quiesce().bump_generation();
        // The slot is still there, at a generation its frame retired.
        let (frame, gen) = tlb.probe(9, true).expect("kept");
        assert_eq!(gen, old.gen);
        assert_ne!(gen, frame.generation());
        let fresh = entry(&frames, false);
        tlb.fill(9, fresh.clone());
        let (frame, gen) = tlb.probe(9, false).expect("refilled");
        assert!(Arc::ptr_eq(frame, &fresh.frame));
        assert_eq!(gen, frame.generation());
        assert!(tlb.probe(9, true).is_none(), "the refill's privilege");
        assert_eq!(
            Arc::strong_count(&old.frame),
            1,
            "the retired frame is let go"
        );
    }

    #[test]
    fn a_prune_lets_go_of_retired_frames_only() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut tlb = ProcTlb::new();
        let retired = entry(&frames, true);
        let live = entry(&frames, false);
        tlb.fill(2, retired.clone());
        tlb.fill(70, live.clone());
        retired.frame.quiesce().bump_generation();
        tlb.prune();
        assert!(tlb.probe(2, false).is_none(), "TLB_INV after the prune");
        assert_eq!(Arc::strong_count(&retired.frame), 1, "the copy is let go");
        let (frame, gen) = tlb.probe(70, false).expect("a current slot stays");
        assert!(Arc::ptr_eq(frame, &live.frame));
        assert_eq!(gen, live.gen);
        assert_eq!(leaves(&tlb), 2, "leaves stay allocated");
    }

    #[test]
    fn pages_far_apart_take_their_own_leaves() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut tlb = ProcTlb::new();
        let pages = [0, 63, 64, 1000, 100_000];
        let entries = pages.map(|page| entry(&frames, page % 2 == 0));
        for (&page, e) in pages.iter().zip(&entries) {
            tlb.fill(page, e.clone());
        }
        assert_eq!(leaves(&tlb), 4, "0 and 63 share a leaf");
        for (&page, e) in pages.iter().zip(&entries) {
            let (frame, _) = tlb.probe(page, false).expect("mapped");
            assert!(Arc::ptr_eq(frame, &e.frame), "page {page} keeps its frame");
            assert_eq!(tlb.probe(page, true).is_some(), page % 2 == 0);
        }
        for page in [1, 62, 65, 999, 1001, 99_999, 100_001] {
            assert!(tlb.probe(page, false).is_none(), "page {page}");
        }
    }

    /// A hit borrows the slot's frame: it takes no reference, so the
    /// frame's count is not a line every mapper writes. That a
    /// steady-state access allocates nothing is checked end to end by
    /// `tests/obs_zero_alloc.rs`.
    #[test]
    fn a_hit_clones_no_frame() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut tlb = ProcTlb::new();
        let e = entry(&frames, true);
        for page in 0..256 {
            tlb.fill(page, e.clone());
        }
        let refs = Arc::strong_count(&e.frame);
        for round in 0..4u64 {
            for page in 0..256 {
                let (frame, gen) = tlb.probe(page, round % 2 == 0).expect("hit");
                std::hint::black_box((frame.base(), gen));
            }
        }
        assert_eq!(Arc::strong_count(&e.frame), refs);
    }

    fn tlb_entry(writable: bool) -> TlbEntry {
        entry(&FrameAllocator::new(PageGeometry::default()), writable)
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
        tlb.insert(1, tlb_entry(false));
        assert!(tlb.lookup(1, false).is_some());
        assert!(tlb.lookup(1, true).is_none());
    }

    #[test]
    fn write_entry_serves_both() {
        let tlb = Tlb::new();
        tlb.insert(1, tlb_entry(true));
        assert!(tlb.lookup(1, false).is_some());
        assert!(tlb.lookup(1, true).is_some());
        assert_eq!(tlb.stats().hits.get(), 2);
    }

    #[test]
    fn upgrade_replaces_entry() {
        let tlb = Tlb::new();
        tlb.insert(1, tlb_entry(false));
        let upgrade = tlb_entry(true);
        tlb.insert(1, upgrade.clone());
        let found = tlb.lookup(1, true).expect("upgraded");
        assert!(Arc::ptr_eq(&found.frame, &upgrade.frame));
        assert!(tlb.shootdown(1));
        assert!(!tlb.shootdown(1), "one entry per page");
    }

    #[test]
    fn shootdown_removes() {
        let tlb = Tlb::new();
        tlb.insert(1, tlb_entry(true));
        assert!(tlb.shootdown(1));
        assert!(!tlb.shootdown(1));
        assert!(tlb.lookup(1, false).is_none());
        assert_eq!(tlb.stats().shootdowns.get(), 1);
    }

    #[test]
    fn dense_and_strided_pages_keep_their_own_entries() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let tlb = Tlb::new();
        let pages: Vec<u64> = (0..512).chain((1..64).map(|i| i << 32)).collect();
        let entries: Vec<TlbEntry> = pages.iter().map(|p| entry(&frames, p % 2 == 0)).collect();
        for (&page, e) in pages.iter().zip(&entries) {
            tlb.insert(page, e.clone());
        }
        for (&page, e) in pages.iter().zip(&entries) {
            let found = tlb.lookup(page, false).expect("mapped");
            assert!(Arc::ptr_eq(&found.frame, &e.frame), "page {page}");
            assert_eq!(tlb.lookup(page, true).is_some(), page % 2 == 0);
        }
        assert!(tlb.lookup(512, false).is_none());
    }
}
