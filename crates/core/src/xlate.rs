//! The Env-local translation cache: a processor's recent translations,
//! kept in front of its shared software TLB (§4.2.1).

use mgs_vm::{PageFrame, TlbEntry};
use std::sync::Arc;

/// Sets (by page number modulo the set count) and ways per set. 128
/// entries hold MatMul's and Jacobi's working sets at the benchmark's
/// sizes (MatMul at n = 96 reads 72 pages of `B` in every row) but not
/// Barnes-Hut's tree walk at C = 32, and cost 3 KB of heap per
/// processor; four ways keep pages a power-of-two stride apart
/// (Jacobi's two grids) from evicting each other. Twice the entries
/// would hold Barnes-Hut too, but grew `scale_large_p`'s peak resident
/// set (P = 2048) by 15 %, where 128 grew it by 4 %.
const SETS: usize = 32;
const WAYS: usize = 4;

/// The tag of an empty slot. A page's tag is `page << 1 | writable`,
/// and no page number reaches `u64::MAX >> 1`.
const EMPTY: u64 = u64::MAX;

/// A slot's frame and the mapping generation its translation was made
/// against; `None` while the slot is empty.
type Entry = Option<(Arc<PageFrame>, u64)>;

/// Recent `(page, TlbEntry)` translations private to one processor:
/// `SETS` sets of `WAYS` ways, a slot numbered `set * WAYS + way`. The
/// tags sit in their own array, so a probe reads one set's four tags
/// and nothing else, and a hit writes nothing. Both arrays are built in
/// place on the heap: held by value in `Env`, or built on the task stack
/// and then boxed, they grow every task's resident stack (DESIGN.md,
/// hot-path item 1). Only the per-set refill cursor lives in the
/// owner's `Env`.
///
/// A hit skips the shared TLB's mutex and map lookup entirely; validity
/// is still guaranteed by the frame-generation check of the translation
/// critical section (§4.2.1) — every path that revokes a mapping bumps
/// the frame generation while the frame is quiesced, so a stale cached
/// entry simply fails the check and re-faults. Purely a host-side
/// optimization: simulated cycle charges are identical, though the
/// shared TLB's host-side hit counters no longer see the cached
/// lookups.
#[derive(Debug)]
pub(crate) struct XlateCache {
    /// Per set, per way: `page << 1 | writable`, or [`EMPTY`].
    tags: Box<[[u64; WAYS]]>,
    /// Per slot, the frame and mapping generation of its tag's page.
    entries: Box<[Entry]>,
    /// Per set, the way the next refill of a page the set lacks takes.
    next: [u8; SETS],
}

impl XlateCache {
    pub(crate) fn new() -> XlateCache {
        XlateCache {
            tags: vec![[EMPTY; WAYS]; SETS].into_boxed_slice(),
            entries: (0..SETS * WAYS).map(|_| None).collect(),
            next: [0; SETS],
        }
    }

    /// `page`'s set.
    #[inline]
    fn set_of(page: u64) -> usize {
        (page as usize) % SETS
    }

    /// The slot of `page`'s translation if it serves the access (a
    /// write needs a writable one). Reads the set's tags only.
    #[inline]
    pub(crate) fn probe(&self, page: u64, write: bool) -> Option<usize> {
        let set = Self::set_of(page);
        // A read takes either privilege: the low bit is forced on.
        let (want, any) = (page << 1 | 1, u64::from(!write));
        self.tags[set]
            .iter()
            .position(|&t| t | any == want)
            .map(|way| set * WAYS + way)
    }

    /// The frame and mapping generation in `slot`, one
    /// [`probe`](Self::probe) or [`fill`](Self::fill) returned.
    #[inline]
    pub(crate) fn entry(&self, slot: usize) -> (&PageFrame, u64) {
        let (frame, gen) = self.entries[slot]
            .as_ref()
            .expect("a tagged slot holds its entry");
        (frame, *gen)
    }

    /// Installs `entry` for `page` and returns its slot: the page's own
    /// way if its set has one, whatever its privilege (an upgrade or a
    /// refetch after a generation bump), else the way the set's
    /// round-robin cursor names, which then moves on.
    pub(crate) fn fill(&mut self, page: u64, entry: TlbEntry) -> usize {
        let slot = self.probe(page, false).unwrap_or_else(|| {
            let set = Self::set_of(page);
            let cursor = &mut self.next[set];
            let way = usize::from(*cursor);
            *cursor = ((way + 1) % WAYS) as u8;
            set * WAYS + way
        });
        self.tags[slot / WAYS][slot % WAYS] = page << 1 | u64::from(entry.writable);
        self.entries[slot] = Some((entry.frame, entry.gen));
        slot
    }

    /// Forgets every translation, so each next access takes the slow
    /// path through the shared TLB.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.tags.fill([EMPTY; WAYS]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_cache::Directory;
    use mgs_vm::{FrameAllocator, PageGeometry};

    fn entry(frames: &FrameAllocator, writable: bool) -> TlbEntry {
        let frame = frames.alloc(0);
        TlbEntry {
            gen: frame.generation(),
            frame,
            writable,
        }
    }

    /// The `i`-th page of set `set`.
    fn page(set: usize, i: u64) -> u64 {
        set as u64 + i * SETS as u64
    }

    #[test]
    fn a_write_to_a_read_only_entry_refills_the_pages_own_way() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut cache = XlateCache::new();
        for i in 0..3 {
            cache.fill(page(5, i), entry(&frames, false));
        }
        let slot = cache.probe(page(5, 1), false).expect("filled");
        assert_eq!(cache.probe(page(5, 1), true), None, "read-only");
        assert_eq!(cache.fill(page(5, 1), entry(&frames, true)), slot);
        assert_eq!(cache.probe(page(5, 1), true), Some(slot));
        // The other pages of the set are where they were.
        assert!(cache.probe(page(5, 0), false).is_some());
        assert!(cache.probe(page(5, 2), false).is_some());
    }

    #[test]
    fn a_stale_generation_refetch_replaces_the_same_way() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut cache = XlateCache::new();
        let stale = entry(&frames, true);
        let slot = cache.fill(page(0, 0), stale.clone());
        cache.fill(page(0, 1), entry(&frames, true));
        stale.frame.quiesce(&Directory::new()).bump_generation();
        let fresh = TlbEntry {
            gen: stale.frame.generation(),
            ..stale
        };
        assert_eq!(cache.fill(page(0, 0), fresh.clone()), slot);
        assert_eq!(cache.entry(slot).1, fresh.gen);
        assert!(cache.probe(page(0, 1), true).is_some());
    }

    #[test]
    fn the_round_robin_cursor_is_set_local() {
        let frames = FrameAllocator::new(PageGeometry::default());
        let mut cache = XlateCache::new();
        let a: Vec<usize> = (0..WAYS as u64)
            .map(|i| cache.fill(page(1, i), entry(&frames, false)))
            .collect();
        // Filling another set moves only that set's cursor.
        for i in 0..3 {
            cache.fill(page(2, i), entry(&frames, false));
        }
        // Set 1's fifth page takes its first way, the sixth its second.
        assert_eq!(cache.fill(page(1, 4), entry(&frames, false)), a[0]);
        assert_eq!(cache.probe(page(1, 0), false), None);
        assert_eq!(cache.fill(page(1, 5), entry(&frames, false)), a[1]);
        // A hit moves no cursor: way 2 is still the next victim.
        assert_eq!(cache.probe(page(1, 2), false), Some(a[2]));
        assert_eq!(cache.fill(page(1, 6), entry(&frames, false)), a[2]);
        // Set 2's cursor went on from where its own fills left it.
        assert_eq!(cache.fill(page(2, 3), entry(&frames, false)), 2 * WAYS + 3);
    }
}
