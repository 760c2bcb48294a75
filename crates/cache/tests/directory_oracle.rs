//! Differential oracle for the block directory and the fused access:
//! [`Directory`] behind [`SsmpCacheSystem`] must give exactly the
//! answers of the hashed per-line map it replaced. The old structure
//! lives on here as the reference — one map entry per tracked line,
//! removed when its last sharer leaves, with the transaction body it
//! had in production, which is also the unfused sequence of directory
//! calls (sharer test, probe, take-exclusive, downgrade, add-sharer)
//! the fused transaction replaced — and both are driven with the same
//! seeded stream of accesses, page cleans, dirty markings and page
//! retirements; every return value is compared, and at checkpoints the
//! tracked-line count, the per-class totals and (where the API can read
//! them) every tracked line's state.
//!
//! Each trace runs twice: once through frames' own blocks, as the
//! protocol and the runtime use the directory (claimed hints, frames
//! that die with live entries, victims of dead frames), and once
//! through bare lines, the cache system's adapter whose chunks keep
//! their blocks in its line map (tag hits on remembered hints, victims
//! in other blocks). Both reach pages of half a block and of four.
//! Then pure access traces through bare lines, which also compare the
//! tag arrays; the lock counts of an access; and the bound that freeing
//! dead frames keeps.
//!
//! [`Directory`]: mgs_cache::Directory

use mgs_cache::{
    BlockCell, CacheConfig, CleanOutcome, FrameWord, MissClass, ProcCache, SsmpCacheSystem,
};
use mgs_sim::{CostModel, XorShift64};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

/// A frame's access: `SsmpCacheSystem::access_hinted` with the hint of
/// the frame's block and a frame word whose generation never moves.
fn frame_access(
    sys: &SsmpCacheSystem,
    cache: &mut ProcCache,
    proc: usize,
    cell: &BlockCell,
    line: u64,
    home: usize,
    write: bool,
) -> MissClass {
    let (generation, word) = (AtomicU64::new(0), AtomicU64::new(0));
    let hint = cell.hint(line);
    let frame_word = FrameWord {
        generation: &generation,
        expect: 0,
        cell: &word,
        value: 1,
    };
    sys.access_hinted(cache, proc, line, home, write, hint, frame_word)
        .expect("a current translation is never refused")
        .class
}

const PROCS: usize = 6;
const HW_POINTERS: usize = 5;

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of local processors holding the line.
    sharers: u64,
    /// Local processor index owning the line dirty, if any.
    owner: Option<u8>,
}

/// The hashed directory: a line is tracked iff it has a map entry.
#[derive(Debug, Default)]
struct HashedDirectory {
    lines: HashMap<u64, DirEntry>,
}

impl HashedDirectory {
    fn transact(
        &mut self,
        line: u64,
        proc: usize,
        home: usize,
        is_write: bool,
        tag_hit: bool,
        evicted: Option<u64>,
    ) -> MissClass {
        let (sharer_mask, owner) = match self.lines.get(&line) {
            Some(e) => (e.sharers, e.owner.map(|p| p as usize)),
            None => (0, None),
        };
        let class = if tag_hit && sharer_mask & (1 << proc) != 0 {
            if !is_write || owner == Some(proc) {
                MissClass::Hit
            } else {
                let others = (sharer_mask & !(1 << proc)).count_ones();
                let e = self.lines.entry(line).or_default();
                e.sharers = 1 << proc;
                e.owner = Some(proc as u8);
                if others > 0 {
                    MissClass::TwoParty
                } else {
                    MissClass::LocalMiss
                }
            }
        } else {
            let class = match owner {
                Some(o) if o != proc => {
                    if o == home {
                        MissClass::TwoParty
                    } else {
                        MissClass::ThreeParty
                    }
                }
                _ => {
                    if !is_write && sharer_mask.count_ones() as usize >= HW_POINTERS {
                        MissClass::SwDirectory
                    } else if home == proc {
                        MissClass::LocalMiss
                    } else {
                        MissClass::RemoteClean
                    }
                }
            };
            let e = self.lines.entry(line).or_default();
            if is_write {
                e.sharers = 1 << proc;
                e.owner = Some(proc as u8);
            } else {
                if let Some(o) = owner {
                    if e.owner == Some(o as u8) {
                        e.owner = None;
                    }
                }
                e.sharers |= 1 << proc;
            }
            class
        };
        if let Some(victim) = evicted {
            if let Some(e) = self.lines.get_mut(&victim) {
                e.sharers &= !(1 << proc);
                if e.owner == Some(proc as u8) {
                    e.owner = None;
                }
                if e.sharers == 0 {
                    self.lines.remove(&victim);
                }
            }
        }
        class
    }

    /// A line's sharer mask and dirty owner, as
    /// `SsmpCacheSystem::probe` reads them.
    fn probe(&self, line: u64) -> (u64, Option<usize>) {
        match self.lines.get(&line) {
            Some(e) => (e.sharers, e.owner.map(|p| p as usize)),
            None => (0, None),
        }
    }

    fn clean_page(&mut self, lines: impl IntoIterator<Item = u64>) -> CleanOutcome {
        let mut out = CleanOutcome::default();
        for line in lines {
            match self.lines.remove(&line) {
                Some(e) if e.owner.is_some() => out.dirty_lines += 1,
                Some(_) => out.shared_lines += 1,
                None => out.uncached_lines += 1,
            }
        }
        out
    }

    fn mark_dirty_lines(&mut self, lines: impl IntoIterator<Item = u64>, proc: usize) {
        for line in lines {
            let e = self.lines.entry(line).or_default();
            e.sharers = 1 << proc;
            e.owner = Some(proc as u8);
        }
    }

    fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

/// The reference cache system: the hashed directory behind the access
/// sequence `SsmpCacheSystem::access` had (probe the tag array, fill on
/// a miss, one transaction), with its own per-class counts.
#[derive(Debug, Default)]
struct HashedSystem {
    directory: HashedDirectory,
    counts: [u64; 6],
}

impl HashedSystem {
    fn access(
        &mut self,
        cache: &mut ProcCache,
        proc: usize,
        line: u64,
        home: usize,
        is_write: bool,
    ) -> MissClass {
        let tag_hit = cache.contains(line);
        let evicted = if tag_hit { None } else { cache.insert(line) };
        let class = self
            .directory
            .transact(line, proc, home, is_write, tag_hit, evicted);
        self.counts[class.index()] += 1;
        class
    }
}

// ---------------------------------------------------------------------
// The trace
// ---------------------------------------------------------------------

/// A physical page as the layers above the cache see it: the
/// directory-slot cell `PageFrame` carries, bound to its lines (which
/// the bare-line mode leaves unused: the cache system keeps its own per
/// chunk).
#[derive(Debug)]
struct Frame {
    cell: BlockCell,
}

/// Everything one differential case holds: both systems, a tag array
/// per processor and side, the live frames and every line ever used.
struct Case {
    seed: u64,
    /// Whether the frames' own blocks serve every operation (the
    /// production paths), or the bare-line adapter does.
    owned: bool,
    rng: XorShift64,
    block: SsmpCacheSystem,
    hashed: HashedSystem,
    block_caches: Vec<ProcCache>,
    hashed_caches: Vec<ProcCache>,
    frames: Vec<Frame>,
    lines_per_page: u64,
    /// Distance between successive frames' first lines.
    stride: u64,
    allocated: u64,
    step: usize,
}

impl Case {
    fn new(seed: u64, cfg: CacheConfig, pages: usize, lines_per_page: u64, stride: u64) -> Case {
        let mut case = Case {
            seed,
            owned: false,
            rng: XorShift64::new(seed),
            block: SsmpCacheSystem::new(HW_POINTERS),
            hashed: HashedSystem::default(),
            block_caches: (0..PROCS).map(|_| ProcCache::new(cfg)).collect(),
            hashed_caches: (0..PROCS).map(|_| ProcCache::new(cfg)).collect(),
            frames: Vec::new(),
            lines_per_page,
            stride,
            allocated: 0,
            step: 0,
        };
        for _ in 0..pages {
            let frame = case.alloc();
            case.frames.push(frame);
        }
        case
    }

    /// Runs the trace of `seed` twice: through frames' own blocks and
    /// through bare lines.
    fn both(
        seed: u64,
        cfg: CacheConfig,
        pages: usize,
        lines_per_page: u64,
        stride: u64,
        steps: usize,
    ) {
        for owned in [true, false] {
            let mut case = Case::new(seed, cfg, pages, lines_per_page, stride);
            case.owned = owned;
            case.run(steps);
        }
    }

    /// Frames are bump-allocated and never reuse a base, as in
    /// `FrameAllocator`.
    fn alloc(&mut self) -> Frame {
        self.allocated += 1;
        let first = self.allocated * self.stride;
        Frame {
            cell: (self.block.directory()).cell(first..first + self.lines_per_page),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n)
    }

    fn lines(&self, page: usize) -> std::ops::Range<u64> {
        self.frames[page].cell.lines()
    }

    fn at(&self) -> String {
        format!(
            "step {} (seed {:#x}, {})",
            self.step,
            self.seed,
            if self.owned { "frames" } else { "bare lines" }
        )
    }

    /// One access: through the frame's block, or as a bare line.
    fn access(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let line = self.lines(page).start + self.below(self.lines_per_page);
        let proc = self.below(PROCS as u64) as usize;
        let home = self.below(PROCS as u64) as usize;
        let write = self.below(4) == 0;
        let cache = &mut self.block_caches[proc];
        let got = if self.owned {
            let cell = &self.frames[page].cell;
            frame_access(&self.block, cache, proc, cell, line, home, write)
        } else {
            self.block.access(cache, proc, line, home, write)
        };
        let want = self
            .hashed
            .access(&mut self.hashed_caches[proc], proc, line, home, write);
        assert_eq!(got, want, "class of line {line} diverged at {}", self.at());
    }

    /// Cleans a page's lines on both sides and compares the outcomes.
    /// A bare clean returns its cost, which with the lines it removed
    /// from the directory gives the whole outcome: the dirty count from
    /// the cost (a dirty line costs more), the shared count from the
    /// lines removed, the uncached count from the rest.
    fn clean_at(&mut self, page: usize) {
        let lines = self.lines(page);
        let want = self.hashed.directory.clean_page(lines.clone());
        if self.owned {
            let got = self.frames[page].cell.clean();
            assert_eq!(got, want, "clean outcome diverged at {}", self.at());
            return;
        }
        let cost = CostModel::alewife();
        assert_ne!(cost.clean_line_dirty, cost.clean_line_clean);
        let tracked = self.block.directory().tracked_lines();
        let charged = self.block.clean_page(lines, &cost);
        let removed = tracked - self.block.directory().tracked_lines();
        assert_eq!(
            (charged, removed as u64),
            (
                SsmpCacheSystem::clean_cost(want, &cost),
                want.shared_lines + want.dirty_lines
            ),
            "clean cost or lines removed diverged at {}",
            self.at()
        );
    }

    fn clean(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        self.clean_at(page);
    }

    /// Dirty-marks a random ascending subset of a frame's lines, as a
    /// diff's touched lines are. (Only frames are dirty-marked: the
    /// bare-line mode accesses instead.)
    fn mark_dirty(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let proc = self.below(PROCS as u64) as usize;
        let keep = 1 + self.below(4);
        let mut picks = XorShift64::new(self.rng.next_u64());
        let lines: Vec<u64> = self
            .lines(page)
            .filter(|_| picks.next_below(keep) == 0)
            .collect();
        self.frames[page]
            .cell
            .mark_dirty(lines.iter().copied(), proc);
        self.hashed.directory.mark_dirty_lines(lines, proc);
    }

    /// Retires a page and puts a fresh frame in its place. A frame's
    /// block dies with it, live entries and all — half the time it is
    /// cleaned first, as the protocol cleans a copy it gives up, and
    /// half the time not, as when it drops a stale one — and the next
    /// frame to claim may take the freed block while tags still name
    /// it. Bare lines have no frame to die: the page is cleaned, and
    /// its chunks keep their blocks.
    fn retire(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let lines = self.lines(page);
        if !self.owned || self.below(2) == 0 {
            self.clean_at(page);
        } else {
            self.hashed.directory.clean_page(lines);
        }
        self.frames[page] = self.alloc();
    }

    /// Compares the tracked-line count, the per-class totals and, where
    /// the bare-line adapter can read them, every line any frame ever
    /// covered: its sharer mask (so every sharer bit) and owner.
    fn checkpoint(&self) {
        let (block, hashed) = (self.block.directory(), &self.hashed.directory);
        assert_eq!(
            block.tracked_lines(),
            hashed.tracked_lines(),
            "tracked lines diverged at {}",
            self.at()
        );
        for frame in (1..=self.allocated).filter(|_| !self.owned) {
            let first = frame * self.stride;
            for line in first..first + self.lines_per_page {
                assert_eq!(
                    self.block.probe(line),
                    hashed.probe(line),
                    "entry of line {line} diverged at {}",
                    self.at()
                );
            }
        }
        for class in MissClass::ALL {
            assert_eq!(
                self.block.stats().count(class),
                self.hashed.counts[class.index()],
                "{class} count diverged at {}",
                self.at()
            );
        }
        assert_eq!(
            self.block.stats().total(),
            self.hashed.counts.iter().sum::<u64>(),
            "total diverged at {}",
            self.at()
        );
    }

    fn run(&mut self, steps: usize) {
        for step in 0..steps {
            self.step = step;
            match self.below(40) {
                0 => self.retire(),
                1 | 2 => self.clean(),
                3 | 4 if self.owned => self.mark_dirty(),
                _ => self.access(),
            }
            if step % 500 == 499 {
                self.checkpoint();
            }
        }
        self.checkpoint();
    }
}

/// An 8-set cache evicts on nearly every miss, mostly into the line's
/// own block (and its own stripe); dense default-size pages.
#[test]
fn block_directory_matches_hashed_with_tiny_caches() {
    for case in 0..24u64 {
        let seed = 0xD1B0_0000 | case;
        Case::both(seed, CacheConfig::tiny(), 4, 64, 64, 2500);
    }
}

/// Alewife-sized caches with every frame 2,048 lines from the last, so
/// all frames fight over the same sets and every victim sits in
/// another block — often one a retirement has freed since.
#[test]
fn block_directory_matches_hashed_with_alewife_caches() {
    for case in 0..12u64 {
        let seed = 0xA1EB_0000 | case;
        Case::both(seed, CacheConfig::alewife(), 5, 64, 2048, 4000);
    }
}

/// A 512 B page is half a block (two frames share a chunk: as bare
/// lines one block, a frame's own one each); a 4 KB page is four blocks.
#[test]
fn block_directory_matches_hashed_at_other_page_sizes() {
    for case in 0..8u64 {
        let seed = 0x5123_0000 | case;
        Case::both(seed, CacheConfig::tiny(), 6, 32, 32, 2500);
        Case::both(seed, CacheConfig::alewife(), 3, 256, 2048, 2500);
    }
}

/// A victim whose frame has died: its memo names a block that is free,
/// or that a later frame claimed for another chunk. Either way no entry
/// of its is left, and the later frame's entries — the victim's own
/// stripe and entry of the same block — are untouched.
#[test]
fn a_victim_of_a_dead_frame_is_skipped() {
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut cache = ProcCache::new(CacheConfig::tiny()); // 8 sets × 2 ways
    let mut access = |cell: &BlockCell, line: u64, write: bool| {
        frame_access(&sys, &mut cache, 0, cell, line, 0, write)
    };
    let (a, z) = (
        sys.directory().cell(64..128),
        sys.directory().cell(128..192),
    );
    z.hint(128); // claimed first
    access(&a, 64, true); // set 0
    access(&a, 65, true); // set 1
    let hint = a.hint(64);
    drop(a);
    // 136 evicts 64, whose memo names a free block.
    access(&z, 128, false);
    access(&z, 136, false);
    assert_eq!(sys.directory().tracked_lines(), 2);
    // A later frame takes the dead frame's block, all of it owned by
    // processor 1; 6409 evicts 65, whose stripe and entry there are
    // 6401's.
    let b = sys.directory().cell(6400..6464);
    assert_eq!(b.hint(6401), hint, "reused");
    b.mark_dirty(b.lines(), 1);
    access(&b, 6401, false);
    access(&b, 6409, false);
    assert_eq!(
        access(&b, 6401, false),
        MissClass::Hit,
        "processor 0 still shares 6401"
    );
    assert_eq!(sys.directory().tracked_lines(), 66);
    let out = b.clean();
    assert_eq!((out.shared_lines, out.dirty_lines), (2, 62));
}

/// Debug builds count stripe locks and line-map lookups per thread. A
/// frame's read hit takes no lock at all, and any other frame access
/// takes one stripe lock and never asks the line map. A bare line's
/// tag miss looks its chunk up in the line map (claiming the block on
/// first touch, with no stripe lock) and takes one stripe lock; its tag
/// hit takes the memo beside the tag and never asks the line map.
#[cfg(debug_assertions)]
#[test]
fn an_access_takes_one_stripe_lock_or_none() {
    use mgs_cache::Directory;
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut cache = ProcCache::new(CacheConfig::alewife());
    let counts = || (Directory::thread_locks(), SsmpCacheSystem::thread_lookups());
    let locks = |f: &mut dyn FnMut()| {
        let before = counts();
        f();
        let after = counts();
        (after.0 - before.0, after.1 - before.1)
    };
    let cell = sys.directory().cell(64..128);
    let frame = |cache: &mut ProcCache, line, write| {
        locks(&mut || {
            frame_access(&sys, cache, 0, &cell, line, 0, write);
        })
    };
    for (line, write, want, what) in [
        (70, false, (1, 0), "read miss"),
        (70, false, (0, 0), "read hit"),
        (71, true, (1, 0), "write miss"),
        (70, true, (1, 0), "write upgrade"),
        (70, true, (1, 0), "write hit"),
    ] {
        assert_eq!(
            frame(&mut cache, line, write),
            want,
            "frame line {line}: {what}"
        );
    }
    let mut bare = |line, write| {
        locks(&mut || {
            sys.access(&mut cache, 0, line, 0, write);
        })
    };
    for (line, write, want, what) in [
        (4096, false, (1, 1), "tag miss, the chunk's first touch"),
        (4097, true, (1, 1), "tag miss"),
        (4096, false, (0, 0), "read hit"),
        (4096, true, (1, 0), "write upgrade, tag hit"),
        (4097, true, (1, 0), "write hit"),
    ] {
        assert_eq!(bare(line, write), want, "bare line {line}: {what}");
    }
}

// ---------------------------------------------------------------------
// Access traces through bare lines
// ---------------------------------------------------------------------

/// Processors of an access trace.
const TRACE_PROCS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Access {
    proc: usize,
    line: u64,
    home: usize,
    write: bool,
}

/// `len` accesses to lines below `lines`, one in `write_odds` a write.
fn random_trace(rng: &mut XorShift64, len: usize, lines: u64, write_odds: u64) -> Vec<Access> {
    (0..len)
        .map(|_| Access {
            proc: rng.next_below(TRACE_PROCS as u64) as usize,
            line: rng.next_below(lines),
            home: rng.next_below(TRACE_PROCS as u64) as usize,
            write: rng.next_below(write_odds) == 0,
        })
        .collect()
}

/// Runs `trace` through `SsmpCacheSystem::access` and the hashed
/// system, comparing the class of every access; then the tracked-line
/// count, every line's entry (sharer mask and owner), every tag array's
/// residency, line by line, and the per-class counts.
fn assert_equivalent(seed: u64, cfg: CacheConfig, trace: &[Access], lines: u64) {
    let fused = SsmpCacheSystem::new(HW_POINTERS);
    let mut reference = HashedSystem::default();
    let mut fused_caches: Vec<ProcCache> = (0..TRACE_PROCS).map(|_| ProcCache::new(cfg)).collect();
    let mut ref_caches = fused_caches.clone();
    for (i, a) in trace.iter().enumerate() {
        let f = fused.access(&mut fused_caches[a.proc], a.proc, a.line, a.home, a.write);
        let r = reference.access(&mut ref_caches[a.proc], a.proc, a.line, a.home, a.write);
        assert_eq!(f, r, "class diverged at step {i} on {a:?} (seed {seed:#x})");
    }
    assert_eq!(
        fused.directory().tracked_lines(),
        reference.directory.tracked_lines(),
        "tracked lines diverged (seed {seed:#x})"
    );
    for line in 0..lines {
        assert_eq!(
            fused.probe(line),
            reference.directory.probe(line),
            "directory entry for line {line} diverged (seed {seed:#x})"
        );
    }
    // Tag arrays: same residency per line (the fused path fills the
    // tag array before the transaction, which must not change *what*
    // is resident). `contains` ticks both sides' LRU alike.
    for (p, (fc, rc)) in fused_caches.iter_mut().zip(&mut ref_caches).enumerate() {
        assert_eq!(
            fc.resident(),
            rc.resident(),
            "proc {p} resident count diverged (seed {seed:#x})"
        );
        for line in 0..lines {
            assert_eq!(
                fc.contains(line),
                rc.contains(line),
                "proc {p} residency of line {line} diverged (seed {seed:#x})"
            );
        }
    }
    for class in MissClass::ALL {
        assert_eq!(
            fused.stats().count(class),
            reference.counts[class.index()],
            "{class} count diverged (seed {seed:#x})"
        );
    }
}

/// Tiny caches (8 sets × 2 ways) force constant evictions: the victim
/// co-location and single-lock removal path is exercised on nearly
/// every access.
#[test]
fn fused_matches_reference_with_heavy_eviction() {
    for case in 0..48u64 {
        let seed = 0x5AC1_E000 | case;
        let trace = random_trace(&mut XorShift64::new(seed), 400, 64, 4);
        assert_equivalent(seed, CacheConfig::tiny(), &trace, 64);
    }
}

/// Alewife-sized caches (2048 sets): mostly conflict-free, exercising
/// the hit/upgrade/miss classification paths.
#[test]
fn fused_matches_reference_at_alewife_geometry() {
    for case in 0..16u64 {
        let seed = 0x0A1E_F000 | case;
        let trace = random_trace(&mut XorShift64::new(seed), 600, 4096, 4);
        assert_equivalent(seed, CacheConfig::alewife(), &trace, 4096);
    }
}

/// Write-heavy traces exercise upgrades, take-exclusive invalidations
/// and dirty-line downgrades.
#[test]
fn fused_matches_reference_under_write_storms() {
    for case in 0..32u64 {
        let seed = 0x0BAD_C0DE | case;
        let trace = random_trace(&mut XorShift64::new(seed), 300, 32, 2);
        assert_equivalent(seed, CacheConfig::tiny(), &trace, 32);
    }
}

// ---------------------------------------------------------------------
// Bounded memory
// ---------------------------------------------------------------------

/// Frames never reuse a base, so blocks must be given back: 10,000
/// fresh frames, each touched by two processors, cleaned, held and
/// dropped, leave the slab where the first left it — and so do 10,000
/// dropped uncleaned.
#[test]
fn ten_thousand_fresh_frames_reuse_one_block() {
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut caches = vec![ProcCache::new(CacheConfig::alewife()); 2];
    for page in 1..=20_000u64 {
        let cell = sys.directory().cell(page * 64..(page + 1) * 64);
        for line in cell.lines() {
            for (proc, cache) in caches.iter_mut().enumerate() {
                frame_access(&sys, cache, proc, &cell, line, 0, line % 2 == 0);
            }
        }
        assert_eq!(sys.directory().tracked_lines(), 64);
        if page <= 10_000 {
            let out = cell.clean();
            assert_eq!((out.dirty_lines, out.shared_lines), (32, 32), "page {page}");
            drop(cell.hold());
        }
        drop(cell);
        assert_eq!(sys.directory().tracked_lines(), 0);
    }
    assert_eq!(sys.directory().blocks_allocated(), 1);
}
