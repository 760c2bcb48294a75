//! Differential oracle for the block directory: [`Directory`] must give
//! exactly the answers of the hashed per-line map it replaced. The old
//! structure lives on here as the reference — one map entry per tracked
//! line, removed when its last sharer leaves, with the transaction body
//! it had in production — and both are driven with the same seeded
//! stream of accesses, page cleans, dirty markings and page
//! retirements; every return value is compared, and at checkpoints the
//! tracked-line count, the per-class totals and (where the API can read
//! them) every tracked line's state.
//!
//! Each trace runs twice: once through frames' own blocks, as the
//! protocol and the runtime use the directory (claimed hints, frames
//! that die with live entries, victims of dead frames), and once through
//! the hint-less API with remembered guesses (hints that are stale,
//! foreign or out of range; victims in other blocks). Both reach pages
//! of half a block and of four. Then the bound that freeing dead frames
//! keeps.

use mgs_cache::{
    BlockCell, CacheConfig, CleanOutcome, Directory, FrameWord, MissClass, ProcCache,
    SsmpCacheSystem,
};
use mgs_sim::XorShift64;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

/// `SsmpCacheSystem::access_hinted` with no frame word: the class and
/// the block's true hint.
fn access_hinted(
    sys: &SsmpCacheSystem,
    cache: &mut ProcCache,
    proc: usize,
    line: u64,
    home: usize,
    write: bool,
    hint: u32,
) -> (MissClass, u32) {
    let served = sys
        .access_hinted(cache, proc, line, home, write, hint, None)
        .expect("an access with no frame word is never refused");
    (served.class, served.hint)
}

/// A frame's access: `SsmpCacheSystem::access_hinted` with the hint of
/// the frame's block and a frame word whose generation never moves.
#[allow(clippy::too_many_arguments)]
fn frame_access(
    sys: &SsmpCacheSystem,
    cache: &mut ProcCache,
    proc: usize,
    cell: &BlockCell,
    lines: std::ops::Range<u64>,
    line: u64,
    home: usize,
    write: bool,
) -> MissClass {
    let (generation, word) = (AtomicU64::new(0), AtomicU64::new(0));
    let hint = sys.directory().hint(cell, lines, line);
    let frame_word = FrameWord {
        generation: &generation,
        expect: 0,
        cell: &word,
        value: 1,
    };
    let served = sys
        .access_hinted(cache, proc, line, home, write, hint, Some(frame_word))
        .expect("a current translation is never refused");
    assert_eq!(served.hint, hint, "a frame's hint is its block's");
    served.class
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

    fn is_sharer(&self, line: u64, proc: usize) -> bool {
        self.lines
            .get(&line)
            .is_some_and(|e| e.sharers & (1 << proc) != 0)
    }

    fn probe(&self, line: u64) -> (u32, Option<usize>) {
        match self.lines.get(&line) {
            Some(e) => (e.sharers.count_ones(), e.owner.map(|p| p as usize)),
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

/// A physical page as the layers above the cache see it: its lines and
/// the directory-slot cell `PageFrame` carries; the hint-less mode
/// remembers a guess beside it instead.
#[derive(Debug)]
struct Frame {
    first_line: u64,
    cell: BlockCell,
    /// The last hint an access returned (the hint-less mode's guess).
    hint: u32,
}

/// Everything one differential case holds: both systems, a tag array
/// per processor and side, the live frames and every line ever used.
struct Case {
    seed: u64,
    /// Whether the frames' own blocks serve every operation (the
    /// production paths), or the hint-less API does.
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
    /// through the hint-less API.
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
        Frame {
            first_line: self.allocated * self.stride,
            cell: BlockCell::default(),
            hint: Directory::NO_HINT,
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n)
    }

    fn lines(&self, page: usize) -> std::ops::Range<u64> {
        let first = self.frames[page].first_line;
        first..first + self.lines_per_page
    }

    fn at(&self) -> String {
        format!(
            "step {} (seed {:#x}, {})",
            self.step,
            self.seed,
            if self.owned { "frames" } else { "hint-less" }
        )
    }

    /// One access: through the frame's block; or, hint-less, through
    /// the hinted entry point given the frame's remembered guess or the
    /// line-keyed one.
    fn access(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let line = self.frames[page].first_line + self.below(self.lines_per_page);
        let proc = self.below(PROCS as u64) as usize;
        let home = self.below(PROCS as u64) as usize;
        let write = self.below(4) == 0;
        let hinted = self.below(3) != 0;
        let lines = self.lines(page);
        let cache = &mut self.block_caches[proc];
        let got = if self.owned {
            let cell = &self.frames[page].cell;
            frame_access(&self.block, cache, proc, cell, lines, line, home, write)
        } else if hinted {
            let hint = self.frames[page].hint;
            let (class, found) = access_hinted(&self.block, cache, proc, line, home, write, hint);
            assert_ne!(found, Directory::NO_HINT, "{}", self.at());
            self.frames[page].hint = found;
            class
        } else {
            self.block.access(cache, proc, line, home, write)
        };
        let want = self
            .hashed
            .access(&mut self.hashed_caches[proc], proc, line, home, write);
        assert_eq!(got, want, "class of line {line} diverged at {}", self.at());
    }

    /// Cleans a page's lines on both sides and compares the outcomes.
    fn clean_at(&mut self, page: usize) {
        let lines = self.lines(page);
        let directory = self.block.directory();
        let got = if self.owned {
            directory.clean_frame(&self.frames[page].cell, lines.clone())
        } else {
            directory.clean_page(lines.clone())
        };
        let want = self.hashed.directory.clean_page(lines);
        assert_eq!(got, want, "clean outcome diverged at {}", self.at());
    }

    fn clean(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        self.clean_at(page);
    }

    /// Dirty-marks a random ascending subset of a page's lines, as a
    /// diff's touched lines are.
    fn mark_dirty(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let proc = self.below(PROCS as u64) as usize;
        let keep = 1 + self.below(4);
        let mut picks = XorShift64::new(self.rng.next_u64());
        let lines: Vec<u64> = self
            .lines(page)
            .filter(|_| picks.next_below(keep) == 0)
            .collect();
        let directory = self.block.directory();
        if self.owned {
            let frame = &self.frames[page];
            directory.mark_dirty_frame(&frame.cell, self.lines(page), lines.iter().copied(), proc);
        } else {
            directory.mark_dirty_lines(lines.iter().copied(), proc);
        }
        self.hashed.directory.mark_dirty_lines(lines, proc);
    }

    /// Retires a page and puts a fresh frame in its place. A frame's
    /// block dies with it, live entries and all — half the time it is
    /// cleaned first, as the protocol cleans a copy it gives up, and
    /// half the time not, as when it drops a stale one — and the next
    /// frame to claim may take the freed block while tags still name
    /// it. Hint-less, the page is cleaned and the new frame keeps the
    /// old one's guess half the time.
    fn retire(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let lines = self.lines(page);
        if !self.owned || self.below(2) == 0 {
            self.clean_at(page);
        } else {
            self.hashed.directory.clean_page(lines);
        }
        let stale = self.frames[page].hint;
        self.frames[page] = self.alloc();
        if self.below(2) == 0 {
            self.frames[page].hint = stale;
        }
    }

    /// Compares the tracked-line count, the per-class totals and, where
    /// the hint-less API can read them, every line any frame ever
    /// covered.
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
                    block.probe(line),
                    hashed.probe(line),
                    "entry of line {line} diverged at {}",
                    self.at()
                );
                for proc in 0..PROCS {
                    assert_eq!(
                        block.is_sharer(line, proc),
                        hashed.is_sharer(line, proc),
                        "sharer bit ({line}, {proc}) diverged at {}",
                        self.at()
                    );
                }
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
                3 | 4 => self.mark_dirty(),
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

/// A 512 B page is half a block (two frames share a chunk: hint-less
/// one block, a frame's own one each); a 4 KB page is four blocks.
#[test]
fn block_directory_matches_hashed_at_other_page_sizes() {
    for case in 0..8u64 {
        let seed = 0x5123_0000 | case;
        Case::both(seed, CacheConfig::tiny(), 6, 32, 32, 2500);
        Case::both(seed, CacheConfig::alewife(), 3, 256, 2048, 2500);
    }
}

// ---------------------------------------------------------------------
// Hints cannot hurt
// ---------------------------------------------------------------------

/// A block system and the hashed reference side by side, each with its
/// own tag array for one processor.
struct Pair {
    block: SsmpCacheSystem,
    hashed: HashedSystem,
    block_cache: ProcCache,
    hashed_cache: ProcCache,
}

impl Pair {
    fn new(cfg: CacheConfig) -> Pair {
        Pair {
            block: SsmpCacheSystem::new(HW_POINTERS),
            hashed: HashedSystem::default(),
            block_cache: ProcCache::new(cfg),
            hashed_cache: ProcCache::new(cfg),
        }
    }

    /// One access by processor 0 on both sides, the block side given
    /// `hint`; the classes and the line's entry must agree.
    fn access(&mut self, line: u64, write: bool, hint: u32) {
        let (got, _) = access_hinted(&self.block, &mut self.block_cache, 0, line, 0, write, hint);
        let want = self
            .hashed
            .access(&mut self.hashed_cache, 0, line, 0, write);
        assert_eq!(got, want, "class of ({line}, {write})");
        assert_eq!(
            self.block.directory().probe(line),
            self.hashed.directory.probe(line),
            "entry of line {line}"
        );
    }
}

/// A tag array filled against one system remembers slots that mean
/// nothing — or are out of range — in another.
#[test]
fn a_tag_array_filled_against_another_system_is_only_wrong_guesses() {
    // One line in each of forty chunks, five to a set of the 8-set
    // cache: the sixteen tags left resident remember slots 24 to 39.
    let line_of = |chunk: u64| chunk * 64 + chunk % 8;
    let mut pair = Pair::new(CacheConfig::tiny());
    for chunk in 0..40 {
        pair.access(line_of(chunk), true, Directory::NO_HINT);
    }
    // A fresh system whose slab is one 16-block segment, its slot 0
    // held by a chunk the tag array never saw.
    pair.block = SsmpCacheSystem::new(HW_POINTERS);
    pair.hashed = HashedSystem::default();
    pair.block.directory().mark_dirty_lines([64_000], 1);
    pair.hashed.directory.mark_dirty_lines([64_000], 1);
    // Tag hits go in on the foreign memos, and every fill evicts a
    // line whose memo is foreign too.
    for chunk in (0..40).rev() {
        pair.access(line_of(chunk), false, Directory::NO_HINT);
        pair.access(line_of(chunk) + 8, true, Directory::NO_HINT);
        pair.access(line_of(chunk), true, Directory::NO_HINT);
    }
    assert_eq!(pair.block.directory().probe(64_000), (1, Some(1)));
    assert_eq!(
        pair.block.directory().tracked_lines(),
        pair.hashed.directory.tracked_lines()
    );
    // Hints no slab could hold.
    let mut pair = Pair::new(CacheConfig::tiny());
    for chunk in 0..40 {
        pair.access(
            line_of(chunk),
            chunk % 2 == 0,
            u32::MAX - (chunk % 3) as u32,
        );
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
    let mut access = |cell: &BlockCell, lines: std::ops::Range<u64>, line: u64, write: bool| {
        frame_access(&sys, &mut cache, 0, cell, lines, line, 0, write)
    };
    let (a, a_lines) = (BlockCell::default(), 64..128);
    let (z, z_lines) = (BlockCell::default(), 128..192);
    sys.directory().hint(&z, z_lines.clone(), 128); // claimed first
    access(&a, a_lines.clone(), 64, true); // set 0
    access(&a, a_lines.clone(), 65, true); // set 1
    let hint = sys.directory().hint(&a, a_lines, 64);
    drop(a);
    // 136 evicts 64, whose memo names a free block.
    access(&z, z_lines.clone(), 128, false);
    access(&z, z_lines.clone(), 136, false);
    assert_eq!(sys.directory().tracked_lines(), 2);
    // A later frame takes the dead frame's block, all of it owned by
    // processor 1; 6409 evicts 65, whose stripe and entry there are
    // 6401's.
    let (b, b_lines) = (BlockCell::default(), 6400..6464);
    assert_eq!(
        sys.directory().hint(&b, b_lines.clone(), 6401),
        hint,
        "reused"
    );
    sys.directory()
        .mark_dirty_frame(&b, b_lines.clone(), b_lines.clone(), 1);
    access(&b, b_lines.clone(), 6401, false);
    access(&b, b_lines.clone(), 6409, false);
    assert_eq!(
        access(&b, b_lines.clone(), 6401, false),
        MissClass::Hit,
        "processor 0 still shares 6401"
    );
    assert_eq!(sys.directory().tracked_lines(), 66);
    let out = sys.directory().clean_frame(&b, b_lines);
    assert_eq!((out.shared_lines, out.dirty_lines), (2, 62));
}

/// Debug builds count locks per thread: a read hit whose hint is right
/// takes no lock at all, and any other access whose hint is right takes
/// one stripe lock and never asks the index; without a hint the memo
/// beside the tag serves; a wrong hint costs the wasted stripe lock and
/// one index lookup, nothing else.
#[cfg(debug_assertions)]
#[test]
fn a_right_hint_costs_one_stripe_lock_or_none_and_no_index_lookup() {
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut cache = ProcCache::new(CacheConfig::alewife());
    let locks = |f: &mut dyn FnMut()| {
        let before = Directory::thread_locks();
        f();
        let after = Directory::thread_locks();
        (after.0 - before.0, after.1 - before.1)
    };
    let mut hint = Directory::NO_HINT;
    sys.access(&mut cache, 0, 4096, 0, false); // another block takes slot 0
    let first = locks(&mut || hint = access_hinted(&sys, &mut cache, 0, 70, 0, false, hint).1);
    assert_eq!(
        first,
        (8 + 1, 2),
        "index miss, create (8 claims), the access"
    );
    for line in [70, 71, 127] {
        let tag_miss = line != 70;
        let n = locks(&mut || {
            access_hinted(&sys, &mut cache, 0, line, 0, tag_miss, hint);
        });
        assert_eq!(
            n,
            (u64::from(tag_miss), 0),
            "line {line}, right hint: a read hit, or a write miss"
        );
        let n = locks(&mut || {
            sys.access(&mut cache, 0, line, 0, false);
        });
        assert_eq!(n, (0, 0), "line {line}, memo: a read hit");
    }
    for (line, write, what) in [
        (72, false, "read miss"),
        (70, true, "write upgrade"),
        (70, true, "write hit"),
    ] {
        let n = locks(&mut || {
            access_hinted(&sys, &mut cache, 0, line, 0, write, hint);
        });
        assert_eq!(n, (1, 0), "line {line}, right hint: {what}");
    }
    let n = locks(&mut || {
        access_hinted(&sys, &mut cache, 0, 70, 0, false, hint - 1);
    });
    assert_eq!(
        n,
        (2, 1),
        "wrong hint: its stripe, the index, the right stripe"
    );
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
        let (cell, lines) = (BlockCell::default(), page * 64..(page + 1) * 64);
        for line in lines.clone() {
            for (proc, cache) in caches.iter_mut().enumerate() {
                frame_access(
                    &sys,
                    cache,
                    proc,
                    &cell,
                    lines.clone(),
                    line,
                    0,
                    line % 2 == 0,
                );
            }
        }
        assert_eq!(sys.directory().tracked_lines(), 64);
        if page <= 10_000 {
            let out = sys.directory().clean_frame(&cell, lines.clone());
            assert_eq!((out.dirty_lines, out.shared_lines), (32, 32), "page {page}");
            drop(sys.directory().hold(&cell, lines));
        }
        drop(cell);
        assert_eq!(sys.directory().tracked_lines(), 0);
    }
    assert_eq!(sys.directory().blocks_allocated(), 1);
}
