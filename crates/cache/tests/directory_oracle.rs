//! Differential oracle for the block directory: [`Directory`] must give
//! exactly the answers of the hashed per-line map it replaced. The old
//! structure lives on here as the reference — one map entry per tracked
//! line, removed when its last sharer leaves, with the transaction body
//! it had in production — and both are driven with the same seeded
//! stream of accesses (with and without hints), page cleans, dirty
//! markings and page retirements; every return value is compared, and
//! every tracked line's state at checkpoints.
//!
//! The traces are built to reach what the block layout added: hints
//! that are stale, recycled, foreign or out of range; victims in other
//! blocks and in blocks that no longer exist; pages of half a block and
//! of four. Then the bound the free list is for, and a threaded smoke.

use mgs_cache::{CacheConfig, CleanOutcome, Directory, MissClass, ProcCache, SsmpCacheSystem};
use mgs_sim::XorShift64;
use std::collections::HashMap;

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
/// the one hint cell `PageFrame` carries.
#[derive(Debug, Clone, Copy)]
struct Frame {
    first_line: u64,
    hint: u32,
}

/// Everything one differential case holds: both systems, a tag array
/// per processor and side, the live frames and every line ever used.
struct Case {
    seed: u64,
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

    /// Frames are bump-allocated and never reuse a base, as in
    /// `FrameAllocator`.
    fn alloc(&mut self) -> Frame {
        self.allocated += 1;
        Frame {
            first_line: self.allocated * self.stride,
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
        format!("step {} (seed {:#x})", self.step, self.seed)
    }

    /// One access, through the hinted entry point (refreshing the
    /// frame's cell the way `Env::access` does) or the line-keyed one.
    fn access(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let line = self.frames[page].first_line + self.below(self.lines_per_page);
        let proc = self.below(PROCS as u64) as usize;
        let home = self.below(PROCS as u64) as usize;
        let write = self.below(4) == 0;
        let got = if self.below(3) != 0 {
            let hint = self.frames[page].hint;
            let (class, found) = access_hinted(
                &self.block,
                &mut self.block_caches[proc],
                proc,
                line,
                home,
                write,
                hint,
            );
            assert_ne!(found, Directory::NO_HINT, "{}", self.at());
            self.frames[page].hint = found;
            class
        } else {
            self.block
                .access(&mut self.block_caches[proc], proc, line, home, write)
        };
        let want = self
            .hashed
            .access(&mut self.hashed_caches[proc], proc, line, home, write);
        assert_eq!(got, want, "class of line {line} diverged at {}", self.at());
    }

    fn clean(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let lines = self.lines(page);
        let hinted = self.below(2) == 0;
        let directory = self.block.directory();
        let got = if hinted {
            directory.clean_page_hinted(lines.clone(), self.frames[page].hint)
        } else {
            directory.clean_page(lines.clone())
        };
        let want = self.hashed.directory.clean_page(lines);
        assert_eq!(got, want, "clean outcome diverged at {}", self.at());
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
        let hinted = self.below(2) == 0;
        let directory = self.block.directory();
        if hinted {
            directory.mark_dirty_lines_hinted(lines.iter().copied(), proc, self.frames[page].hint);
        } else {
            directory.mark_dirty_lines(lines.iter().copied(), proc);
        }
        self.hashed.directory.mark_dirty_lines(lines, proc);
    }

    /// Retires a page — cleaned, as the protocol does before it drops a
    /// copy — and puts a fresh frame in its place. The new frame keeps
    /// the old one's hint half of the time: a guess at a block that was
    /// just recycled and may already hold another chunk.
    fn retire(&mut self) {
        let page = self.below(self.frames.len() as u64) as usize;
        let lines = self.lines(page);
        let got = self
            .block
            .directory()
            .clean_page_hinted(lines.clone(), self.frames[page].hint);
        let want = self.hashed.directory.clean_page(lines);
        assert_eq!(got, want, "retiring clean diverged at {}", self.at());
        let stale = self.frames[page].hint;
        self.frames[page] = self.alloc();
        if self.below(2) == 0 {
            self.frames[page].hint = stale;
        }
    }

    /// Compares every line any frame ever covered, the tracked-line
    /// count and the per-class totals.
    fn checkpoint(&self) {
        let (block, hashed) = (self.block.directory(), &self.hashed.directory);
        assert_eq!(
            block.tracked_lines(),
            hashed.tracked_lines(),
            "tracked lines diverged at {}",
            self.at()
        );
        for frame in 1..=self.allocated {
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
        Case::new(seed, CacheConfig::tiny(), 4, 64, 64).run(2500);
    }
}

/// Alewife-sized caches with every frame 2,048 lines from the last, so
/// all frames fight over the same sets and every victim sits in
/// another block — often one a retirement has recycled since.
#[test]
fn block_directory_matches_hashed_with_alewife_caches() {
    for case in 0..12u64 {
        let seed = 0xA1EB_0000 | case;
        Case::new(seed, CacheConfig::alewife(), 5, 64, 2048).run(4000);
    }
}

/// A 512 B page is half a block (two frames share one, and one frame's
/// hint serves both); a 4 KB page is four blocks behind one hint cell.
#[test]
fn block_directory_matches_hashed_at_other_page_sizes() {
    for case in 0..8u64 {
        let seed = 0x5123_0000 | case;
        Case::new(seed, CacheConfig::tiny(), 6, 32, 32).run(2500);
        Case::new(seed, CacheConfig::alewife(), 3, 256, 2048).run(2500);
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

/// A frame's hint after its block was cleaned, recycled and handed to
/// another chunk names a block full of someone else's entries; the
/// chunk check sends the access to the index instead.
#[test]
fn a_hint_to_a_recycled_block_reads_nothing_of_its_new_chunk() {
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut caches = vec![ProcCache::new(CacheConfig::alewife()); 2];
    let (_, stale) = access_hinted(&sys, &mut caches[0], 0, 64, 0, true, Directory::NO_HINT);
    sys.directory().clean_page_hinted(64..128, stale);
    // Chunk 100 takes the freed slot; proc 1 dirties all of it.
    sys.directory().mark_dirty_lines(6400..6464, 1);
    let (_, reused) = access_hinted(&sys, &mut caches[1], 1, 6400, 0, true, Directory::NO_HINT);
    assert_eq!(reused, stale, "the freed slot was handed out again");

    // Through the stale hint, chunk 1 still reads as never cached.
    let fresh = SsmpCacheSystem::new(HW_POINTERS);
    let mut fresh_cache = ProcCache::new(CacheConfig::alewife());
    for (line, write) in [(65, false), (64, false), (127, true)] {
        assert_eq!(
            access_hinted(&sys, &mut caches[0], 0, line, 0, write, stale).0,
            fresh.access(&mut fresh_cache, 0, line, 0, write),
            "line {line}"
        );
    }
    assert_eq!(
        sys.directory().probe(6401),
        (1, Some(1)),
        "chunk 100 untouched"
    );
    let out = sys.directory().clean_page_hinted(64..128, stale);
    assert_eq!((out.dirty_lines, out.shared_lines), (1, 2));
    assert_eq!(sys.directory().tracked_lines(), 64);
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

/// An evicted line whose page was cleaned since: its block is gone (or
/// holds another chunk), so there is no sharer bit to clear.
#[test]
fn a_victim_whose_block_no_longer_exists_is_skipped() {
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut cache = ProcCache::new(CacheConfig::tiny()); // 8 sets × 2 ways
    let (_, hint) = access_hinted(&sys, &mut cache, 0, 640, 0, true, Directory::NO_HINT);
    sys.access(&mut cache, 0, 1280, 0, false);
    // Page 10 is cleaned: line 640's tag stays, its block is recycled.
    sys.directory().clean_page_hinted(640..704, hint);
    assert_eq!(sys.directory().tracked_lines(), 1);
    // Line 0 shares set 0: evicts 640 (LRU), whose memo names a free
    // block. Then the slot is reused and 1280 is evicted normally.
    assert_eq!(sys.access(&mut cache, 0, 0, 0, false), MissClass::LocalMiss);
    assert_eq!(sys.directory().tracked_lines(), 2);
    assert_eq!(sys.access(&mut cache, 0, 8, 0, false), MissClass::LocalMiss);
    assert!(!sys.directory().is_sharer(1280, 0));
    assert_eq!(sys.directory().tracked_lines(), 2);
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

/// Frames never reuse a base, so anything keyed by physical address
/// must give memory back: 10,000 fresh pages, each touched by two
/// processors, cleaned and then held (as a frame is quiesced after its
/// block was recycled), leave the slab where the first left it.
#[test]
fn ten_thousand_fresh_pages_reuse_one_block() {
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let mut caches = vec![ProcCache::new(CacheConfig::alewife()); 2];
    for page in 1..=10_000u64 {
        let lines = page * 64..(page + 1) * 64;
        let mut hint = Directory::NO_HINT;
        for line in lines.clone() {
            for (proc, cache) in caches.iter_mut().enumerate() {
                hint = access_hinted(&sys, cache, proc, line, 0, line % 2 == 0, hint).1;
            }
        }
        assert_eq!(sys.directory().tracked_lines(), 64);
        let out = sys.directory().clean_page_hinted(lines.clone(), hint);
        assert_eq!((out.dirty_lines, out.shared_lines), (32, 32), "page {page}");
        drop(sys.directory().hold(lines, hint));
    }
    assert_eq!(sys.directory().tracked_lines(), 0);
    assert_eq!(sys.directory().blocks_allocated(), 1);
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

/// Four threads on one shared page, one of them also cleaning it (so
/// the block is recycled and re-created under the others) and holding
/// it (so the others' reads fail validation and wait): afterwards
/// every entry is either empty, shared with no owner, or owned by its
/// only sharer, and the tracked count is the number of nonempty ones.
#[test]
fn four_threads_on_one_page_keep_the_entry_invariant() {
    const THREADS: usize = 4;
    let sys = SsmpCacheSystem::new(HW_POINTERS);
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for proc in 0..THREADS {
            let (sys, start) = (&sys, &start);
            scope.spawn(move || {
                let mut cache = ProcCache::new(CacheConfig::tiny());
                let mut rng = XorShift64::new(0x7EAD_0000 + proc as u64);
                let mut hint = Directory::NO_HINT;
                start.wait();
                for round in 0..20_000 {
                    let r = rng.next_u64();
                    let line = 64 + r % 64;
                    hint = access_hinted(sys, &mut cache, proc, line, 0, r >> 62 == 0, hint).1;
                    if proc == 0 && round % 64 == 63 {
                        sys.directory().clean_page_hinted(64..128, hint);
                    }
                    if proc == 0 && round % 64 == 31 {
                        let held = sys.directory().hold(64..128, hint);
                        std::hint::black_box(&held);
                    }
                }
            });
        }
    });
    let directory = sys.directory();
    let mut nonempty = 0;
    for line in 64..128 {
        let (sharers, owner) = directory.probe(line);
        nonempty += usize::from(sharers != 0);
        if let Some(owner) = owner {
            assert_eq!(sharers, 1, "owned line {line} has other sharers");
            assert!(directory.is_sharer(line, owner), "line {line}");
        }
    }
    assert_eq!(directory.tracked_lines(), nonempty);
    assert_eq!(sys.stats().total(), THREADS as u64 * 20_000);
    assert!(directory.blocks_allocated() <= 2);
}
