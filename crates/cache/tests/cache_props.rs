//! Randomized tests of the intra-SSMP coherence model: random access
//! interleavings preserve the single-writer invariant and the
//! tag/directory consistency rules.
//!
//! Cases come from a seeded [`XorShift64`] stream (proptest is
//! unavailable offline); assertion messages name the case seed so every
//! failure reproduces deterministically.

use mgs_cache::{CacheConfig, MissClass, ProcCache, SsmpCacheSystem};
use mgs_sim::XorShift64;

const PROCS: usize = 4;
const LINES: u64 = 64;

#[derive(Debug, Clone)]
struct Access {
    proc: usize,
    line: u64,
    home: usize,
    write: bool,
}

fn random_accesses(rng: &mut XorShift64, max_len: u64) -> Vec<Access> {
    let n = rng.next_below(max_len) as usize;
    (0..n)
        .map(|_| Access {
            proc: rng.next_below(PROCS as u64) as usize,
            line: rng.next_below(LINES),
            home: rng.next_below(PROCS as u64) as usize,
            write: rng.next_below(2) == 1,
        })
        .collect()
}

fn run(accesses: &[Access]) -> (SsmpCacheSystem, Vec<ProcCache>) {
    let sys = SsmpCacheSystem::new(5);
    let mut caches: Vec<ProcCache> = (0..PROCS)
        .map(|_| ProcCache::new(CacheConfig::tiny()))
        .collect();
    for a in accesses {
        sys.access(&mut caches[a.proc], a.proc, a.line, a.home, a.write);
    }
    (sys, caches)
}

fn for_each_case(cases: u64, max_len: u64, mut body: impl FnMut(u64, Vec<Access>)) {
    for case in 0..cases {
        let seed = 0xCAC4_E000_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        body(seed, random_accesses(&mut rng, max_len));
    }
}

/// Single-writer invariant: a dirty line has exactly one sharer — its
/// owner.
#[test]
fn dirty_lines_have_exactly_one_sharer() {
    for_each_case(128, 200, |seed, accesses| {
        let (sys, _) = run(&accesses);
        for line in 0..LINES {
            let (sharers, owner) = sys.probe(line);
            if let Some(o) = owner {
                assert_eq!(sharers, 1 << o, "dirty line {line} ({seed:#x})");
            }
        }
    });
}

/// A write is immediately followed by a hit from the same processor
/// (it owns the line exclusively).
#[test]
fn write_then_same_proc_access_hits() {
    for_each_case(128, 100, |seed, accesses| {
        let (sys, mut caches) = run(&accesses);
        sys.access(&mut caches[0], 0, 7, 1, true);
        let r = sys.access(&mut caches[0], 0, 7, 1, false);
        assert_eq!(r, MissClass::Hit, "seed {seed:#x}");
        let w = sys.access(&mut caches[0], 0, 7, 1, true);
        assert_eq!(w, MissClass::Hit, "seed {seed:#x}");
    });
}

/// After a write by P, every other processor's next access misses
/// (their copies were invalidated through the directory).
#[test]
fn write_invalidates_all_other_copies() {
    for_each_case(128, 100, |seed, accesses| {
        let (sys, mut caches) = run(&accesses);
        let (first, rest) = caches.split_at_mut(1);
        sys.access(&mut first[0], 0, 9, 0, true);
        // Only the first foreign access is guaranteed to miss.
        let class = sys.access(&mut rest[0], 1, 9, 0, false);
        assert_ne!(class, MissClass::Hit, "proc 1 hit a stale line ({seed:#x})");
    });
}

/// Cleaning a page leaves no directory state behind, whatever came
/// before.
#[test]
fn clean_page_clears_directory() {
    for_each_case(128, 200, |seed, accesses| {
        let (sys, _) = run(&accesses);
        let cost = mgs_sim::CostModel::alewife();
        let charged = sys.clean_page(0..LINES, &cost);
        assert_eq!(sys.directory().tracked_lines(), 0, "seed {seed:#x}");
        assert!(charged >= cost.clean_line_clean * LINES, "seed {seed:#x}");
        assert!(charged <= cost.clean_line_dirty * LINES, "seed {seed:#x}");
    });
}

/// The per-processor tag array never exceeds its capacity.
#[test]
fn tag_arrays_respect_capacity() {
    for_each_case(128, 300, |seed, accesses| {
        let (_, caches) = run(&accesses);
        for c in &caches {
            assert!(c.resident() <= c.config().total_lines(), "seed {seed:#x}");
        }
    });
}

/// Access classification is always one of the Table 3 classes and the
/// per-class counts add up to the total.
#[test]
fn stats_are_consistent() {
    for_each_case(128, 200, |seed, accesses| {
        let (sys, mut caches) = run(&accesses);
        for cache in &mut caches {
            sys.absorb(cache);
        }
        let stats = sys.stats();
        let by_class: u64 = MissClass::ALL.iter().map(|&c| stats.count(c)).sum();
        assert_eq!(by_class, stats.total(), "seed {seed:#x}");
        assert_eq!(stats.total(), accesses.len() as u64, "seed {seed:#x}");
    });
}
