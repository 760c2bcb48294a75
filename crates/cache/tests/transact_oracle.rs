//! Equivalence oracle for the fused directory transaction: on random
//! access traces, [`SsmpCacheSystem::access`] (one shard-lock
//! acquisition per access) must produce exactly the same [`MissClass`]
//! sequence, directory state, tag-array contents, and statistics as
//! [`access_reference`] (the original multi-call path, which lived in
//! `SsmpCacheSystem` until the fused path replaced it in production).

use mgs_cache::{CacheConfig, MissClass, ProcCache, SsmpCacheSystem};
use mgs_sim::XorShift64;

const PROCS: usize = 4;
/// LimitLESS hardware pointer count both systems are built with.
const HW_POINTERS: usize = 5;

/// Reference implementation of [`SsmpCacheSystem::access`]: the
/// original unfused sequence of directory calls, each taking its own
/// shard lock.
fn access_reference(
    sys: &SsmpCacheSystem,
    cache: &mut ProcCache,
    proc: usize,
    line: u64,
    home: usize,
    is_write: bool,
) -> MissClass {
    let class = access_reference_inner(sys, cache, proc, line, home, is_write);
    sys.stats().record(class);
    class
}

fn access_reference_inner(
    sys: &SsmpCacheSystem,
    cache: &mut ProcCache,
    proc: usize,
    line: u64,
    home: usize,
    is_write: bool,
) -> MissClass {
    let directory = sys.directory();
    let resident = cache.contains(line) && directory.is_sharer(line, proc);
    if resident {
        if !is_write {
            return MissClass::Hit;
        }
        let (_, owner) = directory.probe(line);
        if owner == Some(proc) {
            return MissClass::Hit;
        }
        // Write to a shared line: upgrade, invalidating other
        // sharers through the directory.
        let others = directory.take_exclusive(line, proc);
        return if others > 0 {
            MissClass::TwoParty
        } else {
            MissClass::LocalMiss
        };
    }

    // Miss: classify from directory state before updating it.
    let (sharers, owner) = directory.probe(line);
    let class = match owner {
        Some(o) if o != proc => {
            if o == home {
                MissClass::TwoParty
            } else {
                MissClass::ThreeParty
            }
        }
        _ => {
            if !is_write && sharers as usize >= HW_POINTERS {
                MissClass::SwDirectory
            } else if home == proc {
                MissClass::LocalMiss
            } else {
                MissClass::RemoteClean
            }
        }
    };

    if is_write {
        directory.take_exclusive(line, proc);
    } else {
        if let Some(o) = owner {
            // Reading a dirty line forces a write-back; the line
            // becomes shared.
            directory.downgrade(line, o);
        }
        directory.add_sharer(line, proc);
    }
    if let Some(evicted) = cache.insert(line) {
        directory.remove_sharer(evicted, proc);
    }
    class
}

#[derive(Debug, Clone, Copy)]
struct Access {
    proc: usize,
    line: u64,
    home: usize,
    write: bool,
}

fn random_trace(rng: &mut XorShift64, len: usize, lines: u64) -> Vec<Access> {
    (0..len)
        .map(|_| Access {
            proc: rng.next_below(PROCS as u64) as usize,
            line: rng.next_below(lines),
            home: rng.next_below(PROCS as u64) as usize,
            // Bias toward reads so sharer sets actually grow.
            write: rng.next_below(4) == 0,
        })
        .collect()
}

fn assert_equivalent(seed: u64, cfg: CacheConfig, trace: &[Access], lines: u64) {
    let fused = SsmpCacheSystem::new(HW_POINTERS);
    let reference = SsmpCacheSystem::new(HW_POINTERS);
    let mut fused_caches: Vec<ProcCache> = (0..PROCS).map(|_| ProcCache::new(cfg)).collect();
    let mut ref_caches: Vec<ProcCache> = (0..PROCS).map(|_| ProcCache::new(cfg)).collect();
    for (i, a) in trace.iter().enumerate() {
        let f = fused.access(&mut fused_caches[a.proc], a.proc, a.line, a.home, a.write);
        let r = access_reference(
            &reference,
            &mut ref_caches[a.proc],
            a.proc,
            a.line,
            a.home,
            a.write,
        );
        assert_eq!(f, r, "class diverged at step {i} on {a:?} (seed {seed:#x})");
    }
    // Directory state must match line for line.
    assert_eq!(
        fused.directory().tracked_lines(),
        reference.directory().tracked_lines(),
        "tracked lines diverged (seed {seed:#x})"
    );
    for line in 0..lines {
        assert_eq!(
            fused.directory().probe(line),
            reference.directory().probe(line),
            "directory entry for line {line} diverged (seed {seed:#x})"
        );
        for p in 0..PROCS {
            assert_eq!(
                fused.directory().is_sharer(line, p),
                reference.directory().is_sharer(line, p),
                "sharer bit ({line}, {p}) diverged (seed {seed:#x})"
            );
        }
    }
    // Tag arrays: same residency per line (the fused path fills the
    // tag array eagerly, which must not change *what* is resident).
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
            // Keep the two LRU streams aligned: contains() ticks both.
        }
    }
    // Per-class statistics must agree.
    for class in MissClass::ALL {
        assert_eq!(
            fused.stats().count(class),
            reference.stats().count(class),
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
        let mut rng = XorShift64::new(seed);
        let trace = random_trace(&mut rng, 400, 64);
        assert_equivalent(seed, CacheConfig::tiny(), &trace, 64);
    }
}

/// Alewife-sized caches (2048 sets): mostly conflict-free, exercising
/// the hit/upgrade/miss classification paths.
#[test]
fn fused_matches_reference_at_alewife_geometry() {
    for case in 0..16u64 {
        let seed = 0x0A1E_F000 | case;
        let mut rng = XorShift64::new(seed);
        let trace = random_trace(&mut rng, 600, 4096);
        assert_equivalent(seed, CacheConfig::alewife(), &trace, 4096);
    }
}

/// Write-heavy traces exercise upgrades, take-exclusive invalidations
/// and dirty-line downgrades.
#[test]
fn fused_matches_reference_under_write_storms() {
    for case in 0..32u64 {
        let seed = 0x0BAD_C0DE | case;
        let mut rng = XorShift64::new(seed);
        let trace: Vec<Access> = (0..300)
            .map(|_| Access {
                proc: rng.next_below(PROCS as u64) as usize,
                line: rng.next_below(32),
                home: rng.next_below(PROCS as u64) as usize,
                write: rng.next_below(2) == 0,
            })
            .collect();
        assert_equivalent(seed, CacheConfig::tiny(), &trace, 32);
    }
}
