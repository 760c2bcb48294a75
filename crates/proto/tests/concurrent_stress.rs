//! Multi-threaded protocol stress: many OS threads hammer the protocol
//! engines concurrently with a data-race-free phased workload; the home
//! copies must end up exactly right. Exercises the page lock that
//! serializes each page's transactions, TLB shootdown, generation
//! retirement, and DUQ pruning under real concurrency. Then three
//! contracts on their own: siblings faulting one cold page at once fill
//! it once, siblings acquiring at once under home-LRC each return only
//! once every noticed copy is dropped, and stores race a loop of
//! quiesce, diff and generation bump.

use mgs_cache::{CacheConfig, ProcCache, SsmpCacheSystem};
use mgs_proto::{ClientState, MgsProtocol, ProtoConfig, ProtocolKind, RecordingTiming, SpanDiff};
use mgs_sim::{CostModel, Cycles, XorShift64};
use mgs_vm::{FrameAllocator, PageFrame, PageGeometry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const N_SSMPS: usize = 4;
const C: usize = 2;
const N_PROCS: usize = N_SSMPS * C;
const N_PAGES: u64 = 6;
const PHASES: usize = 5;

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
}

/// The runtime's access loop (`Env::access`): translate through the TLB
/// (or fault), then one access through the SSMP's cache system, which
/// re-validates the mapping generation under the line's directory
/// stripe; an access refused because a concurrent invalidation retired
/// the mapping re-faults and retries. Stores `store` if given; returns
/// the word.
fn access(
    proto: &MgsProtocol,
    cache: &mut ProcCache,
    proc: usize,
    page: u64,
    word: u64,
    store: Option<u64>,
    t: &mut RecordingTiming,
) -> u64 {
    let write = store.is_some();
    let sys = proto.cache_system(proc / C);
    let mut e = match proto.tlb(proc).lookup(page, write) {
        Some(e) => e,
        None => proto.fault(proc, page, write, t),
    };
    loop {
        let frame = &e.frame;
        let line = frame.line_of_word(word);
        let served = sys.access_hinted(
            cache,
            proc % C,
            line,
            frame.home_node() % C,
            write,
            frame.dir_hint(sys.directory(), line),
            frame.word(word, e.gen, store.unwrap_or(0)),
        );
        if let Some(served) = served {
            return served.value;
        }
        e = proto.fault(proc, page, write, t);
    }
}

/// Runs a phased DRF workload: in each phase every processor writes a
/// disjoint word set (derived from a seeded shuffle), then all release
/// and rendezvous. Returns the expected final memory image.
fn stress(proto: &Arc<MgsProtocol>) -> Vec<Vec<u64>> {
    let mut expected = vec![vec![0u64; 128]; N_PAGES as usize];
    // Precompute each phase's write plan (word -> (proc, value)).
    let mut plans: Vec<Vec<(usize, u64, u64, u64)>> = Vec::new(); // (proc, page, word, value)
    let mut rng = XorShift64::new(0xC0FFEE);
    for phase in 0..PHASES {
        let mut plan = Vec::new();
        for page in 0..N_PAGES {
            for word in 0..128u64 {
                if rng.next_f64() < 0.15 {
                    let proc = rng.next_below(N_PROCS as u64) as usize;
                    let value = (phase as u64 + 1) * 1000 + page * 128 + word;
                    plan.push((proc, page, word, value));
                    expected[page as usize][word as usize] = value;
                }
            }
        }
        plans.push(plan);
    }

    let rendezvous = Arc::new(Barrier::new(N_PROCS));
    let plans = Arc::new(plans);
    std::thread::scope(|scope| {
        for proc in 0..N_PROCS {
            let proto = Arc::clone(proto);
            let rendezvous = Arc::clone(&rendezvous);
            let plans = Arc::clone(&plans);
            scope.spawn(move || {
                let mut t = timing();
                let mut cache = ProcCache::new(CacheConfig::alewife());
                for plan in plans.iter() {
                    for &(_p, page, word, value) in plan.iter().filter(|&&(p, ..)| p == proc) {
                        access(&proto, &mut cache, proc, page, word, Some(value), &mut t);
                        // Random extra reads create read sharing.
                        if word % 7 == 0 {
                            let page = (page + 1) % N_PAGES;
                            access(&proto, &mut cache, proc, page, word, None, &mut t);
                        }
                    }
                    // Release point + rendezvous (a barrier).
                    proto.release_all(proc, &mut t);
                    rendezvous.wait();
                }
            });
        }
    });
    expected
}

fn check(proto: &MgsProtocol, expected: &[Vec<u64>]) {
    for (page, words) in expected.iter().enumerate() {
        let home = proto.home_frame(page as u64);
        for (w, &v) in words.iter().enumerate() {
            assert_eq!(home.load(w as u64), v, "page {page} word {w} after stress");
        }
    }
}

#[test]
fn concurrent_drf_stress_eager() {
    let proto = Arc::new(MgsProtocol::new(ProtoConfig::new(N_SSMPS, C)));
    let expected = stress(&proto);
    check(&proto, &expected);
}

#[test]
fn concurrent_drf_stress_without_single_writer_opt() {
    let mut cfg = ProtoConfig::new(N_SSMPS, C);
    cfg.single_writer_opt = false;
    let proto = Arc::new(MgsProtocol::new(cfg));
    let expected = stress(&proto);
    check(&proto, &expected);
}

#[test]
fn repeated_stress_is_stable() {
    for _ in 0..3 {
        let proto = Arc::new(MgsProtocol::new(ProtoConfig::new(N_SSMPS, C)));
        let expected = stress(&proto);
        check(&proto, &expected);
    }
}

/// Runs `body` on its own thread, failing by name if it has not ended
/// within a minute.
fn within_deadline<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(outcome) => outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
        Err(_) => panic!("{what}: still running after 60 s"),
    }
}

/// One fill per page: `threads` processors of SSMP 0 read-fault each of
/// 200 cold pages homed at SSMP 1 at once. The page lock serializes
/// them, so the first fills the SSMP's copy and the rest are TLB fills
/// of it, every one mapping the same frame.
fn siblings_fill_a_cold_page_once(threads: usize) {
    const PAGES: u64 = 200;
    let proto = MgsProtocol::new(ProtoConfig::new(2, threads));
    for page in 0..PAGES {
        proto.set_home(page, threads);
    }
    let start = Barrier::new(threads);
    let frames: Vec<Vec<Arc<PageFrame>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|proc| {
                let (proto, start) = (&proto, &start);
                scope.spawn(move || {
                    let mut t = timing();
                    (0..PAGES)
                        .map(|page| {
                            start.wait();
                            proto.fault(proc, page, false, &mut t).frame
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = proto.stats();
    assert_eq!(stats.read_misses.get(), PAGES, "one fill per page");
    assert_eq!(stats.tlb_fills.get(), PAGES * (threads as u64 - 1));
    for page in 0..PAGES as usize {
        for sibling in &frames[1..] {
            assert!(
                Arc::ptr_eq(&sibling[page], &frames[0][page]),
                "page {page}: every sibling maps the one copy"
            );
        }
    }
}

#[test]
fn siblings_fill_a_cold_page_once_at_2_threads() {
    within_deadline("2 siblings faulting", || siblings_fill_a_cold_page_once(2));
}

#[test]
fn siblings_fill_a_cold_page_once_at_4_threads() {
    within_deadline("4 siblings faulting", || siblings_fill_a_cold_page_once(4));
}

/// Acquire-side drains are performed, not merely claimed: under
/// home-LRC, `threads` processors of SSMP 0 read 64 pages homed at
/// SSMP 2, SSMP 1 writes and releases them (a write notice each), and
/// every processor of SSMP 0 acquires at once. Each finds every copy
/// dropped when its own acquire returns, and each page is dropped
/// once, however many siblings drained.
fn siblings_acquiring_at_once_drop_every_noticed_copy(threads: usize) {
    const PAGES: u64 = 64;
    let mut cfg = ProtoConfig::new(3, threads);
    cfg.protocol = ProtocolKind::HomeLrc;
    let proto = MgsProtocol::new(cfg);
    for page in 0..PAGES {
        proto.set_home(page, 2 * threads);
    }
    let writer = threads;
    let mut t = timing();
    for round in 0..100 {
        for proc in 0..threads {
            for page in 0..PAGES {
                proto.fault(proc, page, false, &mut t);
            }
        }
        for page in 0..PAGES {
            proto
                .fault(writer, page, true, &mut t)
                .frame
                .store(0, round);
        }
        proto.release_all(writer, &mut t);
        let before = proto.stats().invalidations.get();
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for proc in 0..threads {
                let (proto, start) = (&proto, &start);
                scope.spawn(move || {
                    start.wait();
                    proto.acquire_sync(proc, &mut timing());
                    for page in 0..PAGES {
                        assert_eq!(
                            proto.client_state(0, page),
                            ClientState::Inv,
                            "round {round}: page {page} live past processor {proc}'s acquire"
                        );
                    }
                });
            }
        });
        assert_eq!(
            proto.stats().invalidations.get() - before,
            PAGES,
            "round {round}: each noticed copy is dropped once"
        );
    }
}

#[test]
fn siblings_acquiring_at_once_drop_every_noticed_copy_at_2_threads() {
    within_deadline("2 siblings acquiring", || {
        siblings_acquiring_at_once_drop_every_noticed_copy(2)
    });
}

#[test]
fn siblings_acquiring_at_once_drop_every_noticed_copy_at_4_threads() {
    within_deadline("4 siblings acquiring", || {
        siblings_acquiring_at_once_drop_every_noticed_copy(4)
    });
}

/// The quiesce contract under real concurrency, on one frame: all but
/// one of `threads` store through the access path, each to words of its
/// own, and read each store back, while the last thread loops quiesce →
/// diff against the twin → bump the generation (a release's diff and a
/// shootdown at once). A store whose translation was retired is
/// refused and retried under the new generation, as a re-fault would,
/// so every store lands in the generation it was served under: the
/// diff that closes a generation holds exactly the last value each
/// word was given in it. The writers wait halfway for the first
/// generation to close, so however fast they are, stores and quiesces
/// overlap.
fn stores_race_quiesce_diff_bump(threads: usize) {
    const STORES: u64 = 20_000;
    let writers = threads - 1;
    let frame = FrameAllocator::new(PageGeometry::default()).alloc(0);
    let sys = SsmpCacheSystem::new(5);
    let finished = AtomicUsize::new(0);
    let twin = frame.snapshot();
    let (logs, diffs) = std::thread::scope(|scope| {
        let logs: Vec<_> = (0..writers)
            .map(|w| {
                let (frame, sys, finished) = (&frame, &sys, &finished);
                scope.spawn(move || {
                    let mut cache = ProcCache::new(CacheConfig::alewife());
                    let mut gen = frame.generation();
                    let mut log = Vec::new(); // (generation, word, value)
                    let mut access = |word, write, value, gen: &mut u64| loop {
                        let line = frame.line_of_word(word);
                        let hint = frame.dir_hint(sys.directory(), line);
                        let got = frame.word(word, *gen, value);
                        match sys.access_hinted(&mut cache, w, line, 0, write, hint, got) {
                            Some(served) => return served.value,
                            None => *gen = frame.generation(), // re-fault
                        }
                    };
                    for i in 0..STORES {
                        if i == STORES / 2 {
                            // Halfway, until the quiescer has closed a
                            // generation: it is then still looping when
                            // the stores end, so the race always runs.
                            while frame.generation() == 0 {
                                std::thread::yield_now();
                            }
                        }
                        let word = (w + writers * (i as usize % (128 / writers))) as u64;
                        let value = (w as u64) << 32 | (i + 1);
                        access(word, true, value, &mut gen);
                        log.push((gen, word, value));
                        assert_eq!(access(word, false, 0, &mut gen), value, "read back");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    log
                })
            })
            .collect();
        let quiescer = scope.spawn(|| {
            let mut twin = twin;
            let mut diff = SpanDiff::new();
            let mut diffs = Vec::new(); // diffs[g] closes generation g
            loop {
                let last = finished.load(Ordering::SeqCst) == writers;
                let q = frame.quiesce(sys.directory());
                diff.compute_into(q.words(), &twin);
                twin.copy_from_slice(q.words());
                q.bump_generation();
                drop(q);
                diffs.push(diff.entries().collect::<Vec<_>>());
                if last {
                    return diffs;
                }
                std::thread::yield_now();
            }
        });
        let logs: Vec<_> = logs.into_iter().map(|h| h.join().unwrap()).collect();
        (logs, quiescer.join().unwrap())
    });
    // The last value of each (generation, word), and how many stores
    // each generation saw.
    let mut last = std::collections::BTreeMap::new();
    for log in &logs {
        assert_eq!(log.len() as u64, STORES, "every store was served");
        for &(gen, word, value) in log {
            last.insert((gen, word as u32), value);
        }
    }
    let mut in_diffs = std::collections::BTreeMap::new();
    for (gen, diff) in diffs.iter().enumerate() {
        for &(word, value) in diff {
            in_diffs.insert((gen as u64, word), value);
        }
    }
    assert_eq!(
        in_diffs, last,
        "each generation's diff holds exactly the last store of each word served under it"
    );
    assert!(diffs.len() > 1, "the quiescer ran");
}

#[test]
fn stores_race_quiesce_diff_bump_at_2_threads() {
    within_deadline("1 writer beside the quiescer", || {
        stores_race_quiesce_diff_bump(2)
    });
}

#[test]
fn stores_race_quiesce_diff_bump_at_4_threads() {
    within_deadline("3 writers beside the quiescer", || {
        stores_race_quiesce_diff_bump(4)
    });
}
