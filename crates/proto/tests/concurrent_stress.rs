//! Multi-threaded protocol stress: many OS threads hammer the protocol
//! engines concurrently with a data-race-free phased workload; the home
//! copies must end up exactly right. Exercises the lock ordering, the
//! BUSY/pending path, TLB shootdown, generation retirement, and DUQ
//! pruning under real concurrency.

use mgs_proto::{MgsProtocol, ProtoConfig, RecordingTiming};
use mgs_sim::{CostModel, Cycles, XorShift64};
use std::sync::{Arc, Barrier};

const N_SSMPS: usize = 4;
const C: usize = 2;
const N_PROCS: usize = N_SSMPS * C;
const N_PAGES: u64 = 6;
const PHASES: usize = 5;

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
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
                for plan in plans.iter() {
                    for &(_p, page, word, value) in plan.iter().filter(|&&(p, ..)| p == proc) {
                        // The runtime's access loop: look up (or fault),
                        // then re-validate the mapping generation under
                        // the frame guard; a concurrent invalidation
                        // retires the mapping and forces a re-fault.
                        let mut e = match proto.tlb(proc).lookup(page, true) {
                            Some(e) => e,
                            None => proto.fault(proc, page, true, &mut t),
                        };
                        loop {
                            let frame = e.frame.clone();
                            let guard = frame.begin_access();
                            if frame.generation() == e.gen {
                                frame.store(word, value);
                                drop(guard);
                                break;
                            }
                            drop(guard);
                            e = proto.fault(proc, page, true, &mut t);
                        }
                        // Random extra reads create read sharing.
                        if word % 7 == 0 {
                            let r = match proto.tlb(proc).lookup((page + 1) % N_PAGES, false) {
                                Some(e) => e,
                                None => proto.fault(proc, (page + 1) % N_PAGES, false, &mut t),
                            };
                            let _ = r.frame.load(word);
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
