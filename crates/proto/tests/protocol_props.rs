//! Randomized tests: random interleavings of protocol operations
//! preserve the coherence invariants.
//!
//! Cases come from a seeded [`XorShift64`] stream (proptest is
//! unavailable offline); every failure message names the case seed.

use mgs_proto::{ClientState, MgsProtocol, ProtoConfig, ProtoTiming, RecordingTiming};
use mgs_sim::{CostModel, Cycles, XorShift64};

mod common;
use common::Tlbs;

const N_SSMPS: usize = 4;
const C: usize = 2;
const N_PROCS: usize = N_SSMPS * C;
const N_PAGES: u64 = 4;

/// One step of a random protocol workload.
#[derive(Debug, Clone)]
enum Op {
    Read {
        proc: usize,
        page: u64,
        word: u64,
    },
    Write {
        proc: usize,
        page: u64,
        word: u64,
        val: u64,
    },
    Release {
        proc: usize,
    },
}

fn random_op(rng: &mut XorShift64) -> Op {
    match rng.next_below(3) {
        0 => Op::Read {
            proc: rng.next_below(N_PROCS as u64) as usize,
            page: rng.next_below(N_PAGES),
            word: rng.next_below(128),
        },
        1 => Op::Write {
            proc: rng.next_below(N_PROCS as u64) as usize,
            page: rng.next_below(N_PAGES),
            word: rng.next_below(128),
            val: 1 + rng.next_below(999),
        },
        _ => Op::Release {
            proc: rng.next_below(N_PROCS as u64) as usize,
        },
    }
}

fn random_ops(rng: &mut XorShift64, max_len: u64) -> Vec<Op> {
    let n = 1 + rng.next_below(max_len - 1) as usize;
    (0..n).map(|_| random_op(rng)).collect()
}

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
}

/// Runs ops sequentially; after each step, checks structural invariants.
fn run_checked(ops: &[Op], single_writer_opt: bool) -> MgsProtocol {
    let mut cfg = ProtoConfig::new(N_SSMPS, C);
    cfg.single_writer_opt = single_writer_opt;
    let p = MgsProtocol::new(cfg);
    let (mut t, mut tlbs) = (timing(), Tlbs::new(&p));
    for op in ops {
        match *op {
            Op::Read { proc, page, word } => {
                let _ = tlbs.translate(&p, proc, page, false, &mut t).load(word);
            }
            Op::Write {
                proc,
                page,
                word,
                val,
            } => tlbs
                .translate(&p, proc, page, true, &mut t)
                .store(word, val),
            Op::Release { proc } => p.release_all(proc, &mut t),
        }
        check_invariants(&p, &tlbs);
    }
    p
}

fn check_invariants(p: &MgsProtocol, tlbs: &Tlbs) {
    for page in 0..N_PAGES {
        let dirs = p.server_dirs(page);
        // An SSMP is never both a reader and a writer.
        assert_eq!(dirs.read_dir & dirs.write_dir, 0, "dirs disjoint");
        for ssmp in 0..N_SSMPS {
            let state = p.client_state(ssmp, page);
            let in_read = dirs.read_dir & (1 << ssmp) != 0;
            let in_write = dirs.write_dir & (1 << ssmp) != 0;
            match state {
                // A client with a copy is tracked by the server.
                ClientState::Read => assert!(in_read, "READ client in read_dir"),
                ClientState::Write => assert!(in_write, "WRITE client in write_dir"),
                ClientState::Inv => {
                    assert!(!in_read && !in_write, "INV client absent from dirs")
                }
            }
        }
        // A processor's slot at its frame's current generation implies
        // a live local copy.
        for proc in 0..N_PROCS {
            if tlbs.mapped(proc, page, false).is_some() {
                let state = p.client_state(proc / C, page);
                assert_ne!(state, ClientState::Inv, "mapping implies a copy");
            }
            // A DUQ entry implies write privilege at the SSMP.
            if p.queued(proc, page) {
                assert_eq!(
                    p.client_state(proc / C, page),
                    ClientState::Write,
                    "DUQ entry implies WRITE page"
                );
            }
        }
    }
}

#[test]
fn invariants_hold_under_random_workloads() {
    for case in 0..64u64 {
        let seed = 0x4D47_5000_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        run_checked(&random_ops(&mut rng, 60), true);
    }
}

#[test]
fn invariants_hold_without_single_writer_opt() {
    for case in 0..64u64 {
        let seed = 0x4D47_5100_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        run_checked(&random_ops(&mut rng, 60), false);
    }
}

/// Data-race-free writes propagate: if each word of each page is
/// written by at most one processor and every writer releases, the
/// home copies end up with exactly the written values.
#[test]
fn released_writes_reach_home() {
    for case in 0..64u64 {
        let seed = 0x4D47_5200_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        let n = 1 + rng.next_below(39) as usize;
        let p = MgsProtocol::new(ProtoConfig::new(N_SSMPS, C));
        let (mut t, mut tlbs) = (timing(), Tlbs::new(&p));
        // Deduplicate (page, word) so each word has one writer: DRF.
        let mut seen = std::collections::HashSet::new();
        let mut expected = Vec::new();
        for _ in 0..n {
            let proc = rng.next_below(N_PROCS as u64) as usize;
            let page = rng.next_below(N_PAGES);
            let word = rng.next_below(128);
            let val = 1 + rng.next_below(999_999);
            if seen.insert((page, word)) {
                expected.push((proc, page, word, val));
            }
        }
        for &(proc, page, word, val) in &expected {
            tlbs.translate(&p, proc, page, true, &mut t)
                .store(word, val);
        }
        for proc in 0..N_PROCS {
            p.release_all(proc, &mut t);
        }
        for &(_, page, word, val) in &expected {
            assert_eq!(p.home_frame(page).load(word), val, "seed {seed:#x}");
        }
    }
}

/// Timing is non-negative and monotone: every operation advances the
/// recording clock.
#[test]
fn recorded_time_is_monotone() {
    for case in 0..64u64 {
        let seed = 0x4D47_5300_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        let ops = random_ops(&mut rng, 40);
        let p = MgsProtocol::new(ProtoConfig::new(N_SSMPS, C));
        let (mut t, mut tlbs) = (timing(), Tlbs::new(&p));
        let mut last = Cycles::ZERO;
        for op in &ops {
            match *op {
                Op::Read { proc, page, .. } => {
                    tlbs.translate(&p, proc, page, false, &mut t);
                }
                Op::Write {
                    proc,
                    page,
                    word,
                    val,
                } => tlbs
                    .translate(&p, proc, page, true, &mut t)
                    .store(word, val),
                Op::Release { proc } => p.release_all(proc, &mut t),
            }
            assert!(t.now() >= last, "seed {seed:#x}");
            last = t.now();
        }
    }
}
