//! Randomized fault-injection tests: the retry/recovery layer makes an
//! unreliable fabric invisible to protocol *state*.
//!
//! Cases come from a seeded [`XorShift64`] stream (proptest is
//! unavailable offline). Each case runs the same operation sequence
//! twice — once on a perfect fabric, once on a faulted
//! [`RecordingTiming`] — and compares a full fingerprint of the final
//! machine state: server directories, client page states, TLB
//! mappings, DUQ membership and every word of every home frame.
//! At-least-once sending (timeouts and retransmissions), with a
//! duplicate counted by the fabric and reaching no handler, must reduce
//! to exactly-once: identical state, always.

use mgs_net::{FaultPlan, MsgKind};
use mgs_obs::{ObsEvent, XactOutcome};
use mgs_proto::{ClientState, MgsProtocol, ProtoConfig, RecordingTiming};
use mgs_sim::{CostModel, Cycles, XorShift64};
use std::collections::HashSet;

const N_SSMPS: usize = 4;
const C: usize = 2;
const N_PROCS: usize = N_SSMPS * C;
const N_PAGES: u64 = 4;

/// One step of a random protocol workload (same shape as
/// `protocol_props.rs`).
#[derive(Debug, Clone)]
enum Op {
    Read {
        proc: usize,
        page: u64,
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

fn random_ops(rng: &mut XorShift64, max_len: u64) -> Vec<Op> {
    let n = 1 + rng.next_below(max_len - 1) as usize;
    (0..n)
        .map(|_| match rng.next_below(3) {
            0 => Op::Read {
                proc: rng.next_below(N_PROCS as u64) as usize,
                page: rng.next_below(N_PAGES),
            },
            1 => Op::Write {
                proc: rng.next_below(N_PROCS as u64) as usize,
                page: rng.next_below(N_PAGES),
                word: rng.next_below(128),
                val: 1 + rng.next_below(999_999),
            },
            _ => Op::Release {
                proc: rng.next_below(N_PROCS as u64) as usize,
            },
        })
        .collect()
}

/// Replays `ops` on a fresh protocol through `t`. Uses the panicking
/// entry points: with `drop < 1` every transaction must terminate
/// (the retry cap makes residual failure odds astronomically small).
fn replay(ops: &[Op], single_writer_opt: bool, t: &mut RecordingTiming) -> MgsProtocol {
    let mut cfg = ProtoConfig::new(N_SSMPS, C);
    cfg.single_writer_opt = single_writer_opt;
    let p = MgsProtocol::new(cfg);
    for op in ops {
        match *op {
            Op::Read { proc, page } => {
                let e = match p.tlb(proc).lookup(page, false) {
                    Some(e) => e,
                    None => p.fault(proc, page, false, t),
                };
                let _ = e.frame.load(0);
            }
            Op::Write {
                proc,
                page,
                word,
                val,
            } => {
                let e = match p.tlb(proc).lookup(page, true) {
                    Some(e) => e,
                    None => p.fault(proc, page, true, t),
                };
                e.frame.store(word, val);
            }
            Op::Release { proc } => p.release_all(proc, t),
        }
    }
    p
}

/// A complete, comparable image of the protocol-visible machine state.
fn fingerprint(p: &MgsProtocol) -> Vec<u64> {
    let mut v = Vec::new();
    for page in 0..N_PAGES {
        let dirs = p.server_dirs(page);
        v.push(dirs.read_dir);
        v.push(dirs.write_dir);
        for ssmp in 0..N_SSMPS {
            v.push(match p.client_state(ssmp, page) {
                ClientState::Inv => 0,
                ClientState::Read => 1,
                ClientState::Write => 2,
            });
        }
        for proc in 0..N_PROCS {
            v.push(u64::from(p.tlb(proc).lookup(page, false).is_some()));
            v.push(u64::from(p.queued(proc, page)));
        }
        let frame = p.home_frame(page);
        for w in 0..p.words_per_page() {
            v.push(frame.load(w));
        }
    }
    v
}

fn perfect() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles(1000))
}

fn faulted(plan: FaultPlan) -> RecordingTiming {
    perfect().with_faults(plan)
}

/// Seeded drop + duplicate + jitter schedules leave the final machine
/// state bit-identical to the fault-free run, case after case.
#[test]
fn faulty_runs_converge_to_fault_free_state() {
    let mut total_drops = 0usize;
    let mut total_retries = 0u64;
    for case in 0..48u64 {
        let seed = 0x4D47_5400_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        let ops = random_ops(&mut rng, 60);
        let single_writer = case % 2 == 0;

        let mut clean_t = perfect();
        let clean = replay(&ops, single_writer, &mut clean_t);

        let plan = FaultPlan::uniform(seed, 0.2, 0.2, Cycles(150));
        let mut chaos_t = faulted(plan);
        let chaos = replay(&ops, single_writer, &mut chaos_t);

        assert_eq!(
            fingerprint(&clean),
            fingerprint(&chaos),
            "seed {seed:#x}: faulted state diverged"
        );
        total_drops += chaos_t
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::Drop { .. }))
            .count();
        total_retries += chaos.stats().retries.get();
    }
    // A 20% loss rate over 48 cases must actually exercise recovery.
    assert!(total_drops > 100, "only {total_drops} drops injected");
    assert_eq!(total_drops as u64, total_retries, "every drop retried");
}

/// A duplicate storm — every inter-SSMP message delivered twice — is a
/// pure no-op on handler state: the fabric counts every redundant copy,
/// and no handler sees one.
#[test]
fn duplicate_delivery_is_a_handler_noop() {
    let mut kinds_duplicated: HashSet<MsgKind> = HashSet::new();
    for case in 0..48u64 {
        let seed = 0x4D47_5500_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        let ops = random_ops(&mut rng, 60);
        let single_writer = case % 2 == 0;

        let mut clean_t = perfect();
        let clean = replay(&ops, single_writer, &mut clean_t);

        // Drop nothing, duplicate everything, no jitter.
        let storm = FaultPlan::uniform(seed, 0.0, 1.0, Cycles::ZERO);
        let mut storm_t = faulted(storm);
        let stormed = replay(&ops, single_writer, &mut storm_t);

        assert_eq!(
            fingerprint(&clean),
            fingerprint(&stormed),
            "seed {seed:#x}: duplicates corrupted state"
        );
        // Duplication must also be *timing*-invisible: a redundant copy
        // costs no simulated cycles.
        assert_eq!(
            clean_t.elapsed(),
            storm_t.elapsed(),
            "seed {seed:#x}: duplicates changed timing"
        );

        // Every inter-SSMP message got exactly one duplicate.
        let inter: Vec<MsgKind> = storm_t
            .events()
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Message { from, to, kind, .. } if from != to => Some(*kind),
                _ => None,
            })
            .collect();
        let copies: u64 = storm_t
            .events()
            .iter()
            .map(|e| match e {
                ObsEvent::Duplicate { copies, .. } => u64::from(*copies),
                _ => 0,
            })
            .sum();
        assert_eq!(
            copies,
            inter.len() as u64,
            "seed {seed:#x}: duplicate copies != inter-SSMP messages"
        );
        kinds_duplicated.extend(inter);
    }
    // The workload mix must have exercised duplication of the whole
    // inter-SSMP protocol vocabulary (intra-SSMP kinds such as Upgrade
    // or PInv never cross the fabric; synchronization kinds belong to
    // mgs-sync's cost model, not this transport).
    for kind in [
        MsgKind::RReq,
        MsgKind::WReq,
        MsgKind::Rel,
        MsgKind::RDat,
        MsgKind::WDat,
        MsgKind::RAck,
        MsgKind::Ack,
        MsgKind::Diff,
        MsgKind::Inv,
        MsgKind::WNotify,
    ] {
        assert!(
            kinds_duplicated.contains(&kind),
            "no duplicated {kind:?} was exercised"
        );
    }
}

/// When retries run out, the failure surfaces as a typed
/// [`ProtocolError`](mgs_proto::ProtocolError) naming the transaction —
/// and the machine is not wedged: once the fabric heals, the same
/// access succeeds.
#[test]
fn exhausted_retries_surface_errors_without_wedging() {
    // A 99% loss rate gives each transmission chain a ~84% chance of
    // blowing through the 16-retry cap, so a handful of attempts is
    // guaranteed to produce a failure.
    let p = MgsProtocol::new(ProtoConfig::new(N_SSMPS, C));
    let mut t = faulted(FaultPlan::uniform(0xDEAD, 0.99, 0.0, Cycles::ZERO));
    let proc = (N_SSMPS - 1) * C; // last SSMP: every page is remote
    let mut failure = None;
    for page in 0..N_PAGES {
        if let Err(e) = p.try_fault(proc, page, true, &mut t) {
            failure = Some((page, e));
            break;
        }
    }
    let (page, err) = failure.expect("99% loss must exhaust some retry chain");
    let msg = err.to_string();
    assert!(
        msg.contains("retries exhausted") && msg.contains(&format!("page {page}")),
        "error must name the transaction: {msg}"
    );
    assert!(p.stats().xact_failures.get() > 0, "failure not counted");
    // A run report's `XactAborts` is this count. Every send here runs
    // inside a fault span, so each failure is also exactly one span
    // ending `Aborted`.
    let aborted = t
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                ObsEvent::XactEnd {
                    outcome: XactOutcome::Aborted,
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        p.stats().xact_failures.get(),
        aborted as u64,
        "exhausted sends vs aborted spans"
    );

    // The aborted fill released the page's lock: on a healed fabric
    // the very same access completes and installs a mapping.
    let mut healed = perfect();
    let e = p.fault(proc, page, true, &mut healed);
    assert!(e.writable, "healed fault grants write privilege");
    assert_eq!(
        p.client_state(N_SSMPS - 1, page),
        ClientState::Write,
        "client recovered to WRITE"
    );
    let dirs = p.server_dirs(page);
    assert_eq!(
        dirs.write_dir & (1 << (N_SSMPS - 1)),
        1 << (N_SSMPS - 1),
        "server tracks the recovered copy"
    );
}

/// Data-race-free writes reach home through a lossy fabric: the
/// released memory image equals the written values exactly (the
/// end-to-end guarantee behind the chaos bench's verified runs).
#[test]
fn released_writes_survive_a_lossy_fabric() {
    for case in 0..32u64 {
        let seed = 0x4D47_5600_0000_0000 | case;
        let mut rng = XorShift64::new(seed);
        let p = MgsProtocol::new(ProtoConfig::new(N_SSMPS, C));
        let mut t = faulted(FaultPlan::uniform(seed, 0.25, 0.25, Cycles(300)));
        let mut seen = HashSet::new();
        let mut expected = Vec::new();
        for _ in 0..40 {
            let proc = rng.next_below(N_PROCS as u64) as usize;
            let page = rng.next_below(N_PAGES);
            let word = rng.next_below(128);
            let val = 1 + rng.next_below(999_999);
            if seen.insert((page, word)) {
                expected.push((proc, page, word, val));
            }
        }
        for &(proc, page, word, val) in &expected {
            let e = match p.tlb(proc).lookup(page, true) {
                Some(e) => e,
                None => p.fault(proc, page, true, &mut t),
            };
            e.frame.store(word, val);
        }
        for proc in 0..N_PROCS {
            p.release_all(proc, &mut t);
        }
        for &(_, page, word, val) in &expected {
            assert_eq!(p.home_frame(page).load(word), val, "seed {seed:#x}");
        }
    }
}
