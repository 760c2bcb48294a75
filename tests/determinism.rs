//! Determinism regression: the same program on the same configuration
//! must produce bit-identical simulated cycle accounting run-to-run,
//! regardless of host thread scheduling.
//!
//! The runtime serializes protocol handler work through per-node
//! occupancy resources, so *concurrent* cross-SSMP transactions that
//! meet at one home node are served in arrival order — which is
//! host-scheduling-dependent, exactly like the hardware being modeled.
//! Lock-grant order is likewise interleaving-dependent. The programs
//! here therefore stay inside the simulator's deterministic envelope:
//!
//! * `disjoint` — every processor touches only its own self-homed,
//!   page-disjoint block, with barriers between phases. No transaction
//!   ever leaves the processor's node, so no occupancy resource is
//!   shared and every cycle charge is a pure function of per-processor
//!   state. Run at C = 1, 2 and 4.
//! * `shared_hw` — at C = P (one SSMP) all sharing is hardware
//!   coherence: fixed Table 3 cost per miss class, no occupancy
//!   modelling. Barrier-separated producer/consumer phases make each
//!   line's access sequence — and hence its directory transitions,
//!   miss classes and LRU evictions — schedule-independent.

use mgs_repro::apps::envelope;
use mgs_repro::core::{AccessKind, CostCategory, DssmpConfig, Machine, RunReport};

const PROCS: usize = 4;
const WORDS_PER_PROC: u64 = 1024; // 8 KiB: several 1 KiB pages each
const PHASES: u64 = 3;

/// The envelope's page-disjoint program, unpaced.
fn disjoint_at(cluster_size: usize) -> RunReport {
    let mut cfg = DssmpConfig::new(PROCS, cluster_size);
    cfg.governor_window = None;
    envelope::disjoint(&Machine::new(cfg), WORDS_PER_PROC, PHASES)
}

/// One SSMP (C = P): barrier-separated neighbour reads through the
/// hardware cache system only.
fn run_shared_hw() -> RunReport {
    let mut cfg = DssmpConfig::new(PROCS, PROCS);
    cfg.governor_window = None;
    let machine = Machine::new(cfg);
    let arr =
        machine.alloc_array_pages::<u64>(WORDS_PER_PROC * PROCS as u64, AccessKind::DistArray);
    machine.run(|env| {
        let pid = env.pid() as u64;
        env.start_measurement();
        for phase in 0..PHASES {
            let base = pid * WORDS_PER_PROC;
            for i in 0..WORDS_PER_PROC {
                arr.write(env, base + i, pid * 1_000_000 + phase * 1_000 + i);
            }
            env.barrier();
            // Read the next processor's block: each line has exactly
            // one writer and one reader, in different barrier epochs.
            let peer = (pid + 1) % PROCS as u64;
            let base = peer * WORDS_PER_PROC;
            let mut acc = 0u64;
            for i in 0..WORDS_PER_PROC {
                acc = acc.wrapping_add(arr.read(env, base + i));
            }
            std::hint::black_box(acc);
            env.barrier();
        }
    })
}

#[test]
fn disjoint_cycle_accounting_is_deterministic() {
    for cluster in [1, 2, 4] {
        let first = disjoint_at(cluster);
        for rep in 1..4 {
            let again = disjoint_at(cluster);
            assert_eq!(
                first.first_divergence(&again),
                None,
                "disjoint C={cluster} rep {rep}"
            );
        }
    }
}

#[test]
fn hardware_sharing_cycle_accounting_is_deterministic() {
    let first = run_shared_hw();
    for rep in 1..4 {
        let again = run_shared_hw();
        assert_eq!(first.first_divergence(&again), None, "shared-hw rep {rep}");
    }
}

#[test]
fn deterministic_runs_do_real_work() {
    let disjoint = disjoint_at(2);
    assert!(disjoint.duration.raw() > 0, "simulated time advanced");
    assert!(
        disjoint.breakdown.get(CostCategory::User).raw() > 0,
        "user cycles recorded"
    );
    let shared = run_shared_hw();
    assert!(
        shared.breakdown.get(CostCategory::User).raw() > 0,
        "shared-hw user cycles recorded"
    );
}
