//! The deterministic envelope: the tiny programs every "bit-identical"
//! claim in the repository is checked on (compare two runs with
//! [`RunReport::first_divergence`]). The cycle accounting of [`ring`]
//! and [`disjoint`] is a pure function of the machine configuration,
//! whatever the host schedules; [`grid`]'s is on one worker.
//!
//! The runtime serializes protocol handler work through per-node
//! occupancy resources, so *concurrent* cross-SSMP transactions that
//! meet at one home node are served in arrival order — host order,
//! like the hardware being modelled — and lock-grant order is likewise
//! interleaving-dependent. Whole applications are therefore not
//! reproducible run to run (except on one worker); the ring and the
//! disjoint program stay clear of both. Callers build the machine:
//! fault plan, scenario, pacing and protocol are all that ever differs
//! between uses.

use mgs_core::{AccessKind, Machine, RunReport};
use std::sync::Arc;

/// A token ring over blocks of `words` words: in phase `k` only
/// processor `k` touches shared state — it writes its successor's
/// self-homed block and reads it back — then everyone barriers. With
/// one active processor per phase every cross-SSMP transaction
/// (including, on a lossy fabric, the drops and the retries they
/// force) is serialized, so no occupancy is contended and the cycle
/// accounting is a pure function of the configuration.
pub fn ring(machine: &Arc<Machine>, words: u64) -> RunReport {
    let procs = machine.config().n_procs;
    let arr = machine.alloc_array_blocked::<u64>(words * procs as u64, AccessKind::DistArray);
    machine.run(|env| {
        let pid = env.pid();
        env.start_measurement();
        for phase in 0..procs {
            if pid == phase {
                let base = ((pid + 1) % procs) as u64 * words;
                for i in 0..words {
                    arr.write(env, base + i, ((phase as u64) << 32) | i);
                }
                let mut acc = 0u64;
                for i in 0..words {
                    acc = acc.wrapping_add(arr.read(env, base + i));
                }
                std::hint::black_box(acc);
            }
            env.barrier();
        }
    })
}

/// Every processor writes and re-reads only its own block of
/// `words_per_proc` words, homed at itself, with barriers between the
/// `phases`. No transaction ever leaves the processor's node, so no
/// occupancy resource is shared and every cycle charge is a pure
/// function of per-processor state.
pub fn disjoint(machine: &Arc<Machine>, words_per_proc: u64, phases: u64) -> RunReport {
    let procs = machine.config().n_procs as u64;
    let arr = machine.alloc_array_blocked::<u64>(words_per_proc * procs, AccessKind::DistArray);
    machine.run(|env| {
        let pid = env.pid() as u64;
        let base = pid * words_per_proc;
        env.start_measurement();
        for phase in 0..phases {
            for i in 0..words_per_proc {
                arr.write(env, base + i, pid * 1_000_000 + phase * 1_000 + i);
            }
            env.barrier();
            let mut acc = 0u64;
            for i in 0..words_per_proc {
                acc = acc.wrapping_add(arr.read(env, base + i));
            }
            std::hint::black_box(acc);
            env.barrier();
        }
    })
}

/// The churn grid, a producer/consumer program: each of `rounds` rounds
/// every processor writes its own block of `words` words and reads its
/// successor's, with barriers between, so pages continuously cross the
/// SSMP boundary. Returns the report and the final home-copy image of
/// the array, which must equal [`grid_image`]. Cycle-deterministic on
/// one worker only: the neighbour reads of one round meet at shared
/// home nodes.
pub fn grid(machine: &Arc<Machine>, words: u64, rounds: u64) -> (RunReport, Vec<u64>) {
    let procs = machine.config().n_procs as u64;
    let arr = machine.alloc_array_blocked::<u64>(words * procs, AccessKind::DistArray);
    let report = machine.run(|env| {
        let pid = env.pid() as u64;
        env.start_measurement();
        for round in 1..=rounds {
            for i in 0..words {
                arr.write(env, pid * words + i, round * 1000 + pid);
            }
            env.barrier();
            let nb = ((pid + 1) % procs) * words;
            let mut acc = 0u64;
            for i in 0..words {
                acc = acc.wrapping_add(arr.read(env, nb + i));
            }
            std::hint::black_box(acc);
            env.barrier();
        }
        // Cool-down in lockstep: guarantee every processor's clock
        // passes the rejoin so both churn transitions (and the deferred
        // directory-repair drain) are applied before the run ends. A
        // fixed iteration count keeps every processor doing the same
        // number of barriers regardless of clock divergence.
        for _ in 0..80 {
            env.compute(5_000);
            env.barrier();
        }
    });
    let image = (0..words * procs).map(|i| machine.peek(&arr, i)).collect();
    (report, image)
}

/// The image [`grid`] must leave behind on `procs` processors, in
/// closed form: `rounds * 1000 + pid` in every word of processor
/// `pid`'s block.
pub fn grid_image(procs: u64, words: u64, rounds: u64) -> Vec<u64> {
    (0..procs)
        .flat_map(|pid| std::iter::repeat_n(rounds * 1000 + pid, words as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_core::DssmpConfig;

    #[test]
    fn ring_crosses_the_lan_exactly_when_there_is_one() {
        assert_eq!(
            ring(&Machine::new(DssmpConfig::new(4, 4)), 64).lan_messages,
            0
        );
        assert!(ring(&Machine::new(DssmpConfig::new(4, 1)), 64).lan_messages > 0);
    }

    #[test]
    fn grid_returns_the_closed_form_image() {
        let (report, image) = grid(&Machine::new(DssmpConfig::new(4, 2)), 16, 3);
        assert!(report.lan_messages > 0, "neighbour reads cross SSMPs");
        assert_eq!(image, grid_image(4, 16, 3));
        assert_eq!(image[17], 3001, "second word of processor 1's block");
    }
}
