//! Water: N-body molecular dynamics (§5.2, Figure 9; SPLASH).
//!
//! A simplified but structurally faithful version of SPLASH Water: a
//! global molecule array block-distributed over processors, O(N²/2)
//! pairwise force interactions per iteration using a wrap-around
//! half-shell (each unordered pair computed exactly once), **a lock per
//! molecule** protecting force accumulation, barrier-separated phases,
//! and a global statistics structure updated under a lock once per
//! processor per iteration.
//!
//! The access pattern is what gives Water its multigrain potential in
//! the paper: each processor walks the molecule array linearly starting
//! from its own block, so processors in the same SSMP share the array
//! at fine grain, and molecule-lock ownership tends to stay within an
//! SSMP.

use crate::common::{add3, assert_close, block_range, pair_force, read3, write3, REC_WORDS};
use crate::MgsApp;
use mgs_core::{AccessKind, Env, Machine, MgsLock, RunReport, SharedArray};
use mgs_sim::XorShift64;
use std::sync::Arc;

// Field offsets within a molecule record.
const M_POS: u64 = 0; // x, y, z
const M_VEL: u64 = 3; // vx, vy, vz
const M_FRC: u64 = 6; // fx, fy, fz

/// Integration time step.
const DT: f64 = 0.002;

/// The Water application.
#[derive(Debug, Clone)]
pub struct Water {
    /// Number of molecules (the paper uses 343).
    pub n: usize,
    /// Simulation iterations (the paper uses 2).
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
    /// Estimated cycles of arithmetic per pair interaction.
    pub pair_cycles: u64,
}

impl Water {
    /// The paper's problem size: 343 molecules, 2 iterations.
    pub fn paper() -> Water {
        Water {
            n: 343,
            iters: 2,
            seed: 0x44A,
            pair_cycles: 16_300,
        }
    }

    /// A size suitable for unit tests.
    pub fn small() -> Water {
        Water {
            n: 24,
            iters: 2,
            seed: 0x44A,
            pair_cycles: 16_300,
        }
    }

    /// Initial state: a jittered cubic lattice with small random
    /// velocities.
    fn initial(&self) -> Vec<[f64; 6]> {
        let n = self.n;
        let side = (n as f64).cbrt().ceil() as usize;
        let mut rng = XorShift64::new(self.seed);
        (0..n)
            .map(|i| {
                let (ix, iy, iz) = (i % side, (i / side) % side, i / (side * side));
                [
                    ix as f64 + rng.next_range_f64(-0.1, 0.1),
                    iy as f64 + rng.next_range_f64(-0.1, 0.1),
                    iz as f64 + rng.next_range_f64(-0.1, 0.1),
                    rng.next_range_f64(-0.5, 0.5),
                    rng.next_range_f64(-0.5, 0.5),
                    rng.next_range_f64(-0.5, 0.5),
                ]
            })
            .collect()
    }

    /// The half-shell pair list owned by molecule `i`: each unordered
    /// pair appears exactly once across all `i`.
    fn shell(&self, i: usize) -> Vec<usize> {
        let n = self.n;
        let half = n / 2;
        (1..=half)
            .filter(|&dj| !(n.is_multiple_of(2) && dj == half && i >= n / 2))
            .map(|dj| (i + dj) % n)
            .collect()
    }

    /// Plain-Rust reference simulation (identical phase structure).
    /// Returns final positions+velocities.
    fn reference(&self) -> Vec<[f64; 6]> {
        let n = self.n;
        let mut mol = self.initial();
        for _ in 0..self.iters {
            let mut frc = vec![[0.0f64; 3]; n];
            for i in 0..n {
                for j in self.shell(i) {
                    let (f, _) = pair_force(
                        [mol[i][0], mol[i][1], mol[i][2]],
                        [mol[j][0], mol[j][1], mol[j][2]],
                    );
                    for k in 0..3 {
                        frc[i][k] += f[k];
                        frc[j][k] -= f[k];
                    }
                }
            }
            for i in 0..n {
                for k in 0..3 {
                    mol[i][3 + k] += DT * frc[i][k];
                    mol[i][k] += DT * mol[i][3 + k];
                }
            }
        }
        mol
    }

    fn body(
        &self,
        env: &mut Env,
        mol: SharedArray<f64>,
        stats: SharedArray<f64>,
        locks: &[Arc<MgsLock>],
        stats_lock: &MgsLock,
    ) {
        let n = self.n;
        let (lo, hi) = block_range(n, env.nprocs(), env.pid());
        env.barrier();
        env.start_measurement();
        for _ in 0..self.iters {
            // Phase 1: zero our molecules' force accumulators.
            for i in lo..hi {
                for k in 0..3 {
                    mol.write(env, i as u64 * REC_WORDS + M_FRC + k, 0.0);
                }
            }
            env.barrier();

            // Phase 2: pairwise interactions over the half-shell;
            // accumulation under per-molecule locks.
            let mut local_pe = 0.0;
            for i in lo..hi {
                let pi = read3(env, mol, i as u64, M_POS);
                for j in self.shell(i) {
                    let pj = read3(env, mol, j as u64, M_POS);
                    let (f, pe) = pair_force(pi, pj);
                    env.compute(self.pair_cycles);
                    local_pe += pe;
                    env.acquire(&locks[i]);
                    add3(env, mol, i as u64, M_FRC, f);
                    env.release(&locks[i]);
                    env.acquire(&locks[j]);
                    add3(env, mol, j as u64, M_FRC, [-f[0], -f[1], -f[2]]);
                    env.release(&locks[j]);
                }
            }
            env.barrier();

            // Phase 3: integrate our molecules; fold statistics into
            // the global structure under its lock.
            let mut local_ke = 0.0;
            for i in lo..hi {
                let f = read3(env, mol, i as u64, M_FRC);
                let mut v = read3(env, mol, i as u64, M_VEL);
                let mut p = read3(env, mol, i as u64, M_POS);
                for k in 0..3 {
                    v[k] += DT * f[k];
                    p[k] += DT * v[k];
                }
                env.compute(800);
                local_ke += 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
                write3(env, mol, i as u64, M_VEL, v);
                write3(env, mol, i as u64, M_POS, p);
            }
            env.acquire(stats_lock);
            let pe = stats.read(env, 0);
            let ke = stats.read(env, 1);
            stats.write(env, 0, pe + local_pe);
            stats.write(env, 1, ke + local_ke);
            env.release(stats_lock);
            env.barrier();
        }
    }
}

impl MgsApp for Water {
    fn name(&self) -> &'static str {
        "water"
    }

    fn execute(&self, machine: &Arc<Machine>) -> RunReport {
        let n = self.n;
        // The molecule array is distributed so each block's pages are
        // homed at the owning processor (§5.2.1); the global statistics
        // structure is homed at processor 0, whose server the paper
        // observes receiving extra coherence traffic.
        let mol = machine.alloc_array_blocked::<f64>(n as u64 * REC_WORDS, AccessKind::DistArray);
        let stats = machine.alloc_array_homed::<f64>(2, AccessKind::Pointer, |_| 0);
        for (i, m) in self.initial().iter().enumerate() {
            for k in 0..3 {
                machine.poke(&mol, i as u64 * REC_WORDS + M_POS + k as u64, m[k]);
                machine.poke(&mol, i as u64 * REC_WORDS + M_VEL + k as u64, m[3 + k]);
            }
        }
        let locks: Vec<_> = (0..n).map(|_| machine.new_lock()).collect();
        let stats_lock = machine.new_lock();

        let report = machine.run(|env| self.body(env, mol, stats, &locks, &stats_lock));

        // Verify final positions and velocities against the reference.
        // Tolerance 1e-4. A molecule's force is a sum of pair terms that
        // processors add under its lock in grant order, while the
        // sequential reference adds them in its `i, j` loop order. Float
        // addition is not associative, so the sums differ in their last
        // bits, and the integration carries that into positions and
        // velocities over the iterations (~1e-6..1e-5 relative drift).
        // This holds at one host worker too: that run is a pure function
        // of the config, but its grants follow simulated time, not the
        // reference's loop. With more workers the grant order also
        // varies with host timing from run to run. A genuinely lost
        // accumulation shows up at 1e-2 and above, far over this bound.
        let reference = self.reference();
        for (i, want) in reference.iter().enumerate() {
            for k in 0..3 {
                let p = machine.peek(&mol, i as u64 * REC_WORDS + M_POS + k as u64);
                let v = machine.peek(&mol, i as u64 * REC_WORDS + M_VEL + k as u64);
                assert_close(&format!("water mol {i} pos[{k}]"), p, want[k], 1e-4);
                assert_close(&format!("water mol {i} vel[{k}]"), v, want[3 + k], 1e-4);
            }
        }
        // Statistics were accumulated (KE of moving molecules > 0).
        assert!(machine.peek(&stats, 1) > 0.0, "kinetic energy accumulated");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_core::DssmpConfig;

    fn quiet(p: usize, c: usize) -> DssmpConfig {
        let mut cfg = DssmpConfig::new(p, c);
        cfg.governor_window = None;
        cfg
    }

    #[test]
    fn half_shell_covers_each_pair_once() {
        for n in [5usize, 6, 8, 9] {
            let w = Water {
                n,
                ..Water::small()
            };
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                for j in w.shell(i) {
                    let key = (i.min(j), i.max(j));
                    assert!(seen.insert(key), "pair {key:?} duplicated (n = {n})");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n = {n}");
        }
    }

    #[test]
    fn reference_is_deterministic() {
        let w = Water::small();
        assert_eq!(w.reference()[0], w.reference()[0]);
    }

    #[test]
    fn verifies_on_tightly_coupled_machine() {
        Water::small().execute(&Machine::new(quiet(4, 4)));
    }

    #[test]
    fn verifies_on_clustered_machine() {
        Water::small().execute(&Machine::new(quiet(4, 2)));
    }

    #[test]
    fn verifies_with_uniprocessor_nodes() {
        Water::small().execute(&Machine::new(quiet(4, 1)));
    }
}
