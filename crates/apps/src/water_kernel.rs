//! The Water force-interaction kernel (§5.2.3, Figure 12).
//!
//! The kernel is the doubly-nested loop of Water that performs the
//! N-squared pairwise force interactions, writing both molecules of
//! each pair. Two variants:
//!
//! * [`WaterKernel`] with `tiled = false` — the **unmodified** kernel:
//!   rows are block-partitioned over all processors with per-molecule
//!   locks, behaving like the full Water application.
//! * `tiled = true` — the **loop-transformed** kernel: the molecule
//!   array is tiled with **two tiles per SSMP**, and the computation
//!   proceeds in phases. In each phase every tile is assigned to
//!   exactly one SSMP (a round-robin tournament schedule), which
//!   therefore has *exclusive* access to it: all sharing within a phase
//!   stays inside the SSMP at cache-line grain, and only the tile
//!   hand-off between phases uses page-grain software coherence. This
//!   is the "best-effort implementation" that drops the breakup penalty
//!   from 334% to 26% in the paper.

use crate::common::{add3, assert_close, block_range, pair_force, read3, REC_WORDS};
use crate::MgsApp;
use mgs_core::{AccessKind, Env, HwLock, Machine, MgsLock, RunReport, SharedArray};
use mgs_sim::XorShift64;
use std::sync::Arc;

const M_POS: u64 = 0;
const M_FRC: u64 = 6;

/// The Water force kernel.
#[derive(Debug, Clone)]
pub struct WaterKernel {
    /// Number of molecules (the paper uses 512).
    pub n: usize,
    /// Kernel invocations (the paper uses 1 iteration).
    pub iters: usize,
    /// Apply the tiling loop transformation of §5.2.3.
    pub tiled: bool,
    /// Workload seed.
    pub seed: u64,
    /// Cycles of arithmetic per pair interaction.
    pub pair_cycles: u64,
}

impl WaterKernel {
    /// The paper's problem size: 512 molecules, 1 iteration.
    pub fn paper(tiled: bool) -> WaterKernel {
        WaterKernel {
            n: 512,
            iters: 1,
            tiled,
            seed: 0x3E11,
            pair_cycles: 11_100,
        }
    }

    /// A size suitable for unit tests.
    pub fn small(tiled: bool) -> WaterKernel {
        WaterKernel {
            n: 32,
            iters: 1,
            tiled,
            seed: 0x3E11,
            pair_cycles: 11_100,
        }
    }

    fn positions(&self) -> Vec<[f64; 3]> {
        let mut rng = XorShift64::new(self.seed);
        (0..self.n)
            .map(|_| {
                [
                    rng.next_range_f64(0.0, 8.0),
                    rng.next_range_f64(0.0, 8.0),
                    rng.next_range_f64(0.0, 8.0),
                ]
            })
            .collect()
    }

    /// Reference: total force on every molecule over all unordered
    /// pairs.
    fn reference_forces(&self) -> Vec<[f64; 3]> {
        let pos = self.positions();
        let mut f = vec![[0.0f64; 3]; self.n];
        for i in 0..self.n {
            for j in i + 1..self.n {
                let (g, _) = pair_force(pos[i], pos[j]);
                for k in 0..3 {
                    f[i][k] += g[k] * self.iters as f64;
                    f[j][k] -= g[k] * self.iters as f64;
                }
            }
        }
        f
    }

    fn interact(&self, env: &mut Env, mol: SharedArray<f64>, locks: &LockSet, i: usize, j: usize) {
        let pi = read3(env, mol, i as u64, M_POS);
        let pj = read3(env, mol, j as u64, M_POS);
        let (g, _) = pair_force(pi, pj);
        env.compute(self.pair_cycles);
        locks.with(env, i, |env| add3(env, mol, i as u64, M_FRC, g));
        locks.with(env, j, |env| {
            add3(env, mol, j as u64, M_FRC, [-g[0], -g[1], -g[2]])
        });
    }

    /// Unmodified kernel: block rows over all processors.
    fn body_plain(&self, env: &mut Env, mol: SharedArray<f64>, locks: &LockSet) {
        let n = self.n;
        let (lo, hi) = block_range(n, env.nprocs(), env.pid());
        env.barrier();
        env.start_measurement();
        for _ in 0..self.iters {
            for i in lo..hi {
                for j in i + 1..n {
                    self.interact(env, mol, locks, i, j);
                }
            }
            env.barrier();
        }
    }

    /// Tiled kernel: two tiles per SSMP, tournament schedule, exclusive
    /// tile access per phase.
    fn body_tiled(&self, env: &mut Env, mol: SharedArray<f64>, locks: &LockSet) {
        let n = self.n;
        let n_ssmps = env.n_clusters();
        let tiles = 2 * n_ssmps;
        let my_ssmp = env.cluster();
        let my_rank = env.local_index();
        let c = env.cluster_size();
        env.barrier();
        env.start_measurement();
        for _ in 0..self.iters {
            // Phase 0: each SSMP handles the internal pairs of its two
            // initial tiles.
            for t in [2 * my_ssmp, 2 * my_ssmp + 1] {
                let (tlo, thi) = block_range(n, tiles, t);
                // Partition rows of the tile over the SSMP's processors.
                let (rlo, rhi) = block_range(thi - tlo, c, my_rank);
                for i in tlo + rlo..tlo + rhi {
                    for j in i + 1..thi {
                        self.interact(env, mol, locks, i, j);
                    }
                }
            }
            env.barrier();

            // Tournament rounds: in round r, pairing k is processed by
            // SSMP k; every tile appears in exactly one pairing per
            // round, so each SSMP has exclusive access to its two tiles.
            let m = tiles - 1;
            for round in 0..m {
                let (ta, tb) = tournament_pair(tiles, round, my_ssmp);
                let (alo, ahi) = block_range(n, tiles, ta);
                let (blo, bhi) = block_range(n, tiles, tb);
                let (rlo, rhi) = block_range(ahi - alo, c, my_rank);
                for i in alo + rlo..alo + rhi {
                    for j in blo..bhi {
                        self.interact(env, mol, locks, i, j);
                    }
                }
                env.barrier();
            }
        }
    }
}

/// The per-molecule locks of the two kernel variants. The unmodified
/// kernel shares molecules across SSMPs and must use MGS distributed
/// locks (whose releases flush the DUQ). The tiled kernel's phases keep
/// each tile exclusive to one SSMP, so plain intra-SSMP hardware locks
/// suffice — this is what lets "all sharing within a phase rely on
/// hardware cache coherence" (§5.2.3); the phase barrier performs the
/// page-grain release.
#[derive(Debug)]
enum LockSet {
    Mgs(Vec<Arc<MgsLock>>),
    Hw(Vec<Arc<HwLock>>),
}

impl LockSet {
    fn with(&self, env: &mut Env, i: usize, f: impl FnOnce(&mut Env)) {
        match self {
            LockSet::Mgs(locks) => {
                env.acquire(&locks[i]);
                f(env);
                env.release(&locks[i]);
            }
            LockSet::Hw(locks) => {
                env.acquire_hw(&locks[i]);
                f(env);
                env.release_hw(&locks[i]);
            }
        }
    }
}

/// The standard circle-method round-robin tournament: `tiles` teams
/// (even), `tiles - 1` rounds, pairing index `k` of round `r`.
/// Returns the two tiles of pairing `k`.
fn tournament_pair(tiles: usize, round: usize, k: usize) -> (usize, usize) {
    let m = tiles - 1;
    let slot = |x: usize| -> usize {
        if x == 0 {
            tiles - 1 // the fixed team
        } else {
            (round + x - 1) % m
        }
    };
    // Pairing k matches position k against position (tiles - 1 - k) of
    // the rotated circle.
    let a = slot(k);
    let b = slot(tiles - 1 - k);
    (a.min(b), a.max(b))
}

impl MgsApp for WaterKernel {
    fn name(&self) -> &'static str {
        if self.tiled {
            "water-kernel-tiled"
        } else {
            "water-kernel"
        }
    }

    fn execute(&self, machine: &Arc<Machine>) -> RunReport {
        let n = self.n;
        let mol = machine.alloc_array_blocked::<f64>(n as u64 * REC_WORDS, AccessKind::DistArray);
        for (i, p) in self.positions().iter().enumerate() {
            for k in 0..3 {
                machine.poke(&mol, i as u64 * REC_WORDS + M_POS + k as u64, p[k]);
            }
        }
        let locks = if self.tiled {
            LockSet::Hw((0..n).map(|_| machine.new_hw_lock()).collect())
        } else {
            LockSet::Mgs((0..n).map(|_| machine.new_lock()).collect())
        };
        let report = if self.tiled {
            machine.run(|env| self.body_tiled(env, mol, &locks))
        } else {
            machine.run(|env| self.body_plain(env, mol, &locks))
        };
        for (i, want) in self.reference_forces().iter().enumerate() {
            for k in 0..3 {
                let got = machine.peek(&mol, i as u64 * REC_WORDS + M_FRC + k as u64);
                assert_close(&format!("kernel mol {i} f[{k}]"), got, want[k], 1e-4);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_core::DssmpConfig;
    use std::collections::HashSet;

    fn quiet(p: usize, c: usize) -> DssmpConfig {
        let mut cfg = DssmpConfig::new(p, c);
        cfg.governor_window = None;
        cfg
    }

    #[test]
    fn tournament_covers_every_tile_pair_exactly_once() {
        for n_ssmps in [1usize, 2, 3, 4] {
            let tiles = 2 * n_ssmps;
            let mut seen = HashSet::new();
            for round in 0..tiles - 1 {
                let mut used = HashSet::new();
                for k in 0..n_ssmps {
                    let (a, b) = tournament_pair(tiles, round, k);
                    assert_ne!(a, b);
                    assert!(used.insert(a), "tile {a} reused in round {round}");
                    assert!(used.insert(b), "tile {b} reused in round {round}");
                    assert!(seen.insert((a, b)), "pair ({a},{b}) duplicated");
                }
            }
            assert_eq!(seen.len(), tiles * (tiles - 1) / 2, "S = {n_ssmps}");
        }
    }

    #[test]
    fn plain_kernel_verifies_clustered() {
        WaterKernel::small(false).execute(&Machine::new(quiet(4, 2)));
    }

    #[test]
    fn plain_kernel_verifies_uniprocessor_nodes() {
        WaterKernel::small(false).execute(&Machine::new(quiet(4, 1)));
    }

    #[test]
    fn tiled_kernel_verifies_clustered() {
        WaterKernel::small(true).execute(&Machine::new(quiet(4, 2)));
    }

    #[test]
    fn tiled_kernel_verifies_uniprocessor_nodes() {
        WaterKernel::small(true).execute(&Machine::new(quiet(4, 1)));
    }

    #[test]
    fn tiled_kernel_verifies_tightly_coupled() {
        WaterKernel::small(true).execute(&Machine::new(quiet(4, 4)));
    }

    #[test]
    fn both_variants_compute_the_same_forces() {
        let a = WaterKernel::small(false).reference_forces();
        let b = WaterKernel::small(true).reference_forces();
        assert_eq!(a, b);
    }
}
