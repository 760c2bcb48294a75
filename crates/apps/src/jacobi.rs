//! Jacobi: 2-D grid relaxation (§5.2, Figure 6).
//!
//! Two `n × n` grids; each iteration computes every interior point as
//! the average of its four neighbours from the source grid into the
//! destination grid, then the grids swap roles at a barrier. Rows are
//! block-partitioned over processors, so the only inter-processor
//! sharing is the boundary rows between adjacent blocks — long
//! contiguous read-shared regions with no data dependences inside an
//! iteration, which is why the paper finds Jacobi nearly insensitive to
//! the shared memory implementation (breakup penalty 16%, flat
//! multigrain region).

use crate::common::{assert_cells_exact, block_range};
use crate::MgsApp;
use mgs_core::{AccessKind, Env, Machine, RunReport, SharedArray};
use std::sync::Arc;

/// The Jacobi application.
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// Grid edge length (the paper uses 1024).
    pub n: usize,
    /// Relaxation iterations (the paper uses 10).
    pub iters: usize,
    /// Estimated cycles of arithmetic per grid-point update.
    pub flop_cycles: u64,
}

impl Jacobi {
    /// The paper's problem size: 1024×1024, 10 iterations.
    pub fn paper() -> Jacobi {
        Jacobi {
            n: 1024,
            iters: 10,
            flop_cycles: 44,
        }
    }

    /// A size suitable for unit tests.
    pub fn small() -> Jacobi {
        Jacobi {
            n: 32,
            iters: 4,
            flop_cycles: 44,
        }
    }

    fn initial(&self, r: usize, c: usize) -> f64 {
        // Hot edges, cold interior: a standard relaxation setup.
        if r == 0 || c == 0 || r == self.n - 1 || c == self.n - 1 {
            100.0
        } else {
            0.0
        }
    }

    /// Plain-Rust reference: the final grid, each cell computed by the
    /// kernel's own float operations in the kernel's order.
    fn reference_grid(&self) -> Vec<f64> {
        let n = self.n;
        let mut a: Vec<f64> = (0..n * n).map(|i| self.initial(i / n, i % n)).collect();
        let mut b = a.clone();
        for _ in 0..self.iters {
            for r in 1..n - 1 {
                for c in 1..n - 1 {
                    b[r * n + c] = 0.25
                        * (a[(r - 1) * n + c]
                            + a[(r + 1) * n + c]
                            + a[r * n + c - 1]
                            + a[r * n + c + 1]);
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    fn body(&self, env: &mut Env, src0: SharedArray<f64>, dst0: SharedArray<f64>) {
        let n = self.n;
        let (row_lo, row_hi) = block_range(n.saturating_sub(2), env.nprocs(), env.pid());
        env.barrier();
        env.start_measurement();
        let (mut src, mut dst) = (src0, dst0);
        for _ in 0..self.iters {
            for r in row_lo + 1..row_hi + 1 {
                for c in 1..n - 1 {
                    let up = src.read(env, ((r - 1) * n + c) as u64);
                    let down = src.read(env, ((r + 1) * n + c) as u64);
                    let left = src.read(env, (r * n + c - 1) as u64);
                    let right = src.read(env, (r * n + c + 1) as u64);
                    env.compute(self.flop_cycles);
                    dst.write(env, (r * n + c) as u64, 0.25 * (up + down + left + right));
                }
            }
            env.barrier();
            std::mem::swap(&mut src, &mut dst);
        }
    }
}

impl MgsApp for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn execute(&self, machine: &Arc<Machine>) -> RunReport {
        let n = self.n;
        // Grids are block-distributed: each processor's rows are homed
        // at that processor, as the paper's applications lay out data.
        let a = machine.alloc_array_blocked::<f64>((n * n) as u64, AccessKind::DistArray);
        let b = machine.alloc_array_blocked::<f64>((n * n) as u64, AccessKind::DistArray);
        for r in 0..n {
            for c in 0..n {
                let v = self.initial(r, c);
                machine.poke(&a, (r * n + c) as u64, v);
                machine.poke(&b, (r * n + c) as u64, v);
            }
        }
        let report = machine.run(|env| self.body(env, a, b));
        // After an even/odd number of iterations the result lives in
        // `a`/`b` respectively (grids swap each iteration).
        let final_grid = if self.iters.is_multiple_of(2) { a } else { b };
        assert_cells_exact("jacobi", n, &self.reference_grid(), |i| {
            machine.peek(&final_grid, i)
        });
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
    fn reference_grid_relaxes_inward_from_the_hot_edges() {
        let j = Jacobi::small();
        let grid = j.reference_grid();
        let n = j.n;
        assert_eq!(grid[0], 100.0, "edges stay hot");
        // Each iteration carries heat one row further in: four reach
        // row 4, not row 5.
        assert!(grid[4 * n + n / 2] > 0.0);
        assert_eq!(grid[5 * n + n / 2], 0.0);
    }

    #[test]
    #[should_panic(expected = "jacobi: cell (5, 7)")]
    fn a_wrong_cell_is_named() {
        let mut got = Jacobi::small().reference_grid();
        got[5 * 32 + 7] += 1e-12;
        assert_cells_exact("jacobi", 32, &Jacobi::small().reference_grid(), |i| {
            got[i as usize]
        });
    }

    #[test]
    fn verifies_on_tightly_coupled_machine() {
        Jacobi::small().execute(&Machine::new(quiet(4, 4)));
    }

    #[test]
    fn verifies_on_clustered_machine() {
        Jacobi::small().execute(&Machine::new(quiet(4, 2)));
    }

    #[test]
    fn verifies_with_uniprocessor_nodes() {
        Jacobi::small().execute(&Machine::new(quiet(4, 1)));
    }

    #[test]
    fn verifies_single_processor() {
        Jacobi::small().execute(&Machine::new(quiet(1, 1)));
    }

    #[test]
    fn odd_iteration_count_verifies() {
        let mut j = Jacobi::small();
        j.iters = 3;
        j.execute(&Machine::new(quiet(4, 2)));
    }
}
