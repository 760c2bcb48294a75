//! Matrix Multiply (§5.2, Figure 7).
//!
//! `C = A × B` for square matrices, with rows of `C` block-partitioned
//! over processors. `A` and `B` are read-shared; each processor writes
//! a disjoint row block of `C`. Like Jacobi, the computation reads and
//! writes large contiguous regions without data dependences, so the
//! paper finds essentially no breakup penalty and a flat multigrain
//! region.

use crate::common::{assert_cells_exact, block_range};
use crate::MgsApp;
use mgs_core::{AccessKind, Env, Machine, RunReport, SharedArray};
use mgs_sim::XorShift64;
use std::sync::Arc;

/// The Matrix Multiply application.
#[derive(Debug, Clone)]
pub struct MatMul {
    /// Matrix edge length (the paper uses 256).
    pub n: usize,
    /// Estimated cycles per multiply-accumulate.
    pub flop_cycles: u64,
    /// Workload seed for the input matrices.
    pub seed: u64,
}

impl MatMul {
    /// The paper's problem size: 256×256 matrices.
    pub fn paper() -> MatMul {
        MatMul {
            n: 256,
            flop_cycles: 134,
            seed: 0xA1,
        }
    }

    /// A size suitable for unit tests.
    pub fn small() -> MatMul {
        MatMul {
            n: 24,
            flop_cycles: 134,
            seed: 0xA1,
        }
    }

    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let mut rng = XorShift64::new(self.seed);
        let a: Vec<f64> = (0..n * n).map(|_| rng.next_range_f64(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..n * n).map(|_| rng.next_range_f64(-1.0, 1.0)).collect();
        (a, b)
    }

    /// Plain-Rust reference: `a × b`, each cell summed as the kernel
    /// sums it, `acc += a·b` from `0.0` in ascending `k`.
    fn product(n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for r in 0..n {
            for col in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[r * n + k] * b[k * n + col];
                }
                c[r * n + col] = acc;
            }
        }
        c
    }

    fn body(&self, env: &mut Env, a: SharedArray<f64>, b: SharedArray<f64>, c: SharedArray<f64>) {
        let n = self.n;
        let (row_lo, row_hi) = block_range(n, env.nprocs(), env.pid());
        env.barrier();
        env.start_measurement();
        for r in row_lo..row_hi {
            for col in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    let x = a.read(env, (r * n + k) as u64);
                    let y = b.read(env, (k * n + col) as u64);
                    acc += x * y;
                    env.compute(self.flop_cycles);
                }
                c.write(env, (r * n + col) as u64, acc);
            }
        }
        env.barrier();
    }
}

impl MgsApp for MatMul {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn execute(&self, machine: &Arc<Machine>) -> RunReport {
        let n = self.n;
        let (av, bv) = self.inputs();
        let a = machine.alloc_array_blocked::<f64>((n * n) as u64, AccessKind::DistArray);
        let b = machine.alloc_array_blocked::<f64>((n * n) as u64, AccessKind::DistArray);
        let c = machine.alloc_array_blocked::<f64>((n * n) as u64, AccessKind::DistArray);
        for i in 0..n * n {
            machine.poke(&a, i as u64, av[i]);
            machine.poke(&b, i as u64, bv[i]);
        }
        let report = machine.run(|env| self.body(env, a, b, c));
        assert_cells_exact("matmul", n, &Self::product(n, &av, &bv), |i| {
            machine.peek(&c, i)
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
    fn verifies_on_tightly_coupled_machine() {
        MatMul::small().execute(&Machine::new(quiet(4, 4)));
    }

    #[test]
    fn verifies_on_clustered_machine() {
        MatMul::small().execute(&Machine::new(quiet(4, 2)));
    }

    #[test]
    fn verifies_with_uniprocessor_nodes() {
        MatMul::small().execute(&Machine::new(quiet(4, 1)));
    }

    #[test]
    fn inputs_are_deterministic() {
        let m = MatMul::small();
        assert_eq!(m.inputs().0, m.inputs().0);
    }
}
