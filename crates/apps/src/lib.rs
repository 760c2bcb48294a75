//! The shared memory applications of the MGS evaluation (§5.2).
//!
//! Five applications, exactly the paper's suite, plus the Water force
//! kernel of §5.2.3 in both its unmodified and loop-transformed
//! (tiled) versions:
//!
//! | Application | Paper problem size | Module |
//! |---|---|---|
//! | Jacobi | 1024×1024 grid, 10 iterations | [`jacobi`] |
//! | Matrix Multiply | 256×256 matrices | [`matmul`] |
//! | TSP | 10-city tour | [`tsp`] |
//! | Water | 343 molecules, 2 iterations | [`water`] |
//! | Barnes-Hut | 2K bodies, 3 iterations | [`barnes`] |
//! | Water-kernel | 512 molecules, 1 iteration | [`water_kernel`] |
//!
//! Every application is written against the `mgs-core` public API the
//! way the paper's applications were written against shared memory:
//! unmodified data layouts (e.g. TSP's contiguously-allocated 56-byte
//! path elements, which false-share on 1 KB pages), barrier-phased
//! computation, and lock-protected shared structures. Each application
//! **verifies its numerical result** against a plain-Rust reference
//! after the run — an end-to-end correctness check of the entire
//! multigrain protocol stack.
//!
//! The applications know nothing about scheduling. Every charged
//! operation — `Env::read`, `Env::write`, lock acquire/release,
//! barrier arrival — funnels through `Env`, which is where the
//! machine's scheduler may suspend the task and run the
//! lowest-simulated-time ready one instead, so application code
//! written against `Env` gets M:N scheduling for free (see `DESIGN.md`
//! § "Pacing").

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Small fixed-size vector loops (`for k in 0..3`) read more clearly as
// index loops in the numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod barnes;
pub mod common;
pub mod envelope;
pub mod jacobi;
pub mod matmul;
pub mod tsp;
pub mod water;
pub mod water_kernel;

use mgs_core::{DssmpConfig, Machine, RunReport};
use std::sync::Arc;

/// A runnable MGS application.
pub trait MgsApp: Sync {
    /// Short name (used by the benchmark harness CLI).
    fn name(&self) -> &'static str;

    /// Builds the workload on `machine`, runs it in parallel, verifies
    /// the numerical result (panicking on mismatch), and returns the
    /// run report for the measured (post-initialization) region.
    fn execute(&self, machine: &Arc<Machine>) -> RunReport;
}

/// Runs `app` at every power-of-two cluster size from 1 to `P`,
/// returning one sweep point per configuration (Figures 6–10
/// methodology: fresh machine per point, everything fixed except `C`).
pub fn sweep_app(base: &DssmpConfig, app: &dyn MgsApp) -> Vec<mgs_core::framework::SweepPoint> {
    mgs_core::framework::sweep_with(base, |machine| app.execute(machine))
}

/// The sequential runtime of `app` (Table 4's "Seq" column): one
/// processor, tightly coupled, software virtual memory included.
pub fn sequential_runtime(base: &DssmpConfig, app: &dyn MgsApp) -> mgs_core::Cycles {
    let mut cfg = base.clone();
    cfg.n_procs = 1;
    cfg.cluster_size = 1;
    cfg.governor_window = None;
    let machine = Machine::new(cfg);
    app.execute(&machine).duration
}
