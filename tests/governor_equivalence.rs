//! Pacing cycle-invisibility: simulated cycle counts must be
//! bit-identical whether or not the scheduler paces the run, because
//! pacing only bounds host-side skew — it never charges cycles.
//!
//! A workload inside the simulator's deterministic envelope (the
//! page-disjoint, barrier-phased program of `tests/determinism.rs`) is
//! run at `P = 32`, `C ∈ {1, 4, 32}`, with an aggressively small
//! window, with a wide one, and unpaced. All reports must be
//! bit-identical. This is the strongest possible statement: heavy
//! yielding (thousands of hand-overs) leaves no trace in simulated
//! time.
//!
//! Whole applications are *not* bit-reproducible when processors run
//! concurrently (see `tests/determinism.rs`); their pacing-invariant
//! components are compared by `tests/engine_equivalence.rs`.

use mgs_repro::apps::envelope;
use mgs_repro::core::{Cycles, DssmpConfig, Machine, RunReport};

const PROCS: usize = 32;
const WORDS_PER_PROC: u64 = 256;
const PHASES: u64 = 2;

fn disjoint(c: usize, window: Option<Cycles>) -> RunReport {
    let mut cfg = DssmpConfig::new(PROCS, c);
    cfg.governor_window = window;
    envelope::disjoint(&Machine::new(cfg), WORDS_PER_PROC, PHASES)
}

#[test]
fn every_governor_impl_is_cycle_invisible_on_deterministic_workload() {
    // A 50-cycle window forces constant yielding; the unpaced run is
    // the reference. Bit-identity proves pacing never perturbs
    // simulated time.
    for c in [1usize, 4, 32] {
        let reference = disjoint(c, None);
        for window in [50, 100_000] {
            let governed = disjoint(c, Some(Cycles(window)));
            assert_eq!(
                reference.first_divergence(&governed),
                None,
                "C={c} w={window}"
            );
        }
    }
}
