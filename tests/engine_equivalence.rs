//! Pacing equivalence: however the scheduler paces a machine — unpaced
//! (every processor free-running on its own host thread), the default
//! window and worker budget, a single worker, or a narrow window — the
//! simulated results must be bit-identical, because pacing never
//! charges simulated cycles. (The file keeps its name from when the
//! axis was a choice between two execution engines.)
//!
//! Layers of evidence, strongest first:
//!
//! * Full-report bit-equivalence on workloads inside the simulator's
//!   deterministic envelope (page-disjoint, barrier-phased; and the
//!   one-active-writer token ring on a seeded lossy fabric, where every
//!   cross-SSMP transaction — including injected drops and the retries
//!   they force — is serialized by construction). `P = 32`,
//!   `C ∈ {1, 4, 32}`, both fabrics, all four pacings.
//! * Worker-count invariance: the report does not depend on how many
//!   host workers execute the tasks.
//! * Single-worker bit-reproducibility: with a worker budget of 1 the
//!   scheduler serializes every interaction in deterministic heap
//!   order, so even *schedule-sensitive* whole applications (TSP's
//!   bound-pruned search, contended locks) reproduce bit-identically
//!   run to run — a guarantee no wider budget can make (see
//!   `tests/determinism.rs` for why).
//! * The full six-application suite compared paced vs. unpaced on the
//!   components that are invariant by construction (fixed lock-acquire
//!   counts, the zero-LAN invariant at `C = P`).

use mgs_repro::apps::{
    barnes::BarnesHut, envelope, jacobi::Jacobi, matmul::MatMul, tsp::Tsp, water::Water,
    water_kernel::WaterKernel, MgsApp,
};
use mgs_repro::core::{Cycles, DssmpConfig, FaultPlan, Machine, RunReport};

const PROCS: usize = 32;
const WORDS_PER_PROC: u64 = 256;
const PHASES: u64 = 2;
const LOSSY_SEED: u64 = 0x4D47_5345_4E47_5631;

/// Default pacing with an explicit worker budget (`None` = host
/// parallelism).
fn config(c: usize, workers: Option<usize>) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(PROCS, c);
    cfg.workers = workers;
    cfg
}

/// The pacing axis: the free-running reference first, then every way of
/// pacing the same machine (default, one worker, a narrow window).
fn pacings(c: usize) -> Vec<DssmpConfig> {
    let mut unpaced = config(c, None);
    unpaced.governor_window = None;
    let mut narrow = config(c, None);
    narrow.governor_window = Some(Cycles(2_000));
    vec![unpaced, config(c, None), config(c, Some(1)), narrow]
}

/// Runs `run` under every pacing and asserts all reports equal the
/// unpaced one; returns that reference report.
fn assert_pacing_invariant(
    c: usize,
    what: &str,
    run: impl Fn(DssmpConfig) -> RunReport,
) -> RunReport {
    let mut cfgs = pacings(c).into_iter();
    let reference = run(cfgs.next().expect("the unpaced reference"));
    for cfg in cfgs {
        let pacing = format!("window {:?} workers {:?}", cfg.governor_window, cfg.workers);
        let report = run(cfg);
        assert_eq!(
            reference.first_divergence(&report),
            None,
            "C={c} {what}: unpaced vs {pacing}"
        );
    }
    reference
}

// ---------------------------------------------------------------------
// Deterministic-envelope workload (the governor-equivalence program):
// page-disjoint writes and reads, barrier-phased.
// ---------------------------------------------------------------------

fn disjoint(cfg: DssmpConfig) -> RunReport {
    envelope::disjoint(&Machine::new(cfg), WORDS_PER_PROC, PHASES)
}

#[test]
fn pacing_modes_are_bit_identical_on_deterministic_workload() {
    for c in [1usize, 4, 32] {
        assert_pacing_invariant(c, "disjoint", disjoint);
    }
}

#[test]
fn virtual_reports_are_invariant_across_worker_counts() {
    for c in [1usize, 4] {
        let w1 = disjoint(config(c, Some(1)));
        for workers in [2usize, 8] {
            let wn = disjoint(config(c, Some(workers)));
            assert_eq!(w1.first_divergence(&wn), None, "C={c} W=1 vs W={workers}");
        }
    }
}

// ---------------------------------------------------------------------
// Seeded lossy fabric: the one-active-writer token ring (from
// `tests/chaos.rs`), where injected drops and the retries they force
// are serialized and therefore pacing-invariant.
// ---------------------------------------------------------------------

const RING_WORDS: u64 = 64;

#[test]
fn pacing_modes_agree_on_perfect_and_seeded_lossy_fabrics() {
    for c in [1usize, 4, 32] {
        for (fabric, plan) in [
            ("perfect", FaultPlan::none()),
            (
                "lossy",
                FaultPlan::uniform(LOSSY_SEED, 0.05, 0.05, Cycles(200)),
            ),
        ] {
            let reference = assert_pacing_invariant(c, &format!("{fabric} ring"), |cfg| {
                envelope::ring(&Machine::new(cfg.with_faults(plan.clone())), RING_WORDS)
            });
            if c < PROCS && fabric == "perfect" {
                assert!(
                    reference.lan_messages > 0,
                    "C={c}: ring produced no LAN traffic — fabric comparison is vacuous"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Single-worker bit-reproducibility on schedule-sensitive applications.
// ---------------------------------------------------------------------

#[test]
fn single_worker_virtual_runs_reproduce_schedule_sensitive_apps() {
    // TSP (bound-pruned work queue) and Water (contended locks) are the
    // workloads `tests/determinism.rs` shows are NOT reproducible when
    // processors run concurrently. With one admission slot every interaction is
    // serialized in deterministic heap order, so two fresh runs must be
    // bit-identical — full reports, per-processor.
    let apps: Vec<(&str, Box<dyn MgsApp>)> = vec![
        (
            "tsp",
            Box::new(Tsp {
                n: 6,
                ..Tsp::small()
            }),
        ),
        (
            "water",
            Box::new(Water {
                n: 16,
                iters: 1,
                ..Water::small()
            }),
        ),
    ];
    for (name, app) in apps {
        for c in [4usize, 32] {
            let run = |_: usize| {
                let cfg = config(c, Some(1));
                app.execute(&Machine::new(cfg))
            };
            let first = run(0);
            let second = run(1);
            assert_eq!(
                first.first_divergence(&second),
                None,
                "{name} C={c} W=1 rerun"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Full application suite: construction-invariant components.
// ---------------------------------------------------------------------

fn suite() -> Vec<(&'static str, Box<dyn MgsApp>)> {
    vec![
        (
            "jacobi",
            Box::new(Jacobi {
                n: 32,
                iters: 2,
                ..Jacobi::small()
            }),
        ),
        (
            "matmul",
            Box::new(MatMul {
                n: 16,
                ..MatMul::small()
            }),
        ),
        (
            "tsp",
            Box::new(Tsp {
                n: 6,
                ..Tsp::small()
            }),
        ),
        (
            "water",
            Box::new(Water {
                n: 16,
                iters: 1,
                ..Water::small()
            }),
        ),
        (
            "barnes",
            Box::new(BarnesHut {
                n: 32,
                iters: 1,
                ..BarnesHut::small()
            }),
        ),
        (
            "water-kernel",
            Box::new(WaterKernel {
                n: 16,
                iters: 1,
                ..WaterKernel::small(false)
            }),
        ),
    ]
}

/// Applications whose lock acquire count is fixed by the algorithm —
/// control flow never depends on values produced by other processors,
/// so the count is identical under any pacing. (TSP's bound pruning
/// and Barnes-Hut's hand-over-hand tree walk are excluded: their lock
/// call counts legitimately vary with the interleaving.)
const FIXED_LOCK_COUNT: &[&str] = &["jacobi", "matmul", "water", "water-kernel"];

#[test]
fn paced_matches_unpaced_on_the_suite() {
    let mut compared = 0usize;
    for (name, app) in suite() {
        for c in [1usize, 4, 32] {
            let mut free = config(c, None);
            free.governor_window = None;
            let unpaced = app.execute(&Machine::new(free));
            let paced = app.execute(&Machine::new(config(c, None)));
            assert!(paced.duration.raw() > 0, "{name} C={c}: empty paced run");
            if FIXED_LOCK_COUNT.contains(&name) {
                assert_eq!(
                    unpaced.lock_acquires, paced.lock_acquires,
                    "{name} C={c}: lock acquire count (unpaced vs paced)"
                );
                compared += 1;
            }
            if c == PROCS {
                assert_eq!(unpaced.lan_messages, 0, "{name} C={c}: unpaced LAN msgs");
                assert_eq!(paced.lan_messages, 0, "{name} C={c}: paced LAN msgs");
                assert_eq!(paced.lan_bytes, 0, "{name} C={c}: paced LAN bytes");
                compared += 2;
            }
        }
    }
    assert!(
        compared >= 20,
        "only {compared} invariant components compared across the suite"
    );
}
