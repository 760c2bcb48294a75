//! Pacing: however the scheduler paces a machine — unpaced (every
//! processor free-running on its own host thread), the default window
//! and worker budget, a single worker, or a window from 50 to 100,000
//! cycles — the simulated results must be bit-identical, because pacing
//! never charges simulated cycles; and pacing must hold its skew bound.
//!
//! Layers of evidence, strongest first:
//!
//! * Full-report bit-equivalence on workloads inside the simulator's
//!   deterministic envelope (page-disjoint, barrier-phased; and the
//!   one-active-writer token ring on a seeded lossy fabric, where every
//!   cross-SSMP transaction — including injected drops and the retries
//!   they force — is serialized by construction). `P = 32`,
//!   `C ∈ {1, 4, 32}`, both fabrics, all six pacings. A 50-cycle window
//!   forces constant yielding: thousands of hand-overs leave no trace in
//!   simulated time.
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
//! * The skew bound: with a window `w` and a tick stride `δ = w / 4`, no
//!   simulated clock runs more than `w + δ` cycles ahead of the slowest
//!   still-running processor.

use mgs_repro::apps::{
    barnes::BarnesHut, envelope, jacobi::Jacobi, matmul::MatMul, tsp::Tsp, water::Water,
    water_kernel::WaterKernel, MgsApp,
};
use mgs_repro::core::{Cycles, DssmpConfig, FaultPlan, Machine, RunReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// pacing the same machine (default, one worker, windows of 2,000, 50
/// and 100,000 cycles).
fn pacings(c: usize) -> Vec<DssmpConfig> {
    let window = |w: Option<u64>| {
        let mut cfg = config(c, None);
        cfg.governor_window = w.map(Cycles);
        cfg
    };
    vec![
        window(None),
        config(c, None),
        config(c, Some(1)),
        window(Some(2_000)),
        window(Some(50)),
        window(Some(100_000)),
    ]
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
// Deterministic-envelope workload: page-disjoint writes and reads,
// barrier-phased.
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

// ---------------------------------------------------------------------
// The skew bound.
//
// Why `w + δ` and not `w`: the scheduler only sees a clock when the
// runtime ticks it, and ticks are throttled to at most one per `δ`
// simulated cycles. Between ticks a processor can charge up to `δ`
// cycles past the horizon it was last checked against, so the
// instantaneous bound is `window + stride` — still O(w).
//
// The probe is host-side and zero-perturbation: every processor
// publishes its simulated clock into a shared atomic slot after each
// one-cycle charge (`u64::MAX` once finished, mirroring the
// scheduler's own rule that finished tasks leave the window), and
// asserts its own clock never exceeds the minimum published clock of
// the still-running processors by more than the bound. Published values can be stale — but a stale
// value only *under*-reports the laggard's progress, so the check is
// conservative in the right direction: it can only over-estimate
// skew, never hide a violation.
// ---------------------------------------------------------------------

const SKEW_PROCS: usize = 8;
const CYCLES_PER_PROC: u64 = 4_000;

/// Runs a lock-free, barrier-free workload of unit compute charges and
/// returns the maximum observed skew (own clock minus the minimum
/// published clock of any still-running peer).
fn max_observed_skew(window: u64) -> u64 {
    let mut cfg = DssmpConfig::new(SKEW_PROCS, SKEW_PROCS);
    cfg.governor_window = Some(Cycles(window));
    let machine = Machine::new(cfg);
    let clocks: Arc<Vec<AtomicU64>> =
        Arc::new((0..SKEW_PROCS).map(|_| AtomicU64::new(0)).collect());
    let worst = Arc::new(AtomicU64::new(0));
    {
        let clocks = Arc::clone(&clocks);
        let worst = Arc::clone(&worst);
        machine.run(move |env| {
            let me = env.pid();
            let mut local_worst = 0u64;
            for _ in 0..CYCLES_PER_PROC {
                env.compute(1);
                let now = env.now().raw();
                clocks[me].store(now, Ordering::SeqCst);
                let min = clocks
                    .iter()
                    .map(|c| c.load(Ordering::SeqCst))
                    .filter(|&c| c != u64::MAX)
                    .min()
                    .unwrap_or(now);
                local_worst = local_worst.max(now.saturating_sub(min));
            }
            // Finished: drop out of the probe the same way the
            // scheduler drops finished tasks from its window.
            clocks[me].store(u64::MAX, Ordering::SeqCst);
            worst.fetch_max(local_worst, Ordering::SeqCst);
        });
    }
    worst.load(Ordering::SeqCst)
}

#[test]
fn skew_stays_within_window_plus_default_stride() {
    let window = 400u64;
    let skew = max_observed_skew(window);
    assert!(
        skew <= window + window / 4,
        "observed skew {skew} > window {window} + stride {}",
        window / 4
    );
    // And pacing must actually have bitten: an unpaced 8-thread
    // race over 4000 cycles would show skew far above one window on
    // any real host.
    assert!(skew > 0, "probe never observed any skew");
}
