//! Strategy-refactor equivalence and adaptive correctness.
//!
//! Three guarantees, end to end through the facade crate:
//!
//! * **bit-identity** — the [`ProtocolKind::Eager`] strategy (the
//!   default) reproduces the pre-refactor protocol *exactly*: every
//!   run report below (duration, LAN traffic, lock counts, retries,
//!   and the full four-way cycle breakdown) equals a golden value
//!   captured from the tree immediately before per-page policies
//!   were introduced, at the default worker budget and at one
//!   worker, on perfect and seeded-lossy fabrics, and cluster sizes
//!   1 / 4 / 32 — the [`ProtocolKind::HomeLrc`] rows equal what the
//!   tree produced immediately before the protocol's arcs became
//!   shared steps, and the [`ProtocolKind::Adaptive`] rows what it
//!   produced immediately before the controller's thresholds became
//!   constants;
//! * **convergence** — the [`ProtocolKind::HomeLrc`] and
//!   [`ProtocolKind::Adaptive`] strategies produce the fault-free
//!   memory image on data-race-free programs (checked against a
//!   sequential interpreter), on perfect and lossy fabrics alike, and
//!   the self-verifying applications pass under both;
//! * **determinism** — at `W = 1` an adaptive run's policy-decision
//!   trace is bit-identical run to run.
//!
//! The golden table doubles as the repository's strongest regression
//! anchor for the protocol's cycle accounting: any change to the eager
//! path — intended or not — shows up as a numeric diff here.

use mgs_repro::apps::{envelope, jacobi::Jacobi, tsp::Tsp, water::Water, MgsApp};
use mgs_repro::core::{
    AccessKind, CostCategory, Cycles, DssmpConfig, FaultPlan, Machine, ProtocolKind, RunReport,
};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const PROCS: usize = 32;
const WORDS_PER_PROC: u64 = 256;
const PHASES: u64 = 2;
const RING_WORDS: u64 = 64;
const LOSSY_SEED: u64 = 0x4D47_5345_4E47_5631;

/// The report fields pinned by the golden table, in order: duration,
/// LAN messages, LAN bytes, lock acquires, retries, then the User /
/// Lock / Barrier / MGS breakdown.
fn fields(r: &RunReport) -> [u64; 9] {
    [
        r.duration.raw(),
        r.lan_messages,
        r.lan_bytes,
        r.lock_acquires,
        r.retries,
        r.breakdown.get(CostCategory::User).raw(),
        r.breakdown.get(CostCategory::Lock).raw(),
        r.breakdown.get(CostCategory::Barrier).raw(),
        r.breakdown.get(CostCategory::Mgs).raw(),
    ]
}

/// Captured from the pre-refactor tree (commit `11f1160`) by running
/// exactly the workloads below. Do not regenerate casually: these
/// numbers *are* the bit-identity contract.
const GOLDENS: &[(&str, [u64; 9])] = &[
    (
        "disjoint-c1-threaded",
        [70960, 0, 0, 0, 0, 21632, 0, 31440, 17888],
    ),
    (
        "disjoint-c1-virtual",
        [70960, 0, 0, 0, 0, 21632, 0, 31440, 17888],
    ),
    (
        "ring-perfect-c1-virtual",
        [1039740, 126, 32256, 0, 0, 2848, 0, 1015108, 21784],
    ),
    (
        "ring-lossy-c1-virtual",
        [1082586, 133, 35328, 0, 7, 2848, 0, 1056615, 23123],
    ),
    (
        "disjoint-c4-threaded",
        [56880, 0, 0, 0, 0, 21632, 0, 17360, 17888],
    ),
    (
        "disjoint-c4-virtual",
        [56880, 0, 0, 0, 0, 21632, 0, 17360, 17888],
    ),
    (
        "ring-perfect-c4-virtual",
        [637212, 62, 15872, 0, 0, 3064, 0, 621639, 12509],
    ),
    (
        "ring-lossy-c4-virtual",
        [656852, 65, 17920, 0, 3, 3064, 0, 640665, 13123],
    ),
    (
        "disjoint-c32-threaded",
        [25306, 0, 0, 0, 0, 23706, 0, 1600, 0],
    ),
    (
        "disjoint-c32-virtual",
        [25306, 0, 0, 0, 0, 23706, 0, 1600, 0],
    ),
    (
        "ring-perfect-c32-virtual",
        [150944, 0, 0, 0, 0, 4317, 0, 146627, 0],
    ),
    (
        "ring-lossy-c32-virtual",
        [150944, 0, 0, 0, 0, 4317, 0, 146627, 0],
    ),
    (
        "jacobi-c1-virtual-w1",
        [373558, 608, 165312, 0, 0, 9183, 0, 190837, 173538],
    ),
    (
        "jacobi-c4-virtual-w1",
        [178238, 203, 55496, 0, 0, 11269, 0, 103965, 63004],
    ),
    (
        "jacobi-c32-virtual-w1",
        [17909, 0, 0, 0, 0, 14591, 0, 3318, 0],
    ),
    (
        "tsp-c1-virtual-w1",
        [
            5397214, 1268, 336176, 218, 0, 18266, 5011102, 200346, 167500,
        ],
    ),
    (
        "tsp-c4-virtual-w1",
        [3037386, 647, 162016, 243, 0, 20213, 2868497, 52501, 96175],
    ),
    (
        "tsp-c32-virtual-w1",
        [209369, 0, 0, 251, 0, 27314, 172700, 9355, 0],
    ),
    (
        "water-c1-virtual-w1",
        [
            10356153, 5190, 1177768, 272, 0, 63482, 1633771, 5765327, 2893573,
        ],
    ),
    (
        "water-c4-virtual-w1",
        [
            5513063, 2474, 535032, 272, 0, 64012, 1095005, 3203769, 1150277,
        ],
    ),
    (
        "water-c32-virtual-w1",
        [191633, 0, 0, 272, 0, 68229, 22887, 100517, 0],
    ),
    // Home-LRC and Adaptive, one worker (`virtual_w1`), captured from
    // commit `0aaddea` — the tree immediately before the protocol's
    // release, invalidate and drop arcs became shared steps.
    (
        "jacobi-lrc-c1",
        [200375, 602, 119456, 0, 0, 9180, 0, 86822, 100474],
    ),
    (
        "jacobi-lrc-c4",
        [110640, 161, 23888, 0, 0, 11396, 0, 53053, 39095],
    ),
    (
        "tsp-lrc-c1",
        [
            6816856, 2258, 276800, 218, 0, 18265, 6355553, 239424, 203614,
        ],
    ),
    (
        "tsp-lrc-c4",
        [2943128, 761, 95552, 225, 0, 19037, 2751237, 80262, 92592],
    ),
    // The two Water rows were re-recorded when an acquire drain that
    // evicts unreleased writes began noticing them to the other
    // sharers; before, those notices were lost.
    (
        "water-lrc-c1",
        [
            6263374, 4526, 497880, 272, 0, 63374, 1138316, 3474069, 1578249,
        ],
    ),
    (
        "water-lrc-c4",
        [
            3437679, 1786, 173168, 272, 0, 63973, 682584, 2009585, 665359,
        ],
    ),
    (
        "phased-lrc-c1",
        [914576, 487, 79360, 0, 0, 2440, 0, 372787, 539349],
    ),
    (
        "phased-lrc-c2",
        [547607, 225, 33792, 0, 0, 3531, 0, 274182, 269894],
    ),
    // The Adaptive rows were re-recorded when the controller's
    // thresholds became constants: they are what commit `e407faa`
    // produces at its default thresholds, which the constants keep
    // (before, these runs sampled every 10,000 or 5,000 cycles with an
    // activity floor of 8).
    (
        "jacobi-adaptive-c1",
        [322815, 578, 146160, 0, 0, 9182, 0, 163159, 150474],
    ),
    (
        "jacobi-adaptive-c4",
        [177172, 197, 49448, 0, 0, 11269, 0, 103099, 62804],
    ),
    (
        "tsp-adaptive-c1",
        [4734112, 1853, 153704, 221, 0, 18368, 4506520, 66438, 142786],
    ),
    (
        "tsp-adaptive-c4",
        [2600778, 590, 134800, 234, 0, 19628, 2422268, 68627, 90255],
    ),
    (
        "water-adaptive-c1",
        [
            7153730, 4214, 279528, 272, 0, 63354, 1391654, 4038346, 1660376,
        ],
    ),
    (
        "water-adaptive-c4",
        [
            3891171, 1827, 295056, 272, 0, 64140, 715701, 2156441, 954889,
        ],
    ),
    (
        "phased-adaptive-c1",
        [1033518, 423, 86048, 0, 0, 2428, 0, 403804, 627286],
    ),
    (
        "phased-adaptive-c2",
        [693331, 222, 44656, 0, 0, 3490, 0, 344931, 344910],
    ),
];

fn golden(name: &str) -> [u64; 9] {
    GOLDENS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden named {name}"))
        .1
}

fn check(name: &str, r: &RunReport) {
    assert_eq!(
        fields(r),
        golden(name),
        "{name}: the report must be bit-identical to the pre-refactor protocol's"
    );
}

/// Disjoint writer/reader blocks separated by barriers: pure eager
/// single-writer traffic.
fn disjoint(cfg: DssmpConfig) -> RunReport {
    envelope::disjoint(&Machine::new(cfg), WORDS_PER_PROC, PHASES)
}

/// One active remote writer per barrier phase (the chaos bench's
/// token ring): serialized cross-SSMP fills, diffs, and — on the lossy
/// fabric — retransmissions.
fn ring(cfg: DssmpConfig) -> RunReport {
    envelope::ring(&Machine::new(cfg), RING_WORDS)
}

/// One worker at the window the golden table was recorded at:
/// occupancy contention at `C = 1` is window-sensitive (at the
/// 32,000-cycle default `jacobi-c1-virtual-w1` reads 379,232, not
/// 373,558). Row names keep the labels they were recorded under, from
/// when two execution engines existed: `-virtual` rows run here,
/// `-threaded` rows at the default worker budget.
fn virtual_w1(cfg: &mut DssmpConfig) {
    cfg.workers = Some(1);
    cfg.governor_window = Some(Cycles(2_000));
}

#[test]
fn eager_microbenchmarks_match_pre_refactor_goldens() {
    for c in [1usize, 4, 32] {
        let cfg = DssmpConfig::new(PROCS, c).with_protocol(ProtocolKind::Eager);
        check(&format!("disjoint-c{c}-threaded"), &disjoint(cfg.clone()));
        let mut w1 = cfg;
        virtual_w1(&mut w1);
        check(&format!("disjoint-c{c}-virtual"), &disjoint(w1));
        for (fabric, plan) in [
            ("perfect", FaultPlan::none()),
            (
                "lossy",
                FaultPlan::uniform(LOSSY_SEED, 0.05, 0.05, Cycles(200)),
            ),
        ] {
            let mut cfg = DssmpConfig::new(PROCS, c)
                .with_protocol(ProtocolKind::Eager)
                .with_faults(plan);
            virtual_w1(&mut cfg);
            check(&format!("ring-{fabric}-c{c}-virtual"), &ring(cfg));
        }
    }
}

/// The three applications the golden table pins, at sizes small enough
/// for one worker.
fn golden_apps() -> Vec<(&'static str, Box<dyn MgsApp>)> {
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
    ]
}

#[test]
fn eager_applications_match_pre_refactor_goldens() {
    for (name, app) in &golden_apps() {
        for c in [1usize, 4, 32] {
            let mut cfg = DssmpConfig::new(PROCS, c).with_protocol(ProtocolKind::Eager);
            virtual_w1(&mut cfg);
            let r = app.execute(&Machine::new(cfg));
            check(&format!("{name}-c{c}-virtual-w1"), &r);
        }
    }
}

/// The benchmark runs Eager only, so these rows are what sees a
/// home-LRC or adaptive cycle-accounting change: the golden apps and
/// the phased false-sharing program at one worker, under both
/// non-eager protocols.
#[test]
fn non_eager_runs_match_pre_refactor_goldens() {
    for kind in [ProtocolKind::HomeLrc, ProtocolKind::Adaptive] {
        let label = kind.label();
        for (name, app) in &golden_apps() {
            for c in [1usize, 4] {
                let mut cfg = DssmpConfig::new(PROCS, c).with_protocol(kind);
                virtual_w1(&mut cfg);
                let r = app.execute(&Machine::new(cfg));
                check(&format!("{name}-{label}-c{c}"), &r);
            }
        }
        for c in [1usize, 2] {
            let mut cfg = DssmpConfig::new(CP, c).with_protocol(kind);
            virtual_w1(&mut cfg);
            let (image, r) = run_phased(cfg);
            assert_eq!(image, interpret(&phased_writes()), "phased {label} C={c}");
            check(&format!("phased-{label}-c{c}"), &r);
        }
    }
}

// ---------------------------------------------------------------------
// Convergence: non-eager strategies produce the fault-free image.
// ---------------------------------------------------------------------

const CP: usize = 8;
const CWORDS: u64 = 512;

/// A fixed heavy-false-sharing DRF program: every processor writes
/// interleaved words of the same pages across phases — worst-case
/// multi-writer merging for every strategy, and exactly the shape the
/// adaptive controller reclassifies.
fn phased_writes() -> Vec<Vec<Vec<(u64, u64)>>> {
    (0..4u64)
        .map(|phase| {
            (0..CP)
                .map(|p| {
                    (0..16u64)
                        .map(|i| {
                            let w = (p as u64 + i * CP as u64) % CWORDS;
                            (w, (phase * 1000 + p as u64 * 10 + i) + 1)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn interpret(phases: &[Vec<Vec<(u64, u64)>>]) -> Vec<u64> {
    let mut mem = vec![0u64; CWORDS as usize];
    for phase in phases {
        for proc_writes in phase {
            for &(w, v) in proc_writes {
                mem[w as usize] = v;
            }
        }
    }
    mem
}

fn run_phased(cfg: DssmpConfig) -> (Vec<u64>, RunReport) {
    let phases = phased_writes();
    let machine = Machine::new(cfg);
    let arr = machine.alloc_array_pages::<u64>(CWORDS, AccessKind::DistArray);
    let report = machine.run(|env| {
        for phase in &phases {
            for &(w, v) in &phase[env.pid()] {
                arr.write(env, w, v);
            }
            env.barrier();
            for w in (env.pid() as u64..CWORDS).step_by(97) {
                let _ = arr.read(env, w);
            }
            env.barrier();
        }
    });
    ((0..CWORDS).map(|i| machine.peek(&arr, i)).collect(), report)
}

#[test]
fn home_lrc_converges_on_perfect_and_lossy_fabrics() {
    let expect = interpret(&phased_writes());
    for cluster in [1usize, 2, 8] {
        for plan in [
            FaultPlan::none(),
            FaultPlan::uniform(LOSSY_SEED, 0.02, 0.02, Cycles(200)),
        ] {
            let mut cfg = DssmpConfig::new(CP, cluster)
                .with_protocol(ProtocolKind::HomeLrc)
                .with_faults(plan);
            cfg.governor_window = None;
            let (got, _) = run_phased(cfg);
            assert_eq!(got, expect, "HomeLrc C={cluster}");
        }
    }
}

#[test]
fn home_lrc_passes_application_self_verification() {
    for c in [1usize, 2, 8] {
        let mut cfg = DssmpConfig::new(8, c).with_protocol(ProtocolKind::HomeLrc);
        cfg.governor_window = None;
        // `execute` panics unless the numerical result matches the
        // plain-Rust reference.
        let r = Jacobi::small().execute(&Machine::new(cfg));
        assert!(r.duration.raw() > 0);
    }
}

#[test]
fn adaptive_converges_on_perfect_and_lossy_fabrics() {
    let expect = interpret(&phased_writes());
    for cluster in [1usize, 2, 8] {
        for plan in [
            FaultPlan::none(),
            FaultPlan::uniform(LOSSY_SEED, 0.02, 0.02, Cycles(200)),
        ] {
            let mut cfg = DssmpConfig::new(CP, cluster)
                .with_protocol(ProtocolKind::Adaptive)
                .with_faults(plan);
            cfg.governor_window = None;
            let (got, report) = run_phased(cfg);
            assert_eq!(got, expect, "Adaptive C={cluster}");
            // One SSMP shares nothing across the LAN; every other
            // machine crosses a policy transition mid-run.
            assert!(
                cluster == CP || !report.policy_decisions.is_empty(),
                "Adaptive C={cluster}: no page was reclassified"
            );
        }
    }
}

/// Runs `body` on its own thread and panics with `what` if no result
/// arrives within `deadline`: a livelocked run (ROADMAP item 1) fails by
/// name instead of spinning until the CI job limit. A panic in `body`
/// is re-raised unchanged.
fn within_deadline<T: Send + 'static>(
    what: &str,
    deadline: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(deadline) {
        Ok(result) => result,
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped without a result"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no result after {deadline:?}"),
    }
}

#[test]
fn adaptive_passes_application_self_verification() {
    for c in [1usize, 2, 8] {
        let mut cfg = DssmpConfig::new(8, c).with_protocol(ProtocolKind::Adaptive);
        cfg.governor_window = None;
        // A passing run takes under a second.
        let r = within_deadline(
            &format!(
                "adaptive_passes_application_self_verification: \
                 tsp-small P=8 C={c} Adaptive, unpaced"
            ),
            Duration::from_secs(60),
            move || Tsp::small().execute(&Machine::new(cfg)),
        );
        assert!(r.duration.raw() > 0);
    }
}

#[test]
fn adaptive_policy_trace_is_deterministic_at_w1() {
    let run = || {
        let mut cfg = DssmpConfig::new(CP, 2).with_protocol(ProtocolKind::Adaptive);
        virtual_w1(&mut cfg);
        let (image, report) = run_phased(cfg);
        (image, report.policy_decisions)
    };
    let (image_a, trace_a) = run();
    let (image_b, trace_b) = run();
    assert!(
        !trace_a.is_empty(),
        "the false-sharing program must trigger at least one reclassification"
    );
    assert_eq!(trace_a, trace_b, "policy trace must be bit-deterministic");
    assert_eq!(image_a, image_b);
    assert_eq!(image_a, interpret(&phased_writes()));
}
