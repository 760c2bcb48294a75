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

use mgs_repro::core::{AccessKind, CostCategory, Cycles, DssmpConfig, Machine, RunReport};

fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.duration.raw(), b.duration.raw(), "{what}: duration");
    for cat in CostCategory::ALL {
        assert_eq!(
            a.breakdown.get(cat).raw(),
            b.breakdown.get(cat).raw(),
            "{what}: breakdown {}",
            cat.label()
        );
    }
    assert_eq!(a.per_proc.len(), b.per_proc.len(), "{what}: proc count");
    for (p, (x, y)) in a.per_proc.iter().zip(&b.per_proc).enumerate() {
        for cat in CostCategory::ALL {
            assert_eq!(
                x.get(cat).raw(),
                y.get(cat).raw(),
                "{what}: proc {p} {}",
                cat.label()
            );
        }
    }
    assert_eq!(a.lan_messages, b.lan_messages, "{what}: LAN messages");
    assert_eq!(a.lan_bytes, b.lan_bytes, "{what}: LAN bytes");
}

const PROCS: usize = 32;
const WORDS_PER_PROC: u64 = 256;
const PHASES: u64 = 2;

fn run_disjoint(c: usize, window: Option<Cycles>) -> RunReport {
    let mut cfg = DssmpConfig::new(PROCS, c);
    cfg.governor_window = window;
    let machine = Machine::new(cfg);
    let arr =
        machine.alloc_array_blocked::<u64>(WORDS_PER_PROC * PROCS as u64, AccessKind::DistArray);
    machine.run(|env| {
        let pid = env.pid() as u64;
        let base = pid * WORDS_PER_PROC;
        env.start_measurement();
        for phase in 0..PHASES {
            for i in 0..WORDS_PER_PROC {
                arr.write(env, base + i, pid * 1_000_000 + phase * 1_000 + i);
            }
            env.barrier();
            let mut acc = 0u64;
            for i in 0..WORDS_PER_PROC {
                acc = acc.wrapping_add(arr.read(env, base + i));
            }
            std::hint::black_box(acc);
            env.barrier();
        }
    })
}

#[test]
fn every_governor_impl_is_cycle_invisible_on_deterministic_workload() {
    // A 50-cycle window forces constant yielding; the unpaced run is
    // the reference. Bit-identity proves pacing never perturbs
    // simulated time.
    for c in [1usize, 4, 32] {
        let reference = run_disjoint(c, None);
        for window in [50, 100_000] {
            let governed = run_disjoint(c, Some(Cycles(window)));
            assert_identical(&reference, &governed, &format!("C={c} w={window}"));
        }
    }
}
