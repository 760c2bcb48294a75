//! Fault-injection integration tests: full machines on a lossy LAN.
//!
//! Two guarantees, end to end through the facade crate:
//!
//! * **transparency** — an *inactive* fault plan (drop rate 0) and a
//!   duplicate-storm plan are bit-identical in cycle accounting to the
//!   plain perfect-fabric machine, using the deterministic token-ring
//!   workload (one active remote writer per barrier phase, governor
//!   off — the envelope `determinism.rs` establishes);
//! * **recovery** — every application of the suite completes on a
//!   seeded 1%-drop fabric with duplication and delivery jitter, at
//!   every cluster size, and its self-verification (numerical result
//!   against a plain-Rust reference) passes: the memory image after
//!   retransmission equals the fault-free answer. A duplicate copy is
//!   counted by the fabric and reaches no handler.

use mgs_repro::apps::{
    barnes::BarnesHut, envelope, jacobi::Jacobi, matmul::MatMul, sweep_app, tsp::Tsp, water::Water,
    water_kernel::WaterKernel, MgsApp,
};
use mgs_repro::core::{CostCategory, Cycles, DssmpConfig, FaultPlan, Machine, RunReport};

const SEED: u64 = 0x4D47_5343_4841_4F53;

// ---------------------------------------------------------------------
// Transparency: the ring workload from the chaos bench, in miniature.
// ---------------------------------------------------------------------

const RING_PROCS: usize = 4;
const RING_WORDS: u64 = 256;

/// The envelope's token ring, unpaced, on the given fabric.
fn ring(cluster_size: usize, plan: FaultPlan) -> RunReport {
    let mut cfg = DssmpConfig::new(RING_PROCS, cluster_size).with_faults(plan);
    cfg.governor_window = None;
    envelope::ring(&Machine::new(cfg), RING_WORDS)
}

#[test]
fn drop_rate_zero_is_bit_identical_to_no_plan() {
    for c in [1, 2] {
        let baseline = ring(c, FaultPlan::none());
        assert!(baseline.lan_messages > 0, "ring crosses SSMPs at C={c}");
        let zero = ring(c, FaultPlan::uniform(SEED, 0.0, 0.0, Cycles::ZERO));
        assert_eq!(baseline.first_divergence(&zero), None, "drop-0 C={c}");
        assert_eq!(zero.lan_drops + zero.lan_duplicates + zero.retries, 0);
    }
}

#[test]
fn duplicate_storm_is_cycle_invisible() {
    for c in [1, 2] {
        let baseline = ring(c, FaultPlan::none());
        let storm = ring(c, FaultPlan::uniform(SEED, 0.0, 1.0, Cycles::ZERO));
        assert_eq!(baseline.first_divergence(&storm), None, "dup-storm C={c}");
        assert_eq!(
            storm.lan_duplicates, storm.lan_messages,
            "every inter-SSMP message duplicated once at C={c}"
        );
    }
}

#[test]
fn lossy_ring_recovers_and_reports_faults() {
    let lossy = ring(1, FaultPlan::uniform(SEED, 0.05, 0.05, Cycles(200)));
    assert!(lossy.lan_drops > 0, "5% loss must drop something");
    assert_eq!(lossy.retries, lossy.lan_drops, "every drop retried once");
    // Recovery time is charged to the MGS category.
    assert!(lossy.breakdown.get(CostCategory::Mgs).raw() > 0);
}

// ---------------------------------------------------------------------
// Recovery: the application suite on a lossy LAN.
// ---------------------------------------------------------------------

/// Every application, every cluster size, one seeded lossy fabric:
/// completion *is* the assertion (each `execute` panics unless the
/// numerical result matches its plain-Rust reference).
#[test]
fn all_applications_recover_on_a_lossy_lan() {
    let apps: Vec<Box<dyn MgsApp>> = vec![
        Box::new(Jacobi::small()),
        Box::new(MatMul::small()),
        Box::new(Tsp::small()),
        Box::new(Water::small()),
        Box::new(BarnesHut::small()),
        Box::new(WaterKernel::small(false)),
    ];
    let mut base =
        DssmpConfig::new(8, 1).with_faults(FaultPlan::uniform(SEED, 0.01, 0.01, Cycles(200)));
    base.governor_window = None;
    let mut drops = 0u64;
    let mut retries = 0u64;
    for app in &apps {
        for pt in sweep_app(&base, app.as_ref()) {
            let c = pt.cluster_size;
            assert!(pt.report.duration.raw() > 0, "{} C={c} ran", app.name());
            drops += pt.report.lan_drops;
            retries += pt.report.retries;
        }
    }
    assert!(drops > 0, "a 1% loss rate must drop messages somewhere");
    assert_eq!(retries, drops, "every drop recovered by one retry");
}
