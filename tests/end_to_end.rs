//! End-to-end integration tests through the facade crate: applications
//! on full machines across cluster sizes, framework metrics, and
//! paper-shape assertions.

use mgs_repro::apps::{
    jacobi::Jacobi, sweep_app, tsp::Tsp, water::Water, water_kernel::WaterKernel, MgsApp,
};
use mgs_repro::core::{framework, CostCategory, Cycles, DssmpConfig};

fn base(p: usize) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(p, 1);
    cfg.governor_window = None;
    cfg
}

#[test]
fn jacobi_sweep_produces_valid_metrics() {
    let points = sweep_app(&base(8), &Jacobi::small());
    assert_eq!(points.len(), 4); // C = 1, 2, 4, 8
    let m = framework::metrics(&points);
    assert!(m.breakup_penalty.is_finite());
    assert!(m.multigrain_potential.is_finite());
    assert!(m.multigrain_potential < 1.0);
}

#[test]
fn tsp_is_much_worse_clustered_than_tightly_coupled() {
    // The paper's headline TSP observation: a large breakup penalty
    // driven by the centralized work queue under software coherence.
    // Paced, unlike the rest of this file: an unpaced worker polling an
    // empty queue charges 2,000 cycles per poll for as long as the host
    // keeps the producer off the CPU, so an unpaced C = 8 duration is a
    // host-scheduling artifact (0.6 to 6.1 Mcycles where the paced run
    // reads 0.27 to 0.39).
    let points = sweep_app(&DssmpConfig::new(8, 1), &Tsp::small());
    let t_clustered = points[0].report.duration; // C = 1
    let t_tight = points.last().unwrap().report.duration; // C = 8
                                                          // The factor is large at paper scale; at this tiny test scale we
                                                          // assert the direction with margin (runs are timing-nondeterministic).
    assert!(
        t_clustered.raw() as f64 > t_tight.raw() as f64 * 1.5,
        "C=1 {t_clustered:?} vs C=8 {t_tight:?}"
    );
    // Lock time is a major component of the clustered runs.
    let lock_frac = points[0].report.fraction(CostCategory::Lock);
    assert!(lock_frac > 0.15, "lock fraction {lock_frac}");
}

#[test]
fn water_lock_hit_ratio_rises_with_cluster_size() {
    // Figure 11: hit ratio increases monotonically with C and reaches
    // 1.0 at C = P.
    let points = sweep_app(&base(8), &Water::small());
    let ratios: Vec<f64> = points.iter().map(|p| p.lock_hit_ratio).collect();
    assert!(
        (ratios.last().unwrap() - 1.0).abs() < 1e-12,
        "C = P is all hits"
    );
    assert!(
        ratios.first().unwrap() < ratios.last().unwrap(),
        "{ratios:?}"
    );
}

#[test]
fn tiled_kernel_has_smaller_breakup_than_plain() {
    // Figure 12's point: the loop transformation collapses the breakup
    // penalty.
    let plain = framework::metrics(&sweep_app(&base(8), &WaterKernel::small(false)));
    let tiled = framework::metrics(&sweep_app(&base(8), &WaterKernel::small(true)));
    assert!(
        tiled.breakup_penalty < plain.breakup_penalty,
        "tiled {tiled:?} vs plain {plain:?}"
    );
}

#[test]
fn mgs_component_shrinks_as_clusters_grow() {
    // More hardware sharing (larger C) means less software protocol
    // work per processor.
    let points = sweep_app(&base(8), &Water::small());
    let mgs_first = points[0].report.breakdown.get(CostCategory::Mgs);
    let mgs_last = points
        .last()
        .unwrap()
        .report
        .breakdown
        .get(CostCategory::Mgs);
    assert_eq!(mgs_last, Cycles::ZERO, "no MGS time at C = P");
    assert!(mgs_first > Cycles::ZERO, "software coherence at C = 1");
}

#[test]
fn sequential_runtime_exceeds_parallel_duration() {
    let app = Jacobi::small();
    let seq = mgs_repro::apps::sequential_runtime(&base(8), &app);
    let mut cfg = base(8);
    cfg.cluster_size = 8;
    let par = app.execute(&mgs_repro::core::Machine::new(cfg)).duration;
    assert!(seq > par, "seq {seq:?} should exceed 8-way {par:?}");
    let speedup = seq.raw() as f64 / par.raw() as f64;
    assert!(speedup > 3.0, "8-way speedup {speedup:.2} too low");
}

#[test]
fn facade_reexports_compose() {
    // The facade paths work end to end.
    let machine = mgs_repro::core::Machine::new(DssmpConfig::new(2, 1));
    let arr = machine.alloc_array::<u64>(4, mgs_repro::core::AccessKind::Pointer);
    machine.run(|env| {
        if env.pid() == 0 {
            arr.write(env, 0, 5);
        }
        env.barrier();
        assert_eq!(arr.read(env, 0), 5);
    });
    assert_eq!(machine.peek(&arr, 0), 5);
}
