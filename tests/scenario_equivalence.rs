//! Scenario-engine equivalence gates.
//!
//! The fixed-latency model that every existing experiment is built on
//! is now the trivial scenario behind `LanModel`. These tests pin the
//! refactor: a machine configured with an explicit [`FixedScenario`]
//! (or a [`TieredScenario`] pinned to one uniform tier at the same
//! cost) is **bit-identical** in cycle accounting to the legacy
//! default-constructed machine, across cluster sizes — using the
//! deterministic token-ring workload (one active remote writer per
//! barrier phase, governor off; the envelope `determinism.rs`
//! establishes).

use mgs_repro::apps::envelope;
use mgs_repro::core::{
    Cycles, DssmpConfig, FixedScenario, LinkTier, Machine, RunReport, Scenario, TieredScenario,
};
use std::sync::Arc;

const PROCS: usize = 32;
const RING_WORDS: u64 = 128;

/// The envelope's token ring, unpaced, on the given fabric (`None` =
/// the legacy default-constructed machine).
fn ring(cluster_size: usize, scenario: Option<Arc<dyn Scenario>>) -> RunReport {
    let mut cfg = DssmpConfig::new(PROCS, cluster_size);
    cfg.governor_window = None;
    if let Some(s) = scenario {
        cfg = cfg.with_scenario(s);
    }
    envelope::ring(&Machine::new(cfg), RING_WORDS)
}

#[test]
fn explicit_fixed_scenario_is_bit_identical_to_legacy_default() {
    for c in [1, 4, 32] {
        let legacy = ring(c, None);
        let fixed = ring(c, Some(Arc::new(FixedScenario::new(Cycles(1000)))));
        assert_eq!(legacy.first_divergence(&fixed), None, "C={c} fixed");
    }
}

#[test]
fn uniform_lan_tier_matches_the_fixed_model() {
    for c in [1, 4, 32] {
        let legacy = ring(c, None);
        let uniform = ring(
            c,
            Some(Arc::new(TieredScenario::uniform(
                LinkTier::Lan,
                Cycles(1000),
            ))),
        );
        assert_eq!(legacy.first_divergence(&uniform), None, "C={c} uniform-lan");
    }
}

#[test]
fn slower_tiers_strictly_dilate_execution() {
    // Sanity in the other direction: the scenario engine is not inert.
    // A WAN-latency uniform scenario must cost real simulated time over
    // the LAN default whenever cross-SSMP traffic exists (C < P).
    let lan = ring(4, None);
    let wan = ring(
        4,
        Some(Arc::new(TieredScenario::uniform(
            LinkTier::Wan,
            TieredScenario::WAN_LATENCY,
        ))),
    );
    assert!(
        wan.duration.raw() > lan.duration.raw(),
        "WAN ({}) should dilate over LAN ({})",
        wan.duration.raw(),
        lan.duration.raw()
    );
    // Message counts are workload-determined, not latency-determined.
    assert_eq!(wan.lan_messages, lan.lan_messages);
}

#[test]
fn single_ssmp_machines_never_touch_the_lan() {
    // At C = P there is no inter-SSMP traffic, so even a WAN scenario
    // is bit-identical to the default machine.
    let base = ring(32, None);
    let wan = ring(
        32,
        Some(Arc::new(TieredScenario::uniform(
            LinkTier::Wan,
            TieredScenario::WAN_LATENCY,
        ))),
    );
    assert_eq!(base.first_divergence(&wan), None, "C=P wan");
    assert_eq!(base.lan_messages, 0);
}
