//! Fabric equivalence gates.
//!
//! Every experiment is built on the paper's fixed-latency LAN, which is
//! the uniform LAN tier of the one fabric type behind `LanModel`. These
//! tests pin that: a machine configured with a [`TieredScenario`]
//! pinned to the LAN tier at the default latency is **bit-identical**
//! in cycle accounting to the default-constructed machine, across
//! cluster sizes — using the deterministic token-ring workload (one
//! active remote writer per barrier phase, governor off; the envelope
//! `determinism.rs` establishes) — and each crossing lands in its
//! tier's latency histogram.

use mgs_repro::apps::envelope;
use mgs_repro::core::{
    Cycles, DssmpConfig, HistSummary, LatencyClass, LinkTier, Machine, RunReport, TieredScenario,
};
use std::sync::Arc;

const PROCS: usize = 32;
const RING_WORDS: u64 = 128;

/// An unpaced machine on the given fabric (`None` = the
/// default-constructed machine).
fn config(procs: usize, cluster_size: usize, scenario: Option<Arc<TieredScenario>>) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(procs, cluster_size);
    cfg.governor_window = None;
    if let Some(s) = scenario {
        cfg = cfg.with_scenario(s);
    }
    cfg
}

/// The envelope's token ring on `PROCS` processors.
fn ring(cluster_size: usize, scenario: Option<Arc<TieredScenario>>) -> RunReport {
    envelope::ring(
        &Machine::new(config(PROCS, cluster_size, scenario)),
        RING_WORDS,
    )
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
fn each_crossing_lands_in_its_tiers_latency_histogram() {
    // The ring at P = 8, C = 2 (four SSMPs), observed: the four tier
    // histograms hold one sample per inter-SSMP message between them.
    let observed = |scenario: Option<TieredScenario>| -> [HistSummary; 4] {
        let mut cfg = config(8, 2, scenario.map(Arc::new));
        cfg.observe = true;
        let report = envelope::ring(&Machine::new(cfg), RING_WORDS);
        let m = report.metrics.as_ref().expect("observability on");
        let hists = [
            LatencyClass::TierLan,
            LatencyClass::TierRack,
            LatencyClass::TierDatacenter,
            LatencyClass::TierWan,
        ]
        .map(|class| m.hist(class).clone());
        assert!(report.lan_messages > 0, "the ring crosses SSMPs");
        assert_eq!(
            hists.iter().map(|h| h.count).sum::<u64>(),
            report.lan_messages,
            "one sample per crossing"
        );
        hists
    };

    let [lan, rack, dc, wan] = observed(None);
    assert_eq!(lan.sum, lan.count * 1000, "the default LAN");
    assert_eq!(rack.count + dc.count + wan.count, 0);

    let [lan, rack, dc, wan] = observed(Some(TieredScenario::uniform(
        LinkTier::Wan,
        TieredScenario::WAN_LATENCY,
    )));
    assert!(wan.count > 0);
    assert_eq!(lan.count + rack.count + dc.count, 0);

    // Racks of two SSMPs, one rack per datacenter: rack and WAN links.
    let [lan, rack, dc, wan] = observed(Some(TieredScenario::new(2, 1)));
    assert!(rack.count > 0 && wan.count > 0);
    assert_eq!(lan.count + dc.count, 0);
    assert_eq!(
        rack.sum + wan.sum,
        rack.count * TieredScenario::RACK_LATENCY.raw()
            + wan.count * TieredScenario::WAN_LATENCY.raw()
    );
}

#[test]
fn slower_tiers_strictly_dilate_execution() {
    // Sanity in the other direction: the fabric is not inert. A
    // WAN-latency uniform fabric must cost real simulated time over
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
    // At C = P there is no inter-SSMP traffic, so even a WAN fabric
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
