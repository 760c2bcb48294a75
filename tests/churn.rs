//! SSMP churn recovery: an SSMP departs mid-run, its pages re-home to a
//! survivor, its link drops, and it later rejoins — and the machine
//! must converge to exactly the fault-free memory image with a clean
//! directory (no stale sharer entries, nothing for the rejoin drain to
//! repair).
//!
//! The workload is a producer/consumer grid: every processor writes its
//! own block each round and reads its successor's, with barriers
//! between, so pages continuously cross the SSMP boundary. The churn
//! schedule knocks out SSMP 1 during the middle rounds; writes and
//! reads that target it (or its re-homed pages) ride the retry
//! transport through the outage.

use mgs_repro::apps::envelope;
use mgs_repro::core::{
    ChurnEvent, Cycles, DssmpConfig, LinkTier, Machine, RunReport, TieredScenario,
};
use mgs_repro::proto::ClientState;
use std::sync::Arc;

const PROCS: usize = 4;
const CLUSTER: usize = 2;
const WORDS: u64 = 64;
const ROUNDS: u64 = 24;

const DEPART: u64 = 60_000;
const REJOIN: u64 = 260_000;

/// `deterministic` runs on one worker; otherwise the machine is
/// unpaced and every processor free-runs on its own host thread.
fn build_config(deterministic: bool, churn: bool) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(PROCS, CLUSTER);
    if deterministic {
        cfg.workers = Some(1);
    } else {
        cfg.governor_window = None;
    }
    if churn {
        let scenario =
            TieredScenario::uniform(LinkTier::Lan, Cycles(1000)).with_churn(ChurnEvent {
                ssmp: 1,
                depart: Cycles(DEPART),
                rejoin: Cycles(REJOIN),
            });
        cfg = cfg.with_scenario(Arc::new(scenario));
    }
    cfg
}

/// Runs the envelope's grid; returns the machine, report, and the
/// final home-copy image of the shared array.
fn grid(cfg: DssmpConfig) -> (Arc<Machine>, RunReport, Vec<u64>) {
    let machine = Machine::new(cfg);
    let (report, image) = envelope::grid(&machine, WORDS, ROUNDS);
    (machine, report, image)
}

fn assert_converged(machine: &Arc<Machine>, image: &[u64]) {
    // Final memory equals the closed-form expectation.
    assert_eq!(image, envelope::grid_image(PROCS as u64, WORDS, ROUNDS));
    // No stale sharer entries: every directory bit corresponds to a
    // live client copy.
    let geom = machine.config().geometry;
    let proto = machine.protocol();
    let n_ssmps = machine.config().n_ssmps();
    let words_per_page = geom.page_bytes() / 8;
    let n_pages = (WORDS * PROCS as u64).div_ceil(words_per_page);
    let first_page = 0;
    for page in first_page..first_page + n_pages + 4 {
        let dirs = proto.server_dirs(page);
        for ssmp in 0..n_ssmps {
            if dirs.all() & (1 << ssmp) != 0 {
                assert_ne!(
                    proto.client_state(ssmp, page),
                    ClientState::Inv,
                    "stale sharer bit: page {page} ssmp {ssmp}"
                );
            }
        }
    }
}

#[test]
fn churn_converges_to_the_fault_free_image_deterministic() {
    let (machine, report, image) = grid(build_config(true, true));
    let (_, baseline_report, baseline_image) = grid(build_config(true, false));

    assert_eq!(report.churn_departs, 1, "departure applied");
    assert_eq!(report.churn_rejoins, 1, "rejoin applied");
    assert!(report.rehomed_pages >= 1, "SSMP 1's pages re-homed");
    assert!(report.retries > 0, "outage exercised the retry transport");
    assert_eq!(
        machine.churn_repaired(),
        0,
        "a clean drain leaves nothing to repair"
    );

    assert_eq!(image, baseline_image, "memory converged to fault-free");
    assert_eq!(baseline_report.churn_departs, 0);
    assert_eq!(baseline_report.retries, 0);
    assert_converged(&machine, &image);
}

#[test]
fn churn_converges_unpaced() {
    // Host interleaving varies which processor applies each transition;
    // the converged state must not.
    let (machine, report, image) = grid(build_config(false, true));
    assert_eq!(report.churn_departs, 1);
    assert_eq!(report.churn_rejoins, 1);
    assert_eq!(machine.churn_repaired(), 0);
    assert_converged(&machine, &image);
}

#[test]
fn churn_free_scenario_reports_zero_churn() {
    let (machine, report, image) = grid(build_config(true, false));
    assert_eq!(report.churn_departs, 0);
    assert_eq!(report.churn_rejoins, 0);
    assert_eq!(report.rehomed_pages, 0);
    assert_converged(&machine, &image);
}
