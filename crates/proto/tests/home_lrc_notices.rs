//! Tests for the home-LRC write-notice board (TreadMarks-style
//! acquire-side coherence: releases post notices, acquires drain them).

use mgs_proto::{ClientState, MgsProtocol, ProtoConfig, ProtocolKind, RecordingTiming};
use mgs_sim::{CostModel, Cycles};

fn lrc_proto() -> MgsProtocol {
    let mut cfg = ProtoConfig::new(4, 2);
    cfg.protocol = ProtocolKind::HomeLrc;
    MgsProtocol::new(cfg)
}

fn timing() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles::ZERO)
}

#[test]
fn release_posts_notice_instead_of_invalidating_readers() {
    let p = lrc_proto();
    let mut t = timing();
    p.fault(2, 0, false, &mut t); // reader, SSMP 1
    let w = p.fault(4, 0, true, &mut t); // writer, SSMP 2
    w.frame.store(0, 9);
    p.release_all(4, &mut t);
    // The reader's copy survives the release...
    assert_eq!(p.client_state(1, 0), ClientState::Read);
    assert!(p.tlb(2).lookup(0, false).is_some());
    assert_eq!(p.stats().lazy_notices.get(), 1);
    // ...but the home already has the released data (diffs are eager).
    assert_eq!(p.home_frame(0).load(0), 9);
}

#[test]
fn acquire_sync_drops_noticed_copies() {
    let p = lrc_proto();
    let mut t = timing();
    let r = p.fault(2, 0, false, &mut t);
    assert_eq!(r.frame.load(0), 0); // stale value visible pre-acquire
    let w = p.fault(4, 0, true, &mut t);
    w.frame.store(0, 9);
    p.release_all(4, &mut t);
    // Acquire-side coherence at the reader.
    p.acquire_sync(2, &mut t);
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    assert!(p.tlb(2).lookup(0, false).is_none());
    // The next fault fetches the released value.
    let r2 = p.fault(2, 0, false, &mut t);
    assert_eq!(r2.frame.load(0), 9);
}

#[test]
fn acquire_sync_is_noop_in_eager_mode() {
    let p = MgsProtocol::new(ProtoConfig::new(4, 2));
    let mut t = timing();
    p.fault(2, 0, false, &mut t);
    let before = t.elapsed();
    p.acquire_sync(2, &mut t);
    assert_eq!(t.elapsed(), before);
    assert_eq!(p.stats().lazy_notices.get(), 0);
}

#[test]
fn lazy_release_is_cheaper_for_the_releaser() {
    let run = |protocol: ProtocolKind| {
        let mut cfg = ProtoConfig::new(4, 2);
        cfg.protocol = protocol;
        let p = MgsProtocol::new(cfg);
        let mut t = timing();
        // Three reader SSMPs hold copies; one writer releases.
        p.fault(0, 1, false, &mut t); // page 1 homed at node 1 (SSMP 0)
        p.fault(2, 1, false, &mut t);
        p.fault(4, 1, false, &mut t);
        let w = p.fault(6, 1, true, &mut t);
        w.frame.store(0, 5);
        t.reset();
        p.release_all(6, &mut t);
        t.elapsed()
    };
    assert!(
        run(ProtocolKind::HomeLrc) < run(ProtocolKind::Eager),
        "notices must be cheaper than synchronous reader invalidation"
    );
}

#[test]
fn upgraded_copy_is_merged_home_by_stale_drain() {
    let p = lrc_proto();
    let mut t = timing();
    p.fault(2, 0, false, &mut t); // read copy at SSMP 1
    let w = p.fault(4, 0, true, &mut t);
    w.frame.store(1, 7);
    p.release_all(4, &mut t);
    // A notice is now posted to SSMP 1, which upgrades its (stale)
    // copy before draining and writes a different word.
    let u = p.fault(2, 0, true, &mut t);
    u.frame.store(2, 8);
    // The drain finds a write copy behind the stale notice. Home-LRC
    // evicts it, and the eviction must merge its diff home, not lose it.
    p.acquire_sync(2, &mut t);
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    p.release_all(2, &mut t);
    let home = p.home_frame(0);
    assert_eq!(home.load(1), 7, "earlier release preserved");
    assert_eq!(home.load(2), 8, "upgraded write merged");
}

#[test]
fn duplicate_notices_drain_once() {
    let p = lrc_proto();
    let mut t = timing();
    p.fault(2, 0, false, &mut t);
    for round in 0..2 {
        let w = p.fault(4, 0, true, &mut t);
        w.frame.store(0, round + 1);
        p.release_all(4, &mut t);
    }
    assert_eq!(
        p.stats().lazy_notices.get(),
        2,
        "directories stay put under home-LRC, so each release re-notices the reader"
    );
    p.acquire_sync(2, &mut t);
    p.acquire_sync(2, &mut t); // second drain is a no-op
    assert_eq!(p.client_state(1, 0), ClientState::Inv);
    let r = p.fault(2, 0, false, &mut t);
    assert_eq!(r.frame.load(0), 2);
}

#[test]
fn a_drain_that_evicts_unreleased_writes_notices_the_other_sharers() {
    let p = lrc_proto();
    let mut t = timing();
    // Processor 4 (SSMP 2) writes word 1 and has not released it yet.
    let w = p.fault(4, 0, true, &mut t);
    w.frame.store(1, 7);
    // Processor 6 (SSMP 3) writes another word and releases: SSMP 2
    // gets a notice.
    let other = p.fault(6, 0, true, &mut t);
    other.frame.store(2, 8);
    p.release_all(6, &mut t);
    // Processor 2 (SSMP 1) reads before processor 4's writes travel.
    let mut r = p.fault(2, 0, false, &mut t);
    assert_eq!(r.frame.load(1), 0);
    // Processor 4's acquire evicts its own WRITE copy, carrying word 1
    // home and pruning its DUQ; its release then has nothing to flush.
    p.acquire_sync(4, &mut t);
    p.release_all(4, &mut t);
    // Processor 2 acquires after that release and must see word 1.
    p.acquire_sync(2, &mut t);
    if r.frame.generation() != r.gen {
        r = p.fault(2, 0, false, &mut t);
    }
    assert_eq!(
        r.frame.load(1),
        7,
        "SSMP 1's stale copy survived the acquire"
    );
}
