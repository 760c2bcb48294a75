//! Charge-sequence pins: one per flush discipline and drop site.
//!
//! The end-to-end goldens (`tests/strategy_equivalence.rs`) see a cycle
//! count move; these say *which arc* moved it. Each scenario drives one
//! protocol operation through a [`RecordingTiming`] and pins its serial
//! elapsed time, its inter-SSMP crossings, and two fixed hashes of the
//! `Debug` rendering of its one event stream, in order: the charge
//! events (the timing hook calls), and separately the observed events.
//! (Separately, because an observed event charges nothing: only its
//! order among observed events is contract, not where it falls between
//! two charges.)
//!
//! The elapsed times, crossings and observed-event hashes were captured
//! from commit `0aaddea`, the tree immediately before the protocol's
//! release, invalidate and drop arcs became shared steps; the charge
//! hashes are the same hook calls rendered as `ObsEvent`s, captured on
//! the tree before `ObsEvent` became the one event type. Do not
//! regenerate casually: they are the bit-identity contract under the
//! non-eager protocols, which the benchmark never runs.

use mgs_obs::ObsEvent;
use mgs_proto::{
    MgsProtocol, PagePolicy, PolicyDecision, ProtoConfig, ProtocolKind, RecordingTiming,
};
use mgs_sim::{CostModel, Cycles};

/// Page 0 is homed at processor 0 (SSMP 0). Two processors per SSMP:
/// processors 2–3 are SSMP 1, 4–5 SSMP 2, 6–7 SSMP 3.
const PAGE: u64 = 0;

fn recorder() -> RecordingTiming {
    RecordingTiming::new(CostModel::alewife(), Cycles(1000))
}

/// `true` for the events a timing hook call records.
fn is_charge(e: &ObsEvent) -> bool {
    matches!(
        e,
        ObsEvent::Local { .. }
            | ObsEvent::WaitUntil { .. }
            | ObsEvent::Message { .. }
            | ObsEvent::NodeWork { .. }
            | ObsEvent::Drop { .. }
            | ObsEvent::Duplicate { .. }
            | ObsEvent::Retry { .. }
    )
}

/// 64-bit FNV-1a: fixed across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn proto(kind: ProtocolKind) -> MgsProtocol {
    let mut cfg = ProtoConfig::new(4, 2);
    cfg.protocol = kind;
    MgsProtocol::new(cfg)
}

/// An adaptive protocol with `policy` installed on [`PAGE`].
fn proto_with(policy: PagePolicy) -> MgsProtocol {
    let p = proto(ProtocolKind::Adaptive);
    p.install(PolicyDecision {
        page: PAGE,
        policy,
        at: Cycles::ZERO,
        reason: "test",
    });
    p
}

/// Faults `proc` onto [`PAGE`] outside the pinned window; a writer
/// also stores `proc + 1` into word `proc`.
fn share(p: &MgsProtocol, proc: usize, write: bool) {
    let e = p.fault(proc, PAGE, write, &mut recorder());
    if write {
        e.frame.store(proc as u64, proc as u64 + 1);
    }
}

/// Runs `op` against a fresh recorder and compares what it charged and
/// observed with `want`: `(elapsed, crossings, hash of the charges,
/// hash of the observed events)`.
fn pin(want: (u64, usize, u64, u64), op: impl FnOnce(&mut RecordingTiming)) {
    let mut t = recorder();
    op(&mut t);
    let (charges, events): (Vec<ObsEvent>, Vec<ObsEvent>) =
        t.events().iter().partition(|e| is_charge(e));
    let got = (
        t.elapsed().raw(),
        t.crossings(),
        fnv1a(&format!("{charges:?}")),
        fnv1a(&format!("{events:?}")),
    );
    assert_eq!(got, want, "{got:#x?}\n{charges:#?}\n{events:#?}");
}

#[test]
fn eager_multi_writer_release() {
    let p = proto(ProtocolKind::Eager);
    share(&p, 2, true);
    share(&p, 3, true); // a second mapping in the releaser's SSMP
    share(&p, 4, true);
    share(&p, 6, false);
    pin((29_647, 8, 0x10b772224f08c33b, 0x9b16b7c196a68f82), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(4), 5, "the other writer merged too");
}

#[test]
fn eager_single_writer_release() {
    let p = proto(ProtocolKind::Eager);
    share(&p, 1, false); // a reader in the home SSMP
    share(&p, 6, false);
    share(&p, 2, true);
    pin((20_582, 6, 0x4e16dc564cb4afb2, 0xc3a07568f62130ff), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3);
}

#[test]
fn lrc_release_by_a_remote_writer() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 2, true);
    share(&p, 4, true);
    share(&p, 6, false);
    pin((16_153, 5, 0x76e3864282f9f825, 0x28e0672659a3edd9), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3);
}

#[test]
fn lrc_release_by_a_home_ssmp_writer() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 2, false);
    share(&p, 0, true);
    pin((2_464, 1, 0x15a0f741242f7154, 0xaea88ad7934e3250), |t| {
        p.release_all(0, t)
    });
}

#[test]
fn lrc_acquire_drains_a_read_copy() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 6, false);
    share(&p, 7, false);
    share(&p, 2, true);
    p.release_all(2, &mut recorder());
    pin((2_320, 0, 0x98c95e9511c039d8, 0x38951c89396fd43e), |t| {
        p.acquire_sync(6, t)
    });
}

#[test]
fn lrc_acquire_drains_a_write_copy() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 4, true);
    share(&p, 2, true);
    p.release_all(2, &mut recorder());
    // Re-pinned when the drain began noticing the writes it evicts
    // unreleased: processor 4 never released word 4, so the eviction
    // sends SSMP 1 an INV and a notice (one crossing, 1,430 cycles).
    pin((10_739, 3, 0xfe65f23a8424451a, 0x8525ba383338ffdf), |t| {
        p.acquire_sync(4, t)
    });
    assert_eq!(p.home_frame(PAGE).load(4), 5, "the evicted writer merged");
    assert_eq!(p.stats().lazy_notices.get(), 2, "SSMP 1 is noticed");
}

#[test]
fn write_through_release_with_a_reader_and_a_second_writer() {
    let p = proto_with(PagePolicy::WriteThrough);
    share(&p, 2, true);
    share(&p, 4, true);
    share(&p, 6, false);
    pin((16_207, 5, 0x01fb5467798f79ab, 0xca7f75d7238171c3), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3);
}

#[test]
fn write_through_release_by_a_home_ssmp_writer_falls_back_to_eager() {
    let p = proto_with(PagePolicy::WriteThrough);
    share(&p, 2, false);
    share(&p, 0, true);
    pin((7_030, 2, 0xddc0a13315d4afd9, 0xa480f37d0921b042), |t| {
        p.release_all(0, t)
    });
}

#[test]
fn pinned_release_without_a_stale_reader() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 2, true);
    pin((320, 0, 0x179e0ef8dfccb9fa, 0x0aa2f0fad3bdb67b), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 0, "nothing travels");
}

#[test]
fn pinned_release_with_a_stale_reader() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 6, false);
    share(&p, 2, true);
    pin((8_882, 4, 0xe7c994e1648cf5f8, 0xf618de4283f0a4cd), |t| {
        p.release_all(2, t)
    });
}

#[test]
fn fill_evicts_a_pinned_writer() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 6, false);
    share(&p, 2, true);
    pin((23_739, 6, 0xec41debd8852d031, 0x3b303ce6290a0483), |t| {
        p.fault(4, PAGE, false, t);
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3, "the eviction merged home");
}

#[test]
fn upgrade_on_a_noticed_stale_copy() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 6, false);
    share(&p, 2, true);
    p.release_all(2, &mut recorder());
    pin((14_751, 2, 0x750b254abe4ddc05, 0x2473dc9de239d550), |t| {
        let e = p.fault(6, PAGE, true, t);
        assert_eq!(e.frame.load(2), 3, "the refetched copy has the release");
    });
}

#[test]
fn upgrade_evicts_a_pinned_writer() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 6, false);
    share(&p, 2, true);
    pin((24_060, 4, 0xd8499ec10af80142, 0x32653d30404f83b7), |t| {
        let e = p.fault(6, PAGE, true, t);
        assert_eq!(e.frame.load(2), 3, "the refetched copy has the merge");
    });
}
