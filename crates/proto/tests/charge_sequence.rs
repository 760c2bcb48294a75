//! Charge-sequence pins: one per flush discipline and drop site.
//!
//! The end-to-end goldens (`tests/strategy_equivalence.rs`) see a cycle
//! count move; these say *which arc* moved it. Each scenario drives one
//! protocol operation through a [`RecordingTiming`] and pins its serial
//! elapsed time, its inter-SSMP crossings, and a fixed hash of the
//! `Debug` rendering of every timing charge, in order — plus, hashed
//! separately, the structured events it emitted. (Separately, because
//! an event charges nothing: only its order among events is contract,
//! not where it falls between two charges.)
//!
//! The values were captured from commit `0aaddea`, the tree
//! immediately before the protocol's release, invalidate and drop arcs
//! became shared steps. Do not regenerate casually: they are that
//! refactor's bit-identity contract under the non-eager protocols,
//! which the benchmark never runs.

use mgs_net::MsgKind;
use mgs_obs::ObsEvent;
use mgs_proto::{
    MgsProtocol, PagePolicy, PolicyDecision, ProtoConfig, ProtoTiming, ProtocolKind,
    RecordingTiming,
};
use mgs_sim::{CostModel, Cycles};

/// Page 0 is homed at processor 0 (SSMP 0). Two processors per SSMP:
/// processors 2–3 are SSMP 1, 4–5 SSMP 2, 6–7 SSMP 3.
const PAGE: u64 = 0;

/// A [`RecordingTiming`] that also keeps the structured events.
struct Probe {
    inner: RecordingTiming,
    observed: Vec<ObsEvent>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            inner: RecordingTiming::new(CostModel::alewife(), Cycles(1000)),
            observed: Vec::new(),
        }
    }
}

impl ProtoTiming for Probe {
    fn now(&self) -> Cycles {
        self.inner.now()
    }
    fn local(&mut self, cycles: Cycles) {
        self.inner.local(cycles);
    }
    fn message(&mut self, from: usize, to: usize, kind: MsgKind, payload_bytes: u64) {
        self.inner.message(from, to, kind, payload_bytes);
    }
    fn node_work(&mut self, node: usize, cycles: Cycles) {
        self.inner.node_work(node, cycles);
    }
    fn wait_until(&mut self, instant: Cycles) {
        self.inner.wait_until(instant);
    }
    fn observe(&mut self, event: ObsEvent) {
        self.observed.push(event);
    }
    fn observing(&self) -> bool {
        true
    }
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
    p.controller().expect("adaptive").install(PolicyDecision {
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
    let e = p.fault(proc, PAGE, write, &mut Probe::new());
    if write {
        e.frame.store(proc as u64, proc as u64 + 1);
    }
}

/// Runs `op` against a fresh probe and compares what it charged and
/// emitted with `want`: `(elapsed, crossings, hash of the charges, hash
/// of the events)`.
fn pin(want: (u64, usize, u64, u64), op: impl FnOnce(&mut Probe)) {
    let mut t = Probe::new();
    op(&mut t);
    let got = (
        t.inner.elapsed().raw(),
        t.inner.crossings(),
        fnv1a(&format!("{:?}", t.inner.events())),
        fnv1a(&format!("{:?}", t.observed)),
    );
    let (charges, events) = (t.inner.events(), &t.observed);
    assert_eq!(got, want, "{got:#x?}\n{charges:#?}\n{events:#?}");
}

#[test]
fn eager_multi_writer_release() {
    let p = proto(ProtocolKind::Eager);
    share(&p, 2, true);
    share(&p, 3, true); // a second mapping in the releaser's SSMP
    share(&p, 4, true);
    share(&p, 6, false);
    pin((29_647, 8, 0x4058362eeaa9fdef, 0x9b16b7c196a68f82), |t| {
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
    pin((20_582, 6, 0x8ab4257079a066a9, 0xc3a07568f62130ff), |t| {
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
    pin((16_153, 5, 0x2a4b94875e358b47, 0x28e0672659a3edd9), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3);
}

#[test]
fn lrc_release_by_a_home_ssmp_writer() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 2, false);
    share(&p, 0, true);
    pin((2_464, 1, 0x7f646a9aa587c93b, 0xaea88ad7934e3250), |t| {
        p.release_all(0, t)
    });
}

#[test]
fn lrc_acquire_drains_a_read_copy() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 6, false);
    share(&p, 7, false);
    share(&p, 2, true);
    p.release_all(2, &mut Probe::new());
    pin((2_320, 0, 0xe98d15547aa7ec96, 0x38951c89396fd43e), |t| {
        p.acquire_sync(6, t)
    });
}

#[test]
fn lrc_acquire_drains_a_write_copy() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 4, true);
    share(&p, 2, true);
    p.release_all(2, &mut Probe::new());
    pin((9_309, 2, 0xa1da7381f6abce13, 0xa1ed15f56c0a2188), |t| {
        p.acquire_sync(4, t)
    });
    assert_eq!(p.home_frame(PAGE).load(4), 5, "the evicted writer merged");
}

#[test]
fn write_through_release_with_a_reader_and_a_second_writer() {
    let p = proto_with(PagePolicy::WriteThrough);
    share(&p, 2, true);
    share(&p, 4, true);
    share(&p, 6, false);
    pin((16_207, 5, 0xdf7b2e5fac3bea9b, 0xca7f75d7238171c3), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3);
}

#[test]
fn write_through_release_by_a_home_ssmp_writer_falls_back_to_eager() {
    let p = proto_with(PagePolicy::WriteThrough);
    share(&p, 2, false);
    share(&p, 0, true);
    pin((7_030, 2, 0xc655a0fd71b3d16e, 0xa480f37d0921b042), |t| {
        p.release_all(0, t)
    });
}

#[test]
fn pinned_release_without_a_stale_reader() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 2, true);
    pin((320, 0, 0x2245c5a41478a4bc, 0x0aa2f0fad3bdb67b), |t| {
        p.release_all(2, t)
    });
    assert_eq!(p.home_frame(PAGE).load(2), 0, "nothing travels");
}

#[test]
fn pinned_release_with_a_stale_reader() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 6, false);
    share(&p, 2, true);
    pin((8_882, 4, 0xc36dc20806abd334, 0xf618de4283f0a4cd), |t| {
        p.release_all(2, t)
    });
}

#[test]
fn fill_evicts_a_pinned_writer() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 6, false);
    share(&p, 2, true);
    pin((23_739, 6, 0x25bbe2b3c95add99, 0x3b303ce6290a0483), |t| {
        p.fault(4, PAGE, false, t);
    });
    assert_eq!(p.home_frame(PAGE).load(2), 3, "the eviction merged home");
}

#[test]
fn upgrade_on_a_noticed_stale_copy() {
    let p = proto(ProtocolKind::HomeLrc);
    share(&p, 6, false);
    share(&p, 2, true);
    p.release_all(2, &mut Probe::new());
    pin((14_751, 2, 0x1b142c4e07226a4d, 0x2473dc9de239d550), |t| {
        let e = p.fault(6, PAGE, true, t);
        assert_eq!(e.frame.load(2), 3, "the refetched copy has the release");
    });
}

#[test]
fn upgrade_evicts_a_pinned_writer() {
    let p = proto_with(PagePolicy::SingleWriterPin);
    share(&p, 6, false);
    share(&p, 2, true);
    pin((24_060, 4, 0x18ac985e239da137, 0x32653d30404f83b7), |t| {
        let e = p.fault(6, PAGE, true, t);
        assert_eq!(e.frame.load(2), 3, "the refetched copy has the merge");
    });
}
