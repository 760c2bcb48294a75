//! Deterministic fault injection for the inter-SSMP LAN.
//!
//! The paper models the external network as a perfect fabric: every
//! message arrives, exactly once, after a fixed latency (§4.2.2). Real
//! commodity LANs drop, duplicate and delay messages, and a software
//! DSM layer that has never seen those behaviours cannot be trusted at
//! scale. A [`FaultPlan`] describes a *seeded, reproducible* unreliable
//! fabric: one drop probability, duplication probability and delay
//! jitter for every inter-SSMP transmission, each decided by a
//! [`XorShift64`](mgs_sim::XorShift64) stream derived purely from
//! `(seed, src, dst, kind, transmission index)`. Two runs with the same
//! plan and the same per-channel transmission order therefore inject
//! bit-identical faults.
//!
//! The plan is pure configuration (it is `Clone` and holds no mutable
//! state); the per-channel transmission counters live in the
//! [`LanModel`](crate::LanModel) the plan is attached to, so cloning a
//! plan into several machines gives each machine an independent but
//! identically-seeded fabric.

use crate::MsgKind;
use mgs_sim::{Cycles, XorShift64};

/// Fault probabilities and jitter bound for every transmission of a
/// plan.
///
/// `drop` and `duplicate` are probabilities; `jitter` is the *maximum*
/// extra delivery delay, drawn uniformly from `[0, jitter]` per
/// delivered message.
#[derive(Debug, Clone, Copy, Default)]
struct FaultSpec {
    /// Probability in `[0, 1)` that a transmission is lost in the
    /// fabric (strictly below 1: a link that loses everything can never
    /// deliver, so no retry bound would terminate).
    drop: f64,
    /// Probability in `[0, 1]` that the fabric delivers one extra copy
    /// of the message (e.g. a link-layer retransmission artifact).
    duplicate: f64,
    /// Maximum extra delivery delay; the actual jitter is uniform in
    /// `[0, jitter]` cycles.
    jitter: Cycles,
}

impl FaultSpec {
    /// `true` when this spec injects no faults at all.
    fn is_none(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.jitter == Cycles::ZERO
    }
}

/// What the (possibly unreliable) fabric decided to do with one
/// transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The message arrives, `jitter` cycles later than the fault-free
    /// fabric would deliver it, plus `duplicates` redundant extra
    /// copies.
    Deliver {
        /// Extra delivery delay beyond the fixed LAN latency.
        jitter: Cycles,
        /// Number of redundant copies delivered alongside the message.
        duplicates: u32,
    },
    /// The message is lost; the sender finds out by timeout.
    Drop,
}

/// A seeded description of an unreliable LAN fabric: one drop
/// probability, duplication probability and jitter bound for every
/// inter-SSMP link and message kind, and the seed its fault streams
/// derive from.
///
/// # Example
///
/// ```
/// use mgs_net::{Fate, FaultPlan, MsgKind};
/// use mgs_sim::Cycles;
///
/// // A perfect fabric decides nothing.
/// assert!(!FaultPlan::none().is_active());
///
/// // A 10%-loss fabric with up to 500 cycles of jitter.
/// let plan = FaultPlan::uniform(42, 0.10, 0.02, Cycles(500));
/// assert!(plan.is_active());
///
/// // Fates are a pure function of (seed, src, dst, kind, n): the same
/// // channel history yields the same faults, run after run.
/// let a = plan.fate(0, 1, MsgKind::RReq, 7);
/// let b = plan.fate(0, 1, MsgKind::RReq, 7);
/// assert_eq!(a, b);
/// match a {
///     Fate::Deliver { jitter, .. } => assert!(jitter <= Cycles(500)),
///     Fate::Drop => {}
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// The perfect fabric: no faults, zero decision overhead. This is
    /// the default plan of every machine; with it, delivery is
    /// bit-identical to the pre-fault-injection simulator.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Every inter-SSMP link faulting identically: each transmission is
    /// lost with probability `drop`, else delivered with one extra copy
    /// with probability `duplicate`, up to `jitter` cycles late.
    ///
    /// # Panics
    ///
    /// Panics if `drop` is not in `[0, 1)` or `duplicate` not in
    /// `[0, 1]`.
    pub fn uniform(seed: u64, drop: f64, duplicate: f64, jitter: Cycles) -> FaultPlan {
        assert!(
            (0.0..1.0).contains(&drop),
            "drop probability must be in [0, 1), got {drop}"
        );
        assert!(
            (0.0..=1.0).contains(&duplicate),
            "duplicate probability must be in [0, 1], got {duplicate}"
        );
        let spec = FaultSpec {
            drop,
            duplicate,
            jitter,
        };
        FaultPlan { seed, spec }
    }

    /// `true` when a transmission can be faulted. An inactive plan is
    /// skipped entirely by [`LanModel`](crate::LanModel): no counters,
    /// no RNG draws.
    pub fn is_active(&self) -> bool {
        !self.spec.is_none()
    }

    /// Decides the fate of the `n`-th transmission of `kind` from `src`
    /// to `dst`. Pure: the decision depends only on the plan and the
    /// arguments, so a caller that numbers transmissions per channel
    /// replays identical fault schedules for a given seed.
    pub fn fate(&self, src: usize, dst: usize, kind: MsgKind, n: u64) -> Fate {
        let spec = self.spec;
        if spec.is_none() {
            return Fate::Deliver {
                jitter: Cycles::ZERO,
                duplicates: 0,
            };
        }
        let mut rng = XorShift64::new(stream_seed(self.seed, src, dst, kind, n));
        if rng.next_f64() < spec.drop {
            return Fate::Drop;
        }
        let duplicates = u32::from(rng.next_f64() < spec.duplicate);
        let jitter = if spec.jitter == Cycles::ZERO {
            Cycles::ZERO
        } else {
            Cycles(rng.next_below(spec.jitter.raw() + 1))
        };
        Fate::Deliver { jitter, duplicates }
    }
}

/// Mixes the plan seed with the channel coordinates and transmission
/// index into one well-spread 64-bit stream seed.
fn stream_seed(seed: u64, src: usize, dst: usize, kind: MsgKind, n: u64) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut x = seed ^ K;
    for v in [src as u64, dst as u64, kind.index() as u64, n] {
        x = (x ^ v).wrapping_mul(K).rotate_left(27);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_always_delivers() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for n in 0..100 {
            assert_eq!(
                plan.fate(0, 1, MsgKind::RReq, n),
                Fate::Deliver {
                    jitter: Cycles::ZERO,
                    duplicates: 0
                }
            );
        }
    }

    #[test]
    fn fates_are_deterministic_per_seed() {
        let a = FaultPlan::uniform(7, 0.3, 0.2, Cycles(100));
        let b = FaultPlan::uniform(7, 0.3, 0.2, Cycles(100));
        for n in 0..500 {
            assert_eq!(
                a.fate(1, 2, MsgKind::Diff, n),
                b.fate(1, 2, MsgKind::Diff, n)
            );
        }
    }

    #[test]
    fn different_seeds_or_channels_diverge() {
        let a = FaultPlan::uniform(1, 0.5, 0.0, Cycles::ZERO);
        let b = FaultPlan::uniform(2, 0.5, 0.0, Cycles::ZERO);
        let same = (0..200)
            .filter(|&n| a.fate(0, 1, MsgKind::Inv, n) == b.fate(0, 1, MsgKind::Inv, n))
            .count();
        assert!(same < 200, "seeds must change the schedule");
        let cross = (0..200)
            .filter(|&n| a.fate(0, 1, MsgKind::Inv, n) == a.fate(1, 0, MsgKind::Inv, n))
            .count();
        assert!(cross < 200, "channels must have independent streams");
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let plan = FaultPlan::uniform(99, 0.25, 0.0, Cycles::ZERO);
        let drops = (0..4000)
            .filter(|&n| plan.fate(0, 1, MsgKind::RReq, n) == Fate::Drop)
            .count();
        // 4000 Bernoulli(0.25) trials: expect ~1000, allow wide slack.
        assert!((700..1300).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn jitter_is_bounded() {
        let plan = FaultPlan::uniform(3, 0.0, 0.0, Cycles(64));
        for n in 0..1000 {
            match plan.fate(2, 3, MsgKind::RDat, n) {
                Fate::Deliver { jitter, .. } => assert!(jitter <= Cycles(64)),
                Fate::Drop => panic!("drop rate is zero"),
            }
        }
    }

    /// A zero-fault plan is inactive whatever its seed, and any one
    /// nonzero knob makes a plan active.
    #[test]
    fn a_plan_is_active_iff_its_spec_faults() {
        assert!(!FaultPlan::uniform(9, 0.0, 0.0, Cycles::ZERO).is_active());
        assert!(FaultPlan::uniform(9, 0.1, 0.0, Cycles::ZERO).is_active());
        assert!(FaultPlan::uniform(9, 0.0, 1.0, Cycles::ZERO).is_active());
        assert!(FaultPlan::uniform(9, 0.0, 0.0, Cycles(1)).is_active());
    }

    /// A duplicate storm delivers every transmission once, with one
    /// extra copy and no delay.
    #[test]
    fn a_duplicate_storm_delivers_everything_twice() {
        let plan = FaultPlan::uniform(7, 0.0, 1.0, Cycles::ZERO);
        for n in 0..500 {
            assert_eq!(
                plan.fate(0, 1, MsgKind::Update, n),
                Fate::Deliver {
                    jitter: Cycles::ZERO,
                    duplicates: 1
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn full_loss_link_is_rejected() {
        FaultPlan::uniform(1, 1.0, 0.0, Cycles::ZERO);
    }
}
