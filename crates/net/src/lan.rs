//! External (inter-SSMP) network: the LAN model of §4.2.2.

use crate::{Fate, FaultPlan, LinkTier, MsgKind, NetStats, TieredScenario};
use mgs_sim::{Cycles, Occupancy};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What the fabric did with one transmission (see
/// [`LanModel::transmit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrived at `arrival`, along with `duplicates`
    /// redundant extra copies (injected by the fault plan and only
    /// counted: the protocol hands a message to its handler once).
    Delivered {
        /// Simulated arrival time at the destination SSMP.
        arrival: Cycles,
        /// Redundant copies delivered alongside the message.
        duplicates: u32,
    },
    /// The message was lost in the fabric; the sender learns of the
    /// loss only by timeout.
    Dropped,
}

/// The external network connecting SSMPs.
///
/// Reproduces the paper's methodology (§4.2.2): every inter-SSMP message
/// is delayed by a fixed latency (default **1000 cycles**, the value
/// used for all application results). Every message is priced by one
/// [`TieredScenario`]: [`new`](LanModel::new) installs the paper's
/// uniform LAN, [`with_scenario`](LanModel::with_scenario) a tiered
/// one. The paper explicitly does *not* model contention in the LAN
/// fabric; we follow that, but a fabric may model occupancy at each
/// SSMP's network *interface* (serialization of outgoing messages),
/// which is off by default for fidelity to the paper.
///
/// Two send entry points exist:
///
/// * [`send`](LanModel::send) — the perfect fabric of the paper: every
///   message arrives, exactly once, after the fixed latency.
/// * [`transmit`](LanModel::transmit) — the same fabric filtered
///   through the attached [`FaultPlan`] (see
///   [`with_faults`](LanModel::with_faults)): messages may be dropped,
///   duplicated or jittered, reproducibly for a given plan seed. With
///   the default (inactive) plan, `transmit` is bit-identical to
///   `send`.
///
/// # Example
///
/// ```
/// use mgs_net::{LanModel, MsgKind};
/// use mgs_sim::Cycles;
///
/// let lan = LanModel::new(4, Cycles(1000));
/// let arrive = lan.send(0, 2, MsgKind::RReq, 0, Cycles(500));
/// assert_eq!(arrive, Cycles(1500));
/// assert_eq!(lan.stats().msgs(MsgKind::RReq), 1);
/// ```
#[derive(Debug)]
pub struct LanModel {
    n_ssmps: usize,
    /// The fabric consulted per message: the paper's uniform LAN unless
    /// [`with_scenario`](LanModel::with_scenario) installed another.
    scenario: Arc<TieredScenario>,
    /// Per-SSMP link state, flipped by churn: a down endpoint drops
    /// every transmission to or from it.
    down: Vec<AtomicBool>,
    interfaces: Option<Vec<Occupancy>>,
    iface_service: Cycles,
    faults: Option<FaultState>,
    stats: NetStats,
}

/// The instantiated fault plan: the (pure) plan plus one transmission
/// counter per `(src, dst, kind)` channel, so fate decisions replay
/// deterministically per channel.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    seq: Vec<AtomicU64>,
}

impl LanModel {
    /// Creates a LAN between `n_ssmps` SSMPs on the paper's fabric:
    /// `TieredScenario::uniform(LinkTier::Lan, latency)`, with no
    /// interface contention.
    ///
    /// `n_ssmps` sizes the per-endpoint state — link states, interface
    /// occupancies and fault-plan channel counters — and bounds the
    /// endpoints accepted by
    /// [`send`](LanModel::send)/[`transmit`](LanModel::transmit)
    /// (debug-asserted).
    pub fn new(n_ssmps: usize, latency: Cycles) -> LanModel {
        LanModel {
            n_ssmps,
            scenario: Arc::new(TieredScenario::uniform(LinkTier::Lan, latency)),
            down: (0..n_ssmps).map(|_| AtomicBool::new(false)).collect(),
            interfaces: None,
            iface_service: Cycles::ZERO,
            faults: None,
            stats: NetStats::new(),
        }
    }

    /// Installs the fabric: per-link tiers and latencies, optional
    /// interface contention (allocating the per-endpoint occupancies
    /// here) and a churn schedule. Replaces the uniform LAN installed
    /// by [`new`](LanModel::new).
    pub fn with_scenario(mut self, scenario: Arc<TieredScenario>) -> LanModel {
        if let Some(service) = scenario.iface_service() {
            self.interfaces = Some((0..self.n_ssmps).map(|_| Occupancy::new()).collect());
            self.iface_service = service;
        }
        self.scenario = scenario;
        self
    }

    /// Attaches a fault plan consulted by
    /// [`transmit`](LanModel::transmit). An inactive plan (e.g.
    /// [`FaultPlan::none`]) is discarded: the fast path stays
    /// decision-free.
    pub fn with_faults(mut self, plan: FaultPlan) -> LanModel {
        if plan.is_active() {
            let channels = self.n_ssmps * self.n_ssmps * MsgKind::ALL.len();
            self.faults = Some(FaultState {
                plan,
                seq: (0..channels).map(|_| AtomicU64::new(0)).collect(),
            });
        } else {
            self.faults = None;
        }
        self
    }

    /// The attached fault plan, if an active one was installed.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Number of SSMPs this LAN connects.
    pub fn n_ssmps(&self) -> usize {
        self.n_ssmps
    }

    /// The tier of the `src → dst` link (`LinkTier::Lan` for intra-SSMP
    /// messages, which never reach the fabric).
    pub fn tier(&self, src: usize, dst: usize) -> LinkTier {
        if src == dst {
            LinkTier::Lan
        } else {
            self.scenario.link(src, dst).0
        }
    }

    /// Flips SSMP `ssmp`'s link state (churn). While down, every
    /// [`transmit`](LanModel::transmit) to or from it is dropped.
    pub fn set_link_up(&self, ssmp: usize, up: bool) {
        self.down[ssmp].store(!up, Ordering::Release);
    }

    /// `true` while SSMP `ssmp`'s link is up.
    pub fn link_up(&self, ssmp: usize) -> bool {
        !self.down[ssmp].load(Ordering::Acquire)
    }

    /// Departure time of a message entering the fabric at `now`,
    /// accounting for interface occupancy when enabled.
    fn depart(&self, src: usize, now: Cycles) -> Cycles {
        match &self.interfaces {
            Some(ifaces) => ifaces[src].occupy(now, self.iface_service).1,
            None => now,
        }
    }

    /// Sends a message from SSMP `src` to SSMP `dst` at local time
    /// `now` over the *perfect* fabric; returns the simulated arrival
    /// time at `dst`. The attached fault plan is not consulted — use
    /// [`transmit`](LanModel::transmit) for that.
    ///
    /// Messages within one SSMP (`src == dst`) do not use the LAN and
    /// arrive immediately.
    pub fn send(
        &self,
        src: usize,
        dst: usize,
        kind: MsgKind,
        payload_bytes: u64,
        now: Cycles,
    ) -> Cycles {
        if src == dst {
            return now;
        }
        debug_assert!(src < self.n_ssmps, "src SSMP {src} out of range");
        debug_assert!(dst < self.n_ssmps, "dst SSMP {dst} out of range");
        self.stats.record(kind, payload_bytes);
        let (_, latency) = self.scenario.link(src, dst);
        self.depart(src, now) + latency
    }

    /// Sends a message through the fabric *including* the attached
    /// fault plan: the transmission may be dropped (the sender finds
    /// out by timeout), delivered with extra jitter delay, or delivered
    /// along with duplicate copies. Fault totals are recorded in
    /// [`NetStats`].
    ///
    /// With no active fault plan this is exactly [`send`](LanModel::send)
    /// — same arrival time, same statistics — so fault-free runs are
    /// bit-identical whichever entry point the runtime uses.
    ///
    /// # Example
    ///
    /// ```
    /// use mgs_net::{Delivery, FaultPlan, LanModel, MsgKind};
    /// use mgs_sim::Cycles;
    ///
    /// let lan = LanModel::new(2, Cycles(1000))
    ///     .with_faults(FaultPlan::uniform(7, 0.5, 0.0, Cycles::ZERO));
    /// let mut delivered = 0;
    /// for _ in 0..100 {
    ///     if let Delivery::Delivered { .. } = lan.transmit(0, 1, MsgKind::RReq, 0, Cycles(0)) {
    ///         delivered += 1;
    ///     }
    /// }
    /// // Roughly half the transmissions survive a 50%-loss link.
    /// assert!(delivered > 20 && delivered < 80);
    /// assert_eq!(lan.stats().dropped_total() + delivered, 100);
    /// ```
    pub fn transmit(
        &self,
        src: usize,
        dst: usize,
        kind: MsgKind,
        payload_bytes: u64,
        now: Cycles,
    ) -> Delivery {
        if src == dst {
            return Delivery::Delivered {
                arrival: now,
                duplicates: 0,
            };
        }
        debug_assert!(src < self.n_ssmps, "src SSMP {src} out of range");
        debug_assert!(dst < self.n_ssmps, "dst SSMP {dst} out of range");
        self.stats.record(kind, payload_bytes);
        // Churn drops happen before the fault-plan sequence fetch and
        // before interface occupancy, so an outage neither shifts the
        // deterministic per-channel fate streams nor holds the downed
        // interface busy.
        if !self.link_up(src) || !self.link_up(dst) {
            self.stats.record_drop();
            return Delivery::Dropped;
        }
        let (_, latency) = self.scenario.link(src, dst);
        let depart = self.depart(src, now);
        let fate = match &self.faults {
            None => Fate::Deliver {
                jitter: Cycles::ZERO,
                duplicates: 0,
            },
            Some(state) => {
                let chan = (src * self.n_ssmps + dst) * MsgKind::ALL.len() + kind.index();
                let n = state.seq[chan].fetch_add(1, Ordering::Relaxed);
                state.plan.fate(src, dst, kind, n)
            }
        };
        match fate {
            Fate::Drop => {
                self.stats.record_drop();
                Delivery::Dropped
            }
            Fate::Deliver { jitter, duplicates } => {
                for _ in 0..duplicates {
                    self.stats.record_duplicate();
                }
                if jitter > Cycles::ZERO {
                    self.stats.record_jitter(jitter.raw());
                }
                Delivery::Delivered {
                    arrival: depart + latency + jitter,
                    duplicates,
                }
            }
        }
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_added() {
        let lan = LanModel::new(2, Cycles(1000));
        assert_eq!(lan.send(0, 1, MsgKind::Inv, 0, Cycles(0)), Cycles(1000));
        assert_eq!(lan.send(1, 0, MsgKind::Ack, 0, Cycles(70)), Cycles(1070));
    }

    #[test]
    fn intra_ssmp_messages_bypass_lan() {
        let lan = LanModel::new(2, Cycles(1000));
        assert_eq!(lan.send(1, 1, MsgKind::PInv, 0, Cycles(5)), Cycles(5));
        assert_eq!(lan.stats().total_msgs(), 0);
    }

    #[test]
    fn interface_contention_queues_bursts() {
        let lan = LanModel::new(2, Cycles(1000)).with_scenario(Arc::new(
            TieredScenario::uniform(LinkTier::Lan, Cycles(1000))
                .with_interface_contention(Cycles(50)),
        ));
        let a = lan.send(0, 1, MsgKind::Inv, 0, Cycles(0));
        let b = lan.send(0, 1, MsgKind::Inv, 0, Cycles(0));
        assert_eq!(a, Cycles(1050));
        assert_eq!(b, Cycles(1100));
        // Different sender: independent interface.
        let c = lan.send(1, 0, MsgKind::Ack, 0, Cycles(0));
        assert_eq!(c, Cycles(1050));
    }

    #[test]
    fn stats_count_messages_sent_over_the_lan() {
        let lan = LanModel::new(3, Cycles(10));
        lan.send(0, 1, MsgKind::RReq, 0, Cycles(0));
        lan.send(0, 2, MsgKind::RDat, 1024, Cycles(0));
        assert_eq!(lan.stats().total_msgs(), 2);
        assert_eq!(lan.stats().bytes(MsgKind::RDat), 1024);
    }

    #[test]
    fn zero_latency_lan_for_microbenchmarks() {
        let lan = LanModel::new(2, Cycles::ZERO);
        assert_eq!(lan.send(0, 1, MsgKind::RReq, 0, Cycles(7)), Cycles(7));
    }

    #[test]
    fn transmit_without_plan_matches_send() {
        let mk = || LanModel::new(2, Cycles(1000));
        let (a, b) = (mk(), mk());
        for (n, bytes) in [(0u64, 0u64), (1, 8), (2, 1024)] {
            let sent = a.send(0, 1, MsgKind::RDat, bytes, Cycles(n * 10));
            match b.transmit(0, 1, MsgKind::RDat, bytes, Cycles(n * 10)) {
                Delivery::Delivered {
                    arrival,
                    duplicates,
                } => {
                    assert_eq!(arrival, sent);
                    assert_eq!(duplicates, 0);
                }
                Delivery::Dropped => panic!("perfect fabric never drops"),
            }
        }
        assert_eq!(a.stats().total_msgs(), b.stats().total_msgs());
        assert_eq!(a.stats().total_bytes(), b.stats().total_bytes());
        assert_eq!(b.stats().dropped_total(), 0);
        assert_eq!(b.stats().duplicated_total(), 0);
    }

    #[test]
    fn inactive_plan_is_discarded() {
        let lan = LanModel::new(2, Cycles(10)).with_faults(FaultPlan::none());
        assert!(lan.fault_plan().is_none());
    }

    #[test]
    fn transmissions_replay_identically_for_a_seed() {
        let mk = || {
            LanModel::new(4, Cycles(1000)).with_faults(FaultPlan::uniform(
                42,
                0.2,
                0.1,
                Cycles(300),
            ))
        };
        let a = mk();
        let b = mk();
        for n in 0..400u64 {
            let src = (n % 3) as usize;
            let x = a.transmit(src, 3, MsgKind::WReq, 0, Cycles(n));
            let y = b.transmit(src, 3, MsgKind::WReq, 0, Cycles(n));
            assert_eq!(x, y, "transmission {n}");
        }
        assert_eq!(a.stats().dropped_total(), b.stats().dropped_total());
        assert_eq!(a.stats().duplicated_total(), b.stats().duplicated_total());
        assert_eq!(a.stats().jitter_cycles(), b.stats().jitter_cycles());
        assert!(a.stats().dropped_total() > 0, "20% loss over 400 sends");
    }

    #[test]
    fn duplicates_and_jitter_are_recorded() {
        let lan =
            LanModel::new(2, Cycles(100)).with_faults(FaultPlan::uniform(5, 0.0, 0.5, Cycles(50)));
        let mut dup_seen = 0;
        for n in 0..200u64 {
            match lan.transmit(0, 1, MsgKind::Diff, 8, Cycles(n)) {
                Delivery::Delivered {
                    arrival,
                    duplicates,
                } => {
                    assert!(arrival >= Cycles(n) + Cycles(100));
                    assert!(arrival <= Cycles(n) + Cycles(150));
                    dup_seen += duplicates as u64;
                }
                Delivery::Dropped => panic!("drop rate is zero"),
            }
        }
        assert_eq!(lan.stats().duplicated_total(), dup_seen);
        assert!(dup_seen > 0, "50% duplication over 200 sends");
    }

    #[test]
    fn scenario_links_price_each_pair() {
        // 4 SSMPs: racks of 2, one rack per datacenter → rack / wan.
        let lan = LanModel::new(4, Cycles(1000)).with_scenario(Arc::new(TieredScenario::new(2, 1)));
        let near = lan.send(0, 1, MsgKind::RReq, 0, Cycles(0));
        let far = lan.send(0, 2, MsgKind::RReq, 0, Cycles(0));
        assert_eq!(near, TieredScenario::RACK_LATENCY);
        assert_eq!(far, TieredScenario::WAN_LATENCY);
        assert_eq!(lan.tier(0, 1), LinkTier::Rack);
        assert_eq!(lan.tier(0, 2), LinkTier::Wan);
        assert_eq!(lan.tier(1, 1), LinkTier::Lan);
    }

    #[test]
    fn down_links_drop_in_both_directions() {
        let lan = LanModel::new(3, Cycles(1000));
        assert!(lan.link_up(1));
        lan.set_link_up(1, false);
        assert_eq!(
            lan.transmit(0, 1, MsgKind::RReq, 0, Cycles(0)),
            Delivery::Dropped
        );
        assert_eq!(
            lan.transmit(1, 0, MsgKind::Ack, 0, Cycles(0)),
            Delivery::Dropped
        );
        // Third parties are unaffected.
        assert!(matches!(
            lan.transmit(0, 2, MsgKind::RReq, 0, Cycles(0)),
            Delivery::Delivered { .. }
        ));
        lan.set_link_up(1, true);
        assert!(matches!(
            lan.transmit(0, 1, MsgKind::RReq, 0, Cycles(0)),
            Delivery::Delivered { .. }
        ));
        assert_eq!(lan.stats().dropped_total(), 2);
    }

    #[test]
    fn intra_ssmp_transmit_bypasses_faults() {
        let lan = LanModel::new(2, Cycles(1000)).with_faults(FaultPlan::uniform(
            1,
            0.99,
            0.0,
            Cycles::ZERO,
        ));
        for n in 0..50u64 {
            assert_eq!(
                lan.transmit(1, 1, MsgKind::PInv, 0, Cycles(n)),
                Delivery::Delivered {
                    arrival: Cycles(n),
                    duplicates: 0
                }
            );
        }
        assert_eq!(lan.stats().dropped_total(), 0);
    }
}
