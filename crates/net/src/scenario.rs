//! The external fabric: one [`TieredScenario`] describes the network
//! that [`LanModel`](crate::LanModel) consults per message.
//!
//! The paper models the external network as one constant: a 1000-cycle
//! one-way message latency (§4.2.2). That is
//! `TieredScenario::uniform(LinkTier::Lan, Cycles(1000))`, which
//! `LanModel::new` installs. Beyond it the fabric describes:
//!
//! * **Latency tiers** — every directed `(src, dst)` SSMP pair is
//!   assigned a [`LinkTier`] (rack / datacenter / WAN) with its own
//!   latency, from a rack/datacenter grouping of the SSMPs.
//! * **Interface contention** — a per-endpoint service time serializes
//!   outgoing messages at the sending SSMP's LAN interface, charged in
//!   simulated cycles (the [`Occupancy`](mgs_sim::Occupancy) state
//!   lives in the `LanModel`; the fabric only declares the cost).
//! * **Churn** — a schedule of [`ChurnEvent`]s: SSMPs that depart and
//!   rejoin mid-run. The fabric declares *when*; the runtime applies
//!   the departure protocol (drain, re-home, disconnect) and flips the
//!   link state on the `LanModel`.
//!
//! Determinism contract: a fabric is a **pure function** of its
//! construction parameters — `link` returns the same cost for the same
//! `(src, dst)` forever, and every cost is expressed in simulated
//! cycles, never host time. See `docs/SCENARIOS.md` for the full rules.

use mgs_sim::Cycles;
use std::fmt;

/// Hierarchical distance class of a directed inter-SSMP link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTier {
    /// The paper's uniform commodity LAN (the single-tier baseline).
    Lan,
    /// Same rack: one switch hop.
    Rack,
    /// Same datacenter, different racks.
    Datacenter,
    /// Cross-datacenter (wide-area) link.
    Wan,
}

impl LinkTier {
    /// Every tier, in display order.
    pub const ALL: [LinkTier; 4] = [
        LinkTier::Lan,
        LinkTier::Rack,
        LinkTier::Datacenter,
        LinkTier::Wan,
    ];

    /// Number of tiers.
    pub const COUNT: usize = LinkTier::ALL.len();

    /// Dense index of this tier (its position in [`LinkTier::ALL`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            LinkTier::Lan => "lan",
            LinkTier::Rack => "rack",
            LinkTier::Datacenter => "datacenter",
            LinkTier::Wan => "wan",
        }
    }
}

impl fmt::Display for LinkTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled departure/rejoin of an SSMP.
///
/// At `depart` (simulated time) the SSMP is drained — its page copies
/// are invalidated back to their homes and pages homed there are
/// re-homed to a survivor — and then its link goes down: every
/// transmission to or from it is dropped, and senders ride the retry
/// transport. At `rejoin` the link comes back up and the directory
/// state is verified/reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The SSMP that departs.
    pub ssmp: usize,
    /// Simulated time of the departure.
    pub depart: Cycles,
    /// Simulated time of the rejoin. Must exceed `depart`. Outages
    /// longer than the transport's total retry budget wedge the
    /// transactions caught in them (they abort with
    /// `RetriesExhausted`); keep the window shorter for graceful
    /// degradation.
    pub rejoin: Cycles,
}

/// The external fabric: a hierarchical latency-tiered network with
/// optional interface contention and SSMP churn.
///
/// SSMPs are grouped bottom-up: `rack_size` consecutive SSMPs share a
/// rack, `racks_per_dc` consecutive racks share a datacenter. The tier
/// of `src → dst` follows from the deepest shared level.
/// [`uniform`](TieredScenario::uniform) pins every link to one tier
/// instead; the paper's LAN is `uniform(LinkTier::Lan, latency)`.
///
/// # Example
///
/// ```
/// use mgs_net::{LinkTier, TieredScenario};
///
/// // 8 SSMPs: racks of 2, datacenters of 2 racks.
/// let s = TieredScenario::new(2, 2);
/// assert_eq!(s.link(0, 1).0, LinkTier::Rack);
/// assert_eq!(s.link(0, 2).0, LinkTier::Datacenter);
/// assert_eq!(s.link(0, 4).0, LinkTier::Wan);
/// assert!(s.link(0, 4).1 > s.link(0, 1).1);
/// ```
#[derive(Debug, Clone)]
pub struct TieredScenario {
    rack_size: usize,
    racks_per_dc: usize,
    /// Per-tier one-way latency, indexed by `LinkTier::index`.
    latency: [Cycles; LinkTier::COUNT],
    /// When set, every inter-SSMP link reports this tier (the
    /// [`TieredScenario::uniform`] fabric).
    uniform_tier: Option<LinkTier>,
    iface_service: Option<Cycles>,
    churn: Vec<ChurnEvent>,
}

impl TieredScenario {
    /// Default rack-tier latency (a top-of-rack switch hop).
    pub const RACK_LATENCY: Cycles = Cycles(200);
    /// Default datacenter-tier latency (the paper's LAN constant).
    pub const DATACENTER_LATENCY: Cycles = Cycles(1000);
    /// Default WAN-tier latency.
    pub const WAN_LATENCY: Cycles = Cycles(10_000);

    /// Creates a tiered fabric: racks of `rack_size` SSMPs,
    /// datacenters of `racks_per_dc` racks, with the default per-tier
    /// latencies.
    ///
    /// # Panics
    ///
    /// Panics if either grouping factor is zero.
    pub fn new(rack_size: usize, racks_per_dc: usize) -> TieredScenario {
        assert!(
            rack_size > 0 && racks_per_dc > 0,
            "grouping factors must be nonzero"
        );
        let mut latency = [Cycles::ZERO; LinkTier::COUNT];
        latency[LinkTier::Lan.index()] = Self::DATACENTER_LATENCY;
        latency[LinkTier::Rack.index()] = Self::RACK_LATENCY;
        latency[LinkTier::Datacenter.index()] = Self::DATACENTER_LATENCY;
        latency[LinkTier::Wan.index()] = Self::WAN_LATENCY;
        TieredScenario {
            rack_size,
            racks_per_dc,
            latency,
            uniform_tier: None,
            iface_service: None,
            churn: Vec::new(),
        }
    }

    /// A single-tier fabric: every inter-SSMP link carries `tier` at
    /// `latency`. `uniform(LinkTier::Lan, latency)` is the paper's LAN
    /// (what [`LanModel::new`](crate::LanModel::new) installs); the
    /// other tiers sweep the breakup penalty against link latency.
    pub fn uniform(tier: LinkTier, latency: Cycles) -> TieredScenario {
        let mut s = TieredScenario::new(1, 1);
        s.latency[tier.index()] = latency;
        s.uniform_tier = Some(tier);
        s
    }

    /// Enables interface contention: each outgoing message holds the
    /// sender's interface for `service` cycles, so bursts queue.
    pub fn with_interface_contention(mut self, service: Cycles) -> TieredScenario {
        self.iface_service = Some(service);
        self
    }

    /// Appends a churn event to the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `rejoin <= depart`.
    pub fn with_churn(mut self, ev: ChurnEvent) -> TieredScenario {
        assert!(ev.rejoin > ev.depart, "rejoin must follow departure");
        self.churn.push(ev);
        self
    }

    /// The tier of `src → dst` from the rack/datacenter grouping.
    fn tier_of(&self, src: usize, dst: usize) -> LinkTier {
        if let Some(t) = self.uniform_tier {
            return t;
        }
        if src / self.rack_size == dst / self.rack_size {
            LinkTier::Rack
        } else if src / (self.rack_size * self.racks_per_dc)
            == dst / (self.rack_size * self.racks_per_dc)
        {
            LinkTier::Datacenter
        } else {
            LinkTier::Wan
        }
    }

    /// The tier and one-way latency of the directed link `src → dst`
    /// (`src != dst`; intra-SSMP messages never reach the fabric).
    pub fn link(&self, src: usize, dst: usize) -> (LinkTier, Cycles) {
        let tier = self.tier_of(src, dst);
        (tier, self.latency[tier.index()])
    }

    /// Per-message service time at each sending SSMP's LAN interface;
    /// `None` disables interface contention (the paper's model).
    pub fn iface_service(&self) -> Option<Cycles> {
        self.iface_service
    }

    /// The churn schedule (empty unless
    /// [`with_churn`](TieredScenario::with_churn) added events).
    pub fn churn(&self) -> &[ChurnEvent] {
        &self.churn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_lan_is_the_papers_fabric() {
        let s = TieredScenario::uniform(LinkTier::Lan, Cycles(1000));
        for (a, b) in [(0, 1), (3, 0), (7, 2)] {
            assert_eq!(s.link(a, b), (LinkTier::Lan, Cycles(1000)));
        }
        assert!(s.iface_service().is_none());
        assert!(s.churn().is_empty());
    }

    #[test]
    fn tiers_follow_the_grouping() {
        let s = TieredScenario::new(2, 2);
        assert_eq!(s.link(0, 1).0, LinkTier::Rack);
        assert_eq!(s.link(2, 3).0, LinkTier::Rack);
        assert_eq!(s.link(1, 2).0, LinkTier::Datacenter);
        assert_eq!(s.link(3, 4).0, LinkTier::Wan);
        assert_eq!(s.link(7, 0).0, LinkTier::Wan);
        assert!(s.link(3, 4).1 > s.link(1, 2).1);
        assert!(s.link(1, 2).1 > s.link(0, 1).1);
    }

    #[test]
    fn uniform_fabric_pins_every_link() {
        let s = TieredScenario::uniform(LinkTier::Wan, Cycles(8_000));
        for (a, b) in [(0, 1), (5, 2), (9, 0)] {
            assert_eq!(s.link(a, b), (LinkTier::Wan, Cycles(8_000)));
        }
    }

    #[test]
    fn churn_schedule_round_trips() {
        let ev = ChurnEvent {
            ssmp: 1,
            depart: Cycles(10_000),
            rejoin: Cycles(60_000),
        };
        let s = TieredScenario::new(2, 2).with_churn(ev);
        assert_eq!(s.churn(), &[ev]);
    }

    #[test]
    #[should_panic(expected = "rejoin must follow")]
    fn churn_rejects_inverted_windows() {
        let _ = TieredScenario::new(1, 1).with_churn(ChurnEvent {
            ssmp: 0,
            depart: Cycles(100),
            rejoin: Cycles(100),
        });
    }

    #[test]
    fn tier_indices_are_dense() {
        for (i, t) in LinkTier::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }
}
