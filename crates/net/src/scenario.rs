//! The scenario engine: pluggable descriptions of the external fabric.
//!
//! The paper models the external network as one constant: a 1000-cycle
//! one-way message latency (§4.2.2). That is [`FixedScenario`], and it
//! stays the default. A [`Scenario`] generalizes the description of the
//! fabric that [`LanModel`](crate::LanModel) consults per message:
//!
//! * **Latency tiers** — every directed `(src, dst)` SSMP pair is
//!   assigned a [`LinkTier`] (rack / datacenter / WAN) with its own
//!   latency and per-byte cost, and individual links can be overridden
//!   asymmetrically ([`TieredScenario`]).
//! * **Interface contention** — a per-endpoint service time serializes
//!   outgoing messages at the sending SSMP's LAN interface, charged in
//!   simulated cycles (the [`Occupancy`](mgs_sim::Occupancy) state
//!   lives in the `LanModel`; the scenario only declares the cost).
//! * **Churn** — a schedule of [`ChurnEvent`]s: SSMPs that depart and
//!   rejoin mid-run. The scenario declares *when*; the runtime applies
//!   the departure protocol (drain, re-home, disconnect) and flips the
//!   link state on the `LanModel`.
//!
//! Determinism contract: a scenario is a **pure function** of its
//! construction parameters — `link` must return the same cost for the
//! same `(src, dst)` forever, and every cost is expressed in simulated
//! cycles, never host time. Randomness, if any, must be seeded at
//! construction. See `docs/SCENARIOS.md` for the full rules.

use mgs_sim::Cycles;
use std::collections::HashMap;
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

/// The cost description of one directed inter-SSMP link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Distance class (drives the per-tier latency histograms).
    pub tier: LinkTier,
    /// One-way message latency.
    pub latency: Cycles,
    /// Additional wire cost per payload byte.
    pub per_byte: Cycles,
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

/// A pluggable description of the external fabric.
///
/// Implementations must be pure (see the module docs): `link` is a
/// function of `(src, dst)` only, `iface_service` and `churn` are
/// fixed at construction. All costs are simulated cycles.
pub trait Scenario: Send + Sync + fmt::Debug {
    /// Short identifier used in reports and bench output.
    fn name(&self) -> &str;

    /// The directed link `src → dst` (`src != dst`; intra-SSMP messages
    /// never reach the scenario).
    fn link(&self, src: usize, dst: usize) -> Link;

    /// Per-message service time at each sending SSMP's LAN interface;
    /// `None` disables interface contention (the paper's model).
    fn iface_service(&self) -> Option<Cycles> {
        None
    }

    /// The churn schedule (empty by default: no SSMP ever departs).
    fn churn(&self) -> &[ChurnEvent] {
        &[]
    }
}

/// The trivial scenario: the paper's fixed-latency uniform LAN
/// (§4.2.2). Bit-identical to the pre-scenario `LanModel` arithmetic —
/// `tests/scenario_equivalence.rs` gates this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedScenario {
    latency: Cycles,
    per_byte: Cycles,
}

impl FixedScenario {
    /// A uniform fabric with the given one-way latency and no per-byte
    /// cost.
    pub fn new(latency: Cycles) -> FixedScenario {
        FixedScenario {
            latency,
            per_byte: Cycles::ZERO,
        }
    }

    /// Adds a per-payload-byte wire cost.
    pub fn with_per_byte(mut self, per_byte: Cycles) -> FixedScenario {
        self.per_byte = per_byte;
        self
    }

    /// The fixed one-way latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }
}

impl Scenario for FixedScenario {
    fn name(&self) -> &str {
        "fixed"
    }

    fn link(&self, _src: usize, _dst: usize) -> Link {
        Link {
            tier: LinkTier::Lan,
            latency: self.latency,
            per_byte: self.per_byte,
        }
    }
}

/// A hierarchical latency-tiered fabric with optional asymmetric link
/// overrides, interface contention and SSMP churn.
///
/// SSMPs are grouped bottom-up: `rack_size` consecutive SSMPs share a
/// rack, `racks_per_dc` consecutive racks share a datacenter. The tier
/// of `src → dst` follows from the deepest shared level; per-link
/// overrides take precedence and may differ by direction (asymmetric
/// routes).
///
/// # Example
///
/// ```
/// use mgs_net::{LinkTier, Scenario, TieredScenario};
/// use mgs_sim::Cycles;
///
/// // 8 SSMPs: racks of 2, datacenters of 2 racks.
/// let s = TieredScenario::new(2, 2);
/// assert_eq!(s.link(0, 1).tier, LinkTier::Rack);
/// assert_eq!(s.link(0, 2).tier, LinkTier::Datacenter);
/// assert_eq!(s.link(0, 4).tier, LinkTier::Wan);
/// assert!(s.link(0, 4).latency > s.link(0, 1).latency);
/// ```
#[derive(Debug, Clone)]
pub struct TieredScenario {
    rack_size: usize,
    racks_per_dc: usize,
    /// Per-tier `(latency, per_byte)`, indexed by `LinkTier::index`.
    costs: [(Cycles, Cycles); LinkTier::COUNT],
    overrides: HashMap<(usize, usize), Link>,
    /// When set, every inter-SSMP link reports this tier (the
    /// [`TieredScenario::uniform`] sweep mode).
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
    /// latencies and no per-byte cost.
    ///
    /// # Panics
    ///
    /// Panics if either grouping factor is zero.
    pub fn new(rack_size: usize, racks_per_dc: usize) -> TieredScenario {
        assert!(
            rack_size > 0 && racks_per_dc > 0,
            "grouping factors must be nonzero"
        );
        let mut costs = [(Cycles::ZERO, Cycles::ZERO); LinkTier::COUNT];
        costs[LinkTier::Lan.index()] = (Self::DATACENTER_LATENCY, Cycles::ZERO);
        costs[LinkTier::Rack.index()] = (Self::RACK_LATENCY, Cycles::ZERO);
        costs[LinkTier::Datacenter.index()] = (Self::DATACENTER_LATENCY, Cycles::ZERO);
        costs[LinkTier::Wan.index()] = (Self::WAN_LATENCY, Cycles::ZERO);
        TieredScenario {
            rack_size,
            racks_per_dc,
            costs,
            overrides: HashMap::new(),
            uniform_tier: None,
            iface_service: None,
            churn: Vec::new(),
        }
    }

    /// A degenerate single-tier fabric: every inter-SSMP link carries
    /// `tier` at `latency` (useful for sweeping the breakup penalty as
    /// a function of tier latency, every link equal).
    pub fn uniform(tier: LinkTier, latency: Cycles) -> TieredScenario {
        let mut s = TieredScenario::new(usize::MAX, 1);
        // With rack_size = MAX every pair shares a rack; route the rack
        // tier to the requested class and cost.
        s.costs[LinkTier::Rack.index()] = (latency, Cycles::ZERO);
        s.uniform_tier = Some(tier);
        s
    }

    /// Overrides one *directed* link (asymmetric routes: override
    /// `(a, b)` without touching `(b, a)`).
    pub fn with_link(mut self, src: usize, dst: usize, link: Link) -> TieredScenario {
        self.overrides.insert((src, dst), link);
        self
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

    /// The tier of `src → dst` from the rack/datacenter grouping
    /// (ignoring per-link overrides).
    pub fn tier_of(&self, src: usize, dst: usize) -> LinkTier {
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
}

impl Scenario for TieredScenario {
    fn name(&self) -> &str {
        "tiered"
    }

    fn link(&self, src: usize, dst: usize) -> Link {
        if let Some(l) = self.overrides.get(&(src, dst)) {
            return *l;
        }
        let tier = self.tier_of(src, dst);
        let (latency, per_byte) = self.costs[if self.uniform_tier.is_some() {
            LinkTier::Rack.index()
        } else {
            tier.index()
        }];
        Link {
            tier,
            latency,
            per_byte,
        }
    }

    fn iface_service(&self) -> Option<Cycles> {
        self.iface_service
    }

    fn churn(&self) -> &[ChurnEvent] {
        &self.churn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_scenario_is_uniform() {
        let s = FixedScenario::new(Cycles(1000)).with_per_byte(Cycles(2));
        for (a, b) in [(0, 1), (3, 0), (7, 2)] {
            let l = s.link(a, b);
            assert_eq!(l.tier, LinkTier::Lan);
            assert_eq!(l.latency, Cycles(1000));
            assert_eq!(l.per_byte, Cycles(2));
        }
        assert!(s.iface_service().is_none());
        assert!(s.churn().is_empty());
    }

    #[test]
    fn tiers_follow_the_grouping() {
        let s = TieredScenario::new(2, 2);
        assert_eq!(s.link(0, 1).tier, LinkTier::Rack);
        assert_eq!(s.link(2, 3).tier, LinkTier::Rack);
        assert_eq!(s.link(1, 2).tier, LinkTier::Datacenter);
        assert_eq!(s.link(3, 4).tier, LinkTier::Wan);
        assert_eq!(s.link(7, 0).tier, LinkTier::Wan);
        assert!(s.link(3, 4).latency > s.link(1, 2).latency);
        assert!(s.link(1, 2).latency > s.link(0, 1).latency);
    }

    #[test]
    fn asymmetric_override_is_directional() {
        let slow = Link {
            tier: LinkTier::Wan,
            latency: Cycles(50_000),
            per_byte: Cycles(4),
        };
        let s = TieredScenario::new(2, 2).with_link(0, 1, slow);
        assert_eq!(s.link(0, 1), slow);
        // The reverse direction keeps its rack-tier cost.
        assert_eq!(s.link(1, 0).tier, LinkTier::Rack);
        assert_eq!(s.link(1, 0).latency, TieredScenario::RACK_LATENCY);
    }

    #[test]
    fn uniform_fabric_pins_every_link() {
        let s = TieredScenario::uniform(LinkTier::Wan, Cycles(8_000));
        for (a, b) in [(0, 1), (5, 2), (9, 0)] {
            let l = s.link(a, b);
            assert_eq!(l.tier, LinkTier::Wan);
            assert_eq!(l.latency, Cycles(8_000));
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
