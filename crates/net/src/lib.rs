//! Network models for the MGS reproduction.
//!
//! A DSSMP has two communication substrates (§2.1 of the paper):
//!
//! * an **internal network** connecting the processors of one SSMP — on
//!   Alewife, a 2-D mesh, which this crate does not model: Table 3's
//!   latency classes already average over mesh distance;
//! * an **external network** connecting the SSMPs — a commodity LAN,
//!   which the paper models as a fixed message latency added at the
//!   sender (§4.2.2). [`LanModel`] reproduces that methodology and adds
//!   optional per-interface occupancy so that a flood of messages
//!   through one SSMP's interface queues up.
//!
//! Message kinds ([`MsgKind`]) mirror Table 2 of the paper so that
//! traffic statistics ([`NetStats`]) can be reported per protocol
//! message type.
//!
//! Beyond the paper's perfect fabric, the crate provides **seeded
//! fault injection** ([`FaultPlan`]): message drop, duplication and
//! delay jitter, decided per (source, destination, kind) channel by
//! deterministic
//! [`XorShift64`](mgs_sim::XorShift64) streams so that a
//! faulty run replays bit-identically for a given seed. The
//! [`LanModel::transmit`] entry point filters every transmission
//! through the attached plan and reports the [`Delivery`] outcome; the
//! MGS protocol layer (`mgs-proto`) recovers from losses with
//! timeout/retry; a duplicate is only counted and reaches no handler.
//!
//! One fabric type prices every message: a [`TieredScenario`] behind
//! the `LanModel` describes per-link latency tiers (rack / datacenter /
//! WAN), interface contention, and a schedule of SSMP departures and
//! rejoins ([`ChurnEvent`]). [`LanModel::new`] installs
//! `TieredScenario::uniform(LinkTier::Lan, latency)`, the paper's
//! single-constant LAN. See `docs/SCENARIOS.md` for the contract and a
//! worked churn example.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod lan;
mod msg;
mod scenario;

pub use fault::{Fate, FaultPlan};
pub use lan::{Delivery, LanModel};
pub use msg::{MsgKind, NetStats};
pub use scenario::{ChurnEvent, LinkTier, TieredScenario};
