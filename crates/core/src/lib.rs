//! The MGS machine: public API of the DSSMP simulator.
//!
//! This crate assembles every substrate — software virtual memory
//! (`mgs-vm`), intra-SSMP hardware coherence (`mgs-cache`), the MGS
//! protocol (`mgs-proto`), hierarchical synchronization (`mgs-sync`),
//! and the network models (`mgs-net`) — into a runnable machine:
//!
//! * [`DssmpConfig`] — machine shape: total processors `P`, cluster
//!   size `C`, page size, external network latency, cost model.
//! * [`Machine`] — the DSSMP. Allocate shared arrays and locks, then
//!   [`run`](Machine::run) a closure on every simulated processor.
//! * [`Env`] — the per-processor view: typed shared-memory access,
//!   locks, barriers, explicit compute charging, and a deterministic
//!   RNG. Every shared access is translated, run through the cache and
//!   protocol models, and charged to the processor's simulated clock.
//! * [`RunReport`] — execution time and the User/Lock/Barrier/MGS
//!   breakdown of Figures 6–10.
//! * [`framework`] — the paper's DSSMP performance framework (§2.4):
//!   cluster-size sweeps, breakup penalty, multigrain potential, and
//!   multigrain curvature.
//! * [`micro`] — the primitive-operation measurements of Table 3,
//!   executed on the real machine.
//!
//! # Example
//!
//! ```
//! use mgs_core::{AccessKind, DssmpConfig, Machine};
//!
//! // A 4-processor DSSMP of two 2-processor SSMPs.
//! let machine = Machine::new(DssmpConfig::new(4, 2));
//! let data = machine.alloc_array::<u64>(128, AccessKind::DistArray);
//! let report = machine.run(|env| {
//!     let pid = env.pid() as u64;
//!     data.write(env, pid, pid * 10);
//!     env.barrier();
//!     let sum: u64 = (0..4).map(|i| data.read(env, i)).sum();
//!     assert_eq!(sum, 60);
//! });
//! assert!(report.duration.raw() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod churn;
mod config;
mod env;
mod machine;
mod report;
mod runtime;

pub mod framework;
pub mod micro;

pub use config::DssmpConfig;
pub use env::{Env, SharedArray, Word};
pub use machine::Machine;
pub use report::RunReport;

// Re-exports used throughout the public API.
pub use mgs_net::{ChurnEvent, FaultPlan, LinkTier, NetStats, TieredScenario};
pub use mgs_obs::{
    export_perfetto, first_divergence, HistSummary, LatencyClass, Metric, MetricsReport, ObsEvent,
    ObsSink, PageProfile, SharingReport, TraceEvent, XactKind, XactOutcome,
};
pub use mgs_proto::{PagePolicy, PolicyDecision, ProtocolError, ProtocolKind};
pub use mgs_sim::{CostCategory, CostModel, CycleAccount, Cycles, GovWaitSnapshot, GovWaitStats};
pub use mgs_sync::{HwLock, MgsBarrier, MgsLock};
pub use mgs_vm::{AccessKind, PageGeometry};
