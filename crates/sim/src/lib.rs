//! Simulation substrate for the MGS reproduction.
//!
//! This crate provides the building blocks shared by every layer of the
//! DSSMP simulator:
//!
//! * [`Cycles`] — simulated time, measured in processor clock cycles of a
//!   20 MHz Alewife node (the platform of the original paper).
//! * [`CostCategory`] / [`CycleAccount`] — the four-way runtime breakdown
//!   (User / Lock / Barrier / MGS) used by Figures 6–10 and 12 of the
//!   paper.
//! * [`ProcClock`] — a per-processor local clock with category charging.
//! * [`CostModel`] — every latency constant in the simulator, calibrated
//!   so that the primitive-operation costs of Table 3 of the paper are
//!   reproduced.
//! * [`Occupancy`] — an occupancy clock modelling a contended serial
//!   resource (a protocol engine, a LAN interface, a lock token).
//! * [`VirtualScheduler`] — the M:N virtual-processor scheduler that
//!   paces every machine: simulated processors are resumable tasks
//!   admitted lowest-simulated-time-first onto a bounded host worker
//!   budget, inside a windowed skew bound, so the machine can be far
//!   larger than the host. Under [`VirtualScheduler::run`] a task is a
//!   stackful coroutine on x86_64 Linux (the private `coro` module:
//!   `workers` host threads switch between tasks in user space) and a
//!   parked host thread elsewhere. Sync primitives deschedule and wake
//!   tasks through its `suspend` / `resume_many`; [`GovWaitSnapshot`]
//!   is the scheduler's per-task host wait accounting.
//! * [`EpochGate`] — the scheduler's thread-backed continuation for
//!   threads the caller owns; no machine uses it, it stays for the
//!   benchmark's `sim.gate_*` unit costs.
//! * [`Histogram`] / [`HistSummary`] — the one log2 histogram: the
//!   scheduler records each task's host waits in it, and `mgs-obs`'s
//!   registry its simulated latencies. [`Counter`] is the event
//!   counter the layers count their own events with.
//! * [`XorShift64`] — a small deterministic RNG used by workloads.
//!
//! # Example
//!
//! ```
//! use mgs_sim::{Cycles, CostCategory, ProcClock};
//!
//! let mut clock = ProcClock::new();
//! clock.charge(CostCategory::User, Cycles(100));
//! clock.charge(CostCategory::Mgs, Cycles(50));
//! assert_eq!(clock.now(), Cycles(150));
//! assert_eq!(clock.account().get(CostCategory::User), Cycles(100));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod account;
mod clock;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod coro;
mod cost;
mod gate;
mod resource;
mod rng;
mod stats;
mod time;
mod vsched;

pub use account::{CostCategory, CycleAccount};
pub use clock::ProcClock;
pub use cost::{CleanTier, CostModel};
pub use gate::EpochGate;
pub use resource::Occupancy;
pub use rng::XorShift64;
pub use stats::{Counter, HistSummary, Histogram};
pub use time::Cycles;
pub use vsched::{GovWaitSnapshot, GovWaitStats, VirtualScheduler, VWORKERS_ENV};
