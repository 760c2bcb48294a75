//! The MGS multigrain shared memory protocol.
//!
//! This crate implements the software page-level protocol of §3.1 of the
//! paper: a release-consistent, invalidation-based, multiple-writer DSM
//! in the style of Munin, extended with MGS's **single-writer
//! optimization**, layered over the hardware cache coherence of each
//! SSMP.
//!
//! The three protocol engines of Figure 4 — the **Local Client** (runs
//! on the faulting processor), the **Remote Client** (runs on the
//! processor owning the client-side page copy), and the **Server** (runs
//! on the page's home processor) — are realized by [`MgsProtocol`],
//! whose transactions follow the state-transition arcs of Table 1
//! exactly (arc numbers are cited in the implementation).
//!
//! Transactions execute synchronously in the calling (simulated)
//! processor's thread: the per-page lock plays the role of the
//! paper's request queuing at the server, and all *timing* — message
//! crossings, handler occupancy on remote nodes, data-movement costs —
//! is reported through the [`ProtoTiming`] trait so the runtime can
//! charge simulated clocks while unit tests use a deterministic
//! recorder.
//!
//! ## Unreliable fabrics
//!
//! The paper assumes the LAN delivers every message exactly once. When
//! the runtime attaches a fault plan (`mgs_net::FaultPlan`), the
//! protocol retransmits a timed-out message after a timeout that
//! doubles up to a cap, and a transaction that spends its 16
//! retransmissions surfaces a typed [`ProtocolError`] through the
//! `try_*` entry points instead of wedging the machine. A delivered
//! message is one call of its handler: a fabric duplicate is counted by
//! the fabric and reaches no handler.
//!
//! ## Table 1 erratum
//!
//! Table 1's arc 23 clears both directories (`read_dir = write_dir = φ`)
//! for all three acknowledgement variants. For the `1WDATA`
//! (single-writer) variant this cannot be literal: the writer SSMP
//! *keeps its read-write copy cached* (arc 16, `tt == 3` does not set
//! `pagestate = INV`), so a server that forgot the writer would never
//! invalidate that copy again, losing coherence. We therefore retain
//! `write_dir = {writer}` after a single-writer release, which is the
//! only reading consistent with the prose of §3.1.1. The interleaving
//! checker shows the literal reading losing a released write:
//! `table_1_arc_23_read_literally_loses_a_released_write` in
//! `crates/proto/tests/protocol_model.rs`.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod diff;
mod protocol;
mod stats;
pub mod step;
mod strategy;
mod timing;
mod transport;

pub use config::ProtoConfig;
pub use diff::SpanDiff;
pub use protocol::MgsProtocol;
pub use stats::ProtoStats;
pub use step::{ClientState, ServerDirs};
pub use strategy::{PagePolicy, PolicyDecision, ProtocolKind};
pub use timing::{ProtoTiming, RecordingTiming};
pub use transport::{ProtocolError, SendOutcome, Transaction};
