//! Reliable delivery over an unreliable fabric.
//!
//! The paper's protocol assumes the LAN delivers every message exactly
//! once (§4.2.2). When the fabric is allowed to drop, duplicate or
//! delay messages (see [`FaultPlan`](mgs_net::FaultPlan)), the protocol
//! recovers with a classic ARQ scheme:
//!
//! * **at-least-once sending** — every inter-SSMP protocol message is
//!   retransmitted on timeout, waiting [`timeout_for`] cycles after
//!   each loss, until it is delivered or [`MAX_RETRIES`]
//!   retransmissions are spent;
//! * **exactly-once handling** — a delivered message is one call of its
//!   handler, so a fabric duplicate is counted by the fabric and
//!   reaches no handler;
//! * **typed failure** — a transmission that exhausts its retry budget
//!   aborts the enclosing transaction with
//!   [`ProtocolError::RetriesExhausted`], naming the offending
//!   [`Transaction`], instead of wedging the machine.
//!
//! The retry constants are sized for the paper's 1000-cycle LAN: the
//! first timeout is 4× the one-way latency, doubling up to 64 k cycles,
//! and 16 retransmissions. At a 1% drop rate the probability of
//! exhausting this budget on one message is 10⁻³⁴ — fault-free
//! completion in practice, while a partitioned link still fails in
//! bounded time.

use mgs_net::MsgKind;
use mgs_sim::Cycles;
use std::fmt;

/// Retransmissions allowed before a transaction aborts with
/// [`ProtocolError::RetriesExhausted`].
pub(crate) const MAX_RETRIES: u32 = 16;

/// The timeout wait after losing the `attempt`-th (0-based)
/// transmission: 4,000 cycles, doubling per attempt, capped at 64,000.
pub(crate) fn timeout_for(attempt: u32) -> Cycles {
    const BASE: u64 = 4_000;
    const MAX: u64 = 64_000;
    Cycles(BASE.saturating_mul(2u64.saturating_pow(attempt)).min(MAX))
}

/// Outcome of a single transmission attempt reported by
/// [`ProtoTiming::try_message`](crate::ProtoTiming::try_message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message arrived, along with `duplicates` redundant copies
    /// that the fabric counted and no handler sees.
    Delivered {
        /// Fabric-injected duplicate copies delivered with the message.
        duplicates: u32,
    },
    /// The message was lost; the sender observes a timeout.
    Dropped,
}

/// The protocol transaction a failing message belonged to, for error
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// The virtual page the transaction operates on.
    pub page: u64,
    /// The message kind that could not be delivered.
    pub kind: MsgKind,
    /// Sending SSMP.
    pub from: usize,
    /// Receiving SSMP.
    pub to: usize,
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} SSMP {} -> {} (page {})",
            self.kind, self.from, self.to, self.page
        )
    }
}

/// Typed, non-wedging protocol failure.
///
/// Surfaced by the `try_*` transaction entry points of
/// [`MgsProtocol`](crate::MgsProtocol) when the fabric stays unusable
/// past the retry budget; all page locks are released before the error
/// propagates, so the rest of the machine keeps running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A message exceeded `MAX_RETRIES` (16) retransmissions.
    RetriesExhausted {
        /// The transaction whose message could not be delivered.
        txn: Transaction,
        /// Transmissions attempted (initial send plus retries).
        attempts: u32,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::RetriesExhausted { txn, attempts } => write!(
                f,
                "retries exhausted after {attempts} attempts: {txn} undeliverable"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(timeout_for(0), Cycles(4_000));
        assert_eq!(timeout_for(2), Cycles(16_000));
        assert_eq!(timeout_for(4), Cycles(64_000));
        assert_eq!(timeout_for(5), Cycles(64_000));
        assert_eq!(timeout_for(63), Cycles(64_000)); // no overflow
    }

    #[test]
    fn error_display_names_the_transaction() {
        let e = ProtocolError::RetriesExhausted {
            txn: Transaction {
                page: 42,
                kind: MsgKind::RReq,
                from: 0,
                to: 3,
            },
            attempts: 17,
        };
        let s = e.to_string();
        assert!(s.contains("17 attempts"), "{s}");
        assert!(s.contains("RREQ"), "{s}");
        assert!(s.contains("page 42"), "{s}");
    }
}
