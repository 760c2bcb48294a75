//! The runtime [`ProtoTiming`] implementation: charges protocol work to
//! the faulting processor's clock, serializes handler work on remote
//! protocol engines, and routes inter-SSMP messages through the LAN.
//!
//! It is also where the protocol's event stream leaves for the
//! machine's recorders: every charge but the two requester-local ones,
//! and every observed event, goes to [`Machine::record`] (the
//! observability sink, and the trace when tracing). What stays here is
//! what needs this processor's clock: the open transaction spans and
//! the latency samples. Everything on that path is a host-side side
//! channel: no simulated clock is touched, and the open spans live in a
//! fixed-size stack so observing a steady-state access allocates
//! nothing.

use crate::Machine;
use mgs_net::{Delivery, MsgKind};
use mgs_obs::{LatencyClass, ObsEvent, XactKind};
use mgs_proto::{ProtoTiming, SendOutcome};
use mgs_sim::{CostCategory, Cycles, ProcClock};

/// Open-span stack depth. Protocol transactions never nest more than a
/// release inside a DUQ drain; 8 leaves generous headroom and keeps the
/// stack inline (no allocation).
const XACT_DEPTH: usize = 8;

pub(crate) struct RuntimeTiming<'a> {
    pub clock: &'a mut ProcClock,
    pub machine: &'a Machine,
    pub proc: usize,
    /// Open transaction spans: `(kind, page, begin)`.
    xacts: [(XactKind, u64, Cycles); XACT_DEPTH],
    depth: usize,
}

impl<'a> RuntimeTiming<'a> {
    pub fn new(clock: &'a mut ProcClock, machine: &'a Machine, proc: usize) -> RuntimeTiming<'a> {
        RuntimeTiming {
            clock,
            machine,
            proc,
            xacts: [(XactKind::ReadFault, 0, Cycles::ZERO); XACT_DEPTH],
            depth: 0,
        }
    }

    /// Pops the innermost open span matching `(xact, page)` and returns
    /// its begin time (tolerates unbalanced ends by searching downward).
    fn close_span(&mut self, xact: XactKind, page: u64) -> Option<Cycles> {
        for i in (0..self.depth).rev() {
            if self.xacts[i].0 == xact && self.xacts[i].1 == page {
                let begin = self.xacts[i].2;
                // Drop this frame and anything opened above it (aborted
                // spans never see their end).
                self.depth = i;
                return Some(begin);
            }
        }
        None
    }

    /// Records `event` for this processor at its current instant.
    fn record(&self, event: ObsEvent) {
        self.machine.record(self.proc, self.clock.now(), event);
    }

    /// Records a latency sample when the observability sink is attached.
    fn sample(&self, class: LatencyClass, latency: Cycles) {
        if let Some(obs) = self.machine.obs() {
            obs.registry.record_latency(self.proc, class, latency);
        }
    }
}

impl ProtoTiming for RuntimeTiming<'_> {
    fn now(&self) -> Cycles {
        self.clock.now()
    }

    fn local(&mut self, cycles: Cycles) {
        self.clock.charge(CostCategory::Mgs, cycles);
    }

    fn message(&mut self, from: usize, to: usize, kind: MsgKind, payload_bytes: u64) {
        // Only intra-SSMP sends are unconditional: what crosses the LAN
        // goes through the reliable transport, which handles a drop.
        debug_assert_eq!(from, to, "an inter-SSMP send can be dropped");
        self.try_message(from, to, kind, payload_bytes);
    }

    fn node_work(&mut self, node: usize, cycles: Cycles) {
        let now = self.clock.now();
        // Work on the requesting processor itself starts at once; a
        // remote node's protocol engine serializes it, and contention
        // shows up as queueing delay on the requester's clock.
        let (start, end) = if node == self.proc {
            (now, now + cycles)
        } else {
            self.machine.engines()[node].occupy(now, cycles)
        };
        self.record(ObsEvent::NodeWork {
            node,
            start,
            cycles,
        });
        self.clock.advance_to(CostCategory::Mgs, end);
    }

    fn try_message(
        &mut self,
        from: usize,
        to: usize,
        kind: MsgKind,
        payload_bytes: u64,
    ) -> SendOutcome {
        let cost = &self.machine.config().cost;
        let message = ObsEvent::Message {
            from,
            to,
            kind,
            bytes: payload_bytes,
        };
        if from == to {
            // Intra-SSMP messages never touch the LAN.
            self.record(message);
            self.clock.charge(CostCategory::Mgs, cost.intra_msg);
            return SendOutcome::Delivered { duplicates: 0 };
        }
        // Without a fault plan or churn `transmit` always delivers, at
        // `LanModel::send`'s arrival time: the charge sequence of the
        // paper's perfect LAN.
        let launched = self.clock.now();
        self.clock.charge(CostCategory::Mgs, cost.msg_send);
        let sent = self.clock.now();
        let delivery = self
            .machine
            .lan()
            .transmit(from, to, kind, payload_bytes, sent);
        match delivery {
            Delivery::Delivered {
                arrival,
                duplicates,
            } => {
                // A delivered message is stamped when it was launched,
                // whatever fabric carried it.
                self.machine.record(self.proc, launched, message);
                if duplicates > 0 {
                    self.record(ObsEvent::Duplicate {
                        from,
                        to,
                        kind,
                        copies: duplicates,
                    });
                }
                if let Some(obs) = self.machine.obs() {
                    let class = LatencyClass::for_tier(self.machine.lan().tier(from, to));
                    obs.registry
                        .record_latency(self.proc, class, arrival.saturating_sub(sent));
                }
                self.clock.advance_to(CostCategory::Mgs, arrival);
                self.clock.charge(CostCategory::Mgs, cost.msg_recv);
                SendOutcome::Delivered { duplicates }
            }
            Delivery::Dropped => {
                self.record(ObsEvent::Drop { from, to, kind });
                SendOutcome::Dropped
            }
        }
    }

    fn retry_wait(&mut self, from: usize, to: usize, kind: MsgKind, attempt: u32, wait: Cycles) {
        self.sample(LatencyClass::RetryBackoff, wait);
        self.record(ObsEvent::Retry {
            from,
            to,
            kind,
            attempt,
            wait,
        });
        self.clock.charge(CostCategory::Mgs, wait);
        // A retrying sender may be the only processor making progress
        // (everyone else parked at a barrier behind it), and it may hold
        // its page's server lock — so restore due rejoin links here,
        // lock-free, to guarantee outages end. The directory-repair
        // drain stays deferred to the safe poll points in `Env`.
        if let Some(churn) = self.machine.churn() {
            churn.advance_rejoin_links(self.machine.lan(), self.clock.now());
        }
    }

    fn observing(&self) -> bool {
        self.machine.obs().is_some() || self.machine.tracing()
    }

    fn observe(&mut self, event: ObsEvent) {
        // Span bookkeeping happens even when only tracing is on, so the
        // structured trace always carries balanced begin/end pairs.
        match event {
            ObsEvent::XactBegin { xact, page } if self.depth < XACT_DEPTH => {
                self.xacts[self.depth] = (xact, page, self.clock.now());
                self.depth += 1;
            }
            ObsEvent::XactEnd {
                xact,
                page,
                outcome,
            } => {
                let begin = self.close_span(xact, page);
                if let (Some(class), Some(begin)) = (LatencyClass::for_outcome(outcome), begin) {
                    self.sample(class, self.clock.now().saturating_sub(begin));
                }
            }
            _ => {}
        }
        self.record(event);
    }
}
