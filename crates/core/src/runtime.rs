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
//! channel: no simulated clock is touched, and the open span lives
//! inline so observing a steady-state access allocates nothing.

use crate::Machine;
use mgs_net::{Delivery, MsgKind};
use mgs_obs::{LatencyClass, ObsEvent, XactKind};
use mgs_proto::{ProtoTiming, SendOutcome};
use mgs_sim::{CostCategory, Cycles, ProcClock};

pub(crate) struct RuntimeTiming<'a> {
    pub clock: &'a mut ProcClock,
    pub machine: &'a Machine,
    pub proc: usize,
    /// The open transaction span, `(kind, page, begin)`: every
    /// transaction is one protocol step, so spans never nest.
    xact: Option<(XactKind, u64, Cycles)>,
}

impl<'a> RuntimeTiming<'a> {
    pub fn new(clock: &'a mut ProcClock, machine: &'a Machine, proc: usize) -> RuntimeTiming<'a> {
        RuntimeTiming {
            clock,
            machine,
            proc,
            xact: None,
        }
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
            ObsEvent::XactBegin { xact, page } => {
                self.xact = Some((xact, page, self.clock.now()));
            }
            ObsEvent::XactEnd {
                xact,
                page,
                outcome,
            } => {
                // An aborted span never sees its end; the next begin
                // replaces it.
                let begin = self
                    .xact
                    .take_if(|&mut (k, p, _)| (k, p) == (xact, page))
                    .map(|(_, _, begin)| begin);
                if let (Some(class), Some(begin)) = (LatencyClass::for_outcome(outcome), begin) {
                    self.sample(class, self.clock.now().saturating_sub(begin));
                }
            }
            _ => {}
        }
        self.record(event);
    }
}
