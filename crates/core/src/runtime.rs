//! The runtime [`ProtoTiming`] implementation: charges protocol work to
//! the faulting processor's clock, serializes handler work on remote
//! protocol engines, and routes inter-SSMP messages through the LAN.
//!
//! It is also the point where the protocol's structured
//! [`ObsEvent`](mgs_obs::ObsEvent) stream fans out to the machine's
//! observability sink (metrics registry + sharing profiler) and, when
//! tracing, to the structured trace. Everything on that path is a
//! host-side side channel: no simulated clock is touched, and the open
//! transaction spans live in a fixed-size stack so observing a
//! steady-state access allocates nothing.

use crate::trace::{TraceEvent, TraceKind};
use crate::Machine;
use mgs_net::{Delivery, MsgKind};
use mgs_obs::{LatencyClass, Metric, ObsEvent, XactKind, XactOutcome};
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

    /// Records `kind` in the machine trace (when tracing), stamped with
    /// this processor's clock at `time`.
    fn trace_at(&self, time: Cycles, kind: TraceKind) {
        if self.machine.tracing() {
            self.machine.record_trace(TraceEvent {
                proc: self.proc,
                time,
                kind,
            });
        }
    }

    /// [`trace_at`](RuntimeTiming::trace_at) the current instant.
    fn trace(&self, kind: TraceKind) {
        self.trace_at(self.clock.now(), kind);
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
        self.trace(TraceKind::NodeWork {
            node,
            start,
            cycles,
        });
        self.clock.advance_to(CostCategory::Mgs, end);
    }

    fn wait_until(&mut self, instant: Cycles) {
        self.clock.advance_to(CostCategory::Mgs, instant);
    }

    fn try_message(
        &mut self,
        from: usize,
        to: usize,
        kind: MsgKind,
        payload_bytes: u64,
    ) -> SendOutcome {
        let cost = &self.machine.config().cost;
        let message = TraceKind::Message {
            from,
            to,
            kind,
            bytes: payload_bytes,
        };
        if from == to {
            // Intra-SSMP messages never touch the LAN.
            self.trace(message);
            self.clock.charge(CostCategory::Mgs, cost.intra_msg);
            return SendOutcome::Delivered { duplicates: 0 };
        }
        // One transmission enters the fabric whatever its fate, matching
        // `NetStats`' counting rule. Without a fault plan or churn
        // `transmit` always delivers, at `LanModel::send`'s arrival
        // time: the charge sequence of the paper's perfect LAN.
        if let Some(obs) = self.machine.obs() {
            obs.registry.count_lan(self.proc, kind);
        }
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
                self.trace_at(launched, message);
                if duplicates > 0 {
                    if let Some(obs) = self.machine.obs() {
                        obs.registry
                            .count(self.proc, Metric::LanDuplicates, u64::from(duplicates));
                    }
                    self.trace(TraceKind::Fault {
                        from,
                        to,
                        kind,
                        duplicates,
                    });
                }
                if let Some(obs) = self.machine.obs() {
                    obs.registry.record_latency(
                        self.proc,
                        LatencyClass::for_tier(self.machine.lan().tier(from, to)),
                        arrival.saturating_sub(sent),
                    );
                }
                self.clock.advance_to(CostCategory::Mgs, arrival);
                self.clock.charge(CostCategory::Mgs, cost.msg_recv);
                SendOutcome::Delivered { duplicates }
            }
            Delivery::Dropped => {
                if let Some(obs) = self.machine.obs() {
                    obs.registry.count(self.proc, Metric::LanDrops, 1);
                }
                self.trace(TraceKind::Fault {
                    from,
                    to,
                    kind,
                    duplicates: 0,
                });
                SendOutcome::Dropped
            }
        }
    }

    fn retry_wait(&mut self, from: usize, to: usize, kind: MsgKind, attempt: u32, wait: Cycles) {
        if let Some(obs) = self.machine.obs() {
            obs.registry.count(self.proc, Metric::Retries, 1);
            obs.registry
                .record_latency(self.proc, LatencyClass::RetryBackoff, wait);
        }
        self.trace(TraceKind::Retry {
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
                if self.depth < XACT_DEPTH {
                    self.xacts[self.depth] = (xact, page, self.clock.now());
                    self.depth += 1;
                }
                self.trace(TraceKind::XactBegin { xact, page });
            }
            ObsEvent::XactEnd {
                xact,
                page,
                outcome,
            } => {
                let begin = self.close_span(xact, page);
                if let Some(obs) = self.machine.obs() {
                    let (metric, class) = match outcome {
                        XactOutcome::TlbFill => {
                            (Some(Metric::TlbFills), Some(LatencyClass::TlbFill))
                        }
                        XactOutcome::ReadMiss => {
                            (Some(Metric::ReadMisses), Some(LatencyClass::ReadMiss))
                        }
                        XactOutcome::WriteMiss => {
                            (Some(Metric::WriteMisses), Some(LatencyClass::WriteMiss))
                        }
                        XactOutcome::Upgrade => {
                            (Some(Metric::Upgrades), Some(LatencyClass::Upgrade))
                        }
                        XactOutcome::Released => {
                            (Some(Metric::PagesReleased), Some(LatencyClass::PageRelease))
                        }
                        XactOutcome::Aborted => (Some(Metric::XactAborts), None),
                    };
                    if let Some(m) = metric {
                        obs.registry.count(self.proc, m, 1);
                    }
                    if let (Some(c), Some(begin)) = (class, begin) {
                        obs.registry.record_latency(
                            self.proc,
                            c,
                            self.clock.now().saturating_sub(begin),
                        );
                    }
                    let ssmp = self.machine.config().ssmp_of(self.proc);
                    obs.profiler.record(ssmp, &event);
                }
                self.trace(TraceKind::XactEnd {
                    xact,
                    page,
                    outcome,
                });
            }
            // Churn transitions are machine-level: counters plus a trace
            // instant, no page attribution.
            ObsEvent::Churn {
                ssmp,
                rejoin,
                rehomed,
            } => {
                if let Some(obs) = self.machine.obs() {
                    let metric = if rejoin {
                        Metric::ChurnRejoins
                    } else {
                        Metric::ChurnDepartures
                    };
                    obs.registry.count(self.proc, metric, 1);
                    if rehomed > 0 {
                        obs.registry
                            .count(self.proc, Metric::ChurnRehomedPages, rehomed);
                    }
                }
                self.trace(TraceKind::Churn {
                    ssmp,
                    rejoin,
                    rehomed,
                });
            }
            // Everything else: a counter bump plus per-page attribution.
            _ => {
                if let Some(obs) = self.machine.obs() {
                    let metric = match event {
                        ObsEvent::TwinCreate { .. } => Some(Metric::TwinCreates),
                        ObsEvent::Diff { words, spans, .. } => {
                            obs.registry.count(self.proc, Metric::DiffWords, words);
                            obs.registry.count(self.proc, Metric::DiffSpans, spans);
                            Some(Metric::DiffsSent)
                        }
                        ObsEvent::DiffLine { .. } => None,
                        ObsEvent::Invalidate { .. } => Some(Metric::Invalidations),
                        ObsEvent::SingleWriterFlush { .. } => Some(Metric::SingleWriterFlushes),
                        ObsEvent::SingleWriterBreak { .. } => Some(Metric::SingleWriterBreaks),
                        ObsEvent::DuqFlush { .. } => Some(Metric::DuqFlushes),
                        ObsEvent::LazyNotice { .. } => Some(Metric::LazyNotices),
                        ObsEvent::Pinv { .. } => Some(Metric::Pinvs),
                        ObsEvent::UpdatePush { words, .. } => {
                            obs.registry
                                .count(self.proc, Metric::UpdatePushWords, words);
                            Some(Metric::UpdatePushes)
                        }
                        ObsEvent::PolicySwitch { .. } => Some(Metric::PolicySwitches),
                        ObsEvent::XactBegin { .. }
                        | ObsEvent::XactEnd { .. }
                        | ObsEvent::Churn { .. } => unreachable!(),
                    };
                    if let Some(m) = metric {
                        obs.registry.count(self.proc, m, 1);
                    }
                    let ssmp = self.machine.config().ssmp_of(self.proc);
                    obs.profiler.record(ssmp, &event);
                }
            }
        }
    }
}
