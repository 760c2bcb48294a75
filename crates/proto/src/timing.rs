//! Timing abstraction between the protocol and its runtime.

use crate::transport::SendOutcome;
use mgs_net::{Fate, FaultPlan, MsgKind};
use mgs_obs::ObsEvent;
use mgs_sim::{CostModel, Cycles};
use std::collections::HashMap;

/// How the protocol reports simulated time as its transactions execute.
///
/// The protocol calls these hooks in exactly the order the corresponding
/// work happens on the real machine; the runtime implementation
/// (`mgs-core`) advances the faulting processor's clock, serializes work
/// on remote protocol engines through occupancy resources, and routes
/// inter-SSMP messages through the LAN model. The test implementation
/// ([`RecordingTiming`]) accumulates a deterministic single-stream clock
/// so that protocol unit tests can assert exact Table 3 costs.
pub trait ProtoTiming {
    /// The requesting processor's current simulated time.
    fn now(&self) -> Cycles;

    /// Work executed on the requesting processor itself.
    fn local(&mut self, cycles: Cycles);

    /// A protocol message from SSMP `from` to SSMP `to` carrying
    /// `payload_bytes` of data. `from == to` is an intra-SSMP message.
    fn message(&mut self, from: usize, to: usize, kind: MsgKind, payload_bytes: u64);

    /// Handler or data-movement work executed at global processor
    /// `node`, serialized with other protocol work at that node.
    fn node_work(&mut self, node: usize, cycles: Cycles);

    /// Attempts one transmission of a protocol message over a possibly
    /// unreliable fabric and reports whether it arrived.
    ///
    /// The default implementation models the paper's perfect LAN: it
    /// forwards to [`message`](ProtoTiming::message) and always reports
    /// [`SendOutcome::Delivered`] with no duplicates. Runtimes that
    /// attach a [`FaultPlan`](mgs_net::FaultPlan) override this to
    /// consult the fabric's fate for the transmission.
    fn try_message(
        &mut self,
        from: usize,
        to: usize,
        kind: MsgKind,
        payload_bytes: u64,
    ) -> SendOutcome {
        self.message(from, to, kind, payload_bytes);
        SendOutcome::Delivered { duplicates: 0 }
    }

    /// The requester timed out waiting for the `attempt`-th (0-based)
    /// transmission of a message and waited `wait` cycles before
    /// retransmitting. The default charges the wait as local time.
    fn retry_wait(&mut self, from: usize, to: usize, kind: MsgKind, attempt: u32, wait: Cycles) {
        let _ = (from, to, kind, attempt);
        self.local(wait);
    }

    /// A structured observability event. Purely a host-side side
    /// channel: implementations must never advance any simulated clock
    /// here (the zero-perturbation invariant of `mgs-obs` depends on
    /// it). The default discards the event.
    fn observe(&mut self, event: ObsEvent) {
        let _ = event;
    }

    /// `true` when [`observe`](ProtoTiming::observe) has a consumer.
    /// Lets the protocol skip building events that require extra work
    /// (e.g. walking a diff's touched lines a second time) when nobody
    /// is listening. The default is `false`.
    fn observing(&self) -> bool {
        false
    }
}

/// A deterministic [`ProtoTiming`] for tests and micro-measurements.
///
/// Accumulates every cost into a single serial clock (no occupancy, no
/// concurrency): `local` and `node_work` add their cycles; `message`
/// adds an intra-SSMP handler cost when `from == to`, otherwise a full
/// crossing (`msg_send + ext_latency + msg_recv`). With this
/// implementation a protocol transaction's elapsed time equals the
/// composite reference costs of
/// [`CostModel`](mgs_sim::CostModel) exactly.
///
/// It records the whole event stream in one list, in order: every hook
/// call as its charge variant of [`ObsEvent`] (a `NodeWork` starts at
/// the clock before its charge) and every observed event (it always
/// [observes](ProtoTiming::observing)).
///
/// # Example
///
/// ```
/// use mgs_proto::{ProtoTiming, RecordingTiming};
/// use mgs_sim::{CostModel, Cycles};
///
/// let mut t = RecordingTiming::new(CostModel::alewife(), Cycles(1000));
/// t.local(Cycles(50));
/// assert_eq!(t.now(), Cycles(50));
/// ```
#[derive(Debug)]
pub struct RecordingTiming {
    cost: CostModel,
    ext_latency: Cycles,
    clock: Cycles,
    events: Vec<ObsEvent>,
    plan: Option<FaultPlan>,
    seq: HashMap<(usize, usize, MsgKind), u64>,
}

impl RecordingTiming {
    /// Creates a recorder with the given cost model and external
    /// latency.
    pub fn new(cost: CostModel, ext_latency: Cycles) -> RecordingTiming {
        RecordingTiming {
            cost,
            ext_latency,
            clock: Cycles::ZERO,
            events: Vec::new(),
            plan: None,
            seq: HashMap::new(),
        }
    }

    /// Attaches a seeded [`FaultPlan`] so that
    /// [`try_message`](ProtoTiming::try_message) consults the plan's
    /// deterministic fate stream, exactly like the runtime LAN does.
    /// Inactive plans are discarded.
    ///
    /// This is how the protocol's retry path is exercised in isolation:
    ///
    /// ```
    /// use mgs_net::{FaultPlan, MsgKind};
    /// use mgs_obs::ObsEvent;
    /// use mgs_proto::{ProtoTiming, RecordingTiming, SendOutcome};
    /// use mgs_sim::{CostModel, Cycles};
    ///
    /// // Fabric that loses every other message on average.
    /// let plan = FaultPlan::uniform(7, 0.5, 0.0, Cycles::ZERO);
    /// let mut t =
    ///     RecordingTiming::new(CostModel::alewife(), Cycles(1000)).with_faults(plan);
    ///
    /// // Retransmit until the fabric lets one through, as the
    /// // protocol's reliable-send loop does.
    /// let mut attempt = 0;
    /// while t.try_message(0, 1, MsgKind::RReq, 0) == SendOutcome::Dropped {
    ///     t.retry_wait(0, 1, MsgKind::RReq, attempt, Cycles(4000));
    ///     attempt += 1;
    /// }
    /// let drops = t
    ///     .events()
    ///     .iter()
    ///     .filter(|e| matches!(e, ObsEvent::Drop { .. }))
    ///     .count();
    /// assert_eq!(drops, attempt as usize);
    /// ```
    pub fn with_faults(mut self, plan: FaultPlan) -> RecordingTiming {
        self.plan = if plan.is_active() { Some(plan) } else { None };
        self
    }

    /// Everything recorded so far, in order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Total elapsed serial time.
    pub fn elapsed(&self) -> Cycles {
        self.clock
    }

    /// Clears the clock, the event log and the per-channel fault
    /// streams (an attached [`FaultPlan`] replays from the start).
    pub fn reset(&mut self) {
        self.clock = Cycles::ZERO;
        self.events.clear();
        self.seq.clear();
    }

    /// Waits until `instant`: the clock moves there unless it is
    /// already past it.
    pub fn wait_until(&mut self, instant: Cycles) {
        self.clock = self.clock.max(instant);
        self.events.push(ObsEvent::WaitUntil { instant });
    }

    /// Number of inter-SSMP crossings recorded.
    pub fn crossings(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Message { from, to, .. } if from != to))
            .count()
    }
}

impl ProtoTiming for RecordingTiming {
    fn now(&self) -> Cycles {
        self.clock
    }

    fn local(&mut self, cycles: Cycles) {
        self.clock += cycles;
        self.events.push(ObsEvent::Local { cycles });
    }

    fn message(&mut self, from: usize, to: usize, kind: MsgKind, payload_bytes: u64) {
        self.clock += if from == to {
            self.cost.intra_msg
        } else {
            self.cost.crossing(self.ext_latency)
        };
        self.events.push(ObsEvent::Message {
            from,
            to,
            kind,
            bytes: payload_bytes,
        });
    }

    fn node_work(&mut self, node: usize, cycles: Cycles) {
        let start = self.clock;
        self.clock += cycles;
        self.events.push(ObsEvent::NodeWork {
            node,
            start,
            cycles,
        });
    }

    fn try_message(
        &mut self,
        from: usize,
        to: usize,
        kind: MsgKind,
        payload_bytes: u64,
    ) -> SendOutcome {
        let Some(plan) = &self.plan else {
            self.message(from, to, kind, payload_bytes);
            return SendOutcome::Delivered { duplicates: 0 };
        };
        if from == to {
            // Intra-SSMP messages never touch the LAN fabric.
            self.message(from, to, kind, payload_bytes);
            return SendOutcome::Delivered { duplicates: 0 };
        }
        let n = self.seq.entry((from, to, kind)).or_insert(0);
        let fate = plan.fate(from, to, kind, *n);
        *n += 1;
        match fate {
            Fate::Drop => {
                // The sender still spends its launch cost before the
                // fabric loses the message.
                self.clock += self.cost.msg_send;
                self.events.push(ObsEvent::Drop { from, to, kind });
                SendOutcome::Dropped
            }
            Fate::Deliver { jitter, duplicates } => {
                self.message(from, to, kind, payload_bytes);
                self.clock += jitter;
                if duplicates > 0 {
                    self.events.push(ObsEvent::Duplicate {
                        from,
                        to,
                        kind,
                        copies: duplicates,
                    });
                }
                SendOutcome::Delivered { duplicates }
            }
        }
    }

    fn retry_wait(&mut self, from: usize, to: usize, kind: MsgKind, attempt: u32, wait: Cycles) {
        self.clock += wait;
        self.events.push(ObsEvent::Retry {
            from,
            to,
            kind,
            attempt,
            wait,
        });
    }

    fn observe(&mut self, event: ObsEvent) {
        self.events.push(event);
    }

    fn observing(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_work_accumulates() {
        let mut t = RecordingTiming::new(CostModel::alewife(), Cycles::ZERO);
        t.local(Cycles(10));
        t.local(Cycles(5));
        assert_eq!(t.elapsed(), Cycles(15));
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn intra_message_is_cheap() {
        let cm = CostModel::alewife();
        let mut t = RecordingTiming::new(cm.clone(), Cycles(1000));
        t.message(1, 1, MsgKind::Upgrade, 0);
        assert_eq!(t.elapsed(), cm.intra_msg);
    }

    #[test]
    fn crossing_includes_ext_latency() {
        let cm = CostModel::alewife();
        let mut t = RecordingTiming::new(cm.clone(), Cycles(1000));
        t.message(0, 1, MsgKind::RReq, 0);
        assert_eq!(t.elapsed(), cm.crossing(Cycles(1000)));
        assert_eq!(t.crossings(), 1);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut t = RecordingTiming::new(CostModel::alewife(), Cycles::ZERO);
        t.local(Cycles(100));
        t.wait_until(Cycles(50));
        assert_eq!(t.now(), Cycles(100));
        t.wait_until(Cycles(200));
        assert_eq!(t.now(), Cycles(200));
    }

    #[test]
    fn reset_clears() {
        let mut t = RecordingTiming::new(CostModel::alewife(), Cycles::ZERO);
        t.local(Cycles(1));
        t.reset();
        assert_eq!(t.elapsed(), Cycles::ZERO);
        assert!(t.events().is_empty());
    }

    #[test]
    fn default_try_message_is_a_perfect_fabric() {
        let cm = CostModel::alewife();
        let mut t = RecordingTiming::new(cm.clone(), Cycles(1000));
        let out = t.try_message(0, 1, MsgKind::RReq, 0);
        assert_eq!(out, SendOutcome::Delivered { duplicates: 0 });
        assert_eq!(t.elapsed(), cm.crossing(Cycles(1000)));
    }

    #[test]
    fn inactive_plan_matches_perfect_fabric() {
        let cm = CostModel::alewife();
        let mut a = RecordingTiming::new(cm.clone(), Cycles(1000));
        let mut b = RecordingTiming::new(cm, Cycles(1000)).with_faults(FaultPlan::none());
        a.try_message(0, 1, MsgKind::WReq, 64);
        b.try_message(0, 1, MsgKind::WReq, 64);
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn faulty_recorder_replays_identically_for_a_seed() {
        let plan = FaultPlan::uniform(3, 0.3, 0.2, Cycles(50));
        let run = || {
            let mut t =
                RecordingTiming::new(CostModel::alewife(), Cycles(1000)).with_faults(plan.clone());
            let outcomes: Vec<SendOutcome> = (0..64)
                .map(|_| t.try_message(0, 1, MsgKind::WReq, 16))
                .collect();
            (outcomes, t.elapsed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dropped_transmissions_charge_only_the_send_cost() {
        let cm = CostModel::alewife();
        // Full loss is rejected by validate(); near-certain loss is not.
        let plan = FaultPlan::uniform(1, 0.999_999, 0.0, Cycles::ZERO);
        let mut t = RecordingTiming::new(cm.clone(), Cycles(1000)).with_faults(plan);
        assert_eq!(t.try_message(0, 1, MsgKind::RReq, 0), SendOutcome::Dropped);
        assert_eq!(t.elapsed(), cm.msg_send);
        assert_eq!(
            t.events(),
            &[ObsEvent::Drop {
                from: 0,
                to: 1,
                kind: MsgKind::RReq
            }]
        );
    }

    #[test]
    fn intra_ssmp_try_message_bypasses_faults() {
        let cm = CostModel::alewife();
        let plan = FaultPlan::uniform(1, 0.999_999, 0.0, Cycles::ZERO);
        let mut t = RecordingTiming::new(cm.clone(), Cycles(1000)).with_faults(plan);
        assert_eq!(
            t.try_message(2, 2, MsgKind::Upgrade, 0),
            SendOutcome::Delivered { duplicates: 0 }
        );
        assert_eq!(t.elapsed(), cm.intra_msg);
    }

    #[test]
    fn retry_wait_charges_and_records() {
        let mut t = RecordingTiming::new(CostModel::alewife(), Cycles::ZERO);
        t.retry_wait(0, 1, MsgKind::RReq, 2, Cycles(16_000));
        assert_eq!(t.elapsed(), Cycles(16_000));
        assert_eq!(
            t.events(),
            &[ObsEvent::Retry {
                from: 0,
                to: 1,
                kind: MsgKind::RReq,
                attempt: 2,
                wait: Cycles(16_000)
            }]
        );
    }
}
