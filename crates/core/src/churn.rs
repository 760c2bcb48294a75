//! The churn controller: applies a scenario's [`ChurnEvent`] schedule
//! to a running machine.
//!
//! Processors poll the controller at their protocol slow paths (faults,
//! lock acquires, barriers) — never on the per-access hot path. The
//! first processor whose simulated clock passes an event time wins the
//! apply lock and executes the transition on its own clock:
//!
//! * **Departure** — drain the SSMP through
//!   [`MgsProtocol::depart_ssmp`](mgs_proto::MgsProtocol): its copies
//!   are invalidated back to their homes and its homed pages are
//!   re-homed to the lowest-numbered surviving SSMP; then its link goes
//!   down, and messages to or from it drop until the rejoin (senders
//!   ride the retry transport).
//! * **Rejoin** — bring the link back up and reconstruct directory
//!   state through [`MgsProtocol::rejoin_ssmp`](mgs_proto::MgsProtocol),
//!   counting any stale sharer entries repaired (a clean drain leaves
//!   zero).
//!
//! Determinism: the page drains iterate in page order and all costs are
//! simulated cycles, but *which* processor applies a transition (and
//! therefore whose clock absorbs the drain) depends on host
//! interleaving — churn runs are bit-deterministic only with one
//! worker, like the fault-injection paths. See `docs/SCENARIOS.md`.

use crate::runtime::RuntimeTiming;
use crate::Machine;
use mgs_net::{ChurnEvent, LanModel};
use mgs_obs::ObsEvent;
use mgs_proto::ProtoTiming;
use mgs_sim::Cycles;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, Ordering};

/// Slot phases: the transition each slot is waiting for. The rejoin is
/// split in two so that a sender stuck in retry backoff (which holds
/// its page's server lock) can restore connectivity from `retry_wait`
/// without running the directory-repair drain — the drain needs server
/// locks and runs later from a safe poll point.
const PENDING: u8 = 0;
const DEPARTED: u8 = 1;
const LINKED: u8 = 2;
const DONE: u8 = 3;

#[derive(Debug)]
struct ChurnSlot {
    ssmp: usize,
    depart: Cycles,
    rejoin: Cycles,
    phase: AtomicU8,
}

/// What the applied transitions did so far.
#[derive(Debug, Default)]
struct ChurnTotals {
    departs: u64,
    rejoins: u64,
    rehomed: u64,
    repaired: u64,
}

/// Live churn-schedule state for one run.
#[derive(Debug)]
pub(crate) struct ChurnState {
    slots: Vec<ChurnSlot>,
    /// Serializes transition application, and holds the totals that
    /// only an application writes; the `due` fast check stays
    /// lock-free.
    apply: Mutex<ChurnTotals>,
}

impl ChurnState {
    /// Builds controller state from a scenario's schedule; `None` when
    /// the schedule is empty.
    ///
    /// # Panics
    ///
    /// Panics if an event names an out-of-range SSMP or the machine has
    /// fewer than two SSMPs (a departure needs a survivor to re-home
    /// onto).
    pub fn new(events: &[ChurnEvent], n_ssmps: usize) -> Option<ChurnState> {
        if events.is_empty() {
            return None;
        }
        assert!(n_ssmps >= 2, "churn requires at least two SSMPs");
        let slots = events
            .iter()
            .map(|ev| {
                assert!(ev.ssmp < n_ssmps, "churn SSMP {} out of range", ev.ssmp);
                ChurnSlot {
                    ssmp: ev.ssmp,
                    depart: ev.depart,
                    rejoin: ev.rejoin,
                    phase: AtomicU8::new(PENDING),
                }
            })
            .collect();
        Some(ChurnState {
            slots,
            apply: Mutex::default(),
        })
    }

    /// Cheap polled check: is any transition due at `now`?
    #[inline]
    pub fn due(&self, now: Cycles) -> bool {
        self.slots.iter().any(|s| {
            let when = match s.phase.load(Ordering::Relaxed) {
                PENDING => s.depart,
                DEPARTED => s.rejoin,
                LINKED => return true,
                _ => return false,
            };
            now >= when
        })
    }

    /// Restores connectivity for rejoins whose time has passed, without
    /// touching protocol state. Lock-free, so it is safe to call from
    /// `retry_wait` — where the caller may be mid-transaction holding a
    /// page's server lock, retrying into the outage. Without this, a
    /// machine whose other processors are all parked at a barrier would
    /// never apply the rejoin and the sender would exhaust its retry
    /// budget. The directory-repair drain stays deferred to
    /// [`apply`](ChurnState::apply).
    pub fn advance_rejoin_links(&self, lan: &LanModel, now: Cycles) {
        for slot in &self.slots {
            if slot.phase.load(Ordering::Acquire) == DEPARTED
                && now >= slot.rejoin
                && slot
                    .phase
                    .compare_exchange(DEPARTED, LINKED, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                lan.set_link_up(slot.ssmp, true);
            }
        }
    }

    /// Applies every due transition on the calling processor's clock.
    /// Other due-checkers queue briefly on the apply lock and find
    /// nothing left to do.
    pub fn apply(&self, machine: &Machine, t: &mut RuntimeTiming<'_>) {
        let mut totals = self.apply.lock();
        let lan = machine.lan();
        let proto = machine.protocol();
        let cluster = machine.config().cluster_size;
        let n_ssmps = machine.config().n_ssmps();
        for slot in &self.slots {
            let now = t.now();
            match slot.phase.load(Ordering::Acquire) {
                PENDING if now >= slot.depart => {
                    let survivor = (0..n_ssmps)
                        .find(|&s| s != slot.ssmp && lan.link_up(s))
                        .expect("a departure needs a surviving SSMP");
                    let rehomed = proto
                        .depart_ssmp(slot.ssmp, survivor * cluster, t)
                        .unwrap_or_else(|e| {
                            panic!("unrecoverable MGS protocol failure in churn departure: {e}")
                        });
                    lan.set_link_up(slot.ssmp, false);
                    slot.phase.store(DEPARTED, Ordering::Release);
                    totals.departs += 1;
                    totals.rehomed += rehomed;
                    t.observe(ObsEvent::Churn {
                        ssmp: slot.ssmp,
                        rejoin: false,
                        rehomed,
                    });
                }
                phase @ (DEPARTED | LINKED) if phase == LINKED || now >= slot.rejoin => {
                    // Idempotent when `advance_rejoin_links` already
                    // restored the link from a retry path.
                    lan.set_link_up(slot.ssmp, true);
                    let (_evicted, repaired) =
                        proto.rejoin_ssmp(slot.ssmp, t).unwrap_or_else(|e| {
                            panic!("unrecoverable MGS protocol failure in churn rejoin: {e}")
                        });
                    slot.phase.store(DONE, Ordering::Release);
                    totals.rejoins += 1;
                    totals.repaired += repaired;
                    t.observe(ObsEvent::Churn {
                        ssmp: slot.ssmp,
                        rejoin: true,
                        rehomed: 0,
                    });
                }
                _ => {}
            }
        }
    }

    /// `(departures, rejoins, rehomed_pages)` applied so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        let totals = self.apply.lock();
        (totals.departs, totals.rejoins, totals.rehomed)
    }

    /// Stale directory entries repaired at rejoins (0 after clean
    /// drains — the churn property tests assert this).
    pub fn repaired(&self) -> u64 {
        self.apply.lock().repaired
    }
}
