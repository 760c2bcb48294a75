//! Sharded epoch gate: the scalable core of the time governor.
//!
//! [`EpochGate`] bounds simulated-clock skew with a sharded, lock-free
//! design built for host scalability at `P = 32` threads:
//!
//! * **Per-thread slots.** Each thread owns one cache-line-padded
//!   (`#[repr(align(128))]`) slot whose status and gate time are packed
//!   into a single `AtomicU64`. No thread ever writes another thread's
//!   slot state, so the only cross-thread cache traffic on state
//!   transitions is the coherence miss a scanner takes reading it.
//! * **Lock-free `tick` fast path.** A thread inside the current window
//!   does one atomic load of `window_end` and returns. The slow path
//!   (`gate`) also never takes a global lock.
//! * **Elected closer.** Window advance is decided by scanning the slot
//!   array after every transition out of `Running`. The SeqCst total
//!   order over slot stores and the `window_end` CAS elects the thread
//!   whose store lands last as the closer: its scan sees every final
//!   status, so it (and only a thread seeing a full quorum) advances the
//!   window. Losers of the CAS rescan; threads that see any `Running`
//!   slot or an already-fitting gate return immediately.
//! * **Targeted wake-ups.** The closer wakes only parked threads whose
//!   gate time falls inside the new window, via a per-slot mutex +
//!   condvar (locked before notifying, so a waiter that re-checks
//!   `window_end` under its park lock can never miss the wake).
//! * **Adaptive spin-then-park.** When the host has at least as many
//!   cores as the gate has threads, a waiter spins briefly before
//!   parking (the peer it waits for is genuinely running). Under
//!   oversubscription — detected once from
//!   [`std::thread::available_parallelism`] — it parks immediately,
//!   yielding the core to the thread it is waiting for. The policy can
//!   be forced with [`SpinPolicy`] or the `MGS_GOV_SPIN` environment
//!   variable (`0` = always park, `1` = always spin-then-park).
//!
//! The gate *never* charges simulated cycles: it bounds how far apart
//! thread-local clocks may drift, but a thread's clock is advanced only
//! by the cost model. Simulated results are therefore bit-identical
//! whether or not the gate paces the run — see `tests/pacing.rs` at the
//! workspace root.

use crate::Cycles;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 buckets in the host-side wait histogram (bucket `i`
/// counts waits with `i` significant bits of nanoseconds; bucket 0 is
/// zero). Matches the layout used by `mgs-obs` latency histograms.
pub const WAIT_HIST_BUCKETS: usize = 65;

/// log2 bucket index of a nanosecond value (0 for 0).
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

/// How many spin iterations a waiter burns before parking, when
/// spinning is enabled. Each iteration is one acquire load of
/// `window_end` plus a `spin_loop` hint, so the budget is a few
/// microseconds — enough to ride out a peer finishing its window,
/// short enough to never matter when a real park was warranted.
const SPIN_ITERS: u32 = 4096;

// Slot status, packed into the low bits of the slot word; the thread's
// gate time lives in the high 62 bits (shifted left by STATUS_BITS).
const STATUS_BITS: u32 = 2;
const STATUS_MASK: u64 = (1 << STATUS_BITS) - 1;
const STATUS_RUNNING: u64 = 0;
const STATUS_AT_GATE: u64 = 1;
const STATUS_BLOCKED: u64 = 2;
const STATUS_DONE: u64 = 3;

#[inline]
fn pack(status: u64, time: u64) -> u64 {
    debug_assert!(time <= u64::MAX >> STATUS_BITS);
    (time << STATUS_BITS) | status
}

/// How a gated thread should wait for the window to advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpinPolicy {
    /// Spin briefly before parking when host cores ≥ gate threads,
    /// park immediately under oversubscription. Decided once at
    /// construction from [`std::thread::available_parallelism`].
    #[default]
    Auto,
    /// Always spin the full budget before parking.
    Spin,
    /// Always park immediately (the oversubscribed policy).
    Park,
}

impl SpinPolicy {
    /// Resolves the policy to a spin budget for a gate of `n` threads,
    /// honouring the `MGS_GOV_SPIN` override (used by CI to pin either
    /// path regardless of the runner's core count).
    fn spin_iters(self, n: usize) -> u32 {
        let policy = match std::env::var("MGS_GOV_SPIN").ok().as_deref() {
            Some("0") => SpinPolicy::Park,
            Some("1") => SpinPolicy::Spin,
            _ => self,
        };
        match policy {
            SpinPolicy::Park => 0,
            SpinPolicy::Spin => SPIN_ITERS,
            SpinPolicy::Auto => {
                let cores = std::thread::available_parallelism()
                    .map(|c| c.get())
                    .unwrap_or(1);
                if cores >= n {
                    SPIN_ITERS
                } else {
                    0
                }
            }
        }
    }
}

/// Host-side wait accounting for one thread. Written only by the
/// owning thread; read at snapshot time.
#[derive(Debug)]
pub(crate) struct WaitStat {
    /// Times the thread reached the gate slow path.
    gates: AtomicU64,
    /// Times the thread actually parked on its condvar.
    parks: AtomicU64,
    /// Total host nanoseconds spent waiting at the gate.
    wait_ns: AtomicU64,
    /// Times the task resumed on another host worker than it last ran
    /// on (virtual scheduler only).
    migrations: AtomicU64,
    /// log2 histogram of per-wait nanoseconds.
    hist: [AtomicU64; WAIT_HIST_BUCKETS],
}

impl WaitStat {
    pub(crate) fn new() -> WaitStat {
        WaitStat {
            gates: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    pub(crate) fn record_gate(&self) {
        self.gates.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_migration(&self) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_wait(&self, ns: u64, parks: u64) {
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.parks.fetch_add(parks, Ordering::Relaxed);
        self.hist[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> GovWaitStats {
        GovWaitStats {
            gates: self.gates.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            hist: std::array::from_fn(|i| self.hist[i].load(Ordering::Relaxed)),
        }
    }
}

/// One thread's governor wait accounting, as captured by
/// [`EpochGate::wait_snapshot`]. All values are host-side (wall-clock)
/// observations; they never touch simulated time.
#[derive(Debug, Clone)]
pub struct GovWaitStats {
    /// Times the thread hit the gate slow path (its clock had passed
    /// the window end).
    pub gates: u64,
    /// Times the thread parked on its condvar while waiting.
    pub parks: u64,
    /// Total host nanoseconds spent waiting at the gate.
    pub wait_ns: u64,
    /// Times the task resumed on another host worker than it last ran
    /// on. Always 0 for an `EpochGate`, whose threads are the OS's to
    /// place, and for a virtual scheduler with one worker.
    pub migrations: u64,
    /// log2 histogram of individual wait durations in nanoseconds
    /// (bucket `i` counts waits with `i` significant bits; bucket 0 is
    /// instant waits).
    pub hist: [u64; WAIT_HIST_BUCKETS],
}

/// Per-thread governor wait accounting for a whole run.
#[derive(Debug, Clone)]
pub struct GovWaitSnapshot {
    /// Which pacing engine produced this snapshot (`"epoch"` or
    /// `"virtual"`). The numbers mean different things per engine —
    /// the epoch gate reports condvar parks, the virtual scheduler
    /// reports descheduling with zero parks by construction — so
    /// consumers must label their output.
    pub engine: &'static str,
    /// One entry per simulated processor thread.
    pub per_proc: Vec<GovWaitStats>,
}

impl GovWaitSnapshot {
    /// Total gate slow-path entries across all threads.
    pub fn total_gates(&self) -> u64 {
        self.per_proc.iter().map(|s| s.gates).sum()
    }

    /// Total condvar parks across all threads.
    pub fn total_parks(&self) -> u64 {
        self.per_proc.iter().map(|s| s.parks).sum()
    }

    /// Total host nanoseconds spent waiting across all threads.
    pub fn total_wait_ns(&self) -> u64 {
        self.per_proc.iter().map(|s| s.wait_ns).sum()
    }

    /// Total resumptions on another host worker across all tasks.
    pub fn total_migrations(&self) -> u64 {
        self.per_proc.iter().map(|s| s.migrations).sum()
    }
}

/// One thread's shard: packed status word, park furniture, and wait
/// stats, padded to its own pair of cache lines so that state stores
/// and stat bumps never false-share with a neighbour.
#[derive(Debug)]
#[repr(align(128))]
struct Slot {
    /// `time << 2 | status` — see the `STATUS_*` constants.
    state: AtomicU64,
    /// Park furniture for targeted wake-ups. The closer locks this
    /// before notifying, and a waiter re-checks `window_end` while
    /// holding it before sleeping, so wake-ups cannot be lost.
    park_lock: Mutex<()>,
    park_cv: Condvar,
    stat: WaitStat,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: AtomicU64::new(pack(STATUS_RUNNING, 0)),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            stat: WaitStat::new(),
        }
    }
}

/// Sharded, lock-free windowed skew bound. See the `gate` module docs
/// for the design. No machine is paced by it any more — the
/// [`VirtualScheduler`](crate::VirtualScheduler) paces them all — it
/// stays for the benchmark's `sim.gate_*` unit costs.
#[derive(Debug)]
pub struct EpochGate {
    slots: Box<[Slot]>,
    /// End of the current window, in cycles. Monotonically advanced by
    /// CAS; the CAS is the closer election.
    window_end: AtomicU64,
    /// The configured window: the skew bound, and the step by which
    /// `window_end` advances.
    window: u64,
    /// Spin budget before parking; 0 means park immediately.
    spin_iters: u32,
}

impl EpochGate {
    /// Creates a gate for `n` threads with the given window size and
    /// the [`SpinPolicy::Auto`] wait policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `window` is zero cycles.
    pub fn new(n: usize, window: Cycles) -> EpochGate {
        assert!(n > 0, "governor needs at least one thread");
        assert!(!window.is_zero(), "governor window must be nonzero");
        EpochGate {
            slots: (0..n).map(|_| Slot::new()).collect(),
            window_end: AtomicU64::new(window.raw()),
            window: window.raw(),
            spin_iters: SpinPolicy::Auto.spin_iters(n),
        }
    }

    /// Replaces the wait policy (resolved once, here).
    pub fn with_spin(mut self, policy: SpinPolicy) -> EpochGate {
        self.spin_iters = policy.spin_iters(self.slots.len());
        self
    }

    /// The configured window size (the skew bound).
    pub fn window(&self) -> Cycles {
        Cycles(self.window)
    }

    /// Called by thread `id` between operations with its current local
    /// time. If the thread has run past the current window it waits
    /// until the window advances. Lock-free in the common case (one
    /// atomic load).
    #[inline]
    pub fn tick(&self, id: usize, local_time: Cycles) {
        let t = local_time.raw();
        if t < self.window_end.load(Ordering::Acquire) {
            return;
        }
        self.gate(id, t);
    }

    /// Slow path of [`tick`](Self::tick): publish the gate time, try to
    /// close the window, wait if it did not advance past us.
    #[cold]
    fn gate(&self, id: usize, t: u64) {
        let slot = &self.slots[id];
        slot.stat.record_gate();
        // Publish-then-scan. SeqCst gives all slot stores and the
        // window_end CAS a single total order: whichever thread's store
        // is last sees everyone else's final status in its scan, so
        // some thread always observes the full quorum and advances.
        slot.state.store(pack(STATUS_AT_GATE, t), Ordering::SeqCst);
        self.try_advance();
        if self.window_end.load(Ordering::SeqCst) <= t {
            let start = Instant::now();
            let parks = self.wait_at_gate(id, t);
            slot.stat
                .record_wait(start.elapsed().as_nanos() as u64, parks);
        }
        slot.state.store(pack(STATUS_RUNNING, 0), Ordering::SeqCst);
    }

    /// Marks thread `id` as blocked on real synchronization (a held
    /// lock, a barrier, a page fill). The window may advance without
    /// it. Pair with [`unblocked`](Self::unblocked).
    pub fn blocked(&self, id: usize) {
        self.slots[id]
            .state
            .store(pack(STATUS_BLOCKED, 0), Ordering::SeqCst);
        self.try_advance();
    }

    /// Marks thread `id` as runnable again after a real block.
    pub fn unblocked(&self, id: usize) {
        // Running can only inhibit an advance, never enable one, so no
        // scan is needed.
        self.slots[id]
            .state
            .store(pack(STATUS_RUNNING, 0), Ordering::SeqCst);
    }

    /// Marks thread `id` as finished for the rest of the run.
    pub fn finished(&self, id: usize) {
        self.slots[id]
            .state
            .store(pack(STATUS_DONE, 0), Ordering::SeqCst);
        self.try_advance();
    }

    /// Captures per-thread wait accounting (host-side only).
    pub fn wait_snapshot(&self) -> GovWaitSnapshot {
        GovWaitSnapshot {
            engine: "epoch",
            per_proc: self.slots.iter().map(|s| s.stat.snapshot()).collect(),
        }
    }

    /// Scans the slot array and advances the window if every thread is
    /// at the gate past the current end, blocked, or done: any
    /// `Running` slot, or a gated slot whose time already fits the
    /// current window, vetoes the advance.
    fn try_advance(&self) {
        loop {
            let end = self.window_end.load(Ordering::SeqCst);
            let mut min_gate = u64::MAX;
            for slot in self.slots.iter() {
                let s = slot.state.load(Ordering::SeqCst);
                match s & STATUS_MASK {
                    STATUS_RUNNING => return,
                    STATUS_AT_GATE => {
                        let t = s >> STATUS_BITS;
                        if t < end {
                            // A woken-but-not-yet-resumed thread still
                            // counts as inside the window.
                            return;
                        }
                        min_gate = min_gate.min(t);
                    }
                    _ => {} // Blocked | Done: excluded from the quorum
                }
            }
            if min_gate == u64::MAX {
                return; // everyone blocked or done; nothing to gate
            }
            // Advance just far enough for the earliest gated thread to
            // fit inside the window.
            let steps = (min_gate + 1 - end).div_ceil(self.window);
            let new_end = end + steps * self.window;
            if self
                .window_end
                .compare_exchange(end, new_end, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.wake_fitting(new_end);
                return;
            }
            // Lost the closer election; rescan against the new end.
        }
    }

    /// Wakes exactly the parked threads whose gate falls inside the new
    /// window. Locking the slot's park mutex before notifying pairs
    /// with the waiter's locked re-check of `window_end`, so a wake
    /// cannot slip between that check and the condvar wait.
    fn wake_fitting(&self, new_end: u64) {
        for slot in self.slots.iter() {
            let s = slot.state.load(Ordering::SeqCst);
            if s & STATUS_MASK == STATUS_AT_GATE && (s >> STATUS_BITS) < new_end {
                let _guard = slot.park_lock.lock();
                slot.park_cv.notify_one();
            }
        }
    }

    /// Waits until the window passes `t`; returns how many times the
    /// thread parked. Spin budget first (when the policy allows), then
    /// park on the slot condvar.
    fn wait_at_gate(&self, id: usize, t: u64) -> u64 {
        let slot = &self.slots[id];
        let mut spins = 0u32;
        let mut parks = 0u64;
        loop {
            if self.window_end.load(Ordering::SeqCst) > t {
                return parks;
            }
            if spins < self.spin_iters {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut guard = slot.park_lock.lock();
            if self.window_end.load(Ordering::SeqCst) > t {
                return parks;
            }
            parks += 1;
            slot.park_cv.wait(&mut guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_never_waits() {
        let gate = EpochGate::new(1, Cycles(100));
        for t in (0..10_000).step_by(37) {
            gate.tick(0, Cycles(t));
        }
    }

    #[test]
    fn fast_thread_waits_for_slow() {
        let gate = Arc::new(EpochGate::new(2, Cycles(100)));
        let g = Arc::clone(&gate);
        let fast = std::thread::spawn(move || {
            g.tick(0, Cycles(1000)); // far ahead; must wait
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!fast.is_finished(), "fast thread should be gated");
        gate.tick(1, Cycles(990));
        gate.finished(1);
        fast.join().unwrap();
    }

    #[test]
    fn blocked_thread_does_not_hold_window() {
        let gate = EpochGate::new(2, Cycles(100));
        gate.blocked(1);
        for t in (0..5_000).step_by(100) {
            gate.tick(0, Cycles(t));
        }
        gate.unblocked(1);
        gate.finished(1);
        gate.tick(0, Cycles(10_000));
    }

    #[test]
    fn finished_thread_does_not_hold_window() {
        let gate = EpochGate::new(2, Cycles(50));
        gate.finished(1);
        gate.tick(0, Cycles(100_000));
    }

    #[test]
    fn park_policy_still_progresses() {
        let n = 4;
        let gate = Arc::new(EpochGate::new(n, Cycles(10)).with_spin(SpinPolicy::Park));
        let mut handles = Vec::new();
        for id in 0..n {
            let g = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                let mut t = 0u64;
                for step in 0..300 {
                    t += 1 + ((id as u64 + step) % 5);
                    g.tick(id, Cycles(t));
                }
                g.finished(id);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = gate.wait_snapshot();
        assert!(snap.total_gates() > 0, "threads should have gated");
    }

    #[test]
    fn spin_policy_still_progresses() {
        let n = 4;
        let gate = Arc::new(EpochGate::new(n, Cycles(10)).with_spin(SpinPolicy::Spin));
        let mut handles = Vec::new();
        for id in 0..n {
            let g = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                let mut t = 0u64;
                for step in 0..300 {
                    t += 1 + ((id as u64 + step) % 5);
                    g.tick(id, Cycles(t));
                }
                g.finished(id);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn wait_snapshot_accounts_waits() {
        let gate = Arc::new(EpochGate::new(2, Cycles(100)).with_spin(SpinPolicy::Park));
        let g = Arc::clone(&gate);
        let fast = std::thread::spawn(move || {
            g.tick(0, Cycles(500));
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        gate.tick(1, Cycles(450));
        gate.finished(1);
        fast.join().unwrap();
        let snap = gate.wait_snapshot();
        assert_eq!(snap.per_proc.len(), 2);
        assert!(snap.per_proc[0].gates >= 1);
        assert!(snap.per_proc[0].wait_ns > 0, "the fast thread waited");
        let hist_count: u64 = snap.per_proc[0].hist.iter().sum();
        assert!(hist_count >= 1, "wait must land in a histogram bucket");
    }
}
