//! The MGS token-based distributed lock.

use mgs_sim::{CostModel, Counter, Cycles, VirtualScheduler};
use parking_lot::{Condvar, Mutex};

/// Lock acquisition statistics (Figure 11 of the paper).
#[derive(Debug, Default)]
pub struct LockStats {
    /// Total acquires.
    pub acquires: Counter,
    /// Acquires that succeeded without inter-SSMP communication.
    pub hits: Counter,
}

impl LockStats {
    /// The lock hit ratio: hits / acquires (1.0 when unused, matching
    /// the trivial case of a single SSMP).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.acquires.get();
        if total == 0 {
            1.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Waiter {
    id: u64,
    ssmp: usize,
    req_time: Cycles,
    /// The waiter's scheduler task id, when it waits descheduled: the
    /// releaser reschedules exactly this task. `None` for a standalone
    /// waiter parked on the condvar.
    task: Option<usize>,
    grant: Option<(Cycles, bool)>,
}

#[derive(Debug)]
struct LockInner {
    held: bool,
    token_ssmp: usize,
    free_at: Cycles,
    waiters: Vec<Waiter>,
    /// The id the next queued waiter takes.
    next_id: u64,
}

/// A token-based distributed lock (§3.2).
///
/// Consists conceptually of a local lock on each SSMP and one global
/// lock; a token circulates among the local locks. An acquire from the
/// SSMP that owns the token succeeds locally (a *hit*); an acquire from
/// another SSMP must transfer the token through the global lock, paying
/// two inter-SSMP message crossings plus fixed software overhead (a
/// *miss*).
///
/// The lock provides real mutual exclusion for the simulator's threads
/// and simultaneously computes simulated acquisition times. When
/// several waiters queue, the earliest simulated requester is granted
/// next, except that a waiter from the token-owning SSMP whose request
/// falls within the *affinity window* of the earliest request is
/// preferred — this models the token's tendency to stay put that the
/// paper reports ("Once a local lock owns a token, repeated acquires
/// from the same SSMP succeed without inter-SSMP communication").
///
/// # Example
///
/// ```
/// use mgs_sync::MgsLock;
/// use mgs_sim::{CostModel, Cycles};
///
/// let lock = MgsLock::new(CostModel::alewife(), Cycles(1000), 4);
/// let (t1, hit1) = lock.acquire(0, Cycles(0));
/// assert!(hit1); // token starts at SSMP 0
/// lock.release(t1 + Cycles(100));
/// let (t2, hit2) = lock.acquire(2, t1);
/// assert!(!hit2); // token must transfer to SSMP 2
/// assert!(t2 > t1 + Cycles(100));
/// lock.release(t2);
/// ```
#[derive(Debug)]
pub struct MgsLock {
    inner: Mutex<LockInner>,
    cond: Condvar,
    cost: CostModel,
    ext_latency: Cycles,
    affinity_window: Cycles,
    stats: LockStats,
}

impl MgsLock {
    /// Default affinity window (cycles): waiters from the token-owning
    /// SSMP overtake remote waiters that requested at most this much
    /// earlier.
    pub const DEFAULT_AFFINITY_WINDOW: Cycles = Cycles(2000);

    /// Creates a lock for a machine of `n_ssmps` SSMPs. The token
    /// starts at SSMP 0.
    pub fn new(cost: CostModel, ext_latency: Cycles, n_ssmps: usize) -> MgsLock {
        let _ = n_ssmps;
        MgsLock {
            inner: Mutex::new(LockInner {
                held: false,
                token_ssmp: 0,
                free_at: Cycles::ZERO,
                waiters: Vec::new(),
                next_id: 0,
            }),
            cond: Condvar::new(),
            cost,
            ext_latency,
            affinity_window: Self::DEFAULT_AFFINITY_WINDOW,
            stats: LockStats::default(),
        }
    }

    /// Overrides the affinity window (0 disables token affinity and
    /// yields strict simulated-FIFO granting; used by the ablation
    /// bench).
    pub fn with_affinity_window(mut self, window: Cycles) -> MgsLock {
        self.affinity_window = window;
        self
    }

    /// Acquisition statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Grant cost for `ssmp` given the current token position. Returns
    /// `(grant_time, hit)`.
    fn grant(&self, inner: &mut LockInner, ssmp: usize, earliest: Cycles) -> (Cycles, bool) {
        let base = earliest.max(inner.free_at);
        if ssmp == inner.token_ssmp {
            (base + self.cost.lock_local_acquire, true)
        } else {
            // Global-lock acquisition + token transfer: two crossings.
            inner.token_ssmp = ssmp;
            (
                base + self.cost.lock_token_fixed + self.cost.crossing(self.ext_latency) * 2,
                false,
            )
        }
    }

    /// Acquires the lock for a processor of `ssmp` whose simulated clock
    /// reads `now`. Blocks the calling thread while the lock is held.
    /// Returns `(grant_time, hit)`: the simulated time at which the
    /// acquire completes, and whether it needed no inter-SSMP
    /// communication.
    pub fn acquire(&self, ssmp: usize, now: Cycles) -> (Cycles, bool) {
        self.acquire_gov(ssmp, now, None)
    }

    /// [`acquire`](Self::acquire) for a scheduled task: given its
    /// scheduler and task id, a contended acquire suspends the task
    /// until the releaser resumes it; without them the calling thread
    /// waits on the lock's condvar. Uncontended acquires never wait
    /// either way.
    pub fn acquire_gov(
        &self,
        ssmp: usize,
        now: Cycles,
        gov: Option<(&VirtualScheduler, usize)>,
    ) -> (Cycles, bool) {
        let mut inner = self.inner.lock();
        self.stats.acquires.incr();
        if !inner.held {
            inner.held = true;
            let (t, hit) = self.grant(&mut inner, ssmp, now);
            if hit {
                self.stats.hits.incr();
            }
            return (t, hit);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.waiters.push(Waiter {
            id,
            ssmp,
            req_time: now,
            task: gov.map(|(_, id)| id),
            grant: None,
        });
        loop {
            if let Some(res) = self.try_take_grant(&mut inner, id) {
                return res;
            }
            inner = crate::wait(gov, &self.inner, &self.cond, inner);
        }
    }

    /// Removes and returns waiter `id`'s grant, if the releaser has
    /// issued it.
    fn try_take_grant(&self, inner: &mut LockInner, id: u64) -> Option<(Cycles, bool)> {
        let pos = inner
            .waiters
            .iter()
            .position(|w| w.id == id && w.grant.is_some())?;
        let w = inner.waiters.swap_remove(pos);
        let (t, hit) = w.grant.expect("checked above");
        if hit {
            self.stats.hits.incr();
        }
        Some((t, hit))
    }

    /// Releases the lock at simulated time `now` (after the caller has
    /// performed its release-consistency flush, so critical-section
    /// dilation is captured). If waiters queue, the next holder is
    /// chosen and woken.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release(&self, now: Cycles) {
        self.release_gov(now, None);
    }

    /// [`release`](Self::release) for a scheduled task: a granted
    /// waiter that suspended is resumed through `sched`'s time-ordered
    /// ready queue; condvar waiters are notified either way.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release_gov(&self, now: Cycles, sched: Option<&VirtualScheduler>) {
        let mut inner = self.inner.lock();
        assert!(inner.held, "release of an unheld lock");
        inner.free_at = now.max(inner.free_at) + self.cost.lock_local_release;
        let Some(next) = self.pick_next(&inner) else {
            inner.held = false;
            return;
        };
        let (ssmp, req_time, task) = {
            let w = &inner.waiters[next];
            (w.ssmp, w.req_time, w.task)
        };
        let grant = self.grant(&mut inner, ssmp, req_time);
        inner.waiters[next].grant = Some(grant);
        self.cond.notify_all();
        drop(inner);
        if let (Some(sched), Some(task)) = (sched, task) {
            sched.resume(task);
        }
    }

    /// Chooses the next waiter: the earliest simulated requester, unless
    /// a token-SSMP waiter requested within the affinity window of it.
    fn pick_next(&self, inner: &LockInner) -> Option<usize> {
        let pending = inner.waiters.iter().filter(|w| w.grant.is_none());
        let earliest = pending.clone().map(|w| w.req_time).min()?;
        let cutoff = earliest + self.affinity_window;
        let choice = pending
            .clone()
            .filter(|w| w.ssmp == inner.token_ssmp && w.req_time <= cutoff)
            .min_by_key(|w| (w.req_time, w.id))
            .or_else(|| pending.min_by_key(|w| (w.req_time, w.id)))?;
        inner.waiters.iter().position(|w| w.id == choice.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn lock() -> MgsLock {
        MgsLock::new(CostModel::alewife(), Cycles(1000), 4)
    }

    #[test]
    fn uncontended_local_acquire_is_a_hit() {
        let l = lock();
        let (t, hit) = l.acquire(0, Cycles(100));
        assert!(hit);
        assert_eq!(t, Cycles(100) + CostModel::alewife().lock_local_acquire);
        l.release(t);
        assert_eq!(l.stats().hit_ratio(), 1.0);
    }

    #[test]
    fn remote_acquire_transfers_token() {
        let l = lock();
        let (t, hit) = l.acquire(2, Cycles(0));
        assert!(!hit);
        let cm = CostModel::alewife();
        assert_eq!(t, cm.lock_token_fixed + cm.crossing(Cycles(1000)) * 2);
        l.release(t);
        // Token now lives at SSMP 2: the next acquire there hits.
        let (_, hit2) = l.acquire(2, t);
        assert!(hit2);
        assert!((l.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn release_time_gates_next_acquire() {
        let l = lock();
        let (t, _) = l.acquire(0, Cycles(0));
        l.release(t + Cycles(50_000)); // long critical section
        let (t2, _) = l.acquire(0, Cycles(0));
        assert!(t2 > t + Cycles(50_000), "dilated section delays successor");
        l.release(t2);
    }

    #[test]
    fn blocked_waiter_is_granted_on_release() {
        let l = Arc::new(lock());
        let (t, _) = l.acquire(0, Cycles(0));
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || l2.acquire(1, Cycles(10)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!h.is_finished(), "waiter must block while held");
        l.release(t + Cycles(500));
        let (t2, hit2) = h.join().unwrap();
        assert!(!hit2, "different SSMP: token transfer");
        assert!(t2 > t + Cycles(500));
        l.release(t2);
    }

    #[test]
    fn affinity_prefers_token_ssmp_within_window() {
        let l = Arc::new(lock());
        let (t, _) = l.acquire(0, Cycles(0));
        // Two waiters: a remote one slightly earlier, a local one within
        // the affinity window.
        let l1 = Arc::clone(&l);
        let w_remote = std::thread::spawn(move || l1.acquire(3, Cycles(100)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let l2 = Arc::clone(&l);
        let w_local = std::thread::spawn(move || l2.acquire(0, Cycles(200)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        l.release(t + Cycles(1_000));
        // The local waiter is granted first (a hit), then the remote.
        let (tl, hl) = w_local.join().unwrap();
        l.release(tl);
        let (tr, hr) = w_remote.join().unwrap();
        l.release(tr);
        assert!(hl, "token-SSMP waiter within window wins");
        assert!(!hr);
        assert!(tr > tl);
    }

    #[test]
    fn zero_affinity_window_is_simulated_fifo() {
        let l = Arc::new(
            MgsLock::new(CostModel::alewife(), Cycles(1000), 4).with_affinity_window(Cycles::ZERO),
        );
        let (t, _) = l.acquire(0, Cycles(0));
        let l1 = Arc::clone(&l);
        let w_remote = std::thread::spawn(move || l1.acquire(3, Cycles(100)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let l2 = Arc::clone(&l);
        let w_local = std::thread::spawn(move || l2.acquire(0, Cycles(200)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        l.release(t + Cycles(1_000));
        let (tr, _) = w_remote.join().unwrap();
        l.release(tr);
        let (tl, _) = w_local.join().unwrap();
        l.release(tl);
        assert!(tl > tr, "earliest simulated requester granted first");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let l = Arc::new(lock());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..8usize {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut now = Cycles::ZERO;
                for _ in 0..100 {
                    let (t, _) = l.acquire(p % 4, now);
                    // Critical section: non-atomic increment pattern.
                    let v = c.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    c.store(v + 1, Ordering::Relaxed);
                    now = t + Cycles(100);
                    l.release(now);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn releasing_unheld_lock_panics() {
        lock().release(Cycles(0));
    }
}
