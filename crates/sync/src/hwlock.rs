//! Intra-SSMP hardware locks.

use mgs_sim::{CostModel, Cycles, VirtualScheduler};
use parking_lot::{Condvar, Mutex};

/// A plain hardware spin lock (LL/SC over hardware cache coherence).
///
/// Unlike [`MgsLock`](crate::MgsLock), acquiring or releasing a
/// hardware lock performs **no software coherence actions**: it is not
/// a release point for the delayed update queue. It is therefore only
/// correct when every processor that touches the protected data lives
/// in the *same SSMP* for the duration of the sharing (hardware cache
/// coherence keeps them consistent), as in the tiled Water kernel of
/// §5.2.3 where each tile is exclusive to one SSMP within a phase and
/// the phase barrier performs the page-grain release.
///
/// # Example
///
/// ```
/// use mgs_sync::HwLock;
/// use mgs_sim::{CostModel, Cycles};
///
/// let lock = HwLock::new(CostModel::alewife());
/// let t = lock.acquire(Cycles(100));
/// lock.release(t + Cycles(10));
/// ```
#[derive(Debug)]
pub struct HwLock {
    inner: Mutex<HwInner>,
    cond: Condvar,
    acquire_cost: Cycles,
    release_cost: Cycles,
}

#[derive(Debug)]
struct HwInner {
    held: bool,
    free_at: Cycles,
    /// Scheduler task ids descheduled on this lock; the releaser
    /// reschedules them all and the lowest-simulated-time one wins the
    /// re-acquire (the rest re-deschedule).
    vwaiters: Vec<usize>,
    /// Acquires granted so far.
    acquires: u64,
}

impl HwLock {
    /// Creates an unheld hardware lock.
    pub fn new(cost: CostModel) -> HwLock {
        HwLock {
            inner: Mutex::new(HwInner {
                held: false,
                free_at: Cycles::ZERO,
                vwaiters: Vec::new(),
                acquires: 0,
            }),
            cond: Condvar::new(),
            acquire_cost: cost.lock_local_acquire,
            release_cost: cost.lock_local_release,
        }
    }

    /// Acquires at simulated time `now`, blocking the calling thread
    /// while held. Returns the simulated grant time.
    pub fn acquire(&self, now: Cycles) -> Cycles {
        self.acquire_gov(now, None)
    }

    /// [`acquire`](Self::acquire) for a scheduled task: given its
    /// scheduler and task id, the task is suspended while the lock is
    /// held; without them the calling thread waits on the lock's
    /// condvar. An uncontended acquire never waits either way.
    pub fn acquire_gov(&self, now: Cycles, gov: Option<(&VirtualScheduler, usize)>) -> Cycles {
        let mut inner = self.inner.lock();
        while inner.held {
            // Re-register before each wait in case the releaser drained
            // us but another task won the lock.
            if let Some((_, id)) = gov.filter(|&(_, id)| !inner.vwaiters.contains(&id)) {
                inner.vwaiters.push(id);
            }
            inner = crate::wait(gov, &self.inner, &self.cond, inner);
        }
        inner.held = true;
        inner.acquires += 1;
        now.max(inner.free_at) + self.acquire_cost
    }

    /// Acquires granted so far (the machine's `HwLockAcquires`).
    pub fn acquires(&self) -> u64 {
        self.inner.lock().acquires
    }

    /// Releases at simulated time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release(&self, now: Cycles) {
        self.release_gov(now, None);
    }

    /// [`release`](Self::release) for a scheduled task: every
    /// suspended waiter is resumed through `sched` (the lowest simulated
    /// time re-acquires first).
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release_gov(&self, now: Cycles, sched: Option<&VirtualScheduler>) {
        let mut inner = self.inner.lock();
        assert!(inner.held, "release of an unheld hardware lock");
        inner.held = false;
        inner.free_at = now.max(inner.free_at) + self.release_cost;
        self.cond.notify_one();
        let waiters = std::mem::take(&mut inner.vwaiters);
        drop(inner);
        if let Some(sched) = sched {
            sched.resume_many(&waiters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grant_time_includes_acquire_cost() {
        let l = HwLock::new(CostModel::alewife());
        let t = l.acquire(Cycles(100));
        assert_eq!(t, Cycles(100) + CostModel::alewife().lock_local_acquire);
        l.release(t);
    }

    #[test]
    fn successor_waits_for_release_time() {
        let l = HwLock::new(CostModel::alewife());
        let t = l.acquire(Cycles(0));
        l.release(t + Cycles(5000));
        let t2 = l.acquire(Cycles(0));
        assert!(t2 > t + Cycles(5000));
        l.release(t2);
    }

    #[test]
    fn provides_real_mutual_exclusion() {
        let l = Arc::new(HwLock::new(CostModel::alewife()));
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let t = l.acquire(Cycles(0));
                        let v = c.load(std::sync::atomic::Ordering::Relaxed);
                        std::hint::spin_loop();
                        c.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                        l.release(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 800);
        assert_eq!(l.acquires(), 800);
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn release_unheld_panics() {
        HwLock::new(CostModel::alewife()).release(Cycles(0));
    }
}
