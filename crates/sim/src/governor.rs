//! Windowed time governor bounding simulated-clock skew.
//!
//! [`TimeGovernor`] is the front door: an enum with one pacing
//! implementation per execution engine.
//!
//! * [`EpochGate`](crate::EpochGate) — the sharded, lock-free gate of
//!   the threaded engine (see `gate.rs` for the design).
//! * [`VirtualScheduler`](crate::VirtualScheduler) — the M:N
//!   virtual-processor scheduler, where pacing is a side effect of
//!   admission: the scheduler always runs the lowest-simulated-time
//!   tasks, so a governed wait is a priority-queue reschedule rather
//!   than a park/unpark round-trip (see `vsched.rs`).
//!
//! Both bound skew identically and neither ever charges simulated
//! cycles, so simulated results are bit-identical with the governor on
//! or off and across engines; `tests/governor_equivalence.rs` and
//! `tests/engine_equivalence.rs` enforce this.

use crate::gate::{EpochGate, GovWaitSnapshot};
use crate::vsched::VirtualScheduler;
use crate::Cycles;

/// Bounds the skew between the simulated clocks of concurrently-running
/// processor threads.
///
/// The simulator is execution-driven: each simulated processor is a real
/// OS thread that advances its own simulated clock. Without coordination
/// a fast thread could race arbitrarily far ahead in simulated time,
/// distorting the order in which contended resources (locks, work
/// queues) are granted. The governor divides simulated time into windows
/// of `window` cycles; a thread whose clock has passed the current
/// window's end waits until every other *runnable* thread has also
/// reached it, at which point the window advances.
///
/// Threads that block on real synchronization (a held lock, a barrier,
/// a page-fill in progress) must mark themselves with
/// [`TimeGovernor::blocked`] so that the window can advance without
/// them; otherwise the simulation would deadlock.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mgs_sim::{Cycles, TimeGovernor};
///
/// let gov = Arc::new(TimeGovernor::new(2, Cycles(1000)));
/// let g2 = Arc::clone(&gov);
/// let t = std::thread::spawn(move || {
///     g2.tick(1, Cycles(2500)); // waits for thread 0 to catch up
/// });
/// gov.tick(0, Cycles(2600));
/// t.join().unwrap();
/// ```
#[derive(Debug)]
pub enum TimeGovernor {
    /// The sharded, lock-free epoch gate (the threaded default).
    Epoch(EpochGate),
    /// The M:N virtual-processor scheduler: pacing by admission order
    /// instead of parking, for machines far larger than the host.
    Virtual(VirtualScheduler),
}

impl TimeGovernor {
    /// Creates the default (epoch-gate) governor for `n` threads with
    /// the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `window` is zero cycles.
    pub fn new(n: usize, window: Cycles) -> TimeGovernor {
        TimeGovernor::Epoch(EpochGate::new(n, window))
    }

    /// Creates the virtual-processor scheduler governor: `n` tasks
    /// scheduled onto at most `workers` concurrently-admitted host
    /// threads, lowest simulated time first (`MGS_VWORKERS` overrides
    /// `workers`). Threads driven by this governor **must** check in
    /// via [`check_in`](Self::check_in) before their first tick.
    pub fn new_virtual(n: usize, window: Cycles, workers: usize) -> TimeGovernor {
        TimeGovernor::Virtual(VirtualScheduler::new(n, window, workers))
    }

    /// The configured window size.
    pub fn window(&self) -> Cycles {
        match self {
            TimeGovernor::Epoch(g) => g.window(),
            TimeGovernor::Virtual(g) => g.window(),
        }
    }

    /// The virtual scheduler behind this governor, if that is the
    /// engine in use.
    pub fn virtual_scheduler(&self) -> Option<&VirtualScheduler> {
        match self {
            TimeGovernor::Virtual(g) => Some(g),
            _ => None,
        }
    }

    /// Thread `id` announces itself ready to run. A no-op for the
    /// threaded governor; under the virtual scheduler this parks the
    /// thread until it is admitted (and no task is admitted until all
    /// have checked in, making admission order spawn-invariant).
    pub fn check_in(&self, id: usize) {
        if let TimeGovernor::Virtual(g) = self {
            g.start(id);
        }
    }

    /// Called by thread `id` between operations with its current local
    /// time. If the thread has run past the current window it waits
    /// until the window advances.
    #[inline]
    pub fn tick(&self, id: usize, local_time: Cycles) {
        match self {
            TimeGovernor::Epoch(g) => g.tick(id, local_time),
            TimeGovernor::Virtual(g) => g.tick(id, local_time),
        }
    }

    /// Marks thread `id` as blocked on real synchronization. The window
    /// may advance without it. Pair with [`unblocked`](Self::unblocked).
    pub fn blocked(&self, id: usize) {
        match self {
            TimeGovernor::Epoch(g) => g.blocked(id),
            TimeGovernor::Virtual(g) => g.blocked(id),
        }
    }

    /// Marks thread `id` as runnable again after a real block.
    pub fn unblocked(&self, id: usize) {
        match self {
            TimeGovernor::Epoch(g) => g.unblocked(id),
            TimeGovernor::Virtual(g) => g.unblocked(id),
        }
    }

    /// Marks thread `id` as finished for the rest of the run.
    pub fn finished(&self, id: usize) {
        match self {
            TimeGovernor::Epoch(g) => g.finished(id),
            TimeGovernor::Virtual(g) => g.finished(id),
        }
    }

    /// Captures per-thread wait accounting (host-side only; never
    /// touches simulated time).
    pub fn wait_snapshot(&self) -> GovWaitSnapshot {
        match self {
            TimeGovernor::Epoch(g) => g.wait_snapshot(),
            TimeGovernor::Virtual(g) => g.wait_snapshot(),
        }
    }
}

/// Borrowed handle pairing a governor with a processor-thread id, for
/// layers (like `mgs-sync`) that mark blocked sections without knowing
/// the thread's `Env`.
#[derive(Debug, Clone, Copy)]
pub struct GovHook<'a> {
    gov: &'a TimeGovernor,
    id: usize,
}

impl<'a> GovHook<'a> {
    /// Pairs `gov` with thread `id`.
    pub fn new(gov: &'a TimeGovernor, id: usize) -> GovHook<'a> {
        GovHook { gov, id }
    }

    /// The processor-thread id this hook speaks for.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Marks the thread blocked on real synchronization; the returned
    /// guard marks it runnable again when dropped. Scoping the guard to
    /// exactly the host-side wait keeps the governor's view of
    /// runnability tight: an uncontended acquire never reports a block.
    pub fn enter_blocked(self) -> BlockedSection<'a> {
        self.gov.blocked(self.id);
        BlockedSection {
            gov: self.gov,
            id: self.id,
        }
    }

    /// Whether this hook speaks for the virtual-processor scheduler,
    /// i.e. whether sync primitives should wait by
    /// [`deschedule`](Self::deschedule)/[`wake`](Self::wake) instead of
    /// by condvar.
    pub fn is_virtual(&self) -> bool {
        matches!(self.gov, TimeGovernor::Virtual(_))
    }

    /// Virtual-engine wait: deschedules the calling task until a peer
    /// [`wake`](Self::wake)s it, and returns `true`. Returns `false`
    /// without waiting under the threaded governor — the caller must
    /// then fall back to its condvar wait. **Never call while holding
    /// a mutex the waking peer needs**: the primitive registers the
    /// waiter, drops its lock, then deschedules (a wake that races
    /// ahead is consumed, not lost).
    pub fn deschedule(&self) -> bool {
        match self.gov {
            TimeGovernor::Virtual(g) => {
                g.suspend(self.id);
                true
            }
            _ => false,
        }
    }

    /// Virtual-engine wake of peer task `target` (typically: a lock
    /// releaser rescheduling the waiter it granted to, or the final
    /// barrier arriver rescheduling the field). A no-op under the
    /// threaded governor, so releasers can call it unconditionally
    /// alongside their condvar notify.
    pub fn wake(&self, target: usize) {
        if let TimeGovernor::Virtual(g) = self.gov {
            g.resume(target);
        }
    }

    /// Batched [`wake`](Self::wake) for group releases (a barrier's
    /// final arriver, a hardware-lock herd): one scheduler pass for the
    /// whole waiter set instead of one per task. A no-op under the
    /// threaded governor.
    pub fn wake_many(&self, targets: &[usize]) {
        if let TimeGovernor::Virtual(g) = self.gov {
            g.resume_many(targets);
        }
    }
}

/// RAII guard for a governor blocked section; see
/// [`GovHook::enter_blocked`].
#[derive(Debug)]
pub struct BlockedSection<'a> {
    gov: &'a TimeGovernor,
    id: usize,
}

impl Drop for BlockedSection<'_> {
    fn drop(&mut self) {
        self.gov.unblocked(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Gate semantics proper are unit-tested in `gate.rs`; these cover the
    // enum front door and the `GovHook` guard.

    #[test]
    fn many_threads_progress_together() {
        let n = 8;
        let gov = Arc::new(TimeGovernor::new(n, Cycles(10)));
        let mut handles = Vec::new();
        for id in 0..n {
            let g = Arc::clone(&gov);
            handles.push(std::thread::spawn(move || {
                let mut t = 0u64;
                for step in 0..200 {
                    t += 1 + ((id as u64 + step) % 7);
                    g.tick(id, Cycles(t));
                }
                g.finished(id);
                t
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn blocked_section_guard_unblocks_on_drop() {
        let gov = TimeGovernor::new(2, Cycles(100));
        let hook = GovHook::new(&gov, 1);
        {
            let _section = hook.enter_blocked();
            // Window can advance past the blocked thread.
            for t in (0..5_000).step_by(100) {
                gov.tick(0, Cycles(t));
            }
        }
        // Thread 1 is runnable again: it gates (and is waited for).
        gov.tick(1, Cycles(4_900));
        gov.finished(1);
        gov.tick(0, Cycles(50_000));
    }
}
