//! The virtual-processor scheduler: M:N execution of simulated
//! processors on a bounded host worker budget. It paces every machine.
//!
//! Giving every simulated processor a dedicated, always-runnable OS
//! thread caps the machine at roughly the host's core count times a
//! small constant: at `P = 2048` the OS scheduler round-robins
//! thousands of runnable threads and every skew-bound advance turns
//! into a futex storm.
//!
//! [`VirtualScheduler`] inverts the relationship: the scheduler *is*
//! the skew bound. Each simulated processor is a **task** — a resumable
//! continuation whose suspension points are every charged access (via
//! `tick`) and every lock/barrier wait (via `suspend`). The scheduler
//! keeps a time-ordered ready queue (a binary heap keyed on
//! `(local_time, pid)`) and admits at most `workers` tasks at once,
//! always preferring the tasks with the **lowest simulated time**.
//! A governed wait is then an O(log P) heap reschedule instead of a
//! park/unpark round-trip against every other thread, and a task that
//! blocks on simulated synchronization costs the host *nothing* until
//! the releaser reschedules it.
//!
//! Tasks are backed by host threads used purely as continuations
//! (stack + register state); a task not admitted by the scheduler is
//! parked and invisible to the OS scheduler. This gives the
//! corosensei/generator shape — suspend anywhere, resume later —
//! with no dependency beyond `std`, and it means the application
//! loops in `mgs-apps` need **no** explicit-state rewrite: every
//! `Env::read`/`write`/lock/barrier already routes through the hooks
//! below.
//!
//! # Pacing semantics
//!
//! A task may run while its local time is under
//! `min(active task times) + window`, where *active* spans ready and
//! admitted tasks (suspended and host-blocked tasks do not hold the
//! window). The scheduler **never charges simulated cycles** —
//! simulated results on the deterministic envelope are bit-identical
//! at every window and worker budget, and with pacing off
//! ([`VirtualScheduler::unpaced`]); `tests/engine_equivalence.rs` and
//! `tests/governor_equivalence.rs` at the workspace root enforce this.
//!
//! # Determinism
//!
//! With `workers = 1` a run is **fully deterministic**: exactly one
//! task executes at any instant, every scheduling decision is a pure
//! function of simulated time and pid, and therefore *entire
//! application runs* — including schedule-sensitive ones like TSP and
//! lossy-fabric runs — produce bit-identical reports run after run.

use crate::gate::WaitStat;
use crate::{Cycles, GovWaitSnapshot};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Environment variable pinning the worker budget (host admission
/// slots) regardless of what the machine configuration asked for.
/// CI uses `MGS_VWORKERS=1` to prove every suite is
/// oversubscription-safe on a single host thread.
pub const VWORKERS_ENV: &str = "MGS_VWORKERS";

/// A task's lifecycle state, as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStatus {
    /// Spawned but not yet checked in via [`VirtualScheduler::start`].
    Unstarted,
    /// In the ready heap, waiting for an admission slot.
    Ready,
    /// Admitted: its host thread is running (or transiently finishing
    /// a host-side wait after `unblocked`).
    Running,
    /// Descheduled by a sync primitive; only [`resume`] makes it ready
    /// again.
    ///
    /// [`resume`]: VirtualScheduler::resume
    Suspended,
    /// In a host-side wait the scheduler cannot see through (the
    /// protocol's BUSY-fill condvar); excluded from the window, will
    /// return via `unblocked` without re-queuing.
    Blocked,
    /// Finished for the rest of the run.
    Done,
}

#[derive(Debug)]
struct VState {
    /// Ready tasks, lowest `(time, pid)` first. Entries are exact: a
    /// task's recorded time never changes while it sits in the heap.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Last simulated time each task reported (at start, tick, or
    /// suspension).
    time: Vec<u64>,
    status: Vec<VStatus>,
    /// A resume that arrived while the task had not suspended yet (it
    /// was between registering as a waiter and parking); consumed by
    /// the next `suspend`, which then returns immediately.
    resume_pending: Vec<bool>,
    /// The tasks currently `Running`, in no particular order: at most
    /// the worker budget plus transient `unblocked` overshoot, so the
    /// window minimum is a scan of this set, not of every task.
    running: Vec<usize>,
    /// Number of tasks currently `Blocked`.
    blocked: usize,
    started: usize,
    finished: usize,
}

impl VState {
    /// Takes task `id` out of the running set.
    fn leave_running(&mut self, id: usize) {
        let at = self
            .running
            .iter()
            .position(|&r| r == id)
            .expect("task leaving the running set was admitted");
        self.running.swap_remove(at);
    }
}

/// Per-task parking slot: the admission token handed over on grant.
#[derive(Debug)]
struct TaskSlot {
    granted: Mutex<bool>,
    cv: Condvar,
    stat: WaitStat,
}

/// M:N scheduler of simulated-processor tasks onto a bounded host
/// worker budget, ordered by simulated time. See the module docs for
/// the design; `mgs-core`'s `Machine::new` builds one per machine.
#[derive(Debug)]
pub struct VirtualScheduler {
    state: Mutex<VState>,
    /// Mirror of `min(active times) + window` for the lock-free tick
    /// fast path. `u64::MAX` when no task is gated by another.
    horizon: AtomicU64,
    /// Set when the run can no longer make progress (simulated deadlock
    /// detected, or a task panicked): every parked task is woken into a
    /// panic instead of waiting on a grant that will never come.
    poisoned: AtomicBool,
    window: u64,
    workers: usize,
    slots: Vec<TaskSlot>,
}

impl VirtualScheduler {
    /// Creates a scheduler for `n` tasks with the given skew window and
    /// worker budget (admission slots). The `MGS_VWORKERS` environment
    /// variable overrides `workers` when set.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `window` is zero, or the resolved worker
    /// budget is zero.
    pub fn new(n: usize, window: Cycles, workers: usize) -> VirtualScheduler {
        let workers = std::env::var(VWORKERS_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(workers);
        VirtualScheduler::build(n, window, workers)
    }

    /// Creates a scheduler that does not pace: all `n` tasks are
    /// admitted at once and no task ever waits for a slower one, so
    /// host threads free-run and only sync primitives deschedule. The
    /// `MGS_VWORKERS` override is **not** consulted — a task that spins
    /// on shared state (TSP polling its work queue) must never hold the
    /// only admission slot.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn unpaced(n: usize) -> VirtualScheduler {
        VirtualScheduler::build(n, Cycles::MAX, n)
    }

    fn build(n: usize, window: Cycles, workers: usize) -> VirtualScheduler {
        assert!(n > 0, "scheduler needs at least one task");
        assert!(!window.is_zero(), "scheduler window must be nonzero");
        assert!(workers > 0, "worker budget must be nonzero");
        VirtualScheduler {
            state: Mutex::new(VState {
                ready: BinaryHeap::with_capacity(n),
                time: vec![0; n],
                status: vec![VStatus::Unstarted; n],
                resume_pending: vec![false; n],
                running: Vec::with_capacity(workers),
                blocked: 0,
                started: 0,
                finished: 0,
            }),
            horizon: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            window: window.raw(),
            workers,
            slots: (0..n)
                .map(|_| TaskSlot {
                    granted: Mutex::new(false),
                    cv: Condvar::new(),
                    stat: WaitStat::new(),
                })
                .collect(),
        }
    }

    /// The skew window.
    pub fn window(&self) -> Cycles {
        Cycles(self.window)
    }

    /// The resolved worker budget (maximum concurrently-admitted
    /// tasks).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Task `id` checks in from its freshly-spawned host thread and
    /// parks until the scheduler admits it. No task is admitted until
    /// **all** tasks have checked in, so admission order — and, at
    /// `workers = 1`, the entire execution — is independent of thread
    /// spawn timing.
    pub fn start(&self, id: usize) {
        {
            let mut st = self.state.lock();
            debug_assert_eq!(st.status[id], VStatus::Unstarted);
            st.status[id] = VStatus::Ready;
            st.time[id] = 0;
            st.ready.push(Reverse((0, id)));
            st.started += 1;
            if st.started == st.time.len() {
                self.admit(&mut st);
            }
        }
        self.wait_for_grant(id);
    }

    /// Called by task `id` between operations with its current local
    /// time. If the task has run `window` cycles past the slowest
    /// active task it reschedules itself and parks until the queue
    /// ordering readmits it.
    #[inline]
    pub fn tick(&self, id: usize, local_time: Cycles) {
        let t = local_time.raw();
        // Lock-free fast path: inside the horizon (the common case).
        if t < self.horizon.load(Ordering::Acquire) {
            return;
        }
        self.gate(id, t);
    }

    /// Tick slow path: record our time, re-derive the horizon, and
    /// yield the admission slot if we are a full window ahead.
    #[cold]
    fn gate(&self, id: usize, t: u64) {
        let mut st = self.state.lock();
        st.time[id] = t;
        let min = self.active_min(&st);
        if t < min.saturating_add(self.window) {
            // Still inside the window once the true minimum is known
            // (the atomic mirror only lags while another task holds the
            // state lock). Publish and keep running.
            self.publish_horizon(&st);
            return;
        }
        // Yield: requeue at our own time and hand the slot to the
        // lowest-time ready task.
        self.slots[id].stat.record_gate();
        st.status[id] = VStatus::Ready;
        st.ready.push(Reverse((t, id)));
        st.leave_running(id);
        self.admit(&mut st);
        drop(st);
        let start = Instant::now();
        self.wait_for_grant(id);
        // Suspension waits are descheduled time, not governor parks:
        // report them in the wait histogram with a park count of zero.
        self.slots[id]
            .stat
            .record_wait(start.elapsed().as_nanos() as u64, 0);
    }

    /// Marks task `id` as entering a host-side wait the scheduler has
    /// no visibility into (the protocol's BUSY-fill condvar). The
    /// window advances without it and its admission slot is released.
    pub fn blocked(&self, id: usize) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.status[id], VStatus::Running);
        st.status[id] = VStatus::Blocked;
        st.leave_running(id);
        st.blocked += 1;
        self.admit(&mut st);
    }

    /// Marks task `id` runnable again after a host-side wait. The task
    /// resumes **immediately** (without re-queuing), transiently
    /// overshooting the worker budget; it re-enters normal admission at
    /// its next tick. This keeps the blocked/unblocked bracket safe to
    /// use while holding protocol mutexes — an `unblocked` that parked
    /// could deadlock the machine against the task holding its
    /// admission slot.
    pub fn unblocked(&self, id: usize) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.status[id], VStatus::Blocked);
        st.status[id] = VStatus::Running;
        st.blocked -= 1;
        st.running.push(id);
        // Its (possibly low) time re-enters the window computation.
        self.publish_horizon(&st);
    }

    /// Deschedules task `id` until [`resume`](Self::resume). Called by
    /// sync primitives **after** dropping their internal mutex, with
    /// the task's registration already visible to whoever will resume
    /// it; a resume that raced ahead of this call is consumed and the
    /// task keeps running.
    pub fn suspend(&self, id: usize) {
        {
            let mut st = self.state.lock();
            if st.resume_pending[id] {
                st.resume_pending[id] = false;
                return;
            }
            debug_assert_eq!(st.status[id], VStatus::Running);
            self.slots[id].stat.record_gate();
            st.status[id] = VStatus::Suspended;
            st.leave_running(id);
            self.admit(&mut st);
        }
        let start = Instant::now();
        self.wait_for_grant(id);
        self.slots[id]
            .stat
            .record_wait(start.elapsed().as_nanos() as u64, 0);
    }

    /// Makes a suspended task ready again (at its suspension-time
    /// priority). Races with a not-yet-parked suspender are resolved by
    /// `resume_pending`; resuming a ready/running/done task is a
    /// harmless no-op beyond that flag (waiters re-check their
    /// condition after every wake).
    pub fn resume(&self, id: usize) {
        self.resume_many(std::slice::from_ref(&id));
    }

    /// Batched [`resume`](Self::resume): moves every suspended task in
    /// `ids` back onto the ready queue under one scheduler-lock
    /// acquisition and runs admission once, instead of per task. This
    /// is the group-wake path for barriers and lock herds — with 31
    /// waiters it replaces 31 lock/admit round-trips with one.
    pub fn resume_many(&self, ids: &[usize]) {
        if ids.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        for &id in ids {
            match st.status[id] {
                VStatus::Suspended => {
                    st.status[id] = VStatus::Ready;
                    let t = st.time[id];
                    st.ready.push(Reverse((t, id)));
                }
                VStatus::Done => {}
                _ => st.resume_pending[id] = true,
            }
        }
        self.admit(&mut st);
    }

    /// Marks task `id` as finished for the rest of the run.
    pub fn finished(&self, id: usize) {
        let mut st = self.state.lock();
        match st.status[id] {
            VStatus::Done => return,
            VStatus::Running => st.leave_running(id),
            VStatus::Blocked => st.blocked -= 1,
            _ => {}
        }
        st.status[id] = VStatus::Done;
        st.finished += 1;
        self.admit(&mut st);
    }

    /// Per-task wait accounting: suspensions count as gates, the wait
    /// histogram holds descheduled host time, and parks are zero by
    /// construction (a descheduled task is not a governor park).
    pub fn wait_snapshot(&self) -> GovWaitSnapshot {
        GovWaitSnapshot {
            engine: "virtual",
            per_proc: self.slots.iter().map(|s| s.stat.snapshot()).collect(),
        }
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    /// Lowest recorded time over active (ready or running) tasks: the
    /// heap's top and a scan of the running set, O(workers) whatever
    /// the machine size.
    fn active_min(&self, st: &VState) -> u64 {
        let ready = st.ready.peek().map_or(u64::MAX, |Reverse((t, _))| *t);
        let min = st.running.iter().fold(ready, |m, &id| m.min(st.time[id]));
        // Debug builds re-derive the minimum from every task's status,
        // checking the running set's bookkeeping at every gate.
        #[cfg(debug_assertions)]
        {
            let scanned = st
                .status
                .iter()
                .zip(&st.time)
                .filter(|(&s, _)| s == VStatus::Running)
                .fold(ready, |m, (_, &t)| m.min(t));
            debug_assert_eq!(min, scanned, "running set out of step with task status");
        }
        min
    }

    /// Publishes the tick fast-path horizon from the current state.
    fn publish_horizon(&self, st: &VState) {
        let min = self.active_min(st);
        self.horizon
            .store(min.saturating_add(self.window), Ordering::Release);
    }

    /// Republishes the horizon, then fills free admission slots with
    /// the lowest-time ready tasks that fit inside the window. Also the
    /// deadlock-of-last-resort detector: if nothing is admissible,
    /// nothing is running, and nothing is host-blocked while tasks
    /// remain suspended, no future event can wake the machine.
    fn admit(&self, st: &mut VState) {
        if st.started < st.time.len() {
            return; // hold everyone until the full machine has spawned
        }
        debug_assert_eq!(
            st.blocked,
            st.status.iter().filter(|&&s| s == VStatus::Blocked).count(),
            "blocked count out of step with task status"
        );
        // Publish before granting: admission moves tasks from the ready
        // heap to the running set without changing the minimum over
        // both, so the value is already final — and a task granted
        // below starts ticking against `horizon` at once, on its own
        // host thread, while this one is still in the loop. It must not
        // find a stale value there (that would make its first ticks a
        // host-timing race, even at `workers = 1`).
        self.publish_horizon(st);
        while st.running.len() < self.workers {
            let Some(&Reverse((t, _))) = st.ready.peek() else {
                break;
            };
            // A ready task is admissible while it is within a window of
            // the slowest active task; the global minimum always is.
            let min = self.active_min(st);
            if t >= min.saturating_add(self.window) {
                break;
            }
            let Reverse((_, id)) = st.ready.pop().expect("peeked");
            debug_assert_eq!(st.status[id], VStatus::Ready);
            st.status[id] = VStatus::Running;
            st.running.push(id);
            self.grant(id);
        }
        // (No task is `Unstarted` here: admission is held until every
        // task has checked in.)
        if st.running.is_empty()
            && st.ready.is_empty()
            && st.finished < st.time.len()
            && st.blocked == 0
        {
            let stuck: Vec<usize> = st
                .status
                .iter()
                .enumerate()
                .filter(|(_, &s)| s == VStatus::Suspended)
                .map(|(i, _)| i)
                .collect();
            // Wake every parked task into a panic before panicking
            // ourselves, or the machine's thread scope would join
            // forever on tasks waiting for grants that cannot come.
            self.poison_slots();
            panic!(
                "scheduler deadlock: tasks {stuck:?} suspended with no \
                 runnable task left to resume them (simulated deadlock in the \
                 application or a lost wakeup in a sync primitive)"
            );
        }
    }

    /// Hands the admission token to task `id`.
    fn grant(&self, id: usize) {
        let slot = &self.slots[id];
        let mut g = slot.granted.lock();
        // (A poisoned run has force-granted every slot already.)
        debug_assert!(
            !*g || self.poisoned.load(Ordering::Acquire),
            "double grant to task {id}"
        );
        *g = true;
        slot.cv.notify_one();
    }

    /// Parks the calling task until its admission token arrives.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler was [`poison`](Self::poison)ed while the
    /// task was parked — the run is already failing elsewhere and this
    /// task must unwind rather than keep executing the application.
    fn wait_for_grant(&self, id: usize) {
        let slot = &self.slots[id];
        let mut g = slot.granted.lock();
        while !*g {
            slot.cv.wait(&mut g);
        }
        *g = false;
        drop(g);
        if self.poisoned.load(Ordering::Acquire) {
            panic!("scheduler poisoned: another task failed while task {id} was parked");
        }
    }

    /// Marks the run as failed and wakes every parked task into a
    /// panic. Called by the deadlock detector and by the machine's
    /// per-task panic guard: without it, one panicking task would leave
    /// its peers parked forever and the run's thread scope would never
    /// join. Idempotent.
    pub fn poison(&self) {
        self.poison_slots();
    }

    fn poison_slots(&self) {
        self.poisoned.store(true, Ordering::Release);
        for slot in &self.slots {
            let mut g = slot.granted.lock();
            *g = true;
            slot.cv.notify_one();
        }
    }
}

/// Borrowed handle pairing the scheduler with a task id, for layers
/// (like `mgs-sync`) that wait and wake without knowing the task's
/// `Env`. A primitive handed a hook waits by
/// [`deschedule`](Self::deschedule) and wakes by
/// [`wake`](Self::wake)/[`wake_many`](Self::wake_many); without one
/// (standalone use) it falls back to its own condvar.
#[derive(Debug, Clone, Copy)]
pub struct GovHook<'a> {
    sched: &'a VirtualScheduler,
    id: usize,
}

impl<'a> GovHook<'a> {
    /// Pairs `sched` with task `id`.
    pub fn new(sched: &'a VirtualScheduler, id: usize) -> GovHook<'a> {
        GovHook { sched, id }
    }

    /// The task id this hook speaks for.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Deschedules the calling task until a peer [`wake`](Self::wake)s
    /// it. **Never call while holding a mutex the waking peer needs**:
    /// the primitive registers the waiter, drops its lock, then
    /// deschedules (a wake that races ahead is consumed, not lost).
    pub fn deschedule(&self) {
        self.sched.suspend(self.id);
    }

    /// Reschedules peer task `target` (typically: a lock releaser
    /// rescheduling the waiter it granted to).
    pub fn wake(&self, target: usize) {
        self.sched.resume(target);
    }

    /// Batched [`wake`](Self::wake) for group releases (a barrier's
    /// final arriver, a hardware-lock herd): one scheduler pass for the
    /// whole waiter set instead of one per task.
    pub fn wake_many(&self, targets: &[usize]) {
        self.sched.resume_many(targets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Runs `n` tasks through a scheduler, each executing `body(id)`.
    fn run_tasks(sched: &Arc<VirtualScheduler>, n: usize, body: impl Fn(usize) + Sync) {
        std::thread::scope(|scope| {
            for id in 0..n {
                let sched = Arc::clone(sched);
                let body = &body;
                scope.spawn(move || {
                    sched.start(id);
                    body(id);
                    sched.finished(id);
                });
            }
        });
    }

    #[test]
    fn single_task_never_waits() {
        let s = Arc::new(VirtualScheduler::new(1, Cycles(100), 1));
        run_tasks(&s, 1, |_| {
            for t in (0..10_000).step_by(37) {
                s.tick(0, Cycles(t));
            }
        });
    }

    #[test]
    fn one_worker_serializes_in_time_order() {
        // Each task appends its id on every slice; with one worker and
        // equal strides the log must interleave in strict time order.
        let s = Arc::new(VirtualScheduler::new(3, Cycles(10), 1));
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let s2 = Arc::clone(&s);
        run_tasks(&s, 3, move |id| {
            for step in 1..=5u64 {
                l.lock().push((step * 100, id));
                s2.tick(id, Cycles(step * 100));
            }
        });
        let log = log.lock();
        // Everyone logs (100, _) before anyone logs (200, _), etc.:
        // times along the log are non-decreasing once sorted per step.
        let mut max_completed = 0;
        for w in log.windows(3) {
            let t = w[0].0;
            assert!(
                t >= max_completed,
                "slice at t={t} ran after t={max_completed} completed: {log:?}"
            );
            max_completed = max_completed.max(t.saturating_sub(100));
        }
        assert_eq!(log.len(), 15);
    }

    #[test]
    fn worker_budget_is_respected() {
        let s = Arc::new(VirtualScheduler::new(8, Cycles(1_000_000), 2));
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (l, p) = (Arc::clone(&live), Arc::clone(&peak));
        let s2 = Arc::clone(&s);
        run_tasks(&s, 8, move |id| {
            for step in 0..50u64 {
                let now = l.fetch_add(1, Ordering::SeqCst) + 1;
                p.fetch_max(now, Ordering::SeqCst);
                std::hint::spin_loop();
                l.fetch_sub(1, Ordering::SeqCst);
                s2.tick(id, Cycles(step));
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "admission exceeded budget"
        );
    }

    #[test]
    fn suspend_resume_roundtrip() {
        let s = Arc::new(VirtualScheduler::new(2, Cycles(100), 1));
        let flag = Arc::new(Mutex::new(false));
        let f = Arc::clone(&flag);
        let s2 = Arc::clone(&s);
        run_tasks(&s, 2, move |id| {
            if id == 0 {
                // Wait (suspended) until task 1 sets the flag.
                loop {
                    if *f.lock() {
                        break;
                    }
                    s2.suspend(0);
                }
            } else {
                for t in (0..5_000).step_by(100) {
                    s2.tick(1, Cycles(t));
                }
                *f.lock() = true;
                s2.resume(0);
            }
        });
    }

    #[test]
    fn resume_before_suspend_is_not_lost() {
        let s = Arc::new(VirtualScheduler::new(2, Cycles(100), 2));
        let s2 = Arc::clone(&s);
        run_tasks(&s, 2, move |id| {
            if id == 0 {
                // Peer resumes us before (or while) we suspend; either
                // way the pending flag guarantees we come back.
                s2.suspend(0);
            } else {
                s2.resume(0);
            }
        });
    }

    #[test]
    fn blocked_task_does_not_hold_window() {
        let s = Arc::new(VirtualScheduler::new(2, Cycles(50), 2));
        let s2 = Arc::clone(&s);
        run_tasks(&s, 2, move |id| {
            if id == 0 {
                s2.blocked(0);
                // Host-side wait stand-in; scheduler ignores us.
                std::thread::sleep(std::time::Duration::from_millis(5));
                s2.unblocked(0);
            } else {
                // Sails through many windows while 0 is blocked.
                for t in (0..50_000).step_by(50) {
                    s2.tick(1, Cycles(t));
                }
            }
        });
    }

    #[test]
    fn all_suspended_is_detected_and_poisons_parked_peers() {
        let s = Arc::new(VirtualScheduler::new(2, Cycles(100), 1));
        let handles: Vec<_> = (0..2)
            .map(|id| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    s.start(id);
                    s.suspend(id); // nobody will ever resume anyone
                    s.finished(id);
                })
            })
            .collect();
        // The detector panics in the last suspender; poisoning panics
        // the parked peer too, so both joins fail instead of hanging.
        let msgs: Vec<String> = handles
            .into_iter()
            .map(|h| {
                let payload = h.join().expect_err("task should have panicked");
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            })
            .collect();
        assert!(
            msgs.iter().any(|m| m.contains("deadlock")),
            "no deadlock diagnostic in {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("poisoned")),
            "parked peer was not poisoned: {msgs:?}"
        );
    }

    #[test]
    fn snapshot_counts_suspensions_as_gates_with_zero_parks() {
        let s = Arc::new(VirtualScheduler::new(2, Cycles(10), 1));
        let s2 = Arc::clone(&s);
        run_tasks(&s, 2, move |id| {
            for step in 1..=20u64 {
                s2.tick(id, Cycles(step * 10));
            }
        });
        let snap = s.wait_snapshot();
        assert_eq!(snap.engine, "virtual");
        let gates: u64 = snap.per_proc.iter().map(|p| p.gates).sum();
        let parks: u64 = snap.per_proc.iter().map(|p| p.parks).sum();
        assert!(gates > 0, "interleaved tasks must have rescheduled");
        assert_eq!(parks, 0, "a descheduled task is not a park");
    }

    #[test]
    fn running_set_tracks_every_transition_and_ends_empty() {
        // Four waiters suspend until the last of four drivers wakes
        // them in one batch; everyone also passes through a host-side
        // blocked bracket. Debug builds cross-check the running set and
        // the blocked count against the status array at every step.
        let s = Arc::new(VirtualScheduler::new(8, Cycles(100), 2));
        let released = Arc::new(AtomicBool::new(false));
        let drivers_left = Arc::new(AtomicUsize::new(4));
        let (s2, r, d) = (Arc::clone(&s), Arc::clone(&released), drivers_left);
        run_tasks(&s, 8, move |id| {
            if id < 4 {
                while !r.load(Ordering::SeqCst) {
                    s2.suspend(id);
                }
            } else {
                for t in (0..2_000).step_by(50) {
                    s2.tick(id, Cycles(t));
                }
            }
            s2.blocked(id);
            s2.unblocked(id);
            s2.tick(id, Cycles(2_000));
            if id >= 4 && d.fetch_sub(1, Ordering::SeqCst) == 1 {
                r.store(true, Ordering::SeqCst);
                s2.resume_many(&[0, 1, 2, 3]);
            }
        });
        let st = s.state.lock();
        assert!(st.running.is_empty(), "running set: {:?}", st.running);
        assert_eq!(st.blocked, 0);
        assert!(st.ready.is_empty());
        assert_eq!(st.finished, 8);
    }
}
