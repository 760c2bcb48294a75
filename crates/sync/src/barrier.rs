//! The MGS hierarchical tree barrier.

use mgs_sim::{CostModel, Cycles, VirtualScheduler};
use parking_lot::{Condvar, Mutex};

#[derive(Debug)]
struct BarInner {
    epoch: u64,
    arrived: usize,
    latest: Cycles,
    release_time: Cycles,
    /// Scheduler task ids of the descheduled arrivers of the current
    /// episode; the final arriver reschedules them through the
    /// time-ordered ready queue.
    vwaiters: Vec<usize>,
    /// Arrivals over every episode so far.
    arrivals: u64,
}

/// A tree barrier structured to match the DSSMP hierarchy (§3.2).
///
/// Level one synchronizes the processors of each SSMP through hardware
/// shared memory (flag toggling, `O(log C)` steps); level two
/// synchronizes the SSMPs with exactly two inter-SSMP messages per SSMP
/// — one combine up to the root SSMP, one release broadcast back — the
/// minimum the paper identifies.
///
/// The barrier is also a **release point**: callers flush their delayed
/// update queues *before* arriving (the `mgs-core` runtime does this),
/// so the simulated release time already reflects coherence traffic.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mgs_sync::MgsBarrier;
/// use mgs_sim::{CostModel, Cycles};
///
/// let bar = Arc::new(MgsBarrier::new(CostModel::alewife(), Cycles(1000), 2, 2));
/// let handles: Vec<_> = (0..4).map(|p| {
///     let bar = Arc::clone(&bar);
///     std::thread::spawn(move || bar.arrive(Cycles(100 * p as u64)))
/// }).collect();
/// let times: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
/// // Everyone leaves at the same simulated instant, after the slowest.
/// assert!(times.iter().all(|&t| t == times[0] && t > Cycles(300)));
/// ```
#[derive(Debug)]
pub struct MgsBarrier {
    inner: Mutex<BarInner>,
    cond: Condvar,
    n_procs: usize,
    episode_cost: Cycles,
}

impl MgsBarrier {
    /// Creates a barrier for a machine of `n_ssmps` SSMPs ×
    /// `procs_per_ssmp` processors.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(
        cost: CostModel,
        ext_latency: Cycles,
        n_ssmps: usize,
        procs_per_ssmp: usize,
    ) -> MgsBarrier {
        assert!(n_ssmps > 0 && procs_per_ssmp > 0, "counts must be nonzero");
        MgsBarrier {
            inner: Mutex::new(BarInner {
                epoch: 0,
                arrived: 0,
                latest: Cycles::ZERO,
                release_time: Cycles::ZERO,
                vwaiters: Vec::new(),
                arrivals: 0,
            }),
            cond: Condvar::new(),
            n_procs: n_ssmps * procs_per_ssmp,
            episode_cost: Self::episode_cost(&cost, ext_latency, n_ssmps, procs_per_ssmp),
        }
    }

    /// Simulated cost of one barrier episode after the last arrival.
    ///
    /// Intra-SSMP: a combining tree of flags, two traversals (combine +
    /// release), `O(log₂ C)` levels each. Inter-SSMP: one combine
    /// crossing and one release crossing on the critical path, plus the
    /// root's per-SSMP combine handling.
    fn episode_cost(
        cost: &CostModel,
        ext_latency: Cycles,
        n_ssmps: usize,
        procs_per_ssmp: usize,
    ) -> Cycles {
        let levels = usize::BITS - (procs_per_ssmp.max(1) - 1).leading_zeros(); // ceil(log2 C)
        let intra = cost.barrier_fixed + cost.barrier_flag * (2 * levels as u64);
        if n_ssmps <= 1 {
            intra
        } else {
            let combine = cost.crossing(ext_latency) + cost.barrier_ssmp_handler * n_ssmps as u64;
            let release = cost.crossing(ext_latency);
            intra + combine + release
        }
    }

    /// The per-episode simulated cost (exposed for tests and the
    /// harness).
    pub fn cost_per_episode(&self) -> Cycles {
        self.episode_cost
    }

    /// Arrivals over every episode so far (the machine's
    /// `BarrierArrivals`).
    pub fn arrivals(&self) -> u64 {
        self.inner.lock().arrivals
    }

    /// Arrives at the barrier at simulated time `now`; blocks until all
    /// processors have arrived and returns the common simulated release
    /// time.
    pub fn arrive(&self, now: Cycles) -> Cycles {
        self.arrive_gov(now, None)
    }

    /// [`arrive`](Self::arrive) for a scheduled task: given its
    /// scheduler and task id, a non-final arriver is suspended until the
    /// episode's last arrival resumes it; without them it waits on the
    /// barrier's condvar. The final arriver never waits.
    pub fn arrive_gov(&self, now: Cycles, gov: Option<(&VirtualScheduler, usize)>) -> Cycles {
        let mut inner = self.inner.lock();
        inner.arrived += 1;
        inner.arrivals += 1;
        inner.latest = inner.latest.max(now);
        if inner.arrived == self.n_procs {
            inner.release_time = inner.latest + self.episode_cost;
            inner.arrived = 0;
            inner.latest = Cycles::ZERO;
            inner.epoch += 1;
            self.cond.notify_all();
            let release_time = inner.release_time;
            let waiters = std::mem::take(&mut inner.vwaiters);
            drop(inner);
            // Reschedule every descheduled arriver through the ready
            // queue — they resume in simulated-time order as admission
            // slots free up, not as a herd.
            if let Some((sched, _)) = gov {
                sched.resume_many(&waiters);
            }
            release_time
        } else {
            let epoch = inner.epoch;
            if let Some((_, id)) = gov {
                inner.vwaiters.push(id);
            }
            while inner.epoch == epoch {
                inner = crate::wait(gov, &self.inner, &self.cond, inner);
            }
            inner.release_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn barrier(n_ssmps: usize, c: usize) -> Arc<MgsBarrier> {
        Arc::new(MgsBarrier::new(
            CostModel::alewife(),
            Cycles(1000),
            n_ssmps,
            c,
        ))
    }

    fn run(bar: &Arc<MgsBarrier>, arrivals: Vec<Cycles>) -> Vec<Cycles> {
        let handles: Vec<_> = arrivals
            .into_iter()
            .map(|t| {
                let bar = Arc::clone(bar);
                std::thread::spawn(move || bar.arrive(t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn all_leave_together_after_last_arrival() {
        let bar = barrier(2, 2);
        let times = run(&bar, vec![Cycles(10), Cycles(500), Cycles(20), Cycles(30)]);
        assert!(times.iter().all(|&t| t == times[0]));
        assert_eq!(times[0], Cycles(500) + bar.cost_per_episode());
    }

    #[test]
    fn single_ssmp_barrier_is_cheap() {
        let flat = barrier(1, 4);
        let clustered = barrier(4, 1);
        assert!(flat.cost_per_episode() < clustered.cost_per_episode());
    }

    #[test]
    fn episode_cost_scales_with_ssmp_count() {
        let few = barrier(2, 8);
        let many = barrier(8, 2);
        assert!(few.cost_per_episode() < many.cost_per_episode());
    }

    #[test]
    fn barrier_is_reusable_across_episodes() {
        let bar = barrier(2, 1);
        let t1 = run(&bar, vec![Cycles(0), Cycles(100)]);
        let t2 = run(&bar, vec![t1[0], t1[0] + Cycles(50)]);
        assert!(t2[0] > t1[0]);
    }

    #[test]
    fn single_processor_barrier_never_blocks() {
        let bar = Arc::new(MgsBarrier::new(CostModel::alewife(), Cycles::ZERO, 1, 1));
        let t = bar.arrive(Cycles(7));
        assert_eq!(t, Cycles(7) + bar.cost_per_episode());
    }

    #[test]
    fn many_episodes_with_thread_reuse() {
        let bar = barrier(2, 2);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let bar = Arc::clone(&bar);
            handles.push(std::thread::spawn(move || {
                let mut now = Cycles::ZERO;
                for _ in 0..50 {
                    now = bar.arrive(now) + Cycles(10);
                }
                now
            }));
        }
        let finals: Vec<Cycles> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(finals.iter().all(|&t| t == finals[0]));
        assert_eq!(bar.arrivals(), 4 * 50);
    }
}
