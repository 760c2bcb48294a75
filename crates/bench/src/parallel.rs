//! Parallel sweep execution for the harness commands.
//!
//! A sweep evaluates many independent `(application × cluster size)`
//! points. Running them back-to-back leaves most of a multicore host
//! idle; running all of them at once oversubscribes it. This module
//! bounds the total with a weighted worker budget, and the rule is:
//! a point costs its machine's `P` permits of a budget of
//! `max(jobs, P)`, where `jobs` is `--jobs` or, by default, the host's
//! available parallelism; points start in submission order as permits
//! free up. So `floor(max(jobs, P) / P)` points run at once — below
//! `jobs = 2P` that is one at a time (ROADMAP item 3 has the
//! measurement and the follow-up).

use mgs_apps::MgsApp;
use mgs_core::framework::SweepPoint;
use mgs_core::{CostCategory, CycleAccount, Cycles, DssmpConfig, Machine, RunReport};
use parking_lot::{Condvar, Mutex};

/// A counting semaphore measured in host worker threads.
#[derive(Debug)]
pub struct WorkerBudget {
    total: usize,
    free: Mutex<usize>,
    cv: Condvar,
}

impl WorkerBudget {
    /// The budget every harness command runs under: `jobs` (`--jobs`;
    /// default the host's available parallelism) permits, raised to
    /// `max_weight` so the heaviest point can run.
    pub fn for_jobs(jobs: Option<usize>, max_weight: usize) -> WorkerBudget {
        WorkerBudget::new(jobs.unwrap_or_else(host_parallelism).max(max_weight))
    }

    /// Creates a budget of `total` permits (at least 1).
    pub fn new(total: usize) -> WorkerBudget {
        let total = total.max(1);
        WorkerBudget {
            total,
            free: Mutex::new(total),
            cv: Condvar::new(),
        }
    }

    /// The total number of permits.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Blocks until `weight` permits are free and takes them. The
    /// weight is clamped to `[1, total]` so an oversized job still
    /// runs (alone); returns the clamped weight to pass to
    /// [`release`](Self::release).
    pub fn acquire(&self, weight: usize) -> usize {
        let w = weight.clamp(1, self.total);
        let mut free = self.free.lock();
        while *free < w {
            self.cv.wait(&mut free);
        }
        *free -= w;
        w
    }

    /// Returns permits taken by [`acquire`](Self::acquire).
    pub fn release(&self, weight: usize) {
        let mut free = self.free.lock();
        *free += weight;
        // Several waiters with different weights may be eligible now.
        self.cv.notify_all();
    }
}

/// The host's available parallelism (1 if it cannot be determined) —
/// the default `--jobs`, and the denominator a `BENCH_*.json` record
/// needs to say whether a given `P` oversubscribed the runner.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `(weight, job)` pairs concurrently under `budget`, returning
/// the results in submission order. Permits are acquired on the calling
/// thread *before* each spawn, so jobs start in submission order and at
/// most `budget.total()` weight runs at once.
pub fn run_weighted<T, F>(budget: &WorkerBudget, jobs: Vec<(usize, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    /// Returns a job's permits even if the job panics: without this, a
    /// panicking job would strand its weight and the submission loop
    /// would block forever in `acquire` instead of letting the scope
    /// propagate the panic.
    struct Permits<'a> {
        budget: &'a WorkerBudget,
        w: usize,
    }
    impl Drop for Permits<'_> {
        fn drop(&mut self) {
            self.budget.release(self.w);
        }
    }

    let mut results: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (slot, (weight, job)) in results.iter().zip(jobs) {
            let w = budget.acquire(weight);
            scope.spawn(move || {
                let _permits = Permits { budget, w };
                let out = job();
                *slot.lock() = Some(out);
            });
        }
    });
    results
        .iter_mut()
        .map(|m| m.get_mut().take().expect("scoped job completed"))
        .collect()
}

/// Runs several independent sweeps — each `(base config, app)` pair
/// swept over all power-of-two cluster sizes with `reps` repetitions
/// per point — with every `(sweep × C × rep)` run scheduled
/// concurrently under one [`WorkerBudget::for_jobs`] budget of
/// `host_threads`. Each run's weight is its machine's `P`. Returns one
/// point list per input sweep, in order, each point the
/// `average_point` of its repetitions.
pub fn parallel_sweeps_of(
    sweeps: &[(DssmpConfig, &dyn MgsApp)],
    reps: usize,
    host_threads: Option<usize>,
) -> Vec<Vec<SweepPoint>> {
    assert!(reps >= 1, "at least one repetition");
    let max_weight = sweeps.iter().map(|(b, _)| b.n_procs).max().unwrap_or(1);
    let budget = WorkerBudget::for_jobs(host_threads, max_weight);
    let mut jobs = Vec::new();
    for (base, app) in sweeps {
        for c in base.cluster_sizes() {
            for _ in 0..reps {
                let base = base.clone();
                let app = *app;
                jobs.push((base.n_procs, move || {
                    let mut cfg = base;
                    cfg.cluster_size = c;
                    let machine = Machine::new(cfg);
                    let report = app.execute(&machine);
                    let hit = machine.lock_hit_ratio();
                    (report, hit)
                }));
            }
        }
    }
    let mut runs = run_weighted(&budget, jobs).into_iter();
    sweeps
        .iter()
        .map(|(base, _)| {
            base.cluster_sizes()
                .map(|c| average_point(c, (&mut runs).take(reps).collect()))
                .collect()
        })
        .collect()
}

/// Sweeps every application over all power-of-two cluster sizes from
/// one shared base configuration — the common case of
/// [`parallel_sweeps_of`].
pub fn parallel_sweeps(
    base: &DssmpConfig,
    apps: &[Box<dyn MgsApp>],
    reps: usize,
    host_threads: Option<usize>,
) -> Vec<Vec<SweepPoint>> {
    let sweeps: Vec<(DssmpConfig, &dyn MgsApp)> = apps
        .iter()
        .map(|app| (base.clone(), app.as_ref()))
        .collect();
    parallel_sweeps_of(&sweeps, reps, host_threads)
}

/// Averages `reps` independent runs of one sweep point (runs above
/// one worker are timing-nondeterministic; the harness uses a few
/// repetitions for stable figures): duration, breakdown, lock counts
/// and hit ratio are means, everything else is the last run's.
fn average_point(c: usize, runs: Vec<(RunReport, f64)>) -> SweepPoint {
    let reps = runs.len() as u64;
    assert!(reps >= 1, "at least one repetition");
    let mut durations = 0u64;
    let mut breakdown_sum = CycleAccount::new();
    let mut hit_sum = 0.0;
    let mut acquires = 0;
    let mut hits = 0;
    let mut last: Option<RunReport> = None;
    for (report, hit) in runs {
        durations += report.duration.raw();
        breakdown_sum.merge(&report.breakdown);
        hit_sum += hit;
        acquires += report.lock_acquires;
        hits += report.lock_hits;
        last = Some(report);
    }
    let mut report = last.expect("reps >= 1");
    report.duration = Cycles(durations / reps);
    let mut mean = CycleAccount::new();
    for cat in CostCategory::ALL {
        mean.record(cat, breakdown_sum.get(cat) / reps);
    }
    report.breakdown = mean;
    report.lock_acquires = acquires / reps;
    report.lock_hits = hits / reps;
    SweepPoint {
        cluster_size: c,
        report,
        lock_hit_ratio: hit_sum / reps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let budget = WorkerBudget::new(3);
        let jobs: Vec<(usize, _)> = (0..16usize)
            .map(|i| {
                (1, move || {
                    // Finish out of order: later jobs sleep less.
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64 / 4));
                    i
                })
            })
            .collect();
        let out = run_weighted(&budget, jobs);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn budget_bounds_concurrency() {
        let budget = WorkerBudget::new(4);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let jobs: Vec<(usize, _)> = (0..12)
            .map(|_| {
                let live = &live;
                let peak = &peak;
                (2usize, move || {
                    let now = live.fetch_add(2, Ordering::SeqCst) + 2;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(2, Ordering::SeqCst);
                })
            })
            .collect();
        run_weighted(&budget, jobs);
        assert!(peak.load(Ordering::SeqCst) <= 4, "budget exceeded");
    }

    #[test]
    fn oversized_jobs_are_clamped_and_run() {
        let budget = WorkerBudget::new(2);
        let out = run_weighted(&budget, (7..9).map(|v| (100, move || v)).collect());
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn average_point_matches_serial_sweep() {
        use mgs_apps::{jacobi::Jacobi, sweep_app};
        let app = Jacobi::small();
        let mut base = DssmpConfig::new(4, 1);
        base.workers = Some(1);
        let serial = sweep_app(&base, &app);
        let apps: Vec<Box<dyn MgsApp>> = vec![Box::new(app)];
        let par = parallel_sweeps(&base, &apps, 1, Some(1));
        assert_eq!(par.len(), 1);
        assert_eq!(par[0].len(), serial.len());
        for (a, b) in par[0].iter().zip(&serial) {
            assert_eq!(a.cluster_size, b.cluster_size);
            assert_eq!(a.lock_hit_ratio, b.lock_hit_ratio);
            assert_eq!(a.report.first_divergence(&b.report), None);
        }
    }
}
