//! Parallel sweep execution for the harness commands.
//!
//! A sweep evaluates many independent `(application × cluster size)`
//! points, and every harness machine runs on one host worker
//! ([`crate::suite::base_config`]): a point costs one host thread and
//! its answer does not depend on what runs beside it. So the points of
//! a command go to one pool of `min(jobs, points)` threads, where
//! `jobs` is `--jobs` or, by default, the host's available parallelism;
//! each thread claims the next unclaimed point until none is left.

use mgs_apps::MgsApp;
use mgs_core::framework::{sweep_point, SweepPoint};
use mgs_core::DssmpConfig;
use parking_lot::Mutex;

/// Runs `work` on `min(jobs, work.len())` scoped threads (`jobs`:
/// `--jobs`, default the host's available parallelism), each claiming
/// the next unclaimed job, and returns the results in submission
/// order. A panicking job does not stop the others; the scope
/// re-raises the panic once they are done.
pub fn run_pool<T, F>(jobs: Option<usize>, work: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let host = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = jobs.unwrap_or_else(host).min(work.len());
    let mut results: Vec<Mutex<Option<T>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let queue = Mutex::new(work.into_iter().zip(&results));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let Some((job, slot)) = queue.lock().next() else {
                    break;
                };
                *slot.lock() = Some(job());
            });
        }
    });
    drop(queue);
    results
        .iter_mut()
        .map(|m| m.get_mut().take().expect("scoped job completed"))
        .collect()
}

/// Runs several independent sweeps — each `(base config, app)` pair
/// swept over all power-of-two cluster sizes — with every `(sweep × C)`
/// point submitted to one [`run_pool`] of `jobs` threads. Returns one
/// point list per input sweep, in order.
pub fn parallel_sweeps_of(
    sweeps: &[(DssmpConfig, &dyn MgsApp)],
    jobs: Option<usize>,
) -> Vec<Vec<SweepPoint>> {
    let mut work = Vec::new();
    for (base, app) in sweeps {
        for c in base.cluster_sizes() {
            work.push(move || sweep_point(base, c, |machine| app.execute(machine)));
        }
    }
    let mut points = run_pool(jobs, work).into_iter();
    sweeps
        .iter()
        .map(|(base, _)| (&mut points).take(base.cluster_sizes().count()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order() {
        let work: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    // Finish out of order: later jobs sleep less.
                    std::thread::sleep(Duration::from_millis((16 - i) / 4));
                    i
                }
            })
            .collect();
        assert_eq!(run_pool(Some(3), work), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_never_runs_more_than_jobs_at_once() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let work: Vec<_> = (0..12)
            .map(|_| {
                || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        run_pool(Some(4), work);
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=4).contains(&peak), "peak {peak} of 4 jobs");
    }

    /// The other jobs still run and the call returns (by unwinding):
    /// a panicking job must not strand the pool.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_job_propagates_instead_of_hanging() {
        let work: Vec<_> = (0..8)
            .map(|i| move || assert_ne!(i, 2, "job 2 fails"))
            .collect();
        run_pool(Some(2), work);
    }

    #[test]
    fn parallel_sweeps_match_the_serial_sweep_at_any_jobs() {
        use mgs_apps::{jacobi::Jacobi, sweep_app};
        let opts = crate::cli::Options::parse_from(["--p", "4"].map(String::from));
        let base = crate::suite::base_config(&opts);
        let serial = sweep_app(&base, &Jacobi::small());
        let sweeps: [(DssmpConfig, &dyn MgsApp); 1] = [(base.clone(), &Jacobi::small())];
        for jobs in [1, 4] {
            let par = parallel_sweeps_of(&sweeps, Some(jobs));
            assert_eq!(par.len(), 1);
            assert_eq!(par[0].len(), serial.len());
            for (a, b) in par[0].iter().zip(&serial) {
                assert_eq!(a.cluster_size, b.cluster_size);
                assert_eq!(a.lock_hit_ratio, b.lock_hit_ratio);
                assert_eq!(a.report.first_divergence(&b.report), None, "--jobs {jobs}");
            }
        }
    }
}
