//! The scheduler's skew bound: with a window `w` and a tick stride
//! `δ = w / 4`, no simulated clock may run more than `w + δ` cycles
//! ahead of the slowest still-running processor.
//!
//! Why `w + δ` and not `w`: the scheduler only sees a clock when the
//! runtime ticks it, and ticks are throttled to at most one per `δ`
//! simulated cycles. Between ticks a processor can charge up to `δ`
//! cycles past the horizon it was last checked against, so the
//! instantaneous bound is `window + stride` — still O(w).
//!
//! The probe is host-side and zero-perturbation: every processor
//! publishes its simulated clock into a shared atomic slot after each
//! one-cycle charge (`u64::MAX` once finished, mirroring the
//! scheduler's own rule that finished tasks leave the window), and asserts its own clock never
//! exceeds the minimum published clock of the still-running processors
//! by more than the bound. Published values can be stale — but a stale
//! value only *under*-reports the laggard's progress, so the check is
//! conservative in the right direction: it can only over-estimate
//! skew, never hide a violation.

use mgs_repro::core::{Cycles, DssmpConfig, Machine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PROCS: usize = 8;
const CYCLES_PER_PROC: u64 = 4_000;

/// Runs a lock-free, barrier-free workload of unit compute charges and
/// returns the maximum observed skew (own clock minus the minimum
/// published clock of any still-running peer).
fn max_observed_skew(window: u64) -> u64 {
    let mut cfg = DssmpConfig::new(PROCS, PROCS);
    cfg.governor_window = Some(Cycles(window));
    let machine = Machine::new(cfg);
    let clocks: Arc<Vec<AtomicU64>> = Arc::new((0..PROCS).map(|_| AtomicU64::new(0)).collect());
    let worst = Arc::new(AtomicU64::new(0));
    {
        let clocks = Arc::clone(&clocks);
        let worst = Arc::clone(&worst);
        machine.run(move |env| {
            let me = env.pid();
            let mut local_worst = 0u64;
            for _ in 0..CYCLES_PER_PROC {
                env.compute(1);
                let now = env.now().raw();
                clocks[me].store(now, Ordering::SeqCst);
                let min = clocks
                    .iter()
                    .map(|c| c.load(Ordering::SeqCst))
                    .filter(|&c| c != u64::MAX)
                    .min()
                    .unwrap_or(now);
                local_worst = local_worst.max(now.saturating_sub(min));
            }
            // Finished: drop out of the probe the same way the
            // scheduler drops finished tasks from its window.
            clocks[me].store(u64::MAX, Ordering::SeqCst);
            worst.fetch_max(local_worst, Ordering::SeqCst);
        });
    }
    worst.load(Ordering::SeqCst)
}

#[test]
fn skew_stays_within_window_plus_default_stride() {
    let window = 400u64;
    let skew = max_observed_skew(window);
    assert!(
        skew <= window + window / 4,
        "observed skew {skew} > window {window} + stride {}",
        window / 4
    );
    // And pacing must actually have bitten: an unpaced 8-thread
    // race over 4000 cycles would show skew far above one window on
    // any real host.
    assert!(skew > 0, "probe never observed any skew");
}
