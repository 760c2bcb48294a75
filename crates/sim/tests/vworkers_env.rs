//! The `MGS_VWORKERS` override, in a test binary of its own: the test
//! writes the process environment, which no other thread may be reading
//! at the time (`setenv` racing `getenv` is undefined behaviour in
//! glibc), and an override leaking into a sibling test would silently
//! change its worker budget. Keep this file to the one `#[test]`.

use mgs_sim::{Cycles, VirtualScheduler, VWORKERS_ENV};

#[test]
fn worker_env_override_pins_paced_budget_only() {
    const TASKS: usize = 8;
    std::env::set_var(VWORKERS_ENV, "1");
    let paced = VirtualScheduler::new(4, Cycles(100), 3);
    let unpaced = VirtualScheduler::unpaced(TASKS);
    std::env::remove_var(VWORKERS_ENV);
    assert_eq!(paced.workers(), 1);
    // Checked first, so a regression fails here instead of hanging at
    // the barrier below.
    assert_eq!(unpaced.workers(), TASKS);

    // All eight tasks hold a slot at once: each waits on a host barrier
    // for the other seven, which a one-slot scheduler could never
    // admit, then ticks far past any paced window without gating.
    let all_admitted = std::sync::Barrier::new(TASKS);
    std::thread::scope(|scope| {
        for id in 0..TASKS {
            let (unpaced, all_admitted) = (&unpaced, &all_admitted);
            scope.spawn(move || {
                unpaced.start(id);
                all_admitted.wait();
                unpaced.tick(id, Cycles(1 << 40));
                unpaced.finished(id);
            });
        }
    });
    assert_eq!(unpaced.wait_snapshot().total_gates(), 0);
}
