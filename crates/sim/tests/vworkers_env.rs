//! The `MGS_VWORKERS` override, in a test binary of its own: the test
//! writes the process environment, which no other thread may be reading
//! at the time (`setenv` racing `getenv` is undefined behaviour in
//! glibc), and an override leaking into a sibling test would silently
//! change its worker budget. Keep this file to the one `#[test]`.

use mgs_sim::{Cycles, VirtualScheduler, VWORKERS_ENV};

#[test]
fn worker_env_override_pins_budget() {
    std::env::set_var(VWORKERS_ENV, "1");
    let s = VirtualScheduler::new(4, Cycles(100), 3);
    std::env::remove_var(VWORKERS_ENV);
    assert_eq!(s.workers(), 1);
}
