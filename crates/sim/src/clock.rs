//! Per-processor simulated clock.

use crate::{CostCategory, CycleAccount, Cycles};

/// A simulated processor's local clock with category-attributed charging.
///
/// Each simulated processor thread owns one `ProcClock`. Work advances
/// the clock via [`charge`](ProcClock::charge); synchronization advances
/// it via [`advance_to`](ProcClock::advance_to), which attributes the
/// waiting time to the given category (the paper folds waiting time into
/// the same four components as execution time).
///
/// # Example
///
/// ```
/// use mgs_sim::{CostCategory, Cycles, ProcClock};
///
/// let mut clock = ProcClock::new();
/// clock.charge(CostCategory::User, Cycles(40));
/// // A barrier released at cycle 100: the 60-cycle wait is barrier time.
/// clock.advance_to(CostCategory::Barrier, Cycles(100));
/// assert_eq!(clock.now(), Cycles(100));
/// assert_eq!(clock.account().get(CostCategory::Barrier), Cycles(60));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProcClock {
    now: Cycles,
    account: CycleAccount,
}

impl ProcClock {
    /// Creates a clock at time zero with an empty account.
    pub fn new() -> ProcClock {
        ProcClock::default()
    }

    /// Creates a clock starting at `start` (used when a processor joins
    /// a computation already in progress).
    pub fn starting_at(start: Cycles) -> ProcClock {
        ProcClock {
            now: start,
            account: CycleAccount::new(),
        }
    }

    /// The current local simulated time.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The per-category account accumulated so far.
    pub fn account(&self) -> &CycleAccount {
        &self.account
    }

    /// Advances the clock by `amount`, charging it to `category`.
    #[inline]
    pub fn charge(&mut self, category: CostCategory, amount: Cycles) {
        self.now += amount;
        self.account.record(category, amount);
    }

    /// Advances the clock to `instant` (if it is in the future),
    /// charging the elapsed wait to `category`. Returns the amount of
    /// time actually waited.
    pub fn advance_to(&mut self, category: CostCategory, instant: Cycles) -> Cycles {
        let wait = instant.saturating_sub(self.now);
        if !wait.is_zero() {
            self.charge(category, wait);
        }
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_advances_time_and_account() {
        let mut c = ProcClock::new();
        c.charge(CostCategory::Mgs, Cycles(7));
        c.charge(CostCategory::Mgs, Cycles(3));
        assert_eq!(c.now(), Cycles(10));
        assert_eq!(c.account().get(CostCategory::Mgs), Cycles(10));
    }

    #[test]
    fn advance_to_past_is_noop() {
        let mut c = ProcClock::new();
        c.charge(CostCategory::User, Cycles(50));
        let waited = c.advance_to(CostCategory::Lock, Cycles(20));
        assert_eq!(waited, Cycles::ZERO);
        assert_eq!(c.now(), Cycles(50));
        assert_eq!(c.account().get(CostCategory::Lock), Cycles::ZERO);
    }

    #[test]
    fn advance_to_future_charges_wait() {
        let mut c = ProcClock::new();
        let waited = c.advance_to(CostCategory::Lock, Cycles(33));
        assert_eq!(waited, Cycles(33));
        assert_eq!(c.account().get(CostCategory::Lock), Cycles(33));
    }

    #[test]
    fn starting_at_offsets_time_only() {
        let c = ProcClock::starting_at(Cycles(1000));
        assert_eq!(c.now(), Cycles(1000));
        assert_eq!(c.account().total(), Cycles::ZERO);
    }
}
