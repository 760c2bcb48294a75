//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A quantity of simulated time, in processor clock cycles.
///
/// All latencies in the simulator are expressed in cycles of a 20 MHz
/// Alewife node, matching the units of Table 3 of the paper.
///
/// # Example
///
/// ```
/// use mgs_sim::Cycles;
///
/// let a = Cycles(1_000);
/// let b = a + Cycles(500);
/// assert_eq!(b, Cycles(1_500));
/// assert_eq!(b * 2, Cycles(3_000));
/// assert!(b.saturating_sub(Cycles(9_999)).is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Maximum representable time.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is exactly zero cycles.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction that clamps at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }

    /// Converts to millions of cycles as a float, the unit used by
    /// Table 4 of the paper for sequential runtimes.
    pub fn as_mcycles(self) -> f64 {
        self.0 as f64 / 1.0e6
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Cycles {
        Cycles(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let a = Cycles(10) + Cycles(5);
        assert_eq!(a, Cycles(15));
        assert_eq!(a - Cycles(5), Cycles(10));
        assert_eq!(a * 3, Cycles(45));
        assert_eq!(a / 5, Cycles(3));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
        assert_eq!(Cycles(10).saturating_sub(Cycles(3)), Cycles(7));
    }

    #[test]
    fn min_max_order() {
        assert_eq!(Cycles(3).max(Cycles(9)), Cycles(9));
        assert_eq!(Cycles(3).min(Cycles(9)), Cycles(3));
    }

    #[test]
    fn sum_of_iterator() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn unit_conversions() {
        assert!((Cycles(2_500_000).as_mcycles() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycles(42).to_string(), "42 cyc");
    }
}
