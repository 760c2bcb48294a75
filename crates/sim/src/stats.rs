//! Lightweight statistics utilities: an event counter and the one
//! log2 histogram, which the scheduler's host waits and `mgs-obs`'s
//! simulated latencies both record into.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe event counter.
///
/// # Example
///
/// ```
/// use mgs_sim::Counter;
///
/// let c = Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Buckets of a [`Histogram`]: bucket `i` counts values with `i`
/// significant bits (bucket 0 holds zero, bucket `i > 0` holds
/// `2^(i-1)..2^i`).
const BUCKETS: usize = 65;

/// The log2 bucket of `value`.
#[inline]
fn log2_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// A live log2-bucketed histogram of `u64` samples. Recording is two
/// relaxed adds (the sample's bucket and the sum): the sample count is
/// the sum of the buckets, taken by [`summary`](Self::summary).
///
/// # Example
///
/// ```
/// use mgs_sim::Histogram;
///
/// let h = Histogram::new();
/// for v in [1, 2, 4, 1024] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!((s.count, s.sum), (4, 1031));
/// assert_eq!(s.quantile_floor(0.5), 2);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The samples so far, as plain integers.
    pub fn summary(&self) -> HistSummary {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistSummary {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A [`Histogram`]'s samples as plain integers; summaries of several
/// histograms [`merge`](Self::merge) into one.
#[derive(Debug, Clone)]
pub struct HistSummary {
    /// Per-bucket sample counts (log2 buckets: bucket `i > 0` holds
    /// values whose bit length is `i`; bucket 0 holds zero).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl Default for HistSummary {
    fn default() -> HistSummary {
        HistSummary {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSummary {
    /// Adds `other`'s samples to these.
    pub fn merge(&mut self, other: &HistSummary) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in 0..=1), or 0 when empty. Log2 buckets make this exact to
    /// within a factor of two — enough to separate a 40-cycle TLB fill
    /// from a 4000-cycle two-crossing miss.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i <= 1 { i as u64 } else { 1u64 << (i - 1) };
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        for _ in 0..10 {
            c.incr();
        }
        c.add(5);
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn counter_is_thread_safe() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn buckets_are_log2() {
        let buckets = [0, 1, 2, 3, 4, u64::MAX].map(log2_bucket);
        assert_eq!(buckets, [0, 1, 2, 2, 3, BUCKETS - 1]);
    }

    #[test]
    fn four_threads_record_an_exact_count_sum_and_quantiles() {
        use std::sync::Arc;
        let sample = |t: u64, i: u64| (t * 7919 + i * 104_729) % 3_000_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || (0..1000).for_each(|i| h.record(sample(t, i))))
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let mut all: Vec<u64> = (0..4)
            .flat_map(|t| (0..1000).map(move |i| sample(t, i)))
            .collect();
        all.sort_unstable();
        let s = h.summary();
        assert_eq!(s.count, 4000);
        assert_eq!(s.sum, all.iter().sum::<u64>());
        assert!((s.mean() - s.sum as f64 / 4000.0).abs() < 1e-9);
        // The q-quantile's floor is the largest power of two at or
        // below the rank-th smallest sample (0 and 1 stand for
        // themselves).
        for q in [0.0f64, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = (4000.0 * q).ceil().clamp(1.0, 4000.0) as usize;
            let v = all[rank - 1];
            let floor = if v <= 1 {
                v
            } else {
                1 << (63 - v.leading_zeros())
            };
            assert_eq!(s.quantile_floor(q), floor, "q = {q}");
        }
    }

    #[test]
    fn summaries_merge_into_one() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 2] {
            a.record(v);
        }
        for v in [4u64, 1024] {
            b.record(v);
        }
        let mut s = a.summary();
        s.merge(&b.summary());
        assert_eq!((s.count, s.sum), (4, 1031));
        assert_eq!(s.quantile_floor(0.5), 2);
        assert_eq!(s.quantile_floor(1.0), 1024);
        assert_eq!(HistSummary::default().quantile_floor(0.5), 0);
        assert_eq!(HistSummary::default().mean(), 0.0);
    }

    #[test]
    fn displays_are_nonempty() {
        let c = Counter::new();
        assert!(!c.to_string().is_empty());
    }
}
