//! Occupancy clocks for contended serial resources.

use crate::Cycles;
use std::sync::atomic::{AtomicU64, Ordering};

/// An occupancy clock modelling a resource that serves one request at a
/// time (a protocol engine on a home processor, a LAN interface, …).
///
/// A request arriving at simulated time `arrival` that needs `service`
/// cycles of the resource is serialized behind all earlier requests:
///
/// ```text
/// start = max(arrival, busy_until)
/// busy_until = start + service
/// ```
///
/// so queueing delay emerges naturally under contention. This is the
/// mechanism that reproduces the paper's observations of server load
/// imbalance (e.g. the processor that is home to Water's global
/// statistics structure receiving more coherence traffic, §5.2.1) and
/// the TSP work-queue bottleneck.
///
/// The update is lock-free (a CAS loop), so processor threads can charge
/// resources concurrently.
///
/// # Example
///
/// ```
/// use mgs_sim::{Cycles, Occupancy};
///
/// let server = Occupancy::new();
/// let (s1, e1) = server.occupy(Cycles(100), Cycles(50));
/// assert_eq!((s1, e1), (Cycles(100), Cycles(150)));
/// // A second request arriving earlier still queues behind the first.
/// let (s2, e2) = server.occupy(Cycles(120), Cycles(50));
/// assert_eq!((s2, e2), (Cycles(150), Cycles(200)));
/// ```
#[derive(Debug, Default)]
pub struct Occupancy {
    busy_until: AtomicU64,
}

impl Occupancy {
    /// Creates an idle resource.
    pub fn new() -> Occupancy {
        Occupancy::default()
    }

    /// Serializes a request of `service` cycles arriving at `arrival`.
    /// Returns `(start, end)` of the granted service interval.
    pub fn occupy(&self, arrival: Cycles, service: Cycles) -> (Cycles, Cycles) {
        let mut cur = self.busy_until.load(Ordering::Relaxed);
        loop {
            let start = cur.max(arrival.raw());
            let end = start + service.raw();
            match self.busy_until.compare_exchange_weak(
                cur,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (Cycles(start), Cycles(end)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// The instant the resource becomes free given everything granted so
    /// far.
    pub fn busy_until(&self) -> Cycles {
        Cycles(self.busy_until.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_at_arrival() {
        let r = Occupancy::new();
        let (s, e) = r.occupy(Cycles(42), Cycles(10));
        assert_eq!(s, Cycles(42));
        assert_eq!(e, Cycles(52));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let r = Occupancy::new();
        r.occupy(Cycles(0), Cycles(100));
        let (s, e) = r.occupy(Cycles(10), Cycles(100));
        assert_eq!(s, Cycles(100));
        assert_eq!(e, Cycles(200));
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let r = Occupancy::new();
        r.occupy(Cycles(0), Cycles(10));
        let (s, _) = r.occupy(Cycles(1000), Cycles(10));
        assert_eq!(s, Cycles(1000));
    }

    #[test]
    fn concurrent_occupancy_is_consistent() {
        use std::sync::Arc;
        let r = Arc::new(Occupancy::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.occupy(Cycles(0), Cycles(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every granted interval is disjoint, so with all arrivals at
        // time zero the final busy_until is the total service.
        assert_eq!(r.busy_until(), Cycles(8000));
    }
}
