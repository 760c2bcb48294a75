//! Pacing wait reporting: how much host time pacing cost each
//! simulated processor.
//!
//! The scheduler (`mgs_sim::VirtualScheduler`) bounds simulated-clock
//! skew and never charges simulated cycles, so its cost is purely
//! host-side: a task that yields or waits on a lock or barrier is
//! descheduled until it is readmitted. [`GovernorWaitReport`] turns the
//! raw per-task accounting ([`mgs_sim::GovWaitSnapshot`]) into the same
//! report shape the rest of `mgs-obs` uses — per-processor counts plus
//! a log2 [`HistSummary`] of individual wait durations — so the
//! `profile` bench can print and serialize it next to the simulated
//! metrics. Note the histogram samples here are **host nanoseconds**,
//! not simulated cycles.

use crate::metrics::HistSummary;
use mgs_sim::GovWaitSnapshot;
use std::fmt;

/// One processor's governor wait accounting, report-shaped.
#[derive(Debug, Clone)]
pub struct ProcGovWaits {
    /// Times the task was descheduled (yields + suspensions). For a
    /// standalone `EpochGate` snapshot: times the thread reached the
    /// gate slow path.
    pub gates: u64,
    /// Times the thread parked on a condvar while gated. Always 0 for
    /// a machine (the scheduler deschedules instead of parking);
    /// nonzero only in a standalone `EpochGate` snapshot.
    pub parks: u64,
    /// Distribution of individual gate waits, in host **nanoseconds**
    /// (log2 buckets; `count` is the number of waits, `sum` the total
    /// nanoseconds waited).
    pub wait_ns: HistSummary,
}

/// Per-processor governor wait report for one run. Build with
/// [`GovernorWaitReport::from_snapshot`] from
/// `Machine::governor_waits()`.
#[derive(Debug, Clone)]
pub struct GovernorWaitReport {
    /// What produced the numbers: `"virtual"` for every machine (the
    /// scheduler counts deschedules as gates and reports zero parks by
    /// construction, with the wait histogram holding descheduled host
    /// time), `"epoch"` for a standalone `EpochGate`, which reports
    /// condvar parks.
    pub engine: &'static str,
    /// One entry per simulated processor.
    pub per_proc: Vec<ProcGovWaits>,
}

impl GovernorWaitReport {
    /// Converts the governor's raw snapshot into report shape.
    pub fn from_snapshot(snap: &GovWaitSnapshot) -> GovernorWaitReport {
        GovernorWaitReport {
            engine: snap.engine,
            per_proc: snap
                .per_proc
                .iter()
                .map(|s| {
                    let mut hist = HistSummary::default();
                    // The gate's histogram uses the same log2 layout as
                    // HistSummary (bucket i = i significant bits).
                    for (i, &b) in s.hist.iter().enumerate() {
                        hist.buckets[i] = b;
                        hist.count += b;
                    }
                    hist.sum = s.wait_ns;
                    ProcGovWaits {
                        gates: s.gates,
                        parks: s.parks,
                        wait_ns: hist,
                    }
                })
                .collect(),
        }
    }

    /// Total gate slow-path entries across all processors.
    pub fn total_gates(&self) -> u64 {
        self.per_proc.iter().map(|p| p.gates).sum()
    }

    /// Total condvar parks across all processors.
    pub fn total_parks(&self) -> u64 {
        self.per_proc.iter().map(|p| p.parks).sum()
    }

    /// Total host nanoseconds spent waiting across all processors.
    pub fn total_wait_ns(&self) -> u64 {
        self.per_proc.iter().map(|p| p.wait_ns.sum).sum()
    }

    /// Hand-rolled JSON (the workspace builds without serde).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n    \"engine\": \"{}\",\n    \"per_proc\": [",
            self.engine
        );
        for (i, p) in self.per_proc.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"gates\": {}, \"parks\": {}, \"waits\": {}, \
                 \"wait_ns_total\": {}, \"wait_ns_mean\": {:.0}, \"wait_ns_p90\": {}}}",
                p.gates,
                p.parks,
                p.wait_ns.count,
                p.wait_ns.sum,
                p.wait_ns.mean(),
                p.wait_ns.quantile_floor(0.9),
            ));
        }
        s.push_str("\n    ],\n");
        s.push_str(&format!(
            "    \"total_gates\": {},\n    \"total_parks\": {},\n    \"total_wait_ns\": {}\n  }}",
            self.total_gates(),
            self.total_parks(),
            self.total_wait_ns(),
        ));
        s
    }
}

impl fmt::Display for GovernorWaitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "governor waits ({} engine)", self.engine)?;
        writeln!(
            f,
            "{:>5}  {:>10}  {:>10}  {:>12}  {:>12}  {:>12}",
            "proc", "gates", "parks", "wait total", "wait mean", "wait p90"
        )?;
        for (i, p) in self.per_proc.iter().enumerate() {
            writeln!(
                f,
                "{:>5}  {:>10}  {:>10}  {:>10}us  {:>10}ns  {:>10}ns",
                i,
                p.gates,
                p.parks,
                p.wait_ns.sum / 1_000,
                p.wait_ns.mean() as u64,
                p.wait_ns.quantile_floor(0.9),
            )?;
        }
        write!(
            f,
            "total  {:>10}  {:>10}  {:>10}us",
            self.total_gates(),
            self.total_parks(),
            self.total_wait_ns() / 1_000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_sim::{GovWaitStats, WAIT_HIST_BUCKETS};

    fn stats(gates: u64, parks: u64, waits: &[u64]) -> GovWaitStats {
        let mut hist = [0u64; WAIT_HIST_BUCKETS];
        let mut wait_ns = 0;
        for &w in waits {
            hist[(64 - w.leading_zeros()) as usize] += 1;
            wait_ns += w;
        }
        GovWaitStats {
            gates,
            parks,
            wait_ns,
            hist,
        }
    }

    #[test]
    fn report_totals_and_hist_roundtrip() {
        let snap = GovWaitSnapshot {
            engine: "epoch",
            per_proc: vec![stats(10, 3, &[100, 2_000]), stats(4, 0, &[8])],
        };
        let report = GovernorWaitReport::from_snapshot(&snap);
        assert_eq!(report.engine, "epoch");
        assert_eq!(report.total_gates(), 14);
        assert_eq!(report.total_parks(), 3);
        assert_eq!(report.total_wait_ns(), 2_108);
        assert_eq!(report.per_proc[0].wait_ns.count, 2);
        assert_eq!(report.per_proc[0].wait_ns.sum, 2_100);
        assert_eq!(report.per_proc[1].wait_ns.count, 1);
        let shown = format!("{report}");
        assert!(shown.contains("gates"));
        let json = report.to_json();
        assert!(json.contains("\"total_gates\": 14"));
        assert!(json.contains("\"wait_ns_total\": 2100"));
    }
}
