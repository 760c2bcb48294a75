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
    /// Times the task was descheduled (yields + suspensions).
    pub gates: u64,
    /// Always 0: the scheduler deschedules instead of parking (see
    /// [`mgs_sim::GovWaitStats::parks`]).
    pub parks: u64,
    /// Times the task resumed on another host worker than it last ran
    /// on (0 with one worker).
    pub migrations: u64,
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
    /// One entry per simulated processor.
    pub per_proc: Vec<ProcGovWaits>,
}

impl GovernorWaitReport {
    /// Converts the governor's raw snapshot into report shape.
    pub fn from_snapshot(snap: &GovWaitSnapshot) -> GovernorWaitReport {
        GovernorWaitReport {
            per_proc: snap
                .per_proc
                .iter()
                .map(|s| ProcGovWaits {
                    gates: s.gates,
                    parks: s.parks,
                    migrations: s.migrations,
                    wait_ns: HistSummary {
                        buckets: s.hist,
                        count: s.hist.iter().sum(),
                        sum: s.wait_ns,
                    },
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

    /// Total resumptions on another host worker across all processors.
    pub fn total_migrations(&self) -> u64 {
        self.per_proc.iter().map(|p| p.migrations).sum()
    }

    /// Hand-rolled JSON (the workspace builds without serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n    \"per_proc\": [");
        for (i, p) in self.per_proc.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"gates\": {}, \"parks\": {}, \"migrations\": {}, \"waits\": {}, \
                 \"wait_ns_total\": {}, \"wait_ns_mean\": {:.0}, \"wait_ns_p90\": {}}}",
                p.gates,
                p.parks,
                p.migrations,
                p.wait_ns.count,
                p.wait_ns.sum,
                p.wait_ns.mean(),
                p.wait_ns.quantile_floor(0.9),
            ));
        }
        s.push_str("\n    ],\n");
        s.push_str(&format!(
            "    \"total_gates\": {},\n    \"total_parks\": {},\n    \"total_migrations\": {},\n    \
             \"total_wait_ns\": {}\n  }}",
            self.total_gates(),
            self.total_parks(),
            self.total_migrations(),
            self.total_wait_ns(),
        ));
        s
    }
}

impl fmt::Display for GovernorWaitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "governor waits")?;
        writeln!(
            f,
            "{:>5}  {:>10}  {:>10}  {:>10}  {:>12}  {:>12}  {:>12}",
            "proc", "gates", "parks", "migrations", "wait total", "wait mean", "wait p90"
        )?;
        for (i, p) in self.per_proc.iter().enumerate() {
            writeln!(
                f,
                "{:>5}  {:>10}  {:>10}  {:>10}  {:>10}us  {:>10}ns  {:>10}ns",
                i,
                p.gates,
                p.parks,
                p.migrations,
                p.wait_ns.sum / 1_000,
                p.wait_ns.mean() as u64,
                p.wait_ns.quantile_floor(0.9),
            )?;
        }
        write!(
            f,
            "total  {:>10}  {:>10}  {:>10}  {:>10}us",
            self.total_gates(),
            self.total_parks(),
            self.total_migrations(),
            self.total_wait_ns() / 1_000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_sim::{log2_bucket, GovWaitStats, WAIT_HIST_BUCKETS};

    fn stats(gates: u64, migrations: u64, waits: &[u64]) -> GovWaitStats {
        let mut hist = [0u64; WAIT_HIST_BUCKETS];
        let mut wait_ns = 0;
        for &w in waits {
            hist[log2_bucket(w)] += 1;
            wait_ns += w;
        }
        GovWaitStats {
            gates,
            parks: 0,
            wait_ns,
            migrations,
            hist,
        }
    }

    #[test]
    fn report_totals_and_hist_roundtrip() {
        let snap = GovWaitSnapshot {
            per_proc: vec![stats(10, 0, &[100, 2_000]), stats(4, 0, &[8])],
        };
        let report = GovernorWaitReport::from_snapshot(&snap);
        assert_eq!(report.total_gates(), 14);
        assert_eq!(report.total_parks(), 0);
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

    #[test]
    fn migrations_reach_the_totals_the_table_and_the_json() {
        let snap = GovWaitSnapshot {
            per_proc: vec![stats(10, 2, &[100]), stats(4, 5, &[8])],
        };
        assert_eq!(snap.total_migrations(), 7);
        let report = GovernorWaitReport::from_snapshot(&snap);
        assert_eq!(report.total_migrations(), 7);
        assert_eq!(report.per_proc[1].migrations, 5);
        let shown = format!("{report}");
        assert!(shown.contains("migrations"), "{shown}");
        let json = report.to_json();
        assert!(json.contains("\"migrations\": 2,"), "{json}");
        assert!(json.contains("\"total_migrations\": 7"), "{json}");
    }
}
