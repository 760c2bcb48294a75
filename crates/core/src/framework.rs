//! The DSSMP performance framework of §2.4.
//!
//! The framework keeps the total processor count `P` fixed and sweeps
//! the cluster size `C` from 1 to `P` in powers of two; an application's
//! behaviour on DSSMPs is then characterized by three metrics read off
//! the execution-time-vs-cluster-size curve (Figure 2):
//!
//! * **breakup penalty** — the execution-time increase from `C = P` to
//!   `C = P/2`: the minimum cost of breaking a tightly-coupled machine
//!   into a clustered one;
//! * **multigrain potential** — the improvement from `C = 1` to
//!   `C = P/2`: the benefit of capturing fine-grain sharing within
//!   clusters;
//! * **multigrain curvature** — the shape of the curve between those
//!   endpoints: *convex* means most of the potential is realized at
//!   small cluster sizes (good for DSSMPs of small multiprocessors),
//!   *concave* means it needs large clusters.

use crate::{DssmpConfig, Machine, RunReport};
use std::fmt;
use std::sync::Arc;

/// One point of a cluster-size sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The cluster size `C` of this configuration.
    pub cluster_size: usize,
    /// The run's report (its [`RunReport::lock_hit_ratio`] is the
    /// point's Figure 11 value).
    pub report: RunReport,
}

/// Curvature classification of the execution-time curve (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curvature {
    /// Most of the multigrain potential is achieved at small cluster
    /// sizes.
    Convex,
    /// Most of the multigrain potential is only achieved at large
    /// cluster sizes.
    Concave,
    /// The curve tracks the straight line between the endpoints.
    Linear,
}

impl fmt::Display for Curvature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Curvature::Convex => "convex",
            Curvature::Concave => "concave",
            Curvature::Linear => "linear",
        })
    }
}

/// The three framework metrics for one application.
#[derive(Debug, Clone)]
pub struct FrameworkMetrics {
    /// Breakup penalty as a fraction (`0.16` = 16%).
    pub breakup_penalty: f64,
    /// Multigrain potential as a fraction of the `C = 1` time
    /// (`0.67` = "67% faster with clusters of `P/2`").
    pub multigrain_potential: f64,
    /// Signed curvature measure in `[-1, 1]`: positive = convex.
    pub curvature_value: f64,
    /// Curvature classification.
    pub curvature: Curvature,
}

impl fmt::Display for FrameworkMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "breakup penalty {:.0}%, multigrain potential {:.0}%, curvature {} ({:+.2})",
            self.breakup_penalty * 100.0,
            self.multigrain_potential * 100.0,
            self.curvature,
            self.curvature_value
        )
    }
}

/// One point of a sweep: `run` on a fresh machine built from `base`
/// with cluster size `c`.
pub fn sweep_point(
    base: &DssmpConfig,
    c: usize,
    run: impl FnOnce(&Arc<Machine>) -> RunReport,
) -> SweepPoint {
    let mut cfg = base.clone();
    cfg.cluster_size = c;
    SweepPoint {
        cluster_size: c,
        report: run(&Machine::new(cfg)),
    }
}

/// Runs `run` at every cluster size of [`DssmpConfig::cluster_sizes`],
/// one [`sweep_point`] each (only `cluster_size` varies) — the loop of
/// the paper's method, written once.
pub fn sweep_with(base: &DssmpConfig, run: impl Fn(&Arc<Machine>) -> RunReport) -> Vec<SweepPoint> {
    base.cluster_sizes()
        .map(|c| sweep_point(base, c, &run))
        .collect()
}

/// `P`: the sweep's largest cluster size.
fn machine_size(points: &[SweepPoint]) -> usize {
    points
        .iter()
        .map(|pt| pt.cluster_size)
        .max()
        .expect("nonempty sweep")
}

/// Simulated time of the sweep's `C = c` point, if it has one.
fn time_at(points: &[SweepPoint], c: usize) -> Option<f64> {
    points
        .iter()
        .find(|p| p.cluster_size == c)
        .map(|p| p.report.duration.raw() as f64)
}

/// Simulated time of the sweep's `C = c` point.
fn time_of(points: &[SweepPoint], c: usize) -> f64 {
    time_at(points, c).unwrap_or_else(|| panic!("sweep lacks the C = {c} point"))
}

/// The breakup penalty: the increase from `C = P` to `C = P/2`,
/// relative to the tightly-coupled time (§2.4 / §5.2.1).
///
/// # Panics
///
/// Panics if the sweep lacks the `C = P` or `C = P/2` point.
pub fn breakup_penalty(points: &[SweepPoint]) -> f64 {
    let p = machine_size(points);
    let t_full = time_of(points, p);
    (time_of(points, (p / 2).max(1)) - t_full) / t_full
}

/// The multigrain potential: how much faster `C = P/2` is than `C = 1`,
/// relative to the uniprocessor-node time ("applications execute up to
/// 85% faster when each DSSMP node is a multiprocessor"). `None` when
/// the sweep has no `C = 1` point.
///
/// # Panics
///
/// Panics if the sweep has a `C = 1` point but lacks `C = P/2`.
pub fn multigrain_potential(points: &[SweepPoint]) -> Option<f64> {
    let t_one = time_at(points, 1)?;
    let t_half = time_of(points, (machine_size(points) / 2).max(1));
    Some((t_one - t_half) / t_one)
}

/// Computes the three framework metrics from a sweep.
///
/// # Panics
///
/// Panics if the sweep lacks the `C = 1`, `C = P/2` or `C = P` points,
/// or if `P < 4` (the metrics need three distinct cluster sizes).
pub fn metrics(points: &[SweepPoint]) -> FrameworkMetrics {
    let p = machine_size(points);
    assert!(p >= 4, "framework metrics need P >= 4");
    let breakup_penalty = breakup_penalty(points);
    let multigrain_potential = multigrain_potential(points).expect("sweep lacks the C = 1 point");
    let t_half = time_of(points, p / 2);
    let t_one = time_of(points, 1);

    // Curvature: mean signed deviation of the measured curve from the
    // straight chord between (log2 1, T(1)) and (log2 P/2, T(P/2)),
    // normalized by the chord. Points below the chord (faster than
    // linear) make the value positive = convex.
    let lo = 0f64;
    let hi = ((p / 2) as f64).log2();
    let mut num = 0.0;
    let mut den = 0.0;
    for pt in points.iter().filter(|pt| pt.cluster_size < p) {
        let x = (pt.cluster_size as f64).log2();
        if x <= lo || x >= hi {
            continue;
        }
        let frac = (x - lo) / (hi - lo);
        let chord = t_one + (t_half - t_one) * frac;
        num += chord - pt.report.duration.raw() as f64;
        den += chord;
    }
    let curvature_value = if den == 0.0 { 0.0 } else { num / den };
    let curvature = if curvature_value > 0.02 {
        Curvature::Convex
    } else if curvature_value < -0.02 {
        Curvature::Concave
    } else {
        Curvature::Linear
    };

    FrameworkMetrics {
        breakup_penalty,
        multigrain_potential,
        curvature_value,
        curvature,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_sim::{CycleAccount, Cycles};

    fn point(c: usize, mcycles: u64) -> SweepPoint {
        SweepPoint {
            cluster_size: c,
            report: RunReport {
                per_proc: Vec::new(),
                duration: Cycles(mcycles),
                breakdown: CycleAccount::new(),
                lock_acquires: 0,
                lock_hits: 0,
                lan_messages: 0,
                lan_bytes: 0,
                lan_drops: 0,
                lan_duplicates: 0,
                retries: 0,
                churn_departs: 0,
                churn_rejoins: 0,
                rehomed_pages: 0,
                metrics: None,
                policy_decisions: Vec::new(),
            },
        }
    }

    #[test]
    fn metrics_on_a_flat_curve() {
        let pts: Vec<_> = [1, 2, 4, 8].iter().map(|&c| point(c, 1000)).collect();
        let m = metrics(&pts);
        assert_eq!(m.breakup_penalty, 0.0);
        assert_eq!(m.multigrain_potential, 0.0);
        assert_eq!(m.curvature, Curvature::Linear);
    }

    #[test]
    fn breakup_penalty_measures_half_to_full() {
        // T(8) = 100, T(4) = 300 → breakup = 200%.
        let pts = vec![point(1, 1000), point(2, 600), point(4, 300), point(8, 100)];
        let m = metrics(&pts);
        assert!((m.breakup_penalty - 2.0).abs() < 1e-9);
        // potential: (1000 - 300) / 1000 = 0.7.
        assert!((m.multigrain_potential - 0.7).abs() < 1e-9);
    }

    #[test]
    fn convex_curve_detected() {
        // Sharp drop at small clusters: T(2) far below the chord.
        let pts = vec![point(1, 1000), point(2, 400), point(4, 300), point(8, 250)];
        assert_eq!(metrics(&pts).curvature, Curvature::Convex);
    }

    #[test]
    fn concave_curve_detected() {
        // Improvement only arrives at large clusters.
        let pts = vec![point(1, 1000), point(2, 950), point(4, 300), point(8, 250)];
        assert_eq!(metrics(&pts).curvature, Curvature::Concave);
    }

    #[test]
    fn display_mentions_all_metrics() {
        let pts = vec![point(1, 1000), point(2, 600), point(4, 300), point(8, 100)];
        let s = metrics(&pts).to_string();
        assert!(s.contains("breakup"));
        assert!(s.contains("potential"));
        assert!(s.contains("curvature"));
    }

    #[test]
    #[should_panic(expected = "P >= 4")]
    fn tiny_machines_rejected() {
        metrics(&[point(1, 10), point(2, 10)]);
    }
}
