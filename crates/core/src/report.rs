//! Run reports: execution time and the four-way runtime breakdown.

use mgs_obs::MetricsReport;
use mgs_proto::PolicyDecision;
use mgs_sim::{CostCategory, CycleAccount, Cycles};
use std::fmt;

/// Per-processor result collected when a simulated processor finishes.
#[derive(Debug, Clone)]
pub(crate) struct ProcResult {
    /// Simulated time at the start of the measured region.
    pub start: Cycles,
    /// Simulated time when the processor finished.
    pub end: Cycles,
    /// Cycle account accumulated over the measured region.
    pub account: CycleAccount,
}

/// The result of one [`Machine::run`](crate::Machine::run): execution
/// time and the paper's User / Lock / Barrier / MGS breakdown
/// (Figures 6–10 and 12).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-processor cycle accounts over the measured region.
    pub per_proc: Vec<CycleAccount>,
    /// Execution time: the maximum measured-region length over all
    /// processors.
    pub duration: Cycles,
    /// Per-processor *mean* breakdown; when the program ends with a
    /// barrier (all the paper's applications do), the breakdown total
    /// equals the execution time.
    ///
    /// Rounding rule: each category is the summed total divided by the
    /// processor count, rounded down, with the dropped remainders
    /// re-apportioned largest-remainder-first so that the breakdown
    /// total equals `floor(grand_total / n)` exactly (no cycles are
    /// silently lost to per-category truncation).
    pub breakdown: CycleAccount,
    /// Total lock acquires across all machine locks.
    pub lock_acquires: u64,
    /// Lock acquires that needed no inter-SSMP communication.
    pub lock_hits: u64,
    /// Inter-SSMP protocol messages sent during the run.
    pub lan_messages: u64,
    /// Payload bytes carried by those messages.
    pub lan_bytes: u64,
    /// Transmissions lost by the fault-injecting fabric (0 on a perfect
    /// fabric).
    pub lan_drops: u64,
    /// Duplicate copies injected by the fabric (counted only: no
    /// protocol handler sees one).
    pub lan_duplicates: u64,
    /// Protocol retransmissions performed to recover from the drops.
    pub retries: u64,
    /// SSMP departures applied by the scenario's churn schedule (0 when
    /// the scenario has none).
    pub churn_departs: u64,
    /// SSMP rejoins applied by the churn schedule.
    pub churn_rejoins: u64,
    /// Pages re-homed to survivors across all departures.
    pub rehomed_pages: u64,
    /// The run's metrics ([`Machine::metrics`](crate::Machine::metrics)
    /// at its end); present exactly when
    /// [`DssmpConfig::observe`](crate::DssmpConfig) was enabled.
    pub metrics: Option<MetricsReport>,
    /// The adaptive-grain controller's policy-decision trace, in
    /// decision order (empty under the static strategies). With one
    /// worker the trace is bit-deterministic run-to-run.
    pub policy_decisions: Vec<PolicyDecision>,
}

impl RunReport {
    pub(crate) fn from_procs(
        results: Vec<ProcResult>,
        lock_totals: (u64, u64),
        lan_totals: (u64, u64),
        fault_totals: (u64, u64, u64),
        churn_totals: (u64, u64, u64),
        metrics: Option<MetricsReport>,
        policy_decisions: Vec<PolicyDecision>,
    ) -> RunReport {
        let n = results.len().max(1) as u64;
        let duration = results
            .iter()
            .map(|r| r.end.saturating_sub(r.start))
            .max()
            .unwrap_or(Cycles::ZERO);
        let mut sum = CycleAccount::new();
        for r in &results {
            sum.merge(&r.account);
        }
        // Mean breakdown by largest-remainder apportionment: naive
        // per-category `S_c / n` drops up to `n - 1` cycles from each
        // category, so the breakdown total would drift below the true
        // mean by up to `4 (n - 1)` cycles. Instead each category keeps
        // its floor quotient and the remainders fund `floor(Σr_c / n)`
        // extra cycles, handed to the largest remainders first (ties in
        // `CostCategory::ALL` order), making the total exactly
        // `floor(ΣS_c / n)`.
        let mut breakdown = CycleAccount::new();
        let mut rems: Vec<(u64, CostCategory)> = Vec::with_capacity(CostCategory::ALL.len());
        let mut rem_sum = 0u64;
        for c in CostCategory::ALL {
            let s = sum.get(c).raw();
            breakdown.record(c, Cycles(s / n));
            rems.push((s % n, c));
            rem_sum += s % n;
        }
        rems.sort_by_key(|&(r, _)| std::cmp::Reverse(r));
        for &(_, c) in rems.iter().take((rem_sum / n) as usize) {
            breakdown.record(c, Cycles(1));
        }
        RunReport {
            per_proc: results.into_iter().map(|r| r.account).collect(),
            duration,
            breakdown,
            lock_acquires: lock_totals.0,
            lock_hits: lock_totals.1,
            lan_messages: lan_totals.0,
            lan_bytes: lan_totals.1,
            lan_drops: fault_totals.0,
            lan_duplicates: fault_totals.1,
            retries: fault_totals.2,
            churn_departs: churn_totals.0,
            churn_rejoins: churn_totals.1,
            rehomed_pages: churn_totals.2,
            metrics,
            policy_decisions,
        }
    }

    /// The lock hit ratio of this run (Figure 11); 1.0 when no locks
    /// were used.
    pub fn lock_hit_ratio(&self) -> f64 {
        if self.lock_acquires == 0 {
            1.0
        } else {
            self.lock_hits as f64 / self.lock_acquires as f64
        }
    }

    /// Fraction of mean execution spent in a category.
    pub fn fraction(&self, category: CostCategory) -> f64 {
        self.breakdown.fraction(category)
    }

    /// Every counter [`first_divergence`](Self::first_divergence)
    /// compares, named, in its documented order.
    fn counters(&self) -> Vec<(String, u64)> {
        let account = |what: String, acc: &CycleAccount| {
            CostCategory::ALL.map(|cat| (format!("{what} {}", cat.label()), acc.get(cat).raw()))
        };
        let mut out = vec![("duration".to_string(), self.duration.raw())];
        out.extend(account("breakdown".to_string(), &self.breakdown));
        // The count precedes the accounts, so two reports of different
        // sizes diverge here, before their lists stop lining up.
        out.push(("processor count".to_string(), self.per_proc.len() as u64));
        for (p, acc) in self.per_proc.iter().enumerate() {
            out.extend(account(format!("proc {p}"), acc));
        }
        let totals = [
            ("lock acquires", self.lock_acquires),
            ("lock hits", self.lock_hits),
            ("LAN messages", self.lan_messages),
            ("LAN bytes", self.lan_bytes),
            ("LAN drops", self.lan_drops),
            ("retries", self.retries),
            ("churn departs", self.churn_departs),
            ("churn rejoins", self.churn_rejoins),
            ("re-homed pages", self.rehomed_pages),
        ];
        out.extend(totals.map(|(name, value)| (name.to_string(), value)));
        out
    }

    /// Names the first counter on which two reports differ, with both
    /// values (`"proc 3 MGS: 5120 vs 5184"`), or `None` when the runs
    /// are the same — the repository's one definition of
    /// "bit-identical". Fixed order: duration; breakdown by category;
    /// processor count; each processor's account by category; lock
    /// acquires and hits; LAN messages, bytes, drops; retries; churn
    /// departs, rejoins, re-homed pages.
    ///
    /// Three fields are left out on purpose. `lan_duplicates`: a
    /// duplicate copy reaches no handler and charges no cycle, so a
    /// duplicate storm is *defined* identical to the perfect fabric. `metrics`: present only when the
    /// observability sink is attached, and attaching it must not move
    /// a counter above. `policy_decisions`: a trace, not a counter —
    /// `tests/strategy_equivalence.rs` compares it with `==`.
    pub fn first_divergence(&self, other: &RunReport) -> Option<String> {
        self.counters()
            .into_iter()
            .zip(other.counters())
            .find(|((_, a), (_, b))| a != b)
            .map(|((name, a), (_, b))| format!("{name}: {a} vs {b}"))
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "duration: {:.3} Mcycles ({} procs)",
            self.duration.as_mcycles(),
            self.per_proc.len()
        )?;
        for (cat, cyc) in self.breakdown.iter() {
            writeln!(
                f,
                "  {:>8}: {:>12.3} Mcycles ({:5.1}%)",
                cat.label(),
                cyc.as_mcycles(),
                100.0 * self.breakdown.fraction(cat)
            )?;
        }
        write!(
            f,
            "  locks: {} acquires, hit ratio {:.3}; LAN: {} msgs, {} KiB",
            self.lock_acquires,
            self.lock_hit_ratio(),
            self.lan_messages,
            self.lan_bytes / 1024
        )?;
        if self.lan_drops + self.lan_duplicates + self.retries > 0 {
            write!(
                f,
                "\n  faults: {} dropped, {} duplicated, {} retries",
                self.lan_drops, self.lan_duplicates, self.retries
            )?;
        }
        if self.churn_departs + self.churn_rejoins > 0 {
            write!(
                f,
                "\n  churn: {} departures, {} rejoins, {} pages re-homed",
                self.churn_departs, self.churn_rejoins, self.rehomed_pages
            )?;
        }
        if !self.policy_decisions.is_empty() {
            write!(
                f,
                "\n  adaptive: {} pages reclassified",
                self.policy_decisions.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(start: u64, end: u64, user: u64) -> ProcResult {
        let mut account = CycleAccount::new();
        account.record(CostCategory::User, Cycles(user));
        ProcResult {
            start: Cycles(start),
            end: Cycles(end),
            account,
        }
    }

    #[test]
    fn duration_is_max_region() {
        let r = RunReport::from_procs(
            vec![result(0, 100, 100), result(10, 250, 240)],
            (0, 0),
            (0, 0),
            (0, 0, 0),
            (0, 0, 0),
            None,
            Vec::new(),
        );
        assert_eq!(r.duration, Cycles(240));
    }

    #[test]
    fn breakdown_is_per_proc_mean() {
        let r = RunReport::from_procs(
            vec![result(0, 100, 100), result(0, 100, 50)],
            (0, 0),
            (0, 0),
            (0, 0, 0),
            (0, 0, 0),
            None,
            Vec::new(),
        );
        assert_eq!(r.breakdown.get(CostCategory::User), Cycles(75));
    }

    #[test]
    fn breakdown_rounding_preserves_the_grand_total() {
        // Three processors, every category summing to 3k + 2: naive
        // per-category division would lose 2 cycles in each of the four
        // categories (8 total); largest-remainder apportionment keeps
        // the breakdown total at floor(grand / n) exactly.
        let mk = |u, l, b, m| {
            let mut account = CycleAccount::new();
            account.record(CostCategory::User, Cycles(u));
            account.record(CostCategory::Lock, Cycles(l));
            account.record(CostCategory::Barrier, Cycles(b));
            account.record(CostCategory::Mgs, Cycles(m));
            ProcResult {
                start: Cycles(0),
                end: Cycles(100),
                account,
            }
        };
        let r = RunReport::from_procs(
            vec![mk(4, 3, 5, 2), mk(3, 3, 3, 3), mk(4, 5, 3, 6)],
            (0, 0),
            (0, 0),
            (0, 0, 0),
            (0, 0, 0),
            None,
            Vec::new(),
        );
        let grand: u64 = [4 + 3 + 4, 3 + 3 + 5, 5 + 3 + 3, 2 + 3 + 6].iter().sum();
        assert_eq!(r.breakdown.total(), Cycles(grand / 3));
        // Each category stays within 1 cycle of its exact mean.
        for (c, s) in [
            (CostCategory::User, 11u64),
            (CostCategory::Lock, 11),
            (CostCategory::Barrier, 11),
            (CostCategory::Mgs, 11),
        ] {
            let got = r.breakdown.get(c).raw();
            assert!(got == s / 3 || got == s / 3 + 1, "{c:?}: {got}");
        }
    }

    #[test]
    fn hit_ratio_defaults_to_one() {
        let r = RunReport::from_procs(
            vec![result(0, 1, 1)],
            (0, 0),
            (0, 0),
            (0, 0, 0),
            (0, 0, 0),
            None,
            Vec::new(),
        );
        assert_eq!(r.lock_hit_ratio(), 1.0);
        let r2 = RunReport::from_procs(
            vec![result(0, 1, 1)],
            (10, 4),
            (0, 0),
            (0, 0, 0),
            (0, 0, 0),
            None,
            Vec::new(),
        );
        assert!((r2.lock_hit_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn first_divergence_names_each_field_in_documented_order() {
        use CostCategory::{Barrier, Mgs, User};
        const ONE: Cycles = Cycles(1);
        let base = RunReport::from_procs(
            vec![result(0, 20, 10), result(0, 20, 20)],
            (1, 1),
            (1, 1),
            (1, 1, 1),
            (1, 1, 1),
            None,
            Vec::new(),
        );
        assert_eq!(base.first_divergence(&base.clone()), None);

        // One perturbation per counter, last field first: each step
        // leaves the later fields perturbed too, so the name returned
        // shows the earlier field wins.
        type Perturb = fn(&mut RunReport);
        let steps: [(&str, Perturb); 15] = [
            ("re-homed pages: 1 vs 2", |r| r.rehomed_pages += 1),
            ("churn rejoins: 1 vs 2", |r| r.churn_rejoins += 1),
            ("churn departs: 1 vs 2", |r| r.churn_departs += 1),
            ("retries: 1 vs 2", |r| r.retries += 1),
            ("LAN drops: 1 vs 2", |r| r.lan_drops += 1),
            ("LAN bytes: 1 vs 2", |r| r.lan_bytes += 1),
            ("LAN messages: 1 vs 2", |r| r.lan_messages += 1),
            ("lock hits: 1 vs 2", |r| r.lock_hits += 1),
            ("lock acquires: 1 vs 2", |r| r.lock_acquires += 1),
            ("proc 1 MGS: 0 vs 1", |r| r.per_proc[1].record(Mgs, ONE)),
            ("proc 0 User: 10 vs 11", |r| r.per_proc[0].record(User, ONE)),
            ("processor count: 2 vs 3", |r| {
                r.per_proc.push(CycleAccount::new())
            }),
            ("breakdown Barrier: 0 vs 1", |r| {
                r.breakdown.record(Barrier, ONE)
            }),
            ("breakdown User: 15 vs 16", |r| {
                r.breakdown.record(User, ONE)
            }),
            ("duration: 20 vs 21", |r| r.duration = Cycles(21)),
        ];
        let mut other = base.clone();
        for (want, perturb) in steps {
            perturb(&mut other);
            assert_eq!(base.first_divergence(&other).as_deref(), Some(want));
        }

        // Duplicates alone are not a divergence (see the method's doc).
        let mut storm = base.clone();
        storm.lan_duplicates += 100;
        assert_eq!(base.first_divergence(&storm), None);
    }

    #[test]
    fn display_contains_all_categories() {
        let r = RunReport::from_procs(
            vec![result(0, 10, 10)],
            (0, 0),
            (0, 0),
            (0, 0, 0),
            (0, 0, 0),
            None,
            Vec::new(),
        );
        let s = r.to_string();
        for label in ["User", "Lock", "Barrier", "MGS"] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
