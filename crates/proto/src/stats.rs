//! Protocol event statistics.

use mgs_obs::{ObsEvent, XactOutcome};
use mgs_sim::Counter;
use std::fmt;

/// Counters for every class of protocol event, for harness reporting
/// and tests.
#[derive(Debug, Default)]
pub struct ProtoStats {
    /// Arc 1/3: faults satisfied by an existing local mapping. At
    /// `C = P`, where every MGS call is null, `Env` counts each
    /// page-table fill here, as `Metric::TlbFills` does.
    pub tlb_fills: Counter,
    /// Arc 5→17→6: inter-SSMP read misses (including home-SSMP
    /// re-mappings, which move no data).
    pub read_misses: Counter,
    /// Arc 5→18→7: inter-SSMP write misses.
    pub write_misses: Counter,
    /// Arc 2→13: read-to-write privilege upgrades.
    pub upgrades: Counter,
    /// Release operations performed (DUQ drains).
    pub releases: Counter,
    /// Pages flushed by releases.
    pub pages_released: Counter,
    /// Single-writer optimized flushes (1WINV/1WDATA path).
    pub single_writer_flushes: Counter,
    /// Diffs computed and applied at the home.
    pub diffs: Counter,
    /// Total words carried by diffs.
    pub diff_words: Counter,
    /// Page invalidations performed at clients.
    pub invalidations: Counter,
    /// TLB entries shot down by PINV.
    pub pinvs: Counter,
    /// Write notices posted by home-LRC lazy invalidation.
    pub lazy_notices: Counter,
    /// Merged diffs pushed to live sharer copies (write-through
    /// policy).
    pub update_pushes: Counter,
    /// Total words carried by those update pushes.
    pub update_push_words: Counter,
    /// Pages reclassified by the adaptive-grain controller.
    pub policy_switches: Counter,
    /// Retransmissions after a fabric-dropped message timed out.
    pub retries: Counter,
    /// Transactions aborted after exhausting their retry budget.
    pub xact_failures: Counter,
}

impl ProtoStats {
    /// Creates zeroed statistics.
    pub fn new() -> ProtoStats {
        ProtoStats::default()
    }

    /// Counts one protocol event: the protocol's half of the mapping
    /// `mgs_obs::ObsSink::record` makes for the registry.
    pub(crate) fn record(&self, event: &ObsEvent) {
        match *event {
            ObsEvent::XactEnd { outcome, .. } => match outcome {
                XactOutcome::TlbFill => self.tlb_fills.incr(),
                XactOutcome::ReadMiss => self.read_misses.incr(),
                XactOutcome::WriteMiss => self.write_misses.incr(),
                XactOutcome::Upgrade => self.upgrades.incr(),
                XactOutcome::Released => self.pages_released.incr(),
                XactOutcome::Aborted => {}
            },
            ObsEvent::DuqFlush { .. } => self.releases.incr(),
            ObsEvent::SingleWriterFlush { .. } => self.single_writer_flushes.incr(),
            ObsEvent::Diff { words, .. } => {
                self.diffs.incr();
                self.diff_words.add(words);
            }
            ObsEvent::Invalidate { .. } => self.invalidations.incr(),
            ObsEvent::Pinv { .. } => self.pinvs.incr(),
            ObsEvent::LazyNotice { .. } => self.lazy_notices.incr(),
            ObsEvent::UpdatePush { words, .. } => {
                self.update_pushes.incr();
                self.update_push_words.add(words);
            }
            ObsEvent::PolicySwitch { .. } => self.policy_switches.incr(),
            _ => {}
        }
    }
}

impl fmt::Display for ProtoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tlb_fills={} read_misses={} write_misses={} upgrades={}",
            self.tlb_fills, self.read_misses, self.write_misses, self.upgrades
        )?;
        write!(
            f,
            "releases={} pages={} 1w_flushes={} diffs={} diff_words={} invals={} pinvs={}",
            self.releases,
            self.pages_released,
            self.single_writer_flushes,
            self.diffs,
            self.diff_words,
            self.invalidations,
            self.pinvs
        )?;
        let (retries, fails) = (self.retries.get(), self.xact_failures.get());
        if retries + fails > 0 {
            write!(f, "\nrecovery: retries={retries} xact_failures={fails}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_count() {
        let s = ProtoStats::new();
        assert_eq!(s.read_misses.get(), 0);
        s.read_misses.incr();
        s.diff_words.add(12);
        assert_eq!(s.read_misses.get(), 1);
        assert_eq!(s.diff_words.get(), 12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!ProtoStats::new().to_string().is_empty());
    }
}
