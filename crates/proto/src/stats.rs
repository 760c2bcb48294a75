//! Protocol event statistics.

use mgs_obs::{Metric, ObsEvent, XactOutcome};
use mgs_sim::Counter;

/// Counters for every class of protocol event: the one count of each,
/// which a run report's metrics read through
/// [`metrics`](ProtoStats::metrics).
#[derive(Debug, Default)]
pub struct ProtoStats {
    /// Arc 1/3: faults satisfied by an existing local mapping. At
    /// `C = P`, where every MGS call is null, `Env` counts each
    /// page-table fill here.
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
    /// Pages that left single-writer mode (a second writer joined).
    pub single_writer_breaks: Counter,
    /// Twins created (upgrade twinning plus write-fill images kept).
    pub twin_creates: Counter,
    /// Diffs computed and applied at the home.
    pub diffs: Counter,
    /// Total words carried by diffs.
    pub diff_words: Counter,
    /// Total contiguous spans those diffs coalesced into.
    pub diff_spans: Counter,
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
    /// Transactions abandoned because a message exhausted its retry
    /// budget: inside a span, its `XactEnd { Aborted }`.
    pub xact_failures: Counter,
}

impl ProtoStats {
    /// Creates zeroed statistics.
    pub fn new() -> ProtoStats {
        ProtoStats::default()
    }

    /// Counts one protocol observation: the repository's one
    /// event-to-counter mapping. Charges count elsewhere (the fabric's
    /// `NetStats`; retries where the send retries).
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
            ObsEvent::SingleWriterBreak { .. } => self.single_writer_breaks.incr(),
            ObsEvent::TwinCreate { .. } => self.twin_creates.incr(),
            ObsEvent::Diff { words, spans, .. } => {
                self.diffs.incr();
                self.diff_words.add(words);
                self.diff_spans.add(spans);
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

    /// Every counter beside the [`Metric`] of the same meaning: what a
    /// run report's metrics read from the protocol.
    pub fn metrics(&self) -> [(Metric, u64); 20] {
        [
            (Metric::TlbFills, self.tlb_fills.get()),
            (Metric::ReadMisses, self.read_misses.get()),
            (Metric::WriteMisses, self.write_misses.get()),
            (Metric::Upgrades, self.upgrades.get()),
            (Metric::DuqFlushes, self.releases.get()),
            (Metric::PagesReleased, self.pages_released.get()),
            (
                Metric::SingleWriterFlushes,
                self.single_writer_flushes.get(),
            ),
            (Metric::SingleWriterBreaks, self.single_writer_breaks.get()),
            (Metric::TwinCreates, self.twin_creates.get()),
            (Metric::DiffsSent, self.diffs.get()),
            (Metric::DiffWords, self.diff_words.get()),
            (Metric::DiffSpans, self.diff_spans.get()),
            (Metric::Invalidations, self.invalidations.get()),
            (Metric::Pinvs, self.pinvs.get()),
            (Metric::LazyNotices, self.lazy_notices.get()),
            (Metric::UpdatePushes, self.update_pushes.get()),
            (Metric::UpdatePushWords, self.update_push_words.get()),
            (Metric::PolicySwitches, self.policy_switches.get()),
            (Metric::Retries, self.retries.get()),
            (Metric::XactAborts, self.xact_failures.get()),
        ]
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

    /// Feeds one of each [`ObsEvent`] variant through
    /// [`ProtoStats::record`] and names exactly the counters it moves:
    /// an arm dropped or duplicated fails here. Charges move none (the
    /// fabric's statistics and the retrying send own them), nor do span
    /// begins, aborted spans (counted where the send gives up), diffed
    /// lines or churn (the churn controller's totals).
    #[test]
    fn each_event_kind_lands_in_exactly_one_counter() {
        use mgs_net::MsgKind;
        use mgs_obs::{PagePolicy, XactKind};
        use mgs_sim::Cycles;
        use Metric::*;

        let (page, ssmp, proc, kind) = (7, 1, 3, MsgKind::RReq);
        let end = |outcome| ObsEvent::XactEnd {
            xact: XactKind::ReadFault,
            page,
            outcome,
        };
        let cases = [
            (ObsEvent::Local { cycles: Cycles(5) }, vec![]),
            (ObsEvent::WaitUntil { instant: Cycles(9) }, vec![]),
            (
                ObsEvent::Message {
                    from: 0,
                    to: 1,
                    kind,
                    bytes: 8,
                },
                vec![],
            ),
            (
                ObsEvent::NodeWork {
                    node: 2,
                    start: Cycles(1),
                    cycles: Cycles(2),
                },
                vec![],
            ),
            (
                ObsEvent::Drop {
                    from: 0,
                    to: 1,
                    kind,
                },
                vec![],
            ),
            (
                ObsEvent::Duplicate {
                    from: 0,
                    to: 1,
                    kind,
                    copies: 2,
                },
                vec![],
            ),
            (
                ObsEvent::Retry {
                    from: 0,
                    to: 1,
                    kind,
                    attempt: 0,
                    wait: Cycles(100),
                },
                vec![],
            ),
            (
                ObsEvent::XactBegin {
                    xact: XactKind::Release,
                    page,
                },
                vec![],
            ),
            (end(XactOutcome::TlbFill), vec![(TlbFills, 1)]),
            (end(XactOutcome::ReadMiss), vec![(ReadMisses, 1)]),
            (end(XactOutcome::WriteMiss), vec![(WriteMisses, 1)]),
            (end(XactOutcome::Upgrade), vec![(Upgrades, 1)]),
            (end(XactOutcome::Released), vec![(PagesReleased, 1)]),
            (end(XactOutcome::Aborted), vec![]),
            (ObsEvent::TwinCreate { page, ssmp }, vec![(TwinCreates, 1)]),
            (
                ObsEvent::Diff {
                    page,
                    ssmp,
                    words: 12,
                    spans: 3,
                },
                vec![(DiffsSent, 1), (DiffWords, 12), (DiffSpans, 3)],
            ),
            (ObsEvent::DiffLine { page, line: 4 }, vec![]),
            (
                ObsEvent::Invalidate {
                    page,
                    ssmp,
                    writer: true,
                },
                vec![(Invalidations, 1)],
            ),
            (
                ObsEvent::SingleWriterFlush { page, ssmp },
                vec![(SingleWriterFlushes, 1)],
            ),
            (
                ObsEvent::SingleWriterBreak { page, ssmp },
                vec![(SingleWriterBreaks, 1)],
            ),
            (ObsEvent::DuqFlush { proc, pages: 4 }, vec![(DuqFlushes, 1)]),
            (ObsEvent::LazyNotice { page, ssmp }, vec![(LazyNotices, 1)]),
            (ObsEvent::Pinv { page, proc }, vec![(Pinvs, 1)]),
            (
                ObsEvent::UpdatePush {
                    page,
                    ssmp,
                    words: 6,
                },
                vec![(UpdatePushes, 1), (UpdatePushWords, 6)],
            ),
            (
                ObsEvent::PolicySwitch {
                    page,
                    policy: PagePolicy::WriteThrough,
                },
                vec![(PolicySwitches, 1)],
            ),
            (
                ObsEvent::Churn {
                    ssmp,
                    rejoin: false,
                    rehomed: 5,
                },
                vec![],
            ),
        ];
        // Every variant has a case: this match has no wildcard, so a new
        // variant does not compile until it is listed here and above.
        let variant = |e: &ObsEvent| match e {
            ObsEvent::Local { .. } => 0,
            ObsEvent::WaitUntil { .. } => 1,
            ObsEvent::Message { .. } => 2,
            ObsEvent::NodeWork { .. } => 3,
            ObsEvent::Drop { .. } => 4,
            ObsEvent::Duplicate { .. } => 5,
            ObsEvent::Retry { .. } => 6,
            ObsEvent::XactBegin { .. } => 7,
            ObsEvent::XactEnd { .. } => 8,
            ObsEvent::TwinCreate { .. } => 9,
            ObsEvent::Diff { .. } => 10,
            ObsEvent::DiffLine { .. } => 11,
            ObsEvent::Invalidate { .. } => 12,
            ObsEvent::SingleWriterFlush { .. } => 13,
            ObsEvent::SingleWriterBreak { .. } => 14,
            ObsEvent::DuqFlush { .. } => 15,
            ObsEvent::LazyNotice { .. } => 16,
            ObsEvent::Pinv { .. } => 17,
            ObsEvent::UpdatePush { .. } => 18,
            ObsEvent::PolicySwitch { .. } => 19,
            ObsEvent::Churn { .. } => 20,
        };
        let mut seen = [false; 21];
        for (event, expected) in cases {
            seen[variant(&event)] = true;
            let stats = ProtoStats::new();
            stats.record(&event);
            let moved: Vec<(Metric, u64)> = stats
                .metrics()
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .collect();
            assert_eq!(moved, expected, "{event:?}");
        }
        assert!(seen.iter().all(|&s| s), "a variant has no case");

        // And `metrics` names each counter under its own metric.
        let named = ProtoStats::new().metrics().map(|(m, _)| m);
        for (i, m) in named.iter().enumerate() {
            assert!(!named[..i].contains(m), "{m:?} named twice");
        }
    }
}
