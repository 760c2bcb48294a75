//! Per-page coherence policies and the profile-driven adaptive-grain
//! controller.
//!
//! The paper's protocol is one point in a large design space: eager
//! invalidation at release, Munin-style twin/diff multiple writers, the
//! single-writer 1WDATA optimization. This module makes the choice
//! explicit. Each virtual page's record holds its [`PagePolicy`], set
//! when the record is created from the configured [`ProtocolKind`]
//! (see [`MgsProtocol::policy`](crate::MgsProtocol::policy)); the
//! protocol's steps dispatch on it at their *slow paths only* (faults,
//! releases, acquires): the per-access hot path never consults a
//! policy, and under the static protocols it never changes (the
//! `strategy_equivalence` suite gates that [`Eager`](ProtocolKind::Eager)
//! reports are bit-identical to the protocol before policies existed).
//!
//! Three protocols exist:
//!
//! * [`ProtocolKind::Eager`] — the paper's protocol, unchanged.
//! * [`ProtocolKind::HomeLrc`] — home-based lazy release consistency:
//!   the releaser flushes its diff to the home and posts write notices;
//!   sharers drop their copies at their next acquire point, off the
//!   releaser's critical path (no invalidation fan-out).
//! * [`ProtocolKind::Adaptive`] — starts every page as `Eager` and
//!   reclassifies hot pages online from the `mgs-obs` sharing
//!   profiler: falsely-shared and producer/consumer pages switch to
//!   [`PagePolicy::WriteThrough`] (diffs pushed to live sharer copies,
//!   no invalidation/refetch churn — the page is effectively demoted to
//!   diff-grain coherence), migratory pages to
//!   [`PagePolicy::SingleWriterPin`] (lazy migratory release: the sole
//!   writer's releases stop flushing data — its updates are recalled,
//!   diff-merged from the kept twin, only when another SSMP actually
//!   faults on the page — so lock streaks that stay inside one SSMP
//!   pay nothing per critical section).

pub use mgs_obs::PagePolicy;
use mgs_sim::Cycles;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which coherence strategy a protocol instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// The paper's protocol (eager invalidation + single-writer
    /// optimization). Bit-identical to the pre-strategy code.
    #[default]
    Eager,
    /// Home-based lazy release consistency for every page.
    HomeLrc,
    /// Profile-driven per-page policies (requires the observability
    /// sink; the runtime enables it automatically).
    Adaptive,
}

impl ProtocolKind {
    /// Label used by benches and JSON provenance.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Eager => "eager",
            ProtocolKind::HomeLrc => "lrc",
            ProtocolKind::Adaptive => "adaptive",
        }
    }

    /// Parses a bench-flag value (`eager` | `lrc` | `adaptive`).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s {
            "eager" => Some(ProtocolKind::Eager),
            "lrc" | "home_lrc" | "homelrc" => Some(ProtocolKind::HomeLrc),
            "adaptive" => Some(ProtocolKind::Adaptive),
            _ => None,
        }
    }
}

/// Minimum simulated cycles between controller samples. Samples are
/// taken at safe poll points (fault entries), whichever processor's
/// poll point first crosses the deadline; the check is a single
/// lock-free atomic compare.
const SAMPLE_EVERY: Cycles = Cycles(100_000);
/// A page must have accumulated at least this much profiler activity
/// before it is classified (cold pages stay `Eager`).
const MIN_ACTIVITY: u64 = 12;
/// A multi-writer page whose mean diff carries at most this many
/// changed words is treated as falsely shared (TSP's 56-byte path
/// records are 7 words) and switched to write-through.
const SMALL_DIFF_WORDS: u64 = 16;
/// A single-writer page needs at least this many reader invalidations
/// (or lazy notices) before it is called producer/consumer and
/// switched to write-through.
const MIN_CONSUMER_INVALS: u64 = 8;
/// A sole-writer page needs at least this many 1WDATA flushes — and
/// flushes must outnumber reader invalidations two to one — before it
/// is pinned. The ratio keeps every-iteration producer/consumer pages
/// (flushes ≈ invalidations) on the write-through track.
const MIN_PIN_FLUSHES: u64 = 3;

/// One adaptive policy decision, for the run report's policy trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyDecision {
    /// The reclassified virtual page.
    pub page: u64,
    /// The policy now in effect.
    pub policy: PagePolicy,
    /// Simulated time of the controller sample that decided it.
    pub at: Cycles,
    /// Why (the classification rule that fired).
    pub reason: &'static str,
}

/// The profile-driven adaptive-grain controller: the sampling
/// deadline and the decision trace. Each page's policy lives in its
/// page record (pages start `Eager`); classification itself is
/// [`AdaptiveController::classify`], which the protocol's `adapt` entry
/// point feeds profiler snapshots at safe poll points.
#[derive(Debug)]
pub(crate) struct AdaptiveController {
    /// Next simulated time a sample is due. Poll points race on a
    /// compare-exchange; exactly one wins each deadline.
    next_due: AtomicU64,
    decisions: Mutex<Vec<PolicyDecision>>,
}

impl AdaptiveController {
    /// Creates a controller whose first sample is due one sampling
    /// period in.
    pub fn new() -> AdaptiveController {
        AdaptiveController {
            next_due: AtomicU64::new(SAMPLE_EVERY.raw()),
            decisions: Mutex::new(Vec::new()),
        }
    }

    /// Is a controller sample due at simulated time `now`? On `true`
    /// the deadline has been advanced and the caller owns this sample
    /// (lock-free; losers of the race see `false`).
    pub fn sample_due(&self, now: Cycles) -> bool {
        let due = self.next_due.load(Ordering::Relaxed);
        if now.raw() < due {
            return false;
        }
        self.next_due
            .compare_exchange(
                due,
                now.raw() + SAMPLE_EVERY.raw(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Appends a decision to the trace.
    pub fn record(&self, decision: PolicyDecision) {
        self.decisions.lock().push(decision);
    }

    /// The decision trace so far, in decision order.
    pub fn decisions(&self) -> Vec<PolicyDecision> {
        self.decisions.lock().clone()
    }

    /// Classifies one page from its accumulated profile. Returns the
    /// policy to switch to (with the rule that fired), or `None` to
    /// stay `Eager`. Transitions are one-way — a page is classified at
    /// most once — so repeated sampling of cumulative counters is
    /// idempotent and the policy trace stays short and deterministic.
    pub fn classify(profile: &mgs_obs::PageProfile) -> Option<(PagePolicy, &'static str)> {
        if profile.activity() < MIN_ACTIVITY {
            return None;
        }
        let writers = u64::from(profile.write_sharers());
        let readers = u64::from(profile.read_sharers());
        if writers >= 2 {
            // Migratory: the page lives in single-writer mode (1WDATA
            // flushes dominate multi-writer diff releases) yet write
            // privilege has moved between SSMPs over time — the
            // signature of lock-protected data handed around with its
            // lock. Pin it: releases stop flushing (the updates are
            // recalled on demand when another SSMP faults), so
            // same-SSMP lock streaks run entirely in hardware. This
            // rule fires before the small-diff one — a migratory page's
            // few transition-window diffs are tiny and would otherwise
            // misclassify it as falsely shared.
            if profile.single_writer_flushes > profile.diffs {
                return Some((PagePolicy::SingleWriterPin, "migratory"));
            }
            let mean_diff = profile
                .diff_words
                .checked_div(profile.diffs)
                .unwrap_or(u64::MAX);
            if profile.diffs > 0 && mean_diff <= SMALL_DIFF_WORDS {
                // Several SSMPs write the page but each release carries
                // only a few words: page-grain coherence is amplifying
                // sub-page (cache-line-grain) sharing. Patch sharers in
                // place instead of invalidating them.
                return Some((PagePolicy::WriteThrough, "falsely-shared"));
            }
            // Writers hand the whole page around in large diffs: keep
            // it single-writer by evicting the previous writer at
            // fault time.
            return Some((PagePolicy::SingleWriterPin, "migratory"));
        }
        if writers == 1
            && readers >= 1
            && profile.invalidations + profile.lazy_notices >= MIN_CONSUMER_INVALS
        {
            // One producer, stable consumers, and the consumers' copies
            // keep getting invalidated and refetched: push the
            // producer's diffs instead.
            return Some((PagePolicy::WriteThrough, "producer-consumer"));
        }
        if writers <= 1
            && profile.single_writer_flushes >= MIN_PIN_FLUSHES
            && profile.single_writer_flushes > 2 * (profile.invalidations + profile.lazy_notices)
        {
            // One writer, and its whole-page 1WDATA flushes dwarf the
            // rare reader invalidations: the flushes are pure overhead
            // (mostly remotely-homed near-private data drained off the
            // delayed update queue inside critical sections). Pin it —
            // releases stop flushing and the occasional reader recalls
            // the data on demand.
            return Some((PagePolicy::SingleWriterPin, "sole-writer"));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MgsProtocol, ProtoConfig};
    use mgs_obs::PageProfile;

    #[test]
    fn static_protocols_are_uniform() {
        let proto = |protocol| {
            MgsProtocol::new(ProtoConfig {
                protocol,
                ..ProtoConfig::new(2, 2)
            })
        };
        let (e, l) = (proto(ProtocolKind::Eager), proto(ProtocolKind::HomeLrc));
        for page in [0u64, 7, 1 << 40] {
            assert_eq!(e.policy(page), PagePolicy::Eager);
            assert_eq!(l.policy(page), PagePolicy::HomeLrc);
        }
        // Only the adaptive protocol ever has a sample due.
        assert!(!e.uses_notices() && !e.adapt_due(SAMPLE_EVERY));
        assert!(l.uses_notices() && !l.adapt_due(SAMPLE_EVERY));
        assert!(proto(ProtocolKind::Adaptive).adapt_due(SAMPLE_EVERY));
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in [
            ProtocolKind::Eager,
            ProtocolKind::HomeLrc,
            ProtocolKind::Adaptive,
        ] {
            assert_eq!(ProtocolKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("nope"), None);
    }

    #[test]
    fn sample_deadline_is_claimed_once() {
        let c = AdaptiveController::new();
        let first = SAMPLE_EVERY.raw();
        assert!(!c.sample_due(Cycles(first - 1)));
        assert!(c.sample_due(Cycles(first + 50)));
        // The winner advanced the deadline to first + 50 + SAMPLE_EVERY.
        assert!(!c.sample_due(Cycles(first + 50)));
        assert!(!c.sample_due(Cycles(2 * first + 49)));
        assert!(c.sample_due(Cycles(2 * first + 50)));
    }

    #[test]
    fn install_sets_the_record_and_traces() {
        let p = MgsProtocol::new(ProtoConfig {
            protocol: ProtocolKind::Adaptive,
            ..ProtoConfig::new(2, 2)
        });
        assert_eq!(p.policy(5), PagePolicy::Eager);
        p.install(PolicyDecision {
            page: 5,
            policy: PagePolicy::WriteThrough,
            at: Cycles(42),
            reason: "test",
        });
        assert_eq!(p.policy(5), PagePolicy::WriteThrough);
        assert_eq!(p.policy(6), PagePolicy::Eager);
        let trace = p.policy_decisions();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].page, 5);
    }

    #[test]
    fn classify_separates_the_three_shapes() {
        let classify = AdaptiveController::classify;

        // Falsely shared: two writers, tiny diffs.
        let mut false_shared = PageProfile {
            writer_mask: 0b11,
            diffs: 10,
            diff_words: 70, // 7 words/diff: sub-line records
            invalidations: 20,
            write_fills: 20,
            ..PageProfile::default()
        };
        assert_eq!(
            classify(&false_shared),
            Some((PagePolicy::WriteThrough, "falsely-shared"))
        );

        // Migratory: two writers, big diffs.
        false_shared.diff_words = 10_000;
        assert_eq!(
            classify(&false_shared),
            Some((PagePolicy::SingleWriterPin, "migratory"))
        );

        // Producer/consumer: one writer, invalidated readers.
        let producer = PageProfile {
            writer_mask: 0b1,
            reader_mask: 0b110,
            invalidations: 16,
            read_fills: 16,
            single_writer_flushes: 16,
            ..PageProfile::default()
        };
        assert_eq!(
            classify(&producer),
            Some((PagePolicy::WriteThrough, "producer-consumer"))
        );

        // Cold page: below the activity floor.
        let cold = PageProfile {
            writer_mask: 0b11,
            diffs: 1,
            diff_words: 2,
            ..PageProfile::default()
        };
        assert_eq!(classify(&cold), None);
    }
}
