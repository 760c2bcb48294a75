//! The sharing profiler: per-page (and per-cache-line) attribution of
//! protocol events.
//!
//! The flat counters in [`crate::ObsRegistry`] say *how much* protocol
//! traffic a run generated; this profiler says *where*. It keeps one
//! [`PageProfile`] per virtual page touched by the protocol, recording
//! fill/upgrade/invalidation counts, the read- and write-sharer SSMP
//! masks, and which cache lines diffs actually touched — enough to
//! regenerate the paper's per-application sharing narratives (§5:
//! migratory pages, widely-read-mostly pages, false sharing within a
//! page).
//!
//! Profiling happens off the per-access hot path: only protocol
//! transactions (faults, releases, invalidations) reach the profiler,
//! so taking a shard lock and growing a hash map here does not violate
//! the zero-allocation guarantee for steady-state accesses.

use crate::event::{ObsEvent, XactOutcome};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

const SHARDS: usize = 16;

/// Accumulated protocol activity for one virtual page.
#[derive(Debug, Clone, Default)]
pub struct PageProfile {
    /// Faults satisfied by an existing local mapping.
    pub tlb_fills: u64,
    /// Inter-SSMP read fills.
    pub read_fills: u64,
    /// Inter-SSMP write fills.
    pub write_fills: u64,
    /// In-place read-to-write upgrades.
    pub upgrades: u64,
    /// Client copies invalidated.
    pub invalidations: u64,
    /// Twins created.
    pub twin_creates: u64,
    /// Diffs shipped to the home.
    pub diffs: u64,
    /// Changed words carried by those diffs.
    pub diff_words: u64,
    /// Single-writer whole-page flushes.
    pub single_writer_flushes: u64,
    /// Times the page lost single-writer status.
    pub single_writer_breaks: u64,
    /// Lazy write notices posted against the page.
    pub lazy_notices: u64,
    /// Merged diffs pushed to live sharer copies (write-through
    /// policy).
    pub update_pushes: u64,
    /// TLB entries shot down for the page.
    pub pinvs: u64,
    /// Bitmask of SSMPs that ever held a read copy.
    pub reader_mask: u64,
    /// Bitmask of SSMPs that ever held write privilege.
    pub writer_mask: u64,
    /// Per-cache-line count of diff merges that touched the line
    /// (page-relative; sized lazily on first diff).
    pub line_writes: Vec<u32>,
}

impl PageProfile {
    /// Number of distinct SSMPs that ever read the page.
    pub fn read_sharers(&self) -> u32 {
        self.reader_mask.count_ones()
    }

    /// Number of distinct SSMPs that ever wrote the page.
    pub fn write_sharers(&self) -> u32 {
        self.writer_mask.count_ones()
    }

    /// Invalidations per inter-SSMP fill/upgrade — the fraction of
    /// copies whose lifetime ended in coherence activity rather than
    /// surviving to the end of the run.
    pub fn invalidation_rate(&self) -> f64 {
        let fills = (self.read_fills + self.write_fills + self.upgrades).max(1);
        self.invalidations as f64 / fills as f64
    }

    /// Total protocol events attributed to the page (the hotness key).
    pub fn activity(&self) -> u64 {
        self.tlb_fills
            + self.read_fills
            + self.write_fills
            + self.upgrades
            + self.invalidations
            + self.twin_creates
            + self.diffs
            + self.single_writer_flushes
            + self.lazy_notices
            + self.update_pushes
            + self.pinvs
    }

    /// The most diff-written cache line, as `(page_relative_line,
    /// merges)`, or `None` if no diff ever touched the page.
    pub fn hottest_line(&self) -> Option<(usize, u32)> {
        self.line_writes
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0)
            .max_by_key(|(i, w)| (**w, usize::MAX - *i))
            .map(|(i, w)| (i, *w))
    }
}

/// Sharded per-page event attribution. `record` takes the *observing
/// processor's SSMP* so sharer masks can be built even for events that
/// do not carry one themselves.
#[derive(Debug)]
pub struct SharingProfiler {
    shards: [Mutex<HashMap<u64, PageProfile>>; SHARDS],
    lines_per_page: usize,
}

impl SharingProfiler {
    /// Creates an empty profiler for pages of `lines_per_page` cache
    /// lines.
    pub fn new(lines_per_page: usize) -> SharingProfiler {
        SharingProfiler {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            lines_per_page: lines_per_page.max(1),
        }
    }

    fn with_page<R>(&self, page: u64, f: impl FnOnce(&mut PageProfile) -> R) -> R {
        let mut shard = self.shards[(page as usize) % SHARDS].lock();
        f(shard.entry(page).or_default())
    }

    /// Attributes one protocol event. `ssmp` is the SSMP of the
    /// processor on whose behalf the event happened (the faulting or
    /// releasing side); events that name another party carry it
    /// explicitly.
    pub fn record(&self, ssmp: usize, event: &ObsEvent) {
        match *event {
            ObsEvent::XactEnd { page, outcome, .. } => self.with_page(page, |p| match outcome {
                XactOutcome::TlbFill => p.tlb_fills += 1,
                XactOutcome::ReadMiss => {
                    p.read_fills += 1;
                    p.reader_mask |= 1 << (ssmp as u64 & 63);
                }
                XactOutcome::WriteMiss => {
                    p.write_fills += 1;
                    p.writer_mask |= 1 << (ssmp as u64 & 63);
                }
                XactOutcome::Upgrade => {
                    p.upgrades += 1;
                    p.writer_mask |= 1 << (ssmp as u64 & 63);
                }
                XactOutcome::Released | XactOutcome::Aborted => {}
            }),
            ObsEvent::TwinCreate { page, .. } => self.with_page(page, |p| p.twin_creates += 1),
            ObsEvent::Diff { page, words, .. } => self.with_page(page, |p| {
                p.diffs += 1;
                p.diff_words += words;
            }),
            ObsEvent::DiffLine { page, line } => {
                let lines = self.lines_per_page;
                self.with_page(page, |p| {
                    if p.line_writes.is_empty() {
                        p.line_writes = vec![0; lines];
                    }
                    if let Some(w) = p.line_writes.get_mut(line as usize) {
                        *w += 1;
                    }
                })
            }
            ObsEvent::Invalidate { page, ssmp, writer } => self.with_page(page, |p| {
                p.invalidations += 1;
                if writer {
                    p.writer_mask |= 1 << (ssmp as u64 & 63);
                } else {
                    p.reader_mask |= 1 << (ssmp as u64 & 63);
                }
            }),
            ObsEvent::SingleWriterFlush { page, .. } => {
                self.with_page(page, |p| p.single_writer_flushes += 1)
            }
            ObsEvent::SingleWriterBreak { page, .. } => {
                self.with_page(page, |p| p.single_writer_breaks += 1)
            }
            ObsEvent::LazyNotice { page, ssmp } => self.with_page(page, |p| {
                p.lazy_notices += 1;
                p.reader_mask |= 1 << (ssmp as u64 & 63);
            }),
            ObsEvent::Pinv { page, .. } => self.with_page(page, |p| p.pinvs += 1),
            ObsEvent::UpdatePush { page, ssmp, .. } => self.with_page(page, |p| {
                p.update_pushes += 1;
                p.reader_mask |= 1 << (ssmp as u64 & 63);
            }),
            // Charges, span begins, DUQ drains, policy switches and churn
            // are not page activity; the report's counts and the trace
            // carry them.
            _ => {}
        }
    }

    /// Number of distinct pages the protocol touched.
    pub fn pages_touched(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshots every touched page in **ascending page order** — the
    /// deterministic feed the adaptive-grain controller classifies
    /// from. Never exposes map iteration order: two runs with identical
    /// protocol histories see identical snapshots, so policy decisions
    /// (and their trace) are reproducible run-to-run.
    pub fn snapshot_sorted(&self) -> Vec<(u64, PageProfile)> {
        let mut pages: Vec<(u64, PageProfile)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        pages.sort_unstable_by_key(|(p, _)| *p);
        pages
    }

    /// Snapshots the `top_n` hottest pages (by [`PageProfile::activity`],
    /// ties broken by page number for determinism).
    pub fn report(&self, top_n: usize) -> SharingReport {
        let mut pages: Vec<(u64, PageProfile)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let total = pages.len();
        pages.sort_by(|a, b| b.1.activity().cmp(&a.1.activity()).then(a.0.cmp(&b.0)));
        pages.truncate(top_n);
        SharingReport {
            pages,
            pages_touched: total,
        }
    }
}

/// A snapshot of the hottest pages, hottest first.
#[derive(Debug, Clone)]
pub struct SharingReport {
    /// `(virtual_page, profile)` pairs, sorted by descending activity.
    pub pages: Vec<(u64, PageProfile)>,
    /// Total distinct pages the protocol touched (before top-N cut).
    pub pages_touched: usize,
}

impl SharingReport {
    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        write!(
            s,
            "{{\n  \"pages_touched\": {},\n  \"hot_pages\": [",
            self.pages_touched
        )
        .unwrap();
        for (i, (page, p)) in self.pages.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let (hot_line, hot_writes) =
                p.hottest_line().map_or((-1i64, 0), |(l, w)| (l as i64, w));
            write!(
                s,
                "{sep}\n    {{\"page\": {page}, \"activity\": {}, \"read_sharers\": {}, \
                 \"write_sharers\": {}, \"read_fills\": {}, \"write_fills\": {}, \
                 \"upgrades\": {}, \"invalidations\": {}, \"invalidation_rate\": {:.3}, \
                 \"twins\": {}, \"diffs\": {}, \"diff_words\": {}, \
                 \"single_writer_flushes\": {}, \"single_writer_breaks\": {}, \
                 \"hot_line\": {hot_line}, \"hot_line_merges\": {hot_writes}}}",
                p.activity(),
                p.read_sharers(),
                p.write_sharers(),
                p.read_fills,
                p.write_fills,
                p.upgrades,
                p.invalidations,
                p.invalidation_rate(),
                p.twin_creates,
                p.diffs,
                p.diff_words,
                p.single_writer_flushes,
                p.single_writer_breaks,
            )
            .unwrap();
        }
        s.push_str("\n  ]\n}");
        s
    }
}

impl fmt::Display for SharingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} pages touched; top {} by protocol activity:",
            self.pages_touched,
            self.pages.len()
        )?;
        writeln!(
            f,
            "  {:>8} {:>8} {:>4} {:>4} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>9}",
            "page",
            "activity",
            "rdS",
            "wrS",
            "rfill",
            "wfill",
            "upgr",
            "inval",
            "twins",
            "diffs",
            "inv_rate"
        )?;
        for (page, p) in &self.pages {
            writeln!(
                f,
                "  {:>8} {:>8} {:>4} {:>4} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>9.3}",
                page,
                p.activity(),
                p.read_sharers(),
                p.write_sharers(),
                p.read_fills,
                p.write_fills,
                p.upgrades,
                p.invalidations,
                p.twin_creates,
                p.diffs,
                p.invalidation_rate()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::XactKind;

    #[test]
    fn fills_build_sharer_masks() {
        let prof = SharingProfiler::new(64);
        prof.record(
            0,
            &ObsEvent::XactEnd {
                xact: XactKind::ReadFault,
                page: 7,
                outcome: XactOutcome::ReadMiss,
            },
        );
        prof.record(
            2,
            &ObsEvent::XactEnd {
                xact: XactKind::ReadFault,
                page: 7,
                outcome: XactOutcome::ReadMiss,
            },
        );
        prof.record(
            1,
            &ObsEvent::XactEnd {
                xact: XactKind::WriteFault,
                page: 7,
                outcome: XactOutcome::Upgrade,
            },
        );
        let r = prof.report(4);
        assert_eq!(r.pages_touched, 1);
        let (page, p) = &r.pages[0];
        assert_eq!(*page, 7);
        assert_eq!(p.read_sharers(), 2);
        assert_eq!(p.write_sharers(), 1);
        assert_eq!(p.read_fills, 2);
        assert_eq!(p.upgrades, 1);
    }

    #[test]
    fn line_writes_are_attributed() {
        let prof = SharingProfiler::new(64);
        prof.record(0, &ObsEvent::DiffLine { page: 3, line: 5 });
        prof.record(0, &ObsEvent::DiffLine { page: 3, line: 5 });
        prof.record(0, &ObsEvent::DiffLine { page: 3, line: 9 });
        let r = prof.report(1);
        assert_eq!(r.pages[0].1.hottest_line(), Some((5, 2)));
    }

    #[test]
    fn report_sorts_by_activity() {
        let prof = SharingProfiler::new(64);
        for _ in 0..3 {
            prof.record(0, &ObsEvent::TwinCreate { page: 10, ssmp: 0 });
        }
        prof.record(0, &ObsEvent::TwinCreate { page: 4, ssmp: 0 });
        let r = prof.report(8);
        assert_eq!(r.pages[0].0, 10);
        assert_eq!(r.pages[1].0, 4);
        assert_eq!(r.pages_touched, 2);
    }

    #[test]
    fn snapshot_sorted_is_ascending_and_activity_ties_break_by_page() {
        // Pages land in different shards and (for the tie pair) carry
        // identical activity: a map-iteration-order leak would show up
        // as a nondeterministic snapshot or a flipped tie.
        let prof = SharingProfiler::new(64);
        for page in [31, 2, 17, 8] {
            prof.record(0, &ObsEvent::TwinCreate { page, ssmp: 0 });
        }
        let snap = prof.snapshot_sorted();
        let order: Vec<u64> = snap.iter().map(|(p, _)| *p).collect();
        assert_eq!(order, vec![2, 8, 17, 31]);
        // Equal-activity pages in the top-N report keep ascending page
        // order (the deterministic tie-break).
        let r = prof.report(8);
        let top: Vec<u64> = r.pages.iter().map(|(p, _)| *p).collect();
        assert_eq!(top, vec![2, 8, 17, 31]);
    }

    #[test]
    fn invalidation_rate_is_bounded() {
        let prof = SharingProfiler::new(64);
        prof.record(
            0,
            &ObsEvent::Invalidate {
                page: 1,
                ssmp: 3,
                writer: true,
            },
        );
        let r = prof.report(1);
        let p = &r.pages[0].1;
        assert_eq!(p.invalidations, 1);
        assert_eq!(p.write_sharers(), 1);
        assert!((p.invalidation_rate() - 1.0).abs() < 1e-9);
        assert!(r.to_json().contains("\"invalidations\": 1"));
    }
}
