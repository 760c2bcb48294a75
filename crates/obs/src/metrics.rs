//! The metrics registry: log2-bucketed latency histograms
//! (`mgs-sim`'s [`Histogram`]), sharded per simulated processor.
//!
//! Recording a latency is one array index plus two relaxed atomic adds
//! into the calling processor's own shard: no lock and no allocation.
//! Shards are merged into a [`MetricsReport`] when the run finishes,
//! and the machine sets every count from the layer that owns it.

use crate::XactOutcome;
use mgs_net::MsgKind;
use mgs_sim::{Cycles, HistSummary, Histogram};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed event counters, one per protocol event class. Each is counted
/// once, by the layer that owns its event, and the machine reads it
/// into the [`MetricsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Shared-memory loads issued through the simulated memory system.
    Loads,
    /// Shared-memory stores issued.
    Stores,
    /// Hardware accesses that hit the processor's own cache.
    HwHit,
    /// Hardware misses satisfied by local memory.
    HwLocalMiss,
    /// Hardware misses satisfied by a remote node, line clean.
    HwRemoteClean,
    /// Two-party hardware misses (dirty at home, or write upgrade).
    HwTwoParty,
    /// Three-party hardware misses.
    HwThreeParty,
    /// Hardware misses through the software directory (LimitLESS).
    HwSwDirectory,
    /// Faults satisfied by an existing local mapping (arcs 1/3),
    /// page-table fills at `C = P` included (no event marks those).
    TlbFills,
    /// Inter-SSMP read misses (arcs 5→17→6).
    ReadMisses,
    /// Inter-SSMP write misses (arcs 5→18→7).
    WriteMisses,
    /// Read-to-write privilege upgrades (arcs 2/13/18).
    Upgrades,
    /// Twins created (upgrade twinning plus write-fill images kept).
    TwinCreates,
    /// Diffs computed and shipped to homes.
    DiffsSent,
    /// Total changed words carried by those diffs.
    DiffWords,
    /// Total contiguous spans those diffs coalesced into.
    DiffSpans,
    /// Single-writer whole-page flushes (1WINV/1WDATA).
    SingleWriterFlushes,
    /// Pages that left single-writer mode (second writer joined).
    SingleWriterBreaks,
    /// Delayed-update-queue drains performed at release points.
    DuqFlushes,
    /// Pages released (summed over all DUQ drains).
    PagesReleased,
    /// Client page copies invalidated.
    Invalidations,
    /// TLB entries shot down by PINV.
    Pinvs,
    /// Lazy-invalidation write notices posted.
    LazyNotices,
    /// Merged diffs pushed to live sharer copies (write-through
    /// policy).
    UpdatePushes,
    /// Total changed words carried by those pushes (summed over all
    /// patched sharers).
    UpdatePushWords,
    /// Per-page policy switches performed by the adaptive-grain
    /// controller.
    PolicySwitches,
    /// MGS lock acquires satisfied inside the requesting SSMP.
    LockAcquiresLocal,
    /// MGS lock acquires that moved the token between SSMPs.
    LockAcquiresRemote,
    /// Intra-SSMP hardware-lock acquires.
    HwLockAcquires,
    /// Machine-wide barrier arrivals.
    BarrierArrivals,
    /// Transmissions lost by the fault-injecting fabric.
    LanDrops,
    /// Fabric-injected duplicate copies delivered.
    LanDuplicates,
    /// Protocol retransmissions after a timeout.
    Retries,
    /// Transactions abandoned because a message exhausted its retry
    /// budget: inside a span, its `XactEnd { Aborted }`.
    XactAborts,
    /// SSMPs that departed the machine mid-run (churn).
    ChurnDepartures,
    /// SSMPs that rejoined after a departure.
    ChurnRejoins,
    /// Pages re-homed to a survivor SSMP during departures.
    ChurnRehomedPages,
}

impl Metric {
    /// Every metric, in display order.
    pub const ALL: [Metric; 37] = [
        Metric::Loads,
        Metric::Stores,
        Metric::HwHit,
        Metric::HwLocalMiss,
        Metric::HwRemoteClean,
        Metric::HwTwoParty,
        Metric::HwThreeParty,
        Metric::HwSwDirectory,
        Metric::TlbFills,
        Metric::ReadMisses,
        Metric::WriteMisses,
        Metric::Upgrades,
        Metric::TwinCreates,
        Metric::DiffsSent,
        Metric::DiffWords,
        Metric::DiffSpans,
        Metric::SingleWriterFlushes,
        Metric::SingleWriterBreaks,
        Metric::DuqFlushes,
        Metric::PagesReleased,
        Metric::Invalidations,
        Metric::Pinvs,
        Metric::LazyNotices,
        Metric::UpdatePushes,
        Metric::UpdatePushWords,
        Metric::PolicySwitches,
        Metric::LockAcquiresLocal,
        Metric::LockAcquiresRemote,
        Metric::HwLockAcquires,
        Metric::BarrierArrivals,
        Metric::LanDrops,
        Metric::LanDuplicates,
        Metric::Retries,
        Metric::XactAborts,
        Metric::ChurnDepartures,
        Metric::ChurnRejoins,
        Metric::ChurnRehomedPages,
    ];

    /// Number of metrics.
    pub const COUNT: usize = Metric::ALL.len();

    /// Dense index of this metric (its position in [`Metric::ALL`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Loads => "loads",
            Metric::Stores => "stores",
            Metric::HwHit => "hw_hits",
            Metric::HwLocalMiss => "hw_local_misses",
            Metric::HwRemoteClean => "hw_remote_clean_misses",
            Metric::HwTwoParty => "hw_two_party_misses",
            Metric::HwThreeParty => "hw_three_party_misses",
            Metric::HwSwDirectory => "hw_sw_directory_misses",
            Metric::TlbFills => "tlb_fills",
            Metric::ReadMisses => "read_misses",
            Metric::WriteMisses => "write_misses",
            Metric::Upgrades => "upgrades",
            Metric::TwinCreates => "twin_creates",
            Metric::DiffsSent => "diffs_sent",
            Metric::DiffWords => "diff_words",
            Metric::DiffSpans => "diff_spans",
            Metric::SingleWriterFlushes => "single_writer_flushes",
            Metric::SingleWriterBreaks => "single_writer_breaks",
            Metric::DuqFlushes => "duq_flushes",
            Metric::PagesReleased => "pages_released",
            Metric::Invalidations => "invalidations",
            Metric::Pinvs => "pinvs",
            Metric::LazyNotices => "lazy_notices",
            Metric::UpdatePushes => "update_pushes",
            Metric::UpdatePushWords => "update_push_words",
            Metric::PolicySwitches => "policy_switches",
            Metric::LockAcquiresLocal => "lock_acquires_local",
            Metric::LockAcquiresRemote => "lock_acquires_remote",
            Metric::HwLockAcquires => "hw_lock_acquires",
            Metric::BarrierArrivals => "barrier_arrivals",
            Metric::LanDrops => "lan_drops",
            Metric::LanDuplicates => "lan_duplicates",
            Metric::Retries => "retries",
            Metric::XactAborts => "xact_aborts",
            Metric::ChurnDepartures => "churn_departures",
            Metric::ChurnRejoins => "churn_rejoins",
            Metric::ChurnRehomedPages => "churn_rehomed_pages",
        }
    }
}

/// Latency histogram classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Fault resolved by a local mapping (TLB-fill latency).
    TlbFill,
    /// Inter-SSMP read-miss latency (fault entry → TLB installed).
    ReadMiss,
    /// Inter-SSMP write-miss latency.
    WriteMiss,
    /// Upgrade latency.
    Upgrade,
    /// Per-page release latency (REL → RACK).
    PageRelease,
    /// MGS lock acquisition wait.
    LockWait,
    /// Barrier wait (arrival → release).
    BarrierWait,
    /// Retransmission backoff waits.
    RetryBackoff,
    /// Message crossings over `LinkTier::Lan` links (the paper's
    /// uniform LAN, the default fabric): send → arrival, one sample per
    /// inter-SSMP message.
    TierLan,
    /// Message crossings over rack-tier links.
    TierRack,
    /// Message crossings over datacenter-tier links.
    TierDatacenter,
    /// Message crossings over WAN-tier links.
    TierWan,
}

impl LatencyClass {
    /// Every class, in display order.
    pub const ALL: [LatencyClass; 12] = [
        LatencyClass::TlbFill,
        LatencyClass::ReadMiss,
        LatencyClass::WriteMiss,
        LatencyClass::Upgrade,
        LatencyClass::PageRelease,
        LatencyClass::LockWait,
        LatencyClass::BarrierWait,
        LatencyClass::RetryBackoff,
        LatencyClass::TierLan,
        LatencyClass::TierRack,
        LatencyClass::TierDatacenter,
        LatencyClass::TierWan,
    ];

    /// The class recording message crossings of the given link tier.
    pub fn for_tier(tier: mgs_net::LinkTier) -> LatencyClass {
        match tier {
            mgs_net::LinkTier::Lan => LatencyClass::TierLan,
            mgs_net::LinkTier::Rack => LatencyClass::TierRack,
            mgs_net::LinkTier::Datacenter => LatencyClass::TierDatacenter,
            mgs_net::LinkTier::Wan => LatencyClass::TierWan,
        }
    }

    /// The class timing a transaction span that resolved as `outcome`
    /// (`None` for an abort, which has no meaningful latency).
    pub fn for_outcome(outcome: XactOutcome) -> Option<LatencyClass> {
        match outcome {
            XactOutcome::TlbFill => Some(LatencyClass::TlbFill),
            XactOutcome::ReadMiss => Some(LatencyClass::ReadMiss),
            XactOutcome::WriteMiss => Some(LatencyClass::WriteMiss),
            XactOutcome::Upgrade => Some(LatencyClass::Upgrade),
            XactOutcome::Released => Some(LatencyClass::PageRelease),
            XactOutcome::Aborted => None,
        }
    }

    /// Number of classes.
    pub const COUNT: usize = LatencyClass::ALL.len();

    /// Dense index of this class.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            LatencyClass::TlbFill => "tlb_fill",
            LatencyClass::ReadMiss => "read_miss",
            LatencyClass::WriteMiss => "write_miss",
            LatencyClass::Upgrade => "upgrade",
            LatencyClass::PageRelease => "page_release",
            LatencyClass::LockWait => "lock_wait",
            LatencyClass::BarrierWait => "barrier_wait",
            LatencyClass::RetryBackoff => "retry_backoff",
            LatencyClass::TierLan => "tier_lan",
            LatencyClass::TierRack => "tier_rack",
            LatencyClass::TierDatacenter => "tier_datacenter",
            LatencyClass::TierWan => "tier_wan",
        }
    }
}

/// One processor's private slice of the registry: its histograms.
#[derive(Debug)]
#[repr(align(128))]
struct ProcShard {
    hists: [Histogram; LatencyClass::COUNT],
}

impl ProcShard {
    fn new() -> ProcShard {
        ProcShard {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// The live metrics registry: one cache-line-aligned shard of
/// histograms per simulated processor, all storage pre-sized at
/// construction, and one registry-wide array of counters.
///
/// A shard is written by its processor's task, which runs on one host
/// worker at a time but may move between them. Production code only
/// records latencies: every count is kept by the layer that owns its
/// event, and [`count`](Self::count) has no production caller (it
/// stays for the benchmark's `obs.count_ns` unit cost), so the
/// counters are not sharded.
///
/// # Example
///
/// ```
/// use mgs_obs::{LatencyClass, Metric, ObsRegistry};
/// use mgs_sim::Cycles;
///
/// let reg = ObsRegistry::new(2);
/// reg.count(0, Metric::BarrierArrivals, 3);
/// reg.count(1, Metric::BarrierArrivals, 1);
/// reg.record_latency(0, LatencyClass::ReadMiss, Cycles(4096));
/// let report = reg.merge();
/// assert_eq!(report.get(Metric::BarrierArrivals), 4);
/// assert_eq!(report.hist(LatencyClass::ReadMiss).count, 1);
/// ```
#[derive(Debug)]
pub struct ObsRegistry {
    shards: Vec<ProcShard>,
    counters: [AtomicU64; Metric::COUNT],
}

impl ObsRegistry {
    /// Creates a registry for `n_procs` processors.
    pub fn new(n_procs: usize) -> ObsRegistry {
        ObsRegistry {
            shards: (0..n_procs.max(1)).map(|_| ProcShard::new()).collect(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `n` to `metric` on behalf of processor `proc`. No
    /// production code calls it: the machine sets every count from its
    /// owner.
    #[inline]
    pub fn count(&self, proc: usize, metric: Metric, n: u64) {
        debug_assert!(proc < self.shards.len(), "processor {proc} out of range");
        self.counters[metric.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records a simulated-latency sample in `class`'s histogram.
    #[inline]
    pub fn record_latency(&self, proc: usize, class: LatencyClass, latency: Cycles) {
        self.shards[proc].hists[class.index()].record(latency.raw());
    }

    /// Merges every shard into a report.
    pub fn merge(&self) -> MetricsReport {
        let counters = self.counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        let mut hists: [HistSummary; LatencyClass::COUNT] =
            std::array::from_fn(|_| HistSummary::default());
        for shard in &self.shards {
            for (merged, h) in hists.iter_mut().zip(&shard.hists) {
                merged.merge(&h.summary());
            }
        }
        MetricsReport {
            counters,
            lan: [0; MsgKind::COUNT],
            hists,
        }
    }
}

/// Merged metrics for one run: [`ObsRegistry::merge`]'s histograms and
/// counts, with every count another layer owns [`set`](Self::set) by
/// the machine (`RunReport::metrics`).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    counters: [u64; Metric::COUNT],
    lan: [u64; MsgKind::COUNT],
    hists: [HistSummary; LatencyClass::COUNT],
}

impl MetricsReport {
    /// Total for one counter metric.
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric.index()]
    }

    /// Sets one counter metric's total, read from the layer that owns it.
    pub fn set(&mut self, metric: Metric, total: u64) {
        self.counters[metric.index()] = total;
    }

    /// Inter-SSMP transmissions of `kind`, fabric-dropped ones included.
    pub fn lan(&self, kind: MsgKind) -> u64 {
        self.lan[kind.index()]
    }

    /// Sets the transmissions of `kind`.
    pub fn set_lan(&mut self, kind: MsgKind, total: u64) {
        self.lan[kind.index()] = total;
    }

    /// Total inter-SSMP transmissions across all kinds.
    pub fn lan_total(&self) -> u64 {
        self.lan.iter().sum()
    }

    /// Merged histogram for one latency class.
    pub fn hist(&self, class: LatencyClass) -> &HistSummary {
        &self.hists[class.index()]
    }

    /// Serializes the report as a JSON object (hand-rolled; the build
    /// environment is offline, so no serde).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"counters\": {");
        for (i, m) in Metric::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(s, "{sep}\n    \"{}\": {}", m.name(), self.get(*m)).unwrap();
        }
        s.push_str("\n  },\n  \"lan_messages\": {");
        let mut first = true;
        for kind in MsgKind::ALL {
            if self.lan(kind) == 0 {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            write!(s, "{sep}\n    \"{}\": {}", kind.name(), self.lan(kind)).unwrap();
        }
        s.push_str("\n  },\n  \"latency_cycles\": {");
        for (i, class) in LatencyClass::ALL.iter().enumerate() {
            let h = self.hist(*class);
            let sep = if i == 0 { "" } else { "," };
            write!(
                s,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \
                 \"p50_floor\": {}, \"p99_floor\": {}}}",
                class.name(),
                h.count,
                h.sum,
                h.mean(),
                h.quantile_floor(0.5),
                h.quantile_floor(0.99)
            )
            .unwrap();
        }
        s.push_str("\n  }\n}");
        s
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for m in Metric::ALL {
            let v = self.get(m);
            if v > 0 {
                writeln!(f, "  {:<24} {v}", m.name())?;
            }
        }
        if self.lan_total() > 0 {
            writeln!(f, "LAN transmissions by kind:")?;
            for kind in MsgKind::ALL {
                let v = self.lan(kind);
                if v > 0 {
                    writeln!(f, "  {:<24} {v}", kind.name())?;
                }
            }
        }
        writeln!(f, "latency histograms (simulated cycles):")?;
        for class in LatencyClass::ALL {
            let h = self.hist(class);
            if h.count == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<14} n={:<9} mean={:<10.1} p50>={:<8} p99>={}",
                class.name(),
                h.count,
                h.mean(),
                h.quantile_floor(0.5),
                h.quantile_floor(0.99)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_merge() {
        let reg = ObsRegistry::new(3);
        reg.count(0, Metric::DiffsSent, 2);
        reg.count(1, Metric::DiffsSent, 3);
        reg.count(2, Metric::DiffsSent, 5);
        reg.count(2, Metric::TwinCreates, 1);
        let r = reg.merge();
        assert_eq!(r.get(Metric::DiffsSent), 10);
        assert_eq!(r.get(Metric::TwinCreates), 1);
        assert_eq!(r.get(Metric::Loads), 0);
    }

    #[test]
    fn set_totals_replace_and_lan_sums_by_kind() {
        let reg = ObsRegistry::new(1);
        reg.count(0, Metric::BarrierArrivals, 2);
        let mut r = reg.merge();
        r.set(Metric::Loads, 9);
        r.set_lan(MsgKind::RReq, 2);
        r.set_lan(MsgKind::Diff, 1);
        assert_eq!(
            (r.get(Metric::Loads), r.get(Metric::BarrierArrivals)),
            (9, 2)
        );
        assert_eq!(r.lan(MsgKind::RReq), 2);
        assert_eq!(r.lan_total(), 3);
    }

    #[test]
    fn quantiles_and_means() {
        let reg = ObsRegistry::new(1);
        for v in [1u64, 2, 4, 1024] {
            reg.record_latency(0, LatencyClass::LockWait, Cycles(v));
        }
        let r = reg.merge();
        let h = r.hist(LatencyClass::LockWait);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1031);
        assert_eq!(h.quantile_floor(0.5), 2);
        assert_eq!(h.quantile_floor(1.0), 1024);
    }

    #[test]
    fn json_is_emitted() {
        let reg = ObsRegistry::new(1);
        reg.count(0, Metric::Loads, 7);
        let json = reg.merge().to_json();
        assert!(json.contains("\"loads\": 7"));
        assert!(json.contains("\"latency_cycles\""));
    }

    #[test]
    fn metric_indices_are_dense_and_unique() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
        for (i, c) in LatencyClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
