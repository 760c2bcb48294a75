//! The protocol-event vocabulary: the one stream every recorder reads.
//!
//! Two kinds of event share the type. *Charges* (`Local`, `WaitUntil`,
//! `Message`, `NodeWork`, `Drop`, `Duplicate`, `Retry`) are the
//! `ProtoTiming` hook calls that move simulated time or cross the
//! fabric; *observations* (everything else) are what `mgs-proto`'s
//! engines emit through the `ProtoTiming::observe` hook as state
//! changes, which `mgs-proto`'s `ProtoStats::record` counts. The runtime
//! feeds both to the [`SharingProfiler`](crate::SharingProfiler) and
//! (when tracing) to the machine's [`TraceEvent`](crate::TraceEvent)
//! list; `RecordingTiming` keeps both in one list. Every variant is
//! `Copy` and carries only scalars, so emitting one allocates nothing.

use mgs_net::MsgKind;
use mgs_sim::Cycles;

/// The per-page coherence policy a strategy resolved for a page.
///
/// Defined here (rather than in `mgs-proto`) because it is part of the
/// structured event vocabulary — [`ObsEvent::PolicySwitch`] carries it —
/// and the observability crate sits below the protocol in the
/// dependency graph. `mgs-proto` re-exports it as the type its
/// `MgsProtocol::policy` resolves pages to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// The paper's protocol: eager invalidation at release, Munin-style
    /// twin/diff multi-writer support, single-writer 1WDATA flushes.
    Eager,
    /// Home-based lazy release consistency: the releaser flushes its
    /// diff to the home and posts write notices; sharers drop their
    /// copies at their next acquire point.
    HomeLrc,
    /// Write-through updates: the releaser's diff is pushed to every
    /// live sharer copy in place (UPDATE messages), so sharers are
    /// never invalidated — the fine-grain mode for falsely-shared and
    /// producer/consumer pages.
    WriteThrough,
    /// Single-writer pinning with lazy release: the sole writer's
    /// releases skip the data flush (readers are still invalidated),
    /// and any fill by another SSMP first evicts the writer — merging
    /// its diff home — keeping the page in single-writer mode. The
    /// mode for migratory (lock-protected) pages: lock streaks inside
    /// one SSMP pay no per-release coherence at all.
    SingleWriterPin,
}

impl PagePolicy {
    /// Snake-case label used in reports, JSON and policy traces.
    pub fn label(self) -> &'static str {
        match self {
            PagePolicy::Eager => "eager",
            PagePolicy::HomeLrc => "home_lrc",
            PagePolicy::WriteThrough => "write_through",
            PagePolicy::SingleWriterPin => "single_writer_pin",
        }
    }
}

/// A protocol transaction class, for span begin/end bracketing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XactKind {
    /// A read TLB fault (`RTLBFault` of Table 1).
    ReadFault,
    /// A write TLB fault (`WTLBFault`).
    WriteFault,
    /// The release of one page off a delayed update queue (arcs 8,
    /// 20–23, 9).
    Release,
}

impl XactKind {
    /// Human-readable span label.
    pub fn label(self) -> &'static str {
        match self {
            XactKind::ReadFault => "read_fault",
            XactKind::WriteFault => "write_fault",
            XactKind::Release => "release_page",
        }
    }
}

/// How a bracketed transaction resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XactOutcome {
    /// The fault was satisfied by an existing local mapping (arcs 1/3:
    /// a TLB fill, no inter-SSMP communication).
    TlbFill,
    /// A fresh read copy was fetched from the home (arcs 5→17→6).
    ReadMiss,
    /// A fresh write copy was fetched from the home (arcs 5→18→7).
    WriteMiss,
    /// A READ copy was upgraded to WRITE privilege in place (arcs 2,
    /// 13, 18).
    Upgrade,
    /// A page release completed (diff merged or data flushed, RACK
    /// received).
    Released,
    /// The transaction aborted (transport retries exhausted).
    Aborted,
}

impl XactOutcome {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            XactOutcome::TlbFill => "tlb_fill",
            XactOutcome::ReadMiss => "read_miss",
            XactOutcome::WriteMiss => "write_miss",
            XactOutcome::Upgrade => "upgrade",
            XactOutcome::Released => "released",
            XactOutcome::Aborted => "aborted",
        }
    }
}

/// One protocol event: a timing charge, or a state transition emitted
/// by the engines at the instant it happens, with the page and node it
/// concerns (which a count drops; the profiler and the trace keep it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// Work executed on the requesting processor itself.
    Local {
        /// Cycles charged.
        cycles: Cycles,
    },
    /// The requester waited until `instant` (the post-run drain's
    /// recorder starts this way at the run's end).
    WaitUntil {
        /// The instant waited for.
        instant: Cycles,
    },
    /// A delivered protocol message between SSMPs (or within one,
    /// `from == to`).
    Message {
        /// Sending SSMP.
        from: usize,
        /// Receiving SSMP.
        to: usize,
        /// Protocol message type (Table 2).
        kind: MsgKind,
        /// Payload bytes.
        bytes: u64,
    },
    /// Handler or data-movement work serialized at a node's protocol
    /// engine.
    NodeWork {
        /// Global processor id of the engine.
        node: usize,
        /// When the engine began serving the work (for a remote engine,
        /// the occupancy-granted instant: queueing delay is the gap
        /// from the requester's time to this).
        start: Cycles,
        /// Service time.
        cycles: Cycles,
    },
    /// A transmission lost by the fault-injecting fabric (the sender
    /// will time out and retransmit).
    Drop {
        /// Sending SSMP.
        from: usize,
        /// Receiving SSMP.
        to: usize,
        /// Protocol message type.
        kind: MsgKind,
    },
    /// Fabric-injected duplicate copies delivered alongside a message
    /// (counted here; no handler sees them).
    Duplicate {
        /// Sending SSMP.
        from: usize,
        /// Receiving SSMP.
        to: usize,
        /// Protocol message type.
        kind: MsgKind,
        /// Extra copies delivered.
        copies: u32,
    },
    /// A timeout wait charged before retransmitting a lost message.
    Retry {
        /// Sending SSMP.
        from: usize,
        /// Receiving SSMP.
        to: usize,
        /// Protocol message type.
        kind: MsgKind,
        /// 0-based index of the lost transmission.
        attempt: u32,
        /// Backoff wait charged to the sender.
        wait: Cycles,
    },
    /// A bracketed transaction began.
    XactBegin {
        /// Transaction class.
        xact: XactKind,
        /// The virtual page being operated on.
        page: u64,
    },
    /// The matching transaction ended.
    XactEnd {
        /// Transaction class (matches the innermost open begin).
        xact: XactKind,
        /// The virtual page being operated on.
        page: u64,
        /// How it resolved.
        outcome: XactOutcome,
    },
    /// A twin was created for a page (arc 13, or a write fill's arrived
    /// image being kept as the twin).
    TwinCreate {
        /// The twinned page.
        page: u64,
        /// The SSMP holding the twin.
        ssmp: usize,
    },
    /// A diff was computed and shipped to the home (arc 16, `tt == 2`).
    Diff {
        /// The released page.
        page: u64,
        /// The writer SSMP that produced the diff.
        ssmp: usize,
        /// Changed words carried.
        words: u64,
        /// Contiguous runs the changed words coalesced into.
        spans: u64,
    },
    /// One cache line of the home copy received diffed words (emitted
    /// once per touched line, page-relative index).
    DiffLine {
        /// The released page.
        page: u64,
        /// Page-relative line index (0-based).
        line: u64,
    },
    /// A client copy was invalidated (arc 14).
    Invalidate {
        /// The invalidated page.
        page: u64,
        /// The SSMP that lost its copy.
        ssmp: usize,
        /// `true` when the copy held WRITE privilege.
        writer: bool,
    },
    /// A single-writer flush shipped the whole page (1WINV/1WDATA, arc
    /// 16 with `tt == 3`).
    SingleWriterFlush {
        /// The flushed page.
        page: u64,
        /// The (sole) writer SSMP.
        ssmp: usize,
    },
    /// A page left single-writer mode: a second SSMP acquired write
    /// privilege, so the next release takes the multi-writer diff path.
    SingleWriterBreak {
        /// The page gaining its second writer.
        page: u64,
        /// The SSMP of the new writer.
        ssmp: usize,
    },
    /// A delayed update queue was drained at a release point.
    DuqFlush {
        /// The releasing global processor.
        proc: usize,
        /// Pages drained from the queue.
        pages: u64,
    },
    /// A lazy-invalidation write notice was posted to a reader SSMP.
    LazyNotice {
        /// The noticed page.
        page: u64,
        /// The reader SSMP that will drop its copy at its next acquire.
        ssmp: usize,
    },
    /// One TLB entry was shot down (PINV, arcs 11/12/15).
    Pinv {
        /// The unmapped page.
        page: u64,
        /// The global processor whose TLB entry was invalidated.
        proc: usize,
    },
    /// A merged diff was pushed to a live sharer copy in place
    /// (write-through policy; the sharer keeps its mapping).
    UpdatePush {
        /// The released page.
        page: u64,
        /// The sharer SSMP whose copy was patched.
        ssmp: usize,
        /// Changed words carried by the push.
        words: u64,
    },
    /// The adaptive-grain controller switched a page's coherence
    /// policy.
    PolicySwitch {
        /// The reclassified page.
        page: u64,
        /// The policy now in effect for it.
        policy: PagePolicy,
    },
    /// An SSMP departed from or rejoined the machine (scenario churn).
    Churn {
        /// The departing/rejoining SSMP.
        ssmp: usize,
        /// `false` for the departure, `true` for the rejoin.
        rejoin: bool,
        /// Pages re-homed to a survivor during this departure (0 on
        /// rejoin).
        rehomed: u64,
    },
}
