//! Protocol message kinds (Table 2 of the paper) and traffic statistics.

use mgs_sim::Counter;
use std::fmt;

/// The message types exchanged by the three MGS protocol engines,
/// exactly as enumerated in Table 2 of the paper, plus the
/// synchronization-library messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgKind {
    // Local Client → Remote Client
    /// Upgrade local page from read to write privilege.
    Upgrade,
    /// Acknowledge TLB invalidation.
    PInvAck,
    // Remote Client → Local Client
    /// Invalidate a TLB entry.
    PInv,
    /// Acknowledge an upgrade.
    UpAck,
    // Local Client → Server
    /// Read data request.
    RReq,
    /// Write data request.
    WReq,
    /// Release request.
    Rel,
    // Server → Local Client
    /// Read data.
    RDat,
    /// Write data.
    WDat,
    /// Acknowledge release.
    RAck,
    // Remote Client → Server
    /// Acknowledge read invalidate.
    Ack,
    /// Acknowledge write invalidate and return diff.
    Diff,
    /// Acknowledge single-writer invalidate and return data.
    OneWData,
    /// Notify upgrade from read to write privilege.
    WNotify,
    // Server → Remote Client
    /// Invalidate page.
    Inv,
    /// Invalidate single-writer page.
    OneWInv,
    /// Push a merged diff to a live sharer copy (write-through policy:
    /// beyond Table 2 — the adaptive-grain controller patches sharer
    /// copies in place instead of invalidating them).
    Update,
    // Synchronization library
    /// Lock token transfer between SSMPs.
    LockToken,
    /// Barrier combine (SSMP → root).
    BarrierCombine,
    /// Barrier release (root → SSMP).
    BarrierRelease,
}

impl MsgKind {
    /// All message kinds, for statistics iteration.
    pub const ALL: [MsgKind; 20] = [
        MsgKind::Upgrade,
        MsgKind::PInvAck,
        MsgKind::PInv,
        MsgKind::UpAck,
        MsgKind::RReq,
        MsgKind::WReq,
        MsgKind::Rel,
        MsgKind::RDat,
        MsgKind::WDat,
        MsgKind::RAck,
        MsgKind::Ack,
        MsgKind::Diff,
        MsgKind::OneWData,
        MsgKind::WNotify,
        MsgKind::Inv,
        MsgKind::OneWInv,
        MsgKind::Update,
        MsgKind::LockToken,
        MsgKind::BarrierCombine,
        MsgKind::BarrierRelease,
    ];

    /// The wire name used in the paper's Table 2.
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::Upgrade => "UPGRADE",
            MsgKind::PInvAck => "PINV_ACK",
            MsgKind::PInv => "PINV",
            MsgKind::UpAck => "UP_ACK",
            MsgKind::RReq => "RREQ",
            MsgKind::WReq => "WREQ",
            MsgKind::Rel => "REL",
            MsgKind::RDat => "RDAT",
            MsgKind::WDat => "WDAT",
            MsgKind::RAck => "RACK",
            MsgKind::Ack => "ACK",
            MsgKind::Diff => "DIFF",
            MsgKind::OneWData => "1WDATA",
            MsgKind::WNotify => "WNOTIFY",
            MsgKind::Inv => "INV",
            MsgKind::OneWInv => "1WINV",
            MsgKind::Update => "UPDATE",
            MsgKind::LockToken => "LOCK_TOKEN",
            MsgKind::BarrierCombine => "BAR_COMBINE",
            MsgKind::BarrierRelease => "BAR_RELEASE",
        }
    }

    /// Number of message kinds (the length of [`MsgKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this kind (its position in [`MsgKind::ALL`]),
    /// for external per-kind counter arrays.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-message-kind traffic counters (messages and payload bytes),
/// plus injected-fault totals when the LAN runs under a
/// [`FaultPlan`](crate::FaultPlan): transmissions lost in the fabric,
/// duplicate copies delivered, and total jitter delay added.
///
/// `msgs`/`bytes` count *transmissions entering the fabric* — a
/// dropped message is still counted (it was sent), and each protocol
/// retry is a fresh transmission. Duplicates are fabric-created copies
/// and are counted separately, not in `msgs`.
#[derive(Debug, Default)]
pub struct NetStats {
    msgs: [Counter; MsgKind::COUNT],
    bytes: [Counter; MsgKind::COUNT],
    dropped: Counter,
    duplicated: Counter,
    jitter: Counter,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Records one message of `kind` carrying `payload_bytes`.
    pub fn record(&self, kind: MsgKind, payload_bytes: u64) {
        self.msgs[kind.index()].incr();
        self.bytes[kind.index()].add(payload_bytes);
    }

    /// Number of messages of `kind` recorded.
    pub fn msgs(&self, kind: MsgKind) -> u64 {
        self.msgs[kind.index()].get()
    }

    /// Payload bytes of `kind` recorded.
    pub fn bytes(&self, kind: MsgKind) -> u64 {
        self.bytes[kind.index()].get()
    }

    /// Total messages across all kinds.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().map(Counter::get).sum()
    }

    /// Total payload bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(Counter::get).sum()
    }

    /// Records one transmission lost in the fabric.
    pub fn record_drop(&self) {
        self.dropped.incr();
    }

    /// Records one fabric-injected duplicate copy.
    pub fn record_duplicate(&self) {
        self.duplicated.incr();
    }

    /// Records `cycles` of fault-injected delivery jitter.
    pub fn record_jitter(&self, cycles: u64) {
        self.jitter.add(cycles);
    }

    /// Total transmissions lost in the fabric.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.get()
    }

    /// Total duplicate copies injected by the fabric.
    pub fn duplicated_total(&self) -> u64 {
        self.duplicated.get()
    }

    /// Total delivery-jitter cycles injected by the fabric.
    pub fn jitter_cycles(&self) -> u64 {
        self.jitter.get()
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>12} {:>10} {:>12}", "message", "count", "bytes")?;
        for kind in MsgKind::ALL {
            let n = self.msgs(kind);
            if n > 0 {
                writeln!(f, "{:>12} {:>10} {:>12}", kind.name(), n, self.bytes(kind))?;
            }
        }
        let (drops, dups, jitter) = (
            self.dropped_total(),
            self.duplicated_total(),
            self.jitter_cycles(),
        );
        if drops + dups + jitter > 0 {
            writeln!(
                f,
                "faults: {drops} dropped, {dups} duplicated, {jitter} jitter cycles"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_unique_names() {
        let mut names: Vec<_> = MsgKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MsgKind::ALL.len());
    }

    #[test]
    fn stats_accumulate_per_kind() {
        let s = NetStats::new();
        s.record(MsgKind::RReq, 0);
        s.record(MsgKind::RDat, 1024);
        s.record(MsgKind::RDat, 1024);
        assert_eq!(s.msgs(MsgKind::RReq), 1);
        assert_eq!(s.msgs(MsgKind::RDat), 2);
        assert_eq!(s.bytes(MsgKind::RDat), 2048);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 2048);
    }

    #[test]
    fn fault_counters_accumulate() {
        let s = NetStats::new();
        s.record_drop();
        s.record_drop();
        s.record_duplicate();
        s.record_jitter(100);
        s.record_jitter(23);
        assert_eq!(s.dropped_total(), 2);
        assert_eq!(s.duplicated_total(), 1);
        assert_eq!(s.jitter_cycles(), 123);
        let shown = s.to_string();
        assert!(shown.contains("faults: 2 dropped, 1 duplicated, 123 jitter cycles"));
    }

    #[test]
    fn display_lists_only_seen_kinds() {
        let s = NetStats::new();
        s.record(MsgKind::WNotify, 0);
        let out = s.to_string();
        assert!(out.contains("WNOTIFY"));
        assert!(!out.contains("1WDATA"));
    }
}
