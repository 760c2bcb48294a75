//! Protocol configuration.

use crate::strategy::ProtocolKind;
use mgs_sim::CostModel;
use mgs_vm::PageGeometry;

/// Configuration of one [`MgsProtocol`](crate::MgsProtocol) instance.
///
/// # Example
///
/// ```
/// use mgs_proto::ProtoConfig;
///
/// let cfg = ProtoConfig::new(4, 8); // 4 SSMPs × 8 processors = 32
/// assert_eq!(cfg.n_procs(), 32);
/// assert_eq!(cfg.ssmp_of(17), 2);
/// assert_eq!(cfg.local_index(17), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Number of SSMPs (clusters).
    pub n_ssmps: usize,
    /// Processors per SSMP (the paper's cluster size `C`).
    pub procs_per_ssmp: usize,
    /// Page geometry (default 1 KB pages).
    pub geometry: PageGeometry,
    /// Latency constants.
    pub cost: CostModel,
    /// Enable the single-writer optimization (§3.1.1). On by default;
    /// disable for the ablation study.
    pub single_writer_opt: bool,
    /// Remove read-only page cleaning from the invalidation critical
    /// path (§4.2.4: "invalidation of read-only data can be removed
    /// from the critical path of page invalidation because there is no
    /// coherence issue with read-only data ... we are exploring \[this\]
    /// optimization in a future implementation of MGS"). Off by
    /// default, matching the measured MGS prototype; enable for the
    /// ablation study.
    pub readonly_clean_opt: bool,
    /// Which coherence strategy sets each page's policy when its record
    /// is created ([`ProtocolKind::Eager`] reproduces the paper's
    /// protocol bit-identically; under [`ProtocolKind::Adaptive`] the
    /// controller later reclassifies hot pages with fixed thresholds;
    /// see [`crate::MgsProtocol::policy`]).
    pub protocol: ProtocolKind,
}

impl ProtoConfig {
    /// Creates a configuration with default geometry and costs.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero, or if `procs_per_ssmp > 64`
    /// (local processors are tracked in a 64-bit mask) or
    /// `n_ssmps > 64` (directories are 64-bit masks).
    pub fn new(n_ssmps: usize, procs_per_ssmp: usize) -> ProtoConfig {
        assert!(n_ssmps > 0 && procs_per_ssmp > 0, "counts must be nonzero");
        assert!(n_ssmps <= 64, "at most 64 SSMPs");
        assert!(procs_per_ssmp <= 64, "at most 64 processors per SSMP");
        ProtoConfig {
            n_ssmps,
            procs_per_ssmp,
            geometry: PageGeometry::default(),
            cost: CostModel::alewife(),
            single_writer_opt: true,
            readonly_clean_opt: false,
            protocol: ProtocolKind::Eager,
        }
    }

    /// Total processor count `P = n_ssmps × procs_per_ssmp`.
    pub fn n_procs(&self) -> usize {
        self.n_ssmps * self.procs_per_ssmp
    }

    /// SSMP (cluster) of a global processor id.
    #[inline]
    pub fn ssmp_of(&self, proc: usize) -> usize {
        proc / self.procs_per_ssmp
    }

    /// Index of a global processor within its SSMP.
    #[inline]
    pub fn local_index(&self, proc: usize) -> usize {
        proc % self.procs_per_ssmp
    }

    /// Home node (global processor id) of a virtual page: pages are
    /// distributed round-robin over all processors ("the location of
    /// the home is based on the virtual address and remains fixed",
    /// §3.1).
    #[inline]
    pub fn home_node(&self, page: u64) -> usize {
        (page % self.n_procs() as u64) as usize
    }

    /// Home SSMP of a virtual page.
    #[inline]
    pub fn home_ssmp(&self, page: u64) -> usize {
        self.ssmp_of(self.home_node(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrips() {
        let cfg = ProtoConfig::new(4, 8);
        for p in 0..32 {
            assert_eq!(cfg.ssmp_of(p) * 8 + cfg.local_index(p), p);
        }
    }

    #[test]
    fn homes_cover_all_processors() {
        let cfg = ProtoConfig::new(2, 4);
        let homes: Vec<usize> = (0..8).map(|pg| cfg.home_node(pg as u64)).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(cfg.home_ssmp(5), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_ssmps_panics() {
        ProtoConfig::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_procs_panics() {
        ProtoConfig::new(1, 65);
    }
}
