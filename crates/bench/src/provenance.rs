//! Run provenance for the `BENCH_*.json` records.
//!
//! Simulated-cycle numbers are only comparable across commits when the
//! record says what produced them: how the machines were paced (window
//! and worker budget) and under which coherence strategy. The sweep
//! commands stamp every root object with [`stamp_run`]. Nothing about
//! the host is recorded because no number in those files depends on
//! it: the files repeat to the byte on any host
//! (`scripts/results.sh --check`).

use crate::cli::Options;
use crate::json::JsonObject;
use mgs_core::DssmpConfig;

/// Stamps `root` with the run configuration that changes what the
/// numbers mean: the coherence strategy the sweep ran under, and how
/// `cfg` — the configuration the command's sweep ran on — paces its
/// machines: `DssmpConfig::governor_window` (`"unpaced"` for `None`,
/// which also ignores the worker budget) and `DssmpConfig::workers`
/// (`"host"` for `None`). Sweep commands that honor `--protocol` must
/// use this so a `BENCH_*.json` produced under `lrc` or `adaptive` is
/// never mistaken for an eager-protocol record.
pub fn stamp_run(root: &mut JsonObject, opts: &Options, cfg: &DssmpConfig) {
    match (cfg.governor_window, cfg.workers) {
        (None, _) => root.str("window", "unpaced").str("workers", "all"),
        (Some(w), None) => root.num("window", w.raw() as f64).str("workers", "host"),
        (Some(w), Some(n)) => root.num("window", w.raw() as f64).num("workers", n as f64),
    };
    root.str("protocol", opts.protocol.label());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::base_config;

    #[test]
    fn stamp_run_records_protocol_and_the_single_worker_pacing() {
        let opts = Options::parse_from(["--protocol", "adaptive"].iter().map(|s| s.to_string()));
        let mut o = JsonObject::new();
        stamp_run(&mut o, &opts, &base_config(&opts));
        let s = o.render(0);
        assert!(s.contains("\"protocol\": \"adaptive\""));
        assert!(!s.contains("host_parallelism"));
        assert!(s.contains("\"window\": 32000"));
        assert!(s.contains("\"workers\": 1"));
    }
}
