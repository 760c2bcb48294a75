//! Host provenance for the benchmark history files.
//!
//! Throughput numbers in `BENCH_*.json` are only comparable across
//! commits when the record says what produced them: which execution
//! engine ran the machine, how many host cores the runner had, and
//! which governor spin policy was in effect. The sweep binaries stamp
//! every root object with [`stamp_run`] so trajectory comparisons stay
//! interpretable.

use crate::cli::Options;
use crate::json::JsonObject;

/// The host's available parallelism (1 if it cannot be determined) —
/// the denominator that decides whether a given `P` oversubscribes the
/// runner.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// The governor spin policy in effect, as a label: the `MGS_GOV_SPIN`
/// override when set (`"park"`/`"spin"`), otherwise `"auto"` (decided
/// per gate from the core count). Only meaningful for the threaded
/// engines; the virtual engine never spins or parks at the gate.
pub fn spin_policy_label() -> &'static str {
    match std::env::var("MGS_GOV_SPIN").ok().as_deref() {
        Some("0") => "park",
        Some("1") => "spin",
        _ => "auto",
    }
}

/// Stamps `root` with the host provenance fields *and* the run
/// configuration that changes what the numbers mean: the coherence
/// strategy the sweep ran under. Sweep binaries that honor
/// `--protocol` must use this so a `BENCH_*.json` produced under
/// `lrc` or `adaptive` is never mistaken for an eager-protocol record.
pub fn stamp_run(root: &mut JsonObject, opts: &Options) {
    root.num("host_parallelism", host_parallelism() as f64);
    root.str("spin_policy", spin_policy_label());
    root.str("protocol", opts.protocol.label());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_run_records_host_and_protocol() {
        let opts = Options::parse_from(["--protocol", "adaptive"].iter().map(|s| s.to_string()));
        let mut o = JsonObject::new();
        stamp_run(&mut o, &opts);
        let s = o.render(0);
        assert!(s.contains("\"protocol\": \"adaptive\""));
        assert!(s.contains("\"host_parallelism\""));
        assert!(s.contains("\"spin_policy\""));
    }
}
