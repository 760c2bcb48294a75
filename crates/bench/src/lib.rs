//! Benchmark harness for the MGS reproduction.
//!
//! One binary, `mgs-bench <command>` (`cargo run --release -p mgs-bench
//! -- <command> [flags]`). The paper's tables and figures come from two
//! commands:
//!
//! | Command | Regenerates |
//! |---|---|
//! | `table3` | Table 3 — primitive shared-memory operation costs (stdout) |
//! | `paper` | Table 4, Figures 6–12 and the framework metrics vs. the paper, from one sweep → `results/{table4,figures,fig11,fig12,summary}.txt` |
//! | `ablation` | Design-choice ablations (single-writer opt, lock affinity, page size) |
//!
//! Plus the study commands beyond the paper's figures:
//!
//! | Command | Produces |
//! |---|---|
//! | `chaos` | Fault-injection sweep (drop × duplicate × jitter) with verified recovery → `BENCH_chaos.json` |
//! | `scenario` | The fabric: uniform-LAN equivalence, link tiers, interface contention, SSMP churn → `BENCH_scenario.json` |
//! | `adaptive` | Coherence strategy × app × link tier, reduced to the §2.4 framework metrics → `BENCH_adaptive.json` |
//! | `profile` | Observability deep-dive for one app: metrics, hot pages, Perfetto timeline → `results/profile_*.json` |
//!
//! All commands accept `--p <procs>` (default 32), `--scale <div>`
//! (divide the problem size for quick runs; default 1 = paper sizes)
//! and `--jobs <n>` (how many sweep points run at once; default the
//! host's cores). Every machine a command builds runs on one host
//! worker ([`suite::base_config`]), so what a command prints or writes
//! is a pure function of its flags — `--jobs` excluded — and
//! `scripts/results.sh --check` holds the committed outputs to that.

#![warn(missing_docs)]

pub mod chart;
pub mod cli;
pub mod json;
pub mod parallel;
pub mod provenance;
pub mod suite;
