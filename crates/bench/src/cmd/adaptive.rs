//! `adaptive` — profile-driven adaptive grain versus the static
//! coherence strategies.
//!
//! The paper's multigrain breakup penalty — the slowdown from breaking
//! one big SSMP (`C = P`) into two (`C = P/2`) — is dominated by pages
//! whose sharing pattern fits the eager invalidate protocol badly:
//! TSP's migratory tour records ping-pong whole pages between
//! clusters, and falsely-shared pages pay twin/diff fan-out for a
//! handful of words. This harness quantifies what the per-page
//! adaptive controller buys back. For every application × link tier it
//! runs the cluster-size triple `{1, P/2, P}` under each
//! [`ProtocolKind`] and reduces the sweep to the §2.4 framework
//! metrics, then reports the eager-to-adaptive breakup-penalty ratio:
//!
//! * `eager` — the paper's protocol, the baseline;
//! * `lrc` — home-based lazy release consistency on every page;
//! * `adaptive` — eager until the sharing profiler classifies a page
//!   (migratory → single-writer pinning, producer/consumer and
//!   falsely-shared → write-through updates).
//!
//! Every run is self-verifying (`execute` panics unless the numerical
//! result matches a plain-Rust reference), so each point doubles as a
//! convergence proof for the non-eager strategies. Results go to
//! `BENCH_adaptive.json` with one `summary` record per (app, tier).
//!
//! Run with `cargo run --release -p mgs-bench -- adaptive --quick`.
//! `--smoke` shrinks the matrix to a CI-sized gate (one app, two
//! tiers, no C=1 point). Accepts `--p`, `--scale`, `--jobs` and
//! `--protocol` (the latter restricts the sweep to one strategy).

use mgs_apps::MgsApp;
use mgs_bench::cli::Options;
use mgs_bench::json::JsonObject;
use mgs_bench::parallel::run_pool;
use mgs_bench::suite;
use mgs_core::framework::{breakup_penalty, multigrain_potential, sweep_point, SweepPoint};
use mgs_core::{DssmpConfig, LinkTier, ProtocolKind, TieredScenario};
use mgs_sim::Cycles;
use std::sync::Arc;

/// The strategies compared (sweep order = report order).
const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Eager,
    ProtocolKind::HomeLrc,
    ProtocolKind::Adaptive,
];

/// Link tiers swept, in increasing-latency order: the scenario
/// engine's rack (200 cycles), datacenter (1000 cycles — the paper's
/// LAN constant), and WAN (10 000 cycles), so the report shows how the
/// strategies separate as the inter-SSMP link slows down.
fn tiers(smoke: bool) -> Vec<(LinkTier, Cycles)> {
    let all = [LinkTier::Rack, LinkTier::Datacenter, LinkTier::Wan];
    let swept = if smoke { &all[..2] } else { &all[..] };
    swept.iter().map(|&t| (t, suite::tier_latency(t))).collect()
}

/// One full sweep: `app` at `tier` under `protocol`, over the
/// cluster-size triple.
struct ProtoSweep {
    app: &'static str,
    tier: LinkTier,
    latency: Cycles,
    protocol: ProtocolKind,
    points: Vec<SweepPoint>,
    /// Pages the adaptive controller reclassified (0 for static
    /// strategies), summed over the sweep's runs.
    reclassified: u64,
}

fn cluster_sizes(p: usize, smoke: bool) -> Vec<usize> {
    if smoke {
        vec![(p / 2).max(1), p]
    } else {
        vec![1, (p / 2).max(1), p]
    }
}

fn run_sweep(
    base: &DssmpConfig,
    app: &dyn MgsApp,
    tier: LinkTier,
    latency: Cycles,
    protocol: ProtocolKind,
    smoke: bool,
) -> ProtoSweep {
    let mut points = Vec::new();
    let mut reclassified = 0u64;
    let base = base
        .clone()
        .with_protocol(protocol)
        .with_scenario(Arc::new(TieredScenario::uniform(tier, latency)));
    for c in cluster_sizes(base.n_procs, smoke) {
        // Self-verifying: panics unless the numerical result matches
        // the plain-Rust reference — a convergence proof per point.
        let point = sweep_point(&base, c, |machine| app.execute(machine));
        reclassified += point.report.policy_decisions.len() as u64;
        points.push(point);
    }
    ProtoSweep {
        app: app.name(),
        tier,
        latency,
        protocol,
        points,
        reclassified,
    }
}

pub fn run(opts: &Options) {
    let smoke = opts.args.iter().any(|a| a == "--smoke");
    let protocols: Vec<ProtocolKind> = if opts.protocol == ProtocolKind::Eager {
        PROTOCOLS.to_vec()
    } else {
        // `--protocol` restricts the sweep (eager always runs: it is
        // the baseline of every ratio).
        vec![ProtocolKind::Eager, opts.protocol]
    };

    // Single-worker like every harness machine, so penalty ratios
    // compare strategies, not scheduling noise (TSP's branch-and-bound
    // pruning is timing-sensitive at any wider budget).
    let base = &suite::base_config(opts);
    let mut apps: Vec<Box<dyn MgsApp>> = ["tsp", "water", "jacobi"]
        .iter()
        .filter_map(|n| suite::by_name(opts, n))
        .collect();
    if smoke {
        apps.truncate(1); // TSP: the paper's worst breakup penalty
    }
    let tier_list = tiers(smoke);

    println!(
        "adaptive: per-page coherence strategies vs the breakup penalty \
         (P = {}, {} apps x {} tiers x {:?}{})",
        opts.p,
        apps.len(),
        tier_list.len(),
        protocols.iter().map(|p| p.label()).collect::<Vec<_>>(),
        if smoke { ", smoke" } else { "" }
    );

    let mut jobs = Vec::new();
    for app in &apps {
        for &(tier, latency) in &tier_list {
            for &protocol in &protocols {
                let app = app.as_ref();
                jobs.push(move || run_sweep(base, app, tier, latency, protocol, smoke));
            }
        }
    }
    let sweeps = run_pool(opts.jobs, jobs);

    // One summary per (app, tier): the three penalties side by side and
    // the eager/adaptive ratio — the number this harness exists for.
    let penalty_of = |app: &str, tier: LinkTier, protocol: ProtocolKind| -> Option<f64> {
        sweeps
            .iter()
            .find(|s| s.app == app && s.tier == tier && s.protocol == protocol)
            .map(|s| breakup_penalty(&s.points))
    };

    let mut sweep_records = Vec::with_capacity(sweeps.len());
    for s in &sweeps {
        let mut o = JsonObject::new();
        o.str("app", s.app)
            .str("tier", s.tier.name())
            .str("protocol", s.protocol.label())
            .num("latency_cycles", s.latency.raw() as f64)
            .num("breakup_penalty", breakup_penalty(&s.points))
            .num("pages_reclassified", s.reclassified as f64);
        if let Some(potential) = multigrain_potential(&s.points) {
            o.num("multigrain_potential", potential);
        }
        let mut pts = Vec::with_capacity(s.points.len());
        for pt in &s.points {
            let mut j = JsonObject::new();
            j.num("cluster_size", pt.cluster_size as f64)
                .num("duration_cycles", pt.report.duration.raw() as f64)
                .num("lan_messages", pt.report.lan_messages as f64)
                .num("lan_bytes", pt.report.lan_bytes as f64)
                .num("verified", 1.0);
            pts.push(j);
        }
        o.array("sweep", pts);
        sweep_records.push(o);
    }

    let mut summaries = Vec::new();
    for app in &apps {
        for &(tier, _) in &tier_list {
            let eager = penalty_of(app.name(), tier, ProtocolKind::Eager);
            let adaptive = penalty_of(app.name(), tier, ProtocolKind::Adaptive);
            let lrc = penalty_of(app.name(), tier, ProtocolKind::HomeLrc);
            let (Some(eager), Some(adaptive)) = (eager, adaptive) else {
                continue;
            };
            // Ratio of penalties; an adaptive penalty at or below zero
            // (C = P/2 as fast as C = P) caps the ratio at the eager
            // penalty scaled by 1e3 to keep the JSON finite.
            let reduction = if adaptive > 1e-3 {
                eager / adaptive
            } else {
                eager * 1e3
            };
            let mut o = JsonObject::new();
            o.str("app", app.name())
                .str("tier", tier.name())
                .num("breakup_penalty_eager", eager)
                .num("breakup_penalty_adaptive", adaptive)
                .num("penalty_reduction_eager_over_adaptive", reduction);
            if let Some(lrc) = lrc {
                o.num("breakup_penalty_lrc", lrc);
            }
            summaries.push(o);
            println!(
                "  {:>8} @ {:>10}: breakup {:.3} eager{} -> {:.3} adaptive ({:.2}x reduction)",
                app.name(),
                tier.name(),
                eager,
                lrc.map(|l| format!(" / {l:.3} lrc")).unwrap_or_default(),
                adaptive,
                reduction
            );
        }
    }

    let mut root = JsonObject::new();
    root.str("bench", "adaptive")
        .num("p", opts.p as f64)
        .num("scale", opts.scale as f64)
        .num("smoke", if smoke { 1.0 } else { 0.0 })
        .array("summary", summaries)
        .array("sweeps", sweep_records);
    mgs_bench::provenance::stamp_run(&mut root, opts, base);
    if smoke {
        println!("\nsmoke run complete (BENCH_adaptive.json left untouched)");
        return;
    }
    let path = "BENCH_adaptive.json";
    std::fs::write(path, root.render(0) + "\n").expect("write BENCH_adaptive.json");
    println!("\nwrote {path}: breakup-penalty reduction per application and tier");
}
