//! `scenario` — the fabric: latency tiers, interface
//! contention, and SSMP churn. Four sections, all written to
//! `BENCH_scenario.json`:
//!
//! * **equivalence** — the deterministic token ring of
//!   `mgs_apps::envelope`, unpaced, run under an explicit uniform-LAN
//!   [`TieredScenario`], *asserted* bit-identical in cycle accounting
//!   to the default-constructed machine (spelling the paper's fixed
//!   1000-cycle LAN out must not move a cycle);
//! * **tiers** — per application, a full cluster-size sweep at each
//!   link tier (rack / LAN / datacenter / WAN latencies), reporting the
//!   §2.4 framework metrics: how the breakup penalty grows as the
//!   inter-SSMP network slows from a rack fabric to a WAN;
//! * **contention** — the ring under per-endpoint interface
//!   serialization: a finite-bandwidth LAN interface must dilate
//!   execution over the infinite-bandwidth model and never change
//!   message counts;
//! * **churn** — a producer/consumer grid with an SSMP departing and
//!   rejoining mid-run: the run must converge to the fault-free memory
//!   image (verified word-for-word), with the re-homed page count,
//!   retry traffic, and slowdown versus the churn-free run recorded.
//!
//! Run with `cargo run --release -p mgs-bench -- scenario --quick`.
//! `--smoke` shrinks the matrix to a CI-sized gate (2 tiers, 1 app).
//! Accepts the usual `--p`, `--scale` and `--jobs` flags.

use mgs_apps::{envelope, MgsApp};
use mgs_bench::cli::Options;
use mgs_bench::json::JsonObject;
use mgs_bench::parallel::parallel_sweeps_of;
use mgs_bench::suite;
use mgs_core::framework::metrics;
use mgs_core::{
    ChurnEvent, DssmpConfig, LinkTier, Machine, ProtocolKind, RunReport, TieredScenario,
};
use mgs_sim::Cycles;
use std::sync::Arc;

/// Interface service time per message in the contention section.
const IFACE_SERVICE: Cycles = Cycles(500);

/// Churn grid shape and schedule (the ones `tests/churn.rs` uses).
const GRID_WORDS: u64 = 64;
const GRID_ROUNDS: u64 = 24;
const DEPART: Cycles = Cycles(60_000);
const REJOIN: Cycles = Cycles(260_000);

/// The asserted section: the explicit uniform LAN must not move a
/// cycle against the default machine (the record key
/// `cycle_exact_fixed_and_uniform` says the two agree).
fn run_equivalence(protocol: ProtocolKind) -> Vec<JsonObject> {
    let mut records = Vec::new();
    for c in [1, 2, 4] {
        let legacy = suite::ring(c, protocol, |cfg| cfg);
        assert!(legacy.lan_messages > 0, "ring must cross SSMPs at C={c}");

        let uniform = suite::ring(c, protocol, |cfg| {
            cfg.with_scenario(Arc::new(TieredScenario::uniform(
                LinkTier::Lan,
                Cycles(1000),
            )))
        });
        assert_eq!(legacy.first_divergence(&uniform), None, "uniform-lan C={c}");

        let mut o = JsonObject::new();
        o.str("workload", "ring")
            .num("cluster_size", c as f64)
            .num("duration_cycles", legacy.duration.raw() as f64)
            .num("lan_messages", legacy.lan_messages as f64)
            .num("cycle_exact_fixed_and_uniform", 1.0);
        records.push(o);
        println!(
            "  equivalence C={c}: {} msgs, uniform-lan cycle-exact",
            legacy.lan_messages
        );
    }
    records
}

/// The contention section: per-endpoint interface serialization must
/// dilate (or at worst equal) the infinite-bandwidth model, without
/// changing the message count.
fn run_contention(protocol: ProtocolKind) -> Vec<JsonObject> {
    let mut records = Vec::new();
    for c in [1, 2] {
        let free = suite::ring(c, protocol, |cfg| {
            cfg.with_scenario(Arc::new(TieredScenario::uniform(
                LinkTier::Lan,
                Cycles(1000),
            )))
        });
        let contended = suite::ring(c, protocol, |cfg| {
            cfg.with_scenario(Arc::new(
                TieredScenario::uniform(LinkTier::Lan, Cycles(1000))
                    .with_interface_contention(IFACE_SERVICE),
            ))
        });
        assert!(
            contended.duration.raw() >= free.duration.raw(),
            "contention cannot speed the ring up at C={c}"
        );
        assert_eq!(contended.lan_messages, free.lan_messages);
        let mut o = JsonObject::new();
        o.str("workload", "ring")
            .num("cluster_size", c as f64)
            .num("iface_service_cycles", IFACE_SERVICE.raw() as f64)
            .num("duration_free_cycles", free.duration.raw() as f64)
            .num("duration_contended_cycles", contended.duration.raw() as f64)
            .num(
                "dilation",
                contended.duration.raw() as f64 / free.duration.raw().max(1) as f64,
            );
        records.push(o);
        println!(
            "  contention C={c}: {:.3}x dilation at {} cyc/msg service",
            contended.duration.raw() as f64 / free.duration.raw().max(1) as f64,
            IFACE_SERVICE.raw()
        );
    }
    records
}

/// The envelope's churn grid (`mgs_apps::envelope::grid`) on `p`
/// processors in two SSMPs, paced like every harness machine, with or
/// without SSMP 1 departing and rejoining mid-run. Returns the report,
/// the stale directory entries the rejoin drain repaired, and whether
/// the final home-copy image matched the closed-form expectation.
fn grid(base: &DssmpConfig, p: usize, churn: bool) -> (RunReport, u64, bool) {
    let mut cfg = base.clone();
    cfg.n_procs = p;
    cfg.cluster_size = (p / 2).max(1);
    if churn {
        let scenario =
            TieredScenario::uniform(LinkTier::Lan, Cycles(1000)).with_churn(ChurnEvent {
                ssmp: 1,
                depart: DEPART,
                rejoin: REJOIN,
            });
        cfg = cfg.with_scenario(Arc::new(scenario));
    }
    let machine = Machine::new(cfg);
    let (report, image) = envelope::grid(&machine, GRID_WORDS, GRID_ROUNDS);
    let verified = image == envelope::grid_image(p as u64, GRID_WORDS, GRID_ROUNDS);
    (report, machine.churn_repaired(), verified)
}

fn run_churn_section(base: &DssmpConfig, p: usize) -> Vec<JsonObject> {
    let (baseline, _, base_ok) = grid(base, p, false);
    assert!(base_ok, "churn-free grid must verify");
    let (churned, repaired, churn_ok) = grid(base, p, true);
    assert!(churn_ok, "churned grid must converge to fault-free image");
    assert_eq!(churned.churn_departs, 1, "departure applied");
    assert_eq!(churned.churn_rejoins, 1, "rejoin applied");
    assert_eq!(repaired, 0, "clean drain leaves nothing to repair");

    let slowdown = churned.duration.raw() as f64 / baseline.duration.raw().max(1) as f64;
    println!(
        "  churn P={p}: {} pages re-homed, {} retries, {:.3}x vs churn-free, converged",
        churned.rehomed_pages, churned.retries, slowdown
    );
    let mut o = JsonObject::new();
    o.str("workload", "grid")
        .num("p", p as f64)
        .num("depart_cycle", DEPART.raw() as f64)
        .num("rejoin_cycle", REJOIN.raw() as f64)
        .num("duration_churn_free_cycles", baseline.duration.raw() as f64)
        .num("duration_churned_cycles", churned.duration.raw() as f64)
        .num("slowdown_vs_churn_free", slowdown)
        .num("rehomed_pages", churned.rehomed_pages as f64)
        .num("retries", churned.retries as f64)
        .num("stale_entries_repaired", repaired as f64)
        .num("verified", 1.0);
    vec![o]
}

pub fn run(opts: &Options) {
    let smoke = opts.args.iter().any(|a| a == "--smoke");
    let base = suite::base_config(opts);

    println!(
        "scenario: latency tiers, contention and churn (P = {}, {} protocol{})",
        opts.p,
        opts.protocol.label(),
        if smoke { ", smoke" } else { "" }
    );

    println!("\nequivalence (deterministic ring, asserted cycle-exact):");
    let equivalence = run_equivalence(opts.protocol);

    println!("\ncontention (per-endpoint interface serialization):");
    let contention = run_contention(opts.protocol);

    println!("\nchurn (SSMP departure + rejoin, verified convergence):");
    let churn = run_churn_section(&base, if smoke { 4 } else { opts.p.min(8) });

    let tiers: &[LinkTier] = if smoke {
        &[LinkTier::Rack, LinkTier::Wan]
    } else {
        LinkTier::ALL.as_slice()
    };
    let mut apps: Vec<Box<dyn MgsApp>> =
        suite::suite(opts).into_iter().map(|(app, _)| app).collect();
    if smoke {
        apps.truncate(1);
    }

    // One full cluster-size sweep per (app, tier), every link priced
    // at the tier; all their points share the pool.
    let mut sweeps: Vec<(DssmpConfig, &dyn MgsApp)> = Vec::new();
    let mut labels = Vec::new();
    for app in &apps {
        for &tier in tiers {
            let fabric = TieredScenario::uniform(tier, suite::tier_latency(tier));
            sweeps.push((base.clone().with_scenario(Arc::new(fabric)), app.as_ref()));
            labels.push((app.name(), tier));
        }
    }
    println!(
        "\ntiers: {} apps x {} tiers, full cluster-size sweep each",
        apps.len(),
        tiers.len()
    );
    let tier_sweeps = parallel_sweeps_of(&sweeps, opts.jobs);

    let mut tier_records = Vec::with_capacity(tier_sweeps.len());
    for (&(app, tier), points) in labels.iter().zip(&tier_sweeps) {
        let latency = suite::tier_latency(tier);
        let m = metrics(points);
        let mut o = JsonObject::new();
        o.str("app", app)
            .str("tier", tier.name())
            .num("latency_cycles", latency.raw() as f64)
            .num("breakup_penalty", m.breakup_penalty)
            .num("multigrain_potential", m.multigrain_potential)
            .num("curvature_value", m.curvature_value)
            .str("curvature", &m.curvature.to_string());
        let mut sweep = Vec::with_capacity(points.len());
        for pt in points {
            let mut s = JsonObject::new();
            s.num("cluster_size", pt.cluster_size as f64)
                .num("duration_cycles", pt.report.duration.raw() as f64)
                .num("lan_messages", pt.report.lan_messages as f64)
                .num("lock_hit_ratio", pt.report.lock_hit_ratio());
            sweep.push(s);
        }
        o.array("sweep", sweep);
        println!(
            "  {:>12} @ {:>10} ({} cyc): {}",
            app,
            tier.name(),
            latency.raw(),
            m
        );
        tier_records.push(o);
    }

    let mut root = JsonObject::new();
    root.str("bench", "scenario")
        .num("p", opts.p as f64)
        .num("scale", opts.scale as f64)
        .num("smoke", if smoke { 1.0 } else { 0.0 })
        .array("equivalence", equivalence)
        .array("contention", contention)
        .array("churn", churn)
        .array("tiers", tier_records);
    mgs_bench::provenance::stamp_run(&mut root, opts, &base);
    let path = "BENCH_scenario.json";
    std::fs::write(path, root.render(0) + "\n").expect("write BENCH_scenario.json");
    println!("\nwrote {path}: breakup penalty charted against link tier");
}
