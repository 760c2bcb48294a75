//! `chaos` — the application suite on an unreliable LAN.
//!
//! Two sections, both written to `BENCH_chaos.json`:
//!
//! * **equivalence** — the deterministic token ring of
//!   `mgs_apps::envelope` (one active remote writer per barrier phase),
//!   unpaced, run under three fabrics and *asserted* cycle-exact
//!   (`RunReport::first_divergence`):
//!   - a drop-rate-0 [`FaultPlan`] must be bit-identical to
//!     [`FaultPlan::none`] — the inactive plan is discarded and the
//!     pre-fault delivery path runs;
//!   - a duplicate-storm plan (every inter-SSMP message delivered
//!     twice, nothing dropped) must *also* be cycle-identical: a
//!     redundant copy is counted by the fabric and reaches no handler,
//!     so it charges not a single simulated cycle.
//! * **sweep** — drop rate × cluster size over the six applications
//!   (the five-app suite plus the Water kernel). Every run's numerical
//!   result is verified by the application itself against a plain-Rust
//!   reference — the memory image after recovery must equal the
//!   fault-free answer — and each point records the injected drops,
//!   duplicates and protocol retransmissions alongside the runtime.
//!
//! Run with `cargo run --release -p mgs-bench -- chaos --quick`.
//! Accepts the usual `--p`, `--scale` and `--jobs` flags.

use mgs_apps::MgsApp;
use mgs_bench::cli::Options;
use mgs_bench::json::JsonObject;
use mgs_bench::parallel::run_pool;
use mgs_bench::suite;
use mgs_core::{CostCategory, DssmpConfig, FaultPlan, Machine, ProtocolKind, RunReport};
use mgs_sim::Cycles;

/// Seed of every fault schedule in this harness ("CHAOS").
const SEED: u64 = 0x4D47_5343_4841_4F53;
/// Drop probabilities swept per (application, cluster size). The 0 point
/// doubles as the fault-free baseline for the slowdown column.
const DROP_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
/// Delivery jitter bound used whenever faults are active.
const JITTER: Cycles = Cycles(200);

fn equivalence_record(name: &str, c: usize, r: &RunReport) -> JsonObject {
    let mut o = JsonObject::new();
    o.str("workload", name)
        .num("cluster_size", c as f64)
        .num("duration_cycles", r.duration.raw() as f64)
        .num("lan_messages", r.lan_messages as f64)
        .num("lan_duplicates", r.lan_duplicates as f64)
        .num("retries", r.retries as f64)
        .num("cycle_exact_vs_faultfree", 1.0);
    o
}

/// The asserted section: drop-0 plans and duplicate storms must not
/// move a single simulated cycle.
fn run_equivalence(protocol: ProtocolKind) -> Vec<JsonObject> {
    let mut records = Vec::new();
    for c in [1, 2, 4] {
        let baseline = suite::ring(c, protocol, |cfg| cfg.with_faults(FaultPlan::none()));
        assert!(baseline.lan_messages > 0, "ring must cross SSMPs at C={c}");

        let zero = suite::ring(c, protocol, |cfg| {
            cfg.with_faults(FaultPlan::uniform(SEED, 0.0, 0.0, Cycles::ZERO))
        });
        assert_eq!(baseline.first_divergence(&zero), None, "drop-0 plan C={c}");
        assert_eq!(zero.lan_drops + zero.lan_duplicates + zero.retries, 0);
        records.push(equivalence_record("ring/drop0", c, &zero));

        let storm = suite::ring(c, protocol, |cfg| {
            cfg.with_faults(FaultPlan::uniform(SEED, 0.0, 1.0, Cycles::ZERO))
        });
        assert_eq!(
            baseline.first_divergence(&storm),
            None,
            "duplicate storm C={c}"
        );
        assert!(
            storm.lan_duplicates >= storm.lan_messages,
            "storm must duplicate every inter-SSMP message at C={c}"
        );
        assert_eq!(storm.lan_drops, 0, "storm drops nothing");
        records.push(equivalence_record("ring/dup-storm", c, &storm));

        println!(
            "  equivalence C={c}: {} msgs, dup-storm rejected {} copies, cycle-exact",
            baseline.lan_messages, storm.lan_duplicates
        );
    }
    records
}

/// One sweep point: a verified run of `app` at `(C, drop)`.
struct Point {
    app: &'static str,
    cluster_size: usize,
    drop: f64,
    report: RunReport,
}

impl Point {
    fn duration(&self) -> u64 {
        self.report.duration.raw()
    }
}

fn plan_for(drop: f64) -> FaultPlan {
    if drop == 0.0 {
        FaultPlan::none()
    } else {
        // Duplicate as often as dropping, with bounded delivery jitter:
        // all three fault classes active at every nonzero sweep point.
        FaultPlan::uniform(SEED, drop, drop, JITTER)
    }
}

fn run_point(base: &DssmpConfig, app: &dyn MgsApp, c: usize, drop: f64) -> Point {
    let mut cfg = base.clone().with_faults(plan_for(drop));
    cfg.cluster_size = c;
    // `execute` verifies the numerical result against a plain-Rust
    // reference and panics on mismatch: a run that survives here
    // recovered to the exact fault-free memory image.
    let report = app.execute(&Machine::new(cfg));
    if drop == 0.0 {
        assert_eq!(
            report.lan_drops + report.lan_duplicates + report.retries,
            0,
            "perfect fabric injected faults"
        );
    }
    Point {
        app: app.name(),
        cluster_size: c,
        drop,
        report,
    }
}

pub fn run(opts: &Options) {
    let base = suite::base_config(opts);

    println!(
        "chaos: protocol recovery on an unreliable LAN (P = {}, {} protocol)",
        opts.p,
        opts.protocol.label()
    );
    println!("\nequivalence (deterministic ring, asserted cycle-exact):");
    let equivalence = run_equivalence(opts.protocol);

    // The six applications of the acceptance criteria: the suite plus
    // the (unmodified) Water kernel.
    let mut apps: Vec<Box<dyn MgsApp>> =
        suite::suite(opts).into_iter().map(|(app, _)| app).collect();
    apps.push(Box::new(suite::kernels(opts)[0].0.clone()));

    let cluster_sizes: Vec<usize> = base.cluster_sizes().collect();

    let base = &base;
    let mut jobs = Vec::new();
    for app in &apps {
        for &c in &cluster_sizes {
            for &drop in &DROP_RATES {
                let app = app.as_ref();
                jobs.push(move || run_point(base, app, c, drop));
            }
        }
    }
    println!(
        "\nsweep: {} apps x {} cluster sizes x {:?} drop rates ({} verified runs)",
        apps.len(),
        cluster_sizes.len(),
        DROP_RATES,
        jobs.len()
    );
    let points = run_pool(opts.jobs, jobs);

    // Baseline (drop 0) durations per (app, C) for the slowdown column.
    let baseline = |app: &str, c: usize| -> u64 {
        points
            .iter()
            .find(|pt| pt.app == app && pt.cluster_size == c && pt.drop == 0.0)
            .map(Point::duration)
            .expect("drop-0 point exists")
    };

    let mut sweep_records = Vec::with_capacity(points.len());
    for pt in &points {
        let base_cycles = baseline(pt.app, pt.cluster_size);
        let mut o = JsonObject::new();
        o.str("app", pt.app)
            .num("cluster_size", pt.cluster_size as f64)
            .num("drop_rate", pt.drop)
            .num("duration_cycles", pt.duration() as f64)
            .num(
                "slowdown_vs_faultfree",
                pt.duration() as f64 / base_cycles as f64,
            )
            .num(
                "mgs_cycles",
                pt.report.breakdown.get(CostCategory::Mgs).raw() as f64,
            )
            .num("lan_messages", pt.report.lan_messages as f64)
            .num("lan_drops", pt.report.lan_drops as f64)
            .num("lan_duplicates", pt.report.lan_duplicates as f64)
            .num("retries", pt.report.retries as f64)
            .num("verified", 1.0);
        sweep_records.push(o);
    }

    for app in &apps {
        let name = app.name();
        let worst = points
            .iter()
            .filter(|pt| pt.app == name && pt.drop == DROP_RATES[3])
            .map(|pt| pt.duration() as f64 / baseline(name, pt.cluster_size) as f64)
            .fold(0.0f64, f64::max);
        let retries: u64 = points
            .iter()
            .filter(|pt| pt.app == name)
            .map(|pt| pt.report.retries)
            .sum();
        println!(
            "  {name:>14}: verified at every point; {retries} retries, worst slowdown {:.3}x at {}% drop",
            worst,
            DROP_RATES[3] * 100.0
        );
    }

    let mut root = JsonObject::new();
    root.str("bench", "chaos")
        .num("p", opts.p as f64)
        .num("scale", opts.scale as f64)
        .str("seed", &format!("{SEED:#018x}"))
        .num("jitter_cycles", JITTER.raw() as f64)
        .array("equivalence", equivalence)
        .array("sweep", sweep_records);
    mgs_bench::provenance::stamp_run(&mut root, opts, base);
    let path = "BENCH_chaos.json";
    std::fs::write(path, root.render(0) + "\n").expect("write BENCH_chaos.json");
    println!("\nwrote {path}: every run recovered to the fault-free result");
}
