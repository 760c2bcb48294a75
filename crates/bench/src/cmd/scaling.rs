//! Scaling studies beyond the paper's fixed configuration, using the
//! §2.4 framework as the analysis tool:
//!
//! * **external latency sweep** — how the breakup penalty grows as the
//!   inter-SSMP network slows from tightly-coupled-like (0 cycles) to
//!   commodity-LAN-like (16k cycles);
//! * **page size sweep** — the software sharing grain (coarser pages
//!   amortize protocol overhead but aggravate false sharing);
//! * **machine size sweep** — P at a fixed cluster size.
//!
//! All points in each study share the `--jobs` pool
//! (`mgs_bench::parallel`).

use mgs_apps::{water::Water, MgsApp};
use mgs_bench::chart::table;
use mgs_bench::cli::Options;
use mgs_bench::parallel::{parallel_sweeps_of, run_pool};
use mgs_bench::suite::base_config;
use mgs_core::{framework, Cycles, Machine, PageGeometry};

pub fn run(opts: &Options) {
    let water = Water {
        n: opts.dim(343, 48),
        ..Water::paper()
    };

    // External latency sweep: framework metrics per latency. Each
    // latency is a full cluster-size sweep, so run them as one batch.
    let latencies = [0u64, 1_000, 4_000, 16_000];
    eprintln!("water sweeps at ext latencies {latencies:?} in parallel...");
    let sweeps: Vec<(mgs_core::DssmpConfig, &dyn MgsApp)> = latencies
        .iter()
        .map(|&ext| {
            let base = base_config(opts).with_ext_latency(Cycles(ext));
            (base, &water as &dyn MgsApp)
        })
        .collect();
    let results = parallel_sweeps_of(&sweeps, opts.jobs);
    let mut rows = Vec::new();
    for (ext, points) in latencies.iter().zip(results) {
        let m = framework::metrics(&points);
        rows.push(vec![
            format!("{ext} cyc"),
            format!("{:.0}%", m.breakup_penalty * 100.0),
            format!("{:.0}%", m.multigrain_potential * 100.0),
            m.curvature.to_string(),
        ]);
    }
    println!(
        "\nWater framework metrics vs. inter-SSMP latency (P = {}):",
        opts.p
    );
    println!(
        "{}",
        table(&["latency", "breakup", "potential", "curv"], &rows)
    );

    // Page size sweep at C = P/4, and machine size sweep at C = 4;
    // one run each, all in one pool.
    let c = (opts.p / 4).max(1);
    let pages = [512u64, 1024, 2048, 4096];
    let machines = [8usize, 16, 32];
    let mut configs = Vec::new();
    for &page in &pages {
        let mut cfg = base_config(opts);
        cfg.cluster_size = c;
        cfg.geometry = PageGeometry::new(page);
        configs.push(cfg);
    }
    for &p in &machines {
        let mut cfg = base_config(opts);
        cfg.n_procs = p;
        cfg.cluster_size = 4.min(p);
        configs.push(cfg);
    }
    eprintln!("page-size and machine-size points in parallel...");
    let water = &water;
    let jobs: Vec<_> = configs
        .into_iter()
        .map(|cfg| move || water.execute(&Machine::new(cfg)).duration.as_mcycles())
        .collect();
    let mut mcycles = run_pool(opts.jobs, jobs).into_iter();

    let rows: Vec<_> = pages
        .iter()
        .map(|page| {
            vec![
                format!("{page} B"),
                format!("{:.2}", mcycles.next().expect("page point")),
            ]
        })
        .collect();
    println!("\nWater at C = {c} vs. page size:");
    println!("{}", table(&["page", "Mcyc"], &rows));

    let rows: Vec<_> = machines
        .iter()
        .map(|p| {
            vec![
                format!("P = {p}"),
                format!("{:.2}", mcycles.next().expect("machine point")),
            ]
        })
        .collect();
    println!("\nWater at C = 4 vs. machine size:");
    println!("{}", table(&["machine", "Mcyc"], &rows));
}
