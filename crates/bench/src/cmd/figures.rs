//! Regenerates **Figures 6–10**: runtime breakdowns (User / Lock /
//! Barrier / MGS) as a function of cluster size, plus the framework
//! metrics for each application.
//!
//! Usage: `figures [app ...]` — any of jacobi, matmul, tsp, water,
//! barnes-hut, water-kernel, water-kernel-tiled; default: the paper's
//! five applications. All `(app × cluster size)` points share the
//! `--jobs` pool (`mgs_bench::parallel`).

use mgs_bench::chart::breakdown_chart;
use mgs_bench::cli::Options;
use mgs_bench::parallel::parallel_sweeps;
use mgs_bench::suite::{base_config, by_name, suite};
use mgs_core::framework;

pub fn run(opts: &Options) {
    let base = base_config(opts);
    let apps: Vec<Box<dyn mgs_apps::MgsApp>> = if opts.args.is_empty() {
        suite(opts).into_iter().map(|(a, _)| a).collect()
    } else {
        opts.args
            .iter()
            .map(|n| by_name(opts, n).unwrap_or_else(|| panic!("unknown app: {n}")))
            .collect()
    };
    eprintln!(
        "sweeping {} application(s) over cluster sizes in parallel...",
        apps.len()
    );
    let sweeps = parallel_sweeps(&base, &apps, opts.jobs);
    for (app, points) in apps.iter().zip(sweeps) {
        println!(
            "\n=== {} (P = {}, 1 KB pages, 1000-cycle LAN, {} protocol) ===",
            app.name(),
            opts.p,
            opts.protocol.label()
        );
        let bars: Vec<_> = points
            .iter()
            .map(|pt| (pt.cluster_size, &pt.report))
            .collect();
        println!("{}", breakdown_chart(&bars));
        let m = framework::metrics(&points);
        println!("framework: {m}");
    }
}
