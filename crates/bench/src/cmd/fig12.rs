//! Regenerates **Figure 12**: the Water force-interaction kernel
//! without (left) and with (right) the tiling loop transformation of
//! §5.2.3, including the breakup-penalty collapse the paper reports
//! (334% → 26%). Both kernel sweeps share the `--jobs` pool
//! (`mgs_bench::parallel`).

use mgs_apps::MgsApp;
use mgs_bench::chart::breakdown_chart;
use mgs_bench::cli::Options;
use mgs_bench::parallel::parallel_sweeps;
use mgs_bench::suite::{base_config, kernels};
use mgs_core::framework;

pub fn run(opts: &Options) {
    let base = base_config(opts);
    let apps: Vec<Box<dyn MgsApp>> = kernels(opts)
        .into_iter()
        .map(|(k, _)| Box::new(k) as Box<dyn MgsApp>)
        .collect();
    eprintln!("sweeping both Water-kernel variants in parallel...");
    let sweeps = parallel_sweeps(&base, &apps, opts.jobs);
    for (kernel, points) in apps.iter().zip(sweeps) {
        println!("\n=== {} (P = {}) ===", kernel.name(), opts.p);
        let bars: Vec<_> = points
            .iter()
            .map(|pt| (pt.cluster_size, &pt.report))
            .collect();
        println!("{}", breakdown_chart(&bars));
        let m = framework::metrics(&points);
        println!("framework: {m}");
    }
    println!("\npaper: unmodified breakup 334%, tiled breakup 26%, tiled potential 107% (vs C=1), convex");
}
