//! Regenerates **Figure 11**: the MGS token-lock hit ratio as a
//! function of cluster size for the lock-using applications
//! (TSP, Water, Barnes-Hut). The three sweeps share the `--jobs`
//! pool (`mgs_bench::parallel`).

use mgs_bench::chart::series_chart;
use mgs_bench::cli::Options;
use mgs_bench::parallel::parallel_sweeps;
use mgs_bench::suite::{base_config, by_name};

pub fn run(opts: &Options) {
    let base = base_config(opts);
    let names = ["tsp", "water", "barnes-hut"];
    let apps: Vec<Box<dyn mgs_apps::MgsApp>> = names
        .iter()
        .map(|n| by_name(opts, n).expect("known app"))
        .collect();
    eprintln!("sweeping {names:?} in parallel...");
    let sweeps = parallel_sweeps(&base, &apps, opts.jobs);
    for (name, points) in names.iter().zip(sweeps) {
        let series: Vec<(usize, f64)> = points
            .iter()
            .map(|pt| (pt.cluster_size, pt.lock_hit_ratio))
            .collect();
        println!("\n=== {name} ===");
        println!("{}", series_chart("lock hit ratio", &series, 1.0));
    }
}
