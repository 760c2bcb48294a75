//! Framework-metric summary across the whole suite, compared against
//! the paper's reported numbers (§5.2, §7).

use mgs_bench::chart::table;
use mgs_bench::cli::Options;
use mgs_bench::json::sweep_json;
use mgs_bench::parallel::parallel_sweeps;
use mgs_bench::suite::{base_config, kernels, suite};
use mgs_core::framework;

pub fn run(opts: &Options) {
    let json = opts.args.iter().any(|a| a == "--json");
    let base = base_config(opts);
    let (apps, papers): (Vec<Box<dyn mgs_apps::MgsApp>>, Vec<_>) = suite(opts)
        .into_iter()
        .chain(
            kernels(opts)
                .into_iter()
                .map(|(k, paper)| (Box::new(k) as Box<dyn mgs_apps::MgsApp>, paper)),
        )
        .unzip();
    for app in &apps {
        eprintln!("sweeping {}...", app.name());
    }
    let mut rows = Vec::new();
    let mut sweeps = Vec::new();
    let results = parallel_sweeps(&base, &apps, opts.jobs);
    for ((app, paper), points) in apps.iter().zip(papers).zip(results) {
        let m = framework::metrics(&points);
        sweeps.push(sweep_json(app.name(), opts.p, &points, &m));
        rows.push(vec![
            app.name().to_string(),
            format!("{:.0}%", m.breakup_penalty * 100.0),
            format!("{:.0}%", paper.breakup * 100.0),
            format!("{:.0}%", m.multigrain_potential * 100.0),
            format!("{:.0}%", paper.potential * 100.0),
            m.curvature.to_string(),
            paper.curvature.to_string(),
        ]);
    }
    println!(
        "\nDSSMP framework metrics (P = {}, scale 1/{}):",
        opts.p, opts.scale
    );
    println!(
        "{}",
        table(
            &[
                "app",
                "breakup",
                "paper",
                "potential",
                "paper",
                "curv",
                "paper"
            ],
            &rows
        )
    );
    if json {
        let body: Vec<String> = sweeps.iter().map(|s| s.render(0)).collect();
        let path = "results/summary.json";
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write(path, format!("[{}]", body.join(",\n"))).expect("write summary.json");
        eprintln!("wrote {path}");
    }
}
