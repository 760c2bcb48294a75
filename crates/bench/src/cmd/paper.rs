//! Regenerates the paper's evaluation (§5) from one cluster-size sweep
//! per application, each table and figure rendered into a file under
//! `results/` in the working directory:
//!
//! | File | Regenerates |
//! |---|---|
//! | `table4.txt` | Table 4 — sequential runtimes and `P`-way speedups |
//! | `figures.txt` | Figures 6–10 — runtime breakdowns vs. cluster size |
//! | `fig11.txt` | Figure 11 — MGS lock hit ratio (TSP, Water, Barnes-Hut) |
//! | `fig12.txt` | Figure 12 — the Water kernel, unmodified vs. tiled |
//! | `summary.txt` | Framework metrics (breakup penalty, potential, curvature) vs. the paper |
//!
//! The paper reads all of them off the same points, so each runs once:
//! the seven sweep applications (the suite and both Water kernels) at
//! every cluster size, plus Table 4's sequential run of each suite
//! application — `7 × (log2 P + 1) + 5` machines, 47 at `P = 32`, in
//! one `--jobs` pool (`mgs_bench::parallel`).

use mgs_apps::{sequential_runtime, MgsApp};
use mgs_bench::chart::{breakdown_chart, series_chart, table};
use mgs_bench::cli::Options;
use mgs_bench::parallel::run_pool;
use mgs_bench::suite::{base_config, kernels, suite, PaperNumbers};
use mgs_core::framework::{self, sweep_point, SweepPoint};
use mgs_core::Cycles;
use std::fmt::Write as _;

/// What one machine of the pool returns.
enum Run {
    /// A suite application on one processor (Table 4's baseline).
    Sequential(Cycles),
    /// One `(application, C)` point of a sweep.
    Point(Box<SweepPoint>),
}

/// One application's sweep, in cluster-size order.
struct Sweep<'a> {
    app: &'a dyn MgsApp,
    paper: PaperNumbers,
    points: Vec<SweepPoint>,
}

pub fn run(opts: &Options) {
    assert!(
        opts.args.is_empty(),
        "paper sweeps every application and takes no name (got {:?}); \
         `mgs-bench profile <app>` runs one",
        opts.args
    );
    let base = &base_config(opts);
    let suite = suite(opts);
    let kernels = kernels(opts);
    let apps: Vec<(&dyn MgsApp, PaperNumbers)> = suite
        .iter()
        .map(|(app, paper)| (app.as_ref(), *paper))
        .chain(kernels.iter().map(|(k, paper)| (k as &dyn MgsApp, *paper)))
        .collect();
    let sizes: Vec<usize> = base.cluster_sizes().collect();

    // Table 4's sequential runs (`None`), then every sweep point.
    let mut machines: Vec<(&dyn MgsApp, Option<usize>)> =
        suite.iter().map(|(app, _)| (app.as_ref(), None)).collect();
    for &(app, _) in &apps {
        machines.extend(sizes.iter().map(|&c| (app, Some(c))));
    }
    let work = machines
        .iter()
        .map(|&(app, c)| {
            move || match c {
                None => Run::Sequential(sequential_runtime(base, app)),
                Some(c) => Run::Point(Box::new(sweep_point(base, c, |machine| {
                    app.execute(machine)
                }))),
            }
        })
        .collect::<Vec<_>>();
    eprintln!(
        "paper: {} machines ({} sequential, {} apps x {} cluster sizes) in one pool...",
        work.len(),
        suite.len(),
        apps.len(),
        sizes.len()
    );
    let mut runs = run_pool(opts.jobs, work).into_iter();
    let sequential: Vec<Cycles> = (&mut runs)
        .take(suite.len())
        .map(|run| match run {
            Run::Sequential(duration) => duration,
            Run::Point(_) => unreachable!("sequential runs come first"),
        })
        .collect();
    let sweeps: Vec<Sweep> = apps
        .iter()
        .map(|&(app, paper)| Sweep {
            app,
            paper,
            points: (&mut runs)
                .take(sizes.len())
                .map(|run| match run {
                    Run::Point(point) => *point,
                    Run::Sequential(_) => unreachable!("sweep points follow"),
                })
                .collect(),
        })
        .collect();
    let (paper_apps, water_kernels) = sweeps.split_at(suite.len());

    std::fs::create_dir_all("results").expect("create results dir");
    for (name, text) in [
        ("table4", table4(opts, paper_apps, &sequential)),
        ("figures", figures(opts, paper_apps)),
        ("fig11", fig11(paper_apps)),
        ("fig12", fig12(opts, water_kernels)),
        ("summary", summary(opts, &sweeps)),
    ] {
        let path = format!("results/{name}.txt");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Table 4: sequential runtime (Mcycles) and speedup at `C = P`.
fn table4(opts: &Options, sweeps: &[Sweep], sequential: &[Cycles]) -> String {
    // Paper values at the full problem sizes (Seq in Mcycles, S32).
    let paper: &[(&str, f64, f64)] = &[
        ("jacobi", 1618.0, 30.0),
        ("matmul", 3081.0, 26.9),
        ("tsp", 54.2, 23.0),
        ("water", 1993.0, 26.9),
        ("barnes-hut", 977.0, 13.8),
    ];
    let mut rows = Vec::new();
    for (sweep, seq) in sweeps.iter().zip(sequential) {
        // The sweep ends at `C = P`, the tightly coupled machine.
        let par = sweep
            .points
            .last()
            .expect("a nonempty sweep")
            .report
            .duration;
        let speedup = seq.raw() as f64 / par.raw() as f64;
        let (pseq, ps32) = paper
            .iter()
            .find(|(n, _, _)| *n == sweep.app.name())
            .map(|&(_, s, x)| (s, x))
            .unwrap_or((f64::NAN, f64::NAN));
        rows.push(vec![
            sweep.app.name().to_string(),
            format!("{:.1}", seq.as_mcycles()),
            format!("{pseq:.1}"),
            format!("{speedup:.1}"),
            format!("{ps32:.1}"),
        ]);
    }
    let mut out = format!("Table 4 (P = {}, scale 1/{}):\n", opts.p, opts.scale);
    let header = ["app", "seq Mcyc", "paper", "speedup", "paper"];
    writeln!(out, "{}", table(&header, &rows)).unwrap();
    if opts.scale != 1 {
        writeln!(
            out,
            "note: problem sizes scaled down 1/{}; paper columns are full-size.",
            opts.scale
        )
        .unwrap();
    }
    out
}

/// One breakdown chart per sweep, each followed by its framework line,
/// under the heading `title` names.
fn breakdowns(sweeps: &[Sweep], title: impl Fn(&Sweep) -> String) -> String {
    let mut out = String::new();
    for sweep in sweeps {
        let bars: Vec<_> = sweep
            .points
            .iter()
            .map(|pt| (pt.cluster_size, &pt.report))
            .collect();
        writeln!(out, "\n=== {} ===", title(sweep)).unwrap();
        writeln!(out, "{}", breakdown_chart(&bars)).unwrap();
        writeln!(out, "framework: {}", framework::metrics(&sweep.points)).unwrap();
    }
    out
}

/// Figures 6–10: the suite's runtime breakdowns.
fn figures(opts: &Options, sweeps: &[Sweep]) -> String {
    breakdowns(sweeps, |sweep| {
        format!(
            "{} (P = {}, 1 KB pages, 1000-cycle LAN, {} protocol)",
            sweep.app.name(),
            opts.p,
            opts.protocol.label()
        )
    })
}

/// Figure 11: the lock hit ratio of the lock-using applications.
fn fig11(sweeps: &[Sweep]) -> String {
    let mut out = String::new();
    for name in ["tsp", "water", "barnes-hut"] {
        let sweep = sweeps
            .iter()
            .find(|s| s.app.name() == name)
            .expect("a suite application");
        let series: Vec<(usize, f64)> = sweep
            .points
            .iter()
            .map(|pt| (pt.cluster_size, pt.lock_hit_ratio))
            .collect();
        writeln!(out, "\n=== {name} ===").unwrap();
        writeln!(out, "{}", series_chart("lock hit ratio", &series, 1.0)).unwrap();
    }
    out
}

/// Figure 12: the Water kernel without and with tiling (§5.2.3).
fn fig12(opts: &Options, kernels: &[Sweep]) -> String {
    let mut out = breakdowns(kernels, |sweep| {
        format!("{} (P = {})", sweep.app.name(), opts.p)
    });
    out.push_str(
        "\npaper: unmodified breakup 334%, tiled breakup 26%, \
         tiled potential 107% (vs C=1), convex\n",
    );
    out
}

/// Framework metrics of every sweep against the paper's (§5.2, §7).
fn summary(opts: &Options, sweeps: &[Sweep]) -> String {
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|sweep| {
            let m = framework::metrics(&sweep.points);
            vec![
                sweep.app.name().to_string(),
                format!("{:.0}%", m.breakup_penalty * 100.0),
                format!("{:.0}%", sweep.paper.breakup * 100.0),
                format!("{:.0}%", m.multigrain_potential * 100.0),
                format!("{:.0}%", sweep.paper.potential * 100.0),
                m.curvature.to_string(),
                sweep.paper.curvature.to_string(),
            ]
        })
        .collect();
    let header = [
        "app",
        "breakup",
        "paper",
        "potential",
        "paper",
        "curv",
        "paper",
    ];
    format!(
        "\nDSSMP framework metrics (P = {}, scale 1/{}):\n{}\n",
        opts.p,
        opts.scale,
        table(&header, &rows)
    )
}
