//! The paper's methodology in miniature: fix P, sweep the cluster size
//! C from 1 to P, and read off the three framework metrics (§2.4) —
//! breakup penalty, multigrain potential, multigrain curvature.
//!
//! ```text
//! cargo run --release --example cluster_sweep            # P = 16, quick
//! cargo run --release --example cluster_sweep -- --large # P = 512
//! ```
//!
//! Each simulated processor is a resumable task on a bounded host
//! worker pool, so the machine size is decoupled from the host's
//! thread capacity. The `--large` sweep is a machine 16× bigger than
//! the paper's, on the same handful of host workers.
//! Measured output on a 1-core container (about one second of wall
//! time; C is bounded to 8 ≤ C ≤ 64 at P = 512 by the protocol's
//! 64-bit directory masks):
//!
//! ```text
//! Sweeping Water over cluster sizes (P = 512)...
//!
//!    C        Mcycles  lock hits
//!    8          55.30      51.2%
//!   16          48.41      59.5%
//!   32          41.35      80.8%
//!   64          29.41      99.8%
//! ```

use mgs_repro::apps::{sweep_app, water::Water, MgsApp};
use mgs_repro::core::framework;
use mgs_repro::core::{DssmpConfig, Machine};

fn main() {
    let large = std::env::args().any(|a| a == "--large");

    // A small Water problem keeps this example quick; the full
    // evaluation lives in `mgs-bench paper`, and host-speed
    // measurement in `benchmark/`.
    let app = Water {
        n: 64,
        ..Water::paper()
    };

    if large {
        // P = 512: only reachable because processors are virtual. The
        // framework metrics need the C = 1 and C = P endpoints, which
        // the directory masks exclude at this size, so this sweep
        // prints the raw curve only.
        let p = 512;
        println!("Sweeping Water over cluster sizes (P = {p})...\n");
        println!("{:>4} {:>14} {:>10}", "C", "Mcycles", "lock hits");
        for c in [8, 16, 32, 64] {
            let machine = Machine::new(DssmpConfig::new(p, c));
            let report = app.execute(&machine);
            println!(
                "{:>4} {:>14.2} {:>9.1}%",
                c,
                report.duration.as_mcycles(),
                100.0 * machine.lock_hit_ratio()
            );
        }
        return;
    }

    let base = DssmpConfig::new(16, 1);

    println!("Sweeping Water over cluster sizes (P = 16)...\n");
    let points = sweep_app(&base, &app);

    println!("{:>4} {:>14} {:>10}", "C", "Mcycles", "lock hits");
    for pt in &points {
        println!(
            "{:>4} {:>14.2} {:>9.1}%",
            pt.cluster_size,
            pt.report.duration.as_mcycles(),
            100.0 * pt.lock_hit_ratio
        );
    }

    let m = framework::metrics(&points);
    println!("\nFramework metrics: {m}");
    println!(
        "\nReading the curve: the breakup penalty is what you lose by\n\
         splitting the tightly-coupled machine in two; the multigrain\n\
         potential is what clustering wins back over uniprocessor nodes;\n\
         convex curvature means small clusters already capture most of it."
    );
}
