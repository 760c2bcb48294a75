//! Regenerates **Table 3**: the cost of primitive MGS operations,
//! measured on the real simulated machine (1 KB pages, zero external
//! latency, 20 MHz Alewife cost model).

use mgs_bench::cli::Options;

pub fn run(_opts: &Options) {
    println!("Table 3: Shared Memory Costs on MGS (cycles)");
    println!(
        "{:<34} {:>8} {:>8} {:>8}",
        "operation", "paper", "ours", "error"
    );
    println!("{}", "-".repeat(62));
    for row in mgs_core::micro::run_all() {
        println!("{row}");
    }
}
