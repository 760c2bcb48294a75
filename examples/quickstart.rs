//! Quickstart: build a DSSMP, share memory across SSMPs, look at the
//! runtime breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mgs_repro::core::{AccessKind, DssmpConfig, Machine};

fn main() {
    // An 8-processor DSSMP made of four 2-processor SSMPs, with the
    // paper's defaults: 1 KB pages, 1000-cycle inter-SSMP latency. With
    // observability on, the run report carries the protocol's counts.
    let machine = Machine::new(DssmpConfig::new(8, 2).with_observability());

    // Shared memory is allocated on the machine, then accessed through
    // each simulated processor's environment.
    let data = machine.alloc_array::<f64>(1024, AccessKind::DistArray);
    let lock = machine.new_lock();
    let total = machine.alloc_array::<f64>(1, AccessKind::Pointer);

    let report = machine.run(|env| {
        let pid = env.pid() as u64;
        // Each processor writes its stripe...
        for i in 0..128 {
            data.write(env, pid * 128 + i, (pid * 128 + i) as f64);
        }
        env.barrier(); // a release point: dirty pages flush to their homes

        // ...then reads a neighbour's stripe (inter-SSMP sharing at
        // page grain, intra-SSMP sharing at cache-line grain).
        let next = ((pid + 1) % 8) * 128;
        let mut sum = 0.0;
        for i in 0..128 {
            sum += data.read(env, next + i);
        }

        // And accumulates into a lock-protected global.
        env.acquire(&lock);
        let t = total.read(env, 0);
        total.write(env, 0, t + sum);
        env.release(&lock);
        env.barrier();
    });

    let expect: f64 = (0..1024).map(|i| i as f64).sum();
    assert_eq!(machine.peek(&total, 0), expect);

    println!("All 8 processors summed the shared array: {expect}");
    println!("\nRun report:\n{report}");
    let metrics = report.metrics.as_ref().expect("observability is on");
    println!("\nProtocol activity:\n{metrics}");
}
