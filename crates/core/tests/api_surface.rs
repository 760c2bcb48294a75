//! Tests of the public API surface: allocation policies, peek/poke
//! instrumentation, the framework sweep helper, and reporting.

use mgs_core::{framework, AccessKind, CostCategory, Cycles, DssmpConfig, Machine};

fn quiet(p: usize, c: usize) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(p, c);
    cfg.governor_window = None;
    cfg
}

#[test]
fn framework_sweep_runs_every_power_of_two() {
    let points = framework::sweep_with(&quiet(8, 1), |machine| {
        let arr = machine.alloc_array::<u64>(64, AccessKind::DistArray);
        machine.run(|env| {
            let pid = env.pid() as u64;
            arr.write(env, pid, pid);
            env.barrier();
            let _ = arr.read(env, (pid + 1) % 8);
        })
    });
    let sizes: Vec<usize> = points.iter().map(|p| p.cluster_size).collect();
    assert_eq!(sizes, vec![1, 2, 4, 8]);
    let m = framework::metrics(&points);
    assert!(m.breakup_penalty.is_finite());
}

#[test]
fn poke_then_peek_roundtrips_without_timing() {
    let machine = Machine::new(quiet(4, 2));
    let arr = machine.alloc_array::<f64>(16, AccessKind::DistArray);
    machine.poke(&arr, 3, 1.25);
    assert_eq!(machine.peek(&arr, 3), 1.25);
    // No simulated work happened.
    let report = machine.run(|_env| {});
    assert_eq!(report.duration, Cycles::ZERO);
}

#[test]
fn blocked_allocation_homes_pages_at_block_owners() {
    let machine = Machine::new(quiet(4, 1));
    // 4 pages (512 u64 = 4 KB): page i should be homed at processor i.
    let arr = machine.alloc_array_blocked::<u64>(512, AccessKind::DistArray);
    let geom = machine.config().geometry;
    let proto = machine.protocol();
    for i in 0..4u64 {
        let page = geom.page_of(arr.addr_of(i * 128));
        assert_eq!(proto.home_node(page), i as usize, "page {i}");
    }
}

#[test]
fn homed_allocation_uses_explicit_distribution() {
    let machine = Machine::new(quiet(4, 2));
    let arr = machine
        .alloc_array_homed::<u64>(256, AccessKind::Pointer, |page| (3 - page as usize).min(3));
    let geom = machine.config().geometry;
    let proto = machine.protocol();
    assert_eq!(proto.home_node(geom.page_of(arr.addr_of(0))), 3);
    assert_eq!(proto.home_node(geom.page_of(arr.addr_of(128))), 2);
}

#[test]
fn packed_allocations_share_pages() {
    let machine = Machine::new(quiet(2, 1));
    let a = machine.alloc_array::<u64>(3, AccessKind::Pointer);
    let b = machine.alloc_array::<u64>(3, AccessKind::Pointer);
    let geom = machine.config().geometry;
    assert_eq!(
        geom.page_of(a.addr_of(0)),
        geom.page_of(b.addr_of(0)),
        "small packed allocations should share a page (false sharing)"
    );
}

#[test]
fn run_report_counts_lan_traffic() {
    let machine = Machine::new(quiet(4, 1));
    let arr = machine.alloc_array_pages::<u64>(128, AccessKind::DistArray);
    let report = machine.run(|env| {
        if env.pid() == 3 {
            // Page 0 is homed at processor 0: a cross-SSMP fill.
            arr.write(env, 0, 1);
        }
        env.barrier();
    });
    assert!(
        report.lan_messages > 0,
        "cross-SSMP traffic must be counted"
    );
    assert!(report.lan_bytes >= 1024, "the page travelled at least once");
    let tight = Machine::new(quiet(4, 4));
    let arr2 = tight.alloc_array_pages::<u64>(128, AccessKind::DistArray);
    let report2 = tight.run(|env| {
        if env.pid() == 3 {
            arr2.write(env, 0, 1);
        }
        env.barrier();
    });
    assert_eq!(report2.lan_messages, 0, "no LAN inside one SSMP");
}

#[test]
fn hw_locks_provide_mutual_exclusion_and_no_mgs_time() {
    let machine = Machine::new(quiet(4, 4));
    let lock = machine.new_hw_lock();
    let counter = machine.alloc_array::<u64>(1, AccessKind::Pointer);
    let report = machine.run(|env| {
        for _ in 0..50 {
            env.acquire_hw(&lock);
            let v = counter.read(env, 0);
            counter.write(env, 0, v + 1);
            env.release_hw(&lock);
        }
    });
    assert_eq!(machine.peek(&counter, 0), 200);
    assert_eq!(report.breakdown.get(CostCategory::Mgs), Cycles::ZERO);
    assert!(report.breakdown.get(CostCategory::Lock).raw() > 0);
}

#[test]
fn word_types_roundtrip_through_shared_memory() {
    let machine = Machine::new(quiet(2, 2));
    let fs = machine.alloc_array::<f64>(2, AccessKind::DistArray);
    let is = machine.alloc_array::<i64>(2, AccessKind::DistArray);
    let us = machine.alloc_array::<usize>(2, AccessKind::DistArray);
    machine.run(|env| {
        if env.pid() == 0 {
            fs.write(env, 0, -2.5);
            is.write(env, 0, -42);
            us.write(env, 0, 7usize);
        }
        env.barrier();
        assert_eq!(fs.read(env, 0), -2.5);
        assert_eq!(is.read(env, 0), -42);
        assert_eq!(us.read(env, 0), 7usize);
    });
}

#[test]
fn trace_records_protocol_messages() {
    use mgs_core::ObsEvent;
    let mut cfg = quiet(4, 2);
    cfg.trace = true;
    let machine = Machine::new(cfg);
    let arr = machine.alloc_array_pages::<u64>(128, AccessKind::DistArray);
    machine.run(|env| {
        if env.pid() == 2 {
            arr.write(env, 0, 1); // cross-SSMP write fault
        }
        env.barrier();
    });
    let trace = machine.take_trace();
    assert!(!trace.is_empty());
    assert!(trace.iter().any(|e| matches!(
        e.event,
        ObsEvent::Message { from, to, .. } if from != to
    )));
    assert!(trace
        .iter()
        .any(|e| matches!(e.event, ObsEvent::NodeWork { .. })));
    // The requester-local charges are left out.
    assert!(!trace
        .iter()
        .any(|e| matches!(e.event, ObsEvent::Local { .. } | ObsEvent::WaitUntil { .. })));
    // Display is the processor and time, then the event.
    assert!(trace[0].to_string().starts_with("[p"));
    // Taking again yields nothing.
    assert!(machine.take_trace().is_empty());
}

#[test]
fn trace_is_empty_when_disabled() {
    let machine = Machine::new(quiet(4, 1));
    let arr = machine.alloc_array_pages::<u64>(128, AccessKind::DistArray);
    machine.run(|env| {
        arr.write(env, env.pid() as u64, 1);
        env.barrier();
    });
    assert!(machine.take_trace().is_empty());
}
