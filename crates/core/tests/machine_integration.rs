//! Cross-layer integration tests of the DSSMP machine.

use mgs_core::{AccessKind, CostCategory, Cycles, DssmpConfig, Machine};

/// Convenience: configs used repeatedly in tests.
trait DssmpConfigExt {
    fn quiet(self) -> DssmpConfig;
}
impl DssmpConfigExt for DssmpConfig {
    /// Zero LAN latency and no governor: fastest, deterministic-ish.
    fn quiet(mut self) -> DssmpConfig {
        self.governor_window = None;
        self
    }
}

#[test]
fn single_processor_machine_runs() {
    let machine = Machine::new(DssmpConfig::new(1, 1));
    let a = machine.alloc_array::<u64>(4, AccessKind::DistArray);
    let report = machine.run(|env| {
        a.write(env, 0, 7);
        assert_eq!(a.read(env, 0), 7);
    });
    assert!(report.duration.raw() > 0);
}

#[test]
fn shared_writes_visible_after_barrier_at_every_cluster_size() {
    for c in [1usize, 2, 4, 8] {
        let machine = Machine::new(DssmpConfig::new(8, c).quiet());
        let a = machine.alloc_array::<u64>(8, AccessKind::DistArray);
        machine.run(|env| {
            let pid = env.pid() as u64;
            a.write(env, pid, pid * pid);
            env.barrier();
            let mut sum = 0;
            for i in 0..8 {
                sum += a.read(env, i);
            }
            assert_eq!(sum, (0..8).map(|i| i * i).sum::<u64>(), "C = {c}");
        });
    }
}

#[test]
fn false_sharing_on_one_page_still_merges_correctly() {
    // 8 processors write adjacent words of the same 1 KB page from 4
    // different SSMPs: classic false sharing. The multiple-writer
    // protocol must merge all updates.
    let machine = Machine::new(DssmpConfig::new(8, 2).quiet());
    let a = machine.alloc_array_pages::<u64>(8, AccessKind::DistArray);
    machine.run(|env| {
        let pid = env.pid() as u64;
        a.write(env, pid, 100 + pid);
        env.barrier();
        for i in 0..8 {
            assert_eq!(a.read(env, i), 100 + i);
        }
    });
}

#[test]
fn lock_protected_counter_is_exact() {
    let machine = Machine::new(DssmpConfig::new(8, 4).quiet());
    let counter = machine.alloc_array::<u64>(1, AccessKind::Pointer);
    let lock = machine.new_lock();
    let report = machine.run(|env| {
        for _ in 0..20 {
            env.acquire(&lock);
            let v = counter.read(env, 0);
            counter.write(env, 0, v + 1);
            env.release(&lock);
        }
        env.barrier();
        assert_eq!(counter.read(env, 0), 160);
    });
    assert_eq!(report.lock_acquires, 160);
    assert!(report.breakdown.get(CostCategory::Lock).raw() > 0);
}

#[test]
fn producer_consumer_through_lock() {
    let machine = Machine::new(DssmpConfig::new(4, 2).quiet());
    let slot = machine.alloc_array::<u64>(2, AccessKind::Pointer);
    let lock = machine.new_lock();
    machine.run(|env| {
        if env.pid() == 0 {
            env.acquire(&lock);
            slot.write(env, 0, 42);
            slot.write(env, 1, 1); // ready flag
            env.release(&lock);
        }
        loop {
            env.acquire(&lock);
            let ready = slot.read(env, 1);
            let val = slot.read(env, 0);
            env.release(&lock);
            if ready == 1 {
                assert_eq!(val, 42);
                break;
            }
            env.compute(1000);
        }
    });
}

#[test]
fn tightly_coupled_machine_has_no_mgs_time() {
    let machine = Machine::new(DssmpConfig::new(4, 4).quiet());
    let a = machine.alloc_array::<u64>(1024, AccessKind::DistArray);
    let lock = machine.new_lock();
    let report = machine.run(|env| {
        for i in 0..256 {
            a.write(env, (env.pid() as u64 * 256 + i) % 1024, i);
        }
        env.acquire(&lock);
        env.release(&lock);
        env.barrier();
    });
    assert_eq!(report.breakdown.get(CostCategory::Mgs), Cycles::ZERO);
    assert!(report.breakdown.get(CostCategory::User).raw() > 0);
}

#[test]
fn clustered_machine_reports_mgs_time() {
    let machine = Machine::new(DssmpConfig::new(4, 1).quiet());
    let a = machine.alloc_array::<u64>(1024, AccessKind::DistArray);
    let report = machine.run(|env| {
        let pid = env.pid() as u64;
        for i in 0..256 {
            a.write(env, pid * 256 + i, i);
        }
        env.barrier();
        // Read a stripe written by the next processor over.
        let next = (pid + 1) % 4;
        for i in 0..256 {
            assert_eq!(a.read(env, next * 256 + i), i);
        }
        env.barrier();
    });
    assert!(report.breakdown.get(CostCategory::Mgs).raw() > 0);
}

#[test]
fn smaller_clusters_cost_more_on_fine_grain_sharing() {
    let time_at = |c: usize| {
        let machine = Machine::new(DssmpConfig::new(8, c).quiet());
        let a = machine.alloc_array_pages::<u64>(128, AccessKind::DistArray);
        machine
            .run(|env| {
                let pid = env.pid() as u64;
                env.start_measurement();
                for round in 0..10 {
                    for i in 0..16 {
                        a.write(env, pid * 16 + i, round);
                    }
                    env.barrier();
                }
            })
            .duration
    };
    let t1 = time_at(1);
    let t8 = time_at(8);
    assert!(
        t1 > t8 * 2,
        "uniprocessor nodes ({t1:?}) should be much slower than tightly coupled ({t8:?})"
    );
}

#[test]
fn governor_does_not_change_results() {
    let run_with = |window: Option<Cycles>| {
        let mut cfg = DssmpConfig::new(8, 2);
        cfg.governor_window = window;
        let machine = Machine::new(cfg);
        let a = machine.alloc_array::<u64>(64, AccessKind::DistArray);
        machine.run(|env| {
            let pid = env.pid() as u64;
            for i in 0..8 {
                a.write(env, pid * 8 + i, pid + i);
            }
            env.barrier();
            let mut sum = 0u64;
            for i in 0..64 {
                sum += a.read(env, i);
            }
            assert_eq!(
                sum,
                (0..8u64).map(|p| (0..8).map(|i| p + i).sum::<u64>()).sum()
            );
        })
    };
    run_with(Some(Cycles(10_000)));
    run_with(None);
}

#[test]
fn start_measurement_excludes_initialization() {
    let machine = Machine::new(DssmpConfig::new(4, 2).quiet());
    let a = machine.alloc_array::<u64>(4096, AccessKind::DistArray);
    let report = machine.run(|env| {
        if env.pid() == 0 {
            for i in 0..4096 {
                a.write(env, i, i);
            }
        }
        env.barrier();
        env.start_measurement();
        env.compute(500);
        env.barrier();
    });
    // The measured region is tiny compared to initialization.
    assert!(report.duration < Cycles(10_000_000));
    assert!(report.breakdown.get(CostCategory::User) <= Cycles(501));
}

#[test]
fn per_proc_accounts_match_processor_count() {
    let machine = Machine::new(DssmpConfig::new(8, 2).quiet());
    let report = machine.run(|env| env.compute(100));
    assert_eq!(report.per_proc.len(), 8);
}

#[test]
fn ext_latency_slows_clustered_machines_only() {
    let time = |c: usize, ext: u64| {
        let mut cfg = DssmpConfig::new(8, c).with_ext_latency(Cycles(ext));
        cfg.governor_window = None;
        let machine = Machine::new(cfg);
        let a = machine.alloc_array_pages::<u64>(128, AccessKind::DistArray);
        machine
            .run(|env| {
                let pid = env.pid() as u64;
                for r in 0..5 {
                    a.write(env, pid * 16, r);
                    env.barrier();
                }
            })
            .duration
    };
    assert!(time(1, 10_000) > time(1, 0), "latency must matter at C = 1");
    assert_eq!(time(8, 10_000), time(8, 0), "no LAN exists at C = P");
}
