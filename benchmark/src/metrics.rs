//! The metric tables — what `BENCHMARK.json` lists, by the same names —
//! and how each value is computed from repetitions, unit costs and
//! counts. `README.md` defines every metric in prose.

use crate::parent::Rep;
use crate::stats::median;
use crate::workloads::{App, Engine, Workload};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The metric's value for one repetition.
    pub of: fn(&Rep) -> f64,
}

/// The end-to-end metrics, all taken untraced as the median over
/// repetitions. None is ever 0 on a passing run.
///
/// Bounds are at least three times the widest run-to-run spread
/// (quartile distance over median, ten seeds) seen on the 2-core
/// container the benchmark was defined on: host-time metrics spread 2
/// to 9 % there (13 % through a noisy spell), simulated time 0.7 to
/// 2.7 %, peak RSS under 2 %. The issue asked for 10 % and 5 %; this
/// host cannot resolve those.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        of: Rep::wall_s,
    },
    EndToEnd {
        name: "sim_mcycles_per_host_s",
        unit: "Mcycles/s",
        better: Higher,
        bound: 0.25,
        of: |r| r.sum("duration") / 1e6 / r.wall_s(),
    },
    EndToEnd {
        name: "host_ns_per_access",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        of: |r| r.wall_s() * 1e9 / r.sum("accesses"),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        of: |r| r.peak_rss_kb / 1024.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        of: Rep::setup_s,
    },
    EndToEnd {
        name: "sim_duration_mcycles",
        unit: "Mcycles",
        better: Lower,
        bound: 0.10,
        of: |r| r.sum("duration") / 1e6,
    },
];

/// Layers are the crates.
pub const LAYERS: [&str; 8] = ["core", "cache", "vm", "proto", "net", "sync", "sim", "obs"];

/// Per-layer metrics other than the unit costs (those are named by
/// `drivers::DRIVERS`), the per-layer budget and the per-application
/// rows, which are generated.
const COUNTS: &[(&str, &str, Better)] = &[
    ("core.accesses", "count", Lower),
    ("core.loads", "count", Lower),
    ("core.stores", "count", Lower),
    ("core.table3_max_err_pct", "%", Lower),
    ("cache.hit_ratio", "ratio", Higher),
    ("cache.miss_local", "count", Lower),
    ("cache.miss_remote", "count", Lower),
    ("cache.miss_2party", "count", Lower),
    ("cache.miss_3party", "count", Lower),
    ("cache.miss_swdir", "count", Lower),
    ("vm.tlb_hit_ratio", "ratio", Higher),
    ("vm.tlb_shootdowns", "count", Lower),
    ("vm.twin_pool_reuse_ratio", "ratio", Higher),
    ("proto.tlb_fills", "count", Lower),
    ("proto.read_misses", "count", Lower),
    ("proto.write_misses", "count", Lower),
    ("proto.upgrades", "count", Lower),
    ("proto.releases", "count", Lower),
    ("proto.single_writer_flushes", "count", Lower),
    ("proto.diffs", "count", Lower),
    ("proto.diff_words", "count", Lower),
    ("proto.invalidations", "count", Lower),
    ("proto.retries", "count", Lower),
    ("proto.xact_failures", "count", Lower),
    ("net.messages", "count", Lower),
    ("net.bytes", "count", Lower),
    ("net.msgs_per_kaccess", "msg/kaccess", Lower),
    ("sync.lock_acquires", "count", Lower),
    ("sync.lock_hit_ratio", "ratio", Higher),
    ("sync.barrier_arrivals", "count", Lower),
    ("sim.gov_gates", "count", Lower),
    ("sim.gov_parks", "count", Lower),
    ("sim.gov_wait_share", "ratio", Lower),
    ("obs.observe_overhead_ratio", "ratio", Lower),
    ("bench.verify_fail_ratio", "ratio", Lower),
    ("bench.unattributed_share", "ratio", Lower),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer_table() -> Vec<(String, &'static str, Better)> {
    let mut t: Vec<(String, &'static str, Better)> = crate::drivers::DRIVERS
        .iter()
        .map(|d| (d.name.to_string(), d.unit(), Lower))
        .collect();
    t.extend(COUNTS.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    for layer in LAYERS {
        t.push((format!("{layer}.est_busy_s"), "s", Lower));
        t.push((format!("{layer}.est_share"), "ratio", Lower));
    }
    for app in App::ALL {
        let a = app.name();
        t.push((format!("apps.{a}.execute_s"), "s", Lower));
        t.push((format!("apps.{a}.breakup_penalty"), "ratio", Lower));
        t.push((format!("apps.{a}.multigrain_potential"), "ratio", Higher));
    }
    t
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the per-layer numbers are computed from.
pub struct LayerInputs<'a> {
    pub workload: &'a Workload,
    /// The repetition run with `observe = true`.
    pub traced: &'a Rep,
    /// `wall_s` of each untraced repetition.
    pub untraced_walls: &'a [f64],
    /// Median unit cost by driver name, in the driver's unit.
    pub unit_costs: &'a BTreeMap<&'static str, f64>,
    pub host_cores: usize,
    pub table3_max_err_pct: f64,
    pub points_attempted: usize,
    pub points_failed: usize,
}

/// Estimated busy seconds per layer: counts of the traced repetition
/// times the unit costs. An estimate from outside, not self time: a
/// unit cost is measured uncontended on a warm cache, `proto`'s costs
/// include the `vm`, `cache` and `sim` calls the protocol makes (so
/// those layers' lines count only what happens outside protocol
/// calls), and waiting is in no line at all.
fn budget(inp: &LayerInputs) -> [f64; 8] {
    let r = inp.traced;
    let ns = |name: &str| inp.unit_costs.get(name).copied().unwrap_or(0.0);
    let accesses = r.sum("accesses");
    let hits = r.sum("cache_hits");

    // One processor's spawn and join, from the empty P = 512 run.
    let spawn_join_ns = ns("core.run_empty_p512_ms") * 1e6 / 512.0;
    let env_self_ns =
        (ns("core.env_read_hot_ns") - ns("cache.access_hit_ns") - 2.0 * ns("sim.clock_charge_ns"))
            .max(0.0);
    let core = accesses * env_self_ns + r.sum("p") * spawn_join_ns;
    let cache = hits * ns("cache.access_hit_ns") + (accesses - hits) * ns("cache.access_miss_ns");
    let vm = (r.sum("tlb_hits") + r.sum("tlb_misses")) * ns("vm.tlb_lookup_hit_ns");
    let proto = 1e3
        * (r.sum("read_misses") * ns("proto.read_fault_us")
            + (r.sum("write_misses") + r.sum("upgrades")) * ns("proto.write_fault_us")
            + r.sum("single_writer_flushes") * ns("proto.release_1w_us")
            // The driver's release merges two diffs.
            + r.sum("diffs") / 2.0 * ns("proto.release_diff_us"));
    let net = r.sum("messages") * ns("net.send_fixed_ns");
    let sync = r.sum("lock_hits") * ns("sync.lock_local_ns")
        + (r.sum("lock_acquires") - r.sum("lock_hits")) * ns("sync.lock_remote_ns")
        + r.sum("hwlock_acquires") * ns("sync.hwlock_ns")
        // A round of the two-thread driver is two arrivals.
        + r.sum("barrier_arrivals") / 2.0 * ns("sync.barrier_2t_us") * 1e3;
    let (gates, parks) = (r.sum("gov_gates"), r.sum("gov_parks"));
    let pacing_us = match inp.workload.engine {
        // A round of the gate driver is two gates that spin. A gate
        // that parks is a sleep and a wake-up through the kernel
        // instead, which is what a scheduler switch is made of.
        Engine::Threaded => {
            (gates - parks) / 2.0 * ns("sim.gate_advance_2t_us")
                + parks * ns("sim.vsched_switch_us")
        }
        Engine::Virtual { .. } => gates * ns("sim.vsched_switch_us"),
    };
    // Two charges per access: translation and the hardware stall.
    let sim = accesses * 2.0 * ns("sim.clock_charge_ns") + pacing_us * 1e3;
    // Two counters per access: load or store, and the miss class.
    let obs = accesses * 2.0 * ns("obs.count_ns")
        + r.sum("obs_proto_events") * ns("obs.profiler_record_ns");
    [core, cache, vm, proto, net, sync, sim, obs].map(|busy_ns| busy_ns / 1e9)
}

/// `(C = 1, C = P/2, C = P)` durations of `app` in a repetition, when
/// the workload sweeps all three.
fn sweep_ends(rep: &Rep, app: App) -> Option<(f64, f64, f64)> {
    let at = |c: f64| {
        rep.points
            .iter()
            .find(|p| p.id.starts_with(app.name()) && p.get("c") == c)
            .map(|p| p.get("duration"))
    };
    let p = rep
        .points
        .iter()
        .find(|p| p.id.starts_with(app.name()))?
        .get("p");
    Some((at(1.0)?, at(p / 2.0)?, at(p)?))
}

/// Every per-layer metric's value, in `per_layer_table` order.
pub fn per_layer(inp: &LayerInputs) -> Vec<(String, &'static str, f64)> {
    let r = inp.traced;
    let accesses = r.sum("accesses");
    let traced_wall = r.wall_s();
    let mut v: BTreeMap<String, f64> = inp
        .unit_costs
        .iter()
        .map(|(k, c)| (k.to_string(), *c))
        .collect();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };

    set("core.accesses", accesses);
    set("core.loads", r.sum("loads"));
    set("core.stores", r.sum("stores"));
    set("core.table3_max_err_pct", inp.table3_max_err_pct);
    set("cache.hit_ratio", ratio(r.sum("cache_hits"), accesses));
    for class in [
        "miss_local",
        "miss_remote",
        "miss_2party",
        "miss_3party",
        "miss_swdir",
    ] {
        set(&format!("cache.{class}"), r.sum(class));
    }
    let tlb_lookups = r.sum("tlb_hits") + r.sum("tlb_misses");
    set("vm.tlb_hit_ratio", ratio(r.sum("tlb_hits"), tlb_lookups));
    set("vm.tlb_shootdowns", r.sum("tlb_shootdowns"));
    let twins = r.sum("twin_allocated") + r.sum("twin_reused");
    set(
        "vm.twin_pool_reuse_ratio",
        ratio(r.sum("twin_reused"), twins),
    );
    for count in [
        "tlb_fills",
        "read_misses",
        "write_misses",
        "upgrades",
        "releases",
        "single_writer_flushes",
        "diffs",
        "diff_words",
        "invalidations",
        "retries",
        "xact_failures",
    ] {
        set(&format!("proto.{count}"), r.sum(count));
    }
    set("net.messages", r.sum("messages"));
    set("net.bytes", r.sum("bytes"));
    set(
        "net.msgs_per_kaccess",
        ratio(r.sum("messages") * 1e3, accesses),
    );
    set("sync.lock_acquires", r.sum("lock_acquires"));
    set(
        "sync.lock_hit_ratio",
        ratio(r.sum("lock_hits"), r.sum("lock_acquires")),
    );
    set("sync.barrier_arrivals", r.sum("barrier_arrivals"));
    set("sim.gov_gates", r.sum("gov_gates"));
    set("sim.gov_parks", r.sum("gov_parks"));
    // Wait per simulated processor over the wall time it could wait in.
    let proc_seconds: f64 = r.points.iter().map(|p| p.get("p") * p.exec_s()).sum();
    set(
        "sim.gov_wait_share",
        ratio(r.sum("gov_wait_ns") / 1e9, proc_seconds),
    );
    let untraced = if inp.untraced_walls.is_empty() {
        traced_wall
    } else {
        median(inp.untraced_walls)
    };
    set(
        "obs.observe_overhead_ratio",
        ratio(traced_wall, untraced) - 1.0,
    );
    set(
        "bench.verify_fail_ratio",
        ratio(inp.points_failed as f64, inp.points_attempted as f64),
    );

    // The cores the engine can keep busy at once.
    let parallel = match inp.workload.engine {
        Engine::Threaded => inp.workload.points.iter().map(|p| p.p).max().unwrap_or(1),
        Engine::Virtual { workers } => workers,
    }
    .min(inp.host_cores);
    let core_seconds = traced_wall * parallel as f64;
    let mut attributed = 0.0;
    for (layer, busy) in LAYERS.iter().zip(budget(inp)) {
        set(&format!("{layer}.est_busy_s"), busy);
        set(&format!("{layer}.est_share"), ratio(busy, core_seconds));
        attributed += ratio(busy, core_seconds);
    }
    set("bench.unattributed_share", 1.0 - attributed);

    for app in App::ALL {
        let a = app.name();
        // `+ 0.0`: an empty float sum is -0.0.
        let exec = r
            .points
            .iter()
            .filter(|p| p.id.starts_with(a))
            .map(|p| p.exec_s())
            .sum::<f64>()
            + 0.0;
        set(&format!("apps.{a}.execute_s"), exec);
        // The paper's framework (§2.4): what breaking the machine in
        // two costs, and what multiprocessor nodes gain over
        // uniprocessor ones. 0 where the workload has no full sweep.
        let (penalty, potential) = sweep_ends(r, app)
            .map(|(one, half, full)| ((half - full) / full, (one - half) / one))
            .unwrap_or((0.0, 0.0));
        set(&format!("apps.{a}.breakup_penalty"), penalty);
        set(&format!("apps.{a}.multigrain_potential"), potential);
    }

    per_layer_table()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            (name, unit, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn names_of(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the program prints. They must say the same.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses");

        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(names_of(&doc, "end_to_end"), want);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );

        let want: Vec<_> = per_layer_table()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.label().to_string()))
            .collect();
        assert_eq!(names_of(&doc, "per_layer"), want);

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = crate::workloads::NAMES
            .iter()
            .map(|n| {
                let w = crate::workloads::workload(n, false).unwrap();
                (w.name.to_string(), w.why.to_string())
            })
            .collect();
        assert_eq!(workloads, want);
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let table = per_layer_table();
        assert!(table.len() <= 128, "{} per-layer metrics", table.len());
        let mut names: Vec<&str> = table.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok_name(n)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(table.iter().all(|(_, u, _)| ok_unit(u)));
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
