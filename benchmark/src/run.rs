//! One run of one workload: warm-up, repetitions in child processes,
//! the traced repetition and unit-cost drivers when asked for, and the
//! result in the three shapes it is consumed in (the contract's JSON
//! line, the provenance file, the table for people).

use crate::drivers::{Ctx, DRIVERS};
use crate::json::{obj, Json};
use crate::metrics::{per_layer, LayerInputs, END_TO_END};
use crate::parent::{run_rep, Exit, Rep};
use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, percentile};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long to keep starting untraced repetitions.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Untraced repetitions an end-to-end median rests on, at least.
const MIN_REPS: usize = 5;
/// With `--trace 1` the untraced repetitions only base the overhead
/// ratio and the budget's wall time.
const MIN_REPS_TRACED: usize = 3;
/// A repetition takes about two seconds; one that takes this long hangs.
const REP_DEADLINE: Duration = Duration::from_secs(60);

/// One driver's samples, reduced.
#[derive(Debug, Clone)]
pub struct UnitCost {
    pub name: &'static str,
    pub unit: &'static str,
    pub median: f64,
    pub p99: f64,
    pub samples: usize,
}

/// Runs every unit-cost driver once, each inside its own span.
pub fn unit_costs(ctx: &Ctx, spans: &mut SpanLog, parent: Option<SpanId>) -> Vec<UnitCost> {
    let group = spans.open("bench.drivers", parent);
    let costs = DRIVERS
        .iter()
        .map(|d| {
            let span = spans.open(&format!("driver.{}", d.name), Some(group));
            let samples = (d.run)(ctx);
            spans.close(span);
            UnitCost {
                name: d.name,
                unit: d.unit(),
                median: median(&samples),
                p99: percentile(&samples, 99.0),
                samples: samples.len(),
            }
        })
        .collect();
    spans.close(group);
    costs
}

/// Largest relative error of the Table 3 micro-measurements against
/// the paper's, in percent. The repo holds the paper's Table 3 as its
/// only reference at these problem sizes, so this is the accuracy
/// figure; it is deterministic and 0 at the commit that defined the
/// benchmark.
pub fn table3_max_err_pct() -> f64 {
    mgs_repro::core::micro::run_all()
        .iter()
        .map(|row| row.error_pct().abs())
        .fold(0.0, f64::max)
}

pub struct Outcome {
    pub workload: Workload,
    pub opts: Options,
    /// Discarded for timing; its failures still count.
    pub warmup: Option<Rep>,
    pub traced: Option<Rep>,
    pub reps: Vec<Rep>,
    pub unit_costs: Vec<UnitCost>,
    /// Only `paper_sweep_p32` measures it.
    pub table3_max_err_pct: Option<f64>,
    pub spans: SpanLog,
    pub host_cores: usize,
}

/// Places a finished repetition's spans: the child's offsets from its
/// own start, shifted to the parent's spawn instant. The child starts
/// after the spawn and is reaped after it ends, so its spans fall
/// inside `bench.rep`.
fn add_rep_spans(spans: &mut SpanLog, root: SpanId, rep: &Rep) {
    let spawned = spans.at_us(rep.spawned);
    let label = if rep.observe {
        "bench.rep.traced"
    } else {
        "bench.rep"
    };
    let rep_span = spans.add(label, spawned, spans.at_us(rep.reaped), Some(root));
    for p in &rep.points {
        let at = |k: &str| spawned + p.get(k);
        let point = spans.add(
            &format!("bench.point {}", p.id),
            at("t_new_us"),
            at("t_end_us"),
            Some(rep_span),
        );
        spans.add(
            "core.machine_new",
            at("t_new_us"),
            at("t_exec_us"),
            Some(point),
        );
        spans.add(
            "apps.execute",
            at("t_exec_us"),
            at("t_collect_us"),
            Some(point),
        );
        spans.add(
            "bench.collect",
            at("t_collect_us"),
            at("t_end_us"),
            Some(point),
        );
    }
}

/// Runs `workload` as `opts` says. `shared_costs` carries unit costs
/// already measured in this process (they do not depend on the
/// workload).
pub fn run(workload: Workload, opts: Options, shared_costs: Option<&[UnitCost]>) -> Outcome {
    let started = Instant::now();
    let mut spans = SpanLog::new();
    let root = spans.open(&format!("bench.workload {}", workload.name), None);
    let rep = |observe: bool| run_rep(&workload, opts.seed, observe, opts.smoke, REP_DEADLINE);

    let unit_costs = match (opts.trace, shared_costs) {
        (false, _) => Vec::new(),
        (true, Some(costs)) => costs.to_vec(),
        (true, None) => {
            let ctx = Ctx {
                seed: opts.seed,
                quick: opts.smoke,
            };
            unit_costs(&ctx, &mut spans, Some(root))
        }
    };
    let table3 = (workload.name == "paper_sweep_p32").then(|| {
        let span = spans.open("core.micro_table3", Some(root));
        let err = table3_max_err_pct();
        spans.close(span);
        err
    });

    // The host settles into its loaded state (clock speed, which cores
    // are awake) a second or two into a run, and the simulator's
    // schedule-sensitive results move with it: the first repetition
    // after an idle spell reads differently from all later ones.
    let warmup = (!opts.smoke).then(|| rep(false));
    let hung = |r: &Rep| r.exit == Exit::TimedOut;
    let mut stop = warmup.as_ref().is_some_and(hung);

    let traced = (opts.trace && !stop).then(|| rep(true));
    stop |= traced.as_ref().is_some_and(hung);

    let (min_reps, max_reps) = match (opts.smoke, opts.trace) {
        (true, _) => (1, 1),
        (false, true) => (MIN_REPS_TRACED, 64),
        (false, false) => (MIN_REPS, 64),
    };
    // `--seconds` covers what the run measures: untraced, the
    // repetitions after the warm-up; traced, the drivers and the traced
    // repetition as well.
    let measuring = if opts.trace { started } else { Instant::now() };
    let mut reps = Vec::new();
    while !stop
        && reps.len() < max_reps
        && (reps.len() < min_reps || measuring.elapsed().as_secs_f64() < opts.seconds)
    {
        let r = rep(false);
        // One hang is reported; a second would only be waited for.
        stop = hung(&r);
        reps.push(r);
    }

    for r in warmup.iter().chain(&traced).chain(&reps) {
        add_rep_spans(&mut spans, root, r);
    }
    spans.close(root);
    Outcome {
        workload,
        opts,
        warmup,
        traced,
        reps,
        unit_costs,
        table3_max_err_pct: table3,
        spans,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

impl Outcome {
    fn all_reps(&self) -> impl Iterator<Item = &Rep> {
        self.warmup.iter().chain(&self.traced).chain(&self.reps)
    }

    pub fn attempted(&self) -> usize {
        self.all_reps().map(|r| r.planned).sum()
    }

    pub fn failed(&self) -> usize {
        self.all_reps().map(Rep::failed).sum()
    }

    /// What went wrong, one line each, naming the point of a hang.
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self.all_reps().filter_map(Rep::problem).collect();
        if let Some(err) = self.table3_max_err_pct.filter(|e| *e != 0.0) {
            out.push(format!(
                "Table 3 micro-measurements are off the paper's by up to {err}%"
            ));
        }
        if let Err(e) = self.spans.check_nesting() {
            out.push(format!("spans do not nest: {e}"));
        }
        if self.reps.is_empty() {
            out.push("no untraced repetition ran".to_string());
        }
        out
    }

    pub fn correct(&self) -> bool {
        self.problems().is_empty()
    }

    /// Each end-to-end metric: the median over the untraced repetitions
    /// that finished, and the per-repetition values it is the median of.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64, Vec<f64>)> {
        let complete: Vec<&Rep> = self.reps.iter().filter(|r| r.exit == Exit::Clean).collect();
        END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = complete.iter().map(|r| (m.of)(r)).collect();
                // A run with no finished repetition has failed and says
                // so; the value only has to be a number.
                let mid = if values.is_empty() {
                    0.0
                } else {
                    median(&values)
                };
                (m.name, m.unit, mid, values)
            })
            .collect()
    }

    pub fn per_layer(&self) -> Vec<(String, &'static str, f64)> {
        let traced = self
            .traced
            .as_ref()
            .expect("per-layer metrics need the traced repetition");
        let costs: BTreeMap<&'static str, f64> =
            self.unit_costs.iter().map(|c| (c.name, c.median)).collect();
        let walls: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| r.exit == Exit::Clean)
            .map(Rep::wall_s)
            .collect();
        per_layer(&LayerInputs {
            workload: &self.workload,
            traced,
            untraced_walls: &walls,
            unit_costs: &costs,
            host_cores: self.host_cores,
            table3_max_err_pct: self.table3_max_err_pct.unwrap_or(0.0),
            points_attempted: self.attempted(),
            points_failed: self.failed(),
        })
    }

    /// The metrics this run reports: end-to-end untraced, per-layer
    /// traced.
    fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        if self.traced.is_some() {
            self.per_layer()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(name, unit, value, _)| (name.to_string(), unit, value))
                .collect()
        }
    }

    /// The line the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        let metrics = self.metrics().into_iter().map(|(name, unit, value)| {
            (
                name,
                obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
            )
        });
        obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted().max(1))),
            ("failed", Json::from(self.failed())),
            ("metrics", obj(metrics)),
        ])
    }

    /// Everything about the run, for `out/`: provenance, medians beside
    /// the raw per-repetition values, unit costs with p99 and sample
    /// counts.
    pub fn report(&self, provenance: &Json) -> Json {
        let end_to_end = self
            .end_to_end()
            .into_iter()
            .map(|(name, unit, mid, values)| {
                (
                    name,
                    obj([
                        ("median", Json::from(mid)),
                        ("unit", Json::from(unit)),
                        (
                            "per_rep",
                            Json::Arr(values.into_iter().map(Json::from).collect()),
                        ),
                    ]),
                )
            });
        let mut members = vec![
            ("workload", Json::from(self.workload.name)),
            ("why", Json::from(self.workload.why)),
            ("provenance", provenance.clone()),
            ("seed", Json::from(self.opts.seed)),
            ("smoke", Json::from(self.opts.smoke)),
            ("engine", Json::from(self.workload.engine.label())),
            (
                "virtual_workers",
                Json::from(self.workload.engine.workers()),
            ),
            (
                "points",
                Json::Arr(
                    self.workload
                        .points
                        .iter()
                        .map(|p| Json::from(p.id()))
                        .collect(),
                ),
            ),
            ("untraced_reps", Json::from(self.reps.len())),
            ("warmup_reps", Json::from(self.warmup.iter().count())),
            ("points_attempted", Json::from(self.attempted())),
            ("points_failed", Json::from(self.failed())),
            ("correct", Json::from(self.correct())),
            (
                "problems",
                Json::Arr(self.problems().into_iter().map(Json::from).collect()),
            ),
            ("end_to_end", obj(end_to_end)),
        ];
        if let Some(err) = self.table3_max_err_pct {
            members.push(("table3_max_err_pct", Json::from(err)));
        }
        if self.traced.is_some() {
            let layers = self.per_layer().into_iter().map(|(name, unit, value)| {
                (
                    name,
                    obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            });
            members.push(("per_layer", obj(layers)));
            let costs = self.unit_costs.iter().map(|c| {
                (
                    c.name,
                    obj([
                        ("median", Json::from(c.median)),
                        ("p99", Json::from(c.p99)),
                        ("unit", Json::from(c.unit)),
                        ("samples", Json::from(c.samples)),
                    ]),
                )
            });
            members.push(("unit_costs", obj(costs)));
        }
        obj(members)
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        let w = &self.workload;
        println!(
            "== {} (seed {}, {} engine{}, {} points, {} untraced reps{})",
            w.name,
            self.opts.seed,
            w.engine.label(),
            match w.engine.workers() {
                0 => String::new(),
                n => format!(" W={n}"),
            },
            w.points.len(),
            self.reps.len(),
            if self.traced.is_some() {
                " + 1 traced"
            } else {
                ""
            },
        );
        for (name, unit, mid, values) in self.end_to_end() {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            println!(
                "  {name:<28} {mid:>14.6} {unit:<10} [{lo:.6} .. {hi:.6}] over {} reps",
                values.len()
            );
        }
        println!(
            "  {:<28} {:>14.6} {:<10} ({} of {} points)",
            "verify_fail_ratio",
            self.failed() as f64 / self.attempted().max(1) as f64,
            "ratio",
            self.failed(),
            self.attempted()
        );
        if let Some(err) = self.table3_max_err_pct {
            println!("  {:<28} {err:>14.6} {:<10}", "table3_max_err_pct", "%");
        }
        if self.traced.is_some() {
            for (name, unit, value) in self.per_layer() {
                println!("  {name:<36} {value:>16.6} {unit}");
            }
        }
        for p in self.problems() {
            println!("  PROBLEM: {p}");
        }
    }
}
