//! Machine-readable harness output (hand-rolled JSON; the build
//! environment is offline, so no serde), for downstream plotting of the
//! regenerated figures and for the benchmark history files.

use mgs_core::framework::{FrameworkMetrics, SweepPoint};
use mgs_core::CostCategory;
use std::fmt::Write as _;

/// One application's sweep plus its framework metrics, as the object
/// `summary --json` writes per application.
pub fn sweep_json(app: &str, p: usize, points: &[SweepPoint], m: &FrameworkMetrics) -> JsonObject {
    let points = points
        .iter()
        .map(|pt| {
            let mut o = JsonObject::new();
            o.num("cluster_size", pt.cluster_size as f64)
                .num("duration_cycles", pt.report.duration.raw() as f64);
            for (key, cat) in [
                ("user", CostCategory::User),
                ("lock", CostCategory::Lock),
                ("barrier", CostCategory::Barrier),
                ("mgs", CostCategory::Mgs),
            ] {
                o.num(key, pt.report.breakdown.get(cat).raw() as f64);
            }
            o.num("lock_hit_ratio", pt.lock_hit_ratio)
                .num("lan_messages", pt.report.lan_messages as f64)
                .num("lan_bytes", pt.report.lan_bytes as f64);
            o
        })
        .collect();
    let mut root = JsonObject::new();
    root.str("app", app)
        .num("p", p as f64)
        .array("points", points)
        .num("breakup_penalty", m.breakup_penalty)
        .num("multigrain_potential", m.multigrain_potential)
        .str("curvature", &m.curvature.to_string())
        .num("curvature_value", m.curvature_value);
    root
}

/// A minimal ordered JSON object builder (numbers, strings, and arrays
/// of objects — everything the harness emits).
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

#[derive(Debug)]
enum JsonValue {
    Num(f64),
    Str(String),
    Array(Vec<JsonObject>),
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Appends a numeric field. Integral values are rendered without a
    /// decimal point; non-finite values render as `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_string(), JsonValue::Num(value)));
        self
    }

    /// Appends a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonValue::Str(value.to_string())));
        self
    }

    /// Appends an array-of-objects field.
    pub fn array(&mut self, key: &str, values: Vec<JsonObject>) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonValue::Array(values)));
        self
    }

    /// Renders the object pretty-printed at the given indent level.
    pub fn render(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent + 1);
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n{pad}\"{}\": ", escape(k));
            match v {
                JsonValue::Num(n) => s.push_str(&render_num(*n)),
                JsonValue::Str(v) => {
                    let _ = write!(s, "\"{}\"", escape(v));
                }
                JsonValue::Array(items) => {
                    s.push('[');
                    for (j, item) in items.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "\n{pad}  {}", item.render(indent + 2));
                    }
                    if items.is_empty() {
                        s.push(']');
                    } else {
                        let _ = write!(s, "\n{pad}]");
                    }
                }
            }
        }
        let _ = write!(s, "\n{}}}", "  ".repeat(indent));
        s
    }
}

fn render_num(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgs_core::framework::{metrics, SweepPoint};
    use mgs_core::{CycleAccount, Cycles, RunReport};

    fn point(c: usize, cycles: u64) -> SweepPoint {
        let mut breakdown = CycleAccount::new();
        breakdown.record(CostCategory::User, Cycles(cycles));
        SweepPoint {
            cluster_size: c,
            report: RunReport {
                per_proc: vec![],
                duration: Cycles(cycles),
                breakdown,
                lock_acquires: 0,
                lock_hits: 0,
                lan_messages: 5,
                lan_bytes: 1024,
                lan_drops: 0,
                lan_duplicates: 0,
                retries: 0,
                churn_departs: 0,
                churn_rejoins: 0,
                rehomed_pages: 0,
                metrics: None,
                policy_decisions: Vec::new(),
            },
            lock_hit_ratio: 0.5,
        }
    }

    #[test]
    fn serializes_a_sweep() {
        let pts = vec![point(1, 400), point(2, 300), point(4, 200), point(8, 100)];
        let m = metrics(&pts);
        let s = sweep_json("demo", 8, &pts, &m).render(0);
        assert!(s.contains("\"app\": \"demo\""));
        assert!(s.contains("\"cluster_size\": 8"));
        assert!(s.contains("breakup_penalty"));
        assert!(s.contains("\"lan_bytes\": 1024"));
    }

    #[test]
    fn escapes_strings() {
        let mut o = JsonObject::new();
        o.str("k", "a\"b\\c\nd");
        assert_eq!(o.render(0), "{\n  \"k\": \"a\\\"b\\\\c\\nd\"\n}");
    }

    #[test]
    fn renders_integers_without_fraction() {
        assert_eq!(render_num(5.0), "5");
        assert_eq!(render_num(0.5), "0.5");
        assert_eq!(render_num(f64::NAN), "null");
    }
}
