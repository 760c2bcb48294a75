//! The parent side of a repetition: start one child, read its lines,
//! enforce its deadline, and keep whatever it reported before it ended.

use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One finished point as the child reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    pub id: String,
    pub ok: bool,
    pub fields: BTreeMap<String, f64>,
}

impl PointRecord {
    pub fn get(&self, key: &str) -> f64 {
        self.fields.get(key).copied().unwrap_or(0.0)
    }

    /// Host seconds inside `MgsApp::execute`.
    pub fn exec_s(&self) -> f64 {
        (self.get("t_collect_us") - self.get("t_exec_us")) / 1e6
    }

    /// Host seconds inside `Machine::new`.
    pub fn new_s(&self) -> f64 {
        (self.get("t_exec_us") - self.get("t_new_us")) / 1e6
    }
}

/// A line of the child's protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    Ready,
    Begin { id: String },
    Point(PointRecord),
    Done { peak_rss_kb: f64 },
}

fn parse_fields<'a>(words: impl Iterator<Item = &'a str>) -> Result<BTreeMap<String, f64>, String> {
    words
        .map(|w| {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| format!("no '=' in {w:?}"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad number in {w:?}"))?;
            Ok((k.to_string(), v))
        })
        .collect()
}

/// Parses one protocol line. The child is this same binary, so a line
/// that does not parse is a bug, reported with the line.
pub fn parse_line(line: &str) -> Result<Line, String> {
    let mut words = line.split_ascii_whitespace();
    let bad = |why: String| format!("child line {line:?}: {why}");
    match words.next() {
        Some("ready") => Ok(Line::Ready),
        Some("begin") => {
            let id = words.next().ok_or_else(|| bad("no point id".into()))?;
            Ok(Line::Begin { id: id.to_string() })
        }
        Some("point") => {
            let id = words.next().ok_or_else(|| bad("no point id".into()))?;
            let mut fields = parse_fields(words).map_err(bad)?;
            let ok = fields.remove("ok").ok_or_else(|| bad("no ok".into()))? == 1.0;
            Ok(Line::Point(PointRecord {
                id: id.to_string(),
                ok,
                fields,
            }))
        }
        Some("done") => {
            let f = parse_fields(words).map_err(bad)?;
            let peak_rss_kb = *f
                .get("peak_rss_kb")
                .ok_or_else(|| bad("no peak_rss_kb".into()))?;
            Ok(Line::Done { peak_rss_kb })
        }
        _ => Err(bad("unknown line".into())),
    }
}

/// How a child ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Exit {
    Clean,
    /// Exited by itself, but not with `done` and status 0.
    Crashed(String),
    /// Killed at its deadline.
    TimedOut,
}

/// What one repetition produced, complete or not.
#[derive(Debug, Clone)]
pub struct Rep {
    pub observe: bool,
    pub planned: usize,
    pub points: Vec<PointRecord>,
    /// The point the child had begun and not finished when it ended.
    pub in_flight: Option<String>,
    /// Spawn to `ready`, on the parent's clock.
    pub ready_s: Option<f64>,
    pub peak_rss_kb: f64,
    /// Spawn and reap on the parent's clock, for the span log.
    pub spawned: Instant,
    pub reaped: Instant,
    pub exit: Exit,
}

impl Rep {
    /// Points that did not finish with a passing self-verification:
    /// failed ones, the one in flight at a kill, and those never begun.
    pub fn failed(&self) -> usize {
        self.planned - self.points.iter().filter(|p| p.ok).count()
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.points.iter().map(|p| p.get(key)).sum()
    }

    /// Host seconds for the point list: the time inside
    /// `MgsApp::execute`, summed.
    pub fn wall_s(&self) -> f64 {
        self.points.iter().map(PointRecord::exec_s).sum()
    }

    /// Child start to first timed point, plus every `Machine::new`.
    pub fn setup_s(&self) -> f64 {
        self.ready_s.unwrap_or(0.0) + self.points.iter().map(PointRecord::new_s).sum::<f64>()
    }

    /// One line saying what went wrong, if anything did.
    pub fn problem(&self) -> Option<String> {
        let at = match &self.in_flight {
            Some(id) => format!("in point {id}"),
            None if self.ready_s.is_none() => "before its first point".to_string(),
            None => "between points".to_string(),
        };
        match &self.exit {
            Exit::TimedOut => Some(format!("child killed at its deadline {at}")),
            Exit::Crashed(why) => Some(format!("child ended ({why}) {at}")),
            Exit::Clean => {
                let bad: Vec<&str> = self
                    .points
                    .iter()
                    .filter(|p| !p.ok)
                    .map(|p| p.id.as_str())
                    .collect();
                (!bad.is_empty()).then(|| format!("failed points: {}", bad.join(" ")))
            }
        }
    }
}

/// Runs one repetition of `workload` in a child process and waits for
/// it, killing it at `deadline`.
pub fn run_rep(
    workload: &Workload,
    seed: u64,
    observe: bool,
    smoke: bool,
    deadline: Duration,
) -> Rep {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--observe", if observe { "1" } else { "0" }])
        // The workload fixes engine and worker count; a stray override
        // from the caller's shell would change what is measured.
        .env_remove("MGS_VWORKERS")
        .env_remove("MGS_GOV_SPIN");
    if smoke {
        cmd.arg("--smoke");
    }
    supervise(cmd, observe, workload.points.len(), deadline)
}

/// Starts `cmd`, which speaks the child's line protocol and plans
/// `planned` points, and follows it to its end or to `deadline`.
fn supervise(mut cmd: Command, observe: bool, planned: usize, deadline: Duration) -> Rep {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let spawned = Instant::now();
    let mut child = cmd.spawn().expect("start child process");
    let stdout = child.stdout.take().expect("child stdout is piped");

    // The reader stamps each line as it arrives and ends at EOF, which
    // a kill also produces.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });

    let mut rep = Rep {
        observe,
        planned,
        points: Vec::new(),
        in_flight: None,
        ready_s: None,
        peak_rss_kb: 0.0,
        spawned,
        reaped: spawned,
        exit: Exit::Clean,
    };
    let mut done = false;
    loop {
        let left = deadline.saturating_sub(spawned.elapsed());
        match rx.recv_timeout(left) {
            Ok((at, text)) => match parse_line(&text).unwrap_or_else(|e| panic!("{e}")) {
                Line::Ready => rep.ready_s = Some((at - spawned).as_secs_f64()),
                Line::Begin { id } => rep.in_flight = Some(id),
                Line::Point(p) => {
                    rep.in_flight = None;
                    rep.points.push(p);
                }
                Line::Done { peak_rss_kb } => {
                    rep.peak_rss_kb = peak_rss_kb;
                    done = true;
                }
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                rep.exit = Exit::TimedOut;
                // Already-exited is the only error, and is fine.
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait().expect("reap child");
    reader.join().expect("reader thread");
    rep.reaped = Instant::now();
    if rep.exit == Exit::Clean && !(status.success() && done) {
        rep.exit = Exit::Crashed(status.to_string());
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_lines_parse() {
        assert_eq!(parse_line("ready").unwrap(), Line::Ready);
        assert_eq!(
            parse_line("begin water-24-p32-c4").unwrap(),
            Line::Begin {
                id: "water-24-p32-c4".into()
            }
        );
        let Line::Point(p) =
            parse_line("point tsp-7-p32-c1 ok=1 t_exec_us=10 t_collect_us=2000010 accesses=42")
                .unwrap()
        else {
            panic!("not a point");
        };
        assert!(p.ok);
        assert_eq!(p.id, "tsp-7-p32-c1");
        assert_eq!(p.get("accesses"), 42.0);
        assert_eq!(p.get("absent"), 0.0);
        assert_eq!(p.exec_s(), 2.0);
        assert_eq!(
            parse_line("done peak_rss_kb=2048").unwrap(),
            Line::Done {
                peak_rss_kb: 2048.0
            }
        );
    }

    #[test]
    fn malformed_lines_are_errors_that_quote_the_line() {
        for bad in [
            "",
            "hello",
            "point",
            "point x t=1",
            "point x ok=yes",
            "done rss=1",
            "begin",
        ] {
            let err = parse_line(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    fn rep(points: Vec<PointRecord>, planned: usize, exit: Exit, in_flight: Option<&str>) -> Rep {
        let now = Instant::now();
        Rep {
            observe: false,
            planned,
            points,
            in_flight: in_flight.map(String::from),
            ready_s: Some(0.25),
            peak_rss_kb: 0.0,
            spawned: now,
            reaped: now,
            exit,
        }
    }

    fn point(id: &str, ok: bool, new_us: f64, exec_us: f64) -> PointRecord {
        let fields = [
            ("t_new_us", 0.0),
            ("t_exec_us", new_us),
            ("t_collect_us", new_us + exec_us),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        PointRecord {
            id: id.into(),
            ok,
            fields,
        }
    }

    /// A stand-in child: a shell script speaking the line protocol.
    fn script(body: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", body]);
        cmd
    }

    #[test]
    fn a_hung_child_is_killed_at_its_deadline_and_its_point_is_named() {
        let cmd = script(
            "echo ready; echo 'begin a'; echo 'point a ok=1 t_exec_us=0 t_collect_us=1000'; \
             echo 'begin b'; exec sleep 30",
        );
        let started = Instant::now();
        let r = supervise(cmd, false, 3, Duration::from_millis(300));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the kill did not wait for the sleep"
        );
        assert_eq!(r.exit, Exit::TimedOut);
        assert_eq!(r.points.len(), 1, "the finished point is kept");
        assert_eq!(r.failed(), 2, "the hung point and the one never begun");
        assert_eq!(
            r.problem().unwrap(),
            "child killed at its deadline in point b"
        );
    }

    #[test]
    fn a_clean_child_reports_every_point_and_its_peak_rss() {
        let cmd = script(
            "echo ready; echo 'begin a'; echo 'point a ok=1 p=32'; \
             echo 'begin b'; echo 'point b ok=0 p=32'; echo 'done peak_rss_kb=2048'",
        );
        let r = supervise(cmd, true, 2, Duration::from_secs(10));
        assert_eq!(r.exit, Exit::Clean);
        assert!(r.observe && r.ready_s.is_some());
        assert_eq!((r.points.len(), r.failed(), r.peak_rss_kb), (2, 1, 2048.0));
        assert_eq!(r.sum("p"), 64.0);
    }

    #[test]
    fn a_child_that_dies_mid_point_is_a_crash_in_that_point() {
        let r = supervise(
            script("echo ready; echo 'begin a'; exit 3"),
            false,
            2,
            Duration::from_secs(10),
        );
        assert!(
            matches!(&r.exit, Exit::Crashed(why) if why.contains('3')),
            "{:?}",
            r.exit
        );
        assert_eq!(r.failed(), 2);
        assert!(r.problem().unwrap().ends_with("in point a"));
        // Exit status 0 without `done` is a crash too.
        let r = supervise(script("echo ready"), false, 1, Duration::from_secs(10));
        assert!(matches!(r.exit, Exit::Crashed(_)));
        assert!(r.problem().unwrap().ends_with("between points"));
    }

    #[test]
    fn unfinished_points_count_as_failed_and_the_hang_is_named() {
        let r = rep(
            vec![point("a", true, 1e5, 1e6)],
            3,
            Exit::TimedOut,
            Some("b"),
        );
        assert_eq!(r.failed(), 2);
        assert_eq!(r.wall_s(), 1.0);
        assert_eq!(r.setup_s(), 0.25 + 0.1);
        assert!(r.problem().unwrap().contains("in point b"));
    }

    #[test]
    fn a_failed_point_does_not_lose_the_others() {
        let r = rep(
            vec![
                point("a", true, 0.0, 1e6),
                point("b", false, 0.0, 1e6),
                point("c", true, 0.0, 1e6),
            ],
            3,
            Exit::Clean,
            None,
        );
        assert_eq!(r.failed(), 1);
        assert_eq!(r.wall_s(), 3.0);
        assert_eq!(r.problem().unwrap(), "failed points: b");
        let clean = rep(vec![point("a", true, 0.0, 1.0)], 1, Exit::Clean, None);
        assert_eq!(clean.failed(), 0);
        assert!(clean.problem().is_none());
    }
}
