//! The `mgs-bench` executable from outside: command dispatch, flag
//! checking, and the reproducibility of what it prints.

use std::process::Command;

fn mgs_bench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mgs-bench"));
    // The override is a stress knob (DESIGN.md § "Pacing"); a published
    // number is what the binary prints without it.
    cmd.args(args).env_remove("MGS_VWORKERS");
    cmd
}

/// Exit status 2, nothing on stdout, and on stderr the usage line
/// followed by the command table — exactly the 7 names.
fn assert_usage_error(args: &[&str]) -> String {
    let out = mgs_bench(args).output().expect("run mgs-bench");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("usage: mgs-bench <command>"), "{stderr}");
    assert!(
        stderr.ends_with("commands: table3 paper ablation chaos scenario adaptive profile\n"),
        "{stderr}"
    );
    stderr
}

/// A missing or unknown command is a usage error, not a panic (which
/// would exit 101).
#[test]
fn unknown_command_is_a_usage_error_listing_the_seven() {
    for args in [&["nope"][..], &[], &["--quick"], &["summary"], &["scaling"]] {
        assert!(assert_usage_error(args).contains("unknown command"));
    }
}

/// A `--flag` that neither the common parser nor the running command
/// reads is a usage error naming it — not a silently ignored
/// positional: a retired flag, a made-up one, a misspelt one, and one
/// that belongs to a different command.
#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    for (args, flag) in [
        (&["paper", "--reps", "3"][..], "--reps"),
        (&["paper", "--json"], "--json"),
        (&["table3", "--bogus"], "--bogus"),
        (&["table3", "--job", "4"], "--job"),
        (&["paper", "--smoke"], "--smoke"),
    ] {
        let stderr = assert_usage_error(args);
        assert!(
            stderr.contains(&format!("unknown flag {flag:?}")),
            "{stderr}"
        );
    }
}

/// A command's own flags and positionals still pass.
#[test]
fn declared_flags_and_app_names_are_accepted() {
    for args in [
        &["profile", "--quick", "--p", "4", "--no-trace", "water"][..],
        &["profile", "--smoke", "--no-trace", "--c", "2", "--top", "3"],
    ] {
        let dir = std::env::temp_dir().join(format!("mgs-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let out = mgs_bench(args)
            .current_dir(&dir) // `profile` writes results/ where it runs
            .output()
            .expect("run mgs-bench");
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
}

/// A sweep whose `C = 1` point has more SSMPs than the protocol tracks
/// fails on the main thread before any point runs, naming the limit.
#[test]
fn a_sweep_past_64_ssmps_fails_before_it_starts() {
    let out = mgs_bench(&["paper", "--p", "128", "--quick"])
        .output()
        .expect("run mgs-bench");
    assert_eq!(out.status.code(), Some(101), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at most 64 SSMPs"), "{stderr}");
    assert!(stderr.contains("'main'"), "{stderr}");
    assert!(!stderr.contains("scoped thread"), "{stderr}");
}

/// `paper` sweeps every application: a name after it (a known one or
/// not) fails on the main thread before any machine runs and points to
/// `profile`, instead of running the whole sweep.
#[test]
fn paper_refuses_an_application_name() {
    for args in [&["paper", "jacobi"][..], &["paper", "--quick", "bogus"]] {
        let out = mgs_bench(args).output().expect("run mgs-bench");
        assert_eq!(out.status.code(), Some(101), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`mgs-bench profile <app>`"), "{stderr}");
        assert!(!stderr.contains("machines"), "{stderr}");
    }
}

/// With no environment variable set `paper` writes the same five files
/// on every run, and the same bytes however many points run at once.
#[test]
fn a_sweep_prints_the_same_bytes_twice_and_at_any_jobs() {
    let sweep = |run: &str, jobs: &str| {
        let dir =
            std::env::temp_dir().join(format!("mgs-bench-cli-sweep-{}-{run}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let out = mgs_bench(&["paper", "--quick", "--p", "4", "--jobs", jobs])
            .current_dir(&dir)
            .output()
            .expect("run mgs-bench");
        assert!(out.status.success(), "{out:?}");
        let files: Vec<(&str, Vec<u8>)> = ["table4", "figures", "fig11", "fig12", "summary"]
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(format!("results/{name}.txt")))
                    .unwrap_or_else(|e| panic!("{name}.txt: {e}"));
                assert!(!bytes.is_empty(), "{name}.txt is empty");
                (name, bytes)
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        files
    };
    let first = sweep("a", "4");
    assert_eq!(first, sweep("b", "4"), "two runs at --jobs 4");
    assert_eq!(first, sweep("c", "1"), "--jobs 4 against --jobs 1");
}

/// The top-level `(key, value text)` members of a JSON object, in
/// document order (enough of a parser for the harness's own output).
fn members(json: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0, false, false, 0);
    for (i, ch) in json.char_indices() {
        if in_string {
            match (escaped, ch) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                if depth == 1 {
                    start = i + 1;
                }
            }
            '}' | ']' | ',' => {
                if depth == 1 {
                    let (key, value) = json[start..i].split_once(':').expect("a key");
                    out.push((key.trim().to_string(), value.trim().to_string()));
                    start = i + 1;
                }
                if ch != ',' {
                    depth -= 1;
                }
            }
            _ => {}
        }
    }
    out
}

/// `profile --smoke` writes the committed sample again: every
/// top-level member but `governor` (host wall-clock waits) is the same
/// text, the metrics' counters included.
#[test]
fn profile_smoke_rewrites_the_committed_sample() {
    let dir = std::env::temp_dir().join(format!("mgs-bench-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = mgs_bench(&["profile", "--smoke", "--no-trace"])
        .current_dir(&dir)
        .output()
        .expect("run mgs-bench");
    let fresh = std::fs::read_to_string(dir.join("results/profile_jacobi_c4.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/profile_jacobi_c4.json"
    );
    let committed = std::fs::read_to_string(committed).expect("committed sample");
    let keep = |json: &str| {
        let mut m = members(json);
        let before = m.len();
        m.retain(|(key, _)| key != "\"governor\"");
        assert_eq!(m.len() + 1, before, "one governor member");
        m
    };
    let (fresh, committed) = (
        keep(&fresh.expect("profile wrote its JSON")),
        keep(&committed),
    );
    assert!(committed.len() >= 10, "{committed:?}");
    assert_eq!(
        fresh.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        committed.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        "the same members in the same order"
    );
    for ((key, now), (_, then)) in fresh.iter().zip(&committed) {
        assert_eq!(now, then, "member {key}");
    }
}
