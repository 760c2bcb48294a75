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
/// followed by the command table — exactly the 12 names.
fn assert_usage_error(args: &[&str]) -> String {
    let out = mgs_bench(args).output().expect("run mgs-bench");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("usage: mgs-bench <command>"), "{stderr}");
    assert!(
        stderr.ends_with(
            "commands: table3 table4 figures fig11 fig12 summary ablation scaling \
             chaos scenario adaptive profile\n"
        ),
        "{stderr}"
    );
    stderr
}

/// A missing or unknown command is a usage error, not a panic (which
/// would exit 101).
#[test]
fn unknown_command_is_a_usage_error_listing_the_twelve() {
    for args in [&["nope"][..], &[], &["--quick"]] {
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
        (&["summary", "--reps", "3"][..], "--reps"),
        (&["table3", "--bogus"], "--bogus"),
        (&["table3", "--job", "4"], "--job"),
        (&["table4", "--smoke"], "--smoke"),
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
        &["figures", "--quick", "--p", "4", "jacobi"][..],
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

/// With no environment variable set a sweep command prints the same
/// bytes on every run, and the same bytes however many points run at
/// once.
#[test]
fn a_sweep_prints_the_same_bytes_twice_and_at_any_jobs() {
    let sweep = |jobs: &str| {
        let out = mgs_bench(&["summary", "--quick", "--p", "4", "--jobs", jobs])
            .output()
            .expect("run mgs-bench");
        assert!(out.status.success(), "{out:?}");
        assert!(!out.stdout.is_empty());
        out.stdout
    };
    let first = sweep("4");
    assert_eq!(first, sweep("4"), "two runs at --jobs 4");
    assert_eq!(first, sweep("1"), "--jobs 4 against --jobs 1");
}
