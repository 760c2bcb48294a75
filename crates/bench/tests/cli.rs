//! The `mgs-bench` executable's command dispatch, from outside.

use std::process::Command;

/// A missing or unknown command is a usage error — exit status 2 and
/// the command table, exactly the 12 names, on stderr — not a panic
/// (which would exit 101).
#[test]
fn unknown_command_is_a_usage_error_listing_the_twelve() {
    for args in [&["nope"][..], &[], &["--quick"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mgs-bench"))
            .args(args)
            .output()
            .expect("run mgs-bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mgs-bench <command>"), "{stderr}");
        assert!(
            stderr.ends_with(
                "commands: table3 table4 figures fig11 fig12 summary ablation scaling \
                 chaos scenario adaptive profile\n"
            ),
            "{stderr}"
        );
    }
}
