//! The `figures` binary rejects malformed arguments with exit status 2 and a
//! message on stderr, never a panic, before any simulation runs.

use std::process::Command;

#[test]
fn malformed_arguments_exit_2_with_a_message() {
    for args in [
        &["--matrix", "0x3"][..],
        &["--matrix", "2"],
        &["--matrix", "9x1"],
        &["--workers", "0"],
        &["--workers", "x"],
        &["--cache-dir"],
        &["--bogus"],
        &["nosuchfigure"],
        &["--no-cache", "--wipe-cache"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.trim().is_empty(), "{args:?}: no message on stderr");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
