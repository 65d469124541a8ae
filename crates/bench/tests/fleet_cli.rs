//! The `fleet` binary rejects an invalid fleet shape with exit status 2 and
//! the configuration's validation message, before any calibration runs.

use std::process::Command;

#[test]
fn invalid_fleet_shapes_exit_2_with_the_validation_message() {
    for args in [
        &["--racks", "0"][..],
        &["--servers", "0"],
        &["--servers", "10", "--racks", "3"],
        &["--servers", "4", "--racks", "8"],
        &["--requests", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(args)
            .output()
            .expect("fleet binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("invalid fleet configuration: "), "{args:?}: {stderr}");
    }
}
