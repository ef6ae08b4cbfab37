//! The `repro` binary treats a bad command line as a usage error.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"fig99\""), "{stderr}");
    assert!(stderr.contains("headline"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
