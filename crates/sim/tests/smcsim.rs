//! The `smcsim` binary's exit codes: 0 ok, 1 a failed run, a conformance
//! violation or a gate regression, 2 bad arguments. No input panics.

use std::path::PathBuf;
use std::process::{Command, Output};

fn smcsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smcsim"))
        .args(args)
        .output()
        .expect("smcsim runs")
}

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = smcsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    out.status.code()
}

#[test]
fn help_exits_0() {
    let out = smcsim(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: smcsim"));
}

#[test]
fn usage_errors_exit_2_in_every_subcommand() {
    for args in [
        &["--frob"][..],
        &["--n", "64", "--record-trace", "--json"],
        &["check"],
        &["report", "--bogus"],
        &["bench", "--what"],
        &["serve", "--frob"],
        &["serve", "--tenants", "ls:1:daxpy:64", "--arb", "lifo"],
        &["campaign"],
        &["campaign", "run"],
        &["campaign", "list"],
        &["campaign", "diff", "only-one.jsonl"],
    ] {
        assert_eq!(exit_code(args), Some(2), "{args:?}");
    }
}

#[test]
fn a_fifo_too_shallow_for_one_packet_is_a_failed_run_not_a_panic() {
    let out = smcsim(&["--kernel", "copy", "--n", "64", "--fifo", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid configuration"), "{stderr}");
}

#[test]
fn a_drifted_campaign_diff_exits_1() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/smoke.golden.jsonl");
    let text = std::fs::read_to_string(&golden).unwrap();
    let drifted = text.replacen("\"cycles\":597,", "\"cycles\":600,", 1);
    assert_ne!(text, drifted, "the golden's first run took 597 cycles");
    let dir = std::env::temp_dir().join("smcsim-exit-code-test");
    std::fs::create_dir_all(&dir).unwrap();
    let current = dir.join("drifted.jsonl");
    std::fs::write(&current, drifted).unwrap();
    let code = exit_code(&[
        "campaign",
        "diff",
        golden.to_str().unwrap(),
        current.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1));
}
