//! The benchmark's own checks: its order statistics, its metric names,
//! and that the traced rebuild of every workload's op reproduces the
//! untraced op exactly.

use std::process::Command;

use perfbench::stats::{median, nearest_rank_tail, percentile, BEYOND};
use perfbench::traced::{outage_remaining, traced_op, TraceSetup, PER_LAYER};
use perfbench::workload::{derive_seed, SimState, Workload, OUTAGE};
use perfbench::END_TO_END;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    // 1..=100: p90 sits at rank 90 with exactly 10 beyond; p91 would
    // leave 9.
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = nearest_rank_tail(&xs, 99).expect("100 samples have a tail");
    assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));

    // 1000 samples reach p99 (rank 990, 10 beyond).
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = nearest_rank_tail(&xs, 99).expect("1000 samples have a tail");
    assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));

    // A cap stops the tail short of the highest qualifying percentile.
    let t = nearest_rank_tail(&xs, 95).expect("1000 samples have a tail");
    assert_eq!((t.percentile, t.value), (95, 950.0));
    let p = percentile(&xs, 90).expect("non-empty");
    assert_eq!((p.percentile, p.value, p.samples), (90, 900.0, 1000));
    assert_eq!(percentile(&[], 90), None);

    // 11 samples are the fewest with any tail; 10 have none.
    let xs: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = nearest_rank_tail(&xs, 99).expect("11 samples have a tail");
    assert_eq!(t.samples - t.value as usize, BEYOND);
    assert_eq!(nearest_rank_tail(&xs[..10], 99), None);

    // Whatever the count, at least 10 samples lie strictly past the rank.
    for n in 11..400usize {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = nearest_rank_tail(&xs, 99).expect("tail");
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert!(beyond >= BEYOND, "n={n}: {beyond} beyond p{}", t.percentile);
        let next_rank = ((t.percentile as usize + 1) * n).div_ceil(100);
        assert!(
            t.percentile == 99 || n - next_rank < BEYOND,
            "n={n}: p{} is not the highest qualifying percentile",
            t.percentile
        );
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_match_the_manifest() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark directory");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut names: Vec<&str> = workloads.clone();
    names.extend(END_TO_END.iter().map(|m| m.0));
    names.extend(PER_LAYER.iter().map(|m| m.0));
    for name in &names {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(
            manifest.contains(&format!("{{\"name\": \"{name}\"")),
            "{name} is not in BENCHMARK.json"
        );
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    assert_eq!(
        manifest.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json names nothing the benchmark does not print"
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            manifest.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}: unit {unit} differs from BENCHMARK.json"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Ok(w));
    }
    assert!(Workload::parse("hit").unwrap_err().contains("smc-stream"));
}

/// Run the untraced op once, then the traced rebuild against it.
fn traced_matches_untraced(w: Workload, seed: u64, n: u64) -> perfbench::traced::Layers {
    let op = w.op_sized(seed, n).expect("built-in workload builds");
    let outcome = op
        .check(op.run().expect("untraced op runs"))
        .expect("untraced op passes its checks");
    let setup = TraceSetup::new(&op, outcome.state.clone()).expect("trace set-up");
    let layers = traced_op(&op, &setup).expect("traced op reproduces the untraced op");

    // The faithfulness check gates: a reference one cycle off is refused.
    let mut skewed = outcome.state;
    match &mut skewed {
        SimState::Stream { cycles, .. } => *cycles += 1,
        SimState::Serve { report, .. } => report.cycles += 1,
    }
    let setup = TraceSetup::new(&op, skewed).expect("trace set-up");
    assert!(
        traced_op(&op, &setup).is_err(),
        "{}: skew undetected",
        w.name()
    );
    layers
}

#[test]
fn traced_stream_ops_reproduce_run_kernel_at_small_n() {
    let smc = traced_matches_untraced(Workload::SmcStream, 1, 256);
    assert!(smc.smc_ticks > 0 && smc.baseline_ticks == 0);
    assert!(smc.replayed_commands > 0 && smc.checked_commands == 0);

    let natural = traced_matches_untraced(Workload::NaturalStream, 1, 256);
    assert!(natural.baseline_ticks > 0 && natural.smc_ticks == 0);

    let audit = traced_matches_untraced(Workload::Audit, 1, 256);
    assert!(audit.checked_commands > 0 && audit.violations == 0);
    assert_eq!(audit.timeline_commands, audit.replayed_commands);
}

#[test]
fn traced_serve_reproduces_the_serve_on_two_seeds() {
    for seed in [1, 2] {
        let l = traced_matches_untraced(Workload::ServeChaos, seed, 0);
        assert!(l.requests_executed > 0 && l.smc_ticks > 0);
        assert!(l.mttr_cycles > 0 && l.mttr_cycles <= l.requests_executed * OUTAGE.1);
    }
    assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
    assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
}

#[test]
fn outage_remaining_is_the_window_left_at_submission() {
    let (from, len) = OUTAGE;
    assert_eq!(outage_remaining(0), len);
    assert_eq!(outage_remaining(from), len);
    assert_eq!(outage_remaining(from + 100), len - 100);
    assert_eq!(outage_remaining(from + len), 0);
}

#[test]
fn last_line_is_the_result_object() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "natural-stream",
            "--seconds",
            "0.1",
            "--seed",
            "7",
        ])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for (name, unit) in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")) && last.contains(unit),
            "{name} missing from {last}"
        );
    }
    assert!(stdout.contains("\"seed\": 7"), "the seed is recorded");

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "hit"])
        .output()
        .expect("benchmark runs");
    assert!(!bad.status.success() && bad.stdout.is_empty());
}
