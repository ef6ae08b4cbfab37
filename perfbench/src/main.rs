//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Sets the workload's op up, then runs it back to back for `--seconds`,
//! setting it up again five times along the way, and prints every metric
//! by name with its unit. The last
//! line of standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced run with `--trace 1`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::report::{host_fingerprint, metrics_object, number, peak_rss_mib, quote};
use perfbench::stats::{median, nearest_rank_tail, percentile};
use perfbench::traced::{traced_op, TraceSetup, PER_LAYER};
use perfbench::workload::{Op, Outcome, Workload};
use perfbench::END_TO_END;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 6;
/// Timed ops a run makes at least, so the tail has 10 samples beyond it.
const MIN_OPS: usize = 21;
/// Percentile of op wall time the per-cycle rates are read at.
const RATE_PERCENTILE: u32 = 90;
/// Highest percentile `op_ms.tail` reports.
const TAIL_CAP: u32 = 95;
/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One op: its wall time (the `run` call alone) and its checked outcome.
/// A panic inside the simulator counts as a failed op.
fn sample(op: &Op) -> (Duration, Result<Outcome, String>) {
    let start = Instant::now();
    let raw = catch_unwind(AssertUnwindSafe(|| op.run()));
    let wall = start.elapsed();
    let outcome = match raw {
        Ok(Ok(raw)) => op.check(raw),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("the op panicked".to_string()),
    };
    (wall, outcome)
}

/// One set-up: build the workload's op and run it once as a warm-up.
/// Returns the set-up time in seconds, the op and the warm-up's outcome.
fn set_up(args: &Args) -> Result<(f64, Op, Result<Outcome, String>), String> {
    let start = Instant::now();
    let op = args.workload.op(args.seed)?;
    let (_, outcome) = sample(&op);
    Ok((start.elapsed().as_secs_f64(), op, outcome))
}

/// Timed samples of one kind: offset from the start of the measurement,
/// wall time, and whether the op passed its checks.
#[derive(Default)]
struct Samples(Vec<(Duration, Duration, bool)>);

impl Samples {
    fn push(&mut self, offset: Duration, wall: Duration, ok: bool) {
        self.0.push((offset, wall, ok));
    }

    fn failed(&self) -> usize {
        self.0.iter().filter(|s| !s.2).count()
    }

    /// Wall times of the ops that passed, in ms.
    fn ok_ms(&self) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.2)
            .map(|s| s.1.as_secs_f64() * 1e3)
            .collect()
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(at, wall, ok)| {
                format!(
                    "[{}, {}, {ok}]",
                    number(at.as_secs_f64()),
                    number(wall.as_secs_f64() * 1e3)
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    match run(started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(started: Instant) -> Result<(), String> {
    let args = parse_args()?;

    // The first set-up builds the op the run measures and fixes the
    // reference result every later op must reproduce.
    let (first_setup_s, op, outcome) = set_up(&args)?;
    let reference = outcome.map_err(|e| format!("warm-up op failed: {e}"))?;
    let first_op_s = started.elapsed().as_secs_f64();
    let mut setup_s = vec![first_setup_s];

    let check = |outcome: Result<Outcome, String>| match outcome {
        Ok(o) if o == reference => true,
        Ok(_) => {
            eprintln!("perfbench: op result differs from the first op's");
            false
        }
        Err(e) => {
            eprintln!("perfbench: op failed: {e}");
            false
        }
    };

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut layer_rows = Vec::new();
    let mut unfaithful: Option<String> = None;
    let trace_setup = if args.trace {
        Some(TraceSetup::new(&op, reference.state.clone())?)
    } else {
        None
    };
    // The other set-ups are spread evenly over the measurement, so their
    // median samples the same host phases the ops do.
    let setup_every = args.seconds / SETUP_REPS as u32;
    let mut setup_failed = 0;
    let t0 = Instant::now();
    while t0.elapsed() < args.seconds || untraced.0.len() < MIN_OPS {
        if setup_s.len() < SETUP_REPS && t0.elapsed() >= setup_every * setup_s.len() as u32 {
            let (secs, _, outcome) = set_up(&args)?;
            setup_s.push(secs);
            setup_failed += usize::from(!check(outcome));
        }
        let at = t0.elapsed();
        let (wall, outcome) = sample(&op);
        untraced.push(at, wall, check(outcome));
        if let Some(ts) = &trace_setup {
            let at = t0.elapsed();
            let start = Instant::now();
            let layers = catch_unwind(AssertUnwindSafe(|| traced_op(&op, ts)));
            let wall = start.elapsed();
            let layers = layers.unwrap_or_else(|_| Err("the traced op panicked".to_string()));
            traced.push(at, wall, layers.is_ok());
            match layers {
                Ok(l) => layer_rows.push(l.metrics()),
                Err(e) => {
                    eprintln!("perfbench: traced op is not faithful: {e}");
                    unfaithful.get_or_insert(e);
                }
            }
        }
    }

    let attempted = untraced.0.len() + traced.0.len() + setup_s.len() - 1;
    let failed = untraced.failed() + traced.failed() + setup_failed;
    let ok_ms = untraced.ok_ms();
    // Rates come from the p90 op and the tail stops at p95. The host moves
    // between speed states lasting seconds to minutes: the median lands in
    // whichever state held longest, and the highest percentiles in short
    // bursts of the slowest. p90 reads the common slow state in every run.
    let rate_ms = percentile(&ok_ms, RATE_PERCENTILE).map_or(0.0, |r| r.value);
    let tail = nearest_rank_tail(&ok_ms, TAIL_CAP);
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let rate_of = |xs: &[f64]| percentile(xs, RATE_PERCENTILE).map_or(0.0, |r| r.value);
        let traced_ms: Vec<f64> = traced.0.iter().map(|s| s.1.as_secs_f64() * 1e3).collect();
        let overhead = 1000.0 * rate_of(&traced_ms) / rate_ms.max(1e-9);
        if unfaithful.is_none() {
            for (i, (name, unit)) in PER_LAYER.iter().enumerate().take(PER_LAYER.len() - 1) {
                let column: Vec<f64> = layer_rows.iter().map(|row| row[i]).collect();
                metrics.push((name, unit, rate_of(&column)));
            }
        }
        let (name, unit) = PER_LAYER[PER_LAYER.len() - 1];
        metrics.push((name, unit, overhead));
    } else {
        let values = [
            rate_ms * 1e6 / reference.sim_cycles.max(1) as f64,
            tail.map_or(0.0, |t| t.value),
            median(&setup_s).unwrap_or(0.0),
            peak_rss_mib().unwrap_or(0.0),
            reference.percent_peak,
            1000.0 * (ok_ms.len() as u64 * reference.served) as f64
                / (untraced.0.len() as u64 * reference.submitted).max(1) as f64,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, unit, value));
        }
    }

    println!(
        "workload {} seed {} trace {}: {attempted} ops, {failed} failed, over {:.2} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        t0.elapsed().as_secs_f64()
    );
    for (name, unit, value) in &metrics {
        println!("{name:<32} {:>16} {unit}", number(*value));
    }
    if let Some(t) = tail {
        let highest = nearest_rank_tail(&ok_ms, 99).map_or(0.0, |h| h.value);
        println!(
            "untraced ops: {} ms at p{RATE_PERCENTILE}, {} ms at p{} (op_ms.tail), of {}; \
             median {} ms, highest p with 10 beyond {} ms",
            number(rate_ms),
            number(t.value),
            t.percentile,
            t.samples,
            number(median(&ok_ms).unwrap_or(0.0)),
            number(highest)
        );
    }
    if let Some(e) = &unfaithful {
        println!("per-layer metrics withheld: {e}");
    }
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \
         \"setup_s\": [{}], \"first_op_s\": {}, \
         \"tail\": {{\"percentile\": {}, \"samples\": {}}}, \
         \"sim_cycles\": {}, \"samples\": {}, \"traced_samples\": {}}}",
        quote(args.workload.name()),
        args.seed,
        args.trace,
        host_fingerprint(),
        setup_s
            .iter()
            .map(|s| number(*s))
            .collect::<Vec<_>>()
            .join(", "),
        number(first_op_s),
        tail.map_or(0, |t| t.percentile),
        tail.map_or(0, |t| t.samples),
        reference.sim_cycles,
        untraced.json(),
        traced.json(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && unfaithful.is_none() && tail.is_some(),
        metrics_object(&metrics)
    );
    Ok(())
}
